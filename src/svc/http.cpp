#include "dvfs/svc/http.h"

#include <charconv>
#include <cmath>
#include <optional>
#include <string>

#include "dvfs/common.h"
#include "dvfs/obs/json.h"
#include "dvfs/obs/reqtrace.h"

namespace dvfs::svc {

namespace {

obs::MetricsHttpServer::Response json_response(int status, std::string body) {
  return {status, "application/json; charset=utf-8", std::move(body) + "\n"};
}

/// `{"error":message}`, escaped by the JSON writer.
obs::MetricsHttpServer::Response error_response(int status,
                                                const char* message) {
  return json_response(
      status, obs::Json(obs::Json::Object{{"error", obs::Json(message)}})
                  .dump(-1));
}

std::optional<std::uint64_t> parse_u64(const std::string& text) {
  if (text.empty()) return std::nullopt;
  std::uint64_t v = 0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), v);
  if (ec != std::errc{} || ptr != text.data() + text.size()) {
    return std::nullopt;
  }
  return v;
}

/// True iff `v` is an integer in [lo, 2^53]: JSON numbers arrive as
/// doubles, and above 2^53 a double no longer holds every integer.
bool exact_integer(double v, double lo) {
  constexpr double kMaxExact = 9007199254740992.0;  // 2^53
  return v >= lo && v <= kMaxExact && std::floor(v) == v;
}

using Kind = obs::JsonReader::Kind;

constexpr const char* kBadJson = "bad JSON";
constexpr const char* kNeedFields =
    "task needs numeric \"id\" and \"cycles\" fields";
constexpr const char* kOutOfRange =
    "id and cycles must be integers in [0, 2^53] and [1, 2^53]";
constexpr const char* kTasksNotArray = "\"tasks\" must be an array";

/// An `id` or `cycles` member as its last occurrence left it.
struct Field {
  enum class State : std::uint8_t { kMissing, kNumber, kOther };
  State state = State::kMissing;
  double value = 0.0;

  void read(obs::JsonReader& r) {
    if (r.peek() == Kind::kNumber) {
      *this = {State::kNumber, r.number()};
    } else {
      r.skip_value();
      *this = {State::kOther};
    }
  }
};

/// The schema rule an object's `id`/`cycles` break, or nullptr with
/// `out` set.
const char* check_task(const Field& id, const Field& cycles,
                       Submission& out) {
  if (id.state != Field::State::kNumber ||
      cycles.state != Field::State::kNumber) {
    return kNeedFields;
  }
  if (!exact_integer(id.value, 0.0) || !exact_integer(cycles.value, 1.0)) {
    return kOutOfRange;
  }
  out = {static_cast<core::TaskId>(id.value),
         static_cast<Cycles>(cycles.value)};
  return nullptr;
}

/// Reads one element of a `"tasks"` array.
const char* read_task(obs::JsonReader& r, Submission& out) {
  if (r.peek() != Kind::kObject) {
    r.skip_value();
    return kNeedFields;
  }
  r.begin_object();
  Field id;
  Field cycles;
  std::string_view key;
  while (r.next_key(key)) {
    if (key == "id") {
      id.read(r);
    } else if (key == "cycles") {
      cycles.read(r);
    } else {
      r.skip_value();
    }
  }
  return check_task(id, cycles, out);
}

/// Reads a `"tasks"` value into `tasks` (cleared first): the first bad
/// task's rule, or nullptr. Every element is read, bad or not.
const char* read_tasks(obs::JsonReader& r, std::vector<Submission>& tasks) {
  tasks.clear();
  if (r.peek() != Kind::kArray) {
    r.skip_value();
    return kTasksNotArray;
  }
  const char* first_error = nullptr;
  r.begin_array();
  while (r.next_element()) {
    Submission task;
    const char* error = read_task(r, task);
    if (first_error != nullptr) continue;
    if (error != nullptr) {
      first_error = error;
    } else {
      tasks.push_back(task);
    }
  }
  return first_error;
}

/// The body's schema error (syntax errors throw), or nullptr with
/// `tasks` filled.
const char* read_body(obs::JsonReader& r, std::vector<Submission>& tasks) {
  if (r.peek() != Kind::kObject) {
    r.skip_value();
    r.finish();
    return kNeedFields;
  }
  r.begin_object();
  // Set by a "tasks" member (the last one wins): its verdict.
  std::optional<const char*> batch;
  Field id;
  Field cycles;
  std::string_view key;
  while (r.next_key(key)) {
    if (key == "tasks") {
      batch = read_tasks(r, tasks);
    } else if (key == "id") {
      id.read(r);
    } else if (key == "cycles") {
      cycles.read(r);
    } else {
      r.skip_value();
    }
  }
  r.finish();
  if (batch.has_value()) return *batch;
  tasks.emplace_back();
  return check_task(id, cycles, tasks.back());
}

}  // namespace

const char* decode_submit(std::string_view body,
                          std::vector<Submission>& tasks) {
  tasks.clear();
  const char* error = nullptr;
  try {
    obs::JsonReader reader(body);
    error = read_body(reader, tasks);
  } catch (const std::exception&) {
    error = kBadJson;
  }
  if (error != nullptr) tasks.clear();
  return error;
}

void register_service_routes(obs::MetricsHttpServer& server,
                             SchedulingService& svc) {
  SchedulingService* s = &svc;

  server.add_route(
      "POST", "/submit",
      [s](const obs::MetricsHttpServer::Request& req) {
        // Reused by every request on the serving thread. Nothing is
        // admitted unless the whole body is valid.
        thread_local std::vector<Submission> tasks;
        if (const char* error = decode_submit(req.body, tasks)) {
          return error_response(400, error);
        }
        const std::size_t accepted = s->submit(tasks);
        const std::size_t rejected = tasks.size() - accepted;
        // All-rejected = pure backpressure (full rings or draining):
        // 503 so callers and the smoke test see the overload distinctly.
        const int status = (accepted == 0 && rejected > 0) ? 503 : 202;
        return json_response(
            status, "{\"accepted\":" + std::to_string(accepted) +
                        ",\"rejected\":" + std::to_string(rejected) + "}");
      });

  server.add_prefix_route(
      "GET", "/schedule/",
      [s](const obs::MetricsHttpServer::Request& req) {
        const std::string tail =
            req.path.substr(std::string("/schedule/").size());
        const auto id = parse_u64(tail);
        if (!id.has_value()) {
          return error_response(400, "bad task id");
        }
        const std::optional<TaskStatus> st = s->status(*id);
        if (!st.has_value()) {
          return error_response(404, "unknown task");
        }
        obs::Json::Object out;
        out["id"] = obs::Json(static_cast<double>(*id));
        out["state"] = obs::Json(to_string(st->state));
        out["shard"] = obs::Json(static_cast<double>(st->shard));
        out["core"] = obs::Json(static_cast<double>(st->core));
        out["rate_idx"] = obs::Json(static_cast<double>(st->rate_idx));
        out["cycles"] = obs::Json(static_cast<double>(st->cycles));
        out["marginal_cost"] = obs::Json(st->marginal);
        out["trace_id"] = obs::Json(obs::reqtrace::trace_id_hex(st->trace));
        return json_response(200, obs::Json(std::move(out)).dump(-1));
      });

  server.add_prefix_route(
      "GET", "/tasks/",
      [s](const obs::MetricsHttpServer::Request& req) {
        // /tasks/{id}/trace — anything else under /tasks/ is a 404.
        const std::string prefix = "/tasks/";
        const std::string suffix = "/trace";
        if (req.path.size() <= prefix.size() + suffix.size() ||
            req.path.compare(req.path.size() - suffix.size(), suffix.size(),
                             suffix) != 0) {
          return error_response(404, "not found");
        }
        const std::string middle = req.path.substr(
            prefix.size(), req.path.size() - prefix.size() - suffix.size());
        const auto id = parse_u64(middle);
        if (!id.has_value()) {
          return error_response(400, "bad task id");
        }
        const auto timeline = s->traces().get(*id);
        if (!timeline.has_value()) {
          return error_response(404, "unknown task");
        }
        return json_response(
            200, obs::reqtrace::timeline_json(*timeline).dump(-1));
      });
}

}  // namespace dvfs::svc
