#include "dvfs/svc/http.h"

#include <charconv>
#include <cmath>
#include <optional>
#include <span>
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

/// One {"id":...,"cycles":...} object of a /submit body, or the schema
/// rule it breaks.
struct TaskFields {
  const char* error = nullptr;
  core::TaskId id = 0;
  Cycles cycles = 0;
};

TaskFields read_task(const obs::Json& task) {
  const char* const kNeedFields =
      "task needs numeric \"id\" and \"cycles\" fields";
  if (!task.is_object()) return {kNeedFields};
  const obs::Json::Object& fields = task.as_object();
  const auto id = fields.find("id");
  const auto cycles = fields.find("cycles");
  if (id == fields.end() || cycles == fields.end() ||
      !id->second.is_number() || !cycles->second.is_number()) {
    return {kNeedFields};
  }
  const double id_v = id->second.as_double();
  const double cycles_v = cycles->second.as_double();
  if (!exact_integer(id_v, 0.0) || !exact_integer(cycles_v, 1.0)) {
    return {"id and cycles must be integers in [0, 2^53] and [1, 2^53]"};
  }
  return {nullptr, static_cast<core::TaskId>(id_v),
          static_cast<Cycles>(cycles_v)};
}

}  // namespace

void register_service_routes(obs::MetricsHttpServer& server,
                             SchedulingService& svc) {
  SchedulingService* s = &svc;

  server.add_route(
      "POST", "/submit",
      [s](const obs::MetricsHttpServer::Request& req) {
        obs::Json doc;
        try {
          doc = obs::Json::parse(req.body);
        } catch (const std::exception&) {
          return error_response(400, "bad JSON");
        }
        const bool batch = doc.contains("tasks");
        if (batch && !doc.at("tasks").is_array()) {
          return error_response(400, "\"tasks\" must be an array");
        }
        const std::span<const obs::Json> tasks =
            batch ? std::span(doc.at("tasks").as_array())
                  : std::span<const obs::Json>(&doc, 1);
        std::uint64_t accepted = 0;
        std::uint64_t rejected = 0;
        for (const obs::Json& t : tasks) {
          const TaskFields task = read_task(t);
          if (task.error != nullptr) return error_response(400, task.error);
          s->submit(task.id, task.cycles).accepted ? ++accepted : ++rejected;
        }
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
        out["stolen"] = obs::Json(st->stolen);
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
