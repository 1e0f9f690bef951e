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

/// One {"id":...,"cycles":...} object → submit. Throws PreconditionError
/// on schema violations (mapped to 400 by the caller).
SchedulingService::Ticket submit_one(SchedulingService& svc,
                                     const obs::Json& task) {
  DVFS_REQUIRE(task.is_object() && task.contains("id") &&
                   task.contains("cycles"),
               "task needs numeric \"id\" and \"cycles\" fields");
  const double id = task.at("id").as_double();
  const double cycles = task.at("cycles").as_double();
  DVFS_REQUIRE(exact_integer(id, 0.0) && exact_integer(cycles, 1.0),
               "id and cycles must be integers in [0, 2^53] and "
               "[1, 2^53]");
  return svc.submit(static_cast<core::TaskId>(id),
                    static_cast<Cycles>(cycles));
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
        } catch (const std::exception& e) {
          return json_response(400, std::string("{\"error\":\"bad JSON: ") +
                                        e.what() + "\"}");
        }
        std::uint64_t accepted = 0;
        std::uint64_t rejected = 0;
        try {
          if (doc.contains("tasks")) {
            for (const obs::Json& t : doc.at("tasks").as_array()) {
              submit_one(*s, t).accepted ? ++accepted : ++rejected;
            }
          } else {
            submit_one(*s, doc).accepted ? ++accepted : ++rejected;
          }
        } catch (const std::exception& e) {
          return json_response(400, std::string("{\"error\":\"") + e.what() +
                                        "\"}");
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
          return json_response(400, "{\"error\":\"bad task id\"}");
        }
        const std::optional<TaskStatus> st = s->status(*id);
        if (!st.has_value()) {
          return json_response(404, "{\"error\":\"unknown task\"}");
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
          return json_response(404, "{\"error\":\"not found\"}");
        }
        const std::string middle = req.path.substr(
            prefix.size(), req.path.size() - prefix.size() - suffix.size());
        const auto id = parse_u64(middle);
        if (!id.has_value()) {
          return json_response(400, "{\"error\":\"bad task id\"}");
        }
        const auto timeline = s->traces().get(*id);
        if (!timeline.has_value()) {
          return json_response(404, "{\"error\":\"unknown task\"}");
        }
        return json_response(
            200, obs::reqtrace::timeline_json(*timeline).dump(-1));
      });
}

}  // namespace dvfs::svc
