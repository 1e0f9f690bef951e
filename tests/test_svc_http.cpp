/// End-to-end tests for the service's HTTP API over a real loopback
/// socket: POST /submit admission, GET /schedule/{id} placement lookups
/// (including `"stolen": true` after a migration), and the per-task
/// GET /tasks/{id}/trace timeline endpoint — the same routes
/// `dvfs_execute --serve` registers.
#include "dvfs/svc/http.h"

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <utility>

#include "dvfs/core/energy_model.h"
#include "dvfs/obs/json.h"
#include "dvfs/obs/metrics.h"
#include "dvfs/obs/promtext.h"
#include "dvfs/obs/reqtrace.h"
#include "http_client.h"

namespace dvfs::svc {
namespace {

using test::body_of;
using test::http_get;
using test::http_post;

/// A 4xx body must be a JSON object with an `error` string that names
/// the problem, not the server's source location.
void expect_json_error(const std::string& response) {
  obs::Json body;
  ASSERT_NO_THROW(body = obs::Json::parse(body_of(response))) << response;
  ASSERT_TRUE(body.contains("error")) << response;
  EXPECT_TRUE(body.at("error").is_string()) << response;
  EXPECT_EQ(response.find(".cpp"), std::string::npos) << response;
}

template <typename Pred>
bool eventually(Pred pred, int timeout_ms = 5000) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return pred();
}

/// A running service with the real routes registered, exemplar-linked
/// /metrics included.
class ServiceHttpTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ServiceOptions opts;
    opts.shards = 2;
    opts.cores = 4;
    opts.steal_ratio = 0.0;
    opts.registry = &registry_;
    svc_ = std::make_unique<SchedulingService>(
        core::EnergyModel::icpp2014_table2(), core::CostParams{0.4, 0.1},
        opts);
    svc_->start();
    server_ = std::make_unique<obs::MetricsHttpServer>(
        obs::MetricsHttpServer::Options{.host = "127.0.0.1", .port = 0},
        [this] {
          return obs::prometheus_text(registry_, &svc_->exemplars());
        });
    register_service_routes(*server_, *svc_);
    server_->start();
    ASSERT_NE(server_->port(), 0);
  }

  void TearDown() override {
    server_->stop();
    svc_->drain();
  }

  obs::Registry registry_;
  std::unique_ptr<SchedulingService> svc_;
  std::unique_ptr<obs::MetricsHttpServer> server_;
};

TEST_F(ServiceHttpTest, SubmitThenScheduleAndTraceRoundTrip) {
  const std::string accepted =
      http_post(server_->port(), "/submit", "{\"id\":7,\"cycles\":1000000}");
  EXPECT_NE(accepted.find("HTTP/1.1 202"), std::string::npos);
  EXPECT_NE(accepted.find("\"accepted\":1"), std::string::npos);
  ASSERT_TRUE(eventually([&] { return svc_->status(7).has_value(); }));

  const std::string schedule = http_get(server_->port(), "/schedule/7");
  EXPECT_NE(schedule.find("HTTP/1.1 200"), std::string::npos);
  const obs::Json decision = obs::Json::parse(body_of(schedule));
  EXPECT_EQ(decision.at("id").as_double(), 7.0);
  EXPECT_EQ(decision.at("state").as_string(), "queued");
  EXPECT_FALSE(decision.at("stolen").as_bool());
  const std::string trace_id = decision.at("trace_id").as_string();
  EXPECT_EQ(trace_id.size(), 16u);
  EXPECT_TRUE(obs::reqtrace::parse_trace_id(trace_id).has_value());

  // The trace endpoint returns the live timeline, linked by the same id.
  const std::string trace = http_get(server_->port(), "/tasks/7/trace");
  EXPECT_NE(trace.find("HTTP/1.1 200"), std::string::npos);
  const obs::Json timeline = obs::Json::parse(body_of(trace));
  EXPECT_EQ(timeline.at("task").as_double(), 7.0);
  EXPECT_EQ(timeline.at("trace_id").as_string(), trace_id);
  // submit_recv, ring_enqueue, ring_dequeue, placement, shard_queue.
  ASSERT_EQ(timeline.at("steps").as_array().size(), 5u);
  EXPECT_EQ(timeline.at("steps").at(0).at("stage").as_string(),
            "submit_recv");
  EXPECT_EQ(timeline.at("steps").at(4).at("stage").as_string(),
            "shard_queue");
  const obs::Json& durations = timeline.at("durations");
  EXPECT_NEAR(durations.at("total_s").as_double(),
              timeline.at("end_to_end_s").as_double(), 1e-9);
}

TEST_F(ServiceHttpTest, BatchSubmitAndErrorStatuses) {
  const std::string batch = http_post(
      server_->port(), "/submit",
      "{\"tasks\":[{\"id\":1,\"cycles\":1000},{\"id\":2,\"cycles\":2000}]}");
  EXPECT_NE(batch.find("\"accepted\":2"), std::string::npos);

  const std::string not_json =
      http_post(server_->port(), "/submit", "not json");
  EXPECT_NE(not_json.find("HTTP/1.1 400"), std::string::npos);
  expect_json_error(not_json);
  const std::string truncated =
      http_post(server_->port(), "/submit", "{\"id\":1");
  EXPECT_NE(truncated.find("HTTP/1.1 400"), std::string::npos);
  expect_json_error(truncated);
  const std::string no_cycles =
      http_post(server_->port(), "/submit", "{\"id\":3}");
  EXPECT_NE(no_cycles.find("HTTP/1.1 400"), std::string::npos);
  expect_json_error(no_cycles);
  // Fields must be present and numeric, "tasks" an array, and ids and
  // cycles integers a double holds exactly (<= 2^53).
  for (const char* body :
       {"{\"x\":1}", "{\"id\":\"7\",\"cycles\":1000}",
        "{\"tasks\":5,\"id\":1,\"cycles\":2}",
        "{\"id\":1,\"cycles\":1e300}", "{\"id\":1e300,\"cycles\":1000}",
        "{\"id\":9007199254740994,\"cycles\":1000}",
        "{\"id\":4,\"cycles\":0.5}", "{\"id\":4.5,\"cycles\":1000}",
        "{\"tasks\":[{\"id\":5,\"cycles\":1000.25}]}"}) {
    const std::string response = http_post(server_->port(), "/submit", body);
    EXPECT_NE(response.find("HTTP/1.1 400"), std::string::npos) << body;
    expect_json_error(response);
  }
  const std::string bad_id = http_get(server_->port(), "/schedule/notanumber");
  EXPECT_NE(bad_id.find("HTTP/1.1 400"), std::string::npos);
  expect_json_error(bad_id);
  const std::string unknown = http_get(server_->port(), "/schedule/424242");
  EXPECT_NE(unknown.find("HTTP/1.1 404"), std::string::npos);
  expect_json_error(unknown);
  // /tasks/... requires the exact /tasks/{id}/trace shape.
  for (const auto& [path, status] :
       {std::pair{"/tasks/1", "HTTP/1.1 404"},
        std::pair{"/tasks/abc/trace", "HTTP/1.1 400"},
        std::pair{"/tasks/999999/trace", "HTTP/1.1 404"}}) {
    const std::string response = http_get(server_->port(), path);
    EXPECT_NE(response.find(status), std::string::npos) << path;
    expect_json_error(response);
  }
}

TEST_F(ServiceHttpTest, MetricsExposeExemplarLinkedHistograms) {
  for (core::TaskId id = 1; id <= 20; ++id) {
    http_post(server_->port(), "/submit",
         "{\"id\":" + std::to_string(id) + ",\"cycles\":1000000}");
  }
  ASSERT_TRUE(eventually([&] { return svc_->placed() == 20u; }));
  const std::string metrics = http_get(server_->port(), "/metrics");
  EXPECT_NE(metrics.find("HTTP/1.1 200"), std::string::npos);
  // At least one admission-latency bucket carries an exemplar with a
  // trace id — the aggregate-to-trace link the scrape promises.
  const std::size_t bucket =
      metrics.find("dvfs_svc_admission_latency_us_bucket");
  ASSERT_NE(bucket, std::string::npos);
  EXPECT_NE(metrics.find(" # {trace_id=\"", bucket), std::string::npos);
  // The per-shard ring occupancy gauge is scraped alongside.
  EXPECT_NE(metrics.find("dvfs_svc_ring_occupancy{shard=\"0\"}"),
            std::string::npos);
  EXPECT_NE(metrics.find("dvfs_svc_ring_occupancy{shard=\"1\"}"),
            std::string::npos);
}

// A migrated task reports `"stolen": true` on GET /schedule/{id} and its
// trace carries the steal hop — over the live HTTP path.
TEST(ServiceHttpSteal, StolenTaskVisibleThroughScheduleAndTrace) {
  obs::Registry registry;
  ServiceOptions opts;
  opts.shards = 2;
  opts.cores = 4;
  opts.steal_ratio = 1.5;
  opts.steal_min_queue = 4;
  opts.registry = &registry;
  SchedulingService svc(core::EnergyModel::icpp2014_table2(),
                        core::CostParams{0.4, 0.1}, opts);
  svc.start();
  obs::MetricsHttpServer server(
      {.host = "127.0.0.1", .port = 0},
      [&registry] { return obs::prometheus_text(registry); });
  register_service_routes(server, svc);
  server.start();

  std::size_t submitted = 0;
  for (core::TaskId id = 1; submitted < 400; ++id) {
    if (SchedulingService::route(id, 2) != 0) continue;
    ASSERT_TRUE(svc.submit(id, 5'000'000).accepted);
    ++submitted;
  }
  ASSERT_TRUE(eventually([&] { return svc.stolen() > 0; }))
      << "no task migrated within the timeout";
  svc.drain();

  core::TaskId stolen_id = 0;
  for (core::TaskId id = 1; id < 2000 && stolen_id == 0; ++id) {
    const auto st = svc.status(id);
    if (st.has_value() && st->stolen) stolen_id = id;
  }
  ASSERT_NE(stolen_id, 0u);

  const std::string schedule =
      http_get(server.port(), "/schedule/" + std::to_string(stolen_id));
  EXPECT_NE(schedule.find("HTTP/1.1 200"), std::string::npos);
  const obs::Json decision = obs::Json::parse(body_of(schedule));
  EXPECT_TRUE(decision.at("stolen").as_bool());
  EXPECT_EQ(decision.at("shard").as_double(), 1.0);

  const std::string trace =
      http_get(server.port(), "/tasks/" + std::to_string(stolen_id) + "/trace");
  EXPECT_NE(trace.find("HTTP/1.1 200"), std::string::npos);
  const obs::Json timeline = obs::Json::parse(body_of(trace));
  EXPECT_TRUE(timeline.at("stolen").as_bool());
  EXPECT_EQ(timeline.at("hops").as_double(), 1.0);
  EXPECT_EQ(timeline.at("trace_id").as_string(),
            decision.at("trace_id").as_string());
  bool hop_seen = false;
  for (const obs::Json& s : timeline.at("steps").as_array()) {
    if (s.at("stage").as_string() == "steal_hop") {
      hop_seen = true;
      EXPECT_EQ(s.at("from_shard").as_double(), 0.0);
      EXPECT_EQ(s.at("to_shard").as_double(), 1.0);
    }
  }
  EXPECT_TRUE(hop_seen);
  server.stop();
}

}  // namespace
}  // namespace dvfs::svc
