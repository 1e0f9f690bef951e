/// End-to-end tests for the service's HTTP API over a real loopback
/// socket: POST /submit admission, GET /schedule/{id} placement lookups,
/// and the per-task GET /tasks/{id}/trace timeline endpoint — the same routes
/// `dvfs_execute --serve` registers. The one-pass `/submit` body decoder
/// is checked against the tree-based rules (tests/submit_oracle.h) on
/// seeded valid and mutated bodies.
#include "dvfs/svc/http.h"

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "dvfs/core/energy_model.h"
#include "dvfs/obs/json.h"
#include "dvfs/obs/metrics.h"
#include "dvfs/obs/promtext.h"
#include "dvfs/obs/reqtrace.h"
#include "eventually.h"
#include "http_client.h"
#include "proptest/rng.h"
#include "submit_oracle.h"

namespace dvfs::svc {
namespace {

using test::body_of;
using test::eventually;
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

/// A running service with the real routes registered, exemplar-linked
/// /metrics included.
class ServiceHttpTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ServiceOptions opts;
    opts.shards = 2;
    opts.cores = 4;
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
  EXPECT_FALSE(decision.contains("stolen"));
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

// A batch is validated whole before any task is admitted: a 400 admits
// nothing, so a client retrying it cannot submit a task twice.
TEST_F(ServiceHttpTest, InvalidBatchAdmitsNothing) {
  const std::uint64_t before = svc_->submitted();
  const std::string response =
      http_post(server_->port(), "/submit",
                "{\"tasks\":[{\"id\":50,\"cycles\":1000},{\"x\":1}]}");
  EXPECT_NE(response.find("HTTP/1.1 400"), std::string::npos) << response;
  expect_json_error(response);
  EXPECT_EQ(svc_->submitted(), before);
  svc_->drain();  // anything admitted is placed by now
  const std::string schedule = http_get(server_->port(), "/schedule/50");
  EXPECT_NE(schedule.find("HTTP/1.1 404"), std::string::npos) << schedule;
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

/// Seeded `/submit` bodies: task objects and batches built from edge
/// values, unknown and repeated members, escaped keys and whitespace.
class BodyGen {
 public:
  explicit BodyGen(std::uint64_t seed) : rng_(seed) {}

  std::string body() {
    const double shape = rng_.uniform_real(0.0, 1.0);
    if (shape < 0.05) return any_value(0);  // not an object at all
    std::string out = "{";
    std::size_t members = 0;
    const auto member = [&](const std::string& key, const std::string& v) {
      if (members++ > 0) out += ',' + ws();
      out += ws() + key + ws() + ':' + ws() + v + ws();
    };
    if (shape < 0.45) {
      task_members(member);
    } else {
      if (rng_.chance(0.2)) task_members(member);  // ignored beside tasks
      member(key("tasks"), tasks());
      if (rng_.chance(0.1)) member(key("tasks"), tasks());  // last wins
      if (rng_.chance(0.1)) member(key("other"), any_value(1));
    }
    return ws() + out + '}' + ws();
  }

  /// Byte flips, truncation, insertion and deletion of `body`.
  std::string mutate(std::string body) {
    static constexpr char kBytes[] = "{}[]\",:\\ 0123456789-+.eEtfnux\t";
    const std::size_t edits = rng_.uniform_u64(1, 3);
    for (std::size_t e = 0; e < edits && !body.empty(); ++e) {
      const std::size_t at = rng_.uniform_index(body.size());
      switch (rng_.uniform_u64(0, 4)) {
        case 0: body[at] = kBytes[rng_.uniform_index(sizeof kBytes - 1)]; break;
        case 1: body[at] = static_cast<char>(rng_.uniform_u64(0, 255)); break;
        case 2: body.resize(at); break;
        case 3: body.insert(at, 1, kBytes[rng_.uniform_index(sizeof kBytes - 1)]); break;
        default: body.erase(at, 1); break;
      }
    }
    return body;
  }

 private:
  std::string ws() {
    static constexpr const char* kWs[] = {"", "", "", " ", "\n", "\t ", "\r\n"};
    return kWs[rng_.uniform_index(std::size(kWs))];
  }

  /// The key `name`, sometimes spelled with escapes ("\u0069d" is "id").
  std::string key(const std::string& name) {
    if (!rng_.chance(0.1)) return '"' + name + '"';
    char buf[8];
    std::snprintf(buf, sizeof buf, "\\u%04x",
                  static_cast<unsigned>(static_cast<unsigned char>(name[0])));
    return '"' + std::string(buf) + name.substr(1) + '"';
  }

  std::string number() {
    static constexpr const char* kEdges[] = {
        "0", "-0", "1", "-1", "2", "0.5", "1.0", "1e0", "1E2", "10e-1",
        "-0.0", "0.999999999999999999", "1.0000000000000001",
        "9007199254740991", "9007199254740992", "9007199254740993",
        "9007199254740992.0", "9.007199254740992e15", "123456789012345678",
        "1234567890123456789", "18446744073709551616", "1e308",
        "1.7976931348623157e308", "1e309", "-1e308", "2.2250738585072014e-308",
        "4.9e-324", "1e-400", "007", "1.", ".5", "+1", "--1", "1e", "0x10"};
    if (rng_.chance(0.5)) {
      return std::to_string(rng_.uniform_u64(0, rng_.chance(0.5) ? 100 : 1ull << 54));
    }
    return kEdges[rng_.uniform_index(std::size(kEdges))];
  }

  std::string any_value(int depth) {
    switch (rng_.uniform_u64(0, depth > 3 ? 3 : 5)) {
      case 0: return number();
      case 1: {
        static constexpr const char* kStrings[] = {
            "\"\"", "\"id\"", "\"a\\\"b\"", "\"\\u00e9\\ud83d\\ude00\"",
            "\"\\n\\t\\/\\b\\f\\r\\\\\"", "\"\\ud800\"", "\"\\q\""};
        return kStrings[rng_.uniform_index(std::size(kStrings))];
      }
      case 2: {
        static constexpr const char* kLiterals[] = {"true", "false", "null"};
        return kLiterals[rng_.uniform_index(std::size(kLiterals))];
      }
      case 3: return tasks_object(depth);
      case 4: {
        std::string out = "[";
        const std::size_t n = rng_.uniform_u64(0, 3);
        for (std::size_t i = 0; i < n; ++i) {
          out += (i > 0 ? "," : "") + ws() + any_value(depth + 1) + ws();
        }
        return out + ']';
      }
      default: {
        std::string out = "{";
        const std::size_t n = rng_.uniform_u64(0, 3);
        for (std::size_t i = 0; i < n; ++i) {
          static constexpr const char* kKeys[] = {"id", "cycles", "tasks", "k"};
          out += std::string(i > 0 ? "," : "") + key(kKeys[rng_.uniform_index(4)]) +
                 ':' + any_value(depth + 1);
        }
        return out + '}';
      }
    }
  }

  /// A task object, mostly valid.
  std::string tasks_object(int depth) {
    std::string out = "{";
    std::size_t members = 0;
    task_members([&](const std::string& k, const std::string& v) {
      out += (members++ > 0 ? "," : "") + ws() + k + ':' + ws() + v;
    }, depth);
    return out + '}';
  }

  template <typename Member>
  void task_members(Member member, int depth = 0) {
    const auto field = [&] {
      if (rng_.chance(0.85)) return std::to_string(rng_.uniform_u64(0, 1'000'000));
      if (rng_.chance(0.7)) return number();
      return any_value(depth + 1);
    };
    if (rng_.chance(0.95)) member(key("id"), field());
    if (rng_.chance(0.1)) member(key("k"), any_value(depth + 1));
    if (rng_.chance(0.95)) member(key("cycles"), field());
    if (rng_.chance(0.08)) member(key(rng_.chance(0.5) ? "id" : "cycles"), field());
    if (rng_.chance(0.05)) member(key("tasks"), any_value(depth + 1));
  }

  std::string tasks() {
    if (rng_.chance(0.05)) return any_value(1);
    std::string out = "[";
    const std::size_t n = rng_.uniform_u64(0, 8);
    for (std::size_t i = 0; i < n; ++i) {
      out += (i > 0 ? "," : "") + ws() +
             (rng_.chance(0.97) ? tasks_object(1) : any_value(1)) + ws();
    }
    return out + ']';
  }

  proptest::SplitMix64 rng_;
};

// The one-pass decoder against the tree-based rules: the same 400
// message, or the same tasks in the same order, on every body.
TEST(SubmitDecode, MatchesTreeOracleOnSeededBodies) {
  BodyGen gen(0x5b3d17);
  std::vector<Submission> got;
  std::vector<Submission> want;
  std::size_t accepted = 0;
  std::map<std::string, std::size_t> errors;
  for (int i = 0; i < 24000; ++i) {
    std::string body = gen.body();
    if (i % 2 == 1) body = gen.mutate(std::move(body));
    const char* got_error = decode_submit(body, got);
    const char* want_error = test::tree_decode_submit(body, want);
    ASSERT_EQ(got_error == nullptr, want_error == nullptr) << body;
    if (want_error != nullptr) {
      ASSERT_STREQ(got_error, want_error) << body;
      EXPECT_TRUE(got.empty()) << body;
      ++errors[want_error];
      continue;
    }
    ASSERT_EQ(got.size(), want.size()) << body;
    for (std::size_t t = 0; t < got.size(); ++t) {
      ASSERT_EQ(got[t].id, want[t].id) << body;
      ASSERT_EQ(got[t].cycles, want[t].cycles) << body;
    }
    ++accepted;
  }
  // Accepted bodies and each of the four 400 messages are well
  // represented.
  EXPECT_GT(accepted, 5000u);
  ASSERT_EQ(errors.size(), 4u);
  for (const auto& [message, count] : errors) {
    EXPECT_GT(count, 200u) << message;
  }
}

}  // namespace
}  // namespace dvfs::svc
