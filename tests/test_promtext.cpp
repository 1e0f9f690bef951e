/// Prometheus exposition tests: registry-name mangling, text rendering
/// (counter `_total` suffix, cumulative histogram buckets closing with
/// `+Inf`), and the dependency-free HTTP endpoint end to end over a real
/// loopback socket.
#include "dvfs/obs/promtext.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "dvfs/obs/build_info.h"
#include "dvfs/obs/metrics.h"
#include "dvfs/obs/reqtrace.h"
#include "http_client.h"

namespace dvfs::obs {
namespace {

using test::body_of;
using test::http_get;
using test::http_raw;

TEST(PromText, NameMangling) {
  EXPECT_EQ(prometheus_name("sim.tasks.started"), "dvfs_sim_tasks_started");
  EXPECT_EQ(prometheus_name("rt.task_wall_ns"), "dvfs_rt_task_wall_ns");
  EXPECT_EQ(prometheus_name("weird-name/x"), "dvfs_weird_name_x");
}

TEST(PromText, RendersEveryMetricKind) {
  Registry reg;
  reg.counter("a.count").add(3);
  reg.gauge("a.gauge").set(1.5);
  Histogram& h = reg.histogram("a.hist");
  h.observe(1);  // bucket [1, 1]
  h.observe(2);  // bucket [2, 3]
  h.observe(3);  // bucket [2, 3]

  const std::string text = prometheus_text(reg);
  EXPECT_NE(text.find("# TYPE dvfs_a_count_total counter\n"
                      "dvfs_a_count_total 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE dvfs_a_gauge gauge\n"
                      "dvfs_a_gauge 1.5\n"),
            std::string::npos);
  // Buckets are cumulative: le="1" holds 1 observation, le="3" all three.
  EXPECT_NE(text.find("# TYPE dvfs_a_hist histogram\n"), std::string::npos);
  EXPECT_NE(text.find("dvfs_a_hist_bucket{le=\"1\"} 1\n"), std::string::npos);
  EXPECT_NE(text.find("dvfs_a_hist_bucket{le=\"3\"} 3\n"), std::string::npos);
  EXPECT_NE(text.find("dvfs_a_hist_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("dvfs_a_hist_sum 6\n"), std::string::npos);
  EXPECT_NE(text.find("dvfs_a_hist_count 3\n"), std::string::npos);
  EXPECT_EQ(text.back(), '\n');
}

TEST(PromText, HistogramBucketsCarryExemplarsWhenStoreProvided) {
  Registry reg;
  Histogram& h = reg.histogram("svc.lat");
  h.observe(5);    // bucket [4, 7]
  h.observe(100);  // bucket [64, 127]

  reqtrace::ExemplarStore store;
  reqtrace::ExemplarSeries& s = store.series("svc.lat");
  s.observe(5, 0xabcULL, 1.5);
  s.observe(100, 0xdef01ULL, 2.0);

  // OpenMetrics exemplar syntax: the bucket line gains
  // ` # {labels} value timestamp`, linking the count to one trace id.
  const std::string text = prometheus_text(reg, &store);
  EXPECT_NE(text.find("dvfs_svc_lat_bucket{le=\"7\"} 1"
                      " # {trace_id=\"0000000000000abc\"} 5 1.5\n"),
            std::string::npos);
  EXPECT_NE(text.find("dvfs_svc_lat_bucket{le=\"127\"} 2"
                      " # {trace_id=\"00000000000def01\"} 100 2\n"),
            std::string::npos);
  // The +Inf closer never carries an exemplar.
  EXPECT_NE(text.find("dvfs_svc_lat_bucket{le=\"+Inf\"} 2\n"),
            std::string::npos);

  // Without a store — or with a store holding no series for this
  // histogram — the rendering is the plain 1-arg output.
  EXPECT_EQ(prometheus_text(reg), prometheus_text(reg, nullptr));
  reqtrace::ExemplarStore unrelated;
  unrelated.series("other.hist").observe(5, 1, 1.0);
  EXPECT_EQ(prometheus_text(reg, &unrelated).find(" # {"),
            std::string::npos);
}

TEST(PromText, CoversEveryRegistryMetric) {
  Registry reg;
  reg.counter("one").inc();
  reg.counter("two").inc();
  reg.gauge("three").set(0.0);
  reg.histogram("four").observe(9);
  const std::string text = prometheus_text(reg);
  for (const char* name :
       {"dvfs_one_total", "dvfs_two_total", "dvfs_three", "dvfs_four_count"}) {
    EXPECT_NE(text.find(name), std::string::npos) << name;
  }
}

TEST(PromText, LabeledNamesMangleOnlyTheBase) {
  EXPECT_EQ(prometheus_name("build_info{version=\"1.0\"}"),
            "dvfs_build_info{version=\"1.0\"}");
  EXPECT_EQ(prometheus_labels({}), "");
  EXPECT_EQ(prometheus_labels({{"a", "x"}, {"b", "y"}}),
            "{a=\"x\",b=\"y\"}");
}

TEST(PromText, LabelValuesAreEscaped) {
  // The exposition format escapes backslash, double quote, and newline in
  // label values.
  EXPECT_EQ(prometheus_labels({{"v", "a\\b\"c\nd"}}),
            "{v=\"a\\\\b\\\"c\\nd\"}");
}

TEST(PromText, LabeledMetricsRenderWithSuffixBeforeLabels) {
  Registry reg;
  reg.gauge("info" + prometheus_labels({{"version", "1.2.3"}})).set(1.0);
  reg.counter("hits" + prometheus_labels({{"path", "/x"}})).add(5);
  const std::string text = prometheus_text(reg);
  EXPECT_NE(text.find("# TYPE dvfs_info gauge\n"
                      "dvfs_info{version=\"1.2.3\"} 1\n"),
            std::string::npos);
  // `_total` belongs to the family name: before the label block.
  EXPECT_NE(text.find("# TYPE dvfs_hits_total counter\n"
                      "dvfs_hits_total{path=\"/x\"} 5\n"),
            std::string::npos);
}

TEST(PromText, BuildInfoGaugeIsRegisteredWithLabels) {
  Registry reg;
  register_build_info(reg);
  register_build_info(reg);  // idempotent
  const std::string text = prometheus_text(reg);
  EXPECT_NE(text.find("dvfs_build_info{version=\""), std::string::npos);
  EXPECT_NE(text.find("compiler=\""), std::string::npos);
  EXPECT_NE(text.find("build_type=\""), std::string::npos);
  EXPECT_NE(text.find("} 1\n"), std::string::npos);
}

TEST(PromText, ParseListen) {
  EXPECT_EQ(parse_listen("9464").port, 9464);
  EXPECT_EQ(parse_listen("9464").host, "0.0.0.0");
  EXPECT_EQ(parse_listen(":8080").port, 8080);
  EXPECT_EQ(parse_listen("127.0.0.1:81").host, "127.0.0.1");
  EXPECT_EQ(parse_listen("127.0.0.1:81").port, 81);
  EXPECT_EQ(parse_listen(":0").port, 0);
  EXPECT_THROW(parse_listen("nope:port"), PreconditionError);
  EXPECT_THROW(parse_listen("127.0.0.1:99999"), PreconditionError);
  EXPECT_THROW(parse_listen(""), PreconditionError);
}

/// The decimal value of a response's Content-Length header, or -1.
long content_length_of(const std::string& response) {
  const std::size_t pos = response.find("Content-Length: ");
  if (pos == std::string::npos) return -1;
  return std::strtol(response.c_str() + pos + 16, nullptr, 10);
}

TEST(MetricsHttpServer, ServesMetricsAndRejectsOtherPaths) {
  MetricsHttpServer server({.host = "127.0.0.1", .port = 0},
                           [] { return std::string("payload 123\n"); });
  server.start();
  ASSERT_NE(server.port(), 0);

  const std::string ok = http_get(server.port(), "/metrics");
  EXPECT_NE(ok.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(ok.find("text/plain; version=0.0.4; charset=utf-8"),
            std::string::npos);
  EXPECT_NE(ok.find("payload 123\n"), std::string::npos);

  const std::string missing = http_get(server.port(), "/other");
  EXPECT_NE(missing.find("HTTP/1.1 404"), std::string::npos);

  server.stop();
  server.stop();  // idempotent
}

TEST(MetricsHttpServer, EveryResponseCarriesTypeAndExactLength) {
  MetricsHttpServer server({.host = "127.0.0.1", .port = 0},
                           [] { return std::string("payload 123\n"); });
  server.start();

  const std::string ok = http_get(server.port(), "/metrics");
  EXPECT_EQ(content_length_of(ok), 12);
  EXPECT_EQ(body_of(ok), "payload 123\n");
  EXPECT_NE(ok.find("Connection: close"), std::string::npos);

  // The 404 is a real response too: typed body, exact length.
  const std::string missing = http_get(server.port(), "/other");
  EXPECT_NE(missing.find("HTTP/1.1 404 Not Found"), std::string::npos);
  EXPECT_NE(missing.find("Content-Type: text/plain"), std::string::npos);
  EXPECT_EQ(content_length_of(missing),
            static_cast<long>(body_of(missing).size()));
  EXPECT_GT(body_of(missing).size(), 0u);
  server.stop();
}

TEST(MetricsHttpServer, AcceptNegotiation) {
  MetricsHttpServer server({.host = "127.0.0.1", .port = 0},
                           [] { return std::string("x\n"); });
  server.start();
  // Compatible Accept headers are served.
  for (const char* accept :
       {"Accept: */*", "Accept: text/*", "Accept: text/plain",
        "Accept: text/plain; q=0.9, application/json"}) {
    EXPECT_NE(http_get(server.port(), "/metrics", {accept})
                  .find("HTTP/1.1 200 OK"),
              std::string::npos)
        << accept;
  }
  // An Accept that rules out text/plain gets 406 with an exact length.
  const std::string refused = http_get(server.port(), "/metrics",
                                       {"Accept: application/json"});
  EXPECT_NE(refused.find("HTTP/1.1 406 Not Acceptable"), std::string::npos);
  EXPECT_EQ(content_length_of(refused),
            static_cast<long>(body_of(refused).size()));
  server.stop();
}

TEST(MetricsHttpServer, AcceptAllowsMatchingRules) {
  using S = MetricsHttpServer;
  EXPECT_TRUE(S::accept_allows("", "text/plain"));  // no header: anything
  EXPECT_TRUE(S::accept_allows("*/*", "text/plain"));
  EXPECT_TRUE(S::accept_allows("text/*", "text/plain"));
  EXPECT_TRUE(S::accept_allows("text/plain", "text/plain"));
  EXPECT_TRUE(S::accept_allows("application/json, text/plain;q=0.5",
                               "text/plain"));
  EXPECT_TRUE(S::accept_allows("TEXT/PLAIN", "text/plain"));
  EXPECT_FALSE(S::accept_allows("application/json", "text/plain"));
  EXPECT_FALSE(S::accept_allows("application/*", "text/plain"));
  EXPECT_FALSE(S::accept_allows("text/html", "text/plain"));
}

TEST(MetricsHttpServer, CustomRoutesNegotiateTheirOwnType) {
  MetricsHttpServer server({.host = "127.0.0.1", .port = 0},
                           [] { return std::string("metrics\n"); });
  server.add_route("GET", "/healthz", [](const MetricsHttpServer::Request&) {
    return MetricsHttpServer::Response{
        .status = 503,
        .content_type = "application/json; charset=utf-8",
        .body = "{\"healthy\":false}\n"};
  });
  server.start();

  const std::string hz = http_get(server.port(), "/healthz");
  EXPECT_NE(hz.find("HTTP/1.1 503 Service Unavailable"), std::string::npos);
  EXPECT_NE(hz.find("Content-Type: application/json; charset=utf-8"),
            std::string::npos);
  EXPECT_EQ(body_of(hz), "{\"healthy\":false}\n");
  EXPECT_EQ(content_length_of(hz), 18);

  // Negotiation applies per route: JSON accepted, JSON refused.
  EXPECT_NE(http_get(server.port(), "/healthz", {"Accept: application/json"})
                .find("HTTP/1.1 503"),
            std::string::npos);
  EXPECT_NE(http_get(server.port(), "/healthz", {"Accept: text/html"})
                .find("HTTP/1.1 406"),
            std::string::npos);
  server.stop();
}

/// A server with one POST echo route and one GET prefix route, the
/// fixtures the fragmented-read regression tests drive.
class PostServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    server_ = std::make_unique<MetricsHttpServer>(
        MetricsHttpServer::Options{.host = "127.0.0.1", .port = 0},
        [] { return std::string("metrics\n"); });
    server_->add_route(
        "POST", "/submit", [](const MetricsHttpServer::Request& req) {
          return MetricsHttpServer::Response{
              .status = 202,
              .content_type = "application/json; charset=utf-8",
              .body = "echo:" + req.body};
        });
    server_->add_prefix_route(
        "GET", "/schedule/", [](const MetricsHttpServer::Request& req) {
          return MetricsHttpServer::Response{
              .status = 200,
              .content_type = "text/plain; charset=utf-8",
              .body = "path:" + req.path + "\n"};
        });
    server_->add_route(
        "GET", "/boom",
        [](const MetricsHttpServer::Request&) -> MetricsHttpServer::Response {
          throw std::runtime_error("handler exploded");
        });
    server_->start();
  }
  std::unique_ptr<MetricsHttpServer> server_;
};

std::string post_req(const std::string& body) {
  return "POST /submit HTTP/1.1\r\nHost: localhost\r\nContent-Length: " +
         std::to_string(body.size()) + "\r\n\r\n" + body;
}

TEST_F(PostServerTest, PostBodyInOneReadParses) {
  const std::string res =
      http_raw(server_->port(), post_req("{\"id\":1,\"cycles\":2}"));
  EXPECT_NE(res.find("HTTP/1.1 202 Accepted"), std::string::npos);
  EXPECT_EQ(body_of(res), "echo:{\"id\":1,\"cycles\":2}");
}

// The PR 7 regression: the old server assumed one recv() per request, so
// a POST whose header/body boundary straddled a read was truncated. The
// byte-at-a-time client is the worst case of that fragmentation.
TEST_F(PostServerTest, PostBodySplitByteAtATimeParsesIdentically) {
  const std::string req = post_req("{\"id\":7,\"cycles\":999}");
  const std::string res = http_raw(server_->port(), req, 1);
  EXPECT_NE(res.find("HTTP/1.1 202 Accepted"), std::string::npos);
  EXPECT_EQ(body_of(res), "echo:{\"id\":7,\"cycles\":999}");
}

TEST_F(PostServerTest, PostBodySplitAtOddChunkBoundariesParses) {
  const std::string body(1000, 'x');
  for (const std::size_t chunk : {3u, 17u, 64u, 500u}) {
    const std::string res = http_raw(server_->port(), post_req(body), chunk);
    EXPECT_EQ(body_of(res), "echo:" + body) << "chunk " << chunk;
  }
}

TEST_F(PostServerTest, WrongMethodOnKnownPathIs405) {
  // GET against the POST-only route, POST against a GET route, and a
  // wrong-method prefix hit: all 405 (the path exists), never 404.
  EXPECT_NE(http_raw(server_->port(),
                     "GET /submit HTTP/1.1\r\nHost: x\r\n\r\n")
                .find("HTTP/1.1 405 Method Not Allowed"),
            std::string::npos);
  EXPECT_NE(http_raw(server_->port(), post_req("x").replace(5, 7, "/metrics"))
                .find("HTTP/1.1 405"),
            std::string::npos);
  EXPECT_NE(http_raw(server_->port(),
                     "POST /schedule/1 HTTP/1.1\r\nHost: x\r\n"
                     "Content-Length: 0\r\n\r\n")
                .find("HTTP/1.1 405"),
            std::string::npos);
}

TEST_F(PostServerTest, PrefixRouteMatchesAnySuffix) {
  const std::string res = http_raw(
      server_->port(), "GET /schedule/12345 HTTP/1.1\r\nHost: x\r\n\r\n");
  EXPECT_NE(res.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_EQ(body_of(res), "path:/schedule/12345\n");
  // The bare prefix itself matches too; an unrelated path still 404s.
  EXPECT_NE(http_raw(server_->port(),
                     "GET /schedule/ HTTP/1.1\r\nHost: x\r\n\r\n")
                .find("HTTP/1.1 200"),
            std::string::npos);
  EXPECT_NE(http_raw(server_->port(),
                     "GET /schedul HTTP/1.1\r\nHost: x\r\n\r\n")
                .find("HTTP/1.1 404"),
            std::string::npos);
}

TEST_F(PostServerTest, OversizedBodyAnswers413) {
  const std::string res = http_raw(
      server_->port(),
      "POST /submit HTTP/1.1\r\nHost: x\r\nContent-Length: " +
          std::to_string(MetricsHttpServer::kMaxBodyBytes + 1) + "\r\n\r\n");
  EXPECT_NE(res.find("HTTP/1.1 413 Payload Too Large"), std::string::npos);
  EXPECT_EQ(content_length_of(res), static_cast<long>(body_of(res).size()));
}

TEST_F(PostServerTest, MalformedRequestLineAnswers400) {
  EXPECT_NE(http_raw(server_->port(), "NONSENSE\r\n\r\n")
                .find("HTTP/1.1 400 Bad Request"),
            std::string::npos);
  EXPECT_NE(http_raw(server_->port(),
                     "POST /submit HTTP/1.1\r\nContent-Length: nope\r\n\r\n")
                .find("HTTP/1.1 400"),
            std::string::npos);
}

TEST_F(PostServerTest, ThrowingHandlerAnswers500) {
  const std::string res =
      http_raw(server_->port(), "GET /boom HTTP/1.1\r\nHost: x\r\n\r\n");
  EXPECT_NE(res.find("HTTP/1.1 500 Internal Server Error"),
            std::string::npos);
  EXPECT_NE(res.find("handler exploded"), std::string::npos);
  // The serving thread survives: the next request is answered normally.
  EXPECT_NE(http_raw(server_->port(),
                     "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
                .find("HTTP/1.1 200"),
            std::string::npos);
}

/// A server with one GET route that echoes its parsed query parameters,
/// the fixture for the query-string dispatch tests: the path is matched
/// with the query stripped, and handlers get decoded key/value pairs.
class QueryServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    server_ = std::make_unique<MetricsHttpServer>(
        MetricsHttpServer::Options{.host = "127.0.0.1", .port = 0},
        [] { return std::string("metrics\n"); });
    server_->add_route(
        "GET", "/echo", [](const MetricsHttpServer::Request& req) {
          std::string body = "path=" + req.path + "\nquery=" + req.query +
                             "\n";
          for (const auto& [k, v] : req.params) {
            body += k + "=[" + v + "]\n";
          }
          return MetricsHttpServer::Response{
              .status = 200,
              .content_type = "text/plain; charset=utf-8",
              .body = body};
        });
    server_->start();
  }
  std::unique_ptr<MetricsHttpServer> server_;
};

TEST_F(QueryServerTest, QueryIsStrippedFromThePathBeforeDispatch) {
  // Routes registered as "/echo" must match "/echo?anything" — the old
  // dispatcher compared the full target and 404ed parameterized URLs.
  const std::string res = http_get(server_->port(), "/echo?seconds=5");
  EXPECT_NE(res.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(body_of(res).find("path=/echo\n"), std::string::npos);
  EXPECT_NE(body_of(res).find("query=seconds=5\n"), std::string::npos);
  EXPECT_NE(body_of(res).find("seconds=[5]\n"), std::string::npos);
  // No query: empty query string, no params, same route.
  EXPECT_NE(body_of(http_get(server_->port(), "/echo")).find("query=\n"),
            std::string::npos);
}

TEST_F(QueryServerTest, PercentAndPlusDecodeLeniently) {
  const std::string res =
      http_get(server_->port(), "/echo?a=x%20y&b=1+2&c=%ZZbad%2");
  const std::string body = body_of(res);
  EXPECT_NE(body.find("a=[x y]\n"), std::string::npos);
  EXPECT_NE(body.find("b=[1 2]\n"), std::string::npos);
  // Malformed escapes pass through untouched rather than failing the
  // request: query parsing must never turn /metrics?junk into an error.
  EXPECT_NE(body.find("c=[%ZZbad%2]\n"), std::string::npos);
}

TEST_F(QueryServerTest, EmptyAndDuplicateParamsKeepOrder) {
  const std::string res =
      http_get(server_->port(), "/echo?flag&empty=&k=first&k=second&&k=third");
  const std::string body = body_of(res);
  // A bare key is present with an empty value; empty segments vanish.
  EXPECT_NE(body.find("flag=[]\n"), std::string::npos);
  EXPECT_NE(body.find("empty=[]\n"), std::string::npos);
  // Duplicates all survive, in order — Request::param() takes the first.
  const std::size_t first = body.find("k=[first]");
  const std::size_t second = body.find("k=[second]");
  const std::size_t third = body.find("k=[third]");
  ASSERT_NE(first, std::string::npos);
  ASSERT_NE(second, std::string::npos);
  ASSERT_NE(third, std::string::npos);
  EXPECT_LT(first, second);
  EXPECT_LT(second, third);
}

TEST(MetricsHttpServerRequest, ParamReturnsFirstMatchOrNull) {
  MetricsHttpServer::Request req;
  req.params = {{"k", "first"}, {"k", "second"}, {"other", "x"}};
  ASSERT_NE(req.param("k"), nullptr);
  EXPECT_EQ(*req.param("k"), "first");
  ASSERT_NE(req.param("other"), nullptr);
  EXPECT_EQ(*req.param("other"), "x");
  EXPECT_EQ(req.param("absent"), nullptr);
}

TEST(MetricsHttpServer, MetricsPathIgnoresQueryString) {
  MetricsHttpServer server({.host = "127.0.0.1", .port = 0},
                           [] { return std::string("payload\n"); });
  server.start();
  EXPECT_NE(http_get(server.port(), "/metrics?debug=1")
                .find("HTTP/1.1 200 OK"),
            std::string::npos);
  server.stop();
}

TEST(MetricsHttpServer, ServesLiveRegistrySnapshot) {
  Registry reg;
  reg.counter("served.count").add(7);
  MetricsHttpServer server({.host = "127.0.0.1", .port = 0},
                           [&reg] { return prometheus_text(reg); });
  server.start();
  EXPECT_NE(http_get(server.port(), "/metrics")
                .find("dvfs_served_count_total 7"),
            std::string::npos);
  reg.counter("served.count").add(1);
  EXPECT_NE(http_get(server.port(), "/metrics")
                .find("dvfs_served_count_total 8"),
            std::string::npos);
  server.stop();
}

}  // namespace
}  // namespace dvfs::obs
