/// \file promtext.h
/// \brief Prometheus text exposition (format 0.0.4) for the metrics
///        registry, plus a dependency-free HTTP scrape endpoint.
///
/// `prometheus_text()` renders every registered metric:
///
///   * counters  → `dvfs_<name>_total` (monotone, `# TYPE ... counter`);
///   * gauges    → `dvfs_<name>`;
///   * histograms→ `dvfs_<name>_bucket{le="..."}` with cumulative counts
///     over the registry's log2 buckets (le = inclusive bucket upper
///     bound, closing with `le="+Inf"`), plus `_sum` and `_count`.
///
/// Registry names are dotted (`sim.tasks.started`); exposition names
/// replace every non-alphanumeric byte with `_` and prepend the `dvfs_`
/// namespace, so `sim.tasks.started` scrapes as
/// `dvfs_sim_tasks_started_total`.
///
/// A registry name may carry a literal label block —
/// `build_info{version="1.0.0"}` — built with `prometheus_labels()`
/// (which escapes the values). Only the part before `{` is mangled; for
/// counters the `_total` suffix is inserted before the label block, as
/// the exposition format requires.
///
/// `MetricsHttpServer` is the transport: a blocking accept loop on a
/// background thread speaking just enough HTTP/1.1 for `curl` and a
/// Prometheus scraper — a request against a registered route returns
/// that handler's response (`/metrics` and `/` serve the supplied body
/// callback as `text/plain; version=0.0.4`), anything else 404. Routes
/// are method-aware (a known path hit with the wrong verb gets 405) and
/// may be registered as exact paths or as prefixes (`/schedule/` matches
/// `/schedule/42`; the longest prefix wins). The reader loops on
/// `recv()` until the blank line ends the headers and Content-Length
/// bytes of body have arrived — a POST split across arbitrarily many TCP
/// segments (or fed byte-at-a-time) parses identically to a single-read
/// request; oversized headers answer 400, an oversized body 413, and a
/// handler that throws 500. Every response carries Content-Type and an
/// exact Content-Length, and a request whose `Accept` header rules out
/// the handler's media type gets 406. POSIX sockets only; no third-party
/// dependency, in keeping with the repo rule that observability must not
/// add libraries.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <map>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

namespace dvfs::obs {

class Registry;

namespace reqtrace {
class ExemplarStore;
}  // namespace reqtrace

/// Renders `registry` in Prometheus text exposition format 0.0.4.
[[nodiscard]] std::string prometheus_text(const Registry& registry);

/// Same, with OpenMetrics-style exemplars: a histogram bucket line whose
/// family has a matching series in `exemplars` (same registry name) and
/// a recorded sample for that bucket gets
/// `... # {trace_id="<16 hex>"} <value> <t_s>` appended — the trace id
/// of a recent bucket-crossing task, so an aggregate percentile links to
/// one concrete trace. `exemplars == nullptr` renders identically to the
/// plain overload.
[[nodiscard]] std::string prometheus_text(
    const Registry& registry, const reqtrace::ExemplarStore* exemplars);

/// `sim.tasks.started` → `dvfs_sim_tasks_started` (no kind suffix).
/// A `{...}` label block, if present, passes through unmangled.
[[nodiscard]] std::string prometheus_name(const std::string& registry_name);

/// Renders `{k="v",...}` with label *values* escaped per the exposition
/// format (backslash, double quote, newline). Keys must already be valid
/// label names. Empty list renders as "".
[[nodiscard]] std::string prometheus_labels(
    std::initializer_list<std::pair<std::string, std::string>> labels);

/// Minimal scrape endpoint. Construct, `start()`, `stop()` (also runs on
/// destruction). Handlers run on the server thread per request — keep
/// them pure snapshot renders.
class MetricsHttpServer {
 public:
  struct Options {
    std::string host = "0.0.0.0";
    /// 0 binds an ephemeral port; read the real one from `port()` after
    /// `start()` (tests use this to avoid collisions).
    std::uint16_t port = 9464;
  };
  using BodyFn = std::function<std::string()>;

  /// What one route answers. The server adds Content-Length (always,
  /// from body.size()) and Connection: close.
  struct Response {
    int status = 200;
    std::string content_type = "text/plain; charset=utf-8";
    std::string body;
  };

  /// A fully parsed request, as handed to a RequestHandler. `path` is
  /// the request target with any `?query` stripped (so routes match
  /// `/debug/pprof/profile?seconds=5`); `body` is the complete
  /// Content-Length-delimited payload.
  struct Request {
    std::string method;
    std::string path;
    std::string query;  ///< raw query string, '?' stripped ("" if absent)
    std::string body;
    std::string accept;  ///< raw Accept header ("" when absent)
    /// `query` split on '&', keys/values percent-decoded with '+' → space,
    /// in request order. Duplicate keys are kept; bad escapes pass
    /// through literally (lenient — a scrape must not 400 over stray %).
    std::vector<std::pair<std::string, std::string>> params;

    /// First value of `name` in `params`; nullptr when absent.
    [[nodiscard]] const std::string* param(const std::string& name) const {
      for (const auto& [k, v] : params) {
        if (k == name) return &v;
      }
      return nullptr;
    }
  };
  using RequestHandler = std::function<Response(const Request&)>;

  /// Header-section and body size caps. A request whose headers exceed
  /// the former answers 400; a Content-Length beyond the latter 413.
  static constexpr std::size_t kMaxHeaderBytes = 16 * 1024;
  static constexpr std::size_t kMaxBodyBytes = 1024 * 1024;

  /// Registers `body` under `/metrics` and `/`, served as
  /// `text/plain; version=0.0.4; charset=utf-8`.
  MetricsHttpServer(Options options, BodyFn body);
  ~MetricsHttpServer();

  MetricsHttpServer(const MetricsHttpServer&) = delete;
  MetricsHttpServer& operator=(const MetricsHttpServer&) = delete;

  /// Registers (or replaces) an exact route for one method:
  /// `add_route("POST", "/submit", ...)`. A request that matches the path
  /// but not the method answers 405. Call before `start()`; routes are
  /// not guarded against the serving thread.
  void add_route(const std::string& method, const std::string& path,
                 RequestHandler handler);

  /// Method-aware prefix route: `add_prefix_route("GET", "/schedule/",
  /// ...)` matches every path starting with the prefix (longest
  /// registered prefix wins; exact routes always win over prefixes).
  void add_prefix_route(const std::string& method, const std::string& prefix,
                        RequestHandler handler);

  /// True when an `Accept` request header admits `mime` (a bare media
  /// type like "text/plain"): exact match, `type/*`, or `*/*`, ignoring
  /// parameters such as q-values (a match with `q=0` still counts — this
  /// is deliberately the minimal useful subset of RFC 9110 content
  /// negotiation). An empty header admits everything.
  [[nodiscard]] static bool accept_allows(const std::string& accept_header,
                                          const std::string& mime);

  /// Binds, listens, and spawns the accept thread. Throws
  /// dvfs::PreconditionError when the address cannot be bound.
  void start();

  /// Stops accepting and joins the thread. Idempotent.
  void stop();

  /// The bound port (resolves ephemeral binds). Valid after start().
  [[nodiscard]] std::uint16_t port() const { return bound_port_; }

 private:
  void serve_loop();
  void handle_client(int client);
  /// Reads one request off the socket, tolerating arbitrary read
  /// fragmentation. Returns false when the connection died or the
  /// request was malformed beyond answering (`error` carries a ready
  /// response for recoverable protocol errors: 400 / 413).
  bool read_request(int client, Request& out, Response& error);
  [[nodiscard]] Response dispatch(const Request& req) const;

  Options options_;
  /// path → method → handler (exact matches).
  std::map<std::string, std::map<std::string, RequestHandler>> routes_;
  /// (method, prefix, handler); longest matching prefix wins.
  std::vector<std::tuple<std::string, std::string, RequestHandler>>
      prefix_routes_;
  int listen_fd_ = -1;
  std::uint16_t bound_port_ = 0;
  std::atomic<bool> stopping_{false};
  std::thread thread_;
};

/// Parses a `--listen` flag: ":9464", "9464", or "host:9464". Port 0 is
/// allowed (ephemeral). Throws dvfs::PreconditionError on garbage.
[[nodiscard]] MetricsHttpServer::Options parse_listen(const std::string& spec);

}  // namespace dvfs::obs
