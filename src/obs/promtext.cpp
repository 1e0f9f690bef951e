#include "dvfs/obs/promtext.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <arpa/inet.h>

#include <cctype>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <string_view>
#include <utility>

#include "dvfs/common.h"
#include "dvfs/obs/metrics.h"
#include "dvfs/obs/prof.h"
#include "dvfs/obs/reqtrace.h"

namespace dvfs::obs {

namespace {

void append_double(std::string& out, double v) {
  // Prometheus accepts Go-style floats; shortest round-trip form keeps
  // integers unsuffixed (a counter of 42 prints "42").
  char buf[64];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  DVFS_REQUIRE(ec == std::errc{}, "double formatting failed");
  out.append(buf, end);
}

void append_u64(std::string& out, std::uint64_t v) {
  char buf[32];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  DVFS_REQUIRE(ec == std::errc{}, "integer formatting failed");
  out.append(buf, end);
}

// Splits a registry name into its mangle-able base and a literal label
// block ("" when the name carries no labels).
std::pair<std::string, std::string> split_labels(
    const std::string& registry_name) {
  const auto brace = registry_name.find('{');
  if (brace == std::string::npos) return {registry_name, ""};
  return {registry_name.substr(0, brace), registry_name.substr(brace)};
}

std::string mangle(const std::string& base) {
  std::string out = "dvfs_";
  out.reserve(out.size() + base.size());
  for (const char c : base) {
    out.push_back(std::isalnum(static_cast<unsigned char>(c)) != 0 ? c : '_');
  }
  return out;
}

}  // namespace

std::string prometheus_name(const std::string& registry_name) {
  const auto [base, labels] = split_labels(registry_name);
  return mangle(base) + labels;
}

std::string prometheus_labels(
    std::initializer_list<std::pair<std::string, std::string>> labels) {
  if (labels.size() == 0) return "";
  std::string out = "{";
  bool first = true;
  for (const auto& [key, value] : labels) {
    if (!first) out += ",";
    first = false;
    out += key + "=\"";
    for (const char c : value) {
      // Exposition-format escaping for label values.
      if (c == '\\') {
        out += "\\\\";
      } else if (c == '"') {
        out += "\\\"";
      } else if (c == '\n') {
        out += "\\n";
      } else {
        out.push_back(c);
      }
    }
    out += "\"";
  }
  out += "}";
  return out;
}

std::string prometheus_text(const Registry& registry) {
  return prometheus_text(registry, nullptr);
}

std::string prometheus_text(const Registry& registry,
                            const reqtrace::ExemplarStore* exemplars) {
  std::string out;

  for (const auto& [name, value] : registry.counters_snapshot()) {
    const auto [base, labels] = split_labels(name);
    // `_total` belongs to the metric family name, so it goes before the
    // label block; the TYPE line names the family without labels.
    const std::string family = mangle(base) + "_total";
    out += "# TYPE " + family + " counter\n" + family + labels + " ";
    append_u64(out, value);
    out += "\n";
  }

  for (const auto& [name, value] : registry.gauges_snapshot()) {
    const auto [base, labels] = split_labels(name);
    const std::string family = mangle(base);
    out += "# TYPE " + family + " gauge\n" + family + labels + " ";
    append_double(out, value);
    out += "\n";
  }

  for (const auto& h : registry.histograms_snapshot()) {
    const std::string pname = prometheus_name(h.name);
    const reqtrace::ExemplarSeries* series =
        exemplars == nullptr ? nullptr : exemplars->find(h.name);
    out += "# TYPE " + pname + " histogram\n";
    std::uint64_t cumulative = 0;
    for (const auto& [lower, n] : h.buckets) {
      cumulative += n;
      // Prometheus wants each bucket's inclusive upper bound.
      const std::size_t idx = Histogram::bucket_index(lower);
      out += pname + "_bucket{le=\"";
      append_u64(out, Histogram::bucket_upper(idx));
      out += "\"} ";
      append_u64(out, cumulative);
      if (series != nullptr) {
        const auto ex = series->bucket(idx);
        // Guard against a racing writer relocating the sample: only a
        // value that really belongs to this bucket may annotate it.
        if (ex.has_value() && Histogram::bucket_index(ex->value) == idx) {
          out += " # {trace_id=\"" + reqtrace::trace_id_hex(ex->trace_id) +
                 "\"} ";
          append_u64(out, ex->value);
          out += " ";
          append_double(out, ex->t_s);
        }
      }
      out += "\n";
    }
    out += pname + "_bucket{le=\"+Inf\"} ";
    append_u64(out, h.count);
    out += "\n" + pname + "_sum ";
    append_u64(out, h.sum);
    out += "\n" + pname + "_count ";
    append_u64(out, h.count);
    out += "\n";
  }
  return out;
}

// ------------------------------------------------------------- HTTP server

namespace {

const char* status_text(int status) {
  switch (status) {
    case 200: return "OK";
    case 202: return "Accepted";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 406: return "Not Acceptable";
    case 413: return "Payload Too Large";
    case 500: return "Internal Server Error";
    case 503: return "Service Unavailable";
    default: return "Status";
  }
}

std::string trim(const std::string& s) {
  std::size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b])) != 0) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])) != 0) --e;
  return s.substr(b, e - b);
}

std::string lower(std::string s) {
  for (char& c : s) c = static_cast<char>(std::tolower(
                        static_cast<unsigned char>(c)));
  return s;
}

}  // namespace

MetricsHttpServer::MetricsHttpServer(Options options, BodyFn body)
    : options_(std::move(options)) {
  DVFS_REQUIRE(body != nullptr, "metrics server needs a body callback");
  const RequestHandler metrics = [body = std::move(body)](const Request&) {
    return Response{200, "text/plain; version=0.0.4; charset=utf-8", body()};
  };
  add_route("GET", "/metrics", metrics);
  add_route("GET", "/", metrics);
}

void MetricsHttpServer::add_route(const std::string& method,
                                  const std::string& path,
                                  RequestHandler handler) {
  DVFS_REQUIRE(!path.empty() && path.front() == '/',
               "route path must start with '/'");
  DVFS_REQUIRE(!method.empty(), "route needs a method");
  DVFS_REQUIRE(handler != nullptr, "route needs a handler");
  routes_[path][method] = std::move(handler);
}

void MetricsHttpServer::add_prefix_route(const std::string& method,
                                         const std::string& prefix,
                                         RequestHandler handler) {
  DVFS_REQUIRE(!prefix.empty() && prefix.front() == '/',
               "route prefix must start with '/'");
  DVFS_REQUIRE(!method.empty(), "route needs a method");
  DVFS_REQUIRE(handler != nullptr, "route needs a handler");
  prefix_routes_.emplace_back(method, prefix, std::move(handler));
}

bool MetricsHttpServer::accept_allows(const std::string& accept_header,
                                      const std::string& mime) {
  const std::string want = lower(trim(mime));
  const auto want_slash = want.find('/');
  if (accept_header.empty() || want_slash == std::string::npos) return true;
  const std::string want_type = want.substr(0, want_slash);

  std::size_t pos = 0;
  while (pos <= accept_header.size()) {
    const auto comma = accept_header.find(',', pos);
    std::string range = comma == std::string::npos
                            ? accept_header.substr(pos)
                            : accept_header.substr(pos, comma - pos);
    // Drop media-type parameters (";q=0.9", ";charset=...").
    const auto semi = range.find(';');
    if (semi != std::string::npos) range = range.substr(0, semi);
    range = lower(trim(range));
    if (range == "*/*" || range == want || range == want_type + "/*") {
      return true;
    }
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return false;
}

MetricsHttpServer::~MetricsHttpServer() { stop(); }

void MetricsHttpServer::start() {
  DVFS_REQUIRE(listen_fd_ < 0, "metrics server already started");

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  DVFS_REQUIRE(fd >= 0, "socket() failed");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (options_.host.empty() || options_.host == "0.0.0.0") {
    addr.sin_addr.s_addr = htonl(INADDR_ANY);
  } else if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) !=
             1) {
    ::close(fd);
    DVFS_REQUIRE(false, "cannot parse listen host: " + options_.host);
  }
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
          0 ||
      ::listen(fd, 16) != 0) {
    ::close(fd);
    DVFS_REQUIRE(false, "cannot bind metrics endpoint on " + options_.host +
                            ":" + std::to_string(options_.port));
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len);
  bound_port_ = ntohs(bound.sin_port);

  listen_fd_ = fd;
  stopping_.store(false, std::memory_order_relaxed);
  thread_ = std::thread([this] { serve_loop(); });
}

void MetricsHttpServer::stop() {
  if (listen_fd_ < 0) return;
  stopping_.store(true, std::memory_order_relaxed);
  if (thread_.joinable()) thread_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;
}

void MetricsHttpServer::serve_loop() {
  // Opt the serving thread into CPU profiling: requests (HTTP parsing
  // included) attribute to stage "http" whenever a profiler is running.
  const prof::ThreadGuard prof_guard = prof::profile_current_thread();
  const prof::ScopedStage stage(prof::Stage::kHttp);
  while (!stopping_.load(std::memory_order_relaxed)) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    // Short poll timeout bounds the shutdown latency without a self-pipe.
    const int ready = ::poll(&pfd, 1, 50);
    if (ready <= 0 || (pfd.revents & POLLIN) == 0) continue;

    const int client = ::accept(listen_fd_, nullptr, nullptr);
    if (client < 0) continue;
    handle_client(client);
    ::shutdown(client, SHUT_RDWR);
    ::close(client);
  }
}

namespace {

/// Percent-decodes one query component; '+' decodes to a space. Lenient:
/// a malformed escape ("%zz", trailing "%") passes through literally —
/// a scrape must not 400 over a stray percent sign.
std::string url_decode(std::string_view in) {
  std::string out;
  out.reserve(in.size());
  const auto hex = [](char c) -> int {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    if (c >= 'A' && c <= 'F') return c - 'A' + 10;
    return -1;
  };
  for (std::size_t i = 0; i < in.size(); ++i) {
    if (in[i] == '+') {
      out.push_back(' ');
    } else if (in[i] == '%' && i + 2 < in.size() && hex(in[i + 1]) >= 0 &&
               hex(in[i + 2]) >= 0) {
      out.push_back(
          static_cast<char>(hex(in[i + 1]) * 16 + hex(in[i + 2])));
      i += 2;
    } else {
      out.push_back(in[i]);
    }
  }
  return out;
}

/// Splits "a=1&b=2" into decoded key/value pairs, in order. Empty
/// segments ("a=1&&b=2") are skipped; a segment without '=' becomes a
/// key with an empty value; duplicates are all kept.
std::vector<std::pair<std::string, std::string>> parse_query(
    std::string_view query) {
  std::vector<std::pair<std::string, std::string>> params;
  std::size_t pos = 0;
  while (pos <= query.size()) {
    const auto amp = query.find('&', pos);
    const std::string_view part = query.substr(
        pos, amp == std::string_view::npos ? std::string_view::npos
                                           : amp - pos);
    if (!part.empty()) {
      const auto eq = part.find('=');
      if (eq == std::string_view::npos) {
        params.emplace_back(url_decode(part), "");
      } else {
        params.emplace_back(url_decode(part.substr(0, eq)),
                            url_decode(part.substr(eq + 1)));
      }
    }
    if (amp == std::string_view::npos) break;
    pos = amp + 1;
  }
  return params;
}

}  // namespace

bool MetricsHttpServer::read_request(int client, Request& out,
                                     Response& error) {
  // Accumulate until the blank line that ends the header section — a
  // request line split across any number of TCP segments (or delivered
  // byte-at-a-time) must parse identically to a single-read request.
  std::string data;
  std::size_t header_end = std::string::npos;
  char buf[4096];
  while (header_end == std::string::npos) {
    if (data.size() > kMaxHeaderBytes) {
      error = Response{400, "text/plain; charset=utf-8",
                       "header section too large\n"};
      return true;
    }
    const ssize_t n = ::recv(client, buf, sizeof(buf), 0);
    if (n <= 0) return false;  // peer vanished (or read timeout) mid-headers
    const std::size_t scan_from = data.size() < 3 ? 0 : data.size() - 3;
    data.append(buf, static_cast<std::size_t>(n));
    header_end = data.find("\r\n\r\n", scan_from);
  }

  const std::string head = data.substr(0, header_end);
  const auto line_end = head.find("\r\n");
  const std::string line =
      line_end == std::string::npos ? head : head.substr(0, line_end);
  const auto sp1 = line.find(' ');
  const auto sp2 = sp1 == std::string::npos ? std::string::npos
                                            : line.find(' ', sp1 + 1);
  if (sp1 == std::string::npos || sp2 == std::string::npos || sp1 == 0 ||
      sp2 == sp1 + 1) {
    error = Response{400, "text/plain; charset=utf-8", "bad request line\n"};
    return true;
  }
  out.method = line.substr(0, sp1);
  out.path = line.substr(sp1 + 1, sp2 - sp1 - 1);
  // Split the query off the target before dispatch ever sees the path.
  if (const auto q = out.path.find('?'); q != std::string::npos) {
    out.query = out.path.substr(q + 1);
    out.path.resize(q);
    out.params = parse_query(out.query);
  }

  // Header scan (field names are case-insensitive).
  std::size_t content_length = 0;
  std::size_t pos = line_end == std::string::npos ? head.size() : line_end + 2;
  while (pos < head.size()) {
    const auto eol = head.find("\r\n", pos);
    const std::string header = head.substr(
        pos, eol == std::string::npos ? std::string::npos : eol - pos);
    const auto colon = header.find(':');
    if (colon != std::string::npos) {
      const std::string name = lower(header.substr(0, colon));
      const std::string value = trim(header.substr(colon + 1));
      if (name == "accept") {
        out.accept = value;
      } else if (name == "content-length") {
        const auto [ptr, ec] = std::from_chars(
            value.data(), value.data() + value.size(), content_length);
        if (ec != std::errc{} || ptr != value.data() + value.size()) {
          error = Response{400, "text/plain; charset=utf-8",
                           "bad Content-Length\n"};
          return true;
        }
      }
    }
    if (eol == std::string::npos) break;
    pos = eol + 2;
  }

  if (content_length > kMaxBodyBytes) {
    error = Response{413, "text/plain; charset=utf-8",
                     "request body too large\n"};
    return true;
  }
  // Body: whatever followed the blank line, then keep reading until
  // Content-Length bytes have arrived.
  out.body = data.substr(header_end + 4);
  while (out.body.size() < content_length) {
    const ssize_t n = ::recv(client, buf, sizeof(buf), 0);
    if (n <= 0) return false;  // truncated body: nothing to answer
    out.body.append(buf, static_cast<std::size_t>(n));
  }
  out.body.resize(content_length);  // ignore pipelined bytes past the body
  error.status = 0;
  return true;
}

MetricsHttpServer::Response MetricsHttpServer::dispatch(
    const Request& req) const {
  const RequestHandler* handler = nullptr;
  bool path_known = false;
  if (const auto route = routes_.find(req.path); route != routes_.end()) {
    path_known = true;
    if (const auto m = route->second.find(req.method);
        m != route->second.end()) {
      handler = &m->second;
    }
  }
  if (handler == nullptr) {
    // Longest matching prefix wins; an exact route always wins over any
    // prefix. A prefix match on another method still means 405, not 404.
    std::size_t best_len = 0;
    for (const auto& [method, prefix, h] : prefix_routes_) {
      if (req.path.rfind(prefix, 0) != 0) continue;
      path_known = true;
      if (method != req.method || prefix.size() < best_len) continue;
      best_len = prefix.size();
      handler = &h;
    }
  }
  if (handler == nullptr) {
    if (path_known) {
      return Response{405, "text/plain; charset=utf-8",
                      "method not allowed\n"};
    }
    return Response{404, "text/plain; charset=utf-8", "not found\n"};
  }

  Response res;
  try {
    res = (*handler)(req);
  } catch (const std::exception& e) {
    return Response{500, "text/plain; charset=utf-8",
                    std::string("internal error: ") + e.what() + "\n"};
  } catch (...) {
    return Response{500, "text/plain; charset=utf-8", "internal error\n"};
  }
  const auto semi = res.content_type.find(';');
  const std::string mime = semi == std::string::npos
                               ? res.content_type
                               : res.content_type.substr(0, semi);
  if (!accept_allows(req.accept, trim(mime))) {
    return Response{406, "text/plain; charset=utf-8", "not acceptable\n"};
  }
  return res;
}

void MetricsHttpServer::handle_client(int client) {
  // One request per connection: read it (however fragmented), answer,
  // close. A stalled peer cannot wedge the serving thread: reads time
  // out and the connection is dropped without a response.
  timeval timeout{};
  timeout.tv_sec = 5;
  ::setsockopt(client, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));

  Request req;
  Response res{0, "", ""};
  if (!read_request(client, req, res)) return;
  if (res.status == 0) res = dispatch(req);

  std::string response = "HTTP/1.1 " + std::to_string(res.status) + " " +
                         status_text(res.status) +
                         "\r\nContent-Type: " + res.content_type +
                         "\r\nContent-Length: " +
                         std::to_string(res.body.size()) +
                         "\r\nConnection: close\r\n\r\n" + res.body;
  std::size_t off = 0;
  while (off < response.size()) {
    const ssize_t sent =
        ::send(client, response.data() + off, response.size() - off, 0);
    if (sent <= 0) break;
    off += static_cast<std::size_t>(sent);
  }
}

MetricsHttpServer::Options parse_listen(const std::string& spec) {
  MetricsHttpServer::Options opts;
  const auto colon = spec.rfind(':');
  std::string port_str;
  if (colon == std::string::npos) {
    port_str = spec;  // "9464"
  } else {
    if (colon > 0) opts.host = spec.substr(0, colon);  // "host:9464"
    port_str = spec.substr(colon + 1);                 // ":9464"
  }
  DVFS_REQUIRE(!port_str.empty(), "bad --listen spec: " + spec);
  unsigned value = 0;
  const auto [ptr, ec] =
      std::from_chars(port_str.data(), port_str.data() + port_str.size(),
                      value);
  DVFS_REQUIRE(ec == std::errc{} && ptr == port_str.data() + port_str.size() &&
                   value <= 0xffff,
               "bad --listen port: " + spec);
  opts.port = static_cast<std::uint16_t>(value);
  return opts;
}

}  // namespace dvfs::obs
