/// perfbench_loadgen: single-threaded open-loop HTTP load generator for
/// `dvfs_execute --serve`.
///
///   perfbench_loadgen --port P --seed S --rate R --tasks N
///       [--w-submit A --w-schedule B --w-trace C --w-healthz D]
///       [--metrics-period S] --warmup S --seconds S --sat-seconds S
///       [--first-id N] --out DIR
///
/// Phases: warm-up and measured windows follow the seeded fixed-interval
/// schedule of inputs.h (open loop: a request is due at its slot whether
/// or not earlier ones have finished, on at most 4 connections); then a
/// closed-loop saturation phase keeps 4 requests in flight back to back.
/// Task ids run from --first-id upwards.
///
/// Coordinated omission: every request is timed from its *due* time, so
/// a stall that delays later requests is charged to them. A due request
/// that finds all connections busy waits for one (that wait is the
/// server's fault and counts in its latency); the generator's own
/// lateness — from the moment a request could have started (due and a
/// connection free) to the moment it did — is recorded separately so a
/// starved generator is never mistaken for a slow server.
///
/// The server closes every connection after one response, so each
/// request opens its own. Output (DIR/requests.tsv) is one line per
/// request:
///   phase kind status due eligible start connected written first_byte
///   done first_id tasks
/// (ns on CLOCK_MONOTONIC relative to the stream start; status < 0 is a
/// transport failure: -1 connect, -2 I/O or short response, -3 timeout).
/// DIR/bodies.bin holds each response body as "<index> <length>\n<bytes>\n".
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/timerfd.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <cstdio>
#include <deque>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "inputs.h"

namespace {

using perfbench::Args;
using perfbench::Kind;
using perfbench::Planned;

std::int64_t mono_ns() {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

enum class Phase : char { kWarmup = 'w', kMeasure = 'm', kSaturate = 's' };

struct Record {
  Phase phase = Phase::kMeasure;
  Kind kind = Kind::kSubmit;
  int status = 0;
  std::int64_t due = 0;
  std::int64_t eligible = 0;
  std::int64_t start = 0;
  std::int64_t connected = 0;
  std::int64_t written = 0;
  std::int64_t first_byte = 0;
  std::int64_t done = 0;
  std::uint64_t first_id = 0;
  std::uint32_t tasks = 0;
  std::string body;
};

struct Conn {
  int fd = -1;
  std::size_t rec = 0;
  std::string out;
  std::size_t off = 0;
  std::string in;
  bool connected = false;
};

class Generator {
 public:
  Generator(const Args& args)
      : port_(static_cast<std::uint16_t>(args.num("port", 0))),
        seed_(static_cast<std::uint64_t>(args.num("seed", 1))),
        first_id_(static_cast<std::uint64_t>(args.num("first-id", 1))),
        mix_(perfbench::mix_from(args)),
        rng_(perfbench::stream_rng(seed_)) {
    warmup_s_ = args.num("warmup", 1);
    seconds_ = args.num("seconds", 10);
    sat_s_ = args.num("sat-seconds", 2);
    epoll_ = ::epoll_create1(EPOLL_CLOEXEC);
    timer_ = ::timerfd_create(CLOCK_MONOTONIC, TFD_NONBLOCK | TFD_CLOEXEC);
    if (epoll_ < 0 || timer_ < 0) throw std::runtime_error("epoll/timerfd");
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = kTimerTag;
    ::epoll_ctl(epoll_, EPOLL_CTL_ADD, timer_, &ev);
    slots_.resize(kConns);
  }
  ~Generator() {
    for (Conn& c : slots_) {
      if (c.fd >= 0) ::close(c.fd);
    }
    ::close(timer_);
    ::close(epoll_);
  }
  Generator(const Generator&) = delete;
  Generator& operator=(const Generator&) = delete;

  void run() {
    std::uint64_t next_id = first_id_;
    const std::vector<Planned> warm =
        perfbench::plan(mix_, 0.0, warmup_s_, next_id, rng_);
    const std::vector<Planned> meas =
        perfbench::plan(mix_, warmup_s_, seconds_, next_id, rng_);
    for (const Planned& p : warm) add(Phase::kWarmup, p);
    for (const Planned& p : meas) add(Phase::kMeasure, p);
    // Render submit requests ahead of time: the generator's send path
    // must cost the same whatever the body size.
    for (std::size_t i = 0; i < recs_.size(); ++i) {
      if (recs_[i].kind == Kind::kSubmit) prebuilt_[i] = render(recs_[i]);
    }
    t0_ = mono_ns() + 20'000'000;  // 20 ms to settle before the first slot
    open_loop();
    closed_loop(next_id);
  }

  void write(const std::string& dir) const {
    const std::string tsv = dir + "/requests.tsv";
    const std::string bin = dir + "/bodies.bin";
    const std::unique_ptr<FILE, int (*)(FILE*)> f(std::fopen(tsv.c_str(), "w"),
                                                   &std::fclose);
    const std::unique_ptr<FILE, int (*)(FILE*)> b(std::fopen(bin.c_str(), "wb"),
                                                   &std::fclose);
    if (f == nullptr || b == nullptr) throw std::runtime_error("cannot write " + dir);
    for (std::size_t i = 0; i < recs_.size(); ++i) {
      const Record& r = recs_[i];
      std::fprintf(f.get(), "%c\t%s\t%d\t%lld\t%lld\t%lld\t%lld\t%lld\t%lld\t%lld\t%llu\t%u\n",
                   static_cast<char>(r.phase), perfbench::kind_name(r.kind),
                   r.status, rel(r.due), rel(r.eligible), rel(r.start),
                   rel(r.connected), rel(r.written), rel(r.first_byte),
                   rel(r.done), static_cast<unsigned long long>(r.first_id),
                   r.tasks);
      std::fprintf(b.get(), "%zu %zu\n", i, r.body.size());
      std::fwrite(r.body.data(), 1, r.body.size(), b.get());
      std::fputc('\n', b.get());
    }
  }

 private:
  static constexpr std::uint64_t kTimerTag = ~std::uint64_t{0};
  static constexpr std::int64_t kTimeoutNs = 5'000'000'000;
  static constexpr std::int64_t kReadAgeNs = 500'000'000;
  static constexpr std::int64_t kSpinNs = 200'000;
  /// Connections in flight at most (the server takes one at a time;
  /// more would only queue in its listen backlog).
  static constexpr std::size_t kConns = 4;

  [[nodiscard]] long long rel(std::int64_t t) const {
    return t == 0 ? 0 : static_cast<long long>(t - t0_);
  }

  void add(Phase phase, const Planned& p) {
    Record r;
    r.phase = phase;
    r.kind = p.kind;
    r.due = p.at_ns;  // relative until open_loop() rebases it
    r.first_id = p.first_id;
    r.tasks = p.tasks;
    recs_.push_back(std::move(r));
    prebuilt_.emplace_back();
  }

  std::string render(const Record& r) const {
    std::string path;
    switch (r.kind) {
      case Kind::kSubmit: {
        const std::string body =
            perfbench::submit_body(seed_, r.first_id, r.tasks);
        return "POST /submit HTTP/1.1\r\nHost: 127.0.0.1\r\n"
               "Content-Type: application/json\r\nContent-Length: " +
               std::to_string(body.size()) + "\r\n\r\n" + body;
      }
      case Kind::kSchedule:
        path = "/schedule/" + std::to_string(r.first_id);
        break;
      case Kind::kTrace:
        path = "/tasks/" + std::to_string(r.first_id) + "/trace";
        break;
      case Kind::kHealthz:
        path = "/healthz";
        break;
      case Kind::kMetrics:
        path = "/metrics";
        break;
    }
    return "GET " + path + " HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n";
  }

  std::size_t inflight() const {
    std::size_t n = 0;
    for (const Conn& c : slots_) n += c.fd >= 0 ? 1 : 0;
    return n;
  }

  void start(std::size_t rec, std::int64_t eligible) {
    Record& r = recs_[rec];
    if (r.kind == Kind::kSchedule || r.kind == Kind::kTrace) {
      // Reads target the latest task accepted at least kReadAgeNs ago
      // (placement follows acceptance asynchronously); before there is
      // one, the slot probes /healthz instead.
      const std::int64_t now = mono_ns();
      while (!acks_.empty() && now - acks_.front().first >= kReadAgeNs) {
        readable_ = acks_.front().second;
        acks_.pop_front();
      }
      if (readable_ == 0) r.kind = Kind::kHealthz;
      r.first_id = readable_;
    }
    std::size_t slot = 0;
    while (slots_[slot].fd >= 0) ++slot;
    Conn& c = slots_[slot];
    c = Conn{};
    c.rec = rec;
    c.out = r.kind == Kind::kSubmit ? std::move(prebuilt_[rec]) : render(r);
    r.eligible = eligible;
    r.start = mono_ns();
    c.fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (c.fd < 0) throw std::runtime_error("socket() failed");
    const int one = 1;
    ::setsockopt(c.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port_);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(c.fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0 &&
        errno != EINPROGRESS) {
      finish(slot, -1);
      return;
    }
    epoll_event ev{};
    ev.events = EPOLLOUT;
    ev.data.u64 = slot;
    ::epoll_ctl(epoll_, EPOLL_CTL_ADD, c.fd, &ev);
  }

  void finish(std::size_t slot, int status) {
    Conn& c = slots_[slot];
    Record& r = recs_[c.rec];
    r.done = mono_ns();
    r.status = status;
    if (status > 0) {
      const auto header_end = c.in.find("\r\n\r\n");
      r.body = c.in.substr(header_end + 4);
      if (r.kind == Kind::kSubmit && status == 202) {
        acks_.emplace_back(r.done, r.first_id + r.tasks - 1);
      }
    }
    ::epoll_ctl(epoll_, EPOLL_CTL_DEL, c.fd, nullptr);
    ::close(c.fd);
    c.fd = -1;
    last_free_ = r.done;
  }

  /// Drives one connection's state machine on an epoll event.
  void on_event(std::size_t slot, std::uint32_t events) {
    Conn& c = slots_[slot];
    Record& r = recs_[c.rec];
    if (!c.connected) {
      int err = 0;
      socklen_t len = sizeof(err);
      ::getsockopt(c.fd, SOL_SOCKET, SO_ERROR, &err, &len);
      if (err != 0 || (events & (EPOLLERR | EPOLLHUP)) != 0) {
        finish(slot, -1);
        return;
      }
      c.connected = true;
      r.connected = mono_ns();
    }
    if (c.off < c.out.size()) {
      const ssize_t n = ::send(c.fd, c.out.data() + c.off,
                               c.out.size() - c.off, MSG_NOSIGNAL);
      if (n < 0 && errno != EAGAIN) {
        finish(slot, -2);
        return;
      }
      if (n > 0) c.off += static_cast<std::size_t>(n);
      if (c.off == c.out.size()) {
        r.written = mono_ns();
        epoll_event ev{};
        ev.events = EPOLLIN | EPOLLRDHUP;
        ev.data.u64 = slot;
        ::epoll_ctl(epoll_, EPOLL_CTL_MOD, c.fd, &ev);
      }
      return;
    }
    char buf[16384];
    for (;;) {
      const ssize_t n = ::recv(c.fd, buf, sizeof(buf), 0);
      if (n > 0) {
        if (c.in.empty()) r.first_byte = mono_ns();
        c.in.append(buf, static_cast<std::size_t>(n));
        const int status = complete_status(c.in);
        if (status > 0) {
          finish(slot, status);
          return;
        }
        continue;
      }
      if (n < 0 && errno == EAGAIN) return;
      finish(slot, -2);  // EOF or error before a complete response
      return;
    }
  }

  /// HTTP status once `in` holds the full Content-Length-delimited
  /// response; 0 while incomplete; -2 when malformed.
  static int complete_status(const std::string& in) {
    const auto header_end = in.find("\r\n\r\n");
    if (header_end == std::string::npos) return 0;
    if (in.compare(0, 9, "HTTP/1.1 ") != 0 || in.size() < 12) return -2;
    int status = 0;
    std::from_chars(in.data() + 9, in.data() + 12, status);
    const auto cl = in.find("Content-Length: ");
    if (cl == std::string::npos || cl > header_end) return -2;
    std::size_t length = 0;
    std::from_chars(in.data() + cl + 16, in.data() + header_end, length);
    return in.size() >= header_end + 4 + length ? status : 0;
  }

  void expire_stuck(std::int64_t now) {
    for (std::size_t s = 0; s < slots_.size(); ++s) {
      if (slots_[s].fd >= 0 && now - recs_[slots_[s].rec].start > kTimeoutNs) {
        finish(s, -3);
      }
    }
  }

  void poll_once(int timeout_ms) {
    epoll_event evs[8];
    const int n = ::epoll_wait(epoll_, evs, 8, timeout_ms);
    for (int i = 0; i < n; ++i) {
      if (evs[i].data.u64 == kTimerTag) {
        std::uint64_t expirations = 0;
        (void)!::read(timer_, &expirations, sizeof(expirations));
        continue;
      }
      const std::size_t slot = evs[i].data.u64;
      if (slots_[slot].fd >= 0) on_event(slot, evs[i].events);
    }
  }

  void arm(std::int64_t at) {
    itimerspec its{};
    its.it_value.tv_sec = at / 1'000'000'000;
    its.it_value.tv_nsec = at % 1'000'000'000;
    ::timerfd_settime(timer_, TFD_TIMER_ABSTIME, &its, nullptr);
  }

  void open_loop() {
    for (Record& r : recs_) r.due += t0_;
    std::size_t next = 0;
    std::deque<std::size_t> waiting;  // due, but every connection busy
    while (next < recs_.size() || !waiting.empty() || inflight() > 0) {
      const std::int64_t now = mono_ns();
      while (next < recs_.size() && recs_[next].due <= now) {
        waiting.push_back(next++);
      }
      while (!waiting.empty() && inflight() < kConns) {
        const std::size_t rec = waiting.front();
        waiting.pop_front();
        // It could have started at its due time, or when the last
        // connection freed up if it had to wait for one.
        start(rec, std::max(recs_[rec].due, last_free_));
      }
      expire_stuck(now);
      // Within kSpinNs of the next due time the generator polls instead
      // of sleeping: waking a halted vCPU from a timer can take longer
      // than the gap between requests.
      if (waiting.empty() && next < recs_.size() &&
          recs_[next].due - now > kSpinNs) {
        arm(recs_[next].due - kSpinNs);
        poll_once(100);
      } else {
        poll_once(0);
      }
    }
  }

  void closed_loop(std::uint64_t& next_id) {
    perfbench::Mix sat = mix_;
    sat.metrics_period_s = 0.0;
    const std::int64_t begin = mono_ns();
    const std::int64_t end = begin + static_cast<std::int64_t>(sat_s_ * 1e9);
    std::vector<Planned> stream;
    std::size_t used = 0;
    for (;;) {
      const std::int64_t now = mono_ns();
      while (now < end && inflight() < kConns) {
        if (used == stream.size()) {
          stream = perfbench::plan(sat, 0.0, 1.0, next_id, rng_);
          used = 0;
        }
        Record r;
        r.phase = Phase::kSaturate;
        r.kind = stream[used].kind;
        r.first_id = stream[used].first_id;
        r.tasks = stream[used].tasks;
        ++used;
        r.due = now;  // closed loop: due the moment a slot frees
        recs_.push_back(std::move(r));
        prebuilt_.push_back(render(recs_.back()));
        start(recs_.size() - 1, now);
      }
      if (now >= end && inflight() == 0) break;
      expire_stuck(now);
      poll_once(100);
    }
  }

  std::uint16_t port_;
  std::uint64_t seed_;
  std::uint64_t first_id_;
  perfbench::Mix mix_;
  perfbench::SplitMix64 rng_;
  double warmup_s_ = 1.0;
  double seconds_ = 10.0;
  double sat_s_ = 2.0;
  int epoll_ = -1;
  int timer_ = -1;
  std::int64_t t0_ = 0;
  std::int64_t last_free_ = 0;
  std::deque<std::pair<std::int64_t, std::uint64_t>> acks_;  // (time, id)
  std::uint64_t readable_ = 0;
  std::vector<Record> recs_;
  std::vector<std::string> prebuilt_;
  std::vector<Conn> slots_;
};

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args(argc, argv, 1);
    // Default 50 us timer slack would show up as generator lag.
    ::prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
    Generator gen(args);
    gen.run();
    gen.write(args.str("out"));
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_loadgen: %s\n", e.what());
    return 2;
  }
}
