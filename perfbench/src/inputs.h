/// \file inputs.h
/// \brief Seeded request streams shared by the load generator and the
///        per-layer harness, so the traced run replays exactly the
///        requests the untraced run sent.
///
/// A stream is a fixed-interval open-loop schedule: request i is due at
/// `start + i / rate`. Each slot's kind (submit or one of the read
/// types) is drawn from the workload's weights with a SplitMix64 stream
/// seeded by `--seed`; a task's cycle count is a pure function of
/// (seed, task id), so any consumer can rebuild a submit body from the
/// ids alone. Periodic `/metrics` scrapes are interleaved on their own
/// fixed period.
#pragma once

#include <cmath>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

namespace perfbench {

enum class Kind : std::uint8_t {
  kSubmit = 0,
  kSchedule = 1,  ///< GET /schedule/{recent id}
  kTrace = 2,     ///< GET /tasks/{recent id}/trace
  kHealthz = 3,
  kMetrics = 4,
};

inline const char* kind_name(Kind k) {
  switch (k) {
    case Kind::kSubmit: return "submit";
    case Kind::kSchedule: return "schedule";
    case Kind::kTrace: return "trace";
    case Kind::kHealthz: return "healthz";
    case Kind::kMetrics: return "metrics";
  }
  return "?";
}

/// One workload's traffic shape (set by run.py, identical for both runs).
struct Mix {
  double rate = 1000.0;          ///< requests per second, all kinds
  std::uint32_t tasks_per_submit = 1;
  double w_submit = 1.0;         ///< relative kind weights
  double w_schedule = 0.0;
  double w_trace = 0.0;
  double w_healthz = 0.0;
  double metrics_period_s = 0.0;  ///< 0 = no scrapes
};

struct Planned {
  std::int64_t at_ns = 0;  ///< due time, relative to stream start
  Kind kind = Kind::kSubmit;
  std::uint64_t first_id = 0;  ///< submits: ids first_id .. +tasks-1
  std::uint32_t tasks = 0;
};

class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  /// Uniform in (0, 1).
  double uniform() {
    return (static_cast<double>(next() >> 11) + 0.5) * 0x1.0p-53;
  }

 private:
  std::uint64_t state_;
};

/// The generator for a stream's kind draws: the load generator and the
/// layer harness must seed it identically to replay the same requests.
inline SplitMix64 stream_rng(std::uint64_t seed) {
  return SplitMix64(seed ^ 0x5EED5EED5EED5EEDull);
}

/// `--key value` flags of both binaries, from argv[first] on.
struct Args {
  std::map<std::string, std::string> kv;
  Args(int argc, char** argv, int first) {
    if ((argc - first) % 2 != 0) throw std::runtime_error("flag without value");
    for (int i = first; i + 1 < argc; i += 2) {
      const std::string key = argv[i];
      if (key.rfind("--", 0) != 0) throw std::runtime_error("bad flag " + key);
      kv[key.substr(2)] = argv[i + 1];
    }
  }
  [[nodiscard]] bool has(const std::string& k) const { return kv.count(k) > 0; }
  [[nodiscard]] std::string str(const std::string& k) const {
    const auto it = kv.find(k);
    if (it == kv.end()) throw std::runtime_error("missing --" + k);
    return it->second;
  }
  [[nodiscard]] double num(const std::string& k, double def) const {
    const auto it = kv.find(k);
    return it == kv.end() ? def : std::stod(it->second);
  }
};

/// The stream's shape from its flags (--rate, --tasks, --w-*,
/// --metrics-period).
inline Mix mix_from(const Args& a) {
  Mix m;
  m.rate = a.num("rate", 1000);
  m.tasks_per_submit = static_cast<std::uint32_t>(a.num("tasks", 1));
  m.w_submit = a.num("w-submit", 1);
  m.w_schedule = a.num("w-schedule", 0);
  m.w_trace = a.num("w-trace", 0);
  m.w_healthz = a.num("w-healthz", 0);
  m.metrics_period_s = a.num("metrics-period", 0);
  return m;
}

/// Judge cost of task `id`: lognormal with mean 3e9 cycles and the heavy
/// sigma (1.4) of the judgegirl generator's code submissions, clamped to
/// [1e6, 1e12] so no single task dominates a shard.
inline std::uint64_t task_cycles(std::uint64_t seed, std::uint64_t id) {
  SplitMix64 rng(seed * 0x2545F4914F6CDD1Dull + id);
  const double u1 = rng.uniform();
  const double u2 = rng.uniform();
  const double z = std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
  constexpr double kSigma = 1.4;
  const double mu = std::log(3e9) - kSigma * kSigma / 2.0;
  const double c = std::exp(mu + kSigma * z);
  return static_cast<std::uint64_t>(std::fmin(1e12, std::fmax(1e6, c)));
}

inline std::string submit_body(std::uint64_t seed, std::uint64_t first_id,
                               std::uint32_t tasks) {
  const auto one = [&](std::uint64_t id) {
    return "{\"id\":" + std::to_string(id) +
           ",\"cycles\":" + std::to_string(task_cycles(seed, id)) + "}";
  };
  if (tasks == 1) return one(first_id);
  std::string body = "{\"tasks\":[";
  for (std::uint32_t i = 0; i < tasks; ++i) {
    if (i > 0) body += ',';
    body += one(first_id + i);
  }
  return body + "]}";
}

/// The open-loop schedule for [start_s, start_s + seconds). `next_id`
/// and `rng` carry across calls so consecutive phases continue one
/// stream of unique ids.
inline std::vector<Planned> plan(const Mix& mix, double start_s,
                                 double seconds, std::uint64_t& next_id,
                                 SplitMix64& rng) {
  std::vector<Planned> out;
  const double total =
      mix.w_submit + mix.w_schedule + mix.w_trace + mix.w_healthz;
  const auto n = static_cast<std::uint64_t>(seconds * mix.rate);
  const auto period_ns = 1e9 / mix.rate;
  const auto start_ns = static_cast<std::int64_t>(start_s * 1e9);
  out.reserve(n + 64);
  std::uint64_t scrapes = 0;
  for (std::uint64_t i = 0; i < n; ++i) {
    const auto at =
        start_ns + static_cast<std::int64_t>(static_cast<double>(i) * period_ns);
    if (mix.metrics_period_s > 0.0) {
      const auto scrape_at = start_ns + static_cast<std::int64_t>(
          static_cast<double>(scrapes) * mix.metrics_period_s * 1e9);
      if (scrape_at <= at) {
        out.push_back({scrape_at, Kind::kMetrics, 0, 0});
        ++scrapes;
      }
    }
    double pick = rng.uniform() * total;
    Kind kind = Kind::kHealthz;
    if ((pick -= mix.w_submit) < 0.0) {
      kind = Kind::kSubmit;
    } else if ((pick -= mix.w_schedule) < 0.0) {
      kind = Kind::kSchedule;
    } else if ((pick -= mix.w_trace) < 0.0) {
      kind = Kind::kTrace;
    }
    Planned p{at, kind, 0, 0};
    if (kind == Kind::kSubmit) {
      p.first_id = next_id;
      p.tasks = mix.tasks_per_submit;
      next_id += mix.tasks_per_submit;
    }
    out.push_back(p);
  }
  return out;
}

}  // namespace perfbench
