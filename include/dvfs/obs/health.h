/// \file health.h
/// \brief SLO engine and burn-rate alerting over the metrics registry.
///
/// Three layers, each usable alone:
///
///  1. **Rules** — a declarative description of one health objective: a
///     signal (how to read a value out of the time-series store), a
///     comparison against a threshold, and multi-window burn-rate
///     semantics. The condition *breaches* only when the signal exceeds
///     the threshold over BOTH the short and the long window — the
///     standard SRE construction: the short window reacts quickly, the
///     long window keeps one noisy sample from paging anyone.
///  2. **SloEngine** — evaluates rules against a `TimeSeriesStore` and
///     advances a per-rule alert state machine:
///
///         ok → pending → firing → resolved → ok
///
///     `pending` holds until the breach has persisted `for_s` seconds;
///     `firing` holds until `keep_firing_s` seconds have passed without a
///     breach (hysteresis: flapping input must not flap the alert);
///     `resolved` is the one-tick transition back to `ok`. The state
///     machine is deterministic in its inputs (t, short value, long
///     value), which is what lets `dvfs_inspect health` replay a
///     recording through the *same* engine offline.
///  3. **HealthMonitor** — the live wiring: a background thread samples
///     the registry into a store every `period_s`, evaluates the engine,
///     publishes per-alert state gauges (`alert.state{alert="..."}`,
///     scraping as `dvfs_alert_state`), and records one `kHealthSample`
///     event per rule per tick (plus a `kAlert` event per transition)
///     into a flight-recorder channel.
///
/// Rule configs load from JSON (`schema: dvfs-health-v1`); with no config
/// the built-in rules cover the scheduler's four health axes: governor
/// cost overhead, queue-wait p99, recorder drop rate, and hw-drift ratio
/// deviation.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "dvfs/obs/json.h"
#include "dvfs/obs/timeseries.h"

namespace dvfs::obs {
class RecorderChannel;
}  // namespace dvfs::obs

namespace dvfs::obs::health {

/// How a rule reads its value from the store at evaluation time `t` for
/// a window of `w` seconds.
enum class SignalKind : std::uint8_t {
  /// Windowed aggregation (Signal::agg) of a gauge's samples.
  kGauge = 0,
  /// Per-second increase of a counter over the window.
  kCounterRate = 1,
  /// delta(metric) / delta(sum of denominators) over the window.
  kCounterRatio = 2,
  /// last(metric) / last(sum of denominators) — cumulative since start,
  /// so a burst stays visible after the window slides past it (the drop-
  /// rate rule wants exactly that latching behavior).
  kCounterRatioTotal = 3,
  /// Windowed aggregation of a histogram quantile sampled each tick.
  kHistogramQuantile = 4,
};

/// Aggregation of a window's samples (kGauge / kHistogramQuantile).
enum class Agg : std::uint8_t {
  kLast = 0,
  kMean = 1,
  kMax = 2,
  kMin = 3,
  kQuantile = 4,  ///< Signal::agg_quantile over the window
};

enum class Op : std::uint8_t { kGreater = 0, kLess = 1 };

enum class AlertState : std::uint8_t {
  kOk = 0,
  kPending = 1,
  kFiring = 2,
  kResolved = 3,  ///< one-tick transition state; decays to kOk
};

[[nodiscard]] const char* to_string(SignalKind k);
[[nodiscard]] const char* to_string(Agg a);
[[nodiscard]] const char* to_string(Op o);
[[nodiscard]] const char* to_string(AlertState s);

struct Signal {
  SignalKind kind = SignalKind::kGauge;
  /// Registry metric name (gauge, counter, or histogram per `kind`).
  std::string metric;
  /// Ratio kinds: the denominator is the sum of these counters.
  std::vector<std::string> denominator;
  /// kHistogramQuantile: which quantile series to derive.
  double quantile = 0.99;
  Agg agg = Agg::kLast;
  double agg_quantile = 0.5;
  /// When finite, the compared value is |aggregate - center| (deviation
  /// alerts, e.g. a drift *ratio* centered on 1.0).
  double center = 0.0;
  bool has_center = false;
  /// Drop samples whose value is exactly 0 before aggregating — for
  /// gauges where 0 means "not measured yet" (the drift ratios).
  bool ignore_zero = false;
};

struct Rule {
  std::string name;
  std::string summary;
  Signal signal;
  Op op = Op::kGreater;
  double threshold = 0.0;
  double short_window_s = 1.0;
  double long_window_s = 5.0;
  /// Breach must persist this long before pending becomes firing.
  double for_s = 0.0;
  /// Firing persists until this long has passed without a breach.
  double keep_firing_s = 0.0;
  std::string severity = "page";
};

/// FNV-1a of the rule name; stored in each health event so offline
/// replay can detect a mismatched rule config.
[[nodiscard]] std::uint64_t rule_hash(const std::string& name);

/// The five built-in health axes (six rules: both drift dimensions).
[[nodiscard]] std::vector<Rule> builtin_rules();

/// Parses a `dvfs-health-v1` config document. Throws PreconditionError
/// on schema violations (unknown kind/agg/op, non-positive windows, ...).
[[nodiscard]] std::vector<Rule> rules_from_json(const Json& doc);

/// Inverse of rules_from_json (docs and round-trip tests).
[[nodiscard]] Json rules_to_json(const std::vector<Rule>& rules);

/// "" or "builtin" yields builtin_rules(); anything else reads the path.
[[nodiscard]] std::vector<Rule> load_rules(const std::string& path_or_empty);

class SloEngine {
 public:
  explicit SloEngine(std::vector<Rule> rules);

  [[nodiscard]] const std::vector<Rule>& rules() const { return rules_; }

  /// Registers the histogram quantiles the rules need on `store`.
  void prepare(TimeSeriesStore& store) const;

  struct Evaluation {
    std::size_t rule = 0;
    double t = 0.0;
    /// NaN when the signal had no data in that window.
    double short_value = 0.0;
    double long_value = 0.0;
    AlertState before = AlertState::kOk;
    AlertState after = AlertState::kOk;
    [[nodiscard]] bool transition() const { return before != after; }
  };

  /// Evaluates every rule against the store at time `t` (one tick).
  std::vector<Evaluation> evaluate(const TimeSeriesStore& store, double t);

  /// Advances one rule's state machine from externally supplied window
  /// values — the exact function `evaluate` uses, exposed so a recording
  /// of (t, short, long) tuples replays deterministically offline.
  Evaluation step(std::size_t rule_index, double t, double short_value,
                  double long_value);

  [[nodiscard]] AlertState state(std::size_t rule_index) const;
  [[nodiscard]] std::size_t firing_count() const;

  /// Writes `alert.state{alert="<name>"}` gauges (0=ok, 1=pending,
  /// 2=firing; resolved publishes as 0) plus `health.firing` into
  /// `registry`.
  void publish(Registry& registry) const;

  /// Machine-readable status (the `/healthz` body): schema
  /// dvfs-healthz-v1. NaN window values serialize as null.
  [[nodiscard]] Json status_json(double t) const;

 private:
  struct RuleState {
    AlertState state = AlertState::kOk;
    bool breaching = false;    ///< was a breach active last tick
    double breach_since = 0.0;
    double last_breach_t = 0.0;
    bool ever_breached = false;
    double short_value = 0.0;  ///< last evaluated (NaN = no data)
    double long_value = 0.0;
  };

  [[nodiscard]] double signal_value(const Signal& signal,
                                    const TimeSeriesStore& store, double t,
                                    double window_s) const;

  std::vector<Rule> rules_;
  std::vector<RuleState> states_;
};

/// Background sampler + evaluator. Construct, optionally `set_channel`,
/// `start()`; `settle()` then `stop()` before reading final state.
class HealthMonitor {
 public:
  struct Options {
    /// Sampling/evaluation period (wall-clock seconds).
    double period_s = 0.5;
    std::size_t series_capacity = SeriesRing::kDefaultCapacity;
  };

  HealthMonitor(Registry& registry, std::vector<Rule> rules);
  HealthMonitor(Registry& registry, std::vector<Rule> rules, Options options);
  ~HealthMonitor();

  HealthMonitor(const HealthMonitor&) = delete;
  HealthMonitor& operator=(const HealthMonitor&) = delete;

  /// Flight-recorder destination for kHealthSample/kAlert events. Give
  /// the monitor its *own* channel: health events must survive the main
  /// ring overflowing (that overflow is one of the alerts).
  void set_channel(RecorderChannel* channel) { channel_ = channel; }

  void start();
  /// Joins the thread after one final tick, so the published gauges and
  /// any recorded events reflect the end state. Idempotent.
  void stop();
  /// Synchronous extra ticks (at period_s cadence) until no rule is
  /// pending, bounded by the largest for_s plus two periods. Lets a
  /// short run's alerts reach their terminal state before `stop()`.
  void settle();
  /// One synchronous sample + evaluate tick (usable without start()).
  void tick();

  [[nodiscard]] std::size_t firing_count() const {
    return firing_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] bool healthy() const { return firing_count() == 0; }
  [[nodiscard]] std::uint64_t ticks() const {
    return tick_count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] const std::vector<Rule>& rules() const;
  [[nodiscard]] std::vector<AlertState> states() const;
  [[nodiscard]] Json status_json() const;

 private:
  void tick_locked(double t);

  Registry& registry_;
  Options options_;
  SloEngine engine_;
  TimeSeriesStore store_;
  RecorderChannel* channel_ = nullptr;

  std::atomic<std::size_t> firing_{0};
  std::atomic<std::uint64_t> tick_count_{0};
  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool stopping_ = false;
  std::thread thread_;
};

}  // namespace dvfs::obs::health
