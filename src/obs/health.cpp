#include "dvfs/obs/health.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <set>
#include <utility>

#include "dvfs/common.h"
#include "dvfs/obs/clock.h"
#include "dvfs/obs/promtext.h"
#include "dvfs/obs/recorder.h"

namespace dvfs::obs::health {

namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

SignalKind signal_kind_from(const std::string& s) {
  if (s == "gauge") return SignalKind::kGauge;
  if (s == "counter_rate") return SignalKind::kCounterRate;
  if (s == "counter_ratio") return SignalKind::kCounterRatio;
  if (s == "counter_ratio_total") return SignalKind::kCounterRatioTotal;
  if (s == "histogram_quantile") return SignalKind::kHistogramQuantile;
  DVFS_REQUIRE(false, "unknown signal kind: " + s);
  return SignalKind::kGauge;  // unreachable
}

Agg agg_from(const std::string& s) {
  if (s == "last") return Agg::kLast;
  if (s == "mean") return Agg::kMean;
  if (s == "max") return Agg::kMax;
  if (s == "min") return Agg::kMin;
  if (s == "quantile") return Agg::kQuantile;
  DVFS_REQUIRE(false, "unknown window aggregation: " + s);
  return Agg::kLast;  // unreachable
}

Op op_from(const std::string& s) {
  if (s == ">") return Op::kGreater;
  if (s == "<") return Op::kLess;
  DVFS_REQUIRE(false, "unknown comparison op (want > or <): " + s);
  return Op::kGreater;  // unreachable
}

double get_number(const Json& obj, const std::string& key, double fallback) {
  return obj.contains(key) ? obj.at(key).as_double() : fallback;
}

std::string get_string(const Json& obj, const std::string& key,
                       const std::string& fallback) {
  return obj.contains(key) ? obj.at(key).as_string() : fallback;
}

Json number_or_null(double v) {
  return std::isfinite(v) ? Json(v) : Json(nullptr);
}

void validate(const Rule& r) {
  DVFS_REQUIRE(!r.name.empty(), "health rule needs a name");
  DVFS_REQUIRE(!r.signal.metric.empty(),
               "health rule " + r.name + " needs a signal metric");
  DVFS_REQUIRE(std::isfinite(r.threshold),
               "health rule " + r.name + " needs a finite threshold");
  DVFS_REQUIRE(r.short_window_s > 0.0 && r.long_window_s > 0.0,
               "health rule " + r.name + " needs positive windows");
  DVFS_REQUIRE(r.short_window_s <= r.long_window_s,
               "health rule " + r.name +
                   ": short window must not exceed the long window");
  DVFS_REQUIRE(r.for_s >= 0.0 && r.keep_firing_s >= 0.0,
               "health rule " + r.name +
                   ": for/keep_firing durations must be non-negative");
  const bool ratio = r.signal.kind == SignalKind::kCounterRatio ||
                     r.signal.kind == SignalKind::kCounterRatioTotal;
  DVFS_REQUIRE(!ratio || !r.signal.denominator.empty(),
               "health rule " + r.name + ": ratio signals need a denominator");
  DVFS_REQUIRE(r.signal.quantile >= 0.0 && r.signal.quantile <= 1.0 &&
                   r.signal.agg_quantile >= 0.0 && r.signal.agg_quantile <= 1.0,
               "health rule " + r.name + ": quantiles must be in [0, 1]");
}

}  // namespace

const char* to_string(SignalKind k) {
  switch (k) {
    case SignalKind::kGauge: return "gauge";
    case SignalKind::kCounterRate: return "counter_rate";
    case SignalKind::kCounterRatio: return "counter_ratio";
    case SignalKind::kCounterRatioTotal: return "counter_ratio_total";
    case SignalKind::kHistogramQuantile: return "histogram_quantile";
  }
  return "?";
}

const char* to_string(Agg a) {
  switch (a) {
    case Agg::kLast: return "last";
    case Agg::kMean: return "mean";
    case Agg::kMax: return "max";
    case Agg::kMin: return "min";
    case Agg::kQuantile: return "quantile";
  }
  return "?";
}

const char* to_string(Op o) {
  switch (o) {
    case Op::kGreater: return ">";
    case Op::kLess: return "<";
  }
  return "?";
}

const char* to_string(AlertState s) {
  switch (s) {
    case AlertState::kOk: return "ok";
    case AlertState::kPending: return "pending";
    case AlertState::kFiring: return "firing";
    case AlertState::kResolved: return "resolved";
  }
  return "?";
}

std::uint64_t rule_hash(const std::string& name) {
  std::uint64_t h = 14695981039346656037ull;  // FNV-1a offset basis
  for (const char c : name) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 1099511628211ull;  // FNV prime
  }
  return h;
}

std::vector<Rule> builtin_rules() {
  std::vector<Rule> rules;
  {
    // Realized governor decisions priced against the best candidate of
    // the same decision (the paper's marginal-cost argmin makes this 0
    // for LMC/WBG by construction; a baseline placement like round-robin
    // accumulates real overhead).
    Rule r;
    r.name = "governor-cost-overhead";
    r.summary = "cumulative chosen-vs-best decision cost overhead";
    r.signal.kind = SignalKind::kGauge;
    r.signal.metric = "governor.cost.margin_ratio";
    r.signal.agg = Agg::kMax;
    r.threshold = 0.25;
    r.short_window_s = 1.0;
    r.long_window_s = 5.0;
    r.keep_firing_s = 5.0;
    rules.push_back(std::move(r));
  }
  {
    // One simulated hour of queue wait at p99.
    Rule r;
    r.name = "queue-wait-p99";
    r.summary = "p99 task queue wait exceeds one simulated hour";
    r.signal.kind = SignalKind::kHistogramQuantile;
    r.signal.metric = "sim.task.queue_wait_us";
    r.signal.quantile = 0.99;
    r.threshold = 3.6e9;  // microseconds
    r.short_window_s = 1.0;
    r.long_window_s = 5.0;
    r.keep_firing_s = 5.0;
    rules.push_back(std::move(r));
  }
  {
    // Latching ratio: a drop burst must stay visible after the burst —
    // dropped decisions are unrecoverable, so the alert holds until the
    // cumulative rate dilutes below threshold (or the run ends).
    Rule r;
    r.name = "recorder-drop-rate";
    r.summary = "flight recorder dropping more than 1% of events";
    r.signal.kind = SignalKind::kCounterRatioTotal;
    r.signal.metric = "recorder.events_dropped";
    r.signal.denominator = {"recorder.events_recorded",
                            "recorder.events_dropped"};
    r.threshold = 0.01;
    r.short_window_s = 1.0;
    r.long_window_s = 5.0;
    r.keep_firing_s = 30.0;
    rules.push_back(std::move(r));
  }
  for (const char* dim : {"energy", "duration"}) {
    // measured/predicted calibration ratio, centered on 1.0. Exactly 0
    // means "no measured spans yet" — ignore, don't alert.
    Rule r;
    r.name = std::string("hw-drift-") + dim;
    r.summary = std::string("hardware ") + dim +
                " deviates >50% from the model's prediction";
    r.signal.kind = SignalKind::kGauge;
    r.signal.metric = std::string("rt.drift.") + dim + "_ratio";
    r.signal.center = 1.0;
    r.signal.has_center = true;
    r.signal.ignore_zero = true;
    r.threshold = 0.5;
    r.short_window_s = 1.0;
    r.long_window_s = 5.0;
    r.keep_firing_s = 30.0;
    rules.push_back(std::move(r));
  }
  {
    // Scheduling-service admission health: time from submit() to the
    // owning shard's placement. 100ms at p99 means the shards are not
    // keeping up with the offered load (rings backing up), long before
    // hard 503 backpressure kicks in. Inert when the service is not
    // running — an absent histogram yields NaN, which never breaches.
    Rule r;
    r.name = "admission-latency-p99";
    r.summary = "service p99 admission latency exceeds 100ms";
    r.signal.kind = SignalKind::kHistogramQuantile;
    r.signal.metric = "svc.admission.latency_us";
    r.signal.quantile = 0.99;
    r.threshold = 1e5;  // microseconds
    r.short_window_s = 1.0;
    r.long_window_s = 5.0;
    r.keep_firing_s = 5.0;
    rules.push_back(std::move(r));
  }
  return rules;
}

std::vector<Rule> rules_from_json(const Json& doc) {
  DVFS_REQUIRE(doc.is_object() && doc.contains("schema") &&
                   doc.at("schema").as_string() == "dvfs-health-v1",
               "health config must carry schema dvfs-health-v1");
  DVFS_REQUIRE(doc.contains("rules") && doc.at("rules").is_array(),
               "health config needs a rules array");
  std::vector<Rule> rules;
  std::set<std::string> names;
  for (const Json& entry : doc.at("rules").as_array()) {
    DVFS_REQUIRE(entry.is_object(), "health rule must be an object");
    Rule r;
    r.name = entry.at("name").as_string();
    r.summary = get_string(entry, "summary", "");
    r.severity = get_string(entry, "severity", "page");
    const Json& sig = entry.at("signal");
    r.signal.kind = signal_kind_from(sig.at("kind").as_string());
    r.signal.metric = sig.at("metric").as_string();
    if (sig.contains("denominator")) {
      for (const Json& d : sig.at("denominator").as_array()) {
        r.signal.denominator.push_back(d.as_string());
      }
    }
    r.signal.quantile = get_number(sig, "quantile", 0.99);
    r.signal.agg = agg_from(get_string(sig, "agg", "last"));
    r.signal.agg_quantile = get_number(sig, "agg_quantile", 0.5);
    if (sig.contains("center")) {
      r.signal.center = sig.at("center").as_double();
      r.signal.has_center = true;
    }
    r.signal.ignore_zero =
        sig.contains("ignore_zero") && sig.at("ignore_zero").as_bool();
    r.op = op_from(get_string(entry, "op", ">"));
    r.threshold = entry.at("threshold").as_double();
    r.short_window_s = get_number(entry, "short_window_s", 1.0);
    r.long_window_s = get_number(entry, "long_window_s", 5.0);
    r.for_s = get_number(entry, "for_s", 0.0);
    r.keep_firing_s = get_number(entry, "keep_firing_s", 0.0);
    validate(r);
    DVFS_REQUIRE(names.insert(r.name).second,
                 "duplicate health rule name: " + r.name);
    rules.push_back(std::move(r));
  }
  return rules;
}

Json rules_to_json(const std::vector<Rule>& rules) {
  Json::Array entries;
  for (const Rule& r : rules) {
    Json::Object sig{{"kind", Json(to_string(r.signal.kind))},
                     {"metric", Json(r.signal.metric)}};
    if (!r.signal.denominator.empty()) {
      Json::Array den;
      for (const std::string& d : r.signal.denominator) den.push_back(Json(d));
      sig.emplace("denominator", Json(std::move(den)));
    }
    if (r.signal.kind == SignalKind::kHistogramQuantile) {
      sig.emplace("quantile", Json(r.signal.quantile));
    }
    sig.emplace("agg", Json(to_string(r.signal.agg)));
    if (r.signal.agg == Agg::kQuantile) {
      sig.emplace("agg_quantile", Json(r.signal.agg_quantile));
    }
    if (r.signal.has_center) sig.emplace("center", Json(r.signal.center));
    if (r.signal.ignore_zero) sig.emplace("ignore_zero", Json(true));
    Json::Object entry{{"name", Json(r.name)},
                       {"signal", Json(std::move(sig))},
                       {"op", Json(to_string(r.op))},
                       {"threshold", Json(r.threshold)},
                       {"short_window_s", Json(r.short_window_s)},
                       {"long_window_s", Json(r.long_window_s)},
                       {"for_s", Json(r.for_s)},
                       {"keep_firing_s", Json(r.keep_firing_s)},
                       {"severity", Json(r.severity)}};
    if (!r.summary.empty()) entry.emplace("summary", Json(r.summary));
    entries.push_back(Json(std::move(entry)));
  }
  return Json(Json::Object{{"schema", Json("dvfs-health-v1")},
                           {"rules", Json(std::move(entries))}});
}

std::vector<Rule> load_rules(const std::string& path_or_empty) {
  if (path_or_empty.empty() || path_or_empty == "builtin") {
    return builtin_rules();
  }
  return rules_from_json(read_json_file(path_or_empty));
}

// ---------------------------------------------------------------- engine

SloEngine::SloEngine(std::vector<Rule> rules) : rules_(std::move(rules)) {
  for (const Rule& r : rules_) validate(r);
  states_.resize(rules_.size());
}

void SloEngine::prepare(TimeSeriesStore& store) const {
  for (const Rule& r : rules_) {
    if (r.signal.kind == SignalKind::kHistogramQuantile) {
      store.track_quantile(r.signal.metric, r.signal.quantile);
    }
  }
}

double SloEngine::signal_value(const Signal& signal,
                               const TimeSeriesStore& store, double t,
                               double window_s) const {
  const auto last_in_window = [&](const std::string& key) {
    const SeriesRing* ring = store.find(key);
    if (ring == nullptr) return kNan;
    const SeriesRing::WindowStats stats = ring->window_stats(t, window_s);
    return stats.count == 0 ? kNan : stats.last;
  };

  switch (signal.kind) {
    case SignalKind::kGauge:
    case SignalKind::kHistogramQuantile: {
      const std::string key =
          signal.kind == SignalKind::kGauge
              ? signal.metric
              : TimeSeriesStore::quantile_key(signal.metric, signal.quantile);
      const SeriesRing* ring = store.find(key);
      if (ring == nullptr) return kNan;
      std::vector<double> values;
      for (const SeriesRing::Sample& s : ring->window(t, window_s)) {
        if (signal.ignore_zero && s.v == 0.0) continue;
        if (std::isnan(s.v)) continue;  // derived quantile of an empty hist
        values.push_back(signal.has_center ? std::abs(s.v - signal.center)
                                           : s.v);
      }
      if (values.empty()) return kNan;
      switch (signal.agg) {
        case Agg::kLast:
          return values.back();
        case Agg::kMean: {
          double sum = 0.0;
          for (const double v : values) sum += v;
          return sum / static_cast<double>(values.size());
        }
        case Agg::kMax:
          return *std::max_element(values.begin(), values.end());
        case Agg::kMin:
          return *std::min_element(values.begin(), values.end());
        case Agg::kQuantile: {
          std::sort(values.begin(), values.end());
          const auto rank = std::max<std::size_t>(
              1, static_cast<std::size_t>(std::ceil(
                     signal.agg_quantile *
                     static_cast<double>(values.size()))));
          return values[std::min(rank, values.size()) - 1];
        }
      }
      return kNan;
    }
    case SignalKind::kCounterRate: {
      const SeriesRing* ring = store.find(signal.metric);
      return ring == nullptr ? kNan : ring->rate(t, window_s);
    }
    case SignalKind::kCounterRatio: {
      const SeriesRing* num = store.find(signal.metric);
      if (num == nullptr) return kNan;
      const double dn = num->delta(t, window_s);
      if (std::isnan(dn)) return kNan;
      double dd = 0.0;
      for (const std::string& d : signal.denominator) {
        const SeriesRing* den = store.find(d);
        if (den == nullptr) return kNan;
        const double v = den->delta(t, window_s);
        if (std::isnan(v)) return kNan;
        dd += v;
      }
      return dd > 0.0 ? dn / dd : kNan;
    }
    case SignalKind::kCounterRatioTotal: {
      const double num = last_in_window(signal.metric);
      if (std::isnan(num)) return kNan;
      double den = 0.0;
      for (const std::string& d : signal.denominator) {
        const double v = last_in_window(d);
        if (std::isnan(v)) return kNan;
        den += v;
      }
      return den > 0.0 ? num / den : kNan;
    }
  }
  return kNan;
}

SloEngine::Evaluation SloEngine::step(std::size_t rule_index, double t,
                                      double short_value, double long_value) {
  DVFS_REQUIRE(rule_index < rules_.size(), "rule index out of range");
  const Rule& rule = rules_[rule_index];
  RuleState& st = states_[rule_index];

  Evaluation ev;
  ev.rule = rule_index;
  ev.t = t;
  ev.short_value = short_value;
  ev.long_value = long_value;
  ev.before = st.state;

  // Multi-window burn rate: the condition holds only when BOTH windows
  // breach. Missing data (NaN) never breaches — and never resolves
  // faster than the hysteresis below allows.
  bool breach = false;
  if (!std::isnan(short_value) && !std::isnan(long_value)) {
    breach = rule.op == Op::kGreater
                 ? short_value > rule.threshold && long_value > rule.threshold
                 : short_value < rule.threshold && long_value < rule.threshold;
  }

  if (breach) {
    if (!st.breaching) {
      st.breaching = true;
      st.breach_since = t;
    }
    st.last_breach_t = t;
    st.ever_breached = true;
    switch (st.state) {
      case AlertState::kOk:
      case AlertState::kResolved:
      case AlertState::kPending:
        st.state = t - st.breach_since >= rule.for_s ? AlertState::kFiring
                                                     : AlertState::kPending;
        break;
      case AlertState::kFiring:
        break;
    }
  } else {
    st.breaching = false;
    switch (st.state) {
      case AlertState::kOk:
        break;
      case AlertState::kPending:
        // Prometheus semantics: a pending alert drops straight back.
        st.state = AlertState::kOk;
        break;
      case AlertState::kFiring:
        // Keep-firing hysteresis: flapping input inside the window must
        // not flap the alert.
        if (rule.keep_firing_s <= 0.0 ||
            t - st.last_breach_t >= rule.keep_firing_s) {
          st.state = AlertState::kResolved;
        }
        break;
      case AlertState::kResolved:
        st.state = AlertState::kOk;
        break;
    }
  }
  st.short_value = short_value;
  st.long_value = long_value;
  ev.after = st.state;
  return ev;
}

std::vector<SloEngine::Evaluation> SloEngine::evaluate(
    const TimeSeriesStore& store, double t) {
  std::vector<Evaluation> out;
  out.reserve(rules_.size());
  for (std::size_t i = 0; i < rules_.size(); ++i) {
    const double short_v =
        signal_value(rules_[i].signal, store, t, rules_[i].short_window_s);
    const double long_v =
        signal_value(rules_[i].signal, store, t, rules_[i].long_window_s);
    out.push_back(step(i, t, short_v, long_v));
  }
  return out;
}

AlertState SloEngine::state(std::size_t rule_index) const {
  DVFS_REQUIRE(rule_index < states_.size(), "rule index out of range");
  return states_[rule_index].state;
}

std::size_t SloEngine::firing_count() const {
  std::size_t n = 0;
  for (const RuleState& st : states_) {
    if (st.state == AlertState::kFiring) ++n;
  }
  return n;
}

void SloEngine::publish(Registry& registry) const {
  for (std::size_t i = 0; i < rules_.size(); ++i) {
    double v = 0.0;
    if (states_[i].state == AlertState::kPending) v = 1.0;
    if (states_[i].state == AlertState::kFiring) v = 2.0;
    registry
        .gauge("alert.state" + prometheus_labels({{"alert", rules_[i].name}}))
        .set(v);
  }
  registry.gauge("health.firing")
      .set(static_cast<double>(firing_count()));
}

Json SloEngine::status_json(double t) const {
  Json::Array alerts;
  for (std::size_t i = 0; i < rules_.size(); ++i) {
    const Rule& r = rules_[i];
    const RuleState& st = states_[i];
    alerts.push_back(Json(Json::Object{
        {"name", Json(r.name)},
        {"severity", Json(r.severity)},
        {"state", Json(to_string(st.state))},
        {"op", Json(to_string(r.op))},
        {"threshold", Json(r.threshold)},
        {"short_window_s", Json(r.short_window_s)},
        {"long_window_s", Json(r.long_window_s)},
        {"short_value", number_or_null(st.short_value)},
        {"long_value", number_or_null(st.long_value)}}));
  }
  return Json(Json::Object{
      {"schema", Json("dvfs-healthz-v1")},
      {"healthy", Json(firing_count() == 0)},
      {"t", Json(t)},
      {"firing", Json(static_cast<std::uint64_t>(firing_count()))},
      {"alerts", Json(std::move(alerts))}});
}

// --------------------------------------------------------------- monitor

HealthMonitor::HealthMonitor(Registry& registry, std::vector<Rule> rules)
    : HealthMonitor(registry, std::move(rules), Options{}) {}

HealthMonitor::HealthMonitor(Registry& registry, std::vector<Rule> rules,
                             Options options)
    : registry_(registry),
      options_(options),
      engine_(std::move(rules)),
      store_(options.series_capacity) {
  DVFS_REQUIRE(options_.period_s > 0.0, "health period must be positive");
  engine_.prepare(store_);
}

HealthMonitor::~HealthMonitor() { stop(); }

void HealthMonitor::tick_locked(double t) {
  store_.sample(registry_, t);
  const std::vector<SloEngine::Evaluation> evals = engine_.evaluate(store_, t);
  if (channel_ != nullptr) {
    for (const SloEngine::Evaluation& ev : evals) {
      const std::uint64_t hash = rule_hash(engine_.rules()[ev.rule].name);
      channel_->record(
          {.type = static_cast<std::uint8_t>(dfr::EventType::kHealthSample),
           .aux = static_cast<std::uint16_t>(ev.rule),
           .time_s = t,
           .task = hash,
           .u0 = static_cast<std::uint64_t>(ev.after),
           .f0 = ev.short_value,
           .f1 = ev.long_value});
      if (ev.transition()) {
        channel_->record(
            {.type = static_cast<std::uint8_t>(dfr::EventType::kAlert),
             .flags = static_cast<std::uint8_t>(ev.before),
             .aux = static_cast<std::uint16_t>(ev.rule),
             .time_s = t,
             .task = hash,
             .u0 = static_cast<std::uint64_t>(ev.after),
             .f0 = ev.short_value,
             .f1 = ev.long_value});
      }
    }
  }
  engine_.publish(registry_);
  firing_.store(engine_.firing_count(), std::memory_order_relaxed);
  tick_count_.fetch_add(1, std::memory_order_relaxed);
}

void HealthMonitor::tick() {
  const std::scoped_lock lock(mu_);
  tick_locked(ns_to_s(now_ns()));
}

void HealthMonitor::start() {
  const std::scoped_lock lock(mu_);
  DVFS_REQUIRE(!thread_.joinable(), "health monitor already started");
  stopping_ = false;
  thread_ = std::thread([this] {
    std::unique_lock<std::mutex> lock(mu_);
    while (!stopping_) {
      if (cv_.wait_for(lock, std::chrono::duration<double>(options_.period_s),
                       [this] { return stopping_; })) {
        break;
      }
      tick_locked(ns_to_s(now_ns()));
    }
  });
}

void HealthMonitor::stop() {
  {
    const std::scoped_lock lock(mu_);
    if (stopping_ && !thread_.joinable()) return;  // already stopped
    stopping_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  // One final tick so the published gauges, the recorded events, and any
  // subsequent metrics snapshot reflect the end state of the run.
  const std::scoped_lock lock(mu_);
  tick_locked(ns_to_s(now_ns()));
}

void HealthMonitor::settle() {
  double max_for = 0.0;
  for (const Rule& r : engine_.rules()) max_for = std::max(max_for, r.for_s);
  const double deadline =
      ns_to_s(now_ns()) + max_for + 2.0 * options_.period_s;
  for (;;) {
    bool any_pending = false;
    {
      const std::scoped_lock lock(mu_);
      tick_locked(ns_to_s(now_ns()));
      for (std::size_t i = 0; i < engine_.rules().size(); ++i) {
        if (engine_.state(i) == AlertState::kPending) any_pending = true;
      }
    }
    if (!any_pending || ns_to_s(now_ns()) >= deadline) break;
    std::this_thread::sleep_for(
        std::chrono::duration<double>(options_.period_s));
  }
}

const std::vector<Rule>& HealthMonitor::rules() const {
  return engine_.rules();  // immutable after construction; no lock needed
}

std::vector<AlertState> HealthMonitor::states() const {
  const std::scoped_lock lock(mu_);
  std::vector<AlertState> out;
  for (std::size_t i = 0; i < engine_.rules().size(); ++i) {
    out.push_back(engine_.state(i));
  }
  return out;
}

Json HealthMonitor::status_json() const {
  const std::scoped_lock lock(mu_);
  return engine_.status_json(ns_to_s(now_ns()));
}

}  // namespace dvfs::obs::health
