#include "dvfs/governors/fifo_policy.h"

#include <algorithm>
#include <limits>

#include "dvfs/cpufreq/cpufreq.h"
#include "dvfs/obs/metrics.h"

namespace dvfs::governors {

namespace {
struct FifoStats {
  obs::Counter& dispatches =
      obs::Registry::global().counter("governor.fifo.dispatches");
  obs::Counter& governor_samples =
      obs::Registry::global().counter("governor.fifo.governor_samples");
};
FifoStats& fifo_stats() {
  static FifoStats s;
  return s;
}
}  // namespace

void FifoPolicy::attach(sim::Engine& engine) {
  per_core_.assign(engine.num_cores(), CoreQueues{});
  lane_.reset(engine.num_cores());
  rr_next_ = 0;
  // Resolve the cap against each core's model; heterogeneous cores may
  // have different rate counts, so clamp per core at use. The stored cap
  // is validated against the smallest model.
  std::size_t min_rates = std::numeric_limits<std::size_t>::max();
  for (std::size_t j = 0; j < engine.num_cores(); ++j) {
    min_rates = std::min(min_rates, engine.model(j).num_rates());
  }
  cap_ = (config_.rate_cap == static_cast<std::size_t>(-1))
             ? min_rates - 1
             : config_.rate_cap;
  DVFS_REQUIRE(cap_ < min_rates, "rate cap exceeds a core's rate count");
  // Ondemand on an idle machine has decayed to the lowest frequency; the
  // governor ramps up only after the first above-threshold sample.
  for (CoreQueues& q : per_core_) q.level = 0;
  DVFS_REQUIRE(config_.load_threshold > 0.0 && config_.load_threshold <= 1.0,
               "load threshold must be in (0, 1]");
  DVFS_REQUIRE(config_.conservative_down >= 0.0 &&
                   config_.conservative_down < config_.load_threshold,
               "conservative band must satisfy 0 <= down < up threshold");
  DVFS_REQUIRE(config_.sample_interval > 0.0,
               "sample interval must be positive");
  engine.record_params(obs::dfr::PolicyKind::kFifo);
}

std::size_t FifoPolicy::choose_core(sim::Engine& engine,
                                    const core::Task& task) {
  // Every core's drain time: pending work divided by its cap-rate speed
  // (OLB keeps frequencies maximal, so this is the true ready-to-execute
  // time on a homogeneous platform and a faithful proxy otherwise).
  drain_.resize(per_core_.size());
  for (std::size_t j = 0; j < per_core_.size(); ++j) {
    drain_[j] =
        per_core_[j].backlog_cycles * engine.model(j).time_per_cycle(cap_);
  }
  std::size_t core = 0;
  if (config_.placement == Placement::kRoundRobin) {
    // Round robin ignores the drain times; the engine still prices the
    // choice against the least-loaded core (the cost-margin gauge).
    core = rr_next_;
    rr_next_ = (rr_next_ + 1) % per_core_.size();
  } else {
    core = sim::argmin(drain_);  // earliest ready-to-execute time
  }
  engine.decide(obs::dfr::DecisionScope::kFifo, task.id, core, task.cycles,
                drain_);
  return core;
}

std::size_t FifoPolicy::start_rate(std::size_t core) const {
  return config_.freq == FreqMode::kMax ? cap_ : per_core_[core].level;
}

void FifoPolicy::start_next(sim::Engine& engine, std::size_t core) {
  CoreQueues& q = per_core_[core];
  if (engine.busy(core)) return;
  const std::size_t rate = start_rate(core);
  if (lane_.start_next(engine, core, rate, [rate] { return rate; })) {
    fifo_stats().dispatches.inc();
  } else if (!q.non_interactive.empty()) {
    const Queued next = q.non_interactive.front();
    q.non_interactive.pop_front();
    fifo_stats().dispatches.inc();
    engine.start(core, next.id, next.remaining_cycles, rate);
  }
}

void FifoPolicy::on_arrival(sim::Engine& engine, const core::Task& task) {
  const std::size_t core = choose_core(engine, task);
  CoreQueues& q = per_core_[core];
  q.backlog_cycles += static_cast<double>(task.cycles);

  const Queued entry{task.id, static_cast<double>(task.cycles)};
  if (task.priority() > 0) {
    if (lane_.admit(engine, core, task.id, entry.remaining_cycles,
                    start_rate(core))) {
      fifo_stats().dispatches.inc();
    }
    return;
  }
  if (engine.busy(core)) {
    q.non_interactive.push_back(entry);
  } else {
    fifo_stats().dispatches.inc();
    engine.start(core, task.id, entry.remaining_cycles, start_rate(core));
  }
}

void FifoPolicy::on_complete(sim::Engine& engine, std::size_t core,
                             core::TaskId task) {
  CoreQueues& q = per_core_[core];
  q.backlog_cycles -= static_cast<double>(engine.record(task).cycles);
  if (q.backlog_cycles < 0.0) q.backlog_cycles = 0.0;  // float dust
  start_next(engine, core);
}

void FifoPolicy::on_timer(sim::Engine& engine) {
  // Sample each core's loading over the last period and take one governor
  // step below the cap. kMax arms no timer, so only ondemand and
  // conservative get here.
  fifo_stats().governor_samples.add(per_core_.size());
  const cpufreq::GovernorKind kind =
      config_.freq == FreqMode::kConservative
          ? cpufreq::GovernorKind::kConservative
          : cpufreq::GovernorKind::kOndemand;
  for (std::size_t j = 0; j < per_core_.size(); ++j) {
    CoreQueues& q = per_core_[j];
    const Seconds busy_now = engine.cumulative_busy_seconds(j);
    const double load = (busy_now - q.busy_sample) / config_.sample_interval;
    q.busy_sample = busy_now;
    q.level = cpufreq::governor_step(kind, load, q.level, cap_,
                                     config_.load_threshold,
                                     config_.conservative_down);
    if (engine.busy(j)) {
      engine.set_rate(j, q.level);
    }
  }
}

bool FifoPolicy::idle() const {
  if (!lane_.idle()) return false;
  for (const CoreQueues& q : per_core_) {
    if (!q.non_interactive.empty()) return false;
  }
  return true;
}

}  // namespace dvfs::governors
