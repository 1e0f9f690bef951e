/// \file fifo_policy.h
/// \brief The paper's baseline schedulers as one configurable policy.
///
/// Every baseline in the evaluation is "a placement rule + a frequency
/// rule + priority FIFO queues":
///
///   * Opportunistic Load Balancing (OLB, Fig. 2 & 3): place each task on
///     the core with the earliest ready-to-execute time; frequency at the
///     maximum (online mode) or governed by ondemand (batch mode).
///   * On-demand (OD, Fig. 3): round-robin placement; Linux ondemand
///     frequency rule — sample each core's load every second, jump to the
///     highest frequency when load exceeds 85%, otherwise step down one
///     level.
///   * Power Saving (PS, Fig. 2): like the batch OLB baseline but with the
///     usable frequencies clamped to the lower half of the rate set.
///
/// Interactive tasks outrank non-interactive ones through the shared
/// PreemptionLane: they preempt a running non-interactive task and FIFO
/// among themselves; preempted work resumes once no higher-priority work
/// remains. Every start, the lane's included, runs at the frequency rule's
/// rate. The ondemand and conservative rules are cpufreq::governor_step.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "dvfs/governors/preemption_lane.h"
#include "dvfs/sim/engine.h"

namespace dvfs::governors {

class FifoPolicy final : public sim::Policy {
 public:
  enum class Placement : std::uint8_t {
    kEarliestReady,  ///< OLB: least pending work (cycles at the cap rate)
    kRoundRobin,     ///< OD: arrival i -> core i mod R
  };
  enum class FreqMode : std::uint8_t {
    kMax,           ///< always the cap rate
    kOndemand,      ///< Linux ondemand rule: jump to cap, step down
    kConservative,  ///< Linux conservative rule: step up AND down gradually
  };

  struct Config {
    Placement placement = Placement::kEarliestReady;
    FreqMode freq = FreqMode::kMax;
    /// Highest usable rate index; SIZE_MAX means the model's top rate.
    /// Power Saving passes the index of the last lower-half rate.
    std::size_t rate_cap = static_cast<std::size_t>(-1);
    /// Governor parameters (Section V-A3): sample period and the load
    /// threshold above which the frequency rises. Conservative also steps
    /// down below `conservative_down`.
    Seconds sample_interval = 1.0;
    double load_threshold = 0.85;
    double conservative_down = 0.20;
  };

  explicit FifoPolicy(Config config) : config_(config) {}

  void attach(sim::Engine& engine) override;
  void on_arrival(sim::Engine& engine, const core::Task& task) override;
  void on_complete(sim::Engine& engine, std::size_t core,
                   core::TaskId task) override;
  void on_timer(sim::Engine& engine) override;
  [[nodiscard]] Seconds timer_interval() const override {
    return config_.freq == FreqMode::kMax ? 0.0 : config_.sample_interval;
  }
  [[nodiscard]] bool idle() const override;

  /// Rate the governor currently holds for a core (for tests).
  [[nodiscard]] std::size_t governor_level(std::size_t core) const {
    DVFS_REQUIRE(core < per_core_.size(), "core index out of range");
    return per_core_[core].level;
  }

 private:
  struct Queued {
    core::TaskId id = 0;
    double remaining_cycles = 0.0;
  };
  struct CoreQueues {
    std::deque<Queued> non_interactive;
    double backlog_cycles = 0.0;    // pending + running work
    std::size_t level = 0;          // ondemand's current rate index
    Seconds busy_sample = 0.0;      // cumulative busy at last tick
  };

  /// Places `task` and records the decision with every core's drain
  /// time as its candidates.
  [[nodiscard]] std::size_t choose_core(sim::Engine& engine,
                                        const core::Task& task);
  [[nodiscard]] std::size_t start_rate(std::size_t core) const;
  void start_next(sim::Engine& engine, std::size_t core);

  Config config_;
  std::vector<CoreQueues> per_core_;
  PreemptionLane lane_;
  std::size_t cap_ = 0;        // resolved rate cap
  std::size_t rr_next_ = 0;    // round-robin cursor
  std::vector<double> drain_;  // per-arrival scratch: drain time per core
};

}  // namespace dvfs::governors
