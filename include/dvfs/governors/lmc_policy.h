/// \file lmc_policy.h
/// \brief Least Marginal Cost as an executable simulation policy
///        (Section IV wired to the event engine).
///
/// The pure decision engine lives in core::LmcScheduler; this policy adds
/// the execution-side behaviour the paper describes:
///
///  * interactive arrivals go through the core's PreemptionLane: they run
///    immediately at the maximum frequency, preempting a running
///    non-interactive task, or wait FIFO behind interactive work; the
///    remainder resumes at its queue position's rate once no interactive
///    work remains, before the queue's head;
///  * non-interactive arrivals enter the core's Theorem-3-ordered queue;
///    the queue's head runs with the rate of its queue position, and the
///    *running* non-interactive task is re-rated whenever its core's queue
///    length changes (a rate is a function of position, Lemma 1).
#pragma once

#include <functional>
#include <vector>

#include "dvfs/core/online_lmc.h"
#include "dvfs/governors/preemption_lane.h"
#include "dvfs/sim/engine.h"

namespace dvfs::governors {

class LmcPolicy final : public sim::Policy {
 public:
  /// Predicts a task's cycle requirement at arrival time. The paper
  /// obtains L_k "by profiling" or from "the average of the previous
  /// completed submissions" — i.e. the scheduler sees an *estimate* while
  /// the machine executes the real work. The default estimator is the
  /// oracle (exact cycles).
  using Estimator = std::function<Cycles(const core::Task&)>;

  /// `tables[j]` must be built on the same energy model as engine core j.
  explicit LmcPolicy(std::vector<core::CostTable> tables);

  /// LMC scheduling on estimated cycles: placement, queue order and rate
  /// choices use `estimator(task)`; execution charges the task's actual
  /// cycles. `on_completion` (optional) observes (task, actual cycles)
  /// when a non-interactive task finishes — the hook a
  /// HistoricalAverageEstimator updates itself from.
  LmcPolicy(std::vector<core::CostTable> tables, Estimator estimator,
            std::function<void(core::TaskId, Cycles)> on_completion = {});

  void attach(sim::Engine& engine) override;
  void on_arrival(sim::Engine& engine, const core::Task& task) override;
  void on_complete(sim::Engine& engine, std::size_t core,
                   core::TaskId task) override;
  [[nodiscard]] bool idle() const override;

  [[nodiscard]] const core::LmcScheduler& scheduler() const { return lmc_; }

 private:
  /// Rate for the task that heads a queue of `queued` waiting tasks: it
  /// occupies backward position queued + 1 (itself plus those behind it).
  [[nodiscard]] std::size_t running_rate(std::size_t core) const;

  void start_next(sim::Engine& engine, std::size_t core);

  core::LmcScheduler lmc_;
  PreemptionLane lane_;
  Estimator estimator_;
  std::function<void(core::TaskId, Cycles)> on_completion_;
  // Per-arrival scratch, reused so the placement hot path stops
  // allocating: Eq. 27 extra-waiting counts, busy-core Rt offsets, and the
  // per-core candidate costs handed to Engine::decide.
  std::vector<std::size_t> extra_scratch_;
  std::vector<Money> offsets_scratch_;
  std::vector<Money> candidates_scratch_;
};

}  // namespace dvfs::governors
