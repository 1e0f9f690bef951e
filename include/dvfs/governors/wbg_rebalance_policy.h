/// \file wbg_rebalance_policy.h
/// \brief The migrating alternative the paper argues against (Section IV).
///
/// "Note that the Workload Based Greedy algorithm can be used to
/// redistribute all tasks to cores when a new task arrives. According to
/// Theorem 5, rearranging the tasks yields the minimum cost. However,
/// because the overhead incurred by the time and energy used to migrate
/// tasks could impact the performance, we need a lightweight strategy
/// without task migration." — this policy *is* that heavyweight strategy,
/// built so the trade-off is measurable instead of asserted:
///
///  * every non-interactive arrival triggers a full WBG replan over all
///    queued (not yet running) non-interactive tasks, migrating them
///    freely between cores;
///  * each migration charges `migration_penalty_cycles` extra work to the
///    moved task (cold caches, queue bookkeeping); zero models free
///    migration — the theoretical lower bound — and realistic penalties
///    show where LMC's no-migration design wins;
///  * interactive tasks are handled exactly like LmcPolicy, isolating the
///    comparison to the non-interactive path: Eq. 27 core choice, then the
///    same PreemptionLane (maximum frequency, preemption, the remainder
///    resuming at its queue position's rate). The one difference is
///    arithmetic: interactive_cost() sums Eq. 27 as Rt·L·T·(1+N), where
///    core::LmcScheduler sums Rt·L·T + Rt·L·T·N, so the two may round a
///    candidate cost differently.
///
/// The A8 bench (`bench_migration`) runs this against LmcPolicy.
#pragma once

#include <deque>
#include <unordered_map>
#include <vector>

#include "dvfs/core/batch_multi.h"
#include "dvfs/core/cost_model.h"
#include "dvfs/governors/preemption_lane.h"
#include "dvfs/sim/engine.h"

namespace dvfs::governors {

class WbgRebalancePolicy final : public sim::Policy {
 public:
  WbgRebalancePolicy(std::vector<core::CostTable> tables,
                     Cycles migration_penalty_cycles = 0);

  void attach(sim::Engine& engine) override;
  void on_arrival(sim::Engine& engine, const core::Task& task) override;
  void on_complete(sim::Engine& engine, std::size_t core,
                   core::TaskId task) override;
  [[nodiscard]] bool idle() const override;

  /// Total number of queued-task migrations performed so far.
  [[nodiscard]] std::size_t migrations() const { return migrations_; }
  /// Number of full WBG replans performed so far.
  [[nodiscard]] std::size_t replans() const { return replans_; }

 private:
  struct QueuedTask {
    Cycles cycles = 0;        // includes accumulated migration penalties
    std::size_t home = 0;     // current core assignment
  };

  void replan(sim::Engine& engine, const std::vector<core::Task>& extra);
  void start_next(sim::Engine& engine, std::size_t core);
  /// Eq. 27-style marginal cost of running an interactive task on core j.
  [[nodiscard]] Money interactive_cost(std::size_t core, Cycles cycles) const;

  std::vector<core::CostTable> tables_;
  Cycles penalty_;
  // Per core: its queued tasks in forward order, with their rates.
  std::vector<std::deque<core::ScheduledTask>> plans_;
  PreemptionLane lane_;
  std::unordered_map<core::TaskId, QueuedTask> queued_;
  std::size_t migrations_ = 0;
  std::size_t replans_ = 0;
  std::vector<Money> costs_;  // per-arrival scratch: interactive_cost per core
};

}  // namespace dvfs::governors
