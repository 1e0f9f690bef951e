/// \file online_lmc.h
/// \brief Least Marginal Cost: online task placement (Section IV).
///
/// LMC assigns each arriving task to the core whose total cost grows the
/// least, without migrating anything already queued:
///
///  * Interactive tasks run immediately at the core's maximum frequency,
///    preempting lower-priority work. The marginal cost of core j is
///    Eq. 27:  C_j^M = Re*L*E_j(pm) + Rt*L*T_j(pm) + Rt*L*T_j(pm)*N_j,
///    i.e. the task's own energy and time cost plus the delay it inflicts
///    on the N_j tasks waiting on that core. On homogeneous cores this
///    degenerates to "pick the least-loaded queue", as the paper notes.
///
///  * Non-interactive tasks are inserted into a per-core queue kept in the
///    Theorem 3 order; the insertion position follows from the sorted
///    order, and the marginal cost is the exact cost delta of the queue,
///    obtained in O(|P-hat| + log N) from the Algorithm 4-6 structure.
///    Queued tasks' rates re-adjust automatically because a rate is a
///    function of queue position (Lemma 1).
///
/// This class is the pure decision engine; the event-driven simulator (or
/// a real dispatcher) owns actual execution, preemption and resumption.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <vector>

#include "dvfs/core/cost_model.h"
#include "dvfs/core/dynamic_sched.h"
#include "dvfs/core/task.h"

namespace dvfs::core {

class LmcScheduler {
 public:
  /// `tables[j]` is core j's cost table; heterogeneous platforms pass
  /// different energy models per core.
  explicit LmcScheduler(std::vector<CostTable> tables);

  [[nodiscard]] std::size_t num_cores() const { return queues_.size(); }

  /// Outcome of a non-interactive placement.
  struct Placement {
    std::size_t core = 0;
    DynamicSingleCoreScheduler::TaskRef ref = nullptr;
    Money marginal = 0.0;
    /// The task's backward position right after placement, so its rate
    /// is queue(core).table().best_rate(rank) without a rank climb.
    std::size_t rank = 0;
  };

  /// Places a non-interactive task on the least-marginal-cost core and
  /// returns where it went. O(R * (|P-hat| + log N)). `extra_cost[j]`
  /// (optional) is added to core j's probed marginal before the argmin:
  /// an executor charges work the queues cannot see with it, e.g. Rt
  /// times the remaining seconds of the task running on core j. When
  /// `probed_marginals` is non-null it receives every core's probed
  /// marginal (extra_cost included) — the decision's candidate vector.
  Placement place_non_interactive(
      Cycles cycles, TaskId id, std::span<const Money> extra_cost = {},
      std::vector<Money>* probed_marginals = nullptr);

  /// Chooses the core for an interactive task per Eq. 27. `extra_waiting`
  /// optionally adds per-core waiting work the queues do not know about
  /// (e.g. interactive tasks already pending in the executor); pass empty
  /// to count only queued non-interactive tasks.
  [[nodiscard]] std::size_t choose_interactive_core(
      Cycles cycles, std::span<const std::size_t> extra_waiting = {}) const;

  /// Eq. 27 for one core (exposed for tests and introspection).
  [[nodiscard]] Money interactive_marginal_cost(std::size_t core,
                                                Cycles cycles,
                                                std::size_t waiting) const;

  /// The structure-of-arrays Eq. 27 scan choose_interactive_core() runs:
  /// fills `out[j]` with every core's marginal cost (computed branch-free
  /// over the precomputed coefficient arrays) and returns the argmin
  /// (lowest index on ties). Exposed so the `lmc_soa` differential oracle
  /// can compare the vectorized scan against the scalar
  /// interactive_marginal_cost() term by term.
  std::size_t interactive_scan(Cycles cycles,
                               std::span<const std::size_t> extra_waiting,
                               std::vector<Money>& out) const;

  /// Next non-interactive task for core j under the Theorem 3 order
  /// (fewest cycles first) with its position-optimal rate; removes it from
  /// the queue. Returns nullopt if the queue is empty.
  struct Dispatched {
    TaskId id = 0;
    Cycles cycles = 0;
    std::size_t rate_idx = 0;
  };
  std::optional<Dispatched> pop_next(std::size_t core);

  /// Removes a specific queued task (e.g. cancelled by the user).
  void erase(std::size_t core, DynamicSingleCoreScheduler::TaskRef ref);

  [[nodiscard]] DynamicSingleCoreScheduler& queue(std::size_t core) {
    DVFS_REQUIRE(core < queues_.size(), "core index out of range");
    return queues_[core];
  }
  [[nodiscard]] const DynamicSingleCoreScheduler& queue(
      std::size_t core) const {
    DVFS_REQUIRE(core < queues_.size(), "core index out of range");
    return queues_[core];
  }

  /// Sum of the per-core queue costs (Theta(R)).
  [[nodiscard]] Money total_queue_cost() const;

 private:
  std::vector<DynamicSingleCoreScheduler> queues_;
  // Structure-of-arrays Eq. 27 inputs, one entry per core: Re, Rt and the
  // max-rate energy/time per cycle. Filled once at construction; the
  // interactive scan then reads four contiguous double arrays instead of
  // chasing CostTable -> EnergyModel -> rates per candidate core. The
  // arithmetic keeps the exact association of interactive_marginal_cost()
  // so scan and scalar agree bit for bit.
  std::vector<double> re_;
  std::vector<double> rt_;
  std::vector<double> epc_max_;
  std::vector<double> tpc_max_;
  // Reusable candidate buffers: the per-arrival hot path allocates
  // nothing after the first call.
  mutable std::vector<Money> scan_;
  mutable std::vector<double> waiting_;
  std::vector<const DynamicSingleCoreScheduler::Tree*> trees_;
  std::vector<DynamicSingleCoreScheduler::Tree::InsertionPoint> points_;
};

}  // namespace dvfs::core
