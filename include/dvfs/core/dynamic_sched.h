/// \file dynamic_sched.h
/// \brief Single-core dynamic scheduling with O(|P-hat| + log N) updates and
///        Theta(1) total-cost queries (Section IV-A, Algorithms 4-6).
///
/// The structure keeps the pending tasks of one core in the Theorem 3
/// order (backward position 1 = heaviest = runs last) inside a range tree,
/// and per dominating position range i it maintains
///
///   a_i      first position of the range (static, from Algorithm 1),
///   b_i      last currently-occupied position in the range,
///   x_i      xi([a_i, b_i])   -- cycle mass inside the range,
///   d_i      Delta([a_i, b_i]) -- position-weighted cycle mass,
///   alpha_i / beta_i           -- handles of the boundary elements.
///
/// An insert/delete shifts at most one element across each range boundary,
/// so the boundary bookkeeping costs O(|P-hat|) plus one O(log N) tree
/// update, and the running total cost
///
///   C = sum_i [ Re*E(p_i)*x_i + Rt*T(p_i)*(d_i + (a_i - 1) * x_i) ]
///
/// (Eq. 32) is refreshed in O(|P-hat|) and read back in Theta(1).
/// This is what makes Least Marginal Cost cheap: a marginal cost is just
/// the cost delta of a probe insertion.
#pragma once

#include <cstddef>
#include <vector>

#include "dvfs/core/cost_model.h"
#include "dvfs/core/schedule.h"
#include "dvfs/core/task.h"
#include "dvfs/ds/flat_range_tree.h"

namespace dvfs::core {

class DynamicSingleCoreScheduler {
 public:
  /// Cache-conscious order-statistic tree; the pointer-chasing treap in
  /// tests/range_tree.h is its differential-test oracle.
  using Tree = ds::FlatRangeTree;
  /// Stable reference to a queued task; valid until erase()/pop_front().
  using TaskRef = Tree::Handle;

  explicit DynamicSingleCoreScheduler(CostTable table);

  [[nodiscard]] const CostTable& table() const { return table_; }
  [[nodiscard]] std::size_t size() const { return tree_.size(); }
  [[nodiscard]] bool empty() const { return tree_.empty(); }

  /// Queues a task (Algorithm 5). O(|P-hat| + log N).
  TaskRef insert(Cycles cycles, TaskId id);

  /// insert() at `at`, this queue's tree's insertion point for `cycles`:
  /// skips the descent and takes the task's backward position from
  /// `at.rank`. Throws PreconditionError if the queue changed since.
  TaskRef insert(Cycles cycles, TaskId id, const Tree::InsertionPoint& at);

  /// Removes a queued task (Algorithm 6). O(|P-hat| + log N).
  void erase(TaskRef ref);

  /// The task that runs first under the Theorem 3 order (fewest cycles);
  /// its processing rate is best_rate(size()) -- it has size()-1 tasks
  /// queued behind it plus itself.
  [[nodiscard]] TaskRef front() const {
    DVFS_REQUIRE(!tree_.empty(), "queue is empty");
    return tree_.last();
  }

  /// Cost delta of hypothetically queueing `cycles`; implemented as an
  /// insert/erase probe, so it is exact. O(|P-hat| + log N).
  [[nodiscard]] Money marginal_insert_cost(Cycles cycles);

  /// Same quantity computed analytically without touching the structure:
  /// the new element's own positional cost plus the shift cost of every
  /// element behind it (within-range shifts pay one extra Rt*T(p) per
  /// cycle; the boundary element of each full range crosses into the next
  /// range's rate). O(|P-hat| + log N), const, allocation-free.
  [[nodiscard]] Money peek_marginal_insert_cost(Cycles cycles) const;

  /// The same from `at`, this queue's tree's insertion point for
  /// `cycles` (e.g. one of FlatRangeTree::insertion_points()), so the
  /// peek itself does not descend. Bit-identical to the form above.
  [[nodiscard]] Money peek_marginal_insert_cost(
      Cycles cycles, const Tree::InsertionPoint& at) const;

  /// The queue's tree, for descending several queues together.
  [[nodiscard]] const Tree& tree() const { return tree_; }

  /// Running total cost C of the queued tasks (Eq. 32). Theta(1).
  [[nodiscard]] Money total_cost() const { return cost_; }

  [[nodiscard]] static Cycles cycles_of(TaskRef ref) {
    return static_cast<Cycles>(Tree::weight(ref));
  }
  [[nodiscard]] static TaskId id_of(TaskRef ref) {
    return Tree::payload(ref);
  }

  /// Backward position (1 = heaviest/last-to-run) of a queued task.
  [[nodiscard]] std::size_t backward_position(TaskRef ref) const {
    return tree_.rank(ref);
  }

  /// Rate index the queued task would run at if the queue drained now.
  [[nodiscard]] std::size_t rate_of(TaskRef ref) const {
    return table_.best_rate(tree_.rank(ref));
  }

  /// Materializes the queue as a forward single-core plan (shortest first)
  /// with per-position optimal rates. O(N).
  [[nodiscard]] CorePlan plan() const;

  /// Recomputes C from scratch by walking the tree. O(N) reference used by
  /// tests and the A2 bench.
  [[nodiscard]] Money recompute_cost() const;

  /// Verifies every invariant (b_i/x_i/d_i/alpha_i/beta_i against the tree
  /// and the cached cost). Test support; O(N + |P-hat| log N).
  [[nodiscard]] bool validate() const;

 private:
  struct RangeState {
    std::size_t rate_idx = 0;      // index into the energy model's rates
    std::size_t lo = 1;            // a_i (static)
    std::size_t hi = 0;            // static upper bound; kUnbounded for last
    std::size_t b = 0;             // last occupied position; lo-1 if empty
    double x = 0.0;                // xi([lo, b])
    double d = 0.0;                // Delta([lo, b])
    TaskRef alpha = nullptr;       // element at position lo
    TaskRef beta = nullptr;        // element at position b
  };

  [[nodiscard]] std::size_t range_index_of(std::size_t position) const;
  void refresh_cost();

  CostTable table_;
  Tree tree_;
  std::vector<RangeState> ranges_;
  // Structure-of-arrays per-range Eq. 32 coefficients, parallel to
  // `ranges_`: e_coef_[i] = Re*E(p_i), t_coef_[i] = Rt*T(p_i). Hoisting
  // the products out of the model lets refresh_cost() and the peek walk
  // run branch-free over two contiguous double arrays instead of calling
  // bounds-checked model accessors per range.
  std::vector<double> e_coef_;
  std::vector<double> t_coef_;
  Money cost_ = 0.0;
};

}  // namespace dvfs::core
