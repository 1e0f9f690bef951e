#include "dvfs/core/dynamic_sched.h"

#include <algorithm>

namespace dvfs::core {

DynamicSingleCoreScheduler::DynamicSingleCoreScheduler(CostTable table)
    : table_(std::move(table)) {
  // Algorithm 4: materialize the dominating position ranges as mutable
  // occupancy state.
  const EnergyModel& m = table_.model();
  const CostParams& cp = table_.params();
  for (const DominatingRange& r : table_.ranges()) {
    RangeState st;
    st.rate_idx = r.rate_idx;
    st.lo = r.range.lo;
    st.hi = r.range.hi;  // kUnbounded for the final range
    st.b = st.lo - 1;    // empty
    ranges_.push_back(st);
    e_coef_.push_back(cp.re * m.energy_per_cycle(r.rate_idx));
    t_coef_.push_back(cp.rt * m.time_per_cycle(r.rate_idx));
  }
}

std::size_t DynamicSingleCoreScheduler::range_index_of(
    std::size_t position) const {
  DVFS_REQUIRE(position >= 1, "positions are 1-based");
  auto it = std::partition_point(
      ranges_.begin(), ranges_.end(), [&](const RangeState& r) {
        return r.hi != ds::IntegerRange::kUnbounded && r.hi < position;
      });
  DVFS_REQUIRE(it != ranges_.end(), "ranges cover [1, inf)");
  return static_cast<std::size_t>(it - ranges_.begin());
}

void DynamicSingleCoreScheduler::refresh_cost() {
  // Eq. 32: C = sum over ranges of Re*E(p)*xi + Rt*T(p)*gamma, with
  // gamma([a,b]) = Delta([a,b]) + (a-1)*xi([a,b]) (Eq. 30). Empty ranges
  // carry x == d == 0, so the sum runs unconditionally over the SoA
  // coefficient arrays and vectorizes.
  Money c = 0.0;
  for (std::size_t i = 0; i < ranges_.size(); ++i) {
    const RangeState& r = ranges_[i];
    c += e_coef_[i] * r.x +
         t_coef_[i] * (r.d + static_cast<double>(r.lo - 1) * r.x);
  }
  cost_ = c;
}

DynamicSingleCoreScheduler::TaskRef DynamicSingleCoreScheduler::insert(
    Cycles cycles, TaskId id) {
  return insert(cycles, id, tree_.insertion_point(static_cast<double>(cycles)));
}

DynamicSingleCoreScheduler::TaskRef DynamicSingleCoreScheduler::insert(
    Cycles cycles, TaskId id, const Tree::InsertionPoint& at) {
  DVFS_REQUIRE(cycles > 0, "tasks need a positive cycle count");
  const double w = static_cast<double>(cycles);
  const TaskRef node = tree_.insert_at(w, id, at);
  const std::size_t k = at.rank;  // the new element's backward position
  std::size_t i = range_index_of(k);
  RangeState* r = &ranges_[i];

  // Algorithm 5 lines 4-8: absorb the new element into its range; every
  // element previously at position >= k slides one position back.
  if (k == r->lo) r->alpha = node;
  if (k > r->b) r->beta = node;
  r->b += 1;
  r->x += w;
  r->d += static_cast<double>(k - r->lo + 1) * w +
          tree_.range_sum(k + 1, std::min(r->b, tree_.size()));

  // Algorithm 5 lines 9-21: ripple the overflow across range boundaries.
  // Each full range spills its (shifted) last element into the next range's
  // front; at most one element crosses each boundary.
  while (r->hi != ds::IntegerRange::kUnbounded && r->b > r->hi) {
    const TaskRef spill = r->beta;
    const double sw = Tree::weight(spill);
    r->d -= static_cast<double>(r->b - r->lo + 1) * sw;
    r->x -= sw;
    r->b -= 1;
    r->beta = tree_.predecessor(spill);

    ++i;
    r = &ranges_[i];
    r->alpha = spill;
    if (r->lo > r->b) r->beta = spill;  // the next range was empty
    r->b += 1;
    r->x += sw;
    r->d += r->x;  // front insertion: old elements shift +1, spill at pos 1
  }

  refresh_cost();
  return node;
}

void DynamicSingleCoreScheduler::erase(TaskRef ref) {
  DVFS_REQUIRE(ref != nullptr, "null task reference");
  const std::size_t k = tree_.rank(ref);
  const double w = Tree::weight(ref);

  // Algorithm 6 lines 2-19: walk down from the last occupied range; every
  // range whose positions all exceed k sends its front element back to the
  // previous range's tail (the global -1 shift of positions > k).
  std::size_t i = range_index_of(tree_.size());
  while (ranges_[i].lo > k) {
    RangeState& upper = ranges_[i];
    const TaskRef moved = upper.alpha;
    const double mw = Tree::weight(moved);
    upper.d -= upper.x;
    upper.x -= mw;
    upper.b -= 1;
    if (upper.lo <= upper.b) {
      upper.alpha = tree_.successor(moved);
    } else {
      upper.alpha = nullptr;
      upper.beta = nullptr;
    }

    RangeState& lower = ranges_[i - 1];
    lower.beta = moved;
    lower.b += 1;
    lower.x += mw;
    lower.d += static_cast<double>(lower.b - lower.lo + 1) * mw;
    --i;
  }

  // Containing range: remove the element itself; elements behind it within
  // the (possibly temporarily overfull) range shift forward by one.
  RangeState& r = ranges_[i];
  r.d -= static_cast<double>(k - r.lo + 1) * w +
         tree_.range_sum(k + 1, std::min(r.b, tree_.size()));
  r.x -= w;
  r.b -= 1;
  if (r.lo > r.b) {
    r.alpha = nullptr;
    r.beta = nullptr;
  } else if (r.alpha == ref) {
    r.alpha = tree_.successor(ref);
  } else if (r.beta == ref) {
    r.beta = tree_.predecessor(ref);
  }

  tree_.erase(ref);
  refresh_cost();
}

Money DynamicSingleCoreScheduler::peek_marginal_insert_cost(
    Cycles cycles) const {
  // One descent yields the rank and the mass ahead of it, so the
  // in-range shift below needs only the prefix up to b.
  return peek_marginal_insert_cost(
      cycles, tree_.insertion_point(static_cast<double>(cycles)));
}

Money DynamicSingleCoreScheduler::peek_marginal_insert_cost(
    Cycles cycles, const Tree::InsertionPoint& at) const {
  DVFS_REQUIRE(cycles > 0, "tasks need a positive cycle count");
  DVFS_REQUIRE(at.version == tree_.version(),
               "insertion point is stale: the queue changed since");
  const double w = static_cast<double>(cycles);
  const std::size_t n = tree_.size();
  const std::size_t k = at.rank;
  const std::size_t i = range_index_of(k);

  // The newcomer itself at backward position k.
  Money delta =
      (e_coef_[i] + static_cast<double>(k) * t_coef_[i]) * w;

  // Every element currently at position >= k slides back one slot. Those
  // staying inside range r pay one extra Rt*T(p_r) per cycle; the last
  // element of each *full* range r crosses into range r+1 and re-prices
  // to that range's rate.
  for (std::size_t r = i; r < ranges_.size(); ++r) {
    const RangeState& st = ranges_[r];
    if (st.b < st.lo) break;  // nothing occupied at or beyond this range
    const bool spills =
        st.hi != ds::IntegerRange::kUnbounded && st.b == st.hi;
    double shifted_mass;
    if (r == i) {
      shifted_mass =
          (k <= st.b && k <= n) ? tree_.prefix_sum(st.b) - at.prefix_sum : 0.0;
    } else {
      shifted_mass = st.x;
    }
    if (spills) {
      const double bw = Tree::weight(st.beta);
      shifted_mass -= bw;
      delta += (e_coef_[r + 1] - e_coef_[r] +
                static_cast<double>(st.hi + 1) * t_coef_[r + 1] -
                static_cast<double>(st.hi) * t_coef_[r]) *
               bw;
    }
    delta += t_coef_[r] * shifted_mass;
    if (!spills) break;  // the shift wave stops at the first non-full range
  }
  return delta;
}

Money DynamicSingleCoreScheduler::marginal_insert_cost(Cycles cycles) {
  const Money before = cost_;
  const TaskRef probe = insert(cycles, static_cast<TaskId>(-1));
  const Money after = cost_;
  erase(probe);
  DVFS_REQUIRE(almost_equal(cost_, before, 1e-9, 1e-9),
               "probe insert/erase must round-trip the cost");
  return after - before;
}

CorePlan DynamicSingleCoreScheduler::plan() const {
  CorePlan plan;
  plan.sequence.reserve(tree_.size());
  std::size_t backward = tree_.size();
  // Forward order = lightest first = tail to head.
  for (TaskRef ref = tree_.last(); ref != nullptr;
       ref = tree_.predecessor(ref)) {
    plan.sequence.push_back(ScheduledTask{Tree::payload(ref), cycles_of(ref),
                                          table_.best_rate(backward)});
    --backward;
  }
  return plan;
}

Money DynamicSingleCoreScheduler::recompute_cost() const {
  const EnergyModel& m = table_.model();
  const CostParams& cp = table_.params();
  Money c = 0.0;
  std::size_t k = 1;
  for (TaskRef ref = tree_.first(); ref != nullptr;
       ref = tree_.successor(ref)) {
    const std::size_t rate = table_.best_rate(k);
    const double w = Tree::weight(ref);
    c += cp.re * m.energy_per_cycle(rate) * w +
         static_cast<double>(k) * cp.rt * m.time_per_cycle(rate) * w;
    ++k;
  }
  return c;
}

bool DynamicSingleCoreScheduler::validate() const {
  const std::size_t n = tree_.size();
  for (std::size_t i = 0; i < ranges_.size(); ++i) {
    const RangeState& r = ranges_[i];
    const std::size_t expected_b =
        (n < r.lo) ? r.lo - 1
                   : (r.hi == ds::IntegerRange::kUnbounded ? n
                                                           : std::min(n, r.hi));
    if (r.b != expected_b) return false;
    const bool occupied = r.b >= r.lo;
    if (!occupied) {
      if (r.alpha != nullptr || r.beta != nullptr) return false;
      if (r.x != 0.0 || r.d != 0.0) return false;
      continue;
    }
    if (r.alpha == nullptr || r.beta == nullptr) return false;
    if (tree_.rank(r.alpha) != r.lo || tree_.rank(r.beta) != r.b) return false;
    if (!almost_equal(r.x, tree_.range_sum(r.lo, r.b), 1e-9, 1e-6)) {
      return false;
    }
    if (!almost_equal(r.d, tree_.range_wsum(r.lo, r.b), 1e-9, 1e-6)) {
      return false;
    }
  }
  return almost_equal(cost_, recompute_cost(), 1e-9, 1e-9);
}

}  // namespace dvfs::core
