#include "dvfs/core/online_lmc.h"

#include <limits>

namespace dvfs::core {

LmcScheduler::LmcScheduler(std::vector<CostTable> tables) {
  DVFS_REQUIRE(!tables.empty(), "need at least one core");
  queues_.reserve(tables.size());
  for (CostTable& t : tables) {
    queues_.emplace_back(std::move(t));
  }
  // Hoist the Eq. 27 inputs into per-core contiguous arrays once; the
  // interactive scan never touches the model objects again.
  re_.reserve(queues_.size());
  rt_.reserve(queues_.size());
  epc_max_.reserve(queues_.size());
  tpc_max_.reserve(queues_.size());
  for (const DynamicSingleCoreScheduler& q : queues_) {
    const CostTable& t = q.table();
    const EnergyModel& m = t.model();
    const std::size_t pm = m.rates().highest_index();
    re_.push_back(t.params().re);
    rt_.push_back(t.params().rt);
    epc_max_.push_back(m.energy_per_cycle(pm));
    tpc_max_.push_back(m.time_per_cycle(pm));
  }
}

LmcScheduler::Placement LmcScheduler::place_non_interactive(
    Cycles cycles, TaskId id, std::span<const Money> extra_cost,
    std::vector<Money>* probed_marginals) {
  DVFS_REQUIRE(cycles > 0, "tasks need a positive cycle count");
  DVFS_REQUIRE(extra_cost.empty() || extra_cost.size() == queues_.size(),
               "extra_cost must have one entry per core");
  // Evaluate every core's exact marginal cost analytically (no structure
  // mutation) into the reusable candidate vector, then take the argmin in
  // a separate branch-free pass; ties keep the lowest core index so runs
  // are deterministic. Every core's tree is descended in lockstep, so in
  // deep queues the cores' cache misses overlap, and the winner's
  // insert reuses its descent.
  const std::size_t n = queues_.size();
  trees_.resize(n);
  points_.resize(n);
  scan_.resize(n);
  for (std::size_t j = 0; j < n; ++j) trees_[j] = &queues_[j].tree();
  DynamicSingleCoreScheduler::Tree::insertion_points(
      trees_.data(), n, static_cast<double>(cycles), points_.data());
  for (std::size_t j = 0; j < n; ++j) {
    scan_[j] = queues_[j].peek_marginal_insert_cost(cycles, points_[j]);
  }
  if (!extra_cost.empty()) {
    for (std::size_t j = 0; j < n; ++j) scan_[j] += extra_cost[j];
  }
  std::size_t best_core = 0;
  for (std::size_t j = 1; j < n; ++j) {
    best_core = scan_[j] < scan_[best_core] ? j : best_core;
  }
  const Money best_marginal = scan_[best_core];
  if (probed_marginals != nullptr) {
    probed_marginals->assign(scan_.begin(), scan_.end());
  }
  const auto& at = points_[best_core];
  const auto ref = queues_[best_core].insert(cycles, id, at);
  return Placement{best_core, ref, best_marginal, at.rank};
}

std::size_t LmcScheduler::choose_interactive_core(
    Cycles cycles, std::span<const std::size_t> extra_waiting) const {
  return interactive_scan(cycles, extra_waiting, scan_);
}

std::size_t LmcScheduler::interactive_scan(
    Cycles cycles, std::span<const std::size_t> extra_waiting,
    std::vector<Money>& out) const {
  DVFS_REQUIRE(cycles > 0, "tasks need a positive cycle count");
  DVFS_REQUIRE(extra_waiting.empty() || extra_waiting.size() == queues_.size(),
               "extra_waiting must have one entry per core");
  const std::size_t n = queues_.size();
  out.resize(n);
  waiting_.resize(n);
  for (std::size_t j = 0; j < n; ++j) {
    waiting_[j] = static_cast<double>(
        queues_[j].size() + (extra_waiting.empty() ? 0 : extra_waiting[j]));
  }
  const double l = static_cast<double>(cycles);
  // Eq. 27 over the four contiguous coefficient arrays, with the exact
  // association of interactive_marginal_cost(): Re*L*E + Rt*L*T +
  // (Rt*L*T)*N. No branches, no model indirection; auto-vectorizes.
  for (std::size_t j = 0; j < n; ++j) {
    const double tw = rt_[j] * l * tpc_max_[j];
    out[j] = re_[j] * l * epc_max_[j] + tw + tw * waiting_[j];
  }
  std::size_t best = 0;
  for (std::size_t j = 1; j < n; ++j) {
    best = out[j] < out[best] ? j : best;
  }
  return best;
}

Money LmcScheduler::interactive_marginal_cost(std::size_t core, Cycles cycles,
                                              std::size_t waiting) const {
  DVFS_REQUIRE(core < queues_.size(), "core index out of range");
  const CostTable& t = queues_[core].table();
  const EnergyModel& m = t.model();
  const std::size_t pm = m.rates().highest_index();
  const double l = static_cast<double>(cycles);
  // Eq. 27: own energy cost + own time cost + delay inflicted on the
  // `waiting` tasks already queued behind this core.
  return t.params().re * l * m.energy_per_cycle(pm) +
         t.params().rt * l * m.time_per_cycle(pm) +
         t.params().rt * l * m.time_per_cycle(pm) *
             static_cast<double>(waiting);
}

std::optional<LmcScheduler::Dispatched> LmcScheduler::pop_next(
    std::size_t core) {
  DVFS_REQUIRE(core < queues_.size(), "core index out of range");
  DynamicSingleCoreScheduler& q = queues_[core];
  if (q.empty()) return std::nullopt;
  const auto ref = q.front();  // fewest cycles; backward position == size
  Dispatched d{DynamicSingleCoreScheduler::id_of(ref),
               DynamicSingleCoreScheduler::cycles_of(ref),
               q.table().best_rate(q.size())};
  q.erase(ref);
  return d;
}

void LmcScheduler::erase(std::size_t core,
                         DynamicSingleCoreScheduler::TaskRef ref) {
  DVFS_REQUIRE(core < queues_.size(), "core index out of range");
  queues_[core].erase(ref);
}

Money LmcScheduler::total_queue_cost() const {
  Money c = 0.0;
  for (const DynamicSingleCoreScheduler& q : queues_) c += q.total_cost();
  return c;
}

}  // namespace dvfs::core
