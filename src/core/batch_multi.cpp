#include "dvfs/core/batch_multi.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <queue>

namespace dvfs::core {
namespace {

void check_batch_tasks(std::span<const Task> tasks) {
  for (const Task& t : tasks) {
    DVFS_REQUIRE(is_valid(t), "invalid task");
    DVFS_REQUIRE(t.arrival == 0.0, "batch tasks arrive at time 0");
  }
}

// Indices sorted by decreasing cycle count (heaviest first), id tie-break.
std::vector<std::size_t> heaviest_first(std::span<const Task> tasks) {
  std::vector<std::size_t> order(tasks.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (tasks[a].cycles != tasks[b].cycles)
      return tasks[a].cycles > tasks[b].cycles;
    return tasks[a].id < tasks[b].id;
  });
  return order;
}

// Converts per-core backward sequences (position 1 = runs last) into a
// forward Plan, assigning each backward position its optimal rate.
Plan backward_to_plan(
    const std::vector<std::vector<const Task*>>& backward_per_core,
    std::span<const CostTable> tables) {
  Plan plan;
  plan.cores.resize(backward_per_core.size());
  for (std::size_t j = 0; j < backward_per_core.size(); ++j) {
    const auto& backward = backward_per_core[j];
    CorePlan& core = plan.cores[j];
    core.sequence.reserve(backward.size());
    for (std::size_t i = backward.size(); i-- > 0;) {
      const Task* t = backward[i];
      core.sequence.push_back(
          ScheduledTask{t->id, t->cycles, tables[j].best_rate(i + 1)});
    }
  }
  return plan;
}

}  // namespace

Plan round_robin_homogeneous(std::span<const Task> tasks,
                             const CostTable& table, std::size_t num_cores) {
  DVFS_REQUIRE(num_cores >= 1, "need at least one core");
  check_batch_tasks(tasks);
  const std::vector<std::size_t> order = heaviest_first(tasks);

  std::vector<std::vector<const Task*>> backward(num_cores);
  for (std::size_t i = 0; i < order.size(); ++i) {
    backward[i % num_cores].push_back(&tasks[order[i]]);
  }
  const std::vector<CostTable> tables(num_cores, table);
  return backward_to_plan(backward, tables);
}

Plan workload_based_greedy(std::span<const Task> tasks,
                           std::span<const CostTable> tables) {
  DVFS_REQUIRE(!tables.empty(), "need at least one core");
  check_batch_tasks(tasks);
  const std::vector<std::size_t> order = heaviest_first(tasks);

  struct Slot {
    double cost;        // C_j(k) = min_p C_B(k, p)
    std::uint64_t seq;  // push order
    std::size_t core;
    std::size_t k;      // backward position this entry represents
  };
  // Min-queue on (cost, push order): equal costs pop in push order (lower
  // core index first among the initial slots), keeping runs deterministic.
  const auto later = [](const Slot& a, const Slot& b) {
    if (a.cost != b.cost) return a.cost > b.cost;
    return a.seq > b.seq;
  };
  std::priority_queue<Slot, std::vector<Slot>, decltype(later)> heap(later);
  std::uint64_t seq = 0;
  const auto push = [&](std::size_t core, std::size_t k) {
    heap.push(Slot{tables[core].best_backward_cost(k), seq++, core, k});
  };
  for (std::size_t j = 0; j < tables.size(); ++j) push(j, 1);

  std::vector<std::vector<const Task*>> backward(tables.size());
  for (const std::size_t idx : order) {
    const Slot slot = heap.top();
    heap.pop();
    backward[slot.core].push_back(&tasks[idx]);
    push(slot.core, slot.k + 1);
  }
  return backward_to_plan(backward, tables);
}

Plan brute_force_assignment(std::span<const Task> tasks,
                            std::span<const CostTable> tables) {
  DVFS_REQUIRE(!tables.empty(), "need at least one core");
  check_batch_tasks(tasks);
  const std::size_t r = tables.size();
  const std::size_t n = tasks.size();
  const double combos = std::pow(static_cast<double>(r),
                                 static_cast<double>(n));
  DVFS_REQUIRE(combos <= static_cast<double>(1 << 22),
               "assignment space too large for brute force");

  std::vector<std::size_t> assign(n, 0);
  Plan best;
  Money best_cost = std::numeric_limits<Money>::infinity();

  while (true) {
    // Build per-core task lists, order each by Theorem 3, rate by position.
    std::vector<std::vector<const Task*>> per_core(r);
    for (std::size_t i = 0; i < n; ++i) {
      per_core[assign[i]].push_back(&tasks[i]);
    }
    Plan candidate;
    candidate.cores.resize(r);
    for (std::size_t j = 0; j < r; ++j) {
      auto& list = per_core[j];
      std::sort(list.begin(), list.end(), [](const Task* a, const Task* b) {
        if (a->cycles != b->cycles) return a->cycles < b->cycles;
        return a->id < b->id;
      });
      const std::size_t m = list.size();
      for (std::size_t k = 0; k < m; ++k) {
        candidate.cores[j].sequence.push_back(ScheduledTask{
            list[k]->id, list[k]->cycles, tables[j].best_rate(m - k)});
      }
    }
    const Money cost = evaluate_plan(candidate, tables).total();
    if (cost < best_cost) {
      best_cost = cost;
      best = std::move(candidate);
    }
    std::size_t digit = 0;
    while (digit < n && ++assign[digit] == r) {
      assign[digit] = 0;
      ++digit;
    }
    if (digit == n || n == 0) break;
  }
  return best;
}

}  // namespace dvfs::core
