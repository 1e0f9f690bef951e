#include "dvfs/core/dynamic_sched.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <random>
#include <vector>

#include "dvfs/core/batch_single.h"

namespace dvfs::core {
namespace {

CostTable table2(Money re = 0.1, Money rt = 0.4) {
  return CostTable(EnergyModel::icpp2014_table2(), CostParams{re, rt});
}

CostTable gadget() {
  return CostTable(EnergyModel::partition_gadget(), CostParams{1.0, 1.0});
}

TEST(DynamicSched, EmptyQueueCostsNothing) {
  DynamicSingleCoreScheduler q(gadget());
  EXPECT_TRUE(q.empty());
  EXPECT_DOUBLE_EQ(q.total_cost(), 0.0);
  EXPECT_TRUE(q.validate());
  EXPECT_THROW((void)q.front(), PreconditionError);
}

TEST(DynamicSched, SingleTaskHandArithmetic) {
  // Gadget: position 1 best rate from the envelope; C_B(1, p) =
  // E(p) + T(p): slow = 1 + 2 = 3, fast = 4 + 1 = 5 -> slow wins.
  DynamicSingleCoreScheduler q(gadget());
  q.insert(10, 1);
  EXPECT_DOUBLE_EQ(q.total_cost(), 30.0);
  EXPECT_TRUE(q.validate());
}

TEST(DynamicSched, CostMatchesRecomputeAfterInserts) {
  DynamicSingleCoreScheduler q(table2());
  for (Cycles c : {5'000'000'000ull, 1'000'000'000ull, 3'000'000'000ull,
                   7'000'000'000ull}) {
    q.insert(c, c);
    EXPECT_NEAR(q.total_cost(), q.recompute_cost(), 1e-6);
    EXPECT_TRUE(q.validate());
  }
}

TEST(DynamicSched, CostMatchesLongestTaskLastPlan) {
  // The dynamic structure's cost must equal the static optimum cost of the
  // same task multiset (they implement the same Theorem 3 schedule).
  const CostTable t = table2();
  DynamicSingleCoreScheduler q(t);
  std::vector<Task> tasks;
  const std::vector<Cycles> cycles{5'000'000'000, 1'000'000'000,
                                   3'000'000'000, 9'000'000'000,
                                   2'000'000'000};
  for (std::size_t i = 0; i < cycles.size(); ++i) {
    q.insert(cycles[i], i);
    tasks.push_back(Task{.id = i, .cycles = cycles[i]});
  }
  const Money static_cost =
      evaluate_single(longest_task_last(tasks, t), t).total();
  EXPECT_NEAR(q.total_cost(), static_cost, 1e-6);
}

TEST(DynamicSched, EraseRestoresPreviousCost) {
  DynamicSingleCoreScheduler q(table2());
  q.insert(4'000'000'000, 1);
  q.insert(6'000'000'000, 2);
  const Money before = q.total_cost();
  const auto ref = q.insert(5'000'000'000, 3);
  EXPECT_GT(q.total_cost(), before);
  q.erase(ref);
  EXPECT_NEAR(q.total_cost(), before, 1e-9);
  EXPECT_TRUE(q.validate());
}

TEST(DynamicSched, FrontIsShortestTask) {
  DynamicSingleCoreScheduler q(gadget());
  q.insert(30, 1);
  const auto small = q.insert(10, 2);
  q.insert(20, 3);
  EXPECT_EQ(q.front(), small);
  EXPECT_EQ(DynamicSingleCoreScheduler::id_of(q.front()), 2u);
  EXPECT_EQ(q.backward_position(small), 3u);
}

TEST(DynamicSched, PlanListsShortestFirstWithPositionRates) {
  const CostTable t = table2();
  DynamicSingleCoreScheduler q(t);
  q.insert(5'000'000'000, 1);
  q.insert(1'000'000'000, 2);
  q.insert(3'000'000'000, 3);
  const CorePlan plan = q.plan();
  ASSERT_EQ(plan.sequence.size(), 3u);
  EXPECT_EQ(plan.sequence[0].task_id, 2u);
  EXPECT_EQ(plan.sequence[1].task_id, 3u);
  EXPECT_EQ(plan.sequence[2].task_id, 1u);
  for (std::size_t k = 1; k <= 3; ++k) {
    EXPECT_EQ(plan.sequence[k - 1].rate_idx, t.best_rate(3 - k + 1));
  }
}

TEST(DynamicSched, MarginalProbeLeavesStateIntact) {
  DynamicSingleCoreScheduler q(table2());
  q.insert(2'000'000'000, 1);
  q.insert(8'000'000'000, 2);
  const Money before = q.total_cost();
  const Money marginal = q.marginal_insert_cost(4'000'000'000);
  EXPECT_GT(marginal, 0.0);
  EXPECT_NEAR(q.total_cost(), before, 1e-9);
  EXPECT_EQ(q.size(), 2u);
  EXPECT_TRUE(q.validate());
  // The probe must predict the actual insertion delta.
  q.insert(4'000'000'000, 3);
  EXPECT_NEAR(q.total_cost() - before, marginal, 1e-6);
}

TEST(DynamicSched, RejectsZeroCycleTask) {
  DynamicSingleCoreScheduler q(gadget());
  EXPECT_THROW((void)q.insert(0, 1), PreconditionError);
}

TEST(DynamicSched, RateOfTracksQueuePosition) {
  const CostTable t = table2();
  DynamicSingleCoreScheduler q(t);
  const auto big = q.insert(9'000'000'000, 1);
  EXPECT_EQ(q.rate_of(big), t.best_rate(1));
  // Insert many smaller tasks: `big` stays at backward position 1.
  for (int i = 0; i < 5; ++i) q.insert(1'000'000'000, 10 + i);
  EXPECT_EQ(q.backward_position(big), 1u);
  EXPECT_EQ(q.rate_of(big), t.best_rate(1));
}

TEST(DynamicSched, PeekMatchesProbeOnEmptyQueue) {
  DynamicSingleCoreScheduler q(table2());
  const Cycles c = 3'000'000'000;
  EXPECT_NEAR(q.peek_marginal_insert_cost(c), q.marginal_insert_cost(c),
              1e-9);
  EXPECT_THROW((void)q.peek_marginal_insert_cost(0), PreconditionError);
}

TEST(DynamicSched, PeekIsConstAndAllocationFreeOfSideEffects) {
  DynamicSingleCoreScheduler q(table2());
  q.insert(5'000'000'000, 1);
  q.insert(2'000'000'000, 2);
  const Money before = q.total_cost();
  const Money peek = q.peek_marginal_insert_cost(3'000'000'000);
  EXPECT_EQ(q.size(), 2u);
  EXPECT_DOUBLE_EQ(q.total_cost(), before);
  // The peek must predict the actual insertion delta exactly.
  q.insert(3'000'000'000, 3);
  EXPECT_NEAR(q.total_cost() - before, peek,
              1e-9 * std::max(1.0, q.total_cost()));
}

// Property: analytic peek == insert/erase probe under heavy random churn,
// across positions that land in every dominating range (including ties
// and boundary spills).
class PeekMarginalProperty : public ::testing::TestWithParam<std::uint32_t> {
};

TEST_P(PeekMarginalProperty, PeekEqualsProbeEverywhere) {
  const CostTable t(EnergyModel::icpp2014_table2(), CostParams{0.1, 0.4});
  DynamicSingleCoreScheduler q(t);
  std::mt19937_64 rng(GetParam());
  std::uniform_int_distribution<Cycles> cyc(1, 4'000'000'000ull);
  std::vector<DynamicSingleCoreScheduler::TaskRef> live;

  for (int step = 0; step < 300; ++step) {
    // Random churn to move range boundaries around.
    if (live.empty() || rng() % 100 < 55) {
      live.push_back(q.insert(cyc(rng), static_cast<TaskId>(step)));
    } else {
      const std::size_t pick = rng() % live.size();
      q.erase(live[pick]);
      live.erase(live.begin() + static_cast<long>(pick));
    }
    // Probe several hypothetical weights, including exact duplicates.
    for (int probe = 0; probe < 3; ++probe) {
      Cycles c = cyc(rng);
      if (!live.empty() && probe == 2) {
        c = DynamicSingleCoreScheduler::cycles_of(live[rng() % live.size()]);
      }
      const Money expect = q.marginal_insert_cost(c);
      const Money got = q.peek_marginal_insert_cost(c);
      ASSERT_NEAR(got, expect, 1e-9 * std::max(1.0, std::abs(expect)))
          << "step " << step << " cycles " << c;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PeekMarginalProperty,
                         ::testing::Values(21u, 42u, 63u, 84u));

// Exhaustive small-state sweep: every insertion order of a fixed multiset
// must produce the same cost (order independence of the structure).
TEST(DynamicSched, CostIsInsertionOrderIndependent) {
  const CostTable t = table2();
  std::vector<Cycles> cycles{3'000'000'000, 1'000'000'000, 4'000'000'000,
                             1'000'000'000, 5'000'000'000};
  std::sort(cycles.begin(), cycles.end());
  Money expected = -1.0;
  do {
    DynamicSingleCoreScheduler q(t);
    for (std::size_t i = 0; i < cycles.size(); ++i) q.insert(cycles[i], i);
    if (expected < 0) {
      expected = q.total_cost();
    } else {
      ASSERT_NEAR(q.total_cost(), expected, 1e-6);
    }
  } while (std::next_permutation(cycles.begin(), cycles.end()));
}

// Property: under heavy random churn the cached cost, the invariants and
// the range bookkeeping all match the O(N) recompute. Parameterized over
// (seed, cost table flavor).
//
// ChurnParam has no printer, so gtest names each case by its raw object
// bytes. The three bytes after `use_table2` used to be padding, which left
// the names to whatever the stack held and made them change between runs;
// `name_bytes` fills that gap explicitly so every case keeps one name.
struct ChurnParam {
  std::uint32_t seed;
  bool use_table2;
  std::array<std::uint8_t, 3> name_bytes;
  Money re;
  Money rt;
};
static_assert(sizeof(ChurnParam) == 24 &&
                  offsetof(ChurnParam, re) == 8,
              "ChurnParam must stay padding-free so its test names are stable");

class DynamicSchedChurn : public ::testing::TestWithParam<ChurnParam> {};

TEST_P(DynamicSchedChurn, CachedCostAlwaysMatchesRecompute) {
  const ChurnParam p = GetParam();
  const CostTable t =
      p.use_table2
          ? CostTable(EnergyModel::icpp2014_table2(), CostParams{p.re, p.rt})
          : CostTable(EnergyModel::cubic(RateSet::exynos_4412(), 0.9, 0.4),
                      CostParams{p.re, p.rt});
  DynamicSingleCoreScheduler q(t);
  std::mt19937_64 rng(p.seed);
  // Cycle range spans several dominating ranges for these weights.
  std::uniform_int_distribution<Cycles> cyc(1, 4'000'000'000ull);
  std::vector<DynamicSingleCoreScheduler::TaskRef> live;

  for (int step = 0; step < 600; ++step) {
    const bool do_insert = live.empty() || (rng() % 100) < 58;
    if (do_insert) {
      Cycles c = cyc(rng);
      if (!live.empty() && rng() % 8 == 0) {
        c = DynamicSingleCoreScheduler::cycles_of(live[rng() % live.size()]);
      }
      live.push_back(q.insert(c, static_cast<TaskId>(step)));
    } else {
      const std::size_t pick = rng() % live.size();
      q.erase(live[pick]);
      live.erase(live.begin() + static_cast<long>(pick));
    }
    ASSERT_NEAR(q.total_cost(), q.recompute_cost(),
                1e-9 * std::max(1.0, q.recompute_cost()))
        << "step " << step;
    if (step % 40 == 0) {
      ASSERT_TRUE(q.validate()) << "step " << step;
    }
  }
  // Drain everything through front()/erase and keep checking.
  while (!q.empty()) {
    q.erase(q.front());
    ASSERT_NEAR(q.total_cost(), q.recompute_cost(),
                1e-9 * std::max(1.0, q.recompute_cost()));
  }
  EXPECT_TRUE(q.validate());
}

INSTANTIATE_TEST_SUITE_P(
    Mix, DynamicSchedChurn,
    ::testing::Values(ChurnParam{1, true, {0x55, 0x00, 0x00}, 0.1, 0.4},
                      ChurnParam{2, true, {0x55, 0x00, 0x00}, 0.4, 0.1},
                      ChurnParam{3, true, {0x55, 0x00, 0x00}, 1.0, 1e-9},
                      ChurnParam{4, false, {0xE0, 0x54, 0x07}, 0.2, 0.8},
                      ChurnParam{5, false, {0x00, 0x00, 0x00}, 2.0, 0.05},
                      ChurnParam{6, true, {0xFF, 0xFF, 0xFF}, 1e-3, 10.0}));

}  // namespace
}  // namespace dvfs::core
