#include "dvfs/core/online_lmc.h"

#include "dvfs/core/batch_multi.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <random>
#include <vector>

namespace dvfs::core {
namespace {

CostTable online_table(Money re = 0.4, Money rt = 0.1) {
  // The paper's online-mode weights: Re = 0.4 cent/J, Rt = 0.1 cent/s.
  return CostTable(EnergyModel::icpp2014_table2(), CostParams{re, rt});
}

LmcScheduler make_homogeneous(std::size_t cores) {
  return LmcScheduler(std::vector<CostTable>(cores, online_table()));
}

TEST(Lmc, RequiresAtLeastOneCore) {
  EXPECT_THROW(LmcScheduler(std::vector<CostTable>{}), PreconditionError);
}

TEST(Lmc, FirstTaskGoesToCoreZero) {
  LmcScheduler lmc = make_homogeneous(4);
  const auto p = lmc.place_non_interactive(1'000'000'000, 1);
  EXPECT_EQ(p.core, 0u);
  EXPECT_GT(p.marginal, 0.0);
  EXPECT_EQ(lmc.queue(0).size(), 1u);
}

TEST(Lmc, NonInteractiveSpreadsAcrossIdenticalCores) {
  LmcScheduler lmc = make_homogeneous(3);
  for (TaskId i = 0; i < 6; ++i) {
    lmc.place_non_interactive(2'000'000'000, i);
  }
  EXPECT_EQ(lmc.queue(0).size(), 2u);
  EXPECT_EQ(lmc.queue(1).size(), 2u);
  EXPECT_EQ(lmc.queue(2).size(), 2u);
}

TEST(Lmc, MarginalEqualsActualDelta) {
  LmcScheduler lmc = make_homogeneous(2);
  lmc.place_non_interactive(5'000'000'000, 1);
  lmc.place_non_interactive(2'000'000'000, 2);
  const Money before = lmc.total_queue_cost();
  const auto p = lmc.place_non_interactive(3'000'000'000, 3);
  EXPECT_NEAR(lmc.total_queue_cost() - before, p.marginal, 1e-6);
}

TEST(Lmc, PlacementMinimizesMarginalOverCores) {
  // Load core 0 heavily; a new task must land on core 1.
  LmcScheduler lmc = make_homogeneous(2);
  // Force onto specific queues via direct queue access to create imbalance.
  lmc.queue(0).insert(8'000'000'000, 100);
  lmc.queue(0).insert(9'000'000'000, 101);
  const auto p = lmc.place_non_interactive(1'000'000'000, 1);
  EXPECT_EQ(p.core, 1u);
}

TEST(Lmc, InteractiveMarginalMatchesEquation27) {
  LmcScheduler lmc = make_homogeneous(2);
  const CostTable& t = lmc.queue(0).table();
  const EnergyModel& m = t.model();
  const std::size_t pm = m.rates().highest_index();
  const Cycles l = 3'000'000'000;
  const std::size_t waiting = 5;
  const double ld = static_cast<double>(l);
  const Money expected =
      t.params().re * ld * m.energy_per_cycle(pm) +
      t.params().rt * ld * m.time_per_cycle(pm) +
      t.params().rt * ld * m.time_per_cycle(pm) * static_cast<double>(waiting);
  EXPECT_NEAR(lmc.interactive_marginal_cost(0, l, waiting), expected, 1e-12);
}

TEST(Lmc, InteractiveChoosesLeastLoadedHomogeneousCore) {
  // The paper: "if the cores are homogeneous, we simply choose the core
  // with the least N_j".
  LmcScheduler lmc = make_homogeneous(3);
  lmc.queue(0).insert(1'000'000'000, 1);
  lmc.queue(0).insert(1'000'000'000, 2);
  lmc.queue(1).insert(1'000'000'000, 3);
  EXPECT_EQ(lmc.choose_interactive_core(500'000'000), 2u);
}

TEST(Lmc, InteractiveRespectsExtraWaitingCounts) {
  LmcScheduler lmc = make_homogeneous(2);
  lmc.queue(0).insert(1'000'000'000, 1);
  // Core 1 has an empty queue but 3 pending interactive tasks.
  const std::vector<std::size_t> extra{0, 3};
  EXPECT_EQ(lmc.choose_interactive_core(500'000'000, extra), 0u);
  const std::vector<std::size_t> wrong_size{0};
  EXPECT_THROW((void)lmc.choose_interactive_core(1, wrong_size),
               PreconditionError);
}

TEST(Lmc, InteractivePrefersEfficientCoreOnHeterogeneousPlatform) {
  // Core 1's max rate is both faster and cheaper per cycle: Eq. 27 picks it
  // even with equal queue lengths.
  const CostTable slow(
      EnergyModel(RateSet({1.0}), {4.0}, {1.0}), CostParams{1.0, 1.0});
  const CostTable fast(
      EnergyModel(RateSet({2.0}), {2.0}, {0.5}), CostParams{1.0, 1.0});
  LmcScheduler lmc{std::vector<CostTable>{slow, fast}};
  EXPECT_EQ(lmc.choose_interactive_core(100), 1u);
}

TEST(Lmc, PopNextReturnsShortestWithPositionRate) {
  LmcScheduler lmc = make_homogeneous(1);
  lmc.place_non_interactive(5'000'000'000, 1);
  lmc.place_non_interactive(1'000'000'000, 2);
  lmc.place_non_interactive(3'000'000'000, 3);
  const CostTable& t = lmc.queue(0).table();
  auto d = lmc.pop_next(0);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->id, 2u);
  EXPECT_EQ(d->rate_idx, t.best_rate(3));
  d = lmc.pop_next(0);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->id, 3u);
  EXPECT_EQ(d->rate_idx, t.best_rate(2));
  d = lmc.pop_next(0);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->id, 1u);
  d = lmc.pop_next(0);
  EXPECT_FALSE(d.has_value());
}

TEST(Lmc, EraseRemovesSpecificTask) {
  LmcScheduler lmc = make_homogeneous(1);
  const auto p = lmc.place_non_interactive(5'000'000'000, 1);
  lmc.place_non_interactive(1'000'000'000, 2);
  lmc.erase(p.core, p.ref);
  EXPECT_EQ(lmc.queue(0).size(), 1u);
  const auto d = lmc.pop_next(0);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->id, 2u);
}

TEST(Lmc, CoreIndexBoundsChecked) {
  LmcScheduler lmc = make_homogeneous(2);
  EXPECT_THROW((void)lmc.queue(2), PreconditionError);
  EXPECT_THROW((void)lmc.pop_next(5), PreconditionError);
  EXPECT_THROW((void)lmc.interactive_marginal_cost(2, 1, 0),
               PreconditionError);
}

// Property: LMC's placement is exactly the argmin of per-core marginal
// probes, for random arrival streams on heterogeneous platforms.
class LmcGreedyProperty : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(LmcGreedyProperty, PlacementIsArgminOfProbes) {
  std::mt19937_64 rng(GetParam());
  std::vector<CostTable> tables;
  tables.emplace_back(online_table());
  tables.emplace_back(
      CostTable(EnergyModel::cubic(RateSet::i7_950(), 1.1, 0.6),
                CostParams{0.4, 0.1}));
  tables.emplace_back(
      CostTable(EnergyModel::cubic(RateSet::exynos_4412(), 0.7, 0.9),
                CostParams{0.4, 0.1}));
  LmcScheduler lmc{std::move(tables)};
  // A mirror scheduler kept in lockstep to measure probes independently.
  std::uniform_int_distribution<Cycles> cyc(1'000'000, 8'000'000'000ull);

  for (TaskId id = 0; id < 120; ++id) {
    const Cycles c = cyc(rng);
    // Probe all cores before placement.
    std::vector<Money> probes;
    for (std::size_t j = 0; j < lmc.num_cores(); ++j) {
      probes.push_back(lmc.queue(j).marginal_insert_cost(c));
    }
    const auto p = lmc.place_non_interactive(c, id);
    for (std::size_t j = 0; j < probes.size(); ++j) {
      ASSERT_GE(probes[j], probes[p.core] - 1e-9) << "task " << id;
    }
    ASSERT_NEAR(p.marginal, probes[p.core], 1e-9);
  }
  // Queues must all still satisfy their invariants.
  for (std::size_t j = 0; j < lmc.num_cores(); ++j) {
    ASSERT_TRUE(lmc.queue(j).validate());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LmcGreedyProperty,
                         ::testing::Values(2u, 4u, 6u, 8u));

// Deep queues, as a saturated daemon shard builds them: the lockstep
// probe and the insert at the winner's descent must decide exactly what
// the scalar per-core probe and a plain insert decide, bit for bit, in
// trees past the depth where node chunks come from 2 MiB blocks.
TEST(Lmc, DeepQueuePlacementMatchesScalarProbes) {
  constexpr std::size_t kCores = 4;
  constexpr TaskId kTasks = 440'000;
  LmcScheduler subject = make_homogeneous(kCores);
  LmcScheduler mirror = make_homogeneous(kCores);
  std::mt19937_64 rng(0xDEE9);
  std::lognormal_distribution<double> cyc(std::log(4e8), 1.0);
  std::vector<Money> probes(kCores);
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  for (TaskId id = 0; id < kTasks; ++id) {
    const Cycles c = std::max<Cycles>(1, static_cast<Cycles>(cyc(rng)));
    for (std::size_t j = 0; j < kCores; ++j) {
      probes[j] = mirror.queue(j).peek_marginal_insert_cost(c);
    }
    std::size_t best = 0;
    for (std::size_t j = 1; j < kCores; ++j) {
      best = probes[j] < probes[best] ? j : best;
    }
    const auto p = subject.place_non_interactive(c, id);
    const auto ref = mirror.queue(best).insert(c, id);
    ASSERT_EQ(p.core, best) << "task " << id;
    ASSERT_EQ(bits(p.marginal), bits(probes[best])) << "task " << id;
    ASSERT_EQ(p.rank, mirror.queue(best).backward_position(ref));
    ASSERT_EQ(bits(subject.total_queue_cost()), bits(mirror.total_queue_cost()))
        << "task " << id;
    if (id % 20 == 19) {
      // Dispatch from the cores in turn, so erases interleave with the
      // hinted inserts.
      const std::size_t core = (id / 20) % kCores;
      const auto a = subject.pop_next(core);
      const auto b = mirror.pop_next(core);
      ASSERT_TRUE(a.has_value() && b.has_value());
      ASSERT_EQ(a->id, b->id);
      ASSERT_EQ(a->rate_idx, b->rate_idx);
    }
    if (id % 110'000 == 109'999) {
      for (std::size_t j = 0; j < kCores; ++j) {
        ASSERT_TRUE(subject.queue(j).validate()) << "core " << j;
        ASSERT_TRUE(subject.queue(j).tree().validate()) << "core " << j;
      }
    }
  }
  for (std::size_t j = 0; j < kCores; ++j) {
    EXPECT_GE(subject.queue(j).size(), 100'000u) << "core " << j;
    EXPECT_GE(subject.queue(j).tree().arena_block_count(), 1u)
        << "core " << j << " never reached the 2 MiB blocks";
    EXPECT_EQ(subject.queue(j).size(), mirror.queue(j).size());
  }
}

// LMC places greedily without migration, so its queued cost can never
// beat the Theorem 5 optimum for the same task multiset — a lower-bound
// sanity check tying the online heuristic to the batch optimality theory.
class LmcVsWbgBound : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(LmcVsWbgBound, QueueCostNeverBeatsWbgOptimum) {
  std::mt19937_64 rng(GetParam());
  std::uniform_int_distribution<Cycles> cyc(1'000'000, 8'000'000'000ull);
  const CostTable table(EnergyModel::icpp2014_table2(), CostParams{0.4, 0.1});
  const std::vector<CostTable> tables(3, table);

  for (int trial = 0; trial < 10; ++trial) {
    LmcScheduler lmc{std::vector<CostTable>(tables)};
    std::vector<Task> tasks;
    const std::size_t n = 1 + rng() % 40;
    for (std::size_t i = 0; i < n; ++i) {
      const Cycles c = cyc(rng);
      lmc.place_non_interactive(c, i);
      tasks.push_back(Task{.id = i, .cycles = c});
    }
    const Money optimum =
        evaluate_plan(workload_based_greedy(tasks, tables), tables).total();
    ASSERT_GE(lmc.total_queue_cost(), optimum * (1 - 1e-9))
        << "greedy no-migration placement cannot beat the WBG optimum";
    // And it should not be pathologically worse on random streams.
    ASSERT_LE(lmc.total_queue_cost(), optimum * 1.5);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LmcVsWbgBound,
                         ::testing::Values(31u, 62u, 93u));

}  // namespace
}  // namespace dvfs::core
