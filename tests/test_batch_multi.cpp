#include "dvfs/core/batch_multi.h"

#include <gtest/gtest.h>

#include <random>
#include <stdexcept>
#include <vector>

#include "dvfs/core/batch_single.h"

namespace dvfs::core {
namespace {

CostTable gadget(Money re = 1.0, Money rt = 1.0) {
  return CostTable(EnergyModel::partition_gadget(), CostParams{re, rt});
}

std::vector<Task> make_tasks(std::initializer_list<Cycles> cycles) {
  std::vector<Task> tasks;
  TaskId id = 0;
  for (const Cycles c : cycles) tasks.push_back(Task{.id = id++, .cycles = c});
  return tasks;
}

TEST(RoundRobin, DistributesHeaviestFirstAcrossCores) {
  const CostTable t = gadget();
  const std::vector<Task> tasks = make_tasks({10, 40, 20, 30});
  const Plan plan = round_robin_homogeneous(tasks, t, 2);
  ASSERT_EQ(plan.num_cores(), 2u);
  // Heaviest (40) -> core 0 backward pos 1 (runs last); 30 -> core 1;
  // 20 -> core 0 pos 2; 10 -> core 1 pos 2. Forward order reverses.
  ASSERT_EQ(plan.cores[0].sequence.size(), 2u);
  ASSERT_EQ(plan.cores[1].sequence.size(), 2u);
  EXPECT_EQ(plan.cores[0].sequence[0].cycles, 20u);
  EXPECT_EQ(plan.cores[0].sequence[1].cycles, 40u);
  EXPECT_EQ(plan.cores[1].sequence[0].cycles, 10u);
  EXPECT_EQ(plan.cores[1].sequence[1].cycles, 30u);
}

TEST(RoundRobin, SingleCoreDegeneratesToLtl) {
  const CostTable t = gadget();
  const std::vector<Task> tasks = make_tasks({5, 1, 3, 2, 4});
  const Plan rr = round_robin_homogeneous(tasks, t, 1);
  const CorePlan ltl = longest_task_last(tasks, t);
  ASSERT_EQ(rr.cores.size(), 1u);
  EXPECT_EQ(rr.cores[0].sequence, ltl.sequence);
}

TEST(RoundRobin, RejectsZeroCores) {
  const CostTable t = gadget();
  EXPECT_THROW((void)round_robin_homogeneous({}, t, 0), PreconditionError);
}

TEST(RoundRobin, MoreCoresThanTasksLeavesIdleCores) {
  const CostTable t = gadget();
  const std::vector<Task> tasks = make_tasks({7});
  const Plan plan = round_robin_homogeneous(tasks, t, 4);
  EXPECT_EQ(plan.num_tasks(), 1u);
  EXPECT_EQ(plan.cores[0].sequence.size(), 1u);
  for (std::size_t j = 1; j < 4; ++j) {
    EXPECT_TRUE(plan.cores[j].sequence.empty());
  }
}

TEST(Wbg, EqualsRoundRobinCostOnHomogeneousCores) {
  const CostTable t = gadget();
  const std::vector<Task> tasks = make_tasks({13, 5, 8, 21, 3, 34, 2, 55});
  const std::vector<CostTable> tables(3, t);
  const Plan wbg = workload_based_greedy(tasks, tables);
  const Plan rr = round_robin_homogeneous(tasks, t, 3);
  EXPECT_NEAR(evaluate_plan(wbg, tables).total(),
              evaluate_plan(rr, t).total(), 1e-9);
}

// On identical cores every core's next slot costs the same at each
// backward position, so the pops tie throughout; only popping equal costs
// in push order deals the tasks round robin, core by core and position by
// position.
TEST(Wbg, TiesPopInPushOrderGivingRoundRobinOnHomogeneousCores) {
  const CostTable t = gadget();
  const std::vector<Task> tasks =
      make_tasks({13, 5, 8, 21, 3, 34, 2, 55, 8, 13, 1});
  for (std::size_t cores = 1; cores <= 5; ++cores) {
    const std::vector<CostTable> tables(cores, t);
    const Plan wbg = workload_based_greedy(tasks, tables);
    const Plan rr = round_robin_homogeneous(tasks, t, cores);
    ASSERT_EQ(wbg.cores.size(), cores);
    ASSERT_EQ(rr.cores.size(), cores);
    for (std::size_t j = 0; j < cores; ++j) {
      EXPECT_EQ(wbg.cores[j].sequence, rr.cores[j].sequence)
          << cores << " cores, core " << j;
    }
  }
}

TEST(Wbg, PlanCoversAllTasks) {
  const CostTable t = gadget();
  const std::vector<Task> tasks = make_tasks({13, 5, 8, 21, 3});
  const std::vector<CostTable> tables(2, t);
  const Plan plan = workload_based_greedy(tasks, tables);
  EXPECT_TRUE(plan_is_permutation_of(plan, tasks, tables));
}

TEST(Wbg, PrefersCheaperCoreOnHeterogeneousPlatform) {
  // Core 0 is strictly cheaper (less energy, same speed): everything should
  // land there until queueing delay (Rt) makes core 1 worthwhile.
  const CostTable cheap(EnergyModel(RateSet({1.0}), {1.0}, {1.0}),
                        CostParams{1.0, 0.001});
  const CostTable pricey(EnergyModel(RateSet({1.0}), {10.0}, {1.0}),
                         CostParams{1.0, 0.001});
  const std::vector<CostTable> tables{cheap, pricey};
  const std::vector<Task> tasks = make_tasks({4, 3, 2, 1});
  const Plan plan = workload_based_greedy(tasks, tables);
  EXPECT_EQ(plan.cores[0].sequence.size(), 4u);
  EXPECT_TRUE(plan.cores[1].sequence.empty());
}

TEST(Wbg, UsesBothCoresWhenWaitingDominates) {
  const CostTable cheap(EnergyModel(RateSet({1.0}), {1.0}, {1.0}),
                        CostParams{1.0, 10.0});
  const CostTable pricey(EnergyModel(RateSet({1.0}), {2.0}, {1.0}),
                         CostParams{1.0, 10.0});
  const std::vector<CostTable> tables{cheap, pricey};
  const std::vector<Task> tasks = make_tasks({4, 3, 2, 1});
  const Plan plan = workload_based_greedy(tasks, tables);
  EXPECT_FALSE(plan.cores[1].sequence.empty());
}

TEST(Wbg, RejectsEmptyPlatform) {
  const std::vector<Task> tasks = make_tasks({1});
  EXPECT_THROW((void)workload_based_greedy(tasks, {}), PreconditionError);
}

TEST(BruteForceAssignment, GuardsAgainstExplosion) {
  const std::vector<CostTable> tables(4, gadget());
  const std::vector<Task> many(12, Task{.id = 0, .cycles = 1});
  EXPECT_THROW((void)brute_force_assignment(many, tables), PreconditionError);
}

// Theorem 5 property: WBG matches the exhaustive assignment optimum on
// random heterogeneous instances.
class WbgOptimality : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(WbgOptimality, MatchesBruteForceHeterogeneous) {
  std::mt19937_64 rng(GetParam());
  std::uniform_int_distribution<Cycles> cycles_dist(1, 1000);
  std::uniform_int_distribution<int> n_dist(1, 7);
  std::uniform_real_distribution<double> scale(0.5, 3.0);

  for (int trial = 0; trial < 12; ++trial) {
    // Random 2-core heterogeneous platform built from scaled gadget models.
    const double s0 = scale(rng);
    const double s1 = scale(rng);
    const CostTable c0(
        EnergyModel(RateSet({0.5, 1.0}), {s0, 4.0 * s0}, {2.0, 1.0}),
        CostParams{0.6, 0.4});
    const CostTable c1(
        EnergyModel(RateSet({0.4, 0.8}), {s1, 4.0 * s1}, {2.5, 1.25}),
        CostParams{0.6, 0.4});
    const std::vector<CostTable> tables{c0, c1};

    std::vector<Task> tasks;
    const int n = n_dist(rng);
    for (int i = 0; i < n; ++i) {
      tasks.push_back(
          Task{.id = static_cast<TaskId>(i), .cycles = cycles_dist(rng)});
    }
    const Plan wbg = workload_based_greedy(tasks, tables);
    const Plan ref = brute_force_assignment(tasks, tables);
    ASSERT_TRUE(plan_is_permutation_of(wbg, tasks, tables));
    const Money got = evaluate_plan(wbg, tables).total();
    const Money want = evaluate_plan(ref, tables).total();
    ASSERT_NEAR(got, want, 1e-12 + 1e-9 * want) << "trial " << trial;
  }
}

TEST_P(WbgOptimality, MatchesBruteForceHomogeneousThreeCores) {
  std::mt19937_64 rng(GetParam() + 99);
  std::uniform_int_distribution<Cycles> cycles_dist(1, 500);
  std::uniform_int_distribution<int> n_dist(1, 6);
  const std::vector<CostTable> tables(3, gadget(0.5, 0.5));

  for (int trial = 0; trial < 10; ++trial) {
    std::vector<Task> tasks;
    const int n = n_dist(rng);
    for (int i = 0; i < n; ++i) {
      tasks.push_back(
          Task{.id = static_cast<TaskId>(i), .cycles = cycles_dist(rng)});
    }
    const Money got =
        evaluate_plan(workload_based_greedy(tasks, tables), tables).total();
    const Money want =
        evaluate_plan(brute_force_assignment(tasks, tables), tables).total();
    ASSERT_NEAR(got, want, 1e-12 + 1e-9 * want);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WbgOptimality,
                         ::testing::Values(101u, 202u, 303u, 404u));

// Guard audit: the cores^n assignment search must refuse oversized spaces
// with a catchable std::invalid_argument (PreconditionError), not an
// assert or a multi-hour enumeration.
TEST(BruteForceGuards, AssignmentRejectsOversizedSearchSpace) {
  const std::vector<CostTable> four(4, gadget());
  std::vector<Task> tasks;
  for (TaskId i = 0; i < 12; ++i) {
    tasks.push_back(Task{.id = i, .cycles = i + 1});
  }
  // 4^12 = 16.7M > 2^22: must throw before enumerating anything.
  EXPECT_THROW((void)brute_force_assignment(tasks, four), PreconditionError);
  EXPECT_THROW((void)brute_force_assignment(tasks, four),
               std::invalid_argument);
  // 4^5 = 1024 is comfortably inside the guard.
  tasks.resize(5);
  EXPECT_NO_THROW((void)brute_force_assignment(tasks, four));
}

TEST(BruteForceGuards, AssignmentRejectsZeroCoresAndBadTasks) {
  EXPECT_THROW((void)brute_force_assignment({}, {}), std::invalid_argument);
  const std::vector<CostTable> one(1, gadget());
  std::vector<Task> online = make_tasks({3});
  online.front().arrival = 2.0;
  EXPECT_THROW((void)brute_force_assignment(online, one),
               std::invalid_argument);
  EXPECT_THROW((void)workload_based_greedy(online, one),
               std::invalid_argument);
  EXPECT_THROW((void)round_robin_homogeneous(online, gadget(), 0),
               std::invalid_argument);
}

}  // namespace
}  // namespace dvfs::core
