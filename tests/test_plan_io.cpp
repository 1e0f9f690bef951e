#include "dvfs/core/plan_io.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <sstream>
#include <stdexcept>

#include "dvfs/core/batch_multi.h"
#include "proptest/rng.h"
#include "dvfs/workload/generators.h"

namespace dvfs::core {
namespace {

Plan sample_plan() {
  Plan plan;
  plan.cores.resize(3);
  plan.cores[0].sequence = {ScheduledTask{10, 100, 0},
                            ScheduledTask{11, 200, 2}};
  plan.cores[2].sequence = {ScheduledTask{12, 300, 4}};  // core 1 empty
  return plan;
}

TEST(PlanIo, RoundTripPreservesEverything) {
  const Plan original = sample_plan();
  std::stringstream ss;
  write_plan_csv(original, ss);
  const Plan parsed = read_plan_csv(ss);
  ASSERT_EQ(parsed.cores.size(), 3u);
  EXPECT_EQ(parsed.cores[0].sequence, original.cores[0].sequence);
  EXPECT_TRUE(parsed.cores[1].sequence.empty());
  EXPECT_EQ(parsed.cores[2].sequence, original.cores[2].sequence);
}

TEST(PlanIo, EmptyPlanRoundTrips) {
  Plan empty;
  std::stringstream ss;
  write_plan_csv(empty, ss);
  const Plan parsed = read_plan_csv(ss);
  EXPECT_EQ(parsed.num_cores(), 0u);
  EXPECT_EQ(parsed.num_tasks(), 0u);
}

TEST(PlanIo, RejectsMalformedInput) {
  {
    std::stringstream ss("wrong,header\n");
    EXPECT_THROW((void)read_plan_csv(ss), PreconditionError);
  }
  {
    std::stringstream ss("core,position,task_id,cycles,rate_idx\n0,1,2\n");
    EXPECT_THROW((void)read_plan_csv(ss), PreconditionError);
  }
  {
    std::stringstream ss(
        "core,position,task_id,cycles,rate_idx\n0,one,2,3,4\n");
    EXPECT_THROW((void)read_plan_csv(ss), PreconditionError);
  }
  {  // duplicate position
    std::stringstream ss(
        "core,position,task_id,cycles,rate_idx\n0,1,2,3,4\n0,1,5,6,0\n");
    EXPECT_THROW((void)read_plan_csv(ss), PreconditionError);
  }
  {  // gap in positions
    std::stringstream ss(
        "core,position,task_id,cycles,rate_idx\n0,1,2,3,4\n0,3,5,6,0\n");
    EXPECT_THROW((void)read_plan_csv(ss), PreconditionError);
  }
  {  // zero-based position
    std::stringstream ss("core,position,task_id,cycles,rate_idx\n0,0,2,3,4\n");
    EXPECT_THROW((void)read_plan_csv(ss), PreconditionError);
  }
  {  // empty stream
    std::stringstream ss("");
    EXPECT_THROW((void)read_plan_csv(ss), PreconditionError);
  }
}

TEST(PlanIo, RowsMayArriveOutOfOrder) {
  std::stringstream ss(
      "core,position,task_id,cycles,rate_idx\n"
      "1,2,21,200,1\n"
      "0,1,10,100,0\n"
      "1,1,20,150,2\n");
  const Plan parsed = read_plan_csv(ss);
  ASSERT_EQ(parsed.cores.size(), 2u);
  EXPECT_EQ(parsed.cores[1].sequence[0].task_id, 20u);
  EXPECT_EQ(parsed.cores[1].sequence[1].task_id, 21u);
}

TEST(PlanIo, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/dvfs_plan_test.csv";
  write_plan_csv_file(sample_plan(), path);
  const Plan parsed = read_plan_csv_file(path);
  EXPECT_EQ(parsed.num_tasks(), 3u);
  EXPECT_THROW((void)read_plan_csv_file(path + ".missing"),
               PreconditionError);
}

TEST(PlanIo, WbgPlanSurvivesRoundTripWithIdenticalCost) {
  const CostTable table(EnergyModel::icpp2014_table2(),
                        CostParams{0.1, 0.4});
  const std::vector<CostTable> tables(4, table);
  workload::BatchConfig cfg;
  cfg.num_tasks = 100;
  const auto tasks = workload::generate_batch(cfg, 3);
  const Plan plan = workload_based_greedy(tasks, tables);

  std::stringstream ss;
  write_plan_csv(plan, ss);
  const Plan parsed = read_plan_csv(ss);
  EXPECT_DOUBLE_EQ(evaluate_plan(parsed, tables).total(),
                   evaluate_plan(plan, tables).total());
  EXPECT_TRUE(plan_is_permutation_of(parsed, tasks, tables));
}

// Fuzz: truncations and single-byte corruptions of a valid plan CSV must
// either parse or throw PreconditionError — never crash or hang.
TEST(PlanIo, FuzzedInputNeverCrashes) {
  std::stringstream base;
  write_plan_csv(sample_plan(), base);
  const std::string valid = base.str();
  std::mt19937_64 rng(99);
  for (int trial = 0; trial < 400; ++trial) {
    std::string mutated = valid;
    const int op = static_cast<int>(rng() % 3);
    if (op == 0 && !mutated.empty()) {
      mutated.resize(rng() % mutated.size());  // truncate
    } else if (op == 1 && !mutated.empty()) {
      mutated[rng() % mutated.size()] =
          static_cast<char>(rng() % 128);  // corrupt a byte
    } else if (!mutated.empty()) {
      mutated.insert(rng() % mutated.size(), 1,
                     static_cast<char>(rng() % 128));  // insert a byte
    }
    std::stringstream ss(mutated);
    try {
      const Plan p = read_plan_csv(ss);
      (void)p;  // parsed fine: acceptable
    } catch (const PreconditionError&) {
      // rejected cleanly: acceptable
    }
  }
}

// Adversarial field values: every field is an unsigned integer, so signs,
// NaN/inf spellings, fractions, and overflow must all be rejected with a
// catchable error — a plan file feeds a real frequency actuator.
TEST(PlanIo, RejectsNaNNegativeAndNonIntegerFields) {
  const char* header = "core,position,task_id,cycles,rate_idx\n";
  for (const char* row : {
           "0,1,2,-3,4",                       // negative cycles
           "-1,1,2,3,4",                       // negative core
           "0,-1,2,3,4",                       // negative position
           "0,1,2,nan,4",                      // NaN cycles
           "0,1,2,inf,4",                      // infinite cycles
           "0,1,2,3.5,4",                      // fractional cycles
           "0,1,2,1e6,4",                      // exponent notation
           "0,1,2,3,+4",                       // explicit plus sign
           "0,1,2,99999999999999999999999,4",  // u64 overflow
           "0,1,2,3,",                         // empty trailing field
           ",1,2,3,4",                         // empty leading field
           "0,1,2, 3,4",                       // embedded space
       }) {
    std::stringstream ss(std::string(header) + row + "\n");
    EXPECT_THROW((void)read_plan_csv(ss), PreconditionError) << row;
    std::stringstream again(std::string(header) + row + "\n");
    EXPECT_THROW((void)read_plan_csv(again), std::invalid_argument) << row;
  }
}

// A header with no rows (truncated just after the header) is a valid
// empty plan; truncation mid-row is a clean rejection.
TEST(PlanIo, TruncatedFilesEitherParseOrThrow) {
  {
    std::stringstream ss("core,position,task_id,cycles,rate_idx\n");
    EXPECT_EQ(read_plan_csv(ss).num_tasks(), 0u);
  }
  {
    std::stringstream ss("core,position,task_id,cycles,rate_idx\n0,1,2");
    EXPECT_THROW((void)read_plan_csv(ss), PreconditionError);
  }
  {
    std::stringstream ss("core,position,task_id,cy");
    EXPECT_THROW((void)read_plan_csv(ss), PreconditionError);
  }
}

// Generative round-trip property: parse(serialize(p)) == p for random
// plans, including extreme ids/cycles. (Trailing fully-empty cores are
// the one lossy case — the CSV has no row to record them — so the
// generator keeps the last core non-empty.)
TEST(PlanIo, RandomPlansRoundTripExactly) {
  proptest::SplitMix64 g(0x9107AA51u);
  for (int trial = 0; trial < 200; ++trial) {
    Plan plan;
    plan.cores.resize(g.uniform_u64(1, 5));
    TaskId id = 0;
    for (CorePlan& core : plan.cores) {
      const std::size_t n = g.uniform_u64(0, 6);
      for (std::size_t k = 0; k < n; ++k) {
        core.sequence.push_back(ScheduledTask{
            g.chance(0.1) ? UINT64_MAX : id++,
            g.chance(0.1) ? UINT64_MAX : g.uniform_u64(0, 1'000'000'000),
            g.uniform_u64(0, 11)});
      }
    }
    if (plan.cores.back().sequence.empty()) {
      plan.cores.back().sequence.push_back(ScheduledTask{id++, 1, 0});
    }
    std::stringstream ss;
    write_plan_csv(plan, ss);
    const Plan parsed = read_plan_csv(ss);
    ASSERT_EQ(parsed.cores.size(), plan.cores.size()) << "trial " << trial;
    for (std::size_t j = 0; j < plan.cores.size(); ++j) {
      EXPECT_EQ(parsed.cores[j].sequence, plan.cores[j].sequence)
          << "trial " << trial << " core " << j;
    }
  }
}

}  // namespace
}  // namespace dvfs::core
