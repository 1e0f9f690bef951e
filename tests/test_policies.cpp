#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <deque>
#include <limits>
#include <memory>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "dvfs/core/batch_multi.h"
#include "dvfs/governors/fifo_policy.h"
#include "dvfs/governors/lmc_policy.h"
#include "dvfs/governors/planned_policy.h"
#include "dvfs/governors/preemption_lane.h"
#include "dvfs/governors/wbg_rebalance_policy.h"
#include "dvfs/obs/recorder.h"
#include "dvfs/sim/engine.h"
#include "dvfs/workload/generators.h"

namespace dvfs::governors {
namespace {

using sim::ContentionModel;
using sim::Engine;
using sim::SimResult;

std::vector<core::EnergyModel> homogeneous(std::size_t cores) {
  return std::vector<core::EnergyModel>(cores,
                                        core::EnergyModel::icpp2014_table2());
}

std::vector<core::CostTable> online_tables(std::size_t cores) {
  return std::vector<core::CostTable>(
      cores, core::CostTable(core::EnergyModel::icpp2014_table2(),
                             core::CostParams{0.4, 0.1}));
}

workload::Trace small_online_trace() {
  std::vector<core::Task> tasks;
  core::TaskId id = 0;
  // A few chunky submissions...
  for (const double arrival : {0.0, 0.3, 0.8, 2.0, 2.1, 4.5}) {
    tasks.push_back(core::Task{.id = id++,
                               .cycles = 4'000'000'000,
                               .arrival = arrival,
                               .klass = core::TaskClass::kNonInteractive});
  }
  // ... and a burst of tiny interactive queries.
  for (int i = 0; i < 20; ++i) {
    tasks.push_back(core::Task{.id = id++,
                               .cycles = 3'000'000,
                               .arrival = 0.1 * i + 0.05,
                               .klass = core::TaskClass::kInteractive});
  }
  return workload::Trace(std::move(tasks));
}

// --------------------------------------------------------- PreemptionLane

// Drives a PreemptionLane on one core the way the policies do: interactive
// arrivals are admitted at kTop; a free core starts the lane's next task
// (interactive at kTop, the remainder at kResume) before its own FIFO
// queue (at kOwn). Logs every start as (task, rate) and the lane's
// waiting count after every arrival.
class LaneHarness final : public sim::Policy {
 public:
  static constexpr std::size_t kTop = 4, kResume = 2, kOwn = 0;

  void attach(Engine& engine) override { lane.reset(engine.num_cores()); }
  void on_arrival(Engine& engine, const core::Task& task) override {
    const double cycles = static_cast<double>(task.cycles);
    if (task.klass == core::TaskClass::kInteractive) {
      if (lane.admit(engine, 0, task.id, cycles, kTop)) log(engine);
    } else if (engine.busy(0)) {
      own.push_back(task.id);
    } else {
      engine.start(0, task.id, cycles, kOwn);
      log(engine);
    }
    waiting.push_back(lane.waiting(0));
  }
  void on_complete(Engine& engine, std::size_t, core::TaskId) override {
    if (!skip_lane &&
        lane.start_next(engine, 0, kTop, [] { return kResume; })) {
      log(engine);
    } else if (!own.empty()) {
      const core::TaskId id = own.front();
      own.pop_front();
      engine.start(0, id, static_cast<double>(engine.record(id).cycles),
                   kOwn);
      log(engine);
    }
  }
  [[nodiscard]] bool idle() const override {
    return lane.idle() && own.empty();
  }

  PreemptionLane lane;
  std::deque<core::TaskId> own;
  std::vector<std::pair<core::TaskId, std::size_t>> starts;
  std::vector<std::size_t> waiting;
  /// Starts own work before the lane's, which breaks the rule that a
  /// remainder resumes before any new non-interactive task.
  bool skip_lane = false;

 private:
  void log(const Engine& engine) {
    starts.emplace_back(engine.running_task(0), engine.current_rate(0));
  }
};

core::Task lane_task(core::TaskId id, double arrival, bool interactive) {
  return core::Task{.id = id,
                    .cycles = 2'000'000'000,
                    .arrival = arrival,
                    .klass = interactive ? core::TaskClass::kInteractive
                                         : core::TaskClass::kNonInteractive};
}

using Starts = std::vector<std::pair<core::TaskId, std::size_t>>;

TEST(PreemptionLane, EqualPriorityWaitsFifo) {
  Engine eng(homogeneous(1), ContentionModel::none());
  LaneHarness lane;
  const workload::Trace trace(std::vector<core::Task>{
      lane_task(1, 0.0, true), lane_task(2, 0.1, true),
      lane_task(3, 0.2, true)});
  const SimResult r = eng.run(trace, lane);
  EXPECT_EQ(r.completed_count(), 3u);
  const Starts want{{1, LaneHarness::kTop},
                    {2, LaneHarness::kTop},
                    {3, LaneHarness::kTop}};
  EXPECT_EQ(lane.starts, want);
  EXPECT_TRUE(lane.idle());
}

TEST(PreemptionLane, RemainderResumesAfterInteractiveBeforeOwnQueue) {
  Engine eng(homogeneous(1), ContentionModel::none());
  LaneHarness lane;
  // Task 1 runs from the own queue; task 2 queues behind it; interactive
  // task 3 preempts task 1 and interactive task 4 waits behind task 3.
  const workload::Trace trace(std::vector<core::Task>{
      lane_task(1, 0.0, false), lane_task(2, 0.1, false),
      lane_task(3, 0.2, true), lane_task(4, 0.3, true)});
  const SimResult r = eng.run(trace, lane);
  EXPECT_EQ(r.completed_count(), 4u);
  const Starts want{{1, LaneHarness::kOwn},
                    {3, LaneHarness::kTop},
                    {4, LaneHarness::kTop},
                    {1, LaneHarness::kResume},
                    {2, LaneHarness::kOwn}};
  EXPECT_EQ(lane.starts, want);
  // The remainder keeps the cycles it had left: task 1 finishes before
  // task 2 starts, after 0.2 s of its run and both interactive tasks.
  EXPECT_LT(r.tasks[0].finish, r.tasks[1].finish);
  EXPECT_GT(r.tasks[0].finish, r.tasks[3].finish);
}

TEST(PreemptionLane, WaitingCountsPendingTasksAndTheSlot) {
  Engine eng(homogeneous(1), ContentionModel::none());
  LaneHarness lane;
  const workload::Trace trace(std::vector<core::Task>{
      lane_task(1, 0.0, false), lane_task(2, 0.1, true),
      lane_task(3, 0.2, true), lane_task(4, 0.3, true)});
  const SimResult r = eng.run(trace, lane);
  EXPECT_EQ(r.completed_count(), 4u);
  // Nothing; the slot (task 1); slot + task 3; slot + tasks 3 and 4.
  EXPECT_EQ(lane.waiting, (std::vector<std::size_t>{0, 1, 2, 3}));
  EXPECT_EQ(lane.lane.waiting(0), 0u);
}

TEST(PreemptionLane, PreemptingIntoAFullSlotThrows) {
  Engine eng(homogeneous(1), ContentionModel::none());
  LaneHarness lane;
  lane.skip_lane = true;
  // Task 3 preempts task 1 into the slot. When it completes, the harness
  // starts task 2 ahead of the remainder, so task 4 would preempt a
  // second non-interactive task while the slot still holds task 1.
  const workload::Trace trace(std::vector<core::Task>{
      lane_task(1, 0.0, false), lane_task(2, 0.1, false),
      lane_task(3, 0.2, true), lane_task(4, 1.0, true)});
  try {
    (void)eng.run(trace, lane);
    FAIL() << "preempting into a full slot must throw";
  } catch (const PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find("remainder slot is full"),
              std::string::npos)
        << e.what();
  }
}

// ------------------------------------------------------------- FifoPolicy

TEST(FifoPolicy, CompletesEverythingOlbMax) {
  Engine eng(homogeneous(4), ContentionModel::none());
  FifoPolicy policy({.placement = FifoPolicy::Placement::kEarliestReady,
                     .freq = FifoPolicy::FreqMode::kMax});
  const workload::Trace trace = small_online_trace();
  const SimResult r = eng.run(trace, policy);
  EXPECT_EQ(r.completed_count(), trace.size());
  EXPECT_TRUE(policy.idle());
}

TEST(FifoPolicy, OlbAlwaysRunsAtCapRate) {
  // With kMax every recorded run must consume energy at the top rate:
  // energy per task == cycles * E(p_max) exactly (single core, serial).
  Engine eng(homogeneous(1), ContentionModel::none());
  FifoPolicy policy({.placement = FifoPolicy::Placement::kEarliestReady,
                     .freq = FifoPolicy::FreqMode::kMax});
  std::vector<core::Task> tasks{
      {.id = 0, .cycles = 1'000'000'000, .arrival = 0.0,
       .klass = core::TaskClass::kNonInteractive},
      {.id = 1, .cycles = 2'000'000'000, .arrival = 0.0,
       .klass = core::TaskClass::kNonInteractive}};
  const SimResult r = eng.run(workload::Trace(std::move(tasks)), policy);
  const core::EnergyModel m = core::EnergyModel::icpp2014_table2();
  EXPECT_NEAR(r.tasks[0].energy, m.task_energy(1'000'000'000, 4), 1e-6);
  EXPECT_NEAR(r.tasks[1].energy, m.task_energy(2'000'000'000, 4), 1e-6);
}

TEST(FifoPolicy, RateCapRestrictsPowerSaving) {
  // Power Saving: cap at index 2 (2.4 GHz). A single task must run there.
  Engine eng(homogeneous(1), ContentionModel::none());
  FifoPolicy policy({.placement = FifoPolicy::Placement::kEarliestReady,
                     .freq = FifoPolicy::FreqMode::kMax,
                     .rate_cap = 2});
  std::vector<core::Task> tasks{
      {.id = 0, .cycles = 2'400'000'000, .arrival = 0.0,
       .klass = core::TaskClass::kNonInteractive}};
  const SimResult r = eng.run(workload::Trace(std::move(tasks)), policy);
  EXPECT_NEAR(r.tasks[0].finish, 2'400'000'000 * 0.42e-9, 1e-6);
}

TEST(FifoPolicy, EarliestReadyBalancesBacklog) {
  // Two cores; three equal tasks arriving together go 2 + 1, never 3 + 0.
  Engine eng(homogeneous(2), ContentionModel::none());
  FifoPolicy policy({.placement = FifoPolicy::Placement::kEarliestReady,
                     .freq = FifoPolicy::FreqMode::kMax});
  std::vector<core::Task> tasks;
  for (core::TaskId i = 0; i < 3; ++i) {
    tasks.push_back(core::Task{.id = i,
                               .cycles = 3'000'000'000,
                               .arrival = 0.0,
                               .klass = core::TaskClass::kNonInteractive});
  }
  const SimResult r = eng.run(workload::Trace(std::move(tasks)), policy);
  const Seconds one = 3'000'000'000 * 0.33e-9;
  // Makespan must be two serial tasks, not three.
  EXPECT_NEAR(r.end_time, 2 * one, 1e-6);
}

TEST(FifoPolicy, RoundRobinIgnoresLoad) {
  // Round-robin sends tasks 0,2 to core 0 and 1,3 to core 1 even when the
  // backlog says otherwise.
  Engine eng(homogeneous(2), ContentionModel::none());
  FifoPolicy policy({.placement = FifoPolicy::Placement::kRoundRobin,
                     .freq = FifoPolicy::FreqMode::kMax});
  std::vector<core::Task> tasks{
      {.id = 0, .cycles = 8'000'000'000, .arrival = 0.0,
       .klass = core::TaskClass::kNonInteractive},
      {.id = 1, .cycles = 1'000'000, .arrival = 0.0,
       .klass = core::TaskClass::kNonInteractive},
      {.id = 2, .cycles = 1'000'000, .arrival = 0.0,
       .klass = core::TaskClass::kNonInteractive}};
  const SimResult r = eng.run(workload::Trace(std::move(tasks)), policy);
  // Task 2 waits behind the 8G-cycle task on core 0 under round robin.
  EXPECT_GT(r.tasks[2].finish, r.tasks[0].finish - 1e-9);
}

TEST(FifoPolicy, InteractivePreemptsNonInteractive) {
  Engine eng(homogeneous(1), ContentionModel::none());
  FifoPolicy policy({.placement = FifoPolicy::Placement::kEarliestReady,
                     .freq = FifoPolicy::FreqMode::kMax});
  std::vector<core::Task> tasks{
      {.id = 0, .cycles = 9'000'000'000, .arrival = 0.0,
       .klass = core::TaskClass::kNonInteractive},
      {.id = 1, .cycles = 3'000'000, .arrival = 0.5,
       .klass = core::TaskClass::kInteractive}};
  const SimResult r = eng.run(workload::Trace(std::move(tasks)), policy);
  EXPECT_EQ(r.tasks[0].preemptions, 1u);
  // The query finishes right after arrival, long before the big task.
  EXPECT_NEAR(r.tasks[1].finish, 0.5 + 3'000'000 * 0.33e-9, 1e-6);
  EXPECT_GT(r.tasks[0].finish, 2.0);
  EXPECT_EQ(r.completed_count(), 2u);
}

TEST(FifoPolicy, OndemandStartsLowAndRampsUp) {
  // An idle machine's ondemand governor has decayed to the lowest rate, so
  // a long task's first sampling period runs at 1.6 GHz; once the load
  // sample exceeds the threshold the governor jumps to 3.0 GHz. The run
  // must therefore finish faster than all-at-1.6 but slower than
  // all-at-3.0.
  Engine eng(homogeneous(1), ContentionModel::none());
  FifoPolicy policy({.placement = FifoPolicy::Placement::kEarliestReady,
                     .freq = FifoPolicy::FreqMode::kOndemand});
  const Cycles big = 30'000'000'000;  // ~10 s at 3 GHz
  std::vector<core::Task> tasks{
      {.id = 0, .cycles = big, .arrival = 0.0,
       .klass = core::TaskClass::kNonInteractive}};
  const SimResult r = eng.run(workload::Trace(std::move(tasks)), policy);
  const core::EnergyModel m = core::EnergyModel::icpp2014_table2();
  const Seconds all_slow = m.task_time(big, 0);
  const Seconds all_fast = m.task_time(big, 4);
  EXPECT_GT(r.tasks[0].finish, all_fast + 0.3);  // paid the slow first second
  EXPECT_LT(r.tasks[0].finish, all_slow);        // but ramped up after it
  // Roughly: 1 s at 1.6 GHz executes 1.6e9 cycles; the rest at 3 GHz.
  const Seconds expected = 1.0 + (static_cast<double>(big) - 1.6e9) * 0.33e-9;
  EXPECT_NEAR(r.tasks[0].finish, expected, 0.5);
}

TEST(FifoPolicy, OndemandRampsUpUnderLoad) {
  // A long task keeps the core >85% loaded, so the governor must have
  // ramped to the top rate: the run finishes far sooner than an
  // all-lowest-rate run would (the governor only had one slow second).
  Engine eng(homogeneous(1), ContentionModel::none());
  FifoPolicy policy({.placement = FifoPolicy::Placement::kEarliestReady,
                     .freq = FifoPolicy::FreqMode::kOndemand});
  const Cycles big = 30'000'000'000;
  std::vector<core::Task> tasks{
      {.id = 0, .cycles = big, .arrival = 0.0,
       .klass = core::TaskClass::kNonInteractive}};
  const SimResult r = eng.run(workload::Trace(std::move(tasks)), policy);
  EXPECT_EQ(r.completed_count(), 1u);
  const core::EnergyModel m = core::EnergyModel::icpp2014_table2();
  EXPECT_LT(r.tasks[0].finish, 0.6 * m.task_time(big, 0));
  // After completion the idle samples decay the level back down.
  EXPECT_LT(policy.governor_level(0), 4u);
}

TEST(FifoPolicy, ConservativeRampsGradually) {
  // A long task under the conservative rule climbs one level per second
  // from the bottom instead of jumping to the cap; it must finish slower
  // than under ondemand but faster than all-at-lowest.
  const Cycles big = 30'000'000'000;
  std::vector<core::Task> tasks{
      {.id = 0, .cycles = big, .arrival = 0.0,
       .klass = core::TaskClass::kNonInteractive}};
  auto run_mode = [&](FifoPolicy::FreqMode mode) {
    Engine eng(homogeneous(1), ContentionModel::none());
    FifoPolicy policy({.placement = FifoPolicy::Placement::kEarliestReady,
                       .freq = mode});
    workload::Trace trace(tasks);
    return eng.run(trace, policy).tasks[0].finish;
  };
  const Seconds ondemand = run_mode(FifoPolicy::FreqMode::kOndemand);
  const Seconds conservative = run_mode(FifoPolicy::FreqMode::kConservative);
  const core::EnergyModel m = core::EnergyModel::icpp2014_table2();
  EXPECT_GT(conservative, ondemand + 0.5)
      << "four one-second climbing steps instead of one jump";
  EXPECT_LT(conservative, m.task_time(big, 0));
  // Expected: 1s@1.6 + 1s@2.0 + 1s@2.4 + 1s@2.8 then 3.0 GHz.
  const double climbed = (1.6 + 2.0 + 2.4 + 2.8) * 1e9;
  const Seconds expected =
      4.0 + (static_cast<double>(big) - climbed) * 0.33e-9;
  EXPECT_NEAR(conservative, expected, 0.5);
}

TEST(FifoPolicy, ConservativeStepsDownInHysteresisBand) {
  Engine eng(homogeneous(1), ContentionModel::none());
  FifoPolicy policy({.placement = FifoPolicy::Placement::kEarliestReady,
                     .freq = FifoPolicy::FreqMode::kConservative});
  // Short task then a long idle stretch keeps load below the down
  // threshold: the level must decay back to 0 by the end.
  std::vector<core::Task> tasks{
      {.id = 0, .cycles = 20'000'000'000, .arrival = 0.0,
       .klass = core::TaskClass::kNonInteractive},
      {.id = 1, .cycles = 1'000'000, .arrival = 30.0,
       .klass = core::TaskClass::kNonInteractive}};
  const SimResult r = eng.run(workload::Trace(std::move(tasks)), policy);
  EXPECT_EQ(r.completed_count(), 2u);
  EXPECT_EQ(policy.governor_level(0), 0u);
}

TEST(FifoPolicy, ConfigValidation) {
  Engine eng(homogeneous(1), ContentionModel::none());
  {
    FifoPolicy bad({.rate_cap = 9});
    workload::Trace empty;
    EXPECT_THROW((void)eng.run(empty, bad), PreconditionError);
  }
  {
    FifoPolicy bad({.freq = FifoPolicy::FreqMode::kOndemand,
                    .load_threshold = 1.5});
    workload::Trace empty;
    EXPECT_THROW((void)eng.run(empty, bad), PreconditionError);
  }
}

// -------------------------------------------------------------- LmcPolicy

TEST(LmcPolicy, CompletesMixedTrace) {
  Engine eng(homogeneous(4), ContentionModel::none());
  LmcPolicy policy(online_tables(4));
  const workload::Trace trace = small_online_trace();
  const SimResult r = eng.run(trace, policy);
  EXPECT_EQ(r.completed_count(), trace.size());
  EXPECT_TRUE(policy.idle());
}

TEST(LmcPolicy, InteractiveGetsImmediateService) {
  Engine eng(homogeneous(2), ContentionModel::none());
  LmcPolicy policy(online_tables(2));
  std::vector<core::Task> tasks{
      {.id = 0, .cycles = 9'000'000'000, .arrival = 0.0,
       .klass = core::TaskClass::kNonInteractive},
      {.id = 1, .cycles = 9'000'000'000, .arrival = 0.0,
       .klass = core::TaskClass::kNonInteractive},
      {.id = 2, .cycles = 3'000'000, .arrival = 1.0,
       .klass = core::TaskClass::kInteractive}};
  const SimResult r = eng.run(workload::Trace(std::move(tasks)), policy);
  // Both cores busy with submissions; the query must still complete almost
  // immediately (preemption at max frequency).
  EXPECT_LT(r.tasks[2].turnaround(), 0.01);
  EXPECT_EQ(r.completed_count(), 3u);
  // Exactly one submission was preempted and later resumed to completion.
  EXPECT_EQ(r.tasks[0].preemptions + r.tasks[1].preemptions, 1u);
}

TEST(LmcPolicy, ShortestNonInteractiveRunsFirst) {
  Engine eng(homogeneous(1), ContentionModel::none());
  LmcPolicy policy(online_tables(1));
  // Three submissions pile up while the first (long) one runs; among the
  // queued ones the shortest must complete first (Theorem 3 queue order).
  std::vector<core::Task> tasks{
      {.id = 0, .cycles = 5'000'000'000, .arrival = 0.0,
       .klass = core::TaskClass::kNonInteractive},
      {.id = 1, .cycles = 4'000'000'000, .arrival = 0.1,
       .klass = core::TaskClass::kNonInteractive},
      {.id = 2, .cycles = 1'000'000'000, .arrival = 0.2,
       .klass = core::TaskClass::kNonInteractive}};
  const SimResult r = eng.run(workload::Trace(std::move(tasks)), policy);
  EXPECT_LT(r.tasks[2].finish, r.tasks[1].finish);
  EXPECT_EQ(r.completed_count(), 3u);
}

TEST(LmcPolicy, TableCountMustMatchCores) {
  Engine eng(homogeneous(3), ContentionModel::none());
  LmcPolicy policy(online_tables(2));
  workload::Trace empty;
  EXPECT_THROW((void)eng.run(empty, policy), PreconditionError);
}

TEST(LmcPolicy, HandlesJudgegirlScaleTrace) {
  // A shrunk Judgegirl trace exercises bursts, preemption and queue churn.
  workload::JudgegirlConfig cfg;
  cfg.duration = 120.0;
  cfg.non_interactive_tasks = 60;
  cfg.interactive_tasks = 1500;
  const workload::Trace trace = workload::generate_judgegirl(cfg, 99);
  Engine eng(homogeneous(4), ContentionModel::none());
  LmcPolicy policy(online_tables(4));
  const SimResult r = eng.run(trace, policy);
  EXPECT_EQ(r.completed_count(), trace.size());
  // Interactive mean turnaround must be tiny compared to judging work.
  EXPECT_LT(r.mean_turnaround(core::TaskClass::kInteractive),
            r.mean_turnaround(core::TaskClass::kNonInteractive));
}

TEST(LmcPolicy, EstimatorDrivesDecisionsButActualCyclesExecute) {
  Engine eng(homogeneous(1), ContentionModel::none());
  // Estimator wildly underestimates task 0 and overestimates task 1, so
  // the queue order flips relative to the oracle; execution must still
  // charge the true cycles.
  LmcPolicy policy(online_tables(1), [](const core::Task& t) {
    return t.id == 0 ? Cycles{1'000} : Cycles{10'000'000'000};
  });
  std::vector<core::Task> tasks{
      {.id = 9, .cycles = 20'000'000'000, .arrival = 0.0,
       .klass = core::TaskClass::kNonInteractive},  // keeps the core busy
      {.id = 0, .cycles = 6'000'000'000, .arrival = 0.1,
       .klass = core::TaskClass::kNonInteractive},
      {.id = 1, .cycles = 1'000'000'000, .arrival = 0.2,
       .klass = core::TaskClass::kNonInteractive}};
  const SimResult r = eng.run(workload::Trace(std::move(tasks)), policy);
  EXPECT_EQ(r.completed_count(), 3u);
  // "Shortest estimated first": task 0 (estimated tiny) finishes before
  // task 1 despite actually being 6x bigger.
  EXPECT_LT(r.tasks[1].finish, r.tasks[2].finish);
  // Energy reflects ACTUAL cycles (within min/max per-cycle bounds).
  const core::EnergyModel m = core::EnergyModel::icpp2014_table2();
  EXPECT_GE(r.tasks[1].energy, 6e9 * m.energy_per_cycle(0) * 0.99);
}

TEST(LmcPolicy, CompletionHookObservesActualCycles) {
  Engine eng(homogeneous(2), ContentionModel::none());
  std::vector<std::pair<core::TaskId, Cycles>> seen;
  LmcPolicy policy(
      online_tables(2), [](const core::Task& t) { return t.cycles; },
      [&](core::TaskId id, Cycles actual) { seen.emplace_back(id, actual); });
  std::vector<core::Task> tasks{
      {.id = 5, .cycles = 2'000'000'000, .arrival = 0.0,
       .klass = core::TaskClass::kNonInteractive},
      {.id = 6, .cycles = 3'000'000, .arrival = 0.1,
       .klass = core::TaskClass::kInteractive}};  // hook skips interactive
  (void)eng.run(workload::Trace(std::move(tasks)), policy);
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0].first, 5u);
  EXPECT_EQ(seen[0].second, 2'000'000'000u);
}

TEST(LmcPolicy, ZeroEstimateRejected) {
  Engine eng(homogeneous(1), ContentionModel::none());
  LmcPolicy policy(online_tables(1),
                   [](const core::Task&) { return Cycles{0}; });
  std::vector<core::Task> tasks{
      {.id = 0, .cycles = 100, .arrival = 0.0,
       .klass = core::TaskClass::kNonInteractive}};
  EXPECT_THROW((void)eng.run(workload::Trace(std::move(tasks)), policy),
               PreconditionError);
}

TEST(LmcPolicy, NullEstimatorRejected) {
  EXPECT_THROW(LmcPolicy(online_tables(1), LmcPolicy::Estimator{}),
               PreconditionError);
}

// ------------------------------------------------------ PlannedBatchPolicy

TEST(PlannedPolicy, RejectsMismatchedPlan) {
  Engine eng(homogeneous(2), ContentionModel::none());
  core::Plan plan;
  plan.cores.resize(3);  // wrong core count
  PlannedBatchPolicy policy(plan);
  workload::Trace empty;
  EXPECT_THROW((void)eng.run(empty, policy), PreconditionError);
}

TEST(PlannedPolicy, RejectsDuplicateTaskInPlan) {
  core::Plan plan;
  plan.cores.resize(1);
  plan.cores[0].sequence = {core::ScheduledTask{1, 10, 0},
                            core::ScheduledTask{1, 10, 0}};
  EXPECT_THROW(PlannedBatchPolicy{plan}, PreconditionError);
}

TEST(PlannedPolicy, ExecutesSequencesInOrder) {
  Engine eng(homogeneous(2), ContentionModel::none());
  core::Plan plan;
  plan.cores.resize(2);
  plan.cores[0].sequence = {core::ScheduledTask{0, 1'000'000'000, 4},
                            core::ScheduledTask{1, 1'000'000'000, 0}};
  plan.cores[1].sequence = {core::ScheduledTask{2, 2'000'000'000, 4}};
  std::vector<core::Task> tasks{
      {.id = 0, .cycles = 1'000'000'000},
      {.id = 1, .cycles = 1'000'000'000},
      {.id = 2, .cycles = 2'000'000'000}};
  PlannedBatchPolicy policy(plan);
  const SimResult r = eng.run(workload::Trace(std::move(tasks)), policy);
  EXPECT_EQ(r.completed_count(), 3u);
  EXPECT_LT(r.tasks[0].finish, r.tasks[1].finish);
  // Task 0 at 3.0 GHz (0.33 s); task 1 after it at 1.6 GHz (0.625 s).
  EXPECT_NEAR(r.tasks[0].finish, 0.33, 1e-6);
  EXPECT_NEAR(r.tasks[1].finish, 0.33 + 0.625, 1e-6);
  EXPECT_TRUE(policy.idle());
}

// ------------------------------------------------------ decision streams

namespace dfr = obs::dfr;

constexpr std::size_t kDecisionCores = 3;

workload::Trace decision_trace() {
  workload::JudgegirlConfig cfg;
  cfg.duration = 40.0;
  cfg.non_interactive_tasks = 30;
  cfg.interactive_tasks = 120;
  return workload::generate_judgegirl(cfg, 11);
}

std::vector<dfr::Event> record_run(const workload::Trace& trace,
                                   sim::Policy& policy) {
  Engine eng(homogeneous(kDecisionCores), ContentionModel::none());
  obs::Recorder rec(1, std::size_t{1} << 20);
  eng.set_recorder(&rec.channel(0));
  const SimResult r = eng.run(trace, policy);
  EXPECT_EQ(r.completed_count(), trace.size());
  rec.drain();
  EXPECT_EQ(rec.events_dropped(), 0u);
  return rec.events();
}

bool is(const dfr::Event& e, dfr::EventType t) {
  return e.type == static_cast<std::uint8_t>(t);
}

struct DecisionCase {
  const char* name;
  std::unique_ptr<sim::Policy> (*make)(const workload::Trace&);
  dfr::PolicyKind kind;
  double re;
  double rt;

  friend void PrintTo(const DecisionCase& c, std::ostream* os) {
    *os << c.name;
  }
};

std::unique_ptr<sim::Policy> make_fifo(FifoPolicy::Placement placement,
                                       FifoPolicy::FreqMode freq,
                                       std::size_t rate_cap) {
  return std::make_unique<FifoPolicy>(FifoPolicy::Config{
      .placement = placement, .freq = freq, .rate_cap = rate_cap});
}

const DecisionCase kDecisionCases[] = {
    {"lmc",
     [](const workload::Trace&) -> std::unique_ptr<sim::Policy> {
       return std::make_unique<LmcPolicy>(online_tables(kDecisionCores));
     },
     dfr::PolicyKind::kLmc, 0.4, 0.1},
    {"olb",
     [](const workload::Trace&) {
       return make_fifo(FifoPolicy::Placement::kEarliestReady,
                        FifoPolicy::FreqMode::kMax,
                        static_cast<std::size_t>(-1));
     },
     dfr::PolicyKind::kFifo, 0.0, 0.0},
    {"od",
     [](const workload::Trace&) {
       return make_fifo(FifoPolicy::Placement::kRoundRobin,
                        FifoPolicy::FreqMode::kOndemand,
                        static_cast<std::size_t>(-1));
     },
     dfr::PolicyKind::kFifo, 0.0, 0.0},
    {"ps",
     [](const workload::Trace&) {
       const std::size_t rates =
           core::EnergyModel::icpp2014_table2().num_rates();
       return make_fifo(FifoPolicy::Placement::kEarliestReady,
                        FifoPolicy::FreqMode::kOndemand, (rates + 1) / 2 - 1);
     },
     dfr::PolicyKind::kFifo, 0.0, 0.0},
    {"planned",
     [](const workload::Trace& trace) -> std::unique_ptr<sim::Policy> {
       // Plan the trace's tasks as one batch; the policy then dispatches
       // each one as it arrives.
       std::vector<core::Task> batch = trace.tasks();
       for (core::Task& t : batch) t.arrival = 0.0;
       return std::make_unique<PlannedBatchPolicy>(core::workload_based_greedy(
           batch, online_tables(kDecisionCores)));
     },
     dfr::PolicyKind::kPlannedBatch, 0.0, 0.0},
    {"wbg",
     [](const workload::Trace&) -> std::unique_ptr<sim::Policy> {
       return std::make_unique<WbgRebalancePolicy>(
           online_tables(kDecisionCores));
     },
     dfr::PolicyKind::kWbgRebalance, 0.4, 0.1},
};

class DecisionStream : public ::testing::TestWithParam<DecisionCase> {};

// Every placement decision is recorded the same way: a run of one
// kCandidate per core (the winner flagged) immediately followed by its
// kPlacement, whose f0 is the winner's candidate cost bit for bit. A
// planned dispatch has no candidates (the plan weighed them offline).
TEST_P(DecisionStream, EveryPlacementCarriesItsCandidateRun) {
  const DecisionCase& c = GetParam();
  const workload::Trace trace = decision_trace();
  ASSERT_GT(trace.count(core::TaskClass::kInteractive), 0u);
  ASSERT_GT(trace.count(core::TaskClass::kNonInteractive), 0u);
  const auto policy = c.make(trace);
  const std::vector<dfr::Event> events = record_run(trace, *policy);

  std::size_t params = 0;
  std::size_t placements = 0;
  std::size_t replans = 0;
  std::vector<dfr::Event> run;
  for (const dfr::Event& e : events) {
    if (is(e, dfr::EventType::kCandidate)) {
      run.push_back(e);
      continue;
    }
    if (is(e, dfr::EventType::kParams)) {
      ++params;
      EXPECT_EQ(e.aux, static_cast<std::uint16_t>(c.kind));
      EXPECT_EQ(e.core, kDecisionCores);
      EXPECT_EQ(e.f0, c.re);
      EXPECT_EQ(e.f1, c.rt);
    }
    if (is(e, dfr::EventType::kReplan)) ++replans;
    if (!is(e, dfr::EventType::kPlacement)) {
      ASSERT_TRUE(run.empty()) << "candidates not followed by a placement";
      continue;
    }
    ++placements;
    if (e.aux == static_cast<std::uint16_t>(dfr::DecisionScope::kPlanned)) {
      EXPECT_TRUE(run.empty());
      continue;
    }
    ASSERT_EQ(run.size(), kDecisionCores) << "task " << e.task;
    std::size_t chosen = 0;
    for (std::size_t j = 0; j < run.size(); ++j) {
      const dfr::Event& cand = run[j];
      EXPECT_EQ(cand.task, e.task);
      EXPECT_EQ(cand.aux, e.aux);
      EXPECT_EQ(cand.core, j);
      if ((cand.flags & dfr::kFlagChosen) == 0) continue;
      ++chosen;
      EXPECT_EQ(cand.core, e.core);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(cand.f0),
                std::bit_cast<std::uint64_t>(e.f0));
    }
    EXPECT_EQ(chosen, 1u) << "task " << e.task;
    run.clear();
  }
  EXPECT_TRUE(run.empty());
  EXPECT_EQ(params, 1u);
  // One decision per arrival: a placement, or (WBG's non-interactive
  // arrivals) a full replan.
  EXPECT_EQ(placements + replans, trace.size());
}

INSTANTIATE_TEST_SUITE_P(
    Governors, DecisionStream, ::testing::ValuesIn(kDecisionCases),
    [](const ::testing::TestParamInfo<DecisionCase>& info) {
      return std::string(info.param.name);
    });

double margin_gauge() {
  return obs::Registry::global().gauge("governor.cost.margin_ratio").value();
}

// Round robin ignores load, so on a trace where every third task is huge
// it keeps piling work onto one core: the margin gauge must be positive
// and must be exactly what the recorded candidate runs say it is.
TEST(DecisionStream, RoundRobinMarginIsRecomputableFromTheRecording) {
  std::vector<core::Task> tasks;
  for (core::TaskId i = 0; i < 60; ++i) {
    tasks.push_back(core::Task{
        .id = i,
        .cycles = i % kDecisionCores == 0 ? Cycles{20'000'000'000}
                                           : Cycles{50'000'000},
        .arrival = 0.05 * static_cast<double>(i),
        .klass = core::TaskClass::kNonInteractive});
  }
  const workload::Trace trace(std::move(tasks));
  FifoPolicy od({.placement = FifoPolicy::Placement::kRoundRobin,
                 .freq = FifoPolicy::FreqMode::kOndemand});
  const std::vector<dfr::Event> events = record_run(trace, od);
  const double gauge = margin_gauge();

  double chosen_sum = 0.0;
  double best_sum = 0.0;
  double chosen = 0.0;
  double best = std::numeric_limits<double>::infinity();
  for (const dfr::Event& e : events) {
    if (is(e, dfr::EventType::kCandidate)) {
      if ((e.flags & dfr::kFlagChosen) != 0) chosen = e.f0;
      best = std::min(best, e.f0);
    } else if (is(e, dfr::EventType::kPlacement)) {
      chosen_sum += chosen;
      best_sum += best;
      best = std::numeric_limits<double>::infinity();
    }
  }
  ASSERT_GT(chosen_sum, 0.0);
  const double expected = (chosen_sum - best_sum) / chosen_sum;
  EXPECT_GT(gauge, 0.0);
  EXPECT_NEAR(gauge, expected, 1e-12 * expected);
}

TEST(DecisionStream, ArgminPolicyMarginStaysExactlyZero) {
  const workload::Trace trace = decision_trace();
  LmcPolicy lmc(online_tables(kDecisionCores));
  (void)record_run(trace, lmc);
  EXPECT_EQ(margin_gauge(), 0.0);
}

}  // namespace
}  // namespace dvfs::governors
