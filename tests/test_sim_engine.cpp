#include "dvfs/sim/engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <ostream>
#include <random>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "dvfs/core/batch_multi.h"
#include "dvfs/governors/fifo_policy.h"
#include "dvfs/governors/lmc_policy.h"
#include "dvfs/governors/planned_policy.h"
#include "dvfs/governors/wbg_rebalance_policy.h"
#include "dvfs/obs/metrics.h"
#include "dvfs/obs/recorder.h"
#include "dvfs/sim/contention.h"
#include "dvfs/workload/generators.h"
#include "dvfs/workload/spec2006int.h"

namespace dvfs::sim {
namespace {

// Scriptable policy for unit-testing engine mechanics.
class ScriptPolicy : public Policy {
 public:
  std::function<void(Engine&, const core::Task&)> arrival =
      [](Engine&, const core::Task&) {};
  std::function<void(Engine&, std::size_t, core::TaskId)> complete =
      [](Engine&, std::size_t, core::TaskId) {};
  std::function<void(Engine&)> timer = [](Engine&) {};
  Seconds interval = 0.0;

  void on_arrival(Engine& e, const core::Task& t) override { arrival(e, t); }
  void on_complete(Engine& e, std::size_t c, core::TaskId id) override {
    complete(e, c, id);
  }
  void on_timer(Engine& e) override { timer(e); }
  [[nodiscard]] Seconds timer_interval() const override { return interval; }
};

core::EnergyModel gadget() { return core::EnergyModel::partition_gadget(); }

// Runs `fn` and expects a PreconditionError whose message contains `what`.
template <typename Fn>
void expect_precondition(Fn&& fn, const std::string& what) {
  try {
    fn();
    ADD_FAILURE() << "no exception; expected \"" << what << '"';
  } catch (const PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
        << e.what();
  }
}

workload::Trace one_task(Cycles cycles, Seconds arrival = 0.0) {
  return workload::Trace(std::vector<core::Task>{
      {.id = 1, .cycles = cycles, .arrival = arrival,
       .klass = core::TaskClass::kNonInteractive}});
}

TEST(Engine, EmptyTraceProducesEmptyResult) {
  Engine eng({gadget()}, ContentionModel::none());
  ScriptPolicy p;
  const SimResult r = eng.run(workload::Trace{}, p);
  EXPECT_TRUE(r.tasks.empty());
  EXPECT_DOUBLE_EQ(r.busy_energy, 0.0);
  EXPECT_DOUBLE_EQ(r.end_time, 0.0);
}

TEST(Engine, SingleTaskTimeAndEnergyExact) {
  // 10 cycles at the slow rate: T = 2 s/cycle -> 20 s, E = 1 J/cycle -> 10 J.
  Engine eng({gadget()}, ContentionModel::none());
  ScriptPolicy p;
  p.arrival = [](Engine& e, const core::Task& t) {
    e.start(0, t.id, static_cast<double>(t.cycles), 0);
  };
  const SimResult r = eng.run(one_task(10), p);
  ASSERT_EQ(r.tasks.size(), 1u);
  EXPECT_TRUE(r.tasks[0].completed());
  EXPECT_NEAR(r.tasks[0].finish, 20.0, 1e-9);
  EXPECT_NEAR(r.tasks[0].turnaround(), 20.0, 1e-9);
  EXPECT_NEAR(r.tasks[0].energy, 10.0, 1e-9);
  EXPECT_NEAR(r.busy_energy, 10.0, 1e-9);
  EXPECT_NEAR(r.end_time, 20.0, 1e-9);
}

TEST(Engine, ArrivalOffsetShiftsStartNotTurnaroundBase) {
  Engine eng({gadget()}, ContentionModel::none());
  ScriptPolicy p;
  p.arrival = [](Engine& e, const core::Task& t) {
    e.start(0, t.id, static_cast<double>(t.cycles), 1);
  };
  const SimResult r = eng.run(one_task(10, 5.0), p);
  EXPECT_NEAR(r.tasks[0].first_start, 5.0, 1e-9);
  EXPECT_NEAR(r.tasks[0].finish, 15.0, 1e-9);
  EXPECT_NEAR(r.tasks[0].turnaround(), 10.0, 1e-9);
  EXPECT_NEAR(r.tasks[0].waiting(), 0.0, 1e-9);
}

TEST(Engine, IdleEnergyIntegratesSeparately) {
  // Core 1 idles for the whole 10 s run at 0.5 W idle power.
  Engine eng({gadget(), gadget()}, ContentionModel::none(), 0.5);
  ScriptPolicy p;
  p.arrival = [](Engine& e, const core::Task& t) {
    e.start(0, t.id, static_cast<double>(t.cycles), 1);
  };
  const SimResult r = eng.run(one_task(10), p);
  EXPECT_NEAR(r.busy_energy, 40.0, 1e-9);
  EXPECT_NEAR(r.idle_energy, 0.5 * 10.0, 1e-9);  // only the idle core
}

TEST(Engine, ContentionStretchesOverlappingWork) {
  // Both cores busy with 10 fast cycles, alpha = 0.5 -> factor 1.5.
  Engine eng({gadget(), gadget()}, ContentionModel(0.5));
  ScriptPolicy p;
  p.arrival = [](Engine& e, const core::Task& t) {
    e.start(t.id == 1 ? 0 : 1, t.id, static_cast<double>(t.cycles), 1);
  };
  workload::Trace trace(std::vector<core::Task>{
      {.id = 1, .cycles = 10, .arrival = 0.0,
       .klass = core::TaskClass::kNonInteractive},
      {.id = 2, .cycles = 10, .arrival = 0.0,
       .klass = core::TaskClass::kNonInteractive}});
  const SimResult r = eng.run(trace, p);
  EXPECT_NEAR(r.tasks[0].finish, 15.0, 1e-9);
  EXPECT_NEAR(r.tasks[1].finish, 15.0, 1e-9);
  // Power is unchanged, so stretched time means more energy: 4 W * 15 s.
  EXPECT_NEAR(r.tasks[0].energy, 60.0, 1e-9);
}

TEST(Engine, ContentionPhasesIntegratePiecewise) {
  // Task A (10 cycles fast) starts at 0 alone; B (10 cycles fast) at t=5.
  // A: 5 cycles alone (5 s), 5 cycles contended (7.5 s) -> 12.5 s.
  // B: 5 cycles contended, then 5 alone -> finish 17.5 s.
  Engine eng({gadget(), gadget()}, ContentionModel(0.5));
  ScriptPolicy p;
  p.arrival = [](Engine& e, const core::Task& t) {
    e.start(t.id == 1 ? 0 : 1, t.id, static_cast<double>(t.cycles), 1);
  };
  workload::Trace trace(std::vector<core::Task>{
      {.id = 1, .cycles = 10, .arrival = 0.0,
       .klass = core::TaskClass::kNonInteractive},
      {.id = 2, .cycles = 10, .arrival = 5.0,
       .klass = core::TaskClass::kNonInteractive}});
  const SimResult r = eng.run(trace, p);
  EXPECT_NEAR(r.tasks[0].finish, 12.5, 1e-9);
  EXPECT_NEAR(r.tasks[1].finish, 17.5, 1e-9);
}

TEST(Engine, PreemptAndResumeConservesCycles) {
  Engine eng({gadget()}, ContentionModel::none());
  ScriptPolicy p;
  std::vector<Engine::Preempted> stash;
  p.arrival = [&](Engine& e, const core::Task& t) {
    if (t.id == 1) {
      e.start(0, t.id, static_cast<double>(t.cycles), 0);  // slow
    } else {
      stash.push_back(e.preempt(0));
      e.start(0, t.id, static_cast<double>(t.cycles), 1);  // fast
    }
  };
  p.complete = [&](Engine& e, std::size_t core, core::TaskId) {
    if (!stash.empty()) {
      const auto back = stash.back();
      stash.pop_back();
      e.start(core, back.task, back.remaining_cycles, 1);  // resume fast
    }
  };
  workload::Trace trace(std::vector<core::Task>{
      {.id = 1, .cycles = 10, .arrival = 0.0,
       .klass = core::TaskClass::kNonInteractive},
      {.id = 2, .cycles = 3, .arrival = 4.0,
       .klass = core::TaskClass::kInteractive}});
  const SimResult r = eng.run(trace, p);
  // Task 1: 2 cycles by t=4 (slow), preempted; task 2 runs 4..7; task 1
  // resumes fast with 8 cycles -> finishes at 15.
  EXPECT_NEAR(r.tasks[1].finish, 7.0, 1e-9);
  EXPECT_NEAR(r.tasks[0].finish, 15.0, 1e-9);
  EXPECT_EQ(r.tasks[0].preemptions, 1u);
  // Energy: 0.5 W * 4 s + 4 W * 8 s = 34 J for task 1; 12 J for task 2.
  EXPECT_NEAR(r.tasks[0].energy, 34.0, 1e-9);
  EXPECT_NEAR(r.tasks[1].energy, 12.0, 1e-9);
}

TEST(Engine, SetRateMidFlight) {
  Engine eng({gadget()}, ContentionModel::none());
  ScriptPolicy p;
  p.arrival = [](Engine& e, const core::Task& t) {
    e.start(0, t.id, static_cast<double>(t.cycles), 0);
  };
  p.interval = 10.0;
  bool switched = false;
  p.timer = [&](Engine& e) {
    if (!switched && e.busy(0)) {
      EXPECT_EQ(e.current_rate(0), 0u);
      EXPECT_NEAR(e.remaining_cycles(0), 5.0, 1e-9);
      e.set_rate(0, 1);
      switched = true;
    }
  };
  // 10 cycles: 5 slow cycles in the first 10 s, then 5 fast -> 15 s total.
  const SimResult r = eng.run(one_task(10), p);
  EXPECT_TRUE(switched);
  EXPECT_NEAR(r.tasks[0].finish, 15.0, 1e-9);
  EXPECT_NEAR(r.tasks[0].energy, 0.5 * 10 + 4.0 * 5, 1e-9);
}

TEST(Engine, TimerTicksWhileWorkRemains) {
  Engine eng({gadget()}, ContentionModel::none());
  ScriptPolicy p;
  p.arrival = [](Engine& e, const core::Task& t) {
    e.start(0, t.id, static_cast<double>(t.cycles), 1);  // 10 s
  };
  p.interval = 1.0;
  int ticks = 0;
  p.timer = [&](Engine&) { ++ticks; };
  (void)eng.run(one_task(10), p);
  EXPECT_GE(ticks, 9);
  EXPECT_LE(ticks, 12);
}

TEST(Engine, ControlSurfaceGuards) {
  Engine eng({gadget()}, ContentionModel::none());
  ScriptPolicy p;
  p.arrival = [](Engine& e, const core::Task& t) {
    EXPECT_THROW(e.start(1, t.id, 1.0, 0), PreconditionError);  // bad core
    EXPECT_THROW(e.start(0, t.id, 0.0, 0), PreconditionError);  // no cycles
    EXPECT_THROW(e.start(0, t.id, 1.0, 7), PreconditionError);  // bad rate
    EXPECT_THROW((void)e.preempt(0), PreconditionError);        // idle core
    EXPECT_THROW(e.set_rate(0, 0), PreconditionError);          // idle core
    e.start(0, t.id, static_cast<double>(t.cycles), 0);
    EXPECT_THROW(e.start(0, 99, 1.0, 0), PreconditionError);    // busy core
  };
  (void)eng.run(one_task(5), p);
  // Outside run() the control surface must refuse.
  EXPECT_THROW(eng.start(0, 1, 1.0, 0), PreconditionError);
}

TEST(Engine, DuplicateTaskIdsRejected) {
  Engine eng({gadget()}, ContentionModel::none());
  ScriptPolicy p;
  std::vector<core::Task> tasks{
      {.id = 1, .cycles = 5, .arrival = 0.0,
       .klass = core::TaskClass::kNonInteractive},
      {.id = 1, .cycles = 5, .arrival = 1.0,
       .klass = core::TaskClass::kNonInteractive}};
  const workload::Trace trace(std::move(tasks));
  expect_precondition([&] { (void)eng.run(trace, p); },
                      "duplicate task id in trace");
}

// The record index is a power-of-two table of at least twice the trace's
// size, probed linearly from fmix64(id): for 8 tasks its mask is 15. Ids
// brute-forced onto home slot 15 share one probe chain that wraps around
// to slot 0; every one must resolve, and a colliding id that has not
// arrived (or never will) must not.
TEST(Engine, RecordIndexResolvesOneProbeChain) {
  constexpr std::size_t kTasks = 8;
  constexpr std::uint64_t kMask = 15;
  const auto collides = [](core::TaskId id) {
    return (fmix64(id) & kMask) == kMask;
  };
  std::vector<core::Task> tasks;
  core::TaskId id = 1;
  for (; tasks.size() < kTasks; ++id) {
    if (!collides(id)) continue;
    tasks.push_back({.id = id,
                     .cycles = 1,
                     .arrival = static_cast<double>(tasks.size()),
                     .klass = core::TaskClass::kNonInteractive});
  }
  while (!collides(id)) ++id;
  const core::TaskId absent = id;

  Engine eng({gadget()}, ContentionModel::none());
  ScriptPolicy p;
  std::size_t arrived = 0;
  p.arrival = [&](Engine& e, const core::Task& t) {
    EXPECT_EQ(t.id, tasks[arrived].id);
    ++arrived;
    for (std::size_t i = 0; i < kTasks; ++i) {
      const core::TaskId want = tasks[i].id;
      if (i < arrived) {
        EXPECT_EQ(e.record(want).id, want);
        EXPECT_EQ(e.record(want).arrival, tasks[i].arrival);
      } else {
        expect_precondition([&] { (void)e.record(want); }, "unknown task id");
      }
    }
    expect_precondition([&] { (void)e.record(absent); }, "unknown task id");
    expect_precondition([&] { (void)e.record(0); }, "unknown task id");
  };
  const SimResult r = eng.run(workload::Trace(tasks), p);
  EXPECT_EQ(arrived, kTasks);
  EXPECT_EQ(r.tasks.size(), kTasks);
}

TEST(Engine, RunningRecordIsTheRunningTasksRecord) {
  Engine eng({gadget(), gadget()}, ContentionModel::none());
  ScriptPolicy p;
  p.arrival = [](Engine& e, const core::Task& t) {
    expect_precondition([&] { (void)e.running_record(0); }, "core is idle");
    e.start(0, t.id, static_cast<double>(t.cycles), 0);
    EXPECT_EQ(&e.running_record(0), &e.record(e.running_task(0)));
    EXPECT_EQ(e.running_record(0).id, t.id);
    expect_precondition([&] { (void)e.running_record(1); }, "core is idle");
    EXPECT_THROW((void)e.running_record(2), PreconditionError);  // bad core
  };
  p.complete = [](Engine& e, std::size_t core, core::TaskId) {
    expect_precondition([&] { (void)e.running_record(core); },
                        "core is idle");
  };
  (void)eng.run(one_task(5), p);
}

TEST(Engine, ReusableAcrossRuns) {
  Engine eng({gadget()}, ContentionModel::none());
  ScriptPolicy p;
  p.arrival = [](Engine& e, const core::Task& t) {
    e.start(0, t.id, static_cast<double>(t.cycles), 1);
  };
  const SimResult a = eng.run(one_task(10), p);
  const SimResult b = eng.run(one_task(10), p);
  EXPECT_NEAR(a.tasks[0].finish, b.tasks[0].finish, 1e-12);
  EXPECT_NEAR(a.busy_energy, b.busy_energy, 1e-12);
}

// A run that throws leaves the engine able to run again: the next run
// gives exactly what a fresh engine gives.
TEST(Engine, RunsAgainAfterARunThrows) {
  const std::vector<core::EnergyModel> models(2, gadget());
  std::vector<core::Task> tasks;
  for (core::TaskId id = 1; id <= 6; ++id) {
    tasks.push_back({.id = id,
                     .cycles = 3 * id,
                     .arrival = 0.5 * static_cast<double>(id - 1),
                     .klass = core::TaskClass::kNonInteractive});
  }
  const workload::Trace valid(tasks);
  tasks.back().id = 1;  // arrives while cores are busy
  const workload::Trace duplicate(std::move(tasks));

  Engine fresh(models, ContentionModel::none());
  governors::FifoPolicy fresh_policy({});
  const SimResult want = fresh.run(valid, fresh_policy);

  Engine eng(models, ContentionModel::none());
  governors::FifoPolicy failing({});
  expect_precondition([&] { (void)eng.run(duplicate, failing); },
                      "duplicate task id in trace");
  ScriptPolicy negative;
  negative.interval = -1.0;
  expect_precondition([&] { (void)eng.run(valid, negative); },
                      "timer interval cannot be negative");
  governors::FifoPolicy policy({});
  const SimResult got = eng.run(valid, policy);

  ASSERT_EQ(got.tasks.size(), want.tasks.size());
  for (std::size_t i = 0; i < want.tasks.size(); ++i) {
    EXPECT_EQ(got.tasks[i].id, want.tasks[i].id);
    EXPECT_EQ(got.tasks[i].first_start, want.tasks[i].first_start);
    EXPECT_EQ(got.tasks[i].finish, want.tasks[i].finish);
    EXPECT_EQ(got.tasks[i].energy, want.tasks[i].energy);
    EXPECT_EQ(got.tasks[i].preemptions, want.tasks[i].preemptions);
  }
  EXPECT_EQ(got.busy_energy, want.busy_energy);
  EXPECT_EQ(got.idle_energy, want.idle_energy);
  EXPECT_EQ(got.end_time, want.end_time);
  EXPECT_EQ(got.rate_residency, want.rate_residency);
}

// start() from a record equals start() by id; a record that is not one
// of this run's is refused.
TEST(Engine, StartFromARecordMatchesStartById) {
  const auto run_with = [](bool by_record) {
    Engine eng({gadget(), gadget()}, ContentionModel::none());
    ScriptPolicy p;
    p.arrival = [&](Engine& e, const core::Task& t) {
      const std::size_t core = t.id % 2;
      if (by_record) {
        const TaskRecord& rec = e.record(t.id);
        e.start(core, rec, static_cast<double>(rec.cycles), 1);
      } else {
        e.start(core, t.id, static_cast<double>(t.cycles), 1);
      }
    };
    std::vector<core::Task> tasks;
    for (core::TaskId id = 1; id <= 6; ++id) {
      tasks.push_back({.id = id, .cycles = id,
                       .arrival = 10.0 * static_cast<double>(id),
                       .klass = core::TaskClass::kNonInteractive});
    }
    return eng.run(workload::Trace(std::move(tasks)), p);
  };
  const SimResult by_id = run_with(false);
  const SimResult by_record = run_with(true);
  ASSERT_EQ(by_record.tasks.size(), by_id.tasks.size());
  for (std::size_t i = 0; i < by_id.tasks.size(); ++i) {
    EXPECT_EQ(by_record.tasks[i].first_start, by_id.tasks[i].first_start);
    EXPECT_EQ(by_record.tasks[i].finish, by_id.tasks[i].finish);
    EXPECT_EQ(by_record.tasks[i].energy, by_id.tasks[i].energy);
  }

  Engine eng({gadget()}, ContentionModel::none());
  ScriptPolicy p;
  const TaskRecord foreign{.id = 1, .cycles = 10};
  p.arrival = [&](Engine& e, const core::Task&) {
    e.start(0, foreign, 10.0, 0);
  };
  expect_precondition([&] { (void)eng.run(one_task(10), p); },
                      "record is not from this run");
}

// The engine's per-event statistics: decision timing samples one callback
// in Engine::kDecisionSampleEvery, and the run-local tallies reach the
// registry at least every Engine::kPublishEvents events and on every exit
// from run(), a throw included.
TEST(Engine, DecisionTimingIsSampledAndTalliesPublishOnEveryExit) {
  auto& reg = obs::Registry::global();
  const obs::Histogram& decision_ns = reg.histogram("sim.governor.decision_ns");
  const obs::Counter& arrivals = reg.counter("sim.events.arrival");
  const obs::Counter& completions = reg.counter("sim.events.completion");
  const obs::Counter& timers = reg.counter("sim.events.timer");
  const obs::Counter& starts = reg.counter("sim.tasks.started");
  const obs::Histogram& depth = reg.histogram("sim.event_queue_depth");
  const obs::Histogram& wait = reg.histogram("sim.task.queue_wait_us");

  // n one-cycle tasks, 2 s apart, each run at once on the only core for
  // 1 s: n arrivals and n completions, plus the 1.5 s timer's ticks.
  const auto spaced = [](std::size_t n) {
    std::vector<core::Task> tasks;
    for (std::size_t i = 0; i < n; ++i) {
      tasks.push_back({.id = i + 1, .cycles = 1,
                       .arrival = 2.0 * static_cast<double>(i),
                       .klass = core::TaskClass::kNonInteractive});
    }
    return workload::Trace(std::move(tasks));
  };
  for (const std::size_t n : {1u, 32u, 64u, 65u, 1000u}) {
    SCOPED_TRACE("tasks: " + std::to_string(n));
    Engine eng({gadget()}, ContentionModel::none());
    ScriptPolicy p;
    std::uint64_t callbacks = 0;
    p.interval = 1.5;
    p.arrival = [&](Engine& e, const core::Task& t) {
      ++callbacks;
      e.start(0, t.id, 1.0, 1);
    };
    p.complete = [&](Engine&, std::size_t, core::TaskId) { ++callbacks; };
    p.timer = [&](Engine&) { ++callbacks; };
    const std::uint64_t d0 = decision_ns.count(), t0 = timers.value();
    const SimResult r = eng.run(spaced(n), p);
    ASSERT_EQ(r.completed_count(), n);
    EXPECT_GT(timers.value() - t0, 0u);
    const std::uint64_t every = Engine::kDecisionSampleEvery;
    EXPECT_EQ(decision_ns.count() - d0, (callbacks + every - 1) / every)
        << callbacks << " callbacks";
  }

  // 9000 tasks, the last of which makes the policy throw: the tallies of
  // everything before it are published, and while the run went on the
  // registry never lagged it by more than kPublishEvents events.
  constexpr std::size_t kTasks = 9000;
  Engine eng({gadget()}, ContentionModel::none());
  ScriptPolicy p;
  const std::uint64_t a0 = arrivals.value(), c0 = completions.value(),
                      s0 = starts.value(), n0 = depth.count(),
                      w0 = wait.count();
  std::uint64_t seen = 0;
  std::uint64_t max_lag = 0;
  p.arrival = [&](Engine& e, const core::Task& t) {
    ++seen;
    // Events so far: this arrival, the earlier arrivals and completions.
    const std::uint64_t events = 2 * seen - 1;
    const std::uint64_t published =
        arrivals.value() - a0 + completions.value() - c0;
    max_lag = std::max(max_lag, events - published);
    if (seen == kTasks) throw std::runtime_error("policy failed");
    e.start(0, t.id, 1.0, 1);
  };
  EXPECT_THROW((void)eng.run(spaced(kTasks), p), std::runtime_error);
  EXPECT_LE(max_lag, Engine::kPublishEvents);
  EXPECT_GT(max_lag, 0u) << "tallies are not published per event";
  EXPECT_EQ(arrivals.value() - a0, kTasks);
  EXPECT_EQ(completions.value() - c0, kTasks - 1);
  EXPECT_EQ(starts.value() - s0, kTasks - 1);
  EXPECT_EQ(wait.count() - w0, kTasks - 1);
  EXPECT_EQ(depth.count() - n0, 2 * kTasks - 1);
}

// Integration: executing a WBG plan on an ideal engine must reproduce the
// analytic plan cost exactly (the paper's "Simulation" bar of Fig. 1).
TEST(Engine, PlannedExecutionMatchesAnalyticCost) {
  const core::CostTable table(core::EnergyModel::icpp2014_table2(),
                              core::CostParams{0.1, 0.4});
  const std::vector<core::CostTable> tables(4, table);
  const auto tasks = workload::spec_batch_tasks();
  const core::Plan plan = core::workload_based_greedy(tasks, tables);
  const core::PlanCost analytic = core::evaluate_plan(plan, tables);

  Engine eng(std::vector<core::EnergyModel>(4,
                                            core::EnergyModel::icpp2014_table2()),
             ContentionModel::none());
  governors::PlannedBatchPolicy policy(plan);
  const SimResult r = eng.run(workload::Trace(tasks), policy);

  EXPECT_EQ(r.completed_count(), tasks.size());
  EXPECT_NEAR(r.busy_energy, analytic.energy, 1e-6 * analytic.energy);
  EXPECT_NEAR(r.total_turnaround(), analytic.total_turnaround,
              1e-6 * analytic.total_turnaround);
  EXPECT_NEAR(r.end_time, analytic.makespan, 1e-6 * analytic.makespan);
  const core::CostParams cp{0.1, 0.4};
  EXPECT_NEAR(r.total_cost(cp), analytic.total(), 1e-6 * analytic.total());
}

TEST(Engine, ContentionRaisesPlannedExecutionCost) {
  // The paper's Fig. 1 gap: the contended run costs more than the ideal.
  const core::CostTable table(core::EnergyModel::icpp2014_table2(),
                              core::CostParams{0.1, 0.4});
  const std::vector<core::CostTable> tables(4, table);
  const auto tasks = workload::spec_batch_tasks();
  const core::Plan plan = core::workload_based_greedy(tasks, tables);

  Engine ideal(std::vector<core::EnergyModel>(
                   4, core::EnergyModel::icpp2014_table2()),
               ContentionModel::none());
  Engine real(std::vector<core::EnergyModel>(
                  4, core::EnergyModel::icpp2014_table2()),
              ContentionModel::icpp2014_quadcore());
  governors::PlannedBatchPolicy p1(plan);
  governors::PlannedBatchPolicy p2(plan);
  const SimResult ri = ideal.run(workload::Trace(tasks), p1);
  const SimResult rr = real.run(workload::Trace(tasks), p2);
  const core::CostParams cp{0.1, 0.4};
  EXPECT_GT(rr.total_cost(cp), ri.total_cost(cp));
  const double gap = rr.total_cost(cp) / ri.total_cost(cp);
  EXPECT_GT(gap, 1.01);
  EXPECT_LT(gap, 1.15);  // calibrated to the paper's ~8%
}

TEST(Engine, RateResidencyTracksFrequencies) {
  Engine eng({gadget(), gadget()}, ContentionModel::none());
  ScriptPolicy p;
  p.arrival = [](Engine& e, const core::Task& t) {
    // Task 1: 10 cycles slow on core 0 (20 s). Task 2: 10 fast on core 1
    // (10 s).
    e.start(t.id == 1 ? 0 : 1, t.id, static_cast<double>(t.cycles),
            t.id == 1 ? 0 : 1);
  };
  workload::Trace trace(std::vector<core::Task>{
      {.id = 1, .cycles = 10, .arrival = 0.0,
       .klass = core::TaskClass::kNonInteractive},
      {.id = 2, .cycles = 10, .arrival = 0.0,
       .klass = core::TaskClass::kNonInteractive}});
  const SimResult r = eng.run(trace, p);
  ASSERT_EQ(r.rate_residency.size(), 2u);
  EXPECT_NEAR(r.rate_residency[0][0], 20.0, 1e-9);
  EXPECT_NEAR(r.rate_residency[0][1], 0.0, 1e-9);
  EXPECT_NEAR(r.rate_residency[1][1], 10.0, 1e-9);
  EXPECT_NEAR(r.busy_seconds(0), 20.0, 1e-9);
  EXPECT_NEAR(r.busy_seconds(1), 10.0, 1e-9);
  EXPECT_NEAR(r.utilization(0), 1.0, 1e-9);       // busy for the whole run
  EXPECT_NEAR(r.utilization(1), 0.5, 1e-9);       // idle after t = 10
  const std::vector<double> share = r.rate_share();
  ASSERT_EQ(share.size(), 2u);
  EXPECT_NEAR(share[0], 20.0 / 30.0, 1e-9);
  EXPECT_NEAR(share[1], 10.0 / 30.0, 1e-9);
}

TEST(Engine, SetRateSplitsResidency) {
  Engine eng({gadget()}, ContentionModel::none());
  ScriptPolicy p;
  p.arrival = [](Engine& e, const core::Task& t) {
    e.start(0, t.id, static_cast<double>(t.cycles), 0);
  };
  p.interval = 10.0;
  p.timer = [](Engine& e) {
    if (e.busy(0) && e.current_rate(0) == 0) e.set_rate(0, 1);
  };
  const SimResult r = eng.run(one_task(10), p);  // 10 s slow + 5 s fast
  EXPECT_NEAR(r.rate_residency[0][0], 10.0, 1e-9);
  EXPECT_NEAR(r.rate_residency[0][1], 5.0, 1e-9);
}

TEST(Engine, EmptyRunHasEmptyRateShare) {
  Engine eng({gadget()}, ContentionModel::none());
  ScriptPolicy p;
  const SimResult r = eng.run(workload::Trace{}, p);
  EXPECT_TRUE(r.rate_share().empty());
  EXPECT_DOUBLE_EQ(r.utilization(0), 0.0);
  EXPECT_THROW((void)r.busy_seconds(1), PreconditionError);
}

TEST(Engine, TransitionLatencyStallsRateChanges) {
  // Latency 1 s. Task 1 (10 cycles fast): first start is free -> 10 s.
  // Task 2 (10 cycles slow): rate change 1->0 stalls 1 s -> finishes at
  // 10 + 1 + 20 = 31.
  Engine eng({gadget()}, ContentionModel::none(), 0.0, 1.0);
  ScriptPolicy p;
  std::vector<core::Task> backlog;
  p.arrival = [&](Engine& e, const core::Task& t) {
    if (!e.busy(0)) {
      e.start(0, t.id, static_cast<double>(t.cycles), t.id == 1 ? 1 : 0);
    } else {
      backlog.push_back(t);
    }
  };
  p.complete = [&](Engine& e, std::size_t, core::TaskId) {
    if (!backlog.empty()) {
      const core::Task t = backlog.front();
      backlog.erase(backlog.begin());
      e.start(0, t.id, static_cast<double>(t.cycles), t.id == 1 ? 1 : 0);
    }
  };
  workload::Trace trace(std::vector<core::Task>{
      {.id = 1, .cycles = 10, .arrival = 0.0,
       .klass = core::TaskClass::kNonInteractive},
      {.id = 2, .cycles = 10, .arrival = 0.0,
       .klass = core::TaskClass::kNonInteractive}});
  const SimResult r = eng.run(trace, p);
  EXPECT_NEAR(r.tasks[0].finish, 10.0, 1e-9) << "first rate setting is free";
  EXPECT_NEAR(r.tasks[1].finish, 31.0, 1e-9) << "1 s stall + 20 s run";
  // The stall burns busy power at the new (slow) rate: 0.5 W * 21 s.
  EXPECT_NEAR(r.tasks[1].energy, 0.5 * 21.0, 1e-9);
}

TEST(Engine, TransitionLatencyAppliesToMidFlightRerating) {
  Engine eng({gadget()}, ContentionModel::none(), 0.0, 2.0);
  ScriptPolicy p;
  p.arrival = [](Engine& e, const core::Task& t) {
    e.start(0, t.id, static_cast<double>(t.cycles), 0);  // slow
  };
  p.interval = 10.0;
  bool switched = false;
  p.timer = [&](Engine& e) {
    if (!switched && e.busy(0)) {
      e.set_rate(0, 1);
      switched = true;
    }
  };
  // 10 cycles: 5 slow in [0,10], then 2 s stall, then 5 fast -> 17 s.
  const SimResult r = eng.run(one_task(10), p);
  EXPECT_NEAR(r.tasks[0].finish, 17.0, 1e-9);
  // set_rate to the SAME rate must not stall (no-op path).
  Engine eng2({gadget()}, ContentionModel::none(), 0.0, 2.0);
  ScriptPolicy q;
  q.arrival = [](Engine& e, const core::Task& t) {
    e.start(0, t.id, static_cast<double>(t.cycles), 1);
  };
  q.interval = 3.0;
  q.timer = [](Engine& e) {
    if (e.busy(0)) e.set_rate(0, 1);  // same rate, free
  };
  const SimResult r2 = eng2.run(one_task(10), q);
  EXPECT_NEAR(r2.tasks[0].finish, 10.0, 1e-9);
}

TEST(Engine, TimerContinuesWhileBacklogWaitsOnIdleCores) {
  // A policy that deliberately parks the arrival and only starts it from
  // a later timer tick: the engine must keep timers alive while
  // Policy::idle() reports backlog even though every core is idle.
  class DeferredStart : public Policy {
   public:
    void on_arrival(Engine&, const core::Task& t) override {
      pending_.push_back(t);
    }
    void on_complete(Engine&, std::size_t, core::TaskId) override {}
    void on_timer(Engine& e) override {
      ++ticks_;
      if (ticks_ >= 3 && !pending_.empty() && !e.busy(0)) {
        const core::Task t = pending_.front();
        pending_.erase(pending_.begin());
        e.start(0, t.id, static_cast<double>(t.cycles), 1);
      }
    }
    [[nodiscard]] Seconds timer_interval() const override { return 1.0; }
    [[nodiscard]] bool idle() const override { return pending_.empty(); }
    int ticks_ = 0;

   private:
    std::vector<core::Task> pending_;
  };
  Engine eng({gadget()}, ContentionModel::none());
  DeferredStart policy;
  const SimResult r = eng.run(one_task(4), policy);
  ASSERT_EQ(r.completed_count(), 1u);
  EXPECT_GE(policy.ticks_, 3);
  EXPECT_NEAR(r.tasks[0].first_start, 3.0, 1e-9);
  EXPECT_NEAR(r.tasks[0].finish, 7.0, 1e-9);
}

TEST(Engine, HeterogeneousCoresUsePerCoreModels) {
  // Core 0 = gadget (T={2,1}); core 1 = a 3x faster single-rate core.
  const core::EnergyModel fast(core::RateSet({3.0}), {9.0}, {1.0 / 3.0});
  Engine eng({gadget(), fast}, ContentionModel::none());
  ScriptPolicy p;
  p.arrival = [](Engine& e, const core::Task& t) {
    if (t.id == 1) {
      e.start(0, t.id, static_cast<double>(t.cycles), 1);  // 1 s/cycle
    } else {
      e.start(1, t.id, static_cast<double>(t.cycles), 0);  // 1/3 s/cycle
    }
  };
  workload::Trace trace(std::vector<core::Task>{
      {.id = 1, .cycles = 6, .arrival = 0.0,
       .klass = core::TaskClass::kNonInteractive},
      {.id = 2, .cycles = 6, .arrival = 0.0,
       .klass = core::TaskClass::kNonInteractive}});
  const SimResult r = eng.run(trace, p);
  EXPECT_NEAR(r.tasks[0].finish, 6.0, 1e-9);
  EXPECT_NEAR(r.tasks[1].finish, 2.0, 1e-9);
  EXPECT_NEAR(r.tasks[0].energy, 6 * 4.0, 1e-9);
  EXPECT_NEAR(r.tasks[1].energy, 6 * 9.0, 1e-9);
  // Residency rows have per-core widths (2 rates vs 1).
  ASSERT_EQ(r.rate_residency[0].size(), 2u);
  ASSERT_EQ(r.rate_residency[1].size(), 1u);
}

TEST(Engine, TransitionChargedAcrossIdleGap) {
  // The core remembers its frequency across idleness: task 1 at the fast
  // rate, a 10 s gap, then task 2 at the slow rate still pays the stall.
  Engine eng({gadget()}, ContentionModel::none(), 0.0, 1.0);
  ScriptPolicy p;
  p.arrival = [](Engine& e, const core::Task& t) {
    e.start(0, t.id, static_cast<double>(t.cycles), t.id == 1 ? 1 : 0);
  };
  workload::Trace trace(std::vector<core::Task>{
      {.id = 1, .cycles = 5, .arrival = 0.0,
       .klass = core::TaskClass::kNonInteractive},   // 5 s fast
      {.id = 2, .cycles = 5, .arrival = 20.0,
       .klass = core::TaskClass::kNonInteractive}});  // slow after idle
  const SimResult r = eng.run(trace, p);
  EXPECT_NEAR(r.tasks[0].finish, 5.0, 1e-9);
  EXPECT_NEAR(r.tasks[1].finish, 20.0 + 1.0 + 10.0, 1e-9);
}

TEST(Engine, PreemptDuringStallDropsIt) {
  // Preempting a task that is still mid-transition abandons the pending
  // stall with it; the preemptor pays its own transition instead.
  Engine eng({gadget()}, ContentionModel::none(), 0.0, 4.0);
  ScriptPolicy p;
  std::vector<Engine::Preempted> stash;
  p.arrival = [&](Engine& e, const core::Task& t) {
    if (t.id == 1) {
      e.start(0, t.id, static_cast<double>(t.cycles), 1);  // fast, free boot
    } else if (t.id == 3) {
      stash.push_back(e.preempt(0));  // task 100 is mid-stall here (t=6)
      e.start(0, t.id, static_cast<double>(t.cycles), 0);  // same slow rate
    }
  };
  p.complete = [&](Engine& e, std::size_t core, core::TaskId id) {
    if (id == 1) {
      e.start(core, 100, 10.0, 0);  // rate change 1->0: stall 4 s
    } else if (id == 3 && !stash.empty()) {
      const auto back = stash.back();
      stash.pop_back();
      e.start(core, back.task, back.remaining_cycles, 0);
    }
  };
  workload::Trace trace(std::vector<core::Task>{
      {.id = 1, .cycles = 5, .arrival = 0.0,
       .klass = core::TaskClass::kNonInteractive},
      {.id = 100, .cycles = 10, .arrival = 0.0,
       .klass = core::TaskClass::kNonInteractive},
      {.id = 3, .cycles = 2, .arrival = 6.0,
       .klass = core::TaskClass::kInteractive}});
  // Timeline: task1 [0,5] fast. task100 starts at 5 slow, stalls [5,9].
  // At t=6 task3 preempts (task100 executed 0 cycles, stall dropped),
  // task3 runs slow [6,10] (same rate as the core's last setting: no new
  // stall), completes; task100 resumes at 10 with full 10 cycles and the
  // same rate -> no stall -> finishes at 30.
  const SimResult r = eng.run(trace, p);
  ASSERT_EQ(r.completed_count(), 3u);
  auto finish_of = [&](core::TaskId id) {
    for (const TaskRecord& t : r.tasks) {
      if (t.id == id) return t.finish;
    }
    ADD_FAILURE() << "task " << id << " missing";
    return -1.0;
  };
  EXPECT_NEAR(finish_of(3), 10.0, 1e-9);
  EXPECT_NEAR(finish_of(100), 30.0, 1e-9);
}

TEST(Engine, TransitionLatencyRejectsNegative) {
  EXPECT_THROW(Engine({gadget()}, ContentionModel::none(), 0.0, -0.1),
               PreconditionError);
}

// Chaos stress: a policy that takes random (but legal) actions — start on
// random idle cores at random rates, preempt, re-rate — must leave the
// engine's accounting consistent: every task completes exactly once,
// per-task energy is bounded by E(p_min)/E(p_max) per cycle (exact cycle
// conservation without contention), and busy_energy equals the sum of
// per-task energies.
class ChaosPolicy : public Policy {
 public:
  explicit ChaosPolicy(std::uint64_t seed) : rng_(seed) {}

  void on_arrival(Engine& e, const core::Task& t) override {
    backlog_.push_back({t.id, static_cast<double>(t.cycles)});
    act(e);
  }
  void on_complete(Engine& e, std::size_t, core::TaskId) override { act(e); }
  void on_timer(Engine& e) override { act(e); }
  [[nodiscard]] Seconds timer_interval() const override { return 0.7; }
  [[nodiscard]] bool idle() const override { return backlog_.empty(); }

 private:
  struct Item {
    core::TaskId id;
    double remaining;
  };

  void act(Engine& e) {
    // A few random legal moves per event.
    for (int moves = 0; moves < 3; ++moves) {
      const std::size_t core = rng_() % e.num_cores();
      const std::size_t num_rates = e.model(core).num_rates();
      switch (rng_() % 3) {
        case 0:  // start something if possible
          if (!e.busy(core) && !backlog_.empty()) {
            const Item item = backlog_.front();
            backlog_.erase(backlog_.begin());
            e.start(core, item.id, item.remaining, rng_() % num_rates);
          }
          break;
        case 1:  // preempt back into the backlog
          if (e.busy(core) && rng_() % 4 == 0) {
            const Engine::Preempted p = e.preempt(core);
            backlog_.push_back({p.task, p.remaining_cycles});
          }
          break;
        case 2:  // random re-rate
          if (e.busy(core)) {
            e.set_rate(core, rng_() % num_rates);
          }
          break;
      }
    }
    // Never strand work: fill every idle core from the backlog.
    for (std::size_t c = 0; c < e.num_cores(); ++c) {
      if (!e.busy(c) && !backlog_.empty()) {
        const Item item = backlog_.front();
        backlog_.erase(backlog_.begin());
        e.start(c, item.id, item.remaining, rng_() % e.model(c).num_rates());
      }
    }
  }

  std::mt19937_64 rng_;
  std::vector<Item> backlog_;
};

class EngineChaos : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(EngineChaos, AccountingSurvivesRandomLegalActions) {
  Engine eng({gadget(), gadget(), gadget()}, ContentionModel::none());
  ChaosPolicy policy(GetParam());
  std::vector<core::Task> tasks;
  std::mt19937_64 rng(GetParam() * 7919);
  for (core::TaskId i = 0; i < 120; ++i) {
    tasks.push_back(core::Task{
        .id = i,
        .cycles = 1 + rng() % 50,
        .arrival = static_cast<double>(rng() % 1000) / 10.0,
        .klass = core::TaskClass::kNonInteractive});
  }
  const workload::Trace trace(tasks);
  const SimResult r = eng.run(trace, policy);

  ASSERT_EQ(r.completed_count(), tasks.size());
  Joules sum_task_energy = 0.0;
  const core::EnergyModel m = gadget();
  for (const TaskRecord& rec : r.tasks) {
    ASSERT_TRUE(rec.completed());
    ASSERT_GE(rec.first_start, rec.arrival - 1e-9);
    ASSERT_GE(rec.finish, rec.first_start);
    // Exact cycle conservation bounds the energy: every cycle costs
    // between E(p_min) and E(p_max) joules.
    const double l = static_cast<double>(rec.cycles);
    ASSERT_GE(rec.energy, l * m.energy_per_cycle(0) - 1e-6);
    ASSERT_LE(rec.energy,
              l * m.energy_per_cycle(m.num_rates() - 1) + 1e-6);
    sum_task_energy += rec.energy;
  }
  EXPECT_NEAR(sum_task_energy, r.busy_energy, 1e-6 * r.busy_energy);
  // Total busy seconds bounded by cycles at the slowest rate.
  Seconds busy = 0.0;
  for (std::size_t c = 0; c < 3; ++c) busy += r.busy_seconds(c);
  const double total_cycles = static_cast<double>(trace.total_cycles());
  EXPECT_LE(busy, total_cycles * m.time_per_cycle(0) + 1e-6);
  EXPECT_GE(busy, total_cycles * m.time_per_cycle(m.num_rates() - 1) - 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineChaos,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

// ------------------------------------------------------------ event order
//
// The engine's pop order is part of its contract (engine.h): at equal
// times an arrival goes before a completion or timer, arrivals follow
// trace order, and dynamic events follow push order. These runs are built
// so that ties actually happen, on a model whose time per cycle is a
// power of two, so every completion instant is exact in binary and can
// coincide with an arrival. The goldens pin every cost bit, the event
// counts and the pending-event depth histogram; a changed tie rule moves
// at least one of them.

core::EnergyModel dyadic_model() {
  return core::EnergyModel(core::RateSet({1.0, 2.0, 4.0}), {0.25, 0.5, 1.0},
                           {1.0, 0.5, 0.25});
}

// Seeded mixed trace on a half-second grid (many shared instants), plus
// constructed ties: two arrivals at t = 3, an arrival on the 1 s timer
// tick at t = 5, and an 8-cycle task at t = 100 whose completion meets
// an arrival (t = 102, 104 or 108) when it starts at once and keeps one
// rate (lmc: 108, olb: 102).
std::vector<core::Task> tie_tasks(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<core::Task> tasks;
  core::TaskId id = 1;
  for (int i = 0; i < 40; ++i) {
    const bool interactive = rng() % 3 == 0;
    tasks.push_back(core::Task{
        .id = id++,
        .cycles = 1 + rng() % 8,
        .arrival = static_cast<double>(rng() % 80) / 2.0,
        .klass = interactive ? core::TaskClass::kInteractive
                             : core::TaskClass::kNonInteractive});
  }
  const auto add = [&](Cycles cycles, Seconds arrival) {
    tasks.push_back(core::Task{.id = id++,
                               .cycles = cycles,
                               .arrival = arrival,
                               .klass = core::TaskClass::kNonInteractive});
  };
  add(3, 3.0);
  add(2, 3.0);
  add(4, 5.0);
  add(8, 100.0);
  add(1, 102.0);
  add(1, 104.0);
  add(1, 108.0);
  return tasks;
}

std::string hex(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

std::string shortest(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

struct OrderGolden {
  const char* policy;
  std::uint64_t seed;
  const char* cost;
  const char* energy;
  std::uint64_t arrivals, completions, timers;
  std::uint64_t depth_sum, depth_count;
  double contention = 0.0;  // ContentionModel alpha
  Seconds transition_latency = 0.0;
};

void PrintTo(const OrderGolden& g, std::ostream* os) {
  *os << g.policy << " seed " << g.seed;
}

std::unique_ptr<Policy> make_order_policy(
    const std::string& name, const std::vector<core::Task>& tasks,
    std::size_t cores, const core::EnergyModel& model = dyadic_model()) {
  using governors::FifoPolicy;
  const std::vector<core::CostTable> tables(
      cores, core::CostTable(model, core::CostParams{0.4, 0.1}));
  if (name == "lmc") return std::make_unique<governors::LmcPolicy>(tables);
  if (name == "wbg") {
    return std::make_unique<governors::WbgRebalancePolicy>(tables);
  }
  if (name == "planned") {
    std::vector<core::Task> batch = tasks;
    for (core::Task& t : batch) t.arrival = 0.0;
    return std::make_unique<governors::PlannedBatchPolicy>(
        core::workload_based_greedy(batch, tables));
  }
  FifoPolicy::Config config;
  if (name == "od") {
    config.placement = FifoPolicy::Placement::kRoundRobin;
    config.freq = FifoPolicy::FreqMode::kOndemand;
  } else if (name == "ps") {
    config.freq = FifoPolicy::FreqMode::kOndemand;
    config.rate_cap = (model.num_rates() + 1) / 2 - 1;  // lower half
  }
  return std::make_unique<FifoPolicy>(config);
}

class EventOrder : public ::testing::TestWithParam<OrderGolden> {};

TEST_P(EventOrder, TiesResolveLikeTheGoldenRun) {
  const OrderGolden& g = GetParam();
  constexpr std::size_t kCores = 3;
  const std::vector<core::Task> tasks = tie_tasks(g.seed);
  std::unique_ptr<Policy> policy = make_order_policy(g.policy, tasks, kCores);

  auto& reg = obs::Registry::global();
  const obs::Counter& arrivals = reg.counter("sim.events.arrival");
  const obs::Counter& completions = reg.counter("sim.events.completion");
  const obs::Counter& timers = reg.counter("sim.events.timer");
  const obs::Histogram& depth = reg.histogram("sim.event_queue_depth");
  const std::uint64_t a0 = arrivals.value(), c0 = completions.value(),
                      t0 = timers.value(), s0 = depth.sum(),
                      n0 = depth.count();

  Engine eng(std::vector<core::EnergyModel>(kCores, dyadic_model()),
             ContentionModel(g.contention), 0.0, g.transition_latency);
  const SimResult r = eng.run(workload::Trace(tasks), *policy);
  ASSERT_EQ(r.completed_count(), tasks.size());

  const std::string cost = hex(r.total_cost(core::CostParams{0.4, 0.1}));
  const std::string energy = hex(r.busy_energy);
  const std::uint64_t n_arrivals = arrivals.value() - a0,
                      n_completions = completions.value() - c0,
                      n_timers = timers.value() - t0,
                      depth_sum = depth.sum() - s0,
                      depth_count = depth.count() - n0;
  // The kOrderGoldens row this run produced.
  SCOPED_TRACE(std::string("{\"") + g.policy + "\", " +
               std::to_string(g.seed) + ", \"" + cost + "\", \"" + energy +
               "\", " + std::to_string(n_arrivals) + ", " +
               std::to_string(n_completions) + ", " +
               std::to_string(n_timers) + ", " + std::to_string(depth_sum) +
               ", " + std::to_string(depth_count) + ", " +
               shortest(g.contention) + ", " +
               shortest(g.transition_latency) + "}");
  EXPECT_EQ(cost, g.cost);
  EXPECT_EQ(energy, g.energy);
  EXPECT_EQ(n_arrivals, g.arrivals);
  EXPECT_EQ(n_completions, g.completions);
  EXPECT_EQ(n_timers, g.timers);
  EXPECT_EQ(depth_sum, g.depth_sum);
  EXPECT_EQ(depth_count, g.depth_count);
}

// Captured from the heap-only event loop, which pre-loaded every arrival
// into the heap with a sequence number below every completion and timer;
// streamed arrivals must reproduce it bit for bit.
const OrderGolden kOrderGoldens[] = {
    {"lmc", 1, "0x1.bd0cccccd71bap+5", "0x1.7a3000000897p+6", 47, 47, 0, 2273,
     94},
    {"lmc", 2, "0x1.12f4ccccccccdp+6", "0x1.02d2p+7", 47, 47, 0, 2278, 94},
    {"olb", 1, "0x1.40ccccccccccdp+6", "0x1.78p+7", 47, 47, 0, 2296, 94},
    {"olb", 2, "0x1.62b3333333333p+6", "0x1.ap+7", 47, 47, 0, 2295, 94},
    {"od", 1, "0x1.2400000000001p+6", "0x1.41cp+7", 47, 47, 109, 3738, 203},
    {"od", 2, "0x1.3b8cccccccccdp+6", "0x1.5e4p+7", 47, 47, 109, 3874, 203},
    {"ps", 1, "0x1.9466666666667p+5", "0x1.5e8p+6", 47, 47, 109, 3758, 203},
    {"ps", 2, "0x1.b366666666667p+5", "0x1.898p+6", 47, 47, 109, 3892, 203},
    {"planned", 1, "0x1.c926666666666p+8", "0x1.dp+6", 47, 47, 0, 1269, 94},
    {"planned", 2, "0x1.cc00000000001p+8", "0x1.0cp+7", 47, 47, 0, 1269, 94},
    {"wbg", 1, "0x1.d0fd99999999ap+5", "0x1.9723p+6", 47, 47, 0, 2258, 94},
    {"wbg", 2, "0x1.1ca3333333333p+6", "0x1.1094p+7", 47, 47, 0, 2259, 94},
};

std::string order_golden_name(
    const ::testing::TestParamInfo<OrderGolden>& info) {
  return std::string(info.param.policy) + "_seed" +
         std::to_string(info.param.seed);
}

INSTANTIATE_TEST_SUITE_P(Policies, EventOrder,
                         ::testing::ValuesIn(kOrderGoldens),
                         order_golden_name);

// The re-key path: with contention every start, preemption and completion
// changes every busy core's speed, and with a transition latency a rate
// change stalls its core, so each state change re-keys every pending
// completion. Captured from the heap-based event loop (IndexedHeap
// update_key), which the per-core completion slots must reproduce.
const OrderGolden kRekeyGoldens[] = {
    {"lmc", 1, "0x1.0d3bbbbbbbbbdp+7", "0x1.c5c2000000004p+7",
     47, 47, 0, 2161, 94, 0.5, 0.25},
    {"lmc", 2, "0x1.2d80000000002p+7", "0x1.1462aaaaaaaadp+8",
     47, 47, 0, 2198, 94, 0.5, 0.25},
    {"olb", 1, "0x1.07711c71ce854p+7", "0x1.2fe9a12f70e3p+8",
     47, 47, 0, 2281, 94, 0.5, 0.25},
    {"olb", 2, "0x1.19b536fe1a8c4p+7", "0x1.468da12f684bcp+8",
     47, 47, 0, 2298, 94, 0.5, 0.25},
    {"od", 1, "0x1.32814fa4fa4fap+7", "0x1.56aeda12f684bp+8",
     47, 47, 110, 3755, 204, 0.5, 0.25},
    {"od", 2, "0x1.4bd64403cae75p+7", "0x1.770d8d3c0ca45p+8",
     47, 47, 110, 3885, 204, 0.5, 0.25},
    {"ps", 1, "0x1.038eeeeeeeeeep+7", "0x1.65bfffffffffcp+7",
     47, 47, 110, 3629, 204, 0.5, 0.25},
    {"ps", 2, "0x1.2dc8888888889p+7", "0x1.95eaaaaaaaaaap+7",
     47, 47, 110, 3720, 204, 0.5, 0.25},
    {"planned", 1, "0x1.0945dddddddddp+9", "0x1.ab65555555555p+7",
     47, 47, 0, 1269, 94, 0.5, 0.25},
    {"planned", 2, "0x1.10e0888888888p+9", "0x1.f175555555557p+7",
     47, 47, 0, 1269, 94, 0.5, 0.25},
    {"wbg", 1, "0x1.0a82ccccccccdp+7", "0x1.c8958p+7",
     47, 47, 0, 2171, 94, 0.5, 0.25},
    {"wbg", 2, "0x1.297bbbbbbbbbdp+7", "0x1.0d02000000002p+8",
     47, 47, 0, 2180, 94, 0.5, 0.25},
};

INSTANTIATE_TEST_SUITE_P(Rekey, EventOrder, ::testing::ValuesIn(kRekeyGoldens),
                         order_golden_name);

// A whole recorded run, pinned event for event: FNV-1a over the raw
// 48-byte events of a seeded judgegirl run on the Table 2 model. Two cores
// are overloaded near the end of the exam and four are not; on both,
// interactive arrivals preempt running work, and od/ps's ondemand timer
// moves frequencies. A change to preemption, resume order or resume rate,
// or to the governor step, changes the digest. Captured from the policies
// that each kept their own interactive queue and preempted stack.
struct DigestGolden {
  const char* policy;
  std::size_t cores;
  std::uint64_t events;
  std::uint64_t preemptions;  // spans closed by a preemption
  std::uint64_t digest;
};

void PrintTo(const DigestGolden& g, std::ostream* os) {
  *os << g.policy << " on " << g.cores << " cores";
}

std::uint64_t fnv1a(const std::vector<obs::dfr::Event>& events) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const obs::dfr::Event& e : events) {
    unsigned char bytes[sizeof e];
    std::memcpy(bytes, &e, sizeof e);
    for (const unsigned char b : bytes) {
      h ^= b;
      h *= 0x100000001b3ull;
    }
  }
  return h;
}

class RecordingDigest : public ::testing::TestWithParam<DigestGolden> {};

TEST_P(RecordingDigest, MatchesTheGoldenRun) {
  const DigestGolden& g = GetParam();
  workload::JudgegirlConfig cfg;
  cfg.duration = 120.0;
  cfg.non_interactive_tasks = 40;
  cfg.interactive_tasks = 400;
  const workload::Trace trace = workload::generate_judgegirl(cfg, 3);
  const core::EnergyModel model = core::EnergyModel::icpp2014_table2();
  std::unique_ptr<Policy> policy =
      make_order_policy(g.policy, trace.tasks(), g.cores, model);

  Engine eng(std::vector<core::EnergyModel>(g.cores, model),
             ContentionModel::none());
  obs::Recorder rec(1, std::size_t{1} << 20);
  eng.set_recorder(&rec.channel(0));
  const SimResult r = eng.run(trace, *policy);
  ASSERT_EQ(r.completed_count(), trace.size());
  rec.drain();
  ASSERT_EQ(rec.events_dropped(), 0u);

  const std::vector<obs::dfr::Event>& events = rec.events();
  std::uint64_t preemptions = 0;
  for (const obs::dfr::Event& e : events) {
    if (e.type == static_cast<std::uint8_t>(obs::dfr::EventType::kSpanEnd) &&
        (e.flags & obs::dfr::kFlagPreempted) != 0) {
      ++preemptions;
    }
  }
  const std::uint64_t digest = fnv1a(events);
  char row[160];
  std::snprintf(row, sizeof row, "{\"%s\", %zu, %zu, %llu, 0x%016llxull}",
                g.policy, g.cores, events.size(),
                static_cast<unsigned long long>(preemptions),
                static_cast<unsigned long long>(digest));
  SCOPED_TRACE(row);  // the kDigestGoldens row this run produced
  EXPECT_EQ(events.size(), g.events);
  EXPECT_EQ(preemptions, g.preemptions);
  EXPECT_EQ(digest, g.digest);
}

const DigestGolden kDigestGoldens[] = {
    {"lmc", 2, 4763, 188, 0xbb7e58770de3cdf3ull},
    {"lmc", 4, 5658, 191, 0xce15d0d53bd91025ull},
    {"olb", 2, 4028, 33, 0x757953de99a7e1caull},
    {"olb", 4, 4852, 5, 0xa3308ffe557a1520ull},
    {"od", 2, 4390, 114, 0x0ee754d706871445ull},
    {"od", 4, 5176, 72, 0xf1209cd79d568376ull},
    {"ps", 2, 4224, 36, 0xf4977e148d5da95dull},
    {"ps", 4, 5031, 5, 0xd63ff8da7ab62dd4ull},
    {"wbg", 2, 4566, 161, 0x9e3332b872342166ull},
    {"wbg", 4, 5199, 119, 0x95652a5e4782cc47ull},
};

INSTANTIATE_TEST_SUITE_P(
    Judgegirl, RecordingDigest, ::testing::ValuesIn(kDigestGoldens),
    [](const ::testing::TestParamInfo<DigestGolden>& info) {
      return std::string(info.param.policy) + "_" +
             std::to_string(info.param.cores) + "cores";
    });

// Two cores' completions re-keyed onto one instant: the one armed first
// fires first, whatever the core order. Core 2 starts task 1 before core 0
// starts task 2 at the same rate with the same cycles, so contention
// re-keys both to bit-identical times; a third task and a timer-driven rate
// change (with its transition stall) re-key them again on the way.
TEST(EventOrderTie, SameInstantCompletionsFireInArmOrder) {
  Engine eng(std::vector<core::EnergyModel>(3, dyadic_model()),
             ContentionModel(0.5), 0.0, /*transition_latency=*/0.25);
  ScriptPolicy p;
  p.interval = 1.0;
  p.arrival = [](Engine& e, const core::Task& t) {
    if (t.id == 1) e.start(2, t.id, static_cast<double>(t.cycles), 2);
    if (t.id == 2) e.start(0, t.id, static_cast<double>(t.cycles), 2);
    if (t.id == 3) e.start(1, t.id, static_cast<double>(t.cycles), 0);
  };
  p.timer = [](Engine& e) {
    if (e.busy(1) && e.current_rate(1) == 0) e.set_rate(1, 1);
  };
  std::vector<std::pair<std::size_t, core::TaskId>> order;
  p.complete = [&](Engine&, std::size_t core, core::TaskId id) {
    order.emplace_back(core, id);
  };
  const workload::Trace trace(std::vector<core::Task>{
      {.id = 1, .cycles = 4, .arrival = 0.0,
       .klass = core::TaskClass::kNonInteractive},
      {.id = 2, .cycles = 4, .arrival = 0.0,
       .klass = core::TaskClass::kNonInteractive},
      {.id = 3, .cycles = 1, .arrival = 0.5,
       .klass = core::TaskClass::kNonInteractive}});
  const SimResult r = eng.run(trace, p);
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], std::make_pair(std::size_t{2}, core::TaskId{1}));
  EXPECT_EQ(order[1], std::make_pair(std::size_t{0}, core::TaskId{2}));
  EXPECT_EQ(order[2], std::make_pair(std::size_t{1}, core::TaskId{3}));
  // A true tie: both finish at the same instant (up to the residue the
  // second core's re-key leaves).
  EXPECT_NEAR(r.tasks[0].finish, r.tasks[1].finish, 1e-12);
  EXPECT_LE(r.tasks[0].finish, r.tasks[1].finish);
}

TEST(Metrics, TurnaroundPercentiles) {
  SimResult r;
  for (int i = 1; i <= 100; ++i) {
    r.tasks.push_back(TaskRecord{.id = static_cast<core::TaskId>(i),
                                 .klass = core::TaskClass::kInteractive,
                                 .cycles = 1,
                                 .arrival = 0.0,
                                 .first_start = 0.0,
                                 .finish = static_cast<double>(i)});
  }
  EXPECT_NEAR(r.turnaround_percentile(core::TaskClass::kInteractive, 0.5),
              50.0, 1.0);
  EXPECT_NEAR(r.turnaround_percentile(core::TaskClass::kInteractive, 0.95),
              95.0, 1.0);
  EXPECT_DOUBLE_EQ(
      r.turnaround_percentile(core::TaskClass::kInteractive, 1.0), 100.0);
  EXPECT_DOUBLE_EQ(
      r.turnaround_percentile(core::TaskClass::kInteractive, 0.0), 1.0);
  EXPECT_THROW(
      (void)r.turnaround_percentile(core::TaskClass::kBatch, 0.5),
      PreconditionError);
  EXPECT_THROW(
      (void)r.turnaround_percentile(core::TaskClass::kInteractive, 1.5),
      PreconditionError);
}

TEST(Metrics, AggregatesFilterByClassAndCompletion) {
  SimResult r;
  r.tasks.push_back(TaskRecord{.id = 1,
                               .klass = core::TaskClass::kInteractive,
                               .cycles = 1,
                               .arrival = 0.0,
                               .first_start = 0.0,
                               .finish = 2.0});
  r.tasks.push_back(TaskRecord{.id = 2,
                               .klass = core::TaskClass::kNonInteractive,
                               .cycles = 1,
                               .arrival = 1.0,
                               .first_start = 1.0,
                               .finish = 4.0});
  r.tasks.push_back(TaskRecord{.id = 3,
                               .klass = core::TaskClass::kNonInteractive,
                               .cycles = 1,
                               .arrival = 0.0});  // never completed
  EXPECT_EQ(r.completed_count(), 2u);
  EXPECT_DOUBLE_EQ(r.total_turnaround(), 5.0);
  EXPECT_DOUBLE_EQ(r.total_turnaround(core::TaskClass::kInteractive), 2.0);
  EXPECT_DOUBLE_EQ(r.mean_turnaround(core::TaskClass::kNonInteractive), 3.0);
  EXPECT_THROW((void)r.mean_turnaround(core::TaskClass::kBatch),
               PreconditionError);
  EXPECT_THROW((void)r.tasks[2].turnaround(), PreconditionError);
  r.busy_energy = 10.0;
  const core::CostParams cp{2.0, 3.0};
  EXPECT_DOUBLE_EQ(r.energy_cost(cp), 20.0);
  EXPECT_DOUBLE_EQ(r.time_cost(cp), 15.0);
  EXPECT_DOUBLE_EQ(r.total_cost(cp), 35.0);
}

}  // namespace
}  // namespace dvfs::sim
