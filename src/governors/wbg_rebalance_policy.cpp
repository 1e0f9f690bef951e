#include "dvfs/governors/wbg_rebalance_policy.h"

#include "dvfs/obs/metrics.h"
#include "dvfs/obs/recorder.h"

namespace dvfs::governors {

namespace {
struct WbgStats {
  obs::Counter& replans =
      obs::Registry::global().counter("governor.wbg.replans");
  obs::Counter& migrations =
      obs::Registry::global().counter("governor.wbg.migrations");
};
WbgStats& wbg_stats() {
  static WbgStats s;
  return s;
}
}  // namespace

WbgRebalancePolicy::WbgRebalancePolicy(std::vector<core::CostTable> tables,
                                       Cycles migration_penalty_cycles)
    : tables_(std::move(tables)), penalty_(migration_penalty_cycles) {
  DVFS_REQUIRE(!tables_.empty(), "need at least one core");
}

void WbgRebalancePolicy::attach(sim::Engine& engine) {
  DVFS_REQUIRE(engine.num_cores() == tables_.size(),
               "one cost table per engine core required");
  for (std::size_t j = 0; j < engine.num_cores(); ++j) {
    DVFS_REQUIRE(tables_[j].model().num_rates() ==
                     engine.model(j).num_rates(),
                 "cost table and engine model disagree on the rate set");
  }
  plans_.assign(tables_.size(), {});
  lane_.reset(tables_.size());
  queued_.clear();
  migrations_ = 0;
  replans_ = 0;
  const core::CostParams& p = tables_[0].params();
  engine.record_params(obs::dfr::PolicyKind::kWbgRebalance, p.re, p.rt);
}

void WbgRebalancePolicy::replan(sim::Engine& engine,
                                const std::vector<core::Task>& extra) {
  // Gather every queued (not running) non-interactive task plus arrivals.
  std::vector<core::Task> tasks;
  tasks.reserve(queued_.size() + extra.size());
  for (const auto& [id, q] : queued_) {
    tasks.push_back(core::Task{.id = id, .cycles = q.cycles});
  }
  for (const core::Task& t : extra) {
    tasks.push_back(core::Task{.id = t.id, .cycles = t.cycles});
  }
  const core::Plan plan = core::workload_based_greedy(tasks, tables_);
  ++replans_;
  wbg_stats().replans.inc();

  const std::size_t migrations_before = migrations_;
  for (std::size_t j = 0; j < plans_.size(); ++j) {
    plans_[j].assign(plan.cores[j].sequence.begin(),
                     plan.cores[j].sequence.end());
    for (const core::ScheduledTask& st : plan.cores[j].sequence) {
      auto it = queued_.find(st.task_id);
      if (it == queued_.end()) {
        // Newly arrived task: first placement is free.
        queued_.emplace(st.task_id, QueuedTask{st.cycles, j});
      } else if (it->second.home != j) {
        // Migration: charge the penalty to the moved task's future run.
        ++migrations_;
        wbg_stats().migrations.inc();
        it->second.home = j;
        it->second.cycles += penalty_;
      }
    }
  }
  if (obs::RecorderChannel* rc = engine.recorder()) {
    rc->record(
        {.type = static_cast<std::uint8_t>(obs::dfr::EventType::kReplan),
         .aux = static_cast<std::uint16_t>(migrations_ - migrations_before),
         .time_s = engine.now(),
         .task = extra.empty() ? 0 : extra.front().id,
         .u0 = tasks.size(),
         .f0 = core::evaluate_plan(plan, tables_).total()});
  }
}

Money WbgRebalancePolicy::interactive_cost(std::size_t core,
                                           Cycles cycles) const {
  const core::CostTable& t = tables_[core];
  const core::EnergyModel& m = t.model();
  const std::size_t pm = m.rates().highest_index();
  const std::size_t waiting = plans_[core].size() + lane_.waiting(core);
  const double l = static_cast<double>(cycles);
  return t.params().re * l * m.energy_per_cycle(pm) +
         t.params().rt * l * m.time_per_cycle(pm) *
             static_cast<double>(1 + waiting);
}

void WbgRebalancePolicy::start_next(sim::Engine& engine, std::size_t core) {
  if (engine.busy(core)) return;
  std::deque<core::ScheduledTask>& plan = plans_[core];
  const core::CostTable& table = tables_[core];
  if (lane_.start_next(engine, core, table.model().rates().highest_index(),
                       [&] { return table.best_rate(plan.size() + 1); })) {
    return;
  }
  if (!plan.empty()) {
    const core::ScheduledTask head = plan.front();
    plan.pop_front();
    const auto it = queued_.find(head.task_id);
    DVFS_REQUIRE(it != queued_.end(), "planned task not in the queued set");
    const Cycles cycles = it->second.cycles;  // includes penalties
    queued_.erase(it);
    engine.start(core, head.task_id, static_cast<double>(cycles),
                 head.rate_idx);
  }
}

void WbgRebalancePolicy::on_arrival(sim::Engine& engine,
                                    const core::Task& task) {
  if (task.klass == core::TaskClass::kInteractive) {
    costs_.resize(plans_.size());
    for (std::size_t j = 0; j < plans_.size(); ++j) {
      costs_[j] = interactive_cost(j, task.cycles);
    }
    const std::size_t core = sim::argmin(costs_);
    engine.decide(obs::dfr::DecisionScope::kInteractive, task.id, core,
                  task.cycles, costs_);
    lane_.admit(engine, core, task.id, static_cast<double>(task.cycles),
                tables_[core].model().rates().highest_index());
    return;
  }

  DVFS_REQUIRE(task.klass == core::TaskClass::kNonInteractive,
               "online traces contain interactive/non-interactive tasks");
  replan(engine, {task});
  for (std::size_t j = 0; j < plans_.size(); ++j) {
    start_next(engine, j);
    PreemptionLane::rerate(engine, j,
                           tables_[j].best_rate(plans_[j].size() + 1));
  }
}

void WbgRebalancePolicy::on_complete(sim::Engine& engine, std::size_t core,
                                     core::TaskId task) {
  (void)task;
  start_next(engine, core);
}

bool WbgRebalancePolicy::idle() const {
  if (!lane_.idle()) return false;
  for (const std::deque<core::ScheduledTask>& plan : plans_) {
    if (!plan.empty()) return false;
  }
  return true;
}

}  // namespace dvfs::governors
