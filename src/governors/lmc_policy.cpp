#include "dvfs/governors/lmc_policy.h"

#include "dvfs/obs/metrics.h"

namespace dvfs::governors {

namespace {
// Resolved once; hot-path updates are relaxed atomic increments.
struct LmcStats {
  obs::Counter& placements =
      obs::Registry::global().counter("governor.lmc.placements");
  obs::Counter& marginal_evals =
      obs::Registry::global().counter("governor.lmc.marginal_evals");
  obs::Counter& interactive_evals =
      obs::Registry::global().counter("governor.lmc.interactive_evals");
};
LmcStats& lmc_stats() {
  static LmcStats s;
  return s;
}
}  // namespace

LmcPolicy::LmcPolicy(std::vector<core::CostTable> tables)
    : LmcPolicy(std::move(tables),
                [](const core::Task& t) { return t.cycles; }) {}

LmcPolicy::LmcPolicy(std::vector<core::CostTable> tables, Estimator estimator,
                     std::function<void(core::TaskId, Cycles)> on_completion)
    : lmc_(std::move(tables)),
      estimator_(std::move(estimator)),
      on_completion_(std::move(on_completion)) {
  DVFS_REQUIRE(static_cast<bool>(estimator_), "estimator must be callable");
}

void LmcPolicy::attach(sim::Engine& engine) {
  DVFS_REQUIRE(engine.num_cores() == lmc_.num_cores(),
               "one cost table per engine core required");
  for (std::size_t j = 0; j < engine.num_cores(); ++j) {
    DVFS_REQUIRE(
        lmc_.queue(j).table().model().num_rates() ==
            engine.model(j).num_rates(),
        "cost table and engine model disagree on the rate set");
  }
  per_core_.assign(engine.num_cores(), CoreState{});
  const core::CostParams& p = lmc_.queue(0).table().params();
  engine.record_params(obs::dfr::PolicyKind::kLmc, p.re, p.rt);
}

std::size_t LmcPolicy::running_rate(std::size_t core) const {
  return lmc_.queue(core).table().best_rate(lmc_.queue(core).size() + 1);
}

void LmcPolicy::adjust_running_rate(sim::Engine& engine, std::size_t core) {
  if (!engine.busy(core)) return;
  if (engine.running_record(core).klass == core::TaskClass::kInteractive) {
    return;
  }
  engine.set_rate(core, running_rate(core));
}

void LmcPolicy::start_next(sim::Engine& engine, std::size_t core) {
  if (engine.busy(core)) return;
  CoreState& st = per_core_[core];
  const std::size_t pm =
      lmc_.queue(core).table().model().rates().highest_index();
  if (!st.pending_interactive.empty()) {
    const Pending next = st.pending_interactive.front();
    st.pending_interactive.pop_front();
    engine.start(core, next.id, next.remaining_cycles, pm);
    return;
  }
  if (!st.preempted.empty()) {
    const Pending next = st.preempted.back();
    st.preempted.pop_back();
    engine.start(core, next.id, next.remaining_cycles, running_rate(core));
    return;
  }
  const auto dispatched = lmc_.pop_next(core);
  if (dispatched.has_value()) {
    // The queue holds the scheduler's *estimate*; the machine executes the
    // task's actual cycle requirement.
    const sim::TaskRecord& rec = engine.record(dispatched->id);
    engine.start(core, rec, static_cast<double>(rec.cycles),
                 dispatched->rate_idx);
  }
}

void LmcPolicy::on_arrival(sim::Engine& engine, const core::Task& task) {
  const Cycles estimate = estimator_(task);
  DVFS_REQUIRE(estimate > 0, "estimator returned zero cycles");
  if (task.klass == core::TaskClass::kInteractive) {
    // Eq. 27 core choice; N_j counts everything waiting on core j: the
    // queued non-interactive tasks (added by the scheduler itself) plus
    // pending interactive work and preempted remainders.
    std::vector<std::size_t>& extra = extra_scratch_;
    extra.resize(per_core_.size());
    for (std::size_t j = 0; j < per_core_.size(); ++j) {
      extra[j] =
          per_core_[j].pending_interactive.size() + per_core_[j].preempted.size();
    }
    // Eq. 27 evaluates the interactive-cost expression on every core;
    // the argmin's own cost vector is the decision's candidate vector.
    lmc_stats().interactive_evals.add(per_core_.size());
    std::vector<Money>& costs = candidates_scratch_;
    const std::size_t core = lmc_.interactive_scan(estimate, extra, costs);
    engine.decide(obs::dfr::DecisionScope::kInteractive, task.id, core,
                  estimate, costs);
    CoreState& st = per_core_[core];
    const std::size_t pm =
        lmc_.queue(core).table().model().rates().highest_index();

    if (!engine.busy(core)) {
      engine.start(core, task.id, static_cast<double>(task.cycles), pm);
      return;
    }
    if (engine.running_record(core).klass == core::TaskClass::kInteractive) {
      // Equal priority never preempts; wait FIFO.
      st.pending_interactive.push_back(
          Pending{task.id, static_cast<double>(task.cycles)});
      return;
    }
    const sim::Engine::Preempted p = engine.preempt(core);
    st.preempted.push_back(Pending{p.task, p.remaining_cycles});
    engine.start(core, task.id, static_cast<double>(task.cycles), pm);
    return;
  }

  DVFS_REQUIRE(task.klass == core::TaskClass::kNonInteractive,
               "online traces contain interactive/non-interactive tasks");
  // The queues only know *waiting* tasks; a task already executing on core
  // j still delays everything placed there. Charge its remaining seconds
  // at Rt so busy cores compete fairly with idle ones.
  std::vector<Money>& offsets = offsets_scratch_;
  offsets.assign(per_core_.size(), 0.0);
  for (std::size_t j = 0; j < per_core_.size(); ++j) {
    if (!engine.busy(j)) continue;
    const core::CostTable& t = lmc_.queue(j).table();
    const Seconds remaining =
        engine.remaining_cycles(j) *
        t.model().time_per_cycle(engine.current_rate(j));
    offsets[j] = t.params().rt * remaining;
  }
  // One marginal-cost probe per core, then one placement.
  lmc_stats().marginal_evals.add(per_core_.size());
  lmc_stats().placements.inc();
  std::vector<Money>& probed = candidates_scratch_;
  const auto placement =
      lmc_.place_non_interactive(estimate, task.id, offsets, &probed);
  // f1 carries the total queue cost *after* the insertion — the audit
  // baseline an offline replan is compared against.
  engine.decide(obs::dfr::DecisionScope::kNonInteractive, task.id,
                placement.core, estimate, probed, lmc_.total_queue_cost());
  if (!engine.busy(placement.core)) {
    start_next(engine, placement.core);
  } else {
    // Queue length changed: the running non-interactive task's positional
    // rate changed with it.
    adjust_running_rate(engine, placement.core);
  }
}

void LmcPolicy::on_complete(sim::Engine& engine, std::size_t core,
                            core::TaskId task) {
  if (on_completion_) {
    const sim::TaskRecord& rec = engine.record(task);
    if (rec.klass == core::TaskClass::kNonInteractive) {
      on_completion_(task, rec.cycles);
    }
  }
  start_next(engine, core);
}

bool LmcPolicy::idle() const {
  for (std::size_t j = 0; j < per_core_.size(); ++j) {
    if (!per_core_[j].pending_interactive.empty() ||
        !per_core_[j].preempted.empty() || !lmc_.queue(j).empty()) {
      return false;
    }
  }
  return true;
}

}  // namespace dvfs::governors
