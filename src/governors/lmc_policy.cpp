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
  lane_.reset(engine.num_cores());
  const core::CostParams& p = lmc_.queue(0).table().params();
  engine.record_params(obs::dfr::PolicyKind::kLmc, p.re, p.rt);
}

std::size_t LmcPolicy::running_rate(std::size_t core) const {
  return lmc_.queue(core).table().best_rate(lmc_.queue(core).size() + 1);
}

void LmcPolicy::start_next(sim::Engine& engine, std::size_t core) {
  if (engine.busy(core)) return;
  const std::size_t pm =
      lmc_.queue(core).table().model().rates().highest_index();
  if (lane_.start_next(engine, core, pm, [&] { return running_rate(core); })) {
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
    const std::size_t cores = lmc_.num_cores();
    std::vector<std::size_t>& extra = extra_scratch_;
    extra.resize(cores);
    for (std::size_t j = 0; j < cores; ++j) extra[j] = lane_.waiting(j);
    // Eq. 27 evaluates the interactive-cost expression on every core;
    // the argmin's own cost vector is the decision's candidate vector.
    lmc_stats().interactive_evals.add(cores);
    std::vector<Money>& costs = candidates_scratch_;
    const std::size_t core = lmc_.interactive_scan(estimate, extra, costs);
    engine.decide(obs::dfr::DecisionScope::kInteractive, task.id, core,
                  estimate, costs);
    lane_.admit(engine, core, task.id, static_cast<double>(task.cycles),
                lmc_.queue(core).table().model().rates().highest_index());
    return;
  }

  DVFS_REQUIRE(task.klass == core::TaskClass::kNonInteractive,
               "online traces contain interactive/non-interactive tasks");
  // The queues only know *waiting* tasks; a task already executing on core
  // j still delays everything placed there. Charge its remaining seconds
  // at Rt so busy cores compete fairly with idle ones.
  std::vector<Money>& offsets = offsets_scratch_;
  offsets.assign(lmc_.num_cores(), 0.0);
  for (std::size_t j = 0; j < lmc_.num_cores(); ++j) {
    if (!engine.busy(j)) continue;
    const core::CostTable& t = lmc_.queue(j).table();
    const Seconds remaining =
        engine.remaining_cycles(j) *
        t.model().time_per_cycle(engine.current_rate(j));
    offsets[j] = t.params().rt * remaining;
  }
  // One marginal-cost probe per core, then one placement.
  lmc_stats().marginal_evals.add(lmc_.num_cores());
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
    PreemptionLane::rerate(engine, placement.core,
                           running_rate(placement.core));
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
  if (!lane_.idle()) return false;
  for (std::size_t j = 0; j < lmc_.num_cores(); ++j) {
    if (!lmc_.queue(j).empty()) return false;
  }
  return true;
}

}  // namespace dvfs::governors
