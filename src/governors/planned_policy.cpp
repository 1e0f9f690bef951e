#include "dvfs/governors/planned_policy.h"

#include "dvfs/obs/metrics.h"

namespace dvfs::governors {

PlannedBatchPolicy::PlannedBatchPolicy(core::Plan plan)
    : plan_(std::move(plan)) {
  for (std::size_t j = 0; j < plan_.cores.size(); ++j) {
    for (const core::ScheduledTask& st : plan_.cores[j].sequence) {
      DVFS_REQUIRE(core_of_.emplace(st.task_id, j).second,
                   "task appears twice in the plan");
    }
  }
}

void PlannedBatchPolicy::attach(sim::Engine& engine) {
  DVFS_REQUIRE(engine.num_cores() == plan_.cores.size(),
               "plan core count must match the engine");
  for (std::size_t j = 0; j < plan_.cores.size(); ++j) {
    for (const core::ScheduledTask& st : plan_.cores[j].sequence) {
      DVFS_REQUIRE(st.rate_idx < engine.model(j).num_rates(),
                   "plan uses a rate the engine core lacks");
    }
  }
  next_index_.assign(plan_.cores.size(), 0);
  arrived_.clear();
  engine.record_params(obs::dfr::PolicyKind::kPlannedBatch);
}

void PlannedBatchPolicy::try_start(sim::Engine& engine, std::size_t core) {
  if (engine.busy(core)) return;
  const std::size_t idx = next_index_[core];
  if (idx >= plan_.cores[core].sequence.size()) return;
  const core::ScheduledTask& st = plan_.cores[core].sequence[idx];
  const auto it = arrived_.find(st.task_id);
  if (it == arrived_.end() || !it->second) return;  // not arrived yet
  next_index_[core] = idx + 1;
  static obs::Counter& dispatches =
      obs::Registry::global().counter("governor.planned.dispatches");
  dispatches.inc();
  // The plan pre-determined the placement: no candidates (the
  // alternatives were weighed offline at plan time).
  engine.decide(obs::dfr::DecisionScope::kPlanned, st.task_id, core,
                st.cycles, {}, 0.0, st.rate_idx);
  engine.start(core, st.task_id, static_cast<double>(st.cycles), st.rate_idx);
}

void PlannedBatchPolicy::on_arrival(sim::Engine& engine,
                                    const core::Task& task) {
  const auto it = core_of_.find(task.id);
  DVFS_REQUIRE(it != core_of_.end(), "trace task missing from the plan");
  arrived_[task.id] = true;
  try_start(engine, it->second);
}

void PlannedBatchPolicy::on_complete(sim::Engine& engine, std::size_t core,
                                     core::TaskId task) {
  (void)task;
  try_start(engine, core);
}

bool PlannedBatchPolicy::idle() const {
  for (std::size_t j = 0; j < plan_.cores.size(); ++j) {
    if (next_index_[j] < plan_.cores[j].sequence.size()) return false;
  }
  return true;
}

}  // namespace dvfs::governors
