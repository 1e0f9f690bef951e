/// \file task_table.h
/// \brief Bounded per-task memory of the scheduling service: decision
///        status and request timeline in one flat record.
///
/// Every admitted task leaves one record behind: where it was placed
/// (`TaskStatus`, served by GET /schedule/{id}), its request-trace id, and
/// the lifecycle steps of its timeline (served by GET /tasks/{id}/trace).
/// A shard worker touches the record once at placement, once when
/// virtual execution begins and once when it ends, each time under one
/// stripe lock and, for a task that was never stolen, with no heap
/// allocation.
///
/// Layout, per stripe:
///
///  * **Records** live in a FIFO ring of fixed-size slots. A full ring
///    overwrites its oldest record, so one bound (`capacity`) covers both
///    the status and the trace of a task, and each overwrite counts as
///    one eviction. Ring storage is allocated in chunks as the ring first
///    reaches them, so memory follows occupancy, not capacity.
///  * **Index**: open addressing from task id to ring slot, linear
///    probing with backward-shift deletion. It doubles whenever it would
///    pass half full, so it too grows with occupancy.
///  * **Spill**: a never-stolen task has exactly `kInlineSteps` steps
///    (submit_recv … exec_end), which fit in the record. The extra steps
///    of a stolen task go to a side map that only stolen tasks use.
///
/// Stripes follow the service's admission route, so a shard's worker
/// writes mostly its own stripe; the index hashes on bits independent of
/// that choice.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "dvfs/common.h"
#include "dvfs/core/task.h"
#include "dvfs/obs/metrics.h"
#include "dvfs/obs/reqtrace.h"

namespace dvfs::svc {

/// Where a task ended up, queryable via `status()` / GET /schedule/{id}.
struct TaskStatus {
  using State = obs::reqtrace::TaskState;
  State state = State::kQueued;
  std::uint16_t shard = 0;
  std::uint16_t core = 0;  ///< global core index
  std::uint16_t rate_idx = 0;
  bool stolen = false;  ///< placed after a work-steal migration
  Cycles cycles = 0;
  Money marginal = 0.0;  ///< exact queue-cost delta of the placement
  std::uint64_t trace = 0;  ///< request-trace id assigned at ingress
  double placed_s = 0.0;    ///< placement instant (steady s since start)
};

class TaskTable {
 public:
  using Step = obs::reqtrace::Step;

  /// Steps a record holds without spilling: the full lifecycle of a task
  /// that was never stolen.
  static constexpr std::size_t kInlineSteps = 7;

  /// Remembers at most max(1, capacity / stripes) tasks per stripe;
  /// `evicted` counts every record the bound overwrites.
  TaskTable(std::size_t capacity, std::size_t stripes,
            obs::Counter& evicted);
  ~TaskTable();

  TaskTable(const TaskTable&) = delete;
  TaskTable& operator=(const TaskTable&) = delete;

  /// Records a placement: inserts `id` (evicting its stripe's oldest
  /// record when full) or, for a task placed again after a steal,
  /// overwrites its status. A zero `st.trace` keeps the trace id already
  /// recorded. `steps` are appended to the timeline.
  void place(core::TaskId id, const TaskStatus& st,
             std::span<const Step> steps);

  /// Appends `step` to a remembered task and moves it to the state the
  /// step's stage implies. Returns the updated status; nullopt (and
  /// nothing recorded) for an unknown or evicted id.
  std::optional<TaskStatus> advance(core::TaskId id, const Step& step);

  /// The task's trace id; 0 for an unknown or evicted id.
  [[nodiscard]] std::uint64_t trace_of(core::TaskId id) const;

  /// Decision lookup; nullopt for unknown (or evicted) ids.
  [[nodiscard]] std::optional<TaskStatus> status(core::TaskId id) const;

  /// Snapshot of the task's timeline so far, steps canonically sorted;
  /// nullopt for unknown (or evicted) ids.
  [[nodiscard]] std::optional<obs::reqtrace::Timeline> get(
      core::TaskId id) const;

  /// Records overwritten to stay within capacity (exact; relaxed).
  [[nodiscard]] std::uint64_t evicted() const { return evicted_.value(); }

  /// Index slots allocated over all stripes (test support: the index
  /// must track occupancy, not capacity).
  [[nodiscard]] std::size_t index_slots() const;

  /// The 32-bit hash the index probes from (slot = hash mod index size).
  /// Exposed so tests can aim ids at one home slot.
  [[nodiscard]] static std::uint32_t index_hash(core::TaskId id);

 private:
  struct Record;
  struct Stripe;

  [[nodiscard]] Stripe& stripe_for(core::TaskId id) const;

  std::size_t per_stripe_capacity_;
  std::vector<std::unique_ptr<Stripe>> stripes_;
  obs::Counter& evicted_;
};

}  // namespace dvfs::svc
