/// \file task_table.h
/// \brief Bounded per-task memory of the scheduling service: decision
///        status and request timeline in one compact record of facts.
///
/// Every admitted task leaves one record behind: where it was placed
/// (`TaskStatus`, served by GET /schedule/{id}), its request-trace id, and
/// the instants of its lifecycle (its timeline, served by GET
/// /tasks/{id}/trace). A shard worker touches the record once at
/// placement, once when virtual execution begins and once when it ends,
/// each time under one stripe lock and, for a task placed once, with no
/// heap allocation.
///
/// A record stores facts, not steps: the id, trace id, cycles, marginal
/// cost, shard, core, rate index and queue depth of the placement, the
/// submission instant in integer nanoseconds and each later instant as a
/// 32-bit nanosecond gap after the one before it. The status's state and
/// `placed_s`, and every step with its details, are derived on read
/// (`obs::reqtrace::placement_steps`), so each time comes back bit for
/// bit as the shard recorded it.
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
///  * **Spill**: a task whose facts do not fit the record moves its
///    whole status and step list to a side map: a task placed again (a
///    reused id), an instant before the one it follows or more than
///    2^32 - 1 ns after it, and execution steps out of lifecycle order
///    or on a core other than the placement's.
///
/// Stripes follow the service's id hash (`SchedulingService::route`), so
/// a lookup needs only the id wherever admission placed the task; the
/// index hashes on bits independent of that choice.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
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
  Cycles cycles = 0;
  Money marginal = 0.0;  ///< exact queue-cost delta of the placement
  std::uint64_t trace = 0;  ///< request-trace id assigned at ingress
  double placed_s = 0.0;    ///< placement instant (run-clock seconds)
};

/// One placement of a task: what it decided and the facts its timeline
/// steps derive from.
struct Placed {
  std::uint64_t trace = 0;  ///< request-trace id assigned at ingress
  Cycles cycles = 0;
  Money marginal = 0.0;  ///< exact queue-cost delta of the placement
  obs::reqtrace::Placement at;
};

class TaskTable {
 public:
  /// Bytes of one ring slot on LP64 targets (checked where the record is
  /// defined).
  static constexpr std::size_t kRecordBytes = 72;

  /// Remembers at most max(1, capacity / stripes) tasks per stripe;
  /// `evicted` counts every record the bound overwrites, and `bytes`
  /// follows the bytes the table retains (records allocated, index
  /// slots, spill entries). The table adds to `bytes` and takes its
  /// share back when destroyed.
  TaskTable(std::size_t capacity, std::size_t stripes,
            obs::Counter& evicted, obs::Gauge& bytes);
  ~TaskTable();

  TaskTable(const TaskTable&) = delete;
  TaskTable& operator=(const TaskTable&) = delete;

  /// Records a placement: inserts `id` (evicting its stripe's oldest
  /// record when full) or, for an id placed again, overwrites its status
  /// and appends the new placement's steps.
  void place(core::TaskId id, const Placed& p);

  /// Records that `core` began (kExecBegin) or ended (kExecEnd) the
  /// task at `ns` and moves it to the state the stage implies. Returns
  /// the updated status; nullopt (and nothing recorded) for an unknown
  /// or evicted id.
  std::optional<TaskStatus> advance(core::TaskId id,
                                    obs::reqtrace::Stage stage,
                                    std::uint16_t core, std::uint64_t ns);

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
  struct Spilled;
  struct Stripe;

  [[nodiscard]] Stripe& stripe_for(core::TaskId id) const;
  /// Moves the stripe's change in retained bytes into the gauge.
  void account(Stripe& s);

  std::size_t per_stripe_capacity_;
  std::vector<std::unique_ptr<Stripe>> stripes_;
  obs::Counter& evicted_;
  obs::Gauge& bytes_;
};

}  // namespace dvfs::svc
