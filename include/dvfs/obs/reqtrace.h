/// \file reqtrace.h
/// \brief Per-task request tracing across the sharded scheduling service.
///
/// Aggregate histograms answer "how slow is admission p99"; this layer
/// answers "why was *this* task slow". Every submitted task gets a 64-bit
/// trace id at ingress, and each lifecycle stage — submission receipt,
/// admission-ring enqueue/dequeue, LMC placement, run-queue insertion,
/// virtual execution — becomes one `Step` on the task's timeline (steal
/// migrations, too, in recordings of daemons that still stole work). The
/// same step stream exists in two places:
///
///  * **Live**: the service keeps each task's lifecycle as facts in its
///    bounded task table (svc/task_table.h), which rebuilds the steps
///    for `GET /tasks/{id}/trace` while the daemon runs.
///  * **Recorded**: shard workers emit the steps as `.dfr` v4 events
///    (dfr::EventType::kSubmitRecv..kExecEnd), so `build_timelines()`
///    can reconstruct every task's causal chain from a recording —
///    including after a crash, since the channels are drained through
///    the ordinary flight-recorder path.
///
/// Both copies take their steps from the same two functions:
/// `placement_steps()` turns the facts of one placement into its five
/// steps and `exec_step()` writes an execution step, each time from
/// integer nanoseconds on the run clock through `ns_to_s()` (obs/clock.h).
///
/// A stage is defined in one place: its row of the `kStages` table —
/// the event it is recorded as (which also names it), the event fields
/// that hold its details and their JSON/text names, the `Durations`
/// field its gap is charged to, and the task state it implies.
/// `to_event()`/`to_step()` are the only encoder and decoder; the task
/// table, `build_timelines()`, `timeline_json()` and `dvfs_inspect
/// trace` all read the same row, so the two copies cannot drift.
///
/// A `Timeline` derives per-stage durations by walking consecutive steps
/// and attributing each gap to the stage it ended at; the durations
/// telescope, so their sum equals the end-to-end latency (a property the
/// tests gate). `ExemplarStore` closes the loop from aggregates back to
/// traces: histogram observation sites record the trace id of a recent
/// sample per log2 bucket, and `prometheus_text()` attaches them as
/// OpenMetrics-style exemplars — a firing `admission-latency-p99` alert
/// links directly to one concrete offending trace.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "dvfs/obs/json.h"
#include "dvfs/obs/metrics.h"
#include "dvfs/obs/recorder_format.h"

namespace dvfs::obs::reqtrace {

/// One lifecycle stage. Order is the canonical within-instant order: two
/// steps with the same timestamp sort by stage, which makes a chain like
/// placement → steal-forward (same observed instant) reconstruct in
/// causal order.
enum class Stage : std::uint8_t {
  kSubmitRecv = 0,   ///< accepted at the submission boundary
  kStealHop = 1,     ///< migrated shards via a work-steal forward (older
                     ///< recordings only)
  kRingEnqueue = 2,  ///< pushed onto a shard's admission ring
  kRingDequeue = 3,  ///< popped by the shard worker
  kPlacement = 4,    ///< LMC placement decision
  kShardQueue = 5,   ///< entered the chosen core's run queue
  kExecBegin = 6,    ///< virtual execution began
  kExecEnd = 7,      ///< virtual execution finished
};

/// One timeline entry. `a`/`b` are stage-specific details, named and
/// stored as the stage's `kStages` row says.
struct Step {
  Stage stage = Stage::kSubmitRecv;
  double t_s = 0.0;  ///< seconds on the run clock (obs/clock.h)
  std::uint32_t a = 0;
  std::uint32_t b = 0;

  friend bool operator==(const Step&, const Step&) = default;
};

/// Where a task's end-to-end latency went. Stage gaps are attributed to
/// the step that *closed* them, so the fields telescope:
/// `total()` == last step time − first step time (modulo fp rounding).
struct Durations {
  double ingress_s = 0.0;     ///< submit accepted → ring push
  double ring_wait_s = 0.0;   ///< ring push → worker pop (all hops)
  double placement_s = 0.0;   ///< worker pop → placement decision
  double steal_wait_s = 0.0;  ///< queued on the victim → steal forward
  double queue_wait_s = 0.0;  ///< last placement → execution begin
  double exec_s = 0.0;        ///< execution begin → end

  [[nodiscard]] double total() const {
    return ingress_s + ring_wait_s + placement_s + steal_wait_s +
           queue_wait_s + exec_s;
  }
};

/// Where a task is in its lifecycle (`state` in GET /schedule/{id}).
enum class TaskState : std::uint8_t {
  kQueued = 0,
  kCompleted = 1,
  kRunning = 2,  ///< virtual execution in progress (time_scale > 0)
};

[[nodiscard]] constexpr const char* to_string(TaskState s) {
  constexpr const char* kNames[] = {"queued", "completed", "running"};
  return kNames[static_cast<std::size_t>(s)];
}

/// The `.dfr` event field a step detail is stored in.
enum class Field : std::uint8_t { kNone, kCore, kAux, kU0, kRateIdx };

/// Where `Step::a` or `Step::b` is stored, and its JSON/text name
/// (nullptr: the stage does not use it).
struct Detail {
  Field field = Field::kNone;
  const char* name = nullptr;
};

/// Everything the trace layer knows about one stage.
struct StageInfo {
  dfr::EventType event;  ///< recorded as; also names the stage
  Detail a{};
  Detail b{};
  bool u0_is_trace = true;  ///< the event's u0 carries the trace id
  /// The Durations field charged with the gap this stage closes
  /// (nullptr: the stage only ever opens a timeline).
  double Durations::*charged = nullptr;
  TaskState state = TaskState::kQueued;  ///< task state after the stage
};

/// The single definition of every stage, indexed by `Stage`. The task
/// table, the `.dfr` encoder/decoder, the duration accounting and every
/// rendering read it: adding a stage is adding a row.
inline constexpr std::array<StageInfo, 8> kStages{{
    {.event = dfr::EventType::kSubmitRecv},
    {.event = dfr::EventType::kStealHop, .a = {Field::kAux, "from_shard"},
     .b = {Field::kCore, "to_shard"}, .charged = &Durations::steal_wait_s},
    {.event = dfr::EventType::kRingEnqueue, .a = {Field::kCore, "shard"},
     .charged = &Durations::ingress_s},
    {.event = dfr::EventType::kRingDequeue, .a = {Field::kCore, "shard"},
     .charged = &Durations::ring_wait_s},
    // The decision record (obs::record_decision): u0 = estimated cycles.
    {.event = dfr::EventType::kPlacement, .a = {Field::kCore, "core"},
     .b = {Field::kRateIdx, "rate_idx"}, .u0_is_trace = false,
     .charged = &Durations::placement_s},
    // The shard also stores the rate index in the event's rate_idx.
    {.event = dfr::EventType::kShardQueue, .a = {Field::kCore, "core"},
     .b = {Field::kU0, "depth"}, .u0_is_trace = false,
     .charged = &Durations::placement_s},
    {.event = dfr::EventType::kExecBegin, .a = {Field::kCore, "core"},
     .charged = &Durations::queue_wait_s, .state = TaskState::kRunning},
    // The shard also stores the span's begin time in the event's f0.
    {.event = dfr::EventType::kExecEnd, .a = {Field::kCore, "core"},
     .charged = &Durations::exec_s, .state = TaskState::kCompleted},
}};

[[nodiscard]] constexpr const StageInfo& info(Stage s) {
  return kStages[static_cast<std::size_t>(s)];
}

/// The stage's name: its event's name ("submit_recv", "steal_hop", ...).
[[nodiscard]] constexpr const char* to_string(Stage s) {
  return dfr::to_string(info(s).event);
}

/// Calls `f(name, value)` for `s.a`, then `s.b`, where the stage names
/// them.
template <typename F>
constexpr void for_each_detail(const Step& s, F&& f) {
  const StageInfo& row = info(s.stage);
  if (row.a.name != nullptr) f(row.a.name, s.a);
  if (row.b.name != nullptr) f(row.b.name, s.b);
}

/// The `.dfr` event that records `s` for `task` (trace id in u0 where
/// the stage carries it). The only encoder of a step.
[[nodiscard]] dfr::Event to_event(std::uint64_t task, std::uint64_t trace,
                                  const Step& s);

/// The step an event records; nullopt for events that are not a stage.
/// The only decoder of a step.
[[nodiscard]] std::optional<Step> to_step(const dfr::Event& e);

/// The facts one pass of a task through a shard leaves behind: when it
/// arrived, crossed the shard's admission ring and was placed, and what
/// the placement chose.
struct Placement {
  std::uint64_t recv_ns = 0;     ///< submission boundary
  std::uint64_t enqueue_ns = 0;  ///< ring push
  std::uint64_t dequeue_ns = 0;  ///< worker pop
  std::uint64_t place_ns = 0;    ///< placement decision
  std::uint16_t shard = 0;       ///< shard that placed the task
  std::uint16_t core = 0;        ///< global core index
  std::uint16_t rate_idx = 0;
  std::uint32_t depth = 0;  ///< the core's queue length after the insert
};

/// The steps of one placement, in causal order: submit_recv,
/// ring_enqueue, ring_dequeue, placement, shard_queue. The only writer
/// of these steps: the shard records them and the task table rebuilds
/// them from the same facts.
[[nodiscard]] std::array<Step, 5> placement_steps(const Placement& p);

/// The step `core` leaves when it begins (kExecBegin) or ends
/// (kExecEnd) a task at `ns`.
[[nodiscard]] Step exec_step(Stage stage, std::uint16_t core,
                             std::uint64_t ns);

/// A task's reconstructed lifecycle: time-sorted steps plus derived
/// stage accounting.
struct Timeline {
  std::uint64_t task = 0;
  std::uint64_t trace_id = 0;
  std::vector<Step> steps;  ///< sorted by (t_s, stage)

  [[nodiscard]] bool stolen() const { return hops() > 0; }
  [[nodiscard]] std::size_t hops() const;
  [[nodiscard]] double begin_s() const;
  [[nodiscard]] double end_s() const;
  [[nodiscard]] double end_to_end_s() const { return end_s() - begin_s(); }
  [[nodiscard]] Durations durations() const;
  /// The admission stage (ingress / ring_wait / placement / steal_wait)
  /// that dominated this task's submit→placement path.
  [[nodiscard]] const char* admission_critical_stage() const;
};

/// Canonicalizes `steps` in place: sort by (t_s, stage).
void sort_steps(std::vector<Step>& steps);

/// Rebuilds one timeline per traced task from a drained/loaded event
/// stream. Only tasks that carry at least one v4 trace event participate
/// (a plain simulator recording yields no timelines); their kPlacement
/// events join the timeline as Stage::kPlacement. Returned sorted by
/// task id.
[[nodiscard]] std::vector<Timeline> build_timelines(
    const std::vector<dfr::Event>& events);

/// Full JSON rendering: steps (with per-step `dt_s`), the stage
/// duration breakdown, and the admission critical stage. Trace ids are
/// 16-hex-digit strings (64-bit values do not survive JSON doubles).
[[nodiscard]] Json timeline_json(const Timeline& t);

/// `0x1234...` / `1234...` 16-hex-digit rendering and parsing of trace
/// ids.
[[nodiscard]] std::string trace_id_hex(std::uint64_t id);
[[nodiscard]] std::optional<std::uint64_t> parse_trace_id(
    std::string_view text);

/// One recent sample that landed in a histogram bucket, with the trace
/// id that produced it.
struct Exemplar {
  std::uint64_t trace_id = 0;
  std::uint64_t value = 0;
  double t_s = 0.0;
};

/// Per-bucket exemplar slots for one histogram family. `observe()` is a
/// handful of release stores (plain moves on x86) guarded by a
/// seqlock-style version counter, cheap enough to run alongside every
/// `Histogram::observe()`; readers load the fields with acquire. Readers
/// retry a few times and give up (no exemplar this scrape) rather than
/// spin. Two producers racing on the same bucket may interleave fields;
/// each field still comes from a real observation in that bucket, which
/// is all an exemplar promises.
class ExemplarSeries {
 public:
  void observe(std::uint64_t value, std::uint64_t trace_id,
               double t_s) noexcept;
  [[nodiscard]] std::optional<Exemplar> bucket(std::size_t i) const noexcept;

 private:
  struct Slot {
    std::atomic<std::uint64_t> seq{0};
    std::atomic<std::uint64_t> trace{0};
    std::atomic<std::uint64_t> value{0};
    std::atomic<std::uint64_t> t_bits{0};
  };
  std::array<Slot, Histogram::kNumBuckets> slots_{};
};

/// Exemplar series keyed by registry histogram name (the same dotted
/// name, label block included). Get-or-create is mutexed like Registry
/// registration; the returned reference stays valid for the store's
/// lifetime.
class ExemplarStore {
 public:
  ExemplarStore() = default;
  ExemplarStore(const ExemplarStore&) = delete;
  ExemplarStore& operator=(const ExemplarStore&) = delete;

  ExemplarSeries& series(const std::string& histogram_name);
  [[nodiscard]] const ExemplarSeries* find(
      const std::string& histogram_name) const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, ExemplarSeries> series_;
};

}  // namespace dvfs::obs::reqtrace
