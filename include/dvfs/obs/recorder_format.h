/// \file recorder_format.h
/// \brief On-disk format of the `.dfr` flight-recorder files.
///
/// A recording is a self-contained binary artifact:
///
///   [FileHeader]                 32 bytes, magic "DFR1" + version byte
///   [ChannelStats * num_channels] (v4+) per-channel {recorded, dropped}
///                                counters, 16 bytes each
///   [Event * header.event_count] fixed 48-byte records, time-ordered
///   [symbol epilogue]            optional (v5+): address → symbol-name
///                                table (magic "DFRS") so kProfSample
///                                frames symbolize offline, after ASLR
///                                made the raw addresses meaningless
///   [metrics epilogue]           optional: the final metrics-registry
///                                snapshot (magic "DFRM"), so a recording
///                                can reproduce `--metrics-out` exactly
///
/// Every event is fixed-size and trivially copyable so the hot path is a
/// single 48-byte store into a preallocated ring slot — no allocation, no
/// formatting, no branching on payload shape. Variable-size information
/// (the per-core candidate vector of a governor decision) is expressed as
/// a *run* of fixed-size kCandidate events followed by one kPlacement
/// event, all tagged with the same task id.
///
/// Integers and doubles are stored in native (little-endian on every
/// supported target) byte order; the version byte guards against reading
/// a recording with a mismatched layout. Bump kFormatVersion whenever
/// Event, FileHeader, or the epilogue encoding changes shape.
#pragma once

#include <cstdint>
#include <type_traits>

namespace dvfs::obs::dfr {

/// "DFR1" little-endian. The '1' is cosmetic; the real version gate is
/// FileHeader::version.
inline constexpr std::uint32_t kFileMagic = 0x31524644u;
/// "DFRM": starts the optional metrics-snapshot epilogue.
inline constexpr std::uint32_t kMetricsMagic = 0x4d524644u;
/// "DFRS": starts the optional (v5+) symbol-table epilogue. Like "DFRM"
/// it begins with 'D' — a byte no small EventType value can produce —
/// so the unfinalized-stream scanner can spot it mid-stream.
inline constexpr std::uint32_t kSymbolsMagic = 0x53524644u;
/// v2 added the hardware-telemetry events kHwPlanned/kHwSpan; v3 added
/// the SLO-engine events kHealthSample/kAlert; v4 added the request-
/// tracing span events kSubmitRecv..kExecEnd and a per-channel
/// {recorded, dropped} summary table between the header and the event
/// stream (so a starved shard ring is attributable after the channels
/// were merged); v5 added the CPU-profiler event kProfSample and the
/// optional "DFRS" symbol epilogue between the events and the metrics
/// epilogue. Event and FileHeader layouts are unchanged across all
/// bumps, so readers accept every version from kMinFormatVersion up —
/// a pre-v4 reader would reject a v4 file on the version byte rather
/// than misparse the table as events.
inline constexpr std::uint8_t kFormatVersion = 5;
inline constexpr std::uint8_t kMinFormatVersion = 1;

/// What a 48-byte record means. Values are part of the format: append
/// only, never renumber.
enum class EventType : std::uint8_t {
  kNone = 0,
  /// Run boundary. core = number of simulated cores.
  kRunBegin = 1,
  /// Cost parameters of the attached policy. aux = PolicyKind,
  /// f0 = Re, f1 = Rt, core = core count the policy manages.
  kParams = 2,
  /// A task entered the system. task = id, u0 = cycles, aux = TaskClass,
  /// f0 = deadline (may be +inf), time = arrival.
  kTaskArrival = 3,
  /// A task began (or resumed) executing. f0 = remaining cycles.
  kTaskStart = 4,
  /// An execution span closed (completion or preemption). f0 = span start
  /// time in seconds; kFlagPreempted distinguishes the two.
  kSpanEnd = 5,
  /// A task completed. f0 = busy joules attributed to the task,
  /// f1 = turnaround seconds.
  kTaskFinish = 6,
  /// A core's frequency actually changed. f0 = new rate in GHz.
  kFreqChange = 7,
  /// A policy callback returned. aux = DecisionKind, f1 = busy cores
  /// afterwards. f0 is written as 0: the callback's wall time is sampled
  /// into the `sim.governor.decision_ns` histogram instead, so recordings
  /// of one run repeat event for event. (Recordings made before that
  /// hold the wall-clock nanoseconds here; readers ignore the field.)
  kDecision = 8,
  /// One evaluated alternative of a placement decision. core = the
  /// candidate core, f0 = its marginal cost (Eq. 27 for interactive
  /// arrivals, the exact queue-cost delta for non-interactive ones,
  /// drain seconds for the OLB and round-robin baselines); kFlagChosen
  /// marks the winner (round robin's pick, not always the cheapest).
  kCandidate = 9,
  /// The decision itself. aux = DecisionScope, core = chosen core,
  /// f0 = chosen marginal cost (the chosen kCandidate's f0, bit for bit,
  /// wherever the decision has candidates), f1 = total queue cost after
  /// placement (LMC non-interactive only; 0 elsewhere), u0 = estimated
  /// cycles.
  kPlacement = 10,
  /// A WBG full replan. u0 = tasks replanned, aux = migrations caused.
  kReplan = 11,
  /// (v2) What the model predicted an execution span would cost, emitted
  /// just before the span runs. u0 = predicted cycles, f0 = predicted
  /// joules, f1 = predicted wall seconds (time-scaled).
  kHwPlanned = 12,
  /// (v2) What hardware telemetry measured for the span, emitted at span
  /// end. u0 = measured cycles, f0 = measured joules (already attributed
  /// across busy workers when the meter is package-wide), f1 = measured
  /// seconds, aux = the three provenance labels packed 5 bits each
  /// (see obs::hw::encode_sources).
  kHwSpan = 13,
  /// (v3) One SLO-rule evaluation by the health monitor. aux = rule
  /// index, task = FNV-1a hash of the rule name (guards replay against a
  /// mismatched rule config), f0/f1 = the evaluated short-/long-window
  /// signal values (NaN when the signal had no data), u0 = the
  /// health::AlertState after this evaluation. time_s is the monitor's
  /// wall-clock seconds since it started — its own axis, distinct from
  /// the simulated/scaled time of the scheduler events.
  kHealthSample = 14,
  /// (v3) An alert state transition. aux = rule index, task = rule-name
  /// hash, flags = the previous health::AlertState, u0 = the new one,
  /// f0/f1 = the short-/long-window values that triggered the change.
  kAlert = 15,
  /// (v4) Request-tracing span events. All of them carry task = task id
  /// and u0 = the 64-bit trace id assigned at ingress, and share the
  /// service's steady-clock-seconds-since-start time axis. Because
  /// ingress-stage timestamps ride inside the admission message and are
  /// recorded by the shard worker after dequeue, a single channel's
  /// stream is no longer strictly time-ordered — reconstruction sorts
  /// per task id.
  ///
  /// A task was accepted at the submission boundary (HTTP ingress or
  /// direct submit()). time = the ingress instant.
  kSubmitRecv = 16,
  /// The admission message was pushed onto a shard's MPSC ring.
  /// core = shard index, time = the push instant. Emitted once per hop
  /// (older recordings' steal forwards re-enqueue, so their stolen tasks
  /// have two).
  kRingEnqueue = 17,
  /// The shard worker popped the message from its ring. core = shard
  /// index, time = the batch-pop instant.
  kRingDequeue = 18,
  /// The task migrated shards through a work-steal forward. aux = the
  /// shard it left (the steal victim), core = the shard it joined,
  /// time = the forward instant. Only older recordings hold it: the
  /// service now balances shards at admission and never migrates.
  kStealHop = 19,
  /// The task entered a per-core run queue after placement.
  /// core = global core index, rate_idx = assigned rate step,
  /// u0 here = queue depth after insertion (trace id travels in the
  /// adjacent kPlacement/kSubmitRecv events for this type only).
  kShardQueue = 20,
  /// Virtual execution began. core = global core index.
  kExecBegin = 21,
  /// Virtual execution finished. core = global core index, f0 = the
  /// span's begin time in seconds (mirrors the kSpanEnd convention).
  kExecEnd = 22,
  /// (v5) One stack frame of a sampling-profiler CPU sample. A sample is
  /// a *run* of kProfSample events sharing time_s/task: rate_idx is the
  /// frame index counted from the leaf (rate_idx == 0 starts a new
  /// sample), u0 = the frame's code address (symbolized offline via the
  /// "DFRS" epilogue), task = kernel thread id, core = the shard the
  /// thread was serving (0xffff = unattributed), aux = the
  /// prof::Stage marker active when the timer fired, time_s = seconds
  /// since the profiler started (its own axis, like kHealthSample).
  kProfSample = 23,
};

/// Bit flags (Event::flags).
inline constexpr std::uint8_t kFlagPreempted = 0x01;
inline constexpr std::uint8_t kFlagChosen = 0x02;
/// kPlacement by the scheduling service for a task that migrated shards
/// through a work-steal forward (flag addition only — no version bump).
/// Only older recordings set it.
inline constexpr std::uint8_t kFlagStolen = 0x04;

/// Which policy callback a kDecision event closed (Event::aux).
enum class DecisionKind : std::uint16_t {
  kOnArrival = 0,
  kOnComplete = 1,
  kOnTimer = 2,
};

[[nodiscard]] constexpr const char* to_string(DecisionKind k) {
  switch (k) {
    case DecisionKind::kOnArrival: return "on_arrival";
    case DecisionKind::kOnComplete: return "on_complete";
    case DecisionKind::kOnTimer: return "on_timer";
  }
  return "?";
}

/// Snake-case name of an event type (tool output; a request-trace stage
/// is named after its event).
[[nodiscard]] constexpr const char* to_string(EventType t) {
  switch (t) {
    case EventType::kNone: return "none";
    case EventType::kRunBegin: return "run_begin";
    case EventType::kParams: return "params";
    case EventType::kTaskArrival: return "task_arrival";
    case EventType::kTaskStart: return "task_start";
    case EventType::kSpanEnd: return "span_end";
    case EventType::kTaskFinish: return "task_finish";
    case EventType::kFreqChange: return "freq_change";
    case EventType::kDecision: return "decision";
    case EventType::kCandidate: return "candidate";
    case EventType::kPlacement: return "placement";
    case EventType::kReplan: return "replan";
    case EventType::kHwPlanned: return "hw_planned";
    case EventType::kHwSpan: return "hw_span";
    case EventType::kHealthSample: return "health_sample";
    case EventType::kAlert: return "alert";
    case EventType::kSubmitRecv: return "submit_recv";
    case EventType::kRingEnqueue: return "ring_enqueue";
    case EventType::kRingDequeue: return "ring_dequeue";
    case EventType::kStealHop: return "steal_hop";
    case EventType::kShardQueue: return "shard_queue";
    case EventType::kExecBegin: return "exec_begin";
    case EventType::kExecEnd: return "exec_end";
    case EventType::kProfSample: return "prof_sample";
  }
  return "?";
}

/// What kind of placement a kPlacement/kCandidate run describes
/// (Event::aux).
enum class DecisionScope : std::uint16_t {
  kNonInteractive = 0,  ///< LMC queue insertion (marginal-cost argmin)
  kInteractive = 1,     ///< Eq. 27 core choice
  kFifo = 2,            ///< OLB/ondemand baseline placement
  kPlanned = 3,         ///< planned-batch dispatch
};

/// Which policy emitted a kParams event (Event::aux).
enum class PolicyKind : std::uint16_t {
  kLmc = 0,
  kWbgRebalance = 1,
  kFifo = 2,
  kPlannedBatch = 3,
};

/// One fixed-size recorded event. Meaning of the payload fields depends
/// on `type` (documented per EventType above); unused fields are zero.
struct Event {
  std::uint8_t type = 0;   ///< EventType
  std::uint8_t flags = 0;  ///< kFlag* bits
  std::uint16_t core = 0;
  std::uint16_t rate_idx = 0;
  std::uint16_t aux = 0;
  /// Seconds on the run clock (obs/clock.h), the origin every wall-clock
  /// channel of a recording shares; sim::Engine's channel: simulated s.
  double time_s = 0.0;
  std::uint64_t task = 0;
  std::uint64_t u0 = 0;
  double f0 = 0.0;
  double f1 = 0.0;
};
static_assert(sizeof(Event) == 48, "Event is part of the .dfr format");
static_assert(std::is_trivially_copyable_v<Event>,
              "events are written as raw bytes");

/// File prologue. `event_count` and `dropped` are back-patched when the
/// recording is finalized; a crash mid-write leaves event_count = ~0,
/// which readers treat as "stream: read events until the epilogue magic
/// or EOF".
struct FileHeader {
  std::uint32_t magic = kFileMagic;
  std::uint8_t version = kFormatVersion;
  std::uint8_t reserved0[3] = {0, 0, 0};
  std::uint32_t num_channels = 1;
  std::uint32_t reserved1 = 0;
  std::uint64_t event_count = 0;
  std::uint64_t dropped = 0;
};
static_assert(sizeof(FileHeader) == 32, "FileHeader is part of the format");

/// (v4) One per-channel summary record. `num_channels` of these follow
/// the header, in channel order. `recorded` counts events that made it
/// into the ring (so recorded + dropped = everything the producer tried
/// to record); `dropped` is that channel's share of header.dropped.
struct ChannelStats {
  std::uint64_t recorded = 0;
  std::uint64_t dropped = 0;
};
static_assert(sizeof(ChannelStats) == 16,
              "ChannelStats is part of the v4 format");

/// (v5) Symbol-table epilogue layout, after kSymbolsMagic:
///   u32 entry_count, then entry_count * (u64 address, u16 name_len,
///   name bytes). Addresses are the raw u0 values of kProfSample events
///   from this recording; names are whatever the symbolizer produced
///   (mangled or demangled). Torn-tolerant like the metrics epilogue: a
///   partial table downgrades to an epilogue note, the events still load.
///
/// Metrics-epilogue entry kinds (one byte each, after kMetricsMagic and a
/// u32 entry count). Layouts:
///   kCounter:   u16 name_len, name, u64 value
///   kGauge:     u16 name_len, name, f64 value
///   kHistogram: u16 name_len, name, u64 count, u64 sum, u32 n,
///               n * (u64 bucket_lower, u64 bucket_count)
enum class MetricKind : std::uint8_t {
  kCounter = 0,
  kGauge = 1,
  kHistogram = 2,
};

}  // namespace dvfs::obs::dfr
