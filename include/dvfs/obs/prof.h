/// \file prof.h
/// \brief Always-on sampling CPU profiler with scheduler-stage
///        attribution and dependency-free pprof export.
///
/// The metrics/tracing layers say *that* a stage regressed; the profiler
/// says *where the CPU went* inside it (Eq. 27 scan vs. range-tree ops
/// vs. ring churn vs. HTTP parsing). Design:
///
///  * **Sampling.** Each profiled thread owns a per-thread POSIX timer
///    (`timer_create` on the thread's CPU clock, `SIGEV_THREAD_ID`
///    delivery) firing SIGPROF at a configurable rate (default 100 Hz).
///    CPU-clock timers only advance while the thread burns CPU, so idle
///    threads cost nothing and samples *are* CPU time.
///
///  * **Signal safety.** The SIGPROF handler does nothing but walk frame
///    pointers from the interrupted context (bounds-checked against the
///    thread's stack, captured at registration) and push one fixed-size
///    `Sample` into that thread's `SpscRing` (spsc_ring.h, the ring under
///    every recorder channel): release-store publish, tail-drop on full
///    with an exact relaxed drop counter. No allocation, no locks, no registry lookups
///    (the handler may interrupt a thread mid-`record()` on a shared
///    channel, which is exactly why it gets its own rings). A collector
///    thread drains the rings every few milliseconds.
///
///  * **Attribution.** Thread-local stage/shard markers — plain TLS
///    stores, set by the scheduler at drain/placement/exec
///    boundaries — ride inside every sample, so profiles break down by
///    pipeline stage and join against PR 8 trace timelines.
///
///  * **Surfacing.** Samples persist as `.dfr` v5 `kProfSample` event
///    runs (plus a "DFRS" symbol epilogue for offline reading), export
///    as gzipped pprof `profile.proto` (hand-rolled varint writer — the
///    observability layer adds no libraries) behind
///    `GET /debug/pprof/profile?seconds=N`, and render as folded stacks
///    / top-N tables via `dvfs_inspect prof`.
///
/// Everything here is Linux-specific (timer_create + SIGEV_THREAD_ID,
/// /proc/self/maps), like the rest of the serving stack.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "dvfs/obs/recorder_format.h"

namespace dvfs::obs {

class MetricsHttpServer;
class RecorderChannel;
class Registry;
class Counter;

namespace prof {

/// Which part of the scheduling pipeline the thread was executing when
/// the sample timer fired. Coarser than the reqtrace::Stage *event*
/// points on purpose: these are durations a thread lives inside, not
/// instants a task passes through. Values are recorded in `.dfr` files
/// (Event::aux of kProfSample): append only, never renumber.
enum class Stage : std::uint8_t {
  kNone = 0,       ///< unmarked (thread never set a stage)
  kIdle = 1,       ///< worker idle loop (backoff/yield)
  kDrain = 2,      ///< popping + routing admission-ring batches
  kPlacement = 3,  ///< LMC placement (Eq. 27 / range-tree work)
  kExec = 4,       ///< (virtual) execution bookkeeping
  kSteal = 5,      ///< serving a work-steal request (older recordings)
  kHttp = 6,       ///< HTTP request handling
};
inline constexpr std::size_t kNumStages = 7;

[[nodiscard]] const char* to_string(Stage s);

/// Shard marker value for "not serving any shard".
inline constexpr std::uint16_t kNoShard = 0xffff;

/// Thread-local attribution markers. Plain TLS bytes so the stores are
/// branch-free and safe to read from the signal handler; cheap enough to
/// leave in the hot path whether or not a profiler is running.
namespace detail {
extern thread_local std::uint8_t tls_stage;
extern thread_local std::uint16_t tls_shard;
}  // namespace detail

inline void set_stage(Stage s) noexcept {
  detail::tls_stage = static_cast<std::uint8_t>(s);
}
[[nodiscard]] inline Stage current_stage() noexcept {
  return static_cast<Stage>(detail::tls_stage);
}
inline void set_shard(std::uint16_t shard) noexcept {
  detail::tls_shard = shard;
}

/// RAII stage marker: restores the previous stage on scope exit, so
/// nested scopes (placement inside a drain batch) attribute correctly.
class ScopedStage {
 public:
  explicit ScopedStage(Stage s) noexcept : prev_(detail::tls_stage) {
    set_stage(s);
  }
  ~ScopedStage() { detail::tls_stage = prev_; }
  ScopedStage(const ScopedStage&) = delete;
  ScopedStage& operator=(const ScopedStage&) = delete;

 private:
  std::uint8_t prev_;
};

/// One fixed-size stack sample, exactly what the signal handler writes
/// into its ring slot. Frames are leaf-first; frames[0] is the
/// interrupted PC.
struct Sample {
  static constexpr std::size_t kMaxFrames = 32;
  double t_s = 0.0;  ///< run-clock seconds (obs/clock.h)
  std::uint32_t tid = 0;
  std::uint16_t shard = kNoShard;
  std::uint8_t stage = 0;  ///< Stage
  std::uint8_t num_frames = 0;
  std::uint64_t frames[kMaxFrames] = {};
};

/// A decoded sample with a variable-length stack (leaf first).
struct StackSample {
  double t_s = 0.0;
  std::uint32_t tid = 0;
  std::uint16_t shard = kNoShard;
  Stage stage = Stage::kNone;
  std::vector<std::uint64_t> frames;
};

/// Registers the calling thread with the profiler's static thread pool:
/// captures its kernel tid, CPU clock, and stack bounds, and — when a
/// profiler is running — arms its sample timer immediately. Returns an
/// inactive guard when the pool is full or the thread is already
/// registered. The guard unregisters on destruction (the thread's
/// not-yet-collected samples survive until the next collector pass).
class ThreadGuard {
 public:
  ThreadGuard() = default;
  ThreadGuard(ThreadGuard&& other) noexcept : slot_(other.slot_) {
    other.slot_ = nullptr;
  }
  ThreadGuard& operator=(ThreadGuard&& other) noexcept;
  ~ThreadGuard() { release(); }
  ThreadGuard(const ThreadGuard&) = delete;
  ThreadGuard& operator=(const ThreadGuard&) = delete;

  [[nodiscard]] bool active() const noexcept { return slot_ != nullptr; }
  void release() noexcept;

 private:
  friend ThreadGuard profile_current_thread();
  explicit ThreadGuard(void* slot) noexcept : slot_(slot) {}
  void* slot_ = nullptr;
};

[[nodiscard]] ThreadGuard profile_current_thread();

/// Pushes a synthetic sample through the calling thread's ring — the
/// exact producer path the signal handler uses, minus the signal. The
/// thread must hold an active ThreadGuard. Returns false when the ring
/// was full (the drop is counted exactly, like a real sample drop).
bool inject_sample(const Sample& s);

/// The sampling profiler. At most one instance may be running at a time
/// (the SIGPROF plumbing is process-global); construct/destroy freely.
class CpuProfiler {
 public:
  struct Options {
    /// Samples per second of *CPU time* per thread.
    int hz = 100;
    /// Retained decoded samples; oldest evicted first (exact counter).
    std::size_t window_capacity = std::size_t{1} << 16;
    /// When set, every collected sample is also appended as a
    /// kProfSample event run (one event per frame). The profiler's
    /// collector is the only producer on this channel.
    RecorderChannel* channel = nullptr;
    /// Metrics sink for obs.prof.*; nullptr = Registry::global().
    Registry* registry = nullptr;
  };

  CpuProfiler();
  explicit CpuProfiler(Options options);
  ~CpuProfiler();

  CpuProfiler(const CpuProfiler&) = delete;
  CpuProfiler& operator=(const CpuProfiler&) = delete;

  /// Installs the SIGPROF handler (once, process-wide), arms a timer on
  /// every registered thread, and starts the collector thread. Throws
  /// dvfs::PreconditionError when another profiler is already running.
  void start();

  /// Disarms all timers, runs a final collection pass, and joins the
  /// collector. Idempotent.
  void stop();

  [[nodiscard]] bool running() const noexcept;
  [[nodiscard]] int hz() const noexcept { return options_.hz; }

  /// Synchronous collection pass — what the collector thread runs every
  /// few milliseconds. Exposed so tests (and the HTTP handler) can make
  /// "everything sampled so far is visible" a deterministic statement.
  void collect_now();

  /// Retained samples with t_s >= since_s, oldest first.
  [[nodiscard]] std::vector<StackSample> samples_since(double since_s) const;
  [[nodiscard]] std::vector<StackSample> all_samples() const {
    return samples_since(0.0);
  }

  /// Exact accounting: retained + evicted = collected; dropped counts
  /// ring overflows (samples that never reached the collector).
  [[nodiscard]] std::uint64_t collected() const noexcept;
  [[nodiscard]] std::uint64_t dropped() const noexcept;
  [[nodiscard]] std::uint64_t evicted() const noexcept;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
  Options options_;
};

// ------------------------------------------------------------ encoding

/// Appends one StackSample as a kProfSample event run to `events`
/// (rate_idx = leaf-first frame index; rate_idx == 0 starts a sample).
void append_sample_events(const StackSample& s,
                          std::vector<dfr::Event>& events);

/// Decodes kProfSample event runs back into samples; non-profile events
/// are ignored, so it takes a whole recording's event stream.
[[nodiscard]] std::vector<StackSample> samples_from_events(
    const std::vector<dfr::Event>& events);

/// Sorted unique frame addresses across `samples`.
[[nodiscard]] std::vector<std::uint64_t> unique_addresses(
    const std::vector<StackSample>& samples);

// -------------------------------------------------------- symbolization

/// Address → human-readable name. Injected so offline readers can use
/// the recording's symbol table and tests stay deterministic.
class Symbolizer {
 public:
  virtual ~Symbolizer() = default;
  /// "" when the address cannot be named (renderers fall back to hex).
  [[nodiscard]] virtual std::string symbolize(std::uint64_t addr) const = 0;
};

/// Live-process symbolizer: dladdr for the symbol name (demangled when
/// possible), /proc/self/maps for a module+offset fallback.
class DladdrSymbolizer final : public Symbolizer {
 public:
  DladdrSymbolizer();
  [[nodiscard]] std::string symbolize(std::uint64_t addr) const override;

 private:
  struct Region {
    std::uint64_t start = 0;
    std::uint64_t limit = 0;
    std::string file;
  };
  std::vector<Region> regions_;
};

/// Table symbolizer over a loaded recording's "DFRS" epilogue.
class TableSymbolizer final : public Symbolizer {
 public:
  explicit TableSymbolizer(
      std::vector<std::pair<std::uint64_t, std::string>> table);
  [[nodiscard]] std::string symbolize(std::uint64_t addr) const override;

 private:
  std::vector<std::pair<std::uint64_t, std::string>> table_;
};

/// Builds the "DFRS" table for `Recorder::capture_symbols`: every unique
/// frame address in `samples`, named by `sym`.
[[nodiscard]] std::vector<std::pair<std::uint64_t, std::string>>
symbol_table(const std::vector<StackSample>& samples, const Symbolizer& sym);

// ------------------------------------------------------------- export

/// One executable mapping, for pprof's Mapping table.
struct MappingInfo {
  std::uint64_t start = 0;
  std::uint64_t limit = 0;
  std::uint64_t offset = 0;
  std::string file;
};

/// Executable (r-xp) regions of the live process.
[[nodiscard]] std::vector<MappingInfo> read_proc_self_maps();

struct PprofOptions {
  int hz = 100;
  /// Wall-clock nanoseconds of the profile start; 0 keeps golden tests
  /// byte-stable.
  std::int64_t time_nanos = 0;
  /// Wrap the serialized profile in a gzip container (pprof
  /// auto-detects; stored-deflate blocks, so still dependency-free).
  bool gzip = true;
  std::vector<MappingInfo> mappings;
};

/// Serializes `samples` as pprof `profile.proto`: sample types
/// samples/count + cpu/nanoseconds (period = 1e9 / hz), locations and
/// functions deduplicated, stage/shard/thread attached as labels.
[[nodiscard]] std::string encode_pprof(const std::vector<StackSample>& samples,
                                       const Symbolizer& sym,
                                       const PprofOptions& options);

/// RFC 1952 container around stored (uncompressed) deflate blocks, with
/// a real CRC32 — every gzip reader accepts it, and it needs no zlib.
[[nodiscard]] std::string gzip_stored(std::string_view raw);

/// Brendan-Gregg folded stacks ("root;caller;leaf count\n" per line),
/// ready for flamegraph.pl / speedscope. Unknown frames render as hex.
[[nodiscard]] std::string folded_stacks(
    const std::vector<StackSample>& samples, const Symbolizer& sym);

// ------------------------------------------------------------- reports

/// Aggregations behind `dvfs_inspect prof`. Shares are exact: the
/// by_stage and by_shard counts each sum to `samples`.
struct Report {
  std::uint64_t samples = 0;
  struct Entry {
    std::string name;
    std::uint64_t self = 0;
    std::uint64_t cum = 0;
  };
  std::vector<Entry> by_function;  ///< sorted by self desc, then cum
  std::vector<std::pair<Stage, std::uint64_t>> by_stage;
  /// shard id (kNoShard = unattributed) → samples.
  std::vector<std::pair<std::uint16_t, std::uint64_t>> by_shard;
};

[[nodiscard]] Report build_report(const std::vector<StackSample>& samples,
                                  const Symbolizer& sym);

// ---------------------------------------------------------------- HTTP

/// Registers `GET /debug/pprof/profile` on `server`: answers at once
/// with the samples of the last `?seconds=N` (default 1, clamped to
/// [0, 30]) of wall time still in the profiler's window, as gzipped
/// pprof. 503 when `prof` is not running. The serving thread registers
/// itself for profiling on first request (stage kHttp), so HTTP parsing
/// shows up in profiles.
void register_pprof_route(MetricsHttpServer& server, CpuProfiler& prof);

}  // namespace prof
}  // namespace dvfs::obs
