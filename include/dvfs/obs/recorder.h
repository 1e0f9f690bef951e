/// \file recorder.h
/// \brief Always-on binary flight recorder for scheduler decisions.
///
/// The recorder answers "why did the governor do that?" after the fact:
/// the sim engine, the governors, and the real-thread executor push
/// fixed-size events (task lifecycle, frequency transitions, and each
/// placement decision *with its full candidate vector*) into per-producer
/// SPSC ring buffers. Recording a decision costs one 48-byte store per
/// candidate — cheap enough to leave on in production, which is the whole
/// point: the interesting run is never the one you remembered to
/// instrument.
///
/// Concurrency model: one `RecorderChannel` per producer thread (the sim
/// engine is single-threaded and uses channel 0; the rt executor gives
/// each worker its own channel). Each channel is an `SpscRing`
/// (spsc_ring.h), so the hot path is wait-free and lock-free. When a
/// ring fills, events are tail-dropped (the oldest prefix survives, so a
/// recording always starts at the run boundary) and the ring keeps an
/// exact drop count.
///
/// `Recorder::drain()` moves ring contents into an in-memory log;
/// `write_file()` emits the `.dfr` format described in
/// recorder_format.h, including a binary snapshot of the metrics
/// registry so `dvfs_inspect replay` can reproduce `--metrics-out`
/// byte-for-byte. `replay_to_trace()` is the one way a Chrome trace is
/// made: the tools drain a run's recording into it for `--trace-out`, and
/// `dvfs_inspect replay` feeds it a loaded `.dfr` file, so both produce
/// the same trace JSON.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "dvfs/common.h"
#include "dvfs/obs/metrics.h"
#include "dvfs/obs/recorder_format.h"
#include "dvfs/obs/spsc_ring.h"

namespace dvfs::obs {

class TraceWriter;

/// One producer's event ring (an SpscRing). Producers call `record()`;
/// only `Recorder::drain()` consumes. Capacity is rounded up to a power
/// of two.
class RecorderChannel {
 public:
  explicit RecorderChannel(std::size_t capacity) : ring_(capacity) {}

  RecorderChannel(const RecorderChannel&) = delete;
  RecorderChannel& operator=(const RecorderChannel&) = delete;

  /// Wait-free push. On a full ring the event is dropped (tail-drop: the
  /// already-recorded prefix is preserved) and the drop counter bumped.
  /// Returns false iff dropped.
  bool record(const dfr::Event& e) noexcept;

  [[nodiscard]] std::uint64_t dropped() const noexcept {
    return ring_.dropped();
  }
  /// Events that made it into the ring (recorded + dropped = attempts).
  /// Survives drain(), so it feeds the v4 per-channel summary table.
  [[nodiscard]] std::uint64_t recorded() const noexcept {
    return recorded_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t capacity() const noexcept {
    return ring_.capacity();
  }

 private:
  friend class Recorder;

  SpscRing<dfr::Event> ring_;
  std::atomic<std::uint64_t> recorded_{0};
};

/// Owns the per-producer channels and assembles recordings.
class Recorder {
 public:
  static constexpr std::size_t kDefaultCapacity = std::size_t{1} << 16;

  explicit Recorder(std::size_t num_channels = 1,
                    std::size_t capacity_per_channel = kDefaultCapacity);

  [[nodiscard]] std::size_t num_channels() const { return channels_.size(); }
  [[nodiscard]] RecorderChannel& channel(std::size_t i);

  /// Appends one more channel with its own capacity — for a producer
  /// whose events must survive the main rings overflowing (the health
  /// monitor: a drop storm in channel 0 is exactly what it reports on).
  /// Call before producers start; not thread-safe against record().
  RecorderChannel& add_channel(std::size_t capacity);

  /// Consumes every channel into the in-memory log, merging by event
  /// timestamp (stable: ties keep channel order, and a single channel —
  /// the simulator — is already monotone, so its order is untouched).
  /// Call from the consumer thread only, after producers have quiesced.
  void drain();

  /// Total events dropped across all channels (exact; relaxed counters).
  [[nodiscard]] std::uint64_t events_dropped() const noexcept;
  /// Events drained so far.
  [[nodiscard]] const std::vector<dfr::Event>& events() const {
    return events_;
  }

  /// Discards the drained in-memory log (channels and drop counters are
  /// untouched), so a long-lived recorder can be reused across runs.
  void clear() { events_.clear(); }

  /// Captures `registry` so the written file can reproduce a
  /// `--metrics-out` dump. Call after the run completes, before
  /// `write_file()` and before anything else touches the registry.
  void capture_metrics(const Registry& registry);

  /// Captures an address → symbol-name table written as the v5 "DFRS"
  /// epilogue, so kProfSample frames stay readable after the process
  /// (and its ASLR layout) is gone. Entries with empty names are kept —
  /// "we looked and found nothing" is itself worth recording.
  void capture_symbols(
      std::vector<std::pair<std::uint64_t, std::string>> symbols);

  /// Writes header + drained events + metrics epilogue. Throws
  /// dvfs::PreconditionError on I/O failure.
  void write_file(const std::string& path) const;

 private:
  std::vector<std::unique_ptr<RecorderChannel>> channels_;
  std::vector<dfr::Event> events_;

  struct MetricsSnapshot {
    std::vector<std::pair<std::string, std::uint64_t>> counters;
    std::vector<std::pair<std::string, double>> gauges;
    std::vector<Registry::HistogramSnapshot> histograms;
  };
  std::optional<MetricsSnapshot> metrics_;
  std::vector<std::pair<std::uint64_t, std::string>> symbols_;
};

/// One placement decision: its kPlacement fields (recorder_format.h).
struct Decision {
  double time_s = 0.0;
  dfr::DecisionScope scope = dfr::DecisionScope::kNonInteractive;
  std::uint64_t task = 0;
  std::size_t core = 0;      ///< the chosen core
  std::uint64_t cycles = 0;  ///< u0: the (estimated) cycles priced
  std::size_t rate_idx = 0;
  std::uint8_t flags = 0;    ///< e.g. kFlagStolen
  double cost = 0.0;         ///< f0: the chosen core's cost
  double f1 = 0.0;
};

/// One task entering the system: its kTaskArrival fields.
struct Arrival {
  double time_s = 0.0;
  std::uint64_t task = 0;
  std::uint64_t cycles = 0;
  std::uint16_t klass = 0;  ///< core::TaskClass
  double deadline = kNoDeadline;
};

/// Writes a kCandidate per entry of `candidates` (core = index, the
/// chosen one flagged kFlagChosen), then the kPlacement. With
/// record_arrival() and record_params() the only writer of these event
/// types.
void record_decision(RecorderChannel& channel, const Decision& d,
                     std::span<const double> candidates = {});
void record_arrival(RecorderChannel& channel, const Arrival& a);
void record_params(RecorderChannel& channel, double time_s,
                   dfr::PolicyKind kind, std::size_t cores, double re = 0.0,
                   double rt = 0.0);

/// A `.dfr` file loaded back into memory.
struct Recording {
  dfr::FileHeader header;
  std::vector<dfr::Event> events;

  /// (v4) Per-channel {recorded, dropped} counters, in channel order.
  /// Empty for v1–v3 files, which carried only the aggregate totals.
  std::vector<dfr::ChannelStats> channels;

  /// (v5) Symbol table from the "DFRS" epilogue: code address → name for
  /// kProfSample frames. Empty when the file carried none.
  std::vector<std::pair<std::uint64_t, std::string>> symbols;

  /// Metrics epilogue, if the file has one (kept in a registry so it
  /// re-serializes through the same code path as a live dump).
  std::shared_ptr<Registry> metrics;

  /// Non-empty when the file carried an epilogue that could not be parsed
  /// (torn tail after a crash mid-write). The event prefix is still
  /// loaded; `metrics` stays null.
  std::string epilogue_note;

  /// Parses `path`. Throws dvfs::PreconditionError on bad magic, an
  /// unsupported version (accepted: kMinFormatVersion..kFormatVersion),
  /// or truncation mid-record. A torn metrics epilogue is tolerated: the
  /// events load and `epilogue_note` says why the metrics did not.
  static Recording load(const std::string& path);

  [[nodiscard]] std::optional<dfr::Event> first_of(dfr::EventType t) const;
};

/// Turns recorded events into Chrome-trace calls: task spans per core,
/// frequency-change and governor-decision instants, and the busy-core
/// counter. The output depends only on the events, so an in-memory drain
/// and the file written from it replay to identical JSON. `writer` must
/// be empty.
void replay_to_trace(const Recording& rec, TraceWriter& writer);

}  // namespace dvfs::obs
