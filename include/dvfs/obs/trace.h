/// \file trace.h
/// \brief Chrome trace_event JSON export for simulation timelines.
///
/// Produces the JSON Object Format understood by chrome://tracing and
/// Perfetto (ui.perfetto.dev): a `traceEvents` array of phase-coded
/// events. The writer models one process (the simulation) whose threads
/// are the simulated cores plus one "governor" track:
///
///   * complete events (ph "X") — task execution spans on a core;
///   * instant events (ph "i") — frequency changes, governor decisions;
///   * counter events (ph "C") — busy-core count over time;
///   * metadata events (ph "M") — human-readable track names.
///
/// Timestamps are microseconds, the unit the format specifies;
/// `replay_to_trace` (recorder.h) converts recorded seconds with a fixed
/// 1e6 factor, so one trace second equals one simulated second in the
/// viewer.
///
/// The writer buffers events in memory and serializes on demand. It is
/// not thread-safe. Runs do not write it directly: they record into an
/// obs::Recorder, and the trace is replayed from the recording afterwards.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dvfs/obs/json.h"

namespace dvfs::obs {

class TraceWriter {
 public:
  /// A finished span of work on track `tid` (core index): ts/duration in
  /// microseconds.
  void complete(std::int64_t tid, std::string name, double ts_us,
                double dur_us, Json::Object args = {});

  /// A point-in-time marker (frequency change, governor decision).
  void instant(std::int64_t tid, std::string name, double ts_us,
               Json::Object args = {});

  /// A sampled counter series (rendered as an area chart).
  void counter(std::string name, double ts_us, double value);

  /// Names track `tid` in the viewer (metadata event).
  void thread_name(std::int64_t tid, std::string name);

  [[nodiscard]] std::size_t size() const { return events_.size(); }

  /// `{"traceEvents": [...], "displayTimeUnit": "ms"}`.
  [[nodiscard]] Json to_json() const;

  void write_file(const std::string& path) const;

 private:
  struct Event {
    char ph = 'X';
    std::int64_t tid = 0;
    double ts = 0.0;
    double dur = 0.0;  // complete events only
    std::string name;
    Json::Object args;
  };
  static constexpr std::int64_t kPid = 1;

  std::vector<Event> events_;
};

}  // namespace dvfs::obs
