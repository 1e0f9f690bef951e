/// \file executor.h
/// \brief Real-machine plan execution (the live analog of Section V's
///        "execute the plans on the experimental platform").
///
/// The paper validates its model by running the scheduled workloads on an
/// actual quad-core x86 box whose core frequencies it pins through
/// cpufreq. Containers and CI machines cannot change hardware frequency,
/// so this executor reproduces the *execution* half faithfully and
/// emulates the *frequency* half honestly:
///
///  * one worker std::thread per scheduled core, optionally pinned to a
///    physical CPU (sched_setaffinity), runs its sequence in plan order;
///  * each task spins a calibrated CPU-bound kernel for the model-
///    predicted duration cycles * T(rate) * time_scale — a slower rate
///    means proportionally longer real spinning, which is exactly the
///    observable behaviour of a slower core;
///  * `time_scale` compresses the experiment (1e-3 turns a 3000 s batch
///    window into 3 s of wall time) without changing relative timing;
///  * results come back as per-task wall-clock records comparable against
///    the analytic model, closing the same loop as the paper's Fig. 1.
///
/// Energy and counters are *measured* when a hardware telemetry provider
/// is attached (perf counters, RAPL via /sys/class/powercap — see
/// obs/hw_telemetry.h); anything the host cannot measure is charged from
/// the model and explicitly labeled so. Without a provider the executor
/// behaves as before: energy is charged from the model (cycles *
/// E(rate)), which is the quantity the executor's caller already decided
/// to trust.
#pragma once

#include <cstdint>
#include <vector>

#include "dvfs/core/cost_model.h"
#include "dvfs/core/schedule.h"
#include "dvfs/obs/drift.h"
#include "dvfs/obs/hw_telemetry.h"

namespace dvfs::obs {
class Recorder;
}  // namespace dvfs::obs

namespace dvfs::rt {

/// Measures how fast this machine spins the busy-work kernel, so workers
/// can spin for precise durations without calling the clock too often.
class SpinCalibrator {
 public:
  /// Runs the kernel for ~`calibration_seconds` and derives iterations/s.
  explicit SpinCalibrator(double calibration_seconds = 0.05);

  [[nodiscard]] double iterations_per_second() const { return ips_; }

  /// Spins for `seconds` of wall time; returns the kernel's accumulated
  /// value (forces the work to be real). Checks the clock every chunk.
  static std::uint64_t spin_for(Seconds seconds, double ips);

 private:
  double ips_ = 0.0;
};

/// One executed task's wall-clock record.
struct RtTaskRecord {
  core::TaskId id = 0;
  std::size_t core = 0;
  std::size_t rate_idx = 0;
  Seconds planned_seconds = 0.0;  ///< model: cycles * T(rate) * time_scale
  Seconds start = 0.0;            ///< run-clock seconds (obs/clock.h)
  Seconds finish = 0.0;           ///< run-clock seconds
  Joules model_energy = 0.0;      ///< cycles * E(rate)
  /// Hardware telemetry for the span, when a provider was attached;
  /// sources stay kUnavailable otherwise.
  obs::hw::SpanMeasurement measured;
};

struct RtResult {
  std::vector<RtTaskRecord> tasks;  ///< completion order (cross-core)
  Seconds wall_makespan = 0.0;
  Joules model_energy = 0.0;
  /// Aggregate measured/predicted ratios; zeros without a provider.
  obs::hw::DriftSummary drift;

  /// Largest |measured - planned| / planned over all tasks: how far real
  /// execution drifted from the model (scheduler jitter, clock overhead).
  [[nodiscard]] double worst_relative_drift() const;
};

class RealtimeExecutor {
 public:
  struct Config {
    /// Wall seconds per model second (1.0 = real time).
    double time_scale = 1.0;
    /// Pin worker j to CPU (j mod hardware cores). Best-effort: failures
    /// (e.g. restricted cgroups) are ignored, execution stays correct.
    bool pin_threads = false;
  };

  /// `model` prices every core (homogeneous executor; heterogeneous plans
  /// execute per their own rate indices).
  RealtimeExecutor(core::EnergyModel model, Config config);

  /// Runs `plan` to completion on real threads and returns the records.
  /// Throws if the plan uses rate indices the model lacks.
  [[nodiscard]] RtResult execute(const core::Plan& plan) const;

  /// Attaches a flight recorder for subsequent execute() calls; nullptr
  /// detaches. The recorder must have at least one channel per plan core
  /// — each worker thread is the single producer of its own channel, so
  /// the wait-free SPSC contract holds with real concurrency. Events are
  /// stamped in run-clock seconds (obs/clock.h), the time base of every
  /// other wall-clock channel of the same recording.
  void set_recorder(obs::Recorder* recorder) { recorder_ = recorder; }

  /// Attaches a hardware telemetry provider for subsequent execute()
  /// calls; nullptr detaches. Each worker opens its own per-thread
  /// session (open_thread_telemetry runs on the worker thread, as perf
  /// requires), spans are bracketed around the spin, drift ratios are
  /// tracked in the global registry, and — when a recorder is also
  /// attached — kHwPlanned/kHwSpan events are emitted (`.dfr` v2).
  void set_hw_provider(obs::hw::HwProvider* provider) {
    hw_provider_ = provider;
  }

 private:
  core::EnergyModel model_;
  Config config_;
  SpinCalibrator calibrator_;
  obs::Recorder* recorder_ = nullptr;
  obs::hw::HwProvider* hw_provider_ = nullptr;
};

}  // namespace dvfs::rt
