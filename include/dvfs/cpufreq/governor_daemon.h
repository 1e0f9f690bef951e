/// \file governor_daemon.h
/// \brief In-kernel frequency-governor emulation over a CpufreqBackend.
///
/// The paper's baselines rely on Linux's ondemand governor, and its setup
/// instructions revolve around *disabling* it. This daemon is the thing
/// being disabled: it periodically samples per-CPU load and moves each
/// core's frequency one governor_step() of the core's current governor,
/// the step the simulated baselines (governors::FifoPolicy) take too.
/// Under userspace it never touches the core: the scheduler owns it.
///
/// Driving it against SimulatedCpufreq gives a self-contained testbed;
/// against a fake sysfs tree it exercises the identical file protocol a
/// kernel driver would update.
#pragma once

#include <span>
#include <vector>

#include "dvfs/cpufreq/cpufreq.h"

namespace dvfs::cpufreq {

class GovernorDaemon {
 public:
  struct Config {
    /// ondemand's load threshold (the paper uses 85%).
    double ondemand_threshold = 0.85;
    /// conservative's hysteresis band.
    double conservative_up = 0.80;
    double conservative_down = 0.20;
  };

  /// Does not take ownership; `backend` must outlive the daemon.
  /// (Two overloads rather than a default argument: the nested Config's
  /// member initializers are incomplete inside the enclosing class.)
  explicit GovernorDaemon(CpufreqBackend& backend);
  GovernorDaemon(CpufreqBackend& backend, Config config);

  /// One sampling period: `load_per_cpu[i]` in [0, 1] is CPU i's busy
  /// fraction over the elapsed period. Applies every non-userspace
  /// governor's frequency decision through the backend.
  void tick(std::span<const double> load_per_cpu);

  [[nodiscard]] const Config& config() const { return config_; }

 private:
  CpufreqBackend& backend_;
  Config config_;
};

}  // namespace dvfs::cpufreq
