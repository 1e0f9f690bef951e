/// \file cpufreq.h
/// \brief Per-core frequency control in the Linux cpufreq style
///        (Section V, "Evaluation" preamble).
///
/// The paper drives per-core DVFS exactly the way a Linux userspace
/// scheduler must: write `userspace` into
/// /sys/devices/system/cpu/cpuX/cpufreq/scaling_governor to disable the
/// kernel's automatic scaling, write the target frequency into
/// scaling_setspeed (restricted to scaling_available_frequencies), and
/// verify it via scaling_cur_freq. This module reproduces that protocol
/// behind an interface with two backends:
///
///  * SysfsCpufreq  — performs real file I/O against a configurable root
///    prefix. Pointed at /sys/devices/system/cpu it controls actual
///    hardware; pointed at a fake tree (see make_fake_sysfs_tree) it is
///    fully unit-testable. The code path is identical either way.
///  * SimulatedCpufreq — an in-memory model for simulator-driven runs.
///
/// Frequencies are kilohertz throughout, matching the sysfs ABI.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "dvfs/common.h"
#include "dvfs/core/rate_set.h"

namespace dvfs::cpufreq {

using KHz = std::uint64_t;

/// kHz <-> the library's GHz rate values.
[[nodiscard]] constexpr KHz ghz_to_khz(Rate ghz) {
  return static_cast<KHz>(ghz * 1e6 + 0.5);
}
[[nodiscard]] constexpr Rate khz_to_ghz(KHz khz) {
  return static_cast<Rate>(khz) / 1e6;
}

/// The governors the paper's evaluation touches.
enum class GovernorKind : std::uint8_t {
  kUserspace,    ///< frequencies pinned by the scheduler (the paper's mode)
  kOndemand,     ///< Linux load-threshold governor (baseline)
  kPowersave,    ///< lowest-frequency governor
  kPerformance,  ///< highest-frequency governor
  kConservative, ///< gradual-step variant of ondemand
};

[[nodiscard]] const char* to_string(GovernorKind g);

/// One sampling period of governor `kind` on a ladder of levels 0..top (a
/// cpufreq table's indices, or a scheduler's rate indices up to its cap):
/// the level a core at `level` moves to after a period with busy fraction
/// `load`. Ondemand jumps to the top above `up` and otherwise steps down
/// one level (Section V-A3); conservative steps up one above `up` and down
/// one below `down`; performance and powersave hold the top and the
/// bottom; userspace never moves.
[[nodiscard]] constexpr std::size_t governor_step(
    GovernorKind kind, double load, std::size_t level, std::size_t top,
    double up, double down) {
  switch (kind) {
    case GovernorKind::kOndemand:
      return load > up ? top : (level > 0 ? level - 1 : 0);
    case GovernorKind::kConservative:
      if (load > up && level < top) return level + 1;
      return load < down && level > 0 ? level - 1 : level;
    case GovernorKind::kPerformance: return top;
    case GovernorKind::kPowersave: return 0;
    case GovernorKind::kUserspace: break;
  }
  return level;
}
[[nodiscard]] GovernorKind governor_from_string(std::string_view name);

/// Abstract per-core frequency control surface.
class CpufreqBackend {
 public:
  virtual ~CpufreqBackend() = default;

  [[nodiscard]] virtual std::size_t num_cpus() const = 0;

  /// scaling_available_frequencies, ascending.
  [[nodiscard]] virtual std::vector<KHz> available_khz(std::size_t cpu) const = 0;

  /// scaling_cur_freq.
  [[nodiscard]] virtual KHz current_khz(std::size_t cpu) const = 0;

  /// scaling_governor (read).
  [[nodiscard]] virtual GovernorKind governor(std::size_t cpu) const = 0;

  /// scaling_governor (write).
  virtual void set_governor(std::size_t cpu, GovernorKind g) = 0;

  /// scaling_setspeed: only honoured under the userspace governor, and the
  /// value must be one of available_khz (both checked, mirroring the
  /// kernel's behaviour).
  virtual void set_speed(std::size_t cpu, KHz khz) = 0;
};

/// In-memory backend for simulations and tests.
class SimulatedCpufreq final : public CpufreqBackend {
 public:
  SimulatedCpufreq(std::size_t num_cpus, std::vector<KHz> available);

  /// Convenience: derive the frequency table from a RateSet (GHz -> kHz).
  SimulatedCpufreq(std::size_t num_cpus, const core::RateSet& rates);

  [[nodiscard]] std::size_t num_cpus() const override { return cpus_.size(); }
  [[nodiscard]] std::vector<KHz> available_khz(std::size_t cpu) const override;
  [[nodiscard]] KHz current_khz(std::size_t cpu) const override;
  [[nodiscard]] GovernorKind governor(std::size_t cpu) const override;
  void set_governor(std::size_t cpu, GovernorKind g) override;
  void set_speed(std::size_t cpu, KHz khz) override;

 private:
  struct CpuState {
    GovernorKind governor = GovernorKind::kOndemand;
    KHz current = 0;
  };
  void check_cpu(std::size_t cpu) const;

  std::vector<KHz> available_;
  std::vector<CpuState> cpus_;
};

/// File-backed backend speaking the sysfs cpufreq ABI under `root`
/// (default: the real /sys/devices/system/cpu).
class SysfsCpufreq final : public CpufreqBackend {
 public:
  explicit SysfsCpufreq(std::string root = "/sys/devices/system/cpu");

  [[nodiscard]] std::size_t num_cpus() const override { return num_cpus_; }
  [[nodiscard]] std::vector<KHz> available_khz(std::size_t cpu) const override;
  [[nodiscard]] KHz current_khz(std::size_t cpu) const override;
  [[nodiscard]] GovernorKind governor(std::size_t cpu) const override;
  void set_governor(std::size_t cpu, GovernorKind g) override;
  void set_speed(std::size_t cpu, KHz khz) override;

  [[nodiscard]] const std::string& root() const { return root_; }

 private:
  [[nodiscard]] std::string cpufreq_dir(std::size_t cpu) const;

  std::string root_;
  std::size_t num_cpus_ = 0;
};

/// Creates `<dir>/cpuX/cpufreq/...` files mimicking a per-core DVFS
/// machine, for tests, examples and dry runs. Initial governor is
/// `ondemand`, initial speed the highest frequency (the kernel default
/// after boot-time ramp-up).
void make_fake_sysfs_tree(const std::string& dir, std::size_t num_cpus,
                          std::span<const KHz> available);

/// High-level controller implementing the paper's experiment setup: switch
/// every core to `userspace` and pin the frequencies a scheduling plan
/// chose.
class PlatformController {
 public:
  /// Does not take ownership; `backend` must outlive the controller.
  PlatformController(CpufreqBackend& backend, core::RateSet rates);

  /// Disables automatic scaling on every core (scaling_governor <-
  /// userspace), as the paper does before each experiment.
  void disable_automatic_scaling();

  /// Pins core `cpu` to rate index `rate_idx` of the rate set and verifies
  /// the change via scaling_cur_freq (throws on mismatch).
  void pin(std::size_t cpu, std::size_t rate_idx);

  /// Pins all cores at once; `rate_idx_per_core[j]` applies to core j.
  void pin_all(std::span<const std::size_t> rate_idx_per_core);

  [[nodiscard]] const core::RateSet& rates() const { return rates_; }

 private:
  CpufreqBackend& backend_;
  core::RateSet rates_;
};

}  // namespace dvfs::cpufreq
