#include "dvfs/cpufreq/governor_daemon.h"

#include <algorithm>

#include "dvfs/obs/metrics.h"

namespace dvfs::cpufreq {
namespace {

/// Index of `khz` in the (ascending) table; the value is known-member.
std::size_t index_of(const std::vector<KHz>& table, KHz khz) {
  const auto it = std::find(table.begin(), table.end(), khz);
  DVFS_REQUIRE(it != table.end(), "current frequency not in the table");
  return static_cast<std::size_t>(it - table.begin());
}

// Daemon liveness counters: a long-running governor exposes these via the
// Prometheus endpoint, so a scraper can tell "running but idle" from
// "wedged" without reading logs.
struct DaemonStats {
  obs::Counter& ticks =
      obs::Registry::global().counter("cpufreq.daemon.ticks");
  obs::Counter& transitions =
      obs::Registry::global().counter("cpufreq.daemon.transitions");
};
DaemonStats& daemon_stats() {
  static DaemonStats s;
  return s;
}

}  // namespace

GovernorDaemon::GovernorDaemon(CpufreqBackend& backend)
    : GovernorDaemon(backend, Config{}) {}

GovernorDaemon::GovernorDaemon(CpufreqBackend& backend, Config config)
    : backend_(backend), config_(config) {
  DVFS_REQUIRE(config_.ondemand_threshold > 0.0 &&
                   config_.ondemand_threshold <= 1.0,
               "ondemand threshold must be in (0, 1]");
  DVFS_REQUIRE(config_.conservative_down >= 0.0 &&
                   config_.conservative_down < config_.conservative_up &&
                   config_.conservative_up <= 1.0,
               "conservative thresholds must satisfy 0 <= down < up <= 1");
}

void GovernorDaemon::tick(std::span<const double> load_per_cpu) {
  DVFS_REQUIRE(load_per_cpu.size() == backend_.num_cpus(),
               "one load sample per cpu required");
  daemon_stats().ticks.inc();
  for (std::size_t cpu = 0; cpu < load_per_cpu.size(); ++cpu) {
    const double load = load_per_cpu[cpu];
    DVFS_REQUIRE(load >= 0.0 && load <= 1.0, "load must be in [0, 1]");
    const std::vector<KHz> table = backend_.available_khz(cpu);
    const std::size_t cur = index_of(table, backend_.current_khz(cpu));
    const GovernorKind kind = backend_.governor(cpu);
    const double up = kind == GovernorKind::kOndemand
                          ? config_.ondemand_threshold
                          : config_.conservative_up;
    const std::size_t next = governor_step(kind, load, cur, table.size() - 1,
                                           up, config_.conservative_down);
    if (next != cur) {
      // In-kernel transition: unlike scaling_setspeed, a governor may move
      // the frequency regardless of the governor file's value.
      backend_.driver_set_speed(cpu, table[next]);
      daemon_stats().transitions.inc();
    }
  }
}

}  // namespace dvfs::cpufreq
