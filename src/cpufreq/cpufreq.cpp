#include "dvfs/cpufreq/cpufreq.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace dvfs::cpufreq {
namespace {

namespace fs = std::filesystem;

void check_frequency_table(std::span<const KHz> available) {
  DVFS_REQUIRE(!available.empty(), "frequency table is empty");
  for (std::size_t i = 0; i < available.size(); ++i) {
    DVFS_REQUIRE(available[i] > 0, "frequencies must be positive");
    if (i > 0) {
      DVFS_REQUIRE(available[i] > available[i - 1],
                   "frequencies must be strictly ascending");
    }
  }
}

bool is_member(std::span<const KHz> available, KHz khz) {
  return std::find(available.begin(), available.end(), khz) !=
         available.end();
}

std::string read_file(const std::string& path) {
  std::ifstream is(path);
  DVFS_REQUIRE(is.good(), "cannot read " + path);
  std::stringstream ss;
  ss << is.rdbuf();
  std::string s = ss.str();
  // sysfs values end with a newline; strip trailing whitespace.
  while (!s.empty() && (s.back() == '\n' || s.back() == ' ')) s.pop_back();
  return s;
}

void write_file(const std::string& path, const std::string& value) {
  std::ofstream os(path);
  DVFS_REQUIRE(os.good(), "cannot write " + path);
  os << value << '\n';
  os.flush();
  DVFS_REQUIRE(os.good(), "write failed: " + path);
}

}  // namespace

const char* to_string(GovernorKind g) {
  switch (g) {
    case GovernorKind::kUserspace: return "userspace";
    case GovernorKind::kOndemand: return "ondemand";
    case GovernorKind::kPowersave: return "powersave";
    case GovernorKind::kPerformance: return "performance";
    case GovernorKind::kConservative: return "conservative";
  }
  return "?";
}

GovernorKind governor_from_string(std::string_view name) {
  if (name == "userspace") return GovernorKind::kUserspace;
  if (name == "ondemand") return GovernorKind::kOndemand;
  if (name == "powersave") return GovernorKind::kPowersave;
  if (name == "performance") return GovernorKind::kPerformance;
  if (name == "conservative") return GovernorKind::kConservative;
  DVFS_REQUIRE(false, "unknown governor: " + std::string(name));
  return GovernorKind::kOndemand;  // unreachable
}

// ---------------------------------------------------------------- simulated

SimulatedCpufreq::SimulatedCpufreq(std::size_t num_cpus,
                                   std::vector<KHz> available)
    : available_(std::move(available)) {
  DVFS_REQUIRE(num_cpus >= 1, "need at least one cpu");
  check_frequency_table(available_);
  cpus_.assign(num_cpus, CpuState{GovernorKind::kOndemand, available_.back()});
}

SimulatedCpufreq::SimulatedCpufreq(std::size_t num_cpus,
                                   const core::RateSet& rates)
    : SimulatedCpufreq(num_cpus, [&] {
        std::vector<KHz> khz;
        khz.reserve(rates.size());
        for (const Rate r : rates.rates()) khz.push_back(ghz_to_khz(r));
        return khz;
      }()) {}

void SimulatedCpufreq::check_cpu(std::size_t cpu) const {
  DVFS_REQUIRE(cpu < cpus_.size(), "cpu index out of range");
}

std::vector<KHz> SimulatedCpufreq::available_khz(std::size_t cpu) const {
  check_cpu(cpu);
  return available_;
}

KHz SimulatedCpufreq::current_khz(std::size_t cpu) const {
  check_cpu(cpu);
  return cpus_[cpu].current;
}

GovernorKind SimulatedCpufreq::governor(std::size_t cpu) const {
  check_cpu(cpu);
  return cpus_[cpu].governor;
}

void SimulatedCpufreq::set_governor(std::size_t cpu, GovernorKind g) {
  check_cpu(cpu);
  cpus_[cpu].governor = g;
  // Mirror kernel behaviour: switching to the static governors snaps the
  // frequency immediately.
  if (g == GovernorKind::kPowersave) cpus_[cpu].current = available_.front();
  if (g == GovernorKind::kPerformance) cpus_[cpu].current = available_.back();
}

void SimulatedCpufreq::set_speed(std::size_t cpu, KHz khz) {
  check_cpu(cpu);
  DVFS_REQUIRE(cpus_[cpu].governor == GovernorKind::kUserspace,
               "scaling_setspeed requires the userspace governor");
  DVFS_REQUIRE(is_member(available_, khz),
               "frequency not in scaling_available_frequencies");
  cpus_[cpu].current = khz;
}

// -------------------------------------------------------------------- sysfs

SysfsCpufreq::SysfsCpufreq(std::string root) : root_(std::move(root)) {
  DVFS_REQUIRE(fs::is_directory(root_), "no such directory: " + root_);
  while (fs::is_directory(root_ + "/cpu" + std::to_string(num_cpus_) +
                          "/cpufreq")) {
    ++num_cpus_;
  }
  DVFS_REQUIRE(num_cpus_ >= 1,
               "no cpuX/cpufreq directories under " + root_ +
                   " (per-core DVFS unsupported or tree malformed)");
}

std::string SysfsCpufreq::cpufreq_dir(std::size_t cpu) const {
  DVFS_REQUIRE(cpu < num_cpus_, "cpu index out of range");
  return root_ + "/cpu" + std::to_string(cpu) + "/cpufreq";
}

std::vector<KHz> SysfsCpufreq::available_khz(std::size_t cpu) const {
  const std::string text =
      read_file(cpufreq_dir(cpu) + "/scaling_available_frequencies");
  std::vector<KHz> khz;
  std::istringstream ss(text);
  KHz v = 0;
  while (ss >> v) khz.push_back(v);
  // The kernel lists highest-first; normalize to ascending.
  std::sort(khz.begin(), khz.end());
  check_frequency_table(khz);
  return khz;
}

KHz SysfsCpufreq::current_khz(std::size_t cpu) const {
  const std::string text = read_file(cpufreq_dir(cpu) + "/scaling_cur_freq");
  return static_cast<KHz>(std::stoull(text));
}

GovernorKind SysfsCpufreq::governor(std::size_t cpu) const {
  return governor_from_string(
      read_file(cpufreq_dir(cpu) + "/scaling_governor"));
}

void SysfsCpufreq::set_governor(std::size_t cpu, GovernorKind g) {
  write_file(cpufreq_dir(cpu) + "/scaling_governor", to_string(g));
  // Mirror the kernel's immediate snap for static governors so a fake tree
  // behaves like hardware (a real kernel updates scaling_cur_freq itself;
  // re-writing the same value there is harmless).
  if (g == GovernorKind::kPowersave || g == GovernorKind::kPerformance) {
    const std::vector<KHz> table = available_khz(cpu);
    write_file(cpufreq_dir(cpu) + "/scaling_cur_freq",
               std::to_string(g == GovernorKind::kPowersave ? table.front()
                                                            : table.back()));
  }
}

void SysfsCpufreq::set_speed(std::size_t cpu, KHz khz) {
  DVFS_REQUIRE(governor(cpu) == GovernorKind::kUserspace,
               "scaling_setspeed requires the userspace governor");
  DVFS_REQUIRE(is_member(available_khz(cpu), khz),
               "frequency not in scaling_available_frequencies");
  write_file(cpufreq_dir(cpu) + "/scaling_setspeed", std::to_string(khz));
  // On hardware the kernel propagates setspeed into scaling_cur_freq; a
  // fake tree needs the propagation done by hand.
  write_file(cpufreq_dir(cpu) + "/scaling_cur_freq", std::to_string(khz));
}

void make_fake_sysfs_tree(const std::string& dir, std::size_t num_cpus,
                          std::span<const KHz> available) {
  DVFS_REQUIRE(num_cpus >= 1, "need at least one cpu");
  check_frequency_table(available);
  for (std::size_t cpu = 0; cpu < num_cpus; ++cpu) {
    const std::string d = dir + "/cpu" + std::to_string(cpu) + "/cpufreq";
    fs::create_directories(d);
    std::ostringstream list;
    // Kernel convention: highest first, space separated.
    for (std::size_t i = available.size(); i-- > 0;) {
      list << available[i];
      if (i != 0) list << ' ';
    }
    write_file(d + "/scaling_available_frequencies", list.str());
    write_file(d + "/scaling_governor", "ondemand");
    write_file(d + "/scaling_cur_freq", std::to_string(available.back()));
    write_file(d + "/scaling_setspeed", "<unsupported>");
  }
}

// --------------------------------------------------------------- controller

PlatformController::PlatformController(CpufreqBackend& backend,
                                       core::RateSet rates)
    : backend_(backend), rates_(std::move(rates)) {
  // Every rate the scheduler may choose must exist on every core.
  for (std::size_t cpu = 0; cpu < backend_.num_cpus(); ++cpu) {
    const std::vector<KHz> table = backend_.available_khz(cpu);
    for (const Rate r : rates_.rates()) {
      DVFS_REQUIRE(is_member(table, ghz_to_khz(r)),
                   "rate set contains a frequency cpu" + std::to_string(cpu) +
                       " does not support");
    }
  }
}

void PlatformController::disable_automatic_scaling() {
  for (std::size_t cpu = 0; cpu < backend_.num_cpus(); ++cpu) {
    backend_.set_governor(cpu, GovernorKind::kUserspace);
  }
}

void PlatformController::pin(std::size_t cpu, std::size_t rate_idx) {
  DVFS_REQUIRE(rate_idx < rates_.size(), "rate index out of range");
  const KHz khz = ghz_to_khz(rates_[rate_idx]);
  backend_.set_speed(cpu, khz);
  DVFS_REQUIRE(backend_.current_khz(cpu) == khz,
               "scaling_cur_freq did not confirm the frequency change");
}

void PlatformController::pin_all(std::span<const std::size_t> rate_idx_per_core) {
  DVFS_REQUIRE(rate_idx_per_core.size() == backend_.num_cpus(),
               "one rate index per core required");
  for (std::size_t cpu = 0; cpu < rate_idx_per_core.size(); ++cpu) {
    pin(cpu, rate_idx_per_core[cpu]);
  }
}

}  // namespace dvfs::cpufreq
