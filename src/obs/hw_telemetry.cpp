#include "dvfs/obs/hw_telemetry.h"

#include <charconv>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <utility>

#if defined(__linux__)
#include <linux/perf_event.h>
#include <sys/ioctl.h>
#include <sys/syscall.h>
#include <unistd.h>
#endif

#include <ctime>

namespace dvfs::obs::hw {

namespace fs = std::filesystem;

namespace {

/// CLOCK_THREAD_CPUTIME_ID as seconds; the POSIX thread clock exists on
/// every supported target and needs no privilege.
Seconds thread_cpu_seconds() {
  timespec ts{};
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) != 0) return 0.0;
  return static_cast<Seconds>(ts.tv_sec) +
         static_cast<Seconds>(ts.tv_nsec) * 1e-9;
}

std::uint64_t read_u64_file(const std::string& path, bool* ok = nullptr) {
  std::ifstream is(path);
  std::uint64_t v = 0;
  if (is >> v) {
    if (ok != nullptr) *ok = true;
    return v;
  }
  if (ok != nullptr) *ok = false;
  return 0;
}

std::string read_line_file(const std::string& path) {
  std::ifstream is(path);
  std::string line;
  std::getline(is, line);
  return line;
}

#if defined(__linux__)

/// Two-counter perf group (cycles leader + instructions) attached to the
/// calling thread. Multiplex-scaled via TOTAL_TIME_ENABLED/RUNNING.
class PerfThreadCounters {
 public:
  PerfThreadCounters() {
    cycles_fd_ = open_counter(PERF_COUNT_HW_CPU_CYCLES, -1);
    if (cycles_fd_ < 0) return;
    instructions_fd_ = open_counter(PERF_COUNT_HW_INSTRUCTIONS, cycles_fd_);
    // Reset + enable the whole group once; spans read cumulative values.
    ioctl(cycles_fd_, PERF_EVENT_IOC_RESET, PERF_IOC_FLAG_GROUP);
    ioctl(cycles_fd_, PERF_EVENT_IOC_ENABLE, PERF_IOC_FLAG_GROUP);
  }

  ~PerfThreadCounters() {
    if (instructions_fd_ >= 0) ::close(instructions_fd_);
    if (cycles_fd_ >= 0) ::close(cycles_fd_);
  }

  PerfThreadCounters(const PerfThreadCounters&) = delete;
  PerfThreadCounters& operator=(const PerfThreadCounters&) = delete;

  [[nodiscard]] bool ok() const { return cycles_fd_ >= 0; }

  struct Sample {
    std::uint64_t cycles = 0;
    std::uint64_t instructions = 0;
  };

  /// Cumulative, multiplex-scaled counter values since enable.
  [[nodiscard]] Sample read() const {
    Sample s;
    if (cycles_fd_ < 0) return s;
    // PERF_FORMAT_GROUP layout: nr, time_enabled, time_running, values[].
    struct {
      std::uint64_t nr;
      std::uint64_t time_enabled;
      std::uint64_t time_running;
      std::uint64_t values[2];
    } buf{};
    const ssize_t n = ::read(cycles_fd_, &buf, sizeof(buf));
    if (n < static_cast<ssize_t>(4 * sizeof(std::uint64_t))) return s;
    double scale = 1.0;
    if (buf.time_running > 0 && buf.time_running < buf.time_enabled) {
      scale = static_cast<double>(buf.time_enabled) /
              static_cast<double>(buf.time_running);
    }
    s.cycles = static_cast<std::uint64_t>(
        static_cast<double>(buf.values[0]) * scale);
    if (buf.nr >= 2 && instructions_fd_ >= 0) {
      s.instructions = static_cast<std::uint64_t>(
          static_cast<double>(buf.values[1]) * scale);
    }
    return s;
  }

 private:
  static int open_counter(std::uint64_t config, int group_fd) {
    perf_event_attr attr{};
    attr.type = PERF_TYPE_HARDWARE;
    attr.size = sizeof(attr);
    attr.config = config;
    attr.disabled = group_fd < 0 ? 1 : 0;
    attr.exclude_kernel = 1;  // lowers the paranoid threshold needed
    attr.exclude_hv = 1;
    attr.read_format = PERF_FORMAT_GROUP | PERF_FORMAT_TOTAL_TIME_ENABLED |
                       PERF_FORMAT_TOTAL_TIME_RUNNING;
    // pid=0, cpu=-1: this thread, any CPU it migrates to.
    return static_cast<int>(
        syscall(SYS_perf_event_open, &attr, 0, -1, group_fd, 0));
  }

  int cycles_fd_ = -1;
  int instructions_fd_ = -1;
};

#endif  // __linux__

/// LinuxHwProvider's per-thread session. Counter and energy backends are
/// resolved per dimension; anything unmeasurable is charged from the
/// model and labeled `model`.
class LinuxThreadTelemetry final : public ThreadTelemetry {
 public:
  LinuxThreadTelemetry(bool try_perf, bool use_timer, RaplReader* rapl) {
    use_timer_ = use_timer;
#if defined(__linux__)
    if (try_perf) {
      auto perf = std::make_unique<PerfThreadCounters>();
      if (perf->ok()) perf_ = std::move(perf);
    }
#else
    (void)try_perf;
#endif
    rapl_ = rapl;
  }

  void begin_span(const SpanPrediction&) override {
#if defined(__linux__)
    if (perf_ != nullptr) start_counters_ = perf_->read();
#endif
    if (use_timer_) start_cpu_s_ = thread_cpu_seconds();
    if (rapl_ != nullptr) start_energy_ = rapl_->read();
  }

  SpanMeasurement end_span(const SpanPrediction& predicted) override {
    SpanMeasurement m;
#if defined(__linux__)
    if (perf_ != nullptr) {
      const PerfThreadCounters::Sample end = perf_->read();
      m.cycles = end.cycles - start_counters_.cycles;
      m.instructions = end.instructions - start_counters_.instructions;
      m.counter_source = Source::kPerf;
    }
#endif
    if (m.counter_source == Source::kUnavailable) {
      m.cycles = predicted.cycles;
      m.instructions = 0;
      m.counter_source = Source::kModel;
    }
    if (use_timer_) {
      m.seconds = thread_cpu_seconds() - start_cpu_s_;
      m.time_source = Source::kThreadTimer;
    } else {
      m.seconds = predicted.seconds;
      m.time_source = Source::kModel;
    }
    if (rapl_ != nullptr) {
      const RaplReader::Reading end = rapl_->read();
      // Prefer the core domain when present: it excludes uncore/DRAM and
      // attributes tighter to instruction execution.
      const Joules delta = end.has_core
                               ? end.core_j - start_energy_.core_j
                               : end.package_j - start_energy_.package_j;
      m.joules = delta < 0.0 ? 0.0 : delta;
      m.energy_source = Source::kRapl;
      m.energy_is_shared = true;
    } else {
      m.joules = predicted.joules;
      m.energy_source = Source::kModel;
    }
    return m;
  }

 private:
#if defined(__linux__)
  std::unique_ptr<PerfThreadCounters> perf_;
  PerfThreadCounters::Sample start_counters_;
#endif
  bool use_timer_ = false;
  Seconds start_cpu_s_ = 0.0;
  RaplReader* rapl_ = nullptr;
  RaplReader::Reading start_energy_;
};

/// FakeHwProvider's session: measurement := prediction * skew.
class FakeThreadTelemetry final : public ThreadTelemetry {
 public:
  explicit FakeThreadTelemetry(FakeHwProvider::Config config)
      : config_(config) {}

  void begin_span(const SpanPrediction&) override {}

  SpanMeasurement end_span(const SpanPrediction& predicted) override {
    SpanMeasurement m;
    const double cycles =
        static_cast<double>(predicted.cycles) * config_.cycles_skew;
    m.cycles = static_cast<std::uint64_t>(std::llround(cycles));
    m.instructions =
        static_cast<std::uint64_t>(std::llround(cycles * config_.ipc));
    m.seconds = predicted.seconds * config_.time_skew;
    m.joules = predicted.joules * config_.energy_skew;
    m.counter_source = Source::kFake;
    m.time_source = Source::kFake;
    m.energy_source = Source::kFake;
    return m;
  }

 private:
  FakeHwProvider::Config config_;
};

}  // namespace

// ----------------------------------------------------------- RaplReader

RaplReader::RaplReader(std::string root) {
  std::error_code ec;
  if (!fs::is_directory(root, ec)) return;

  const auto add_domain = [&](const fs::path& dir, bool is_core) {
    const std::string energy_path = (dir / "energy_uj").string();
    bool ok = false;
    const std::uint64_t uj = read_u64_file(energy_path, &ok);
    if (!ok) return;  // unreadable (permissions) => skip, not crash
    Domain d;
    d.energy_path = energy_path;
    d.max_range_uj = read_u64_file((dir / "max_energy_range_uj").string());
    d.last_uj = uj;
    d.is_core = is_core;
    domains_.push_back(std::move(d));
  };

  for (const auto& entry : fs::directory_iterator(root, ec)) {
    const std::string leaf = entry.path().filename().string();
    // Package domains are intel-rapl:N (exactly one colon).
    if (leaf.rfind("intel-rapl:", 0) != 0 ||
        leaf.find(':', sizeof("intel-rapl:") - 1) != std::string::npos) {
      continue;
    }
    const std::string name = read_line_file((entry.path() / "name").string());
    if (name.rfind("package", 0) != 0) continue;
    add_domain(entry.path(), /*is_core=*/false);
    // Subdomains intel-rapl:N:M; keep the one named "core".
    std::error_code sub_ec;
    for (const auto& sub : fs::directory_iterator(entry.path(), sub_ec)) {
      const std::string sub_leaf = sub.path().filename().string();
      if (sub_leaf.rfind(leaf + ":", 0) != 0) continue;
      if (read_line_file((sub.path() / "name").string()) == "core") {
        add_domain(sub.path(), /*is_core=*/true);
      }
    }
  }
}

std::size_t RaplReader::num_packages() const {
  std::size_t n = 0;
  for (const Domain& d : domains_) {
    if (!d.is_core) ++n;
  }
  return n;
}

RaplReader::Reading RaplReader::read() {
  const std::scoped_lock lock(mu_);
  Reading r;
  for (Domain& d : domains_) {
    bool ok = false;
    const std::uint64_t uj = read_u64_file(d.energy_path, &ok);
    if (ok) {
      std::uint64_t delta = 0;
      if (uj >= d.last_uj) {
        delta = uj - d.last_uj;
      } else if (d.max_range_uj > 0) {
        // Counter wrapped: it counts modulo max_energy_range_uj.
        delta = d.max_range_uj - d.last_uj + uj;
      }
      d.accumulated_uj += delta;
      d.last_uj = uj;
    }
    if (d.is_core) {
      r.core_j += static_cast<Joules>(d.accumulated_uj) * 1e-6;
      r.has_core = true;
    } else {
      r.package_j += static_cast<Joules>(d.accumulated_uj) * 1e-6;
    }
  }
  return r;
}

void make_fake_powercap_tree(const std::string& dir, std::size_t packages,
                             bool with_core_domain,
                             std::uint64_t max_range_uj) {
  DVFS_REQUIRE(packages >= 1, "powercap tree needs at least one package");
  const auto write_file = [](const fs::path& p, const std::string& text) {
    std::ofstream os(p);
    DVFS_REQUIRE(os.is_open(), "cannot create " + p.string());
    os << text;
  };
  for (std::size_t p = 0; p < packages; ++p) {
    const fs::path pkg =
        fs::path(dir) / ("intel-rapl:" + std::to_string(p));
    fs::create_directories(pkg);
    write_file(pkg / "name", "package-" + std::to_string(p) + "\n");
    write_file(pkg / "energy_uj", "0\n");
    write_file(pkg / "max_energy_range_uj",
               std::to_string(max_range_uj) + "\n");
    if (with_core_domain) {
      const fs::path core =
          pkg / ("intel-rapl:" + std::to_string(p) + ":0");
      fs::create_directories(core);
      write_file(core / "name", "core\n");
      write_file(core / "energy_uj", "0\n");
      write_file(core / "max_energy_range_uj",
                 std::to_string(max_range_uj) + "\n");
    }
  }
}

// ------------------------------------------------------ LinuxHwProvider

LinuxHwProvider::LinuxHwProvider(Options options)
    : options_(std::move(options)) {
  if (options_.energy == Energy::kAuto) {
    auto rapl = std::make_unique<RaplReader>(options_.powercap_root);
    if (rapl->available()) rapl_ = std::move(rapl);
  }
}

std::unique_ptr<ThreadTelemetry> LinuxHwProvider::open_thread_telemetry(
    std::size_t) {
  const bool try_perf = options_.counters == Counters::kAuto;
  const bool use_timer = options_.counters != Counters::kModel;
  return std::make_unique<LinuxThreadTelemetry>(try_perf, use_timer,
                                                rapl_.get());
}

std::string LinuxHwProvider::describe() const {
  std::string counters;
  switch (options_.counters) {
    case Counters::kAuto: counters = "perf|timer"; break;
    case Counters::kTimer: counters = "timer"; break;
    case Counters::kModel: counters = "model"; break;
  }
  return counters + "+" + (rapl_ != nullptr ? "rapl" : "model");
}

// ------------------------------------------------------- FakeHwProvider

FakeHwProvider::FakeHwProvider(Config config) : config_(config) {
  DVFS_REQUIRE(config_.cycles_skew >= 0.0 && config_.time_skew >= 0.0 &&
                   config_.energy_skew >= 0.0 && config_.ipc >= 0.0,
               "fake telemetry skews must be non-negative");
}

std::unique_ptr<ThreadTelemetry> FakeHwProvider::open_thread_telemetry(
    std::size_t) {
  return std::make_unique<FakeThreadTelemetry>(config_);
}

std::string FakeHwProvider::describe() const {
  return "fake(cycles=" + std::to_string(config_.cycles_skew) +
         ",time=" + std::to_string(config_.time_skew) +
         ",energy=" + std::to_string(config_.energy_skew) + ")";
}

// -------------------------------------------------------- make_provider

std::unique_ptr<HwProvider> make_provider(const std::string& spec) {
  if (spec == "off") return nullptr;
  if (spec == "auto") return std::make_unique<LinuxHwProvider>();
  if (spec == "timer") {
    return std::make_unique<LinuxHwProvider>(LinuxHwProvider::Options{
        .counters = LinuxHwProvider::Counters::kTimer});
  }
  if (spec == "model") {
    return std::make_unique<LinuxHwProvider>(LinuxHwProvider::Options{
        .counters = LinuxHwProvider::Counters::kModel,
        .energy = LinuxHwProvider::Energy::kModel});
  }
  if (spec == "fake" || spec.rfind("fake:", 0) == 0) {
    FakeHwProvider::Config cfg;
    if (spec.size() > 5) {
      std::string rest = spec.substr(5);
      while (!rest.empty()) {
        const auto comma = rest.find(',');
        const std::string kv = rest.substr(0, comma);
        rest = comma == std::string::npos ? "" : rest.substr(comma + 1);
        const auto eq = kv.find('=');
        DVFS_REQUIRE(eq != std::string::npos,
                     "bad --hw fake option (want key=value): " + kv);
        const std::string key = kv.substr(0, eq);
        double value = 0.0;
        const char* end = kv.data() + kv.size();
        const auto [ptr, ec] = std::from_chars(kv.data() + eq + 1, end, value);
        DVFS_REQUIRE(ec == std::errc{} && ptr == end && std::isfinite(value),
                     "bad --hw fake value: " + kv);
        if (key == "cycles") {
          cfg.cycles_skew = value;
        } else if (key == "time") {
          cfg.time_skew = value;
        } else if (key == "energy") {
          cfg.energy_skew = value;
        } else if (key == "ipc") {
          cfg.ipc = value;
        } else {
          DVFS_REQUIRE(false,
                       "unknown --hw fake key (want cycles|time|energy|ipc): " +
                           key);
        }
      }
    }
    return std::make_unique<FakeHwProvider>(cfg);
  }
  DVFS_REQUIRE(false,
               "unknown --hw spec (want auto|timer|model|fake[:k=v,...]"
               "|off): " + spec);
  return nullptr;  // unreachable
}

}  // namespace dvfs::obs::hw
