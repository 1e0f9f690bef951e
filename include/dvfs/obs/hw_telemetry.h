/// \file hw_telemetry.h
/// \brief Hardware telemetry providers: per-thread performance counters
///        and RAPL energy readings behind one testable abstraction.
///
/// The paper's optimality story (Thm. 3-5) rests on two modeled inputs —
/// per-task cycle counts and the per-rate energy curve E(p) — and until
/// now everything the repo reported (metrics, traces, `.dfr` recordings)
/// was a *prediction* from those models. This layer closes the Section V
/// validation loop on live hardware and, crucially, stays honest about
/// provenance: every measurement carries a `Source` label, and when a
/// privilege or platform gap forces a fallback the value is explicitly
/// labeled `model` — never silently passed off as measured.
///
/// Providers, in the selection order `LinuxHwProvider` tries them:
///
///  * cycles/instructions — `perf_event_open` attached to the calling
///    worker thread (source `perf`). Needs
///    /proc/sys/kernel/perf_event_paranoid <= 2 (or CAP_PERFMON);
///    otherwise falls back to `CLOCK_THREAD_CPUTIME_ID` for the span
///    duration (source `thread_timer`) with cycles charged from the
///    model (source `model`).
///  * energy — RAPL via /sys/class/powercap (`intel-rapl:N/energy_uj`,
///    package + core domains, wraparound-safe against
///    `max_energy_range_uj`; source `rapl`). Package counters are
///    chip-wide, so the executor divides a span's delta by the number of
///    concurrently busy workers (`energy_is_shared`). Unreadable files
///    (non-root, containers, non-Intel) fall back to model-charged
///    energy (source `model`).
///  * `FakeHwProvider` — replays a deterministic counter stream derived
///    from the span predictions with configurable skew factors, so every
///    consumer code path (drift gauges, `.dfr` v2 events,
///    `dvfs_inspect drift`) is testable in CI without privileges.
///
/// `LinuxHwProvider::Options` is the one selector: `kAuto` tries the
/// hardware source and falls back, `kTimer` / `kModel` never try it, so a
/// test that constructs `{Counters::kTimer, Energy::kModel}` reads the
/// same labels on every host.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "dvfs/common.h"

namespace dvfs::obs::hw {

/// Where a telemetry value came from. Part of the `.dfr` v2 format
/// (encoded into kHwSpan's aux field): append only, never renumber.
enum class Source : std::uint8_t {
  kUnavailable = 0,  ///< no value at all
  kPerf = 1,         ///< perf_event_open hardware counter
  kThreadTimer = 2,  ///< CLOCK_THREAD_CPUTIME_ID
  kRapl = 3,         ///< /sys/class/powercap energy_uj
  kModel = 4,        ///< charged from the energy model (a prediction)
  kFake = 5,         ///< deterministic test provider
};

[[nodiscard]] constexpr const char* to_string(Source s) {
  switch (s) {
    case Source::kUnavailable: return "unavailable";
    case Source::kPerf: return "perf";
    case Source::kThreadTimer: return "thread_timer";
    case Source::kRapl: return "rapl";
    case Source::kModel: return "model";
    case Source::kFake: return "fake";
  }
  return "?";
}

/// True when the value was observed rather than predicted. The fake
/// provider counts as measured: it stands in for hardware in tests, and
/// drift arithmetic must treat its stream the way it would treat perf's.
[[nodiscard]] constexpr bool is_measured(Source s) {
  return s == Source::kPerf || s == Source::kThreadTimer ||
         s == Source::kRapl || s == Source::kFake;
}

/// What the model expects a task-execution span to cost. Passed to the
/// provider so fallback paths can charge the model *explicitly* (and the
/// fake provider can replay it, skewed or verbatim).
struct SpanPrediction {
  Cycles cycles = 0;
  Seconds seconds = 0.0;  ///< wall seconds (already time-scaled)
  Joules joules = 0.0;
};

/// What one span actually cost, each dimension labeled with provenance.
struct SpanMeasurement {
  std::uint64_t cycles = 0;
  std::uint64_t instructions = 0;  ///< 0 when the source cannot count them
  Seconds seconds = 0.0;
  Joules joules = 0.0;
  Source counter_source = Source::kUnavailable;  ///< cycles/instructions
  Source time_source = Source::kUnavailable;
  Source energy_source = Source::kUnavailable;
  /// True when `joules` is a chip-wide (package) delta that the caller
  /// must attribute across concurrently busy workers.
  bool energy_is_shared = false;

  /// Realized cycles-per-instruction; 0 when instructions are unknown.
  [[nodiscard]] double cpi() const {
    return instructions == 0
               ? 0.0
               : static_cast<double>(cycles) / static_cast<double>(instructions);
  }
};

/// Pack the three source labels into a `.dfr` kHwSpan aux field
/// (5 bits each: counter | time << 5 | energy << 10).
[[nodiscard]] constexpr std::uint16_t encode_sources(Source counter,
                                                     Source time,
                                                     Source energy) {
  return static_cast<std::uint16_t>(
      static_cast<unsigned>(counter) | (static_cast<unsigned>(time) << 5) |
      (static_cast<unsigned>(energy) << 10));
}
[[nodiscard]] constexpr Source decode_counter_source(std::uint16_t aux) {
  return static_cast<Source>(aux & 0x1f);
}
[[nodiscard]] constexpr Source decode_time_source(std::uint16_t aux) {
  return static_cast<Source>((aux >> 5) & 0x1f);
}
[[nodiscard]] constexpr Source decode_energy_source(std::uint16_t aux) {
  return static_cast<Source>((aux >> 10) & 0x1f);
}

/// Per-worker-thread sampling session. begin_span()/end_span() bracket
/// one task execution; both run on the owning worker thread only.
class ThreadTelemetry {
 public:
  virtual ~ThreadTelemetry() = default;
  virtual void begin_span(const SpanPrediction& predicted) = 0;
  [[nodiscard]] virtual SpanMeasurement end_span(
      const SpanPrediction& predicted) = 0;
};

/// Factory for per-thread sessions. open_thread_telemetry() is called on
/// the worker thread itself (perf counters attach to the calling thread)
/// and must be thread-safe; it never returns null — a provider that can
/// measure nothing returns a session that charges the model, labeled so.
class HwProvider {
 public:
  virtual ~HwProvider() = default;
  [[nodiscard]] virtual std::unique_ptr<ThreadTelemetry>
  open_thread_telemetry(std::size_t worker) = 0;
  /// Human-readable provider summary ("perf+rapl", "timer+model", ...).
  [[nodiscard]] virtual std::string describe() const = 0;
};

/// Wraparound-safe reader of /sys/class/powercap RAPL energy counters.
/// Scans `root` for `intel-rapl:N` package domains (plus their `core`
/// subdomains) at construction; read() returns joules accumulated since
/// construction, correcting for counter wrap against max_energy_range_uj.
/// Thread-safe (reads serialize on an internal mutex).
class RaplReader {
 public:
  explicit RaplReader(std::string root = "/sys/class/powercap");

  /// True when at least one readable package domain was found.
  [[nodiscard]] bool available() const { return !domains_.empty(); }
  [[nodiscard]] std::size_t num_packages() const;

  struct Reading {
    Joules package_j = 0.0;  ///< sum over package domains since construction
    Joules core_j = 0.0;     ///< sum over core subdomains since construction
    bool has_core = false;
  };
  /// Throws nothing; a domain whose file turns unreadable mid-run keeps
  /// its last value (the delta freezes rather than going negative).
  [[nodiscard]] Reading read();

 private:
  struct Domain {
    std::string energy_path;
    std::uint64_t max_range_uj = 0;
    std::uint64_t last_uj = 0;
    std::uint64_t accumulated_uj = 0;
    bool is_core = false;
  };
  std::mutex mu_;
  std::vector<Domain> domains_;
};

/// Creates `<dir>/intel-rapl:P[/intel-rapl:P:0]/{name,energy_uj,
/// max_energy_range_uj}` files mimicking the powercap sysfs layout, for
/// tests and rehearsals (same idiom as cpufreq::make_fake_sysfs_tree).
void make_fake_powercap_tree(const std::string& dir, std::size_t packages,
                             bool with_core_domain,
                             std::uint64_t max_range_uj = 65532610987ULL);

/// The real-hardware provider: perf counters + RAPL with honest,
/// per-dimension fallback.
class LinuxHwProvider final : public HwProvider {
 public:
  enum class Counters : std::uint8_t {
    kAuto,   ///< perf, else thread timer
    kTimer,  ///< never try perf
    kModel,  ///< charge the model (explicit no-measurement mode)
  };
  enum class Energy : std::uint8_t {
    kAuto,   ///< RAPL, else model
    kModel,  ///< charge the model
  };
  struct Options {
    Counters counters = Counters::kAuto;
    Energy energy = Energy::kAuto;
    std::string powercap_root = "/sys/class/powercap";
  };

  LinuxHwProvider() : LinuxHwProvider(Options{}) {}
  explicit LinuxHwProvider(Options options);

  [[nodiscard]] std::unique_ptr<ThreadTelemetry> open_thread_telemetry(
      std::size_t worker) override;
  [[nodiscard]] std::string describe() const override;

  /// The energy backend actually selected (resolved at construction).
  [[nodiscard]] bool rapl_active() const { return rapl_ != nullptr; }

 private:
  Options options_;
  std::unique_ptr<RaplReader> rapl_;  // null => model-charged energy
};

/// Deterministic provider for tests and CI: replays the span predictions
/// back as "measurements", each dimension multiplied by its skew factor.
/// With all skews at 1.0 the measured stream equals the model exactly, so
/// every drift ratio must read 1.0 to the last bit.
class FakeHwProvider final : public HwProvider {
 public:
  struct Config {
    double cycles_skew = 1.0;
    double time_skew = 1.0;
    double energy_skew = 1.0;
    double ipc = 1.0;  ///< instructions = round(cycles * ipc)
  };

  FakeHwProvider() : FakeHwProvider(Config{}) {}
  explicit FakeHwProvider(Config config);

  [[nodiscard]] std::unique_ptr<ThreadTelemetry> open_thread_telemetry(
      std::size_t worker) override;
  [[nodiscard]] std::string describe() const override;
  [[nodiscard]] const Config& config() const { return config_; }

 private:
  Config config_;
};

/// Builds a provider from a `--hw` flag spec:
///   "auto" | "timer" | "model"                 -> LinuxHwProvider modes
///   "fake" | "fake:cycles=A,time=B,energy=C,ipc=D" -> FakeHwProvider
///   "off"                                      -> nullptr (no telemetry)
/// Throws dvfs::PreconditionError on garbage.
[[nodiscard]] std::unique_ptr<HwProvider> make_provider(
    const std::string& spec);

}  // namespace dvfs::obs::hw
