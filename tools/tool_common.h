/// \file tool_common.h
/// \brief Shared plumbing for the dvfs command-line tools.
#pragma once

#include <charconv>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "dvfs/core/cost_model.h"
#include "dvfs/obs/clock.h"
#include "dvfs/obs/health.h"
#include "dvfs/obs/json.h"
#include "dvfs/obs/metrics.h"
#include "dvfs/obs/prof.h"
#include "dvfs/obs/promtext.h"
#include "dvfs/obs/recorder.h"
#include "dvfs/obs/trace.h"
#include "dvfs/util/args.h"

namespace dvfs::tools {

/// Builds the energy model a tool was asked for: "table2" (the paper's
/// i7-950) or "cubic:<num_rates>" (analytic sweep model, rates 0.5 GHz
/// upward in 0.25 GHz steps).
[[nodiscard]] inline core::EnergyModel model_from_flag(
    const std::string& spec) {
  if (spec == "table2") return core::EnergyModel::icpp2014_table2();
  const std::string prefix = "cubic:";
  if (spec.rfind(prefix, 0) == 0) {
    std::size_t n = 0;
    const char* end = spec.data() + spec.size();
    const auto [ptr, ec] =
        std::from_chars(spec.data() + prefix.size(), end, n);
    DVFS_REQUIRE(ec == std::errc{} && ptr == end && n >= 1 && n <= 64,
                 "cubic rate count must be an integer in [1, 64]: " + spec);
    std::vector<Rate> rates;
    for (std::size_t i = 0; i < n; ++i) {
      rates.push_back(0.5 + 0.25 * static_cast<double>(i));
    }
    return core::EnergyModel::cubic(core::RateSet(std::move(rates)));
  }
  DVFS_REQUIRE(false, "unknown model spec (want table2 or cubic:<n>): " + spec);
  return core::EnergyModel::icpp2014_table2();  // unreachable
}

// Written by the signal handler, polled by ToolRun::wait_for_exit.
// sig_atomic_t per the C standard; volatile so the poll is not hoisted.
inline volatile std::sig_atomic_t g_signal = 0;

inline void on_signal(int signum) { g_signal = signum; }

/// The observability side of one tool run, wired the same way for
/// dvfs_simulate, `dvfs_execute --plan` and `dvfs_execute --serve`. The
/// constructor builds only what the flags ask for:
///   - the flight recorder, with `--record-out` or `--trace-out` (the
///     trace is replayed from the recording);
///   - the health monitor, with `--health-config` / `--health-period`;
///   - the CPU profiler, with `--profile-out`, and always with `--serve`
///     so `/debug/pprof/profile` works without a flag.
/// The profiler and the monitor each get their own recorder channel only
/// with `--record-out`: the monitor's events must survive the main rings
/// overflowing, which is one of the conditions it alerts on. With
/// `--listen` (the runs that serve), SIGINT/SIGTERM are caught from
/// construction on, so a signal at any point ends wait_for_exit() and
/// the run still reaches finish().
///
/// `finish()` writes every output in the one order that keeps them
/// consistent with each other.
class ToolRun {
 public:
  /// `channels`: one recorder channel per producer thread, each with
  /// `capacity` slots.
  ToolRun(const util::Args& args, std::size_t channels,
          std::size_t capacity = obs::Recorder::kDefaultCapacity)
      : args_(args) {
    if (args.has("record-out") || args.has("trace-out")) {
      recorder_ = std::make_unique<obs::Recorder>(channels, capacity);
    }
    // Channels for the profiler and the monitor are added in this order
    // after the producers' own, so a .dfr file's channel table is stable.
    obs::Recorder* side = args.has("record-out") ? recorder_.get() : nullptr;
    if (args.has("serve") || args.has("profile-out")) {
      // The calling thread's guard makes even a single-threaded run
      // (the simulator) produce samples.
      main_guard_ = obs::prof::profile_current_thread();
      obs::prof::CpuProfiler::Options prof_options;
      prof_options.hz = static_cast<int>(args.get_u64("profile-hz", 100));
      if (side != nullptr) {
        prof_options.channel =
            &side->add_channel(obs::Recorder::kDefaultCapacity);
      }
      profiler_ = std::make_unique<obs::prof::CpuProfiler>(prof_options);
      profiler_->start();
    }
    if (args.has("health-config") || args.has("health-period")) {
      monitor_ = std::make_unique<obs::health::HealthMonitor>(
          obs::Registry::global(),
          obs::health::load_rules(args.get_string("health-config", "")),
          obs::health::HealthMonitor::Options{
              .period_s = args.get_double("health-period", 0.5)});
      if (side != nullptr) {
        monitor_->set_channel(
            &side->add_channel(obs::Recorder::kDefaultCapacity));
      }
      monitor_->start();
    }
    if (args.has("listen")) {
      std::signal(SIGINT, on_signal);
      std::signal(SIGTERM, on_signal);
    }
  }

  /// Null unless `--record-out` or `--trace-out` asked for a recording.
  [[nodiscard]] obs::Recorder* recorder() const { return recorder_.get(); }
  /// Null unless profiling (`--profile-out` or `--serve`).
  [[nodiscard]] obs::prof::CpuProfiler* profiler() const {
    return profiler_.get();
  }
  [[nodiscard]] bool health_on() const { return monitor_ != nullptr; }

  /// Adds `/healthz` (200 ok / 503 firing) to `server` when the health
  /// monitor is on.
  void add_health_route(obs::MetricsHttpServer& server) const {
    if (monitor_ == nullptr) return;
    obs::health::HealthMonitor* m = monitor_.get();
    server.add_route(
        "GET", "/healthz", [m](const obs::MetricsHttpServer::Request&) {
          return obs::MetricsHttpServer::Response{
              .status = m->healthy() ? 200 : 503,
              .content_type = "application/json; charset=utf-8",
              .body = m->status_json().dump(2) + "\n"};
        });
  }

  /// Blocks until SIGINT/SIGTERM or until `--serve-seconds` elapse
  /// (0 = no limit).
  void wait_for_exit() const {
    const std::uint64_t serve_s = args_.get_u64("serve-seconds", 0);
    const std::uint64_t t0 = obs::now_ns();
    while (g_signal == 0 &&
           (serve_s == 0 || (obs::now_ns() - t0) / 1'000'000'000 < serve_s)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    if (g_signal != 0) {
      std::printf("caught signal %d, shutting down\n",
                  static_cast<int>(g_signal));
    }
  }

  /// Ends the run's observability and writes its outputs, in this order:
  /// settle and stop the health monitor (alerts reach their end state),
  /// stop the profiler (its events and symbol table must precede the
  /// drain), drain the recorder, write `--record-out`, replay the
  /// recording into `--trace-out`, write `--metrics-out`. Call once,
  /// after every producer has stopped.
  void finish() {
    if (monitor_ != nullptr) {
      monitor_->settle();
      monitor_->stop();
      std::printf("health: %zu alert(s) firing after %llu ticks\n",
                  monitor_->firing_count(),
                  static_cast<unsigned long long>(monitor_->ticks()));
    }
    finish_profiler();
    if (recorder_ != nullptr) {
      recorder_->drain();
      if (args_.has("record-out")) {
        recorder_->capture_metrics(obs::Registry::global());
        const std::string path = args_.get_string("record-out");
        recorder_->write_file(path);
        std::printf("wrote %zu recorded events to %s (inspect with "
                    "dvfs_inspect)\n",
                    recorder_->events().size(), path.c_str());
      }
      if (args_.has("trace-out")) {
        obs::Recording recording;
        recording.events = recorder_->events();
        obs::TraceWriter writer;
        obs::replay_to_trace(recording, writer);
        const std::string path = args_.get_string("trace-out");
        writer.write_file(path);
        std::printf("wrote %zu trace events to %s (open in "
                    "ui.perfetto.dev)\n",
                    writer.size(), path.c_str());
      }
      if (recorder_->events_dropped() > 0) {
        std::fprintf(stderr,
                     "warning: recorder ring overflowed, %llu events "
                     "dropped (the recording and trace miss them)\n",
                     static_cast<unsigned long long>(
                         recorder_->events_dropped()));
      }
    }
    if (args_.has("metrics-out")) {
      const std::string path = args_.get_string("metrics-out");
      obs::write_json_file(path, obs::Registry::global().to_json());
      std::printf("wrote metrics snapshot to %s\n", path.c_str());
    }
  }

 private:
  /// Stops the profiler, captures symbols into the recorder (so the
  /// `.dfr` v5 "DFRS" epilogue can name frames offline), and writes the
  /// gzipped pprof profile to `--profile-out` if requested.
  void finish_profiler() {
    if (profiler_ == nullptr) return;
    profiler_->stop();
    const std::vector<obs::prof::StackSample> samples =
        profiler_->all_samples();
    const obs::prof::DladdrSymbolizer sym;
    if (recorder_ != nullptr) {
      recorder_->capture_symbols(obs::prof::symbol_table(samples, sym));
    }
    if (!args_.has("profile-out")) return;
    obs::prof::PprofOptions options;
    options.hz = profiler_->hz();
    options.time_nanos =
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::system_clock::now().time_since_epoch())
            .count();
    options.mappings = obs::prof::read_proc_self_maps();
    const std::string pprof = obs::prof::encode_pprof(samples, sym, options);
    const std::string path = args_.get_string("profile-out");
    std::FILE* f = std::fopen(path.c_str(), "wb");
    DVFS_REQUIRE(f != nullptr, "cannot open " + path);
    std::fwrite(pprof.data(), 1, pprof.size(), f);
    std::fclose(f);
    std::printf("wrote %zu CPU samples (%llu dropped) to %s "
                "(gzipped pprof; `go tool pprof %s`)\n",
                samples.size(),
                static_cast<unsigned long long>(profiler_->dropped()),
                path.c_str(), path.c_str());
  }

  const util::Args& args_;
  // Declared first so it outlives the profiler and the monitor, which
  // hold pointers to its channels.
  std::unique_ptr<obs::Recorder> recorder_;
  obs::prof::ThreadGuard main_guard_;
  std::unique_ptr<obs::prof::CpuProfiler> profiler_;
  std::unique_ptr<obs::health::HealthMonitor> monitor_;
};

/// Uniform tool error handling: run `body`, print a one-line error and
/// return 2 on precondition violations.
template <typename Fn>
int run_tool(Fn&& body) {
  try {
    return body();
  } catch (const PreconditionError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}

}  // namespace dvfs::tools
