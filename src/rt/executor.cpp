#include "dvfs/rt/executor.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

#include "dvfs/obs/clock.h"
#include "dvfs/obs/metrics.h"
#include "dvfs/obs/prof.h"
#include "dvfs/obs/recorder.h"

namespace dvfs::rt {
namespace {

// CPU-bound mixing kernel. The state dependency chain defeats both
// vectorization and dead-code elimination (the result is returned and
// eventually stored by the caller).
std::uint64_t kernel(std::uint64_t state, std::uint64_t rounds) {
  for (std::uint64_t i = 0; i < rounds; ++i) {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    state += 0x9e3779b97f4a7c15ULL;
  }
  return state;
}

void try_pin_to_cpu(std::size_t cpu) {
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu % std::max(1u, std::thread::hardware_concurrency()), &set);
  // Best-effort: a sandbox may forbid affinity changes; correctness does
  // not depend on placement, only timing fidelity does.
  (void)pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
#else
  (void)cpu;
#endif
}

}  // namespace

SpinCalibrator::SpinCalibrator(double calibration_seconds) {
  DVFS_REQUIRE(calibration_seconds > 0.0,
               "calibration duration must be positive");
  // Warm up, then measure.
  std::uint64_t sink = kernel(1, 200'000);
  const std::uint64_t t0 = obs::now_ns();
  std::uint64_t iterations = 0;
  constexpr std::uint64_t kChunk = 100'000;
  while (obs::ns_to_s(obs::now_ns() - t0) < calibration_seconds) {
    sink = kernel(sink, kChunk);
    iterations += kChunk;
  }
  const double elapsed = obs::ns_to_s(obs::now_ns() - t0);
  ips_ = static_cast<double>(iterations) / elapsed;
  DVFS_REQUIRE(ips_ > 0.0 && sink != 0, "calibration failed");
}

std::uint64_t SpinCalibrator::spin_for(Seconds seconds, double ips) {
  DVFS_REQUIRE(seconds >= 0.0, "cannot spin for negative time");
  DVFS_REQUIRE(ips > 0.0, "invalid calibration");
  const std::uint64_t t0 = obs::now_ns();
  std::uint64_t sink = 0x243f6a8885a308d3ULL;
  // Chunks cap at ~200 us between clock checks but shrink near the target
  // so short spins do not overshoot by a whole chunk.
  const std::uint64_t max_chunk =
      std::max<std::uint64_t>(1'000, static_cast<std::uint64_t>(ips * 2e-4));
  while (true) {
    const double remaining = seconds - obs::ns_to_s(obs::now_ns() - t0);
    if (remaining <= 0.0) break;
    const auto want = static_cast<std::uint64_t>(remaining * ips);
    sink = kernel(sink, std::clamp<std::uint64_t>(want, 256, max_chunk));
  }
  return sink;
}

double RtResult::worst_relative_drift() const {
  double worst = 0.0;
  for (const RtTaskRecord& t : tasks) {
    if (t.planned_seconds <= 0.0) continue;
    const double drift =
        std::fabs((t.finish - t.start) - t.planned_seconds) /
        t.planned_seconds;
    worst = std::max(worst, drift);
  }
  return worst;
}

RealtimeExecutor::RealtimeExecutor(core::EnergyModel model, Config config)
    : model_(std::move(model)), config_(config) {
  DVFS_REQUIRE(config_.time_scale > 0.0, "time scale must be positive");
}

RtResult RealtimeExecutor::execute(const core::Plan& plan) const {
  for (const core::CorePlan& c : plan.cores) {
    for (const core::ScheduledTask& st : c.sequence) {
      DVFS_REQUIRE(st.rate_idx < model_.num_rates(),
                   "plan uses a rate the model lacks");
    }
  }

  RtResult result;
  std::mutex result_mutex;
  const std::uint64_t t0 = obs::now_ns();
  const double ips = calibrator_.iterations_per_second();

  // Resolved before the workers spawn so the threads themselves only do
  // relaxed atomic updates (safe under TSan, no registry lock contention).
  obs::Registry& reg = obs::Registry::global();
  obs::Counter& tasks_executed = reg.counter("rt.tasks_executed");
  obs::Counter& rate_switches = reg.counter("rt.rate_switches");
  obs::Histogram& task_wall_ns = reg.histogram("rt.task_wall_ns");

  // Drift tracking only exists when a telemetry provider is attached —
  // the gauges would otherwise report a meaningless 0 forever.
  std::optional<obs::hw::DriftTracker> drift;
  if (hw_provider_ != nullptr) drift.emplace(reg);
  // Concurrently busy workers, for attributing package-wide (chip-level)
  // energy meters across cores: each worker bumps it around its span.
  std::atomic<std::uint32_t> busy_workers{0};

  if (recorder_ != nullptr) {
    DVFS_REQUIRE(recorder_->num_channels() >= plan.cores.size(),
                 "recorder needs one channel per plan core");
    recorder_->channel(0).record(
        {.type = static_cast<std::uint8_t>(obs::dfr::EventType::kRunBegin),
         .core = static_cast<std::uint16_t>(plan.cores.size()),
         .time_s = obs::ns_to_s(t0)});
  }

  std::vector<std::thread> workers;
  workers.reserve(plan.cores.size());
  for (std::size_t j = 0; j < plan.cores.size(); ++j) {
    workers.emplace_back([&, j] {
      if (config_.pin_threads) try_pin_to_cpu(j);
      // Worker time is task execution; the CPU profiler (if running)
      // attributes these samples to the exec stage.
      const obs::prof::ThreadGuard prof_guard =
          obs::prof::profile_current_thread();
      const obs::prof::ScopedStage prof_stage(obs::prof::Stage::kExec);
      // Worker j owns recorder channel j exclusively (SPSC producer).
      obs::RecorderChannel* rc =
          recorder_ != nullptr ? &recorder_->channel(j) : nullptr;
      // Telemetry sessions are per-thread by contract: perf counters
      // attach to the opening thread, so the open happens here.
      std::unique_ptr<obs::hw::ThreadTelemetry> telemetry =
          hw_provider_ != nullptr ? hw_provider_->open_thread_telemetry(j)
                                  : nullptr;
      std::uint64_t sink = 0;
      std::size_t last_rate = static_cast<std::size_t>(-1);
      for (const core::ScheduledTask& st : plan.cores[j].sequence) {
        RtTaskRecord rec;
        rec.id = st.task_id;
        rec.core = j;
        rec.rate_idx = st.rate_idx;
        rec.planned_seconds =
            model_.task_time(st.cycles, st.rate_idx) * config_.time_scale;
        rec.model_energy = model_.task_energy(st.cycles, st.rate_idx);
        if (last_rate != static_cast<std::size_t>(-1) &&
            last_rate != st.rate_idx) {
          rate_switches.inc();
          if (rc != nullptr) {
            rc->record({.type = static_cast<std::uint8_t>(
                            obs::dfr::EventType::kFreqChange),
                        .core = static_cast<std::uint16_t>(j),
                        .rate_idx = static_cast<std::uint16_t>(st.rate_idx),
                        .time_s = obs::ns_to_s(obs::now_ns()),
                        .f0 = model_.rates()[st.rate_idx]});
          }
        }
        last_rate = st.rate_idx;
        rec.start = obs::ns_to_s(obs::now_ns());
        if (rc != nullptr) {
          rc->record({.type = static_cast<std::uint8_t>(
                          obs::dfr::EventType::kTaskStart),
                      .core = static_cast<std::uint16_t>(j),
                      .rate_idx = static_cast<std::uint16_t>(st.rate_idx),
                      .time_s = rec.start,
                      .task = st.task_id,
                      .f0 = static_cast<double>(st.cycles)});
        }
        obs::hw::SpanPrediction predicted{.cycles = st.cycles,
                                          .seconds = rec.planned_seconds,
                                          .joules = rec.model_energy};
        std::uint32_t busy_at_start = 1;
        if (telemetry != nullptr) {
          busy_at_start = busy_workers.fetch_add(1) + 1;
          if (rc != nullptr) {
            rc->record({.type = static_cast<std::uint8_t>(
                            obs::dfr::EventType::kHwPlanned),
                        .core = static_cast<std::uint16_t>(j),
                        .rate_idx = static_cast<std::uint16_t>(st.rate_idx),
                        .time_s = rec.start,
                        .task = st.task_id,
                        .u0 = predicted.cycles,
                        .f0 = predicted.joules,
                        .f1 = predicted.seconds});
          }
          telemetry->begin_span(predicted);
        }
        sink += SpinCalibrator::spin_for(rec.planned_seconds, ips);
        if (telemetry != nullptr) {
          rec.measured = telemetry->end_span(predicted);
          const std::uint32_t busy_at_end = busy_workers.fetch_sub(1);
          if (rec.measured.energy_is_shared) {
            // A package meter charges the whole chip to whoever reads it;
            // divide by the busy-worker population (endpoint average) so
            // concurrent spans do not each claim the full delta.
            const double avg_busy = std::max(
                1.0, (static_cast<double>(busy_at_start) +
                      static_cast<double>(busy_at_end)) / 2.0);
            rec.measured.joules /= avg_busy;
          }
        }
        rec.finish = obs::ns_to_s(obs::now_ns());
        tasks_executed.inc();
        task_wall_ns.observe(
            static_cast<std::uint64_t>((rec.finish - rec.start) * 1e9));
        if (rc != nullptr) {
          rc->record({.type = static_cast<std::uint8_t>(
                          obs::dfr::EventType::kSpanEnd),
                      .core = static_cast<std::uint16_t>(j),
                      .rate_idx = static_cast<std::uint16_t>(st.rate_idx),
                      .time_s = rec.finish,
                      .task = st.task_id,
                      .f0 = rec.start});
          rc->record({.type = static_cast<std::uint8_t>(
                          obs::dfr::EventType::kTaskFinish),
                      .core = static_cast<std::uint16_t>(j),
                      .time_s = rec.finish,
                      .task = st.task_id,
                      .f0 = rec.model_energy,
                      .f1 = rec.finish - rec.start});
        }
        if (telemetry != nullptr) {
          if (rc != nullptr) {
            rc->record({.type = static_cast<std::uint8_t>(
                            obs::dfr::EventType::kHwSpan),
                        .core = static_cast<std::uint16_t>(j),
                        .rate_idx = static_cast<std::uint16_t>(st.rate_idx),
                        .aux = obs::hw::encode_sources(
                            rec.measured.counter_source,
                            rec.measured.time_source,
                            rec.measured.energy_source),
                        .time_s = rec.finish,
                        .task = st.task_id,
                        .u0 = rec.measured.cycles,
                        .f0 = rec.measured.joules,
                        .f1 = rec.measured.seconds});
          }
          drift->observe(predicted, rec.measured);
        }
        {
          const std::scoped_lock lock(result_mutex);
          result.tasks.push_back(rec);
        }
      }
      // Keep the kernel's work observable without polluting records.
      DVFS_REQUIRE(sink != 1, "unreachable");
    });
  }
  for (std::thread& w : workers) w.join();

  result.wall_makespan = obs::ns_to_s(obs::now_ns() - t0);
  for (const RtTaskRecord& t : result.tasks) {
    result.model_energy += t.model_energy;
  }
  if (drift.has_value()) result.drift = drift->summary();
  return result;
}

}  // namespace dvfs::rt
