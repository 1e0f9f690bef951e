/// bench_service_throughput: open-loop admission throughput of the
/// sharded scheduling service (svc::SchedulingService).
///
/// Producer threads submit a fixed batch of tasks as fast as the
/// admission rings accept them (open loop: no waiting for execution —
/// the shards place continuously while producers hammer submit), so the
/// measured rate is the service's sustained intake: ring push + shard
/// LMC placement, end to end. Reported per configuration:
///
///   * submissions/min  — accepted tasks / wall, scaled to the ROADMAP
///     target (the run fails outright below 1M/min, CI hardware's floor);
///   * p99 admission latency (µs) — submit() to shard placement, from
///     the svc.admission.latency_us histogram. Open loop keeps the rings
///     saturated, so this bounds ring residency under peak load.
///
/// The largest configuration runs twice: once bare and once with the
/// sampling CPU profiler armed at its default 100 Hz (the always-on
/// serve-mode setting), so "profiling is cheap enough to leave on" is a
/// gated claim — the profiled row must clear the same 1M/min floor.
///
/// Rows carry wall_ns (gated ±25% by bench_compare.py) and the
/// throughput/latency counters; cost stays 0 — producer interleave makes
/// per-shard queue cost run-to-run nondeterministic, and the gate treats
/// any cost delta as a regression.
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "dvfs/core/energy_model.h"
#include "dvfs/obs/metrics.h"
#include "dvfs/obs/prof.h"
#include "dvfs/svc/service.h"

namespace {

using namespace dvfs;

struct Config {
  std::size_t shards;
  std::size_t cores;
  std::size_t producers;
  std::size_t tasks;  // total, split across producers
};

struct Outcome {
  double wall_ns = 0.0;
  double per_min = 0.0;
  double p99_us = 0.0;
  std::uint64_t accepted = 0;
  std::uint64_t retries = 0;
  std::uint64_t prof_samples = 0;
  std::uint64_t prof_dropped = 0;
};

Outcome run_config(const Config& cfg, bool profiled = false) {
  obs::Registry registry;
  std::unique_ptr<obs::prof::CpuProfiler> prof;
  if (profiled) {
    obs::prof::CpuProfiler::Options popts;
    popts.registry = &registry;
    prof = std::make_unique<obs::prof::CpuProfiler>(popts);
    prof->start();  // shard workers self-register when they spawn
  }
  svc::ServiceOptions opts;
  opts.shards = cfg.shards;
  opts.cores = cfg.cores;
  // A modest ring bounds worst-case admission latency (residency is at
  // most ring_capacity placements deep) while staying large enough that
  // producers rarely spin.
  opts.ring_capacity = std::size_t{1} << 10;
  opts.registry = &registry;
  svc::SchedulingService svc(core::EnergyModel::icpp2014_table2(),
                             core::CostParams{0.4, 0.1}, opts);
  svc.start();

  const std::size_t per_producer = cfg.tasks / cfg.producers;
  std::vector<std::uint64_t> retries(cfg.producers, 0);
  bench::WallTimer timer;
  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < cfg.producers; ++p) {
    producers.emplace_back([&svc, &retries, p, per_producer] {
      std::uint64_t spins = 0;
      for (std::size_t i = 0; i < per_producer; ++i) {
        const core::TaskId id = p * per_producer + i + 1;
        // Open loop with spin-retry: a full ring costs a yield, never a
        // dropped task — the bench measures sustained intake.
        while (!svc.submit(id, 1'000'000 + (id % 64) * 250'000).accepted) {
          ++spins;
          std::this_thread::yield();
        }
      }
      retries[p] = spins;
    });
  }
  for (auto& t : producers) t.join();
  // Producers done; the wall for "sustained submissions" stops when the
  // last submit was accepted. Drain (shards finish the backlog) after.
  const double wall_ns = timer.elapsed_ns();
  svc.drain();

  Outcome out;
  if (prof != nullptr) {
    prof->stop();
    out.prof_samples = prof->collected();
    out.prof_dropped = prof->dropped();
  }
  out.wall_ns = wall_ns;
  out.accepted = svc.submitted();
  out.per_min = static_cast<double>(out.accepted) / (wall_ns / 1e9) * 60.0;
  out.p99_us = static_cast<double>(
      registry.histogram("svc.admission.latency_us")
          .percentile_upper_bound(0.99)
          .value_or(0));
  for (const std::uint64_t r : retries) out.retries += r;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchReporter reporter("bench_service_throughput", argc, argv);
  bench::print_header("scheduling service: open-loop admission throughput");
  std::printf("%7s %6s %9s %8s %16s %12s %10s\n", "shards", "cores",
              "producers", "tasks", "submissions/min", "p99-adm(us)",
              "wall(ms)");
  bench::print_rule();

  const std::vector<Config> configs = {
      {2, 4, 2, 400'000},
      {4, 8, 2, 400'000},
  };
  constexpr double kFloorPerMin = 1e6;  // ROADMAP item 1 acceptance bar
  bool floor_met = true;
  for (const Config& cfg : configs) {
    const Outcome out = run_config(cfg);
    std::printf("%7zu %6zu %9zu %8zu %16.0f %12.0f %10.1f\n", cfg.shards,
                cfg.cores, cfg.producers, cfg.tasks, out.per_min, out.p99_us,
                out.wall_ns / 1e6);
    floor_met = floor_met && out.per_min >= kFloorPerMin;

    bench::BenchRow row("OpenLoopSubmit");
    row.param("shards", static_cast<std::uint64_t>(cfg.shards))
        .param("cores", static_cast<std::uint64_t>(cfg.cores))
        .param("producers", static_cast<std::uint64_t>(cfg.producers))
        .param("tasks", static_cast<std::uint64_t>(cfg.tasks))
        .set_wall_ns(out.wall_ns)
        .counter("submissions_per_min", out.per_min)
        .counter("p99_admission_latency_us", out.p99_us)
        .counter("accepted", static_cast<double>(out.accepted))
        .counter("full_ring_retries", static_cast<double>(out.retries));
    reporter.add(std::move(row));
  }
  // The always-on claim: same largest configuration, profiler sampling
  // every shard worker at 100 Hz. Subject to the identical floor.
  {
    const Config cfg = configs.back();
    const Outcome out = run_config(cfg, /*profiled=*/true);
    std::printf("%7zu %6zu %9zu %8zu %16.0f %12.0f %10.1f  (profiled, "
                "%llu samples, %llu dropped)\n",
                cfg.shards, cfg.cores, cfg.producers, cfg.tasks, out.per_min,
                out.p99_us, out.wall_ns / 1e6,
                static_cast<unsigned long long>(out.prof_samples),
                static_cast<unsigned long long>(out.prof_dropped));
    floor_met = floor_met && out.per_min >= kFloorPerMin;

    bench::BenchRow row("OpenLoopSubmitProfiled100Hz");
    row.param("shards", static_cast<std::uint64_t>(cfg.shards))
        .param("cores", static_cast<std::uint64_t>(cfg.cores))
        .param("producers", static_cast<std::uint64_t>(cfg.producers))
        .param("tasks", static_cast<std::uint64_t>(cfg.tasks))
        .set_wall_ns(out.wall_ns)
        .counter("submissions_per_min", out.per_min)
        .counter("p99_admission_latency_us", out.p99_us)
        .counter("accepted", static_cast<double>(out.accepted))
        .counter("full_ring_retries", static_cast<double>(out.retries))
        .counter("prof_samples", static_cast<double>(out.prof_samples))
        .counter("prof_dropped", static_cast<double>(out.prof_dropped));
    reporter.add(std::move(row));
  }
  reporter.write();

  if (!floor_met) {
    std::fprintf(stderr,
                 "FAIL: sustained admission below %.0f submissions/min\n",
                 kFloorPerMin);
    return 1;
  }
  std::printf("floor: every configuration sustained >= %.1e "
              "submissions/min\n", kFloorPerMin);
  return 0;
}
