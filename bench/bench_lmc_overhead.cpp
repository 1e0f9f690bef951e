/// Ablation A3: per-arrival decision overhead of Least Marginal Cost.
///
/// The paper motivates the Algorithm 4-6 machinery by the need to keep the
/// scheduler's own overhead negligible against millisecond-scale requests.
/// Measures the full placement decision (probe R cores, insert at the
/// argmin) against queue depth and core count, plus the Eq. 27 interactive
/// choice.
/// Also measures the flight recorder riding along: the raw SPSC record()
/// hot path, and a full placement with the per-core candidate vector
/// written by obs::record_decision — the writer Engine::decide runs for
/// LmcPolicy when `--record-out` is active. The recorded variant must stay within the wall-time gate of
/// the bare one; "cheap enough to leave on" is a gated claim, not a hope.
#include <benchmark/benchmark.h>

#include <memory>
#include <random>
#include <vector>

#include "bench_gbench.h"
#include "dvfs/core/online_lmc.h"
#include "dvfs/obs/hw_telemetry.h"
#include "dvfs/obs/recorder.h"

namespace {

using namespace dvfs;

core::LmcScheduler prefilled(std::size_t cores, std::size_t per_core,
                             std::uint64_t seed) {
  core::LmcScheduler lmc(std::vector<core::CostTable>(
      cores, core::CostTable(core::EnergyModel::icpp2014_table2(),
                             core::CostParams{0.4, 0.1})));
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<Cycles> cyc(1'000'000, 10'000'000'000ULL);
  for (std::size_t i = 0; i < cores * per_core; ++i) {
    lmc.place_non_interactive(cyc(rng), i);
  }
  return lmc;
}

void BM_PlaceNonInteractive(benchmark::State& state) {
  const std::size_t cores = static_cast<std::size_t>(state.range(0));
  const std::size_t depth = static_cast<std::size_t>(state.range(1));
  auto lmc = prefilled(cores, depth, 11);
  std::mt19937_64 rng(3);
  std::uniform_int_distribution<Cycles> cyc(1'000'000, 10'000'000'000ULL);
  core::TaskId id = 1'000'000;
  for (auto _ : state) {
    const auto p = lmc.place_non_interactive(cyc(rng), id++);
    // Remove it again so depth stays constant across iterations.
    lmc.erase(p.core, p.ref);
  }
}
// The 65536 row is the deep-queue regime of the end-of-exam burst, where
// the Eq. 27 probe's tree descents dominate. The 4-core 262144 row is a
// saturated daemon shard's depth: each tree is 5 levels deep and past the
// 2 MiB mark where its node arena switches to huge-page blocks.
BENCHMARK(BM_PlaceNonInteractive)
    ->ArgsProduct({{1, 4, 16}, {16, 256, 4096, 65536}})
    ->Args({4, 262144});

void BM_RecorderRecord(benchmark::State& state) {
  obs::Recorder rec(1, obs::Recorder::kDefaultCapacity);
  obs::RecorderChannel& ch = rec.channel(0);
  obs::dfr::Event e{
      .type = static_cast<std::uint8_t>(obs::dfr::EventType::kTaskArrival),
      .core = 2,
      .task = 42,
      .f0 = 1.5};
  std::size_t pending = 0;
  for (auto _ : state) {
    e.time_s += 1.0;
    benchmark::DoNotOptimize(ch.record(e));
    // Amortized consumer: empty the ring before it fills so every
    // iteration exercises the store path, never the tail-drop path.
    if (++pending == ch.capacity() - 1) {
      rec.drain();
      rec.clear();
      pending = 0;
    }
  }
}
BENCHMARK(BM_RecorderRecord);

void BM_PlaceNonInteractiveRecorded(benchmark::State& state) {
  const std::size_t cores = static_cast<std::size_t>(state.range(0));
  const std::size_t depth = static_cast<std::size_t>(state.range(1));
  auto lmc = prefilled(cores, depth, 11);
  std::mt19937_64 rng(3);
  std::uniform_int_distribution<Cycles> cyc(1'000'000, 10'000'000'000ULL);
  core::TaskId id = 1'000'000;
  obs::Recorder rec(1, obs::Recorder::kDefaultCapacity);
  obs::RecorderChannel& ch = rec.channel(0);
  std::vector<Money> probed;
  std::size_t pending = 0;
  for (auto _ : state) {
    const Cycles cycles = cyc(rng);
    const auto p = lmc.place_non_interactive(cycles, id, {}, &probed);
    obs::record_decision(ch,
                         {.task = id++,
                          .core = p.core,
                          .cycles = cycles,
                          .cost = probed[p.core],
                          .f1 = lmc.total_queue_cost()},
                         probed);
    lmc.erase(p.core, p.ref);
    pending += probed.size() + 1;
    if (pending >= ch.capacity() - (cores + 1)) {
      rec.drain();
      rec.clear();
      pending = 0;
    }
  }
}
BENCHMARK(BM_PlaceNonInteractiveRecorded)
    ->ArgsProduct({{1, 4, 16}, {16, 256, 4096}});

// Placement with hardware-telemetry span sampling riding along: the
// timer-backed provider (two CLOCK_THREAD_CPUTIME_ID reads plus the span
// bookkeeping) is the unprivileged path every worker thread takes when
// `--hw` is on, so it is the overhead that must stay within the same
// 25% wall gate as the bare placement. Like every row, these have
// baselines in bench/baselines; the gate fails a row without one.
void BM_PlaceNonInteractiveSampled(benchmark::State& state) {
  const std::size_t cores = static_cast<std::size_t>(state.range(0));
  const std::size_t depth = static_cast<std::size_t>(state.range(1));
  auto lmc = prefilled(cores, depth, 11);
  std::mt19937_64 rng(3);
  std::uniform_int_distribution<Cycles> cyc(1'000'000, 10'000'000'000ULL);
  core::TaskId id = 1'000'000;
  obs::hw::LinuxHwProvider provider(
      {.counters = obs::hw::LinuxHwProvider::Counters::kTimer,
       .energy = obs::hw::LinuxHwProvider::Energy::kModel});
  const std::unique_ptr<obs::hw::ThreadTelemetry> telemetry =
      provider.open_thread_telemetry(0);
  for (auto _ : state) {
    const Cycles c = cyc(rng);
    const obs::hw::SpanPrediction predicted{c, 1e-6, 1e-6};
    telemetry->begin_span(predicted);
    const auto p = lmc.place_non_interactive(c, id++);
    benchmark::DoNotOptimize(telemetry->end_span(predicted));
    lmc.erase(p.core, p.ref);
  }
}
BENCHMARK(BM_PlaceNonInteractiveSampled)
    ->ArgsProduct({{1, 4, 16}, {16, 256, 4096}});

void BM_ChooseInteractiveCore(benchmark::State& state) {
  const std::size_t cores = static_cast<std::size_t>(state.range(0));
  auto lmc = prefilled(cores, 256, 11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(lmc.choose_interactive_core(3'000'000));
  }
}
BENCHMARK(BM_ChooseInteractiveCore)->Arg(1)->Arg(4)->Arg(16)->Arg(64);

}  // namespace

int main(int argc, char** argv) {
  return dvfs::bench::run_gbench_main("bench_lmc_overhead", argc, argv);
}
