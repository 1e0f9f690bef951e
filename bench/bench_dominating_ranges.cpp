/// Ablation A1: Algorithm 1 runs in Theta(|P|).
///
/// Compares three ways to obtain the optimal rate per backward position:
///   envelope        — Algorithm 1 (one convex-hull pass over |P| lines)
///   naive_table     — argmin over |P| rates for each of K positions
///   envelope_lookup — best_rate() queries against the prebuilt ranges
/// The paper's claim is that the construction itself is Theta(|P|),
/// independent of how many positions are later queried.
#include <benchmark/benchmark.h>

#include <vector>

#include "bench_gbench.h"
#include "dvfs/core/cost_model.h"
#include "dvfs/ds/lower_envelope.h"

namespace {

using namespace dvfs;

core::EnergyModel model_with_rates(std::size_t n) {
  std::vector<Rate> rates;
  rates.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    rates.push_back(0.5 + 0.2 * static_cast<double>(i));
  }
  return core::EnergyModel::cubic(core::RateSet(std::move(rates)), 0.8, 0.9);
}

std::vector<ds::Line> lines_for(const core::EnergyModel& m,
                                const core::CostParams& cp) {
  std::vector<ds::Line> lines;
  for (std::size_t i = 0; i < m.num_rates(); ++i) {
    lines.push_back(ds::Line{cp.rt * m.time_per_cycle(i),
                             cp.re * m.energy_per_cycle(i), i});
  }
  return lines;
}

void BM_EnvelopeConstruction(benchmark::State& state) {
  const auto m = model_with_rates(static_cast<std::size_t>(state.range(0)));
  const core::CostParams cp{0.3, 0.7};
  const auto lines = lines_for(m, cp);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ds::lower_envelope_integer(lines));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_EnvelopeConstruction)->RangeMultiplier(2)->Range(2, 256)
    ->Complexity(benchmark::oN);

void BM_NaiveArgminTable(benchmark::State& state) {
  // Building a best-rate table for K positions by brute force: O(K * |P|).
  const auto m = model_with_rates(static_cast<std::size_t>(state.range(0)));
  const core::CostParams cp{0.3, 0.7};
  const auto lines = lines_for(m, cp);
  constexpr std::size_t kPositions = 1024;
  for (auto _ : state) {
    std::size_t acc = 0;
    for (std::size_t k = 1; k <= kPositions; ++k) {
      acc += ds::argmin_line_at(lines, k);
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_NaiveArgminTable)->RangeMultiplier(2)->Range(2, 256)
    ->Complexity(benchmark::oN);

void BM_BestRateLookup(benchmark::State& state) {
  const auto m = model_with_rates(static_cast<std::size_t>(state.range(0)));
  const core::CostTable table(m, core::CostParams{0.3, 0.7});
  std::size_t k = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.best_rate(k));
    k = k % 100000 + 1;
  }
}
BENCHMARK(BM_BestRateLookup)->RangeMultiplier(4)->Range(2, 128);

// Full CostTable construction with the process-wide memo defeated each
// iteration: envelope + range sort + small-k table, the price the first
// table on a new rate configuration pays.
void BM_CostTableConstructionCold(benchmark::State& state) {
  const auto m = model_with_rates(static_cast<std::size_t>(state.range(0)));
  const core::CostParams cp{0.3, 0.7};
  for (auto _ : state) {
    core::CostTable::clear_shared_cache();
    core::CostTable table(m, cp);
    benchmark::DoNotOptimize(&table);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_CostTableConstructionCold)->RangeMultiplier(2)->Range(2, 256)
    ->Complexity(benchmark::oN);

// Same construction hitting the shared cache: what the 2nd..Rth core of a
// homogeneous platform (and every rebuilt table on an unchanged rate set)
// pays after the memoization — a key comparison plus a shared_ptr copy.
void BM_CostTableConstructionMemoized(benchmark::State& state) {
  const auto m = model_with_rates(static_cast<std::size_t>(state.range(0)));
  const core::CostParams cp{0.3, 0.7};
  const core::CostTable warm(m, cp);  // populate the cache entry
  for (auto _ : state) {
    core::CostTable table(m, cp);
    benchmark::DoNotOptimize(&table);
  }
}
BENCHMARK(BM_CostTableConstructionMemoized)->RangeMultiplier(2)->Range(2, 256);

}  // namespace

int main(int argc, char** argv) {
  return dvfs::bench::run_gbench_main("bench_dominating_ranges", argc, argv);
}
