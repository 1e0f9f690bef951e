/// \file generate.h
/// \brief Random-but-reproducible instance generation, one recipe per
///        oracle pair.
///
/// Instances are drawn from a 64-bit seed through SplitMix64 only (no
/// std::*_distribution), so a printed seed reproduces the identical
/// instance on every platform. Each oracle has its own size envelope: the
/// exponential references bound the joint (tasks, rates, cores) draw so a
/// single instance stays cheap, while the polynomial oracles get much
/// larger instances.
///
/// Degeneracy is generated on purpose: single-rate sets, near-duplicate
/// rates (RateSet requires strictly increasing rates, so exact duplicates
/// are invalid by construction — near-ties at 1e-5 GHz spacing exercise
/// the same tie-breaking paths), duplicate cycle counts, heterogeneous
/// per-core tables, and bursty arrival clusters.
#pragma once

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "proptest/instance.h"
#include "proptest/rng.h"

namespace dvfs::proptest {

inline constexpr const char* kOracleNames[] = {
    "ltl_vs_bf", "ltl_vs_sorted",   "wbg_vs_bf", "wbg_vs_rr",
    "envelope",  "lmc_incremental", "lmc_soa",   "sim_energy",
};

namespace gen_detail {

/// A random valid energy model with `num_rates` rates. Mixes an analytic
/// cubic recipe with a multiplicative random walk; ~15% of increments are
/// near-ties (1e-5 GHz apart) to stress tie-breaking.
inline CoreModelSpec random_model(SplitMix64& g, std::size_t num_rates) {
  CoreModelSpec spec;
  double p = g.uniform_real(0.2, 1.2);
  for (std::size_t i = 0; i < num_rates; ++i) {
    spec.rates_ghz.push_back(p);
    p += g.chance(0.15) ? g.uniform_real(1e-5, 1e-3)
                        : g.uniform_real(0.05, 1.0);
  }
  constexpr double nano = 1e-9;
  if (g.chance(0.5)) {
    // Cubic-power style: E = kappa * p^2 + static, T = 1/p. Monotone in p.
    const double kappa = g.uniform_real(0.1, 3.0);
    const double stat = g.uniform_real(0.0, 2.0);
    for (const Rate r : spec.rates_ghz) {
      spec.energy_per_cycle.push_back((kappa * r * r + stat) * nano);
      spec.time_per_cycle.push_back(nano / r);
    }
  } else {
    // Random multiplicative walk: strictly monotone regardless of how
    // close the rates are, with occasional near-flat steps.
    double e = g.uniform_real(0.5, 5.0) * nano;
    double t = g.uniform_real(0.3, 3.0) * nano;
    for (std::size_t i = 0; i < num_rates; ++i) {
      spec.energy_per_cycle.push_back(e);
      spec.time_per_cycle.push_back(t);
      const double step = g.chance(0.2) ? g.uniform_real(1e-4, 1e-2)
                                        : g.uniform_real(0.05, 1.5);
      e *= 1.0 + step;
      t /= 1.0 + (g.chance(0.2) ? g.uniform_real(1e-4, 1e-2)
                                : g.uniform_real(0.05, 1.5));
    }
  }
  return spec;
}

/// One cycle count from the instance's distribution style.
inline Cycles random_cycles(SplitMix64& g, int style) {
  switch (style) {
    case 0:  // tiny counts: maximal collision/duplicate probability
      return g.uniform_u64(1, 12);
    case 1:  // mid uniform
      return g.uniform_u64(1, 1'000'000);
    case 2:  // heavy-tailed (service-time-like)
      return std::max<Cycles>(
          1, static_cast<Cycles>(std::min(1e15, g.lognormalish(18.0, 1.5))));
    case 3:  // bimodal: interactive-ish blips vs judge-ish slabs
      return g.chance(0.5) ? g.uniform_u64(1, 1000)
                           : g.uniform_u64(1'000'000'000, 10'000'000'000ull);
    default:  // near-constant: all tasks within +-1 of a shared base
      return 1000 + g.uniform_u64(0, 2);
  }
}

/// n batch tasks (arrival 0) with ids 0..n-1.
inline std::vector<core::Task> batch_tasks(SplitMix64& g, std::size_t n) {
  const int style = static_cast<int>(g.uniform_u64(0, 4));
  std::vector<core::Task> tasks(n);
  for (std::size_t i = 0; i < n; ++i) {
    tasks[i] = core::Task{.id = i, .cycles = random_cycles(g, style)};
  }
  return tasks;
}

/// Largest rate count r with fact(n) * r^n within `budget` plan builds.
inline std::size_t max_rates_for_permutations(std::size_t n, double budget,
                                              std::size_t cap) {
  double fact = 1.0;
  for (std::size_t i = 2; i <= n; ++i) fact *= static_cast<double>(i);
  for (std::size_t r = cap; r >= 2; --r) {
    if (fact * std::pow(static_cast<double>(r), static_cast<double>(n)) <=
        budget) {
      return r;
    }
  }
  return 1;
}

/// Largest task count n with cores^n within `budget`.
inline std::size_t max_tasks_for_assignment(std::size_t cores, double budget,
                                            std::size_t cap) {
  if (cores <= 1) return cap;
  for (std::size_t n = cap; n >= 2; --n) {
    if (std::pow(static_cast<double>(cores), static_cast<double>(n)) <=
        budget) {
      return n;
    }
  }
  return 1;
}

}  // namespace gen_detail

/// Generates the instance for `oracle` from `seed`. Unknown oracle names
/// throw PreconditionError.
[[nodiscard]] inline Instance generate_instance(const std::string& oracle,
                                                std::uint64_t seed) {
  using namespace gen_detail;
  SplitMix64 g(seed);
  Instance inst;
  inst.oracle = oracle;
  inst.seed = seed;
  inst.params =
      core::CostParams{g.uniform_real(0.01, 2.0), g.uniform_real(0.01, 2.0)};

  if (oracle == "ltl_vs_bf") {
    // Full n! * r^n reference: keep the joint size under ~2^18 plans.
    const std::size_t n = g.uniform_u64(1, 6);
    const std::size_t r =
        g.uniform_u64(1, max_rates_for_permutations(n, 262144.0, 5));
    inst.cores.push_back(random_model(g, r));
    inst.tasks = batch_tasks(g, n);
  } else if (oracle == "ltl_vs_sorted") {
    // Theorem-3 order fixed, r^n rate assignments searched.
    const std::size_t n = g.uniform_u64(1, 10);
    std::size_t r = 6;
    while (r > 1 && std::pow(static_cast<double>(r),
                             static_cast<double>(n)) > 262144.0) {
      --r;
    }
    inst.cores.push_back(random_model(g, g.uniform_u64(1, r)));
    inst.tasks = batch_tasks(g, n);
  } else if (oracle == "wbg_vs_bf") {
    const std::size_t cores = g.uniform_u64(1, 4);
    const std::size_t n =
        g.uniform_u64(1, max_tasks_for_assignment(cores, 65536.0, 9));
    const bool heterogeneous = g.chance(0.7);
    for (std::size_t j = 0; j < cores; ++j) {
      if (heterogeneous || inst.cores.empty()) {
        inst.cores.push_back(random_model(g, g.uniform_u64(1, 5)));
      } else {
        inst.cores.push_back(inst.cores.front());
      }
    }
    inst.tasks = batch_tasks(g, n);
  } else if (oracle == "wbg_vs_rr") {
    // Homogeneous-only: Theorem 4 round robin is the reference.
    const std::size_t cores = g.uniform_u64(1, 6);
    const CoreModelSpec shared = random_model(g, g.uniform_u64(1, 8));
    inst.cores.assign(cores, shared);
    inst.tasks = batch_tasks(g, g.uniform_u64(1, 48));
  } else if (oracle == "envelope") {
    // Dominating ranges vs per-position argmin; tasks are irrelevant.
    inst.cores.push_back(random_model(g, g.uniform_u64(1, 24)));
  } else if (oracle == "lmc_incremental") {
    inst.cores.push_back(random_model(g, g.uniform_u64(1, 8)));
    const std::size_t n = g.uniform_u64(1, 40);
    const int style = static_cast<int>(g.uniform_u64(0, 4));
    Seconds t = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      t += g.uniform_real(0.0, 1.0);
      inst.tasks.push_back(core::Task{.id = i,
                                      .cycles = random_cycles(g, style),
                                      .arrival = t,
                                      .klass =
                                          core::TaskClass::kNonInteractive});
    }
  } else if (oracle == "lmc_soa") {
    // Heterogeneous multi-core: the SoA scans must agree with scalar
    // per-core evaluation on every placement, including near-tied cores
    // (identical models make ties exact, so tie-breaks get exercised too).
    const std::size_t cores = g.uniform_u64(1, 4);
    const bool heterogeneous = g.chance(0.7);
    for (std::size_t j = 0; j < cores; ++j) {
      if (heterogeneous || inst.cores.empty()) {
        inst.cores.push_back(random_model(g, g.uniform_u64(1, 8)));
      } else {
        inst.cores.push_back(inst.cores.front());
      }
    }
    const std::size_t n = g.uniform_u64(1, 40);
    const int style = static_cast<int>(g.uniform_u64(0, 4));
    Seconds t = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      t += g.uniform_real(0.0, 1.0);
      inst.tasks.push_back(
          core::Task{.id = i,
                     .cycles = random_cycles(g, style),
                     .arrival = t,
                     .klass = g.chance(0.3)
                                  ? core::TaskClass::kInteractive
                                  : core::TaskClass::kNonInteractive});
    }
  } else if (oracle == "sim_energy") {
    const std::size_t cores = g.uniform_u64(1, 3);
    for (std::size_t j = 0; j < cores; ++j) {
      inst.cores.push_back(random_model(g, g.uniform_u64(1, 5)));
    }
    const std::size_t n = g.uniform_u64(1, 30);
    const bool bursty = g.chance(0.4);
    Seconds t = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      // Bursty traces pile several arrivals onto the same instant, which
      // stresses same-time event ordering in the engine.
      if (!bursty || g.chance(0.6)) t += g.uniform_real(0.0, 2.0);
      core::Task task{.id = i,
                      .cycles = g.uniform_u64(1'000'000, 2'000'000'000),
                      .arrival = t,
                      .klass = g.chance(0.3)
                                   ? core::TaskClass::kInteractive
                                   : core::TaskClass::kNonInteractive};
      if (task.klass == core::TaskClass::kInteractive && g.chance(0.7)) {
        task.deadline = task.arrival + g.uniform_real(0.05, 5.0);
      }
      inst.tasks.push_back(task);
    }
  } else {
    DVFS_REQUIRE(false, "unknown oracle `" + oracle + "`");
  }
  return inst;
}

}  // namespace dvfs::proptest
