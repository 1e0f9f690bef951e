#include "dvfs/core/cost_model.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <tuple>
#include <vector>

namespace dvfs::core {
namespace {

CostTable table2_table(Money re = 0.1, Money rt = 0.4) {
  return CostTable(EnergyModel::icpp2014_table2(), CostParams{re, rt});
}

TEST(CostTable, BackwardCostFormula) {
  const CostTable t = table2_table();
  const EnergyModel& m = t.model();
  // C_B(k, p) = Re*E(p) + k*Rt*T(p) for a few spot checks.
  for (const std::size_t k : {1u, 2u, 17u}) {
    for (std::size_t r = 0; r < m.num_rates(); ++r) {
      EXPECT_DOUBLE_EQ(t.backward_cost(k, r),
                       0.1 * m.energy_per_cycle(r) +
                           static_cast<double>(k) * 0.4 * m.time_per_cycle(r));
    }
  }
}

TEST(CostTable, ForwardEqualsBackwardMirror) {
  const CostTable t = table2_table();
  const std::size_t n = 10;
  for (std::size_t k = 1; k <= n; ++k) {
    for (std::size_t r = 0; r < t.model().num_rates(); ++r) {
      EXPECT_DOUBLE_EQ(t.forward_cost(k, n, r),
                       t.backward_cost(n - k + 1, r));
    }
  }
}

TEST(CostTable, PositionZeroRejected) {
  const CostTable t = table2_table();
  EXPECT_THROW((void)t.backward_cost(0, 0), PreconditionError);
  EXPECT_THROW((void)t.best_rate(0), PreconditionError);
  EXPECT_THROW((void)t.forward_cost(0, 5, 0), PreconditionError);
  EXPECT_THROW((void)t.forward_cost(6, 5, 0), PreconditionError);
}

TEST(CostTable, InvalidParamsRejected) {
  EXPECT_THROW(CostTable(EnergyModel::icpp2014_table2(), CostParams{0.0, 1.0}),
               PreconditionError);
  EXPECT_THROW(CostTable(EnergyModel::icpp2014_table2(), CostParams{1.0, -1.0}),
               PreconditionError);
  constexpr double kInf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(CostTable(EnergyModel::icpp2014_table2(), CostParams{kInf, 0.1}),
               PreconditionError);
  EXPECT_THROW(CostTable(EnergyModel::icpp2014_table2(), CostParams{0.4, kInf}),
               PreconditionError);
}

TEST(CostTable, BestCostIncreasesInBackwardPosition) {
  // Lemma 2 says the forward C(k) strictly decreases in k; since
  // C_B(k) = C(n - k + 1), the backward form strictly increases.
  const CostTable t = table2_table();
  for (std::size_t k = 1; k < 5000; ++k) {
    EXPECT_LT(t.best_backward_cost(k), t.best_backward_cost(k + 1));
  }
}

TEST(CostTable, RatesAreMonotoneInBackwardPosition) {
  // Deeper backward positions (more tasks waiting behind) never use a
  // slower rate.
  const CostTable t = table2_table();
  std::size_t prev = t.best_rate(1);
  for (std::size_t k = 2; k <= 5000; ++k) {
    const std::size_t r = t.best_rate(k);
    EXPECT_GE(r, prev);
    prev = r;
  }
  // Eventually the highest rate dominates.
  EXPECT_EQ(t.best_rate(1000000), t.model().rates().highest_index());
}

TEST(CostTable, RangesPartitionPositions) {
  const CostTable t = table2_table();
  std::size_t expect_lo = 1;
  for (const DominatingRange& r : t.ranges()) {
    EXPECT_EQ(r.range.lo, expect_lo);
    if (!r.range.unbounded()) expect_lo = r.range.hi + 1;
  }
  EXPECT_TRUE(t.ranges().back().range.unbounded());
}

TEST(CostTable, ActiveRatesAscend) {
  const CostTable t = table2_table();
  const auto active = t.active_rates();
  for (std::size_t i = 1; i < active.size(); ++i) {
    EXPECT_LT(active[i - 1], active[i]);
  }
}

TEST(CostTable, SingleRateModelAlwaysPicksIt) {
  const CostTable t(EnergyModel(RateSet({1.0}), {1.0}, {1.0}),
                    CostParams{1.0, 1.0});
  EXPECT_EQ(t.best_rate(1), 0u);
  EXPECT_EQ(t.best_rate(12345), 0u);
  EXPECT_EQ(t.ranges().size(), 1u);
}

// Property sweep: best_rate must agree with the naive argmin for many
// (Re, Rt) weightings and both beyond and within the cached prefix.
class CostTableSweep
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(CostTableSweep, EnvelopeAgreesWithNaiveArgmin) {
  const auto [re, rt] = GetParam();
  const CostTable t = table2_table(re, rt);
  for (std::size_t k = 1; k <= 2000; ++k) {
    const std::size_t fast = t.best_rate(k);
    const std::size_t naive = t.best_rate_naive(k);
    // Equal cost is acceptable (tie) but value must match exactly.
    ASSERT_NEAR(t.backward_cost(k, fast), t.backward_cost(k, naive),
                1e-12 * t.backward_cost(k, naive))
        << "k=" << k;
  }
  for (const std::size_t k : {5000u, 100000u, 10000000u}) {
    const std::size_t fast = t.best_rate(k);
    const std::size_t naive = t.best_rate_naive(k);
    ASSERT_NEAR(t.backward_cost(k, fast), t.backward_cost(k, naive),
                1e-12 * t.backward_cost(k, naive));
  }
}

INSTANTIATE_TEST_SUITE_P(
    ReRtGrid, CostTableSweep,
    ::testing::Combine(::testing::Values(0.01, 0.1, 0.4, 1.0, 10.0),
                       ::testing::Values(0.01, 0.1, 0.4, 1.0, 10.0)));

// The cubic model across rate-set sizes must also agree with naive argmin.
class CostTableCubicSweep : public ::testing::TestWithParam<int> {};

TEST_P(CostTableCubicSweep, EnvelopeAgreesWithNaiveArgmin) {
  std::vector<Rate> rates;
  for (int i = 0; i < GetParam(); ++i) {
    rates.push_back(0.5 + 0.25 * i);
  }
  const CostTable t(EnergyModel::cubic(RateSet(rates)), CostParams{0.2, 0.3});
  for (std::size_t k = 1; k <= 500; ++k) {
    const std::size_t fast = t.best_rate(k);
    const std::size_t naive = t.best_rate_naive(k);
    ASSERT_NEAR(t.backward_cost(k, fast), t.backward_cost(k, naive),
                1e-12 * t.backward_cost(k, naive));
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, CostTableCubicSweep,
                         ::testing::Values(1, 2, 3, 5, 8, 12, 16));

TEST(CostTableSharedCache, SameRateSetSharesOnePrecompute) {
  CostTable::clear_shared_cache();
  const CostTable a = table2_table();
  const auto after_first = CostTable::shared_cache_stats();
  EXPECT_EQ(after_first.misses, 1u);
  EXPECT_EQ(after_first.entries, 1u);
  // Every further table on the same (rates, Re, Rt) is a cache hit and
  // shares the ranges storage outright (a multi-core homogeneous platform
  // builds R identical tables).
  const CostTable b = table2_table();
  const CostTable c = table2_table();
  const auto after_three = CostTable::shared_cache_stats();
  EXPECT_EQ(after_three.misses, 1u);
  EXPECT_GE(after_three.hits, 2u);
  EXPECT_EQ(a.ranges().data(), b.ranges().data());
  EXPECT_EQ(b.ranges().data(), c.ranges().data());
}

TEST(CostTableSharedCache, ChangedRateSetOrParamsMisses) {
  CostTable::clear_shared_cache();
  const CostTable a = table2_table();
  const CostTable b = table2_table(0.4, 0.1);  // swapped Re/Rt: new lines
  const CostTable c(EnergyModel::cubic(RateSet({0.5, 1.0, 1.5})),
                    CostParams{0.1, 0.4});
  // Rate sets that differ only in the last bit of one rate are different
  // keys: the cache compares lines exactly, never fuzzily.
  const CostTable d(
      EnergyModel::cubic(RateSet({0.5, 1.0, std::nextafter(1.5, 0.0)})),
      CostParams{0.1, 0.4});
  const auto stats = CostTable::shared_cache_stats();
  EXPECT_EQ(stats.misses, 4u);
  EXPECT_EQ(stats.entries, 4u);
  EXPECT_NE(a.ranges().data(), b.ranges().data());
  EXPECT_NE(a.ranges().data(), c.ranges().data());
  EXPECT_NE(c.ranges().data(), d.ranges().data());
  // Distinct entries answer queries independently and correctly.
  for (std::size_t k = 1; k <= 64; ++k) {
    EXPECT_EQ(a.best_rate(k), a.best_rate_naive(k));
    EXPECT_EQ(b.best_rate(k), b.best_rate_naive(k));
    EXPECT_EQ(c.best_rate(k), c.best_rate_naive(k));
    EXPECT_EQ(d.best_rate(k), d.best_rate_naive(k));
  }
}

TEST(CostTableSharedCache, ClearKeepsLiveTablesUsable) {
  CostTable::clear_shared_cache();
  const CostTable t = table2_table();
  CostTable::clear_shared_cache();
  const auto stats = CostTable::shared_cache_stats();
  EXPECT_EQ(stats.entries, 0u);
  // The table's shared_ptr keeps the dropped entry alive.
  EXPECT_EQ(t.best_rate(1), t.best_rate_naive(1));
  EXPECT_FALSE(t.ranges().empty());
}


// ---------------------------------------------------------------------------
// MemoizedEnvelope: the per-rate-set envelope memo is CostTable's shared
// precompute. It must serve repeats without rebuilding and must rebuild on
// ANY change to the line set -- the classic stale-cache trap is serving the
// old envelope after the rate set mutated.
// ---------------------------------------------------------------------------

// The online weights (Re = 0.4, Rt = 0.1) put every crossover of these
// rate sets at k > 1, so a moved rate moves a range bound.
CostTable cubic_table(std::vector<Rate> rates) {
  return CostTable(EnergyModel::cubic(RateSet(std::move(rates))),
                   CostParams{0.4, 0.1});
}

TEST(MemoizedEnvelope, RepeatRequestsHitTheCache) {
  CostTable::clear_shared_cache();
  EXPECT_EQ(CostTable::shared_cache_stats().entries, 0u);
  const CostTable a = cubic_table({0.5, 1.0, 1.5});
  EXPECT_EQ(CostTable::shared_cache_stats().misses, 1u);
  for (int i = 0; i < 100; ++i) {
    const CostTable b = cubic_table({0.5, 1.0, 1.5});
    EXPECT_EQ(a.ranges().data(), b.ranges().data());  // the cached object
  }
  const auto stats = CostTable::shared_cache_stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 100u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(MemoizedEnvelope, MutatedRateSetMidRunForcesRebuild) {
  CostTable::clear_shared_cache();
  const CostTable before = cubic_table({0.5, 1.0, 1.5});
  ASSERT_EQ(CostTable::shared_cache_stats().misses, 1u);

  // Mid-run DVFS reconfiguration: a rate moves, so its line moves. Serving
  // `before` now would hand out stale winners.
  const CostTable after = cubic_table({0.5, 1.2, 1.5});
  EXPECT_EQ(CostTable::shared_cache_stats().misses, 2u);
  EXPECT_NE(before.ranges().data(), after.ranges().data());
  // The fresh entry matches the brute-force reference at every queried k.
  for (std::size_t k = 1; k <= 64; ++k) {
    EXPECT_EQ(after.best_rate(k), after.best_rate_naive(k)) << "k=" << k;
  }
  // And differs from the stale envelope somewhere (the mutation moved a
  // crossover), proving a cache hit here would have been wrong.
  bool diverged = before.ranges().size() != after.ranges().size();
  for (std::size_t i = 0; !diverged && i < before.ranges().size(); ++i) {
    diverged = before.ranges()[i].range.lo != after.ranges()[i].range.lo;
  }
  EXPECT_TRUE(diverged);

  // Growing or shrinking the rate set is a new key too.
  (void)cubic_table({0.5, 1.0, 1.5, 2.0});
  EXPECT_EQ(CostTable::shared_cache_stats().misses, 3u);
  (void)cubic_table({0.5, 1.0});
  EXPECT_EQ(CostTable::shared_cache_stats().misses, 4u);
}

TEST(MemoizedEnvelope, ExplicitInvalidateDropsTheCache) {
  CostTable::clear_shared_cache();
  const CostTable a = cubic_table({1.0, 2.0});
  ASSERT_EQ(CostTable::shared_cache_stats().entries, 1u);
  CostTable::clear_shared_cache();
  EXPECT_EQ(CostTable::shared_cache_stats().entries, 0u);
  // Identical rates, but the cache was dropped: a rebuild, not a hit.
  const CostTable b = cubic_table({1.0, 2.0});
  const auto stats = CostTable::shared_cache_stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_NE(a.ranges().data(), b.ranges().data());
}

TEST(MemoizedEnvelope, DegenerateOneRateSet) {
  CostTable::clear_shared_cache();
  const CostTable one = cubic_table({1.5});
  ASSERT_EQ(one.ranges().size(), 1u);
  EXPECT_EQ(one.best_rate(1), 0u);
  EXPECT_EQ(one.best_rate(1'000'000), 0u);
  EXPECT_TRUE(one.ranges()[0].range.unbounded());
  (void)cubic_table({1.5});
  EXPECT_EQ(CostTable::shared_cache_stats().misses, 1u);
  // Transition 1 rate -> 2 rates rebuilds.
  (void)cubic_table({1.0, 1.5});
  EXPECT_EQ(CostTable::shared_cache_stats().misses, 2u);
}

TEST(MemoizedEnvelope, NearIdenticalRatesStillKeyDistinctly) {
  // Two rate sets that differ only in the last bit of one rate are
  // DIFFERENT keys: exact comparison must rebuild, not fuzzy-match them.
  CostTable::clear_shared_cache();
  const CostTable a = cubic_table({1.0, 1.5});
  const CostTable b = cubic_table({1.0, std::nextafter(1.5, 0.0)});
  EXPECT_EQ(CostTable::shared_cache_stats().misses, 2u);
  EXPECT_NE(a.ranges().data(), b.ranges().data());
  // Flipping back finds the first entry again, by exact key.
  const CostTable a2 = cubic_table({1.0, 1.5});
  EXPECT_EQ(CostTable::shared_cache_stats().misses, 2u);
  EXPECT_EQ(a.ranges().data(), a2.ranges().data());
}

}  // namespace
}  // namespace dvfs::core
