#include "dvfs/core/cost_model.h"

#include <gtest/gtest.h>

#include <limits>
#include <tuple>

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
  const auto stats = CostTable::shared_cache_stats();
  EXPECT_EQ(stats.misses, 3u);
  EXPECT_EQ(stats.entries, 3u);
  EXPECT_NE(a.ranges().data(), b.ranges().data());
  EXPECT_NE(a.ranges().data(), c.ranges().data());
  // Distinct entries answer queries independently and correctly.
  for (std::size_t k = 1; k <= 64; ++k) {
    EXPECT_EQ(a.best_rate(k), a.best_rate_naive(k));
    EXPECT_EQ(b.best_rate(k), b.best_rate_naive(k));
    EXPECT_EQ(c.best_rate(k), c.best_rate_naive(k));
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

}  // namespace
}  // namespace dvfs::core
