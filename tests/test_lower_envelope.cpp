#include "dvfs/ds/lower_envelope.h"

#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <vector>

namespace dvfs::ds {
namespace {

TEST(LowerEnvelope, SingleLineCoversEverything) {
  const std::vector<Line> lines{{2.0, 1.0, 0}};
  const EnvelopeResult r = lower_envelope_integer(lines);
  ASSERT_EQ(r.active.size(), 1u);
  EXPECT_EQ(r.active[0], 0u);
  EXPECT_EQ(r.range_of[0].lo, 1u);
  EXPECT_TRUE(r.range_of[0].unbounded());
  EXPECT_EQ(r.winner(1), 0u);
  EXPECT_EQ(r.winner(1000000), 0u);
}

TEST(LowerEnvelope, TwoLinesCrossAtFractionalPoint) {
  // f0(k) = 1 + 2k, f1(k) = 4 + 1k; equal at k = 3 exactly.
  // At the tie position the later (higher-rate) line must win.
  const std::vector<Line> lines{{2.0, 1.0, 0}, {1.0, 4.0, 1}};
  const EnvelopeResult r = lower_envelope_integer(lines);
  ASSERT_EQ(r.active.size(), 2u);
  EXPECT_EQ(r.range_of[0], (IntegerRange{1, 2}));
  EXPECT_EQ(r.range_of[1].lo, 3u);
  EXPECT_TRUE(r.range_of[1].unbounded());
  EXPECT_EQ(r.winner(2), 0u);
  EXPECT_EQ(r.winner(3), 1u);
}

TEST(LowerEnvelope, TieAtIntegerGoesToLaterLine) {
  // f0(k) = 2 + 3k, f1(k) = 8 + 1k: equal at k = 3.
  const std::vector<Line> lines{{3.0, 2.0, 0}, {1.0, 8.0, 1}};
  const EnvelopeResult r = lower_envelope_integer(lines);
  EXPECT_EQ(r.winner(3), 1u);
  EXPECT_EQ(r.range_of[0], (IntegerRange{1, 2}));
}

TEST(LowerEnvelope, DominatedMiddleLineGetsEmptyRange) {
  // The middle line is above the envelope of the outer two everywhere.
  const std::vector<Line> lines{{3.0, 1.0, 0}, {2.0, 100.0, 1}, {1.0, 101.0, 2}};
  const EnvelopeResult r = lower_envelope_integer(lines);
  EXPECT_TRUE(r.range_of[1].empty());
  ASSERT_EQ(r.active.size(), 2u);
  EXPECT_EQ(r.active[0], 0u);
  EXPECT_EQ(r.active[1], 2u);
}

TEST(LowerEnvelope, LineWinningNoIntegerPointIsDropped) {
  // Line 1 beats the others only on a sub-integer sliver: it wins on
  // (2.5, 2.8), which contains no integer, so it must not be active.
  // f0 = 1 + 10k, f1 = 26 + 0 at k=2.5 ... construct explicitly:
  // f0(k) = 10k, f1(k) = 24 + 0.4k, f2(k) = 25 + 0.05k.
  // f0 vs f1 cross at 2.5; f1 vs f2 cross at 2.857.
  const std::vector<Line> lines{
      {10.0, 0.1, 0}, {0.4, 24.0, 1}, {0.05, 25.0, 2}};
  const EnvelopeResult r = lower_envelope_integer(lines);
  EXPECT_TRUE(r.range_of[1].empty());
  EXPECT_EQ(r.winner(2), 0u);
  EXPECT_EQ(r.winner(3), 2u);
}

TEST(LowerEnvelope, RejectsNonDecreasingSlopes) {
  const std::vector<Line> bad{{1.0, 1.0, 0}, {1.0, 2.0, 1}};
  EXPECT_THROW((void)lower_envelope_integer(bad), PreconditionError);
}

TEST(LowerEnvelope, RejectsNonIncreasingIntercepts) {
  const std::vector<Line> bad{{2.0, 5.0, 0}, {1.0, 5.0, 1}};
  EXPECT_THROW((void)lower_envelope_integer(bad), PreconditionError);
}

TEST(LowerEnvelope, RejectsEmptyInput) {
  const std::vector<Line> none;
  EXPECT_THROW((void)lower_envelope_integer(none), PreconditionError);
}

TEST(LowerEnvelope, WinnerRejectsPositionZero) {
  const std::vector<Line> lines{{1.0, 1.0, 0}};
  const EnvelopeResult r = lower_envelope_integer(lines);
  EXPECT_THROW((void)r.winner(0), PreconditionError);
}

TEST(LowerEnvelope, ActiveRangesPartitionPrefix) {
  const std::vector<Line> lines{
      {5.0, 1.0, 0}, {3.0, 4.0, 1}, {2.0, 9.0, 2}, {1.0, 20.0, 3}};
  const EnvelopeResult r = lower_envelope_integer(lines);
  std::size_t expected_lo = 1;
  for (const std::size_t idx : r.active) {
    EXPECT_EQ(r.range_of[idx].lo, expected_lo);
    if (!r.range_of[idx].unbounded()) {
      expected_lo = r.range_of[idx].hi + 1;
    }
  }
  EXPECT_TRUE(r.range_of[r.active.back()].unbounded());
}

// Property: for random rate-model-shaped line families, the envelope's
// winner at every position achieves the minimum line value (within
// floating-point tolerance).
class LowerEnvelopeProperty : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(LowerEnvelopeProperty, WinnerMatchesBruteForceValue) {
  std::mt19937_64 rng(GetParam());
  std::uniform_int_distribution<int> num_lines_dist(1, 12);
  std::uniform_real_distribution<double> step(0.01, 2.0);

  for (int trial = 0; trial < 50; ++trial) {
    const int n = num_lines_dist(rng);
    std::vector<Line> lines;
    double slope = 10.0 + step(rng);
    double intercept = step(rng);
    for (int i = 0; i < n; ++i) {
      lines.push_back(Line{slope, intercept, static_cast<std::size_t>(i)});
      slope -= step(rng) * 0.5 + 1e-3;
      intercept += step(rng) + 1e-3;
    }
    const EnvelopeResult r = lower_envelope_integer(lines);
    for (std::size_t k = 1; k <= 200; ++k) {
      const std::size_t w = r.winner(k);
      const std::size_t ref = argmin_line_at(lines, k);
      const double got = lines[w].at(static_cast<double>(k));
      const double want = lines[ref].at(static_cast<double>(k));
      ASSERT_LE(got, want + 1e-9 * std::max(1.0, std::abs(want)))
          << "k=" << k << " winner=" << w << " ref=" << ref;
    }
    // Winners must be non-decreasing in line index along k (rates only
    // increase with backward position).
    std::size_t prev = r.winner(1);
    for (std::size_t k = 2; k <= 200; ++k) {
      const std::size_t w = r.winner(k);
      ASSERT_GE(w, prev) << "winner regressed at k=" << k;
      prev = w;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LowerEnvelopeProperty,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u));

}  // namespace
}  // namespace dvfs::ds
