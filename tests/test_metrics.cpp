#include "dvfs/obs/metrics.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <optional>
#include <thread>
#include <vector>

#include "dvfs/obs/timeseries.h"

namespace dvfs::obs {
namespace {

TEST(Metrics, CounterStartsAtZeroAndAdds) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(Metrics, GaugeSetAndAdd) {
  Gauge g;
  g.set(2.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
  g.add(-1.0);
  EXPECT_DOUBLE_EQ(g.value(), 1.5);
  g.reset();
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
}

TEST(Metrics, HistogramBucketBoundaries) {
  // Bucket 0 holds the value 0; bucket i >= 1 holds [2^(i-1), 2^i).
  EXPECT_EQ(Histogram::bucket_index(0), 0u);
  EXPECT_EQ(Histogram::bucket_index(1), 1u);
  EXPECT_EQ(Histogram::bucket_index(2), 2u);
  EXPECT_EQ(Histogram::bucket_index(3), 2u);
  EXPECT_EQ(Histogram::bucket_index(4), 3u);
  EXPECT_EQ(Histogram::bucket_index(~std::uint64_t{0}), 64u);
  EXPECT_EQ(Histogram::bucket_lower(0), 0u);
  EXPECT_EQ(Histogram::bucket_lower(1), 1u);
  EXPECT_EQ(Histogram::bucket_lower(5), 16u);
  EXPECT_EQ(Histogram::bucket_upper(0), 0u);
  EXPECT_EQ(Histogram::bucket_upper(1), 1u);
  EXPECT_EQ(Histogram::bucket_upper(2), 3u);
  EXPECT_EQ(Histogram::bucket_upper(5), 31u);
  EXPECT_EQ(Histogram::bucket_upper(63), (std::uint64_t{1} << 63) - 1);
  EXPECT_EQ(Histogram::bucket_upper(64), ~std::uint64_t{0});
}

TEST(Metrics, HistogramObserveAndStats) {
  Histogram h;
  for (std::uint64_t v : {0, 1, 2, 3, 100}) h.observe(v);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.sum(), 106u);
  EXPECT_DOUBLE_EQ(h.mean(), 106.0 / 5.0);
  EXPECT_EQ(h.bucket(0), 1u);  // the 0
  EXPECT_EQ(h.bucket(1), 1u);  // the 1
  EXPECT_EQ(h.bucket(2), 2u);  // 2 and 3
  EXPECT_EQ(h.bucket(7), 1u);  // 100 in [64, 128)
  // Nearest-rank p50 is the 3rd smallest (2), in bucket [2, 4) whose
  // inclusive upper bound is 3; p99 is the max (100), in [64, 128) -> 127.
  EXPECT_EQ(h.percentile_upper_bound(0.5), 3u);
  EXPECT_EQ(h.percentile_upper_bound(0.99), 127u);
}

// A batch tallied in plain fields and added at once leaves the histogram
// exactly as observing each sample would; an empty batch changes nothing.
TEST(Metrics, HistogramBulkAddEqualsObservingEachSample) {
  const std::vector<std::uint64_t> samples = {0, 1, 2, 3, 7, 8, 1000, 1000,
                                              (std::uint64_t{1} << 40) + 5};
  Histogram observed;
  Histogram added;
  added.observe(9);
  observed.observe(9);
  std::array<std::uint64_t, Histogram::kNumBuckets> buckets{};
  std::uint64_t sum = 0;
  for (const std::uint64_t v : samples) {
    observed.observe(v);
    ++buckets[Histogram::bucket_index(v)];
    sum += v;
  }
  added.add(buckets, sum);
  added.add(std::array<std::uint64_t, Histogram::kNumBuckets>{}, 0);
  EXPECT_EQ(added.count(), observed.count());
  EXPECT_EQ(added.sum(), observed.sum());
  for (std::size_t i = 0; i < Histogram::kNumBuckets; ++i) {
    EXPECT_EQ(added.bucket(i), observed.bucket(i)) << "bucket " << i;
  }
}

TEST(Metrics, EmptyHistogramHasNoQuantiles) {
  // "No data" must stay distinguishable from a real all-zero
  // distribution: empty reports nullopt, an observed 0 reports 0.
  EXPECT_EQ(Histogram{}.percentile_upper_bound(0.5), std::nullopt);
  Histogram h;
  h.observe(0);
  EXPECT_EQ(h.percentile_upper_bound(0.5), 0u);

  Registry reg;
  reg.histogram("unused");
  const Json j = reg.to_json().at("histograms").at("unused");
  EXPECT_FALSE(j.contains("mean"));
  EXPECT_FALSE(j.contains("p50"));
  EXPECT_FALSE(j.contains("p99"));
  EXPECT_EQ(j.at("count").as_double(), 0.0);
}

TEST(Metrics, PercentileErrorBoundOnLogBuckets) {
  // The documented guarantee: the reported quantile is never below the
  // true nearest-rank quantile and overshoots by less than a factor of
  // two (one log2 bucket). Deterministic workload: 1..1000.
  Histogram h;
  std::vector<std::uint64_t> values;
  for (std::uint64_t v = 1; v <= 1000; ++v) {
    h.observe(v);
    values.push_back(v);
  }
  for (const double p : {0.5, 0.9, 0.99, 0.999, 1.0}) {
    const std::uint64_t rank = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(
               std::ceil(p * static_cast<double>(values.size()))));
    const std::uint64_t truth = values[rank - 1];
    const std::uint64_t reported = *h.percentile_upper_bound(p);
    EXPECT_GE(reported, truth) << "p=" << p;
    EXPECT_LT(reported, 2 * truth) << "p=" << p;
  }
  // p99: true quantile 990 lies in [512, 1024) -> reported bound 1023,
  // i.e. within one bucket boundary of the truth.
  EXPECT_EQ(*h.percentile_upper_bound(0.99), 1023u);
}

// A registry snapshot's quantile is the live histogram's, whether the
// rank lands in the zero bucket, a middle bucket, or the top bucket
// (values from 2^63 up).
TEST(Metrics, SnapshotPercentileMatchesPercentileUpperBound) {
  const std::uint64_t top = std::uint64_t{1} << 63;
  const std::vector<std::vector<std::uint64_t>> cases{
      {0, 0, 0},
      {0, 1, 2, 3, 100, 1000, 1001, 70000},
      {top, ~std::uint64_t{0}, top + 12345},
      {0, 7, 300, top, ~std::uint64_t{0}},
  };
  for (std::size_t c = 0; c < cases.size(); ++c) {
    Registry reg;
    Histogram& h = reg.histogram("h");
    for (const std::uint64_t v : cases[c]) h.observe(v);
    const auto snapshots = reg.histograms_snapshot();
    ASSERT_EQ(snapshots.size(), 1u);
    for (const double p : {0.0, 0.01, 0.25, 0.5, 0.6, 0.9, 0.99, 1.0}) {
      EXPECT_EQ(snapshot_percentile(snapshots[0], p),
                static_cast<double>(*h.percentile_upper_bound(p)))
          << "case " << c << ", p=" << p;
    }
  }
  Registry empty;
  empty.histogram("h");
  EXPECT_TRUE(std::isnan(snapshot_percentile(empty.histograms_snapshot()[0],
                                             0.5)));
}

TEST(Metrics, RegistryGetOrCreateReturnsSameInstance) {
  Registry reg;
  Counter& a = reg.counter("x");
  Counter& b = reg.counter("x");
  EXPECT_EQ(&a, &b);
  a.inc();
  EXPECT_EQ(b.value(), 1u);
  // References stay valid across later insertions (node-based storage).
  for (int i = 0; i < 100; ++i) reg.counter("c" + std::to_string(i));
  EXPECT_EQ(a.value(), 1u);
}

// The concurrency contract: registration under contention is safe and
// increments from many threads are never lost. Run under TSan in CI.
TEST(Metrics, ConcurrentIncrementsAreNotLost) {
  Registry reg;
  constexpr int kThreads = 8;
  constexpr int kIters = 10'000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&reg] {
      // Resolve through the registry inside the thread so registration
      // races (mutex path) are exercised too, then hammer the hot path.
      Counter& hits = reg.counter("shared.hits");
      Gauge& level = reg.gauge("shared.level");
      Histogram& lat = reg.histogram("shared.lat");
      for (int i = 0; i < kIters; ++i) {
        hits.inc();
        level.add(1.0);
        lat.observe(static_cast<std::uint64_t>(i));
      }
    });
  }
  for (std::thread& w : workers) w.join();

  EXPECT_EQ(reg.counter("shared.hits").value(),
            static_cast<std::uint64_t>(kThreads) * kIters);
  EXPECT_DOUBLE_EQ(reg.gauge("shared.level").value(),
                   static_cast<double>(kThreads) * kIters);
  EXPECT_EQ(reg.histogram("shared.lat").count(),
            static_cast<std::uint64_t>(kThreads) * kIters);
}

TEST(Metrics, ToJsonSnapshotShape) {
  Registry reg;
  reg.counter("events").add(7);
  reg.gauge("depth").set(3.0);
  reg.histogram("ns").observe(5);
  const Json snap = reg.to_json();
  EXPECT_EQ(snap.at("counters").at("events").as_double(), 7.0);
  EXPECT_EQ(snap.at("gauges").at("depth").as_double(), 3.0);
  const Json& h = snap.at("histograms").at("ns");
  EXPECT_EQ(h.at("count").as_double(), 1.0);
  EXPECT_EQ(h.at("sum").as_double(), 5.0);
  ASSERT_TRUE(h.at("buckets").is_array());
  // Only nonzero buckets appear: value 5 lands in [4, 8).
  ASSERT_EQ(h.at("buckets").size(), 1u);
  EXPECT_EQ(h.at("buckets").at(0).at(0).as_double(), 4.0);
  EXPECT_EQ(h.at("buckets").at(0).at(1).as_double(), 1.0);
}

TEST(Metrics, ResetAllZeroesButKeepsRegistration) {
  Registry reg;
  Counter& c = reg.counter("n");
  c.add(9);
  reg.histogram("h").observe(2);
  reg.reset_all();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(&c, &reg.counter("n"));
  EXPECT_EQ(reg.histogram("h").count(), 0u);
}

TEST(Metrics, GlobalRegistryIsSingleton) {
  EXPECT_EQ(&Registry::global(), &Registry::global());
}

}  // namespace
}  // namespace dvfs::obs
