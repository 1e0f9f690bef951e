/// \file metrics.h
/// \brief Lock-cheap metrics: counters, gauges, and log-bucketed
///        histograms behind a process-wide registry.
///
/// Design rules, in order of importance:
///
///  1. The hot path is one relaxed atomic RMW. Instrumented code (a
///     governor's placement decision) resolves its metric once —
///     typically at construction — and then calls `add()`/`observe()` on
///     the returned reference, which never takes a lock and never
///     allocates. A loop too hot even for that (the sim engine's event
///     loop) tallies in plain fields and publishes in batches through
///     `Counter::add(n)` and `Histogram::add(buckets, sum)`.
///  2. Registration is the only synchronized operation. `counter(name)`
///     et al. take a mutex, get-or-create the entry, and hand back a
///     reference that stays valid for the registry's lifetime (node-based
///     storage; entries are never removed).
///  3. Snapshots are approximate by construction: a concurrent writer may
///     land an increment between two reads. That is the correct trade for
///     instrumentation — the alternative (stopping the world) would make
///     the metrics change what they measure.
///
/// Histograms use fixed log2 buckets: bucket 0 holds the value 0 and
/// bucket i >= 1 holds [2^(i-1), 2^i). Exact enough for latency
/// distributions spanning nanoseconds to seconds, and `observe()` stays a
/// bit-scan plus three relaxed adds.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "dvfs/common.h"
#include "dvfs/obs/json.h"

namespace dvfs::obs {

/// Monotonic event count. Thread-safe; increments are relaxed atomics.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    v_.fetch_add(n, std::memory_order_relaxed);
  }
  void inc() noexcept { add(1); }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Last-written instantaneous value (queue depth, configured core count).
class Gauge {
 public:
  void set(double v) noexcept { v_.store(v, std::memory_order_relaxed); }
  void add(double d) noexcept {
    double cur = v_.load(std::memory_order_relaxed);
    while (!v_.compare_exchange_weak(cur, cur + d,
                                     std::memory_order_relaxed)) {
    }
  }
  [[nodiscard]] double value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { set(0.0); }

 private:
  std::atomic<double> v_{0.0};
};

/// Fixed log2-bucket histogram of non-negative integer samples.
class Histogram {
 public:
  /// Bucket 0 holds the value 0; bucket i >= 1 holds [2^(i-1), 2^i).
  /// 64-bit values need bit_width up to 64, hence 65 buckets.
  static constexpr std::size_t kNumBuckets = 65;

  static constexpr std::size_t bucket_index(std::uint64_t v) noexcept {
    return static_cast<std::size_t>(std::bit_width(v));
  }
  /// Inclusive lower bound of bucket `i`.
  static constexpr std::uint64_t bucket_lower(std::size_t i) noexcept {
    return i == 0 ? 0 : std::uint64_t{1} << (i - 1);
  }
  /// Inclusive upper bound of bucket `i`: 0 for bucket 0, 2^i - 1 above
  /// it (2^64 - 1 for the top bucket).
  static constexpr std::uint64_t bucket_upper(std::size_t i) noexcept {
    return i + 1 < kNumBuckets ? bucket_lower(i + 1) - 1 : ~std::uint64_t{0};
  }

  void observe(std::uint64_t v) noexcept {
    buckets_[bucket_index(v)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
  }

  /// Adds samples counted elsewhere, as if each had been observe()d:
  /// `buckets[i]` samples fell in bucket i (see bucket_index) and all of
  /// them sum to `sum`. One relaxed add per non-empty bucket, for code
  /// that tallies in plain fields and publishes in batches.
  void add(std::span<const std::uint64_t, kNumBuckets> buckets,
           std::uint64_t sum) noexcept {
    std::uint64_t n = 0;
    for (std::size_t i = 0; i < kNumBuckets; ++i) {
      if (buckets[i] == 0) continue;
      buckets_[i].fetch_add(buckets[i], std::memory_order_relaxed);
      n += buckets[i];
    }
    if (n == 0) return;
    count_.fetch_add(n, std::memory_order_relaxed);
    sum_.fetch_add(sum, std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t sum() const noexcept {
    return sum_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t bucket(std::size_t i) const {
    DVFS_REQUIRE(i < kNumBuckets, "bucket index out of range");
    return buckets_[i].load(std::memory_order_relaxed);
  }
  [[nodiscard]] double mean() const noexcept {
    const std::uint64_t n = count();
    return n == 0 ? 0.0
                  : static_cast<double>(sum()) / static_cast<double>(n);
  }
  /// Upper bound of the bucket containing the nearest-rank p-quantile
  /// (p in [0, 1]), or nullopt when the histogram is empty — an empty
  /// histogram has no quantiles, and reporting 0 would be
  /// indistinguishable from a real all-zero distribution.
  ///
  /// Error bound: the true quantile q lies in the log2 bucket whose
  /// inclusive bounds this returns, so
  ///
  ///     q <= percentile_upper_bound(p) < 2 * max(q, 1)
  ///
  /// i.e. the reported value is never below the true quantile and
  /// overshoots by strictly less than one power of two (a factor of 2).
  /// Within any bucket the report is exact for the bucket's top value.
  [[nodiscard]] std::optional<std::uint64_t> percentile_upper_bound(
      double p) const;

  /// The nearest-rank p-quantile behind percentile_upper_bound and
  /// snapshot_percentile (timeseries.h): the upper bound of the first
  /// bucket at which the running sample total reaches max(1, ceil(p *
  /// count)), or nullopt when `count` is 0. `buckets` holds (inclusive
  /// lower bound, samples) pairs in ascending order; empty buckets may be
  /// left out.
  [[nodiscard]] static std::optional<std::uint64_t> nearest_rank_upper_bound(
      std::span<const std::pair<std::uint64_t, std::uint64_t>> buckets,
      std::uint64_t count, double p);

  void reset() noexcept {
    for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
    count_.store(0, std::memory_order_relaxed);
    sum_.store(0, std::memory_order_relaxed);
  }

  /// Overwrites this histogram with a previously captured state (count,
  /// sum, and (bucket_lower, bucket_count) pairs). Used by the flight
  /// recorder to rebuild a registry snapshot on replay; the rebuilt
  /// histogram then serializes through the exact same to_json path as
  /// the live one, so derived fields (mean, p50, p99) match bit for bit.
  void restore(std::uint64_t count, std::uint64_t sum,
               const std::vector<std::pair<std::uint64_t, std::uint64_t>>&
                   bucket_counts);

 private:
  std::array<std::atomic<std::uint64_t>, kNumBuckets> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
};

/// Process-wide named metrics. One global instance serves the whole
/// program (`Registry::global()`); tests may build private registries.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  static Registry& global();

  /// Get-or-create. The returned reference stays valid for the registry's
  /// lifetime. A name registered as one metric kind cannot be reused as
  /// another.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  /// Dump of every metric:
  ///   {"counters": {name: n}, "gauges": {name: x},
  ///    "histograms": {name: {count, sum, mean, p50, p99,
  ///                          buckets: [[lower, n], ...nonzero only]}}}
  /// mean/p50/p99 are omitted while a histogram is empty (no data is not
  /// the same as 0).
  [[nodiscard]] Json to_json() const;

  /// Zeroes every metric (registration survives). Tests and bench
  /// binaries use this to scope counts to one run.
  void reset_all();

  /// Consistent point-in-time copies of every registered metric, for
  /// consumers that need raw values rather than JSON (the flight
  /// recorder's binary epilogue, the Prometheus text encoder). Each call
  /// snapshots under the registration mutex.
  struct HistogramSnapshot {
    std::string name;
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    /// (inclusive lower bound, samples) for each non-empty bucket,
    /// ascending.
    std::vector<std::pair<std::uint64_t, std::uint64_t>> buckets;
  };
  [[nodiscard]] std::vector<std::pair<std::string, std::uint64_t>>
  counters_snapshot() const;
  [[nodiscard]] std::vector<std::pair<std::string, double>> gauges_snapshot()
      const;
  [[nodiscard]] std::vector<HistogramSnapshot> histograms_snapshot() const;

 private:
  mutable std::mutex mu_;
  // std::map nodes are address-stable across later insertions.
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, Histogram> histograms_;
};

}  // namespace dvfs::obs
