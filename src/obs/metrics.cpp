#include "dvfs/obs/metrics.h"

#include <algorithm>
#include <cmath>

namespace dvfs::obs {

std::optional<std::uint64_t> Histogram::percentile_upper_bound(
    double p) const {
  // The count first: observe() bumps a bucket before the count, so the
  // buckets read afterwards hold at least `n` samples.
  const std::uint64_t n = count();
  std::array<std::pair<std::uint64_t, std::uint64_t>, kNumBuckets> buckets;
  for (std::size_t i = 0; i < kNumBuckets; ++i) {
    buckets[i] = {bucket_lower(i), bucket(i)};
  }
  return nearest_rank_upper_bound(buckets, n, p);
}

std::optional<std::uint64_t> Histogram::nearest_rank_upper_bound(
    std::span<const std::pair<std::uint64_t, std::uint64_t>> buckets,
    std::uint64_t count, double p) {
  DVFS_REQUIRE(p >= 0.0 && p <= 1.0, "percentile must be in [0, 1]");
  if (count == 0) return std::nullopt;
  // Nearest-rank: the smallest sample with at least ceil(p*n) samples at
  // or below it, so p99 of a small set still lands in the tail bucket.
  const auto target = std::max<std::uint64_t>(
      1,
      static_cast<std::uint64_t>(std::ceil(p * static_cast<double>(count))));
  std::uint64_t seen = 0;
  for (const auto& [lower, n] : buckets) {
    seen += n;
    if (seen >= target) return bucket_upper(bucket_index(lower));
  }
  return ~std::uint64_t{0};
}

void Histogram::restore(
    std::uint64_t count, std::uint64_t sum,
    const std::vector<std::pair<std::uint64_t, std::uint64_t>>&
        bucket_counts) {
  reset();
  count_.store(count, std::memory_order_relaxed);
  sum_.store(sum, std::memory_order_relaxed);
  for (const auto& [lower, n] : bucket_counts) {
    buckets_[bucket_index(lower)].store(n, std::memory_order_relaxed);
  }
}

Registry& Registry::global() {
  static Registry instance;
  return instance;
}

Counter& Registry::counter(const std::string& name) {
  const std::scoped_lock lock(mu_);
  DVFS_REQUIRE(!gauges_.contains(name) && !histograms_.contains(name),
               "metric name already used by another kind: " + name);
  return counters_[name];
}

Gauge& Registry::gauge(const std::string& name) {
  const std::scoped_lock lock(mu_);
  DVFS_REQUIRE(!counters_.contains(name) && !histograms_.contains(name),
               "metric name already used by another kind: " + name);
  return gauges_[name];
}

Histogram& Registry::histogram(const std::string& name) {
  const std::scoped_lock lock(mu_);
  DVFS_REQUIRE(!counters_.contains(name) && !gauges_.contains(name),
               "metric name already used by another kind: " + name);
  return histograms_[name];
}

Json Registry::to_json() const {
  const std::scoped_lock lock(mu_);
  Json::Object counters;
  for (const auto& [name, c] : counters_) {
    counters.emplace(name, Json(c.value()));
  }
  Json::Object gauges;
  for (const auto& [name, g] : gauges_) {
    gauges.emplace(name, Json(g.value()));
  }
  Json::Object histograms;
  for (const auto& [name, h] : histograms_) {
    Json::Object entry;
    entry.emplace("count", Json(h.count()));
    entry.emplace("sum", Json(h.sum()));
    // An empty histogram has no mean or quantiles; omitting the fields
    // keeps "no data" distinguishable from a legitimate value of 0.
    if (h.count() > 0) {
      entry.emplace("mean", Json(h.mean()));
      entry.emplace("p50", Json(*h.percentile_upper_bound(0.5)));
      entry.emplace("p99", Json(*h.percentile_upper_bound(0.99)));
    }
    Json::Array buckets;
    for (std::size_t i = 0; i < Histogram::kNumBuckets; ++i) {
      const std::uint64_t n = h.bucket(i);
      if (n == 0) continue;
      buckets.push_back(Json(Json::Array{Json(Histogram::bucket_lower(i)),
                                         Json(n)}));
    }
    entry.emplace("buckets", Json(std::move(buckets)));
    histograms.emplace(name, Json(std::move(entry)));
  }
  Json::Object root;
  root.emplace("counters", Json(std::move(counters)));
  root.emplace("gauges", Json(std::move(gauges)));
  root.emplace("histograms", Json(std::move(histograms)));
  return Json(std::move(root));
}

std::vector<std::pair<std::string, std::uint64_t>>
Registry::counters_snapshot() const {
  const std::scoped_lock lock(mu_);
  std::vector<std::pair<std::string, std::uint64_t>> out;
  out.reserve(counters_.size());
  for (const auto& [name, c] : counters_) out.emplace_back(name, c.value());
  return out;
}

std::vector<std::pair<std::string, double>> Registry::gauges_snapshot()
    const {
  const std::scoped_lock lock(mu_);
  std::vector<std::pair<std::string, double>> out;
  out.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_) out.emplace_back(name, g.value());
  return out;
}

std::vector<Registry::HistogramSnapshot> Registry::histograms_snapshot()
    const {
  const std::scoped_lock lock(mu_);
  std::vector<HistogramSnapshot> out;
  out.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) {
    HistogramSnapshot snap;
    snap.name = name;
    snap.count = h.count();
    snap.sum = h.sum();
    for (std::size_t i = 0; i < Histogram::kNumBuckets; ++i) {
      const std::uint64_t n = h.bucket(i);
      if (n != 0) snap.buckets.emplace_back(Histogram::bucket_lower(i), n);
    }
    out.push_back(std::move(snap));
  }
  return out;
}

void Registry::reset_all() {
  const std::scoped_lock lock(mu_);
  for (auto& [name, c] : counters_) c.reset();
  for (auto& [name, g] : gauges_) g.reset();
  for (auto& [name, h] : histograms_) h.reset();
}

}  // namespace dvfs::obs
