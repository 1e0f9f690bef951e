/// \file timeseries.h
/// \brief Fixed-memory in-process time-series retention for the metrics
///        registry, the substrate the SLO engine evaluates over.
///
/// The metrics registry answers "what is the value now"; burn-rate
/// alerting needs "how did it move over the last N seconds". A
/// `TimeSeriesStore` closes that gap without growing a database: every
/// tracked metric gets a `SeriesRing` — a fixed-capacity ring of
/// (timestamp, value) samples — and `sample()` appends one point per
/// metric from a registry snapshot. Memory is bounded by construction:
/// `tracked metrics * capacity * sizeof(Sample)`, independent of run length;
/// when a ring fills, the oldest sample is overwritten.
///
/// Windowed queries (`window_stats`, `delta`, `rate`,
/// `quantile_over_window`) operate on the samples with
/// `t >= now - window_s`. They return NaN when the window holds too few
/// samples to answer — "no data" must stay distinguishable from 0, or an
/// alert on a rate would fire (or stay silent) on an empty window.
///
/// Threading: a store is owned by one sampling thread (the health
/// monitor's). The *registry* snapshots it reads are themselves
/// thread-safe; the store adds no locking of its own.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "dvfs/obs/metrics.h"

namespace dvfs::obs {

/// Fixed-capacity ring of (timestamp, value) samples with monotone
/// timestamps (enforced) and windowed aggregation.
class SeriesRing {
 public:
  static constexpr std::size_t kDefaultCapacity = 512;

  explicit SeriesRing(std::size_t capacity = kDefaultCapacity);

  struct Sample {
    double t = 0.0;
    double v = 0.0;
  };

  /// Appends a sample; `t` must be >= the previous sample's time. On a
  /// full ring the oldest sample is evicted.
  void push(double t, double v);

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::size_t capacity() const noexcept {
    return slots_.size();
  }
  /// i = 0 is the oldest retained sample.
  [[nodiscard]] Sample at(std::size_t i) const;
  [[nodiscard]] Sample back() const;

  /// The samples with t >= now - window_s, oldest first.
  [[nodiscard]] std::vector<Sample> window(double now,
                                           double window_s) const;

  struct WindowStats {
    std::size_t count = 0;
    /// All NaN when count == 0.
    double min = 0.0, max = 0.0, mean = 0.0;
    double first = 0.0, last = 0.0;
    double first_t = 0.0, last_t = 0.0;
  };
  [[nodiscard]] WindowStats window_stats(double now, double window_s) const;

  /// last - first over the window; NaN with fewer than two samples.
  [[nodiscard]] double delta(double now, double window_s) const;
  /// delta / elapsed seconds between the first and last window samples;
  /// NaN with fewer than two samples or zero elapsed time.
  [[nodiscard]] double rate(double now, double window_s) const;
  /// Nearest-rank quantile (q in [0, 1]) of the window's sample values;
  /// NaN on an empty window.
  [[nodiscard]] double quantile_over_window(double now, double window_s,
                                            double q) const;

 private:
  /// Count of leading (oldest) samples strictly before `cutoff`.
  [[nodiscard]] std::size_t skip_before(double cutoff) const;

  std::vector<Sample> slots_;
  std::size_t head_ = 0;  // index of the oldest sample
  std::size_t size_ = 0;
};

/// Nearest-rank quantile of a registry histogram snapshot, the value
/// `Histogram::percentile_upper_bound` reports (both go through
/// `Histogram::nearest_rank_upper_bound`). NaN when empty — the windowed
/// consumers need "no data" to stay out of comparisons.
[[nodiscard]] double snapshot_percentile(
    const Registry::HistogramSnapshot& snapshot, double p);

/// Retains one `SeriesRing` per metric of a registry. `sample()` pushes
/// the current value of every counter and gauge, plus one derived series
/// per tracked histogram quantile (`track_quantile`).
class TimeSeriesStore {
 public:
  explicit TimeSeriesStore(
      std::size_t capacity_per_series = SeriesRing::kDefaultCapacity);

  /// Key of the derived series for `histogram`'s q-quantile.
  [[nodiscard]] static std::string quantile_key(const std::string& histogram,
                                                double q);

  /// Registers a histogram quantile to derive on every `sample()` call.
  /// Idempotent.
  void track_quantile(const std::string& histogram, double q);

  /// Appends one sample at time `now` for every counter, gauge, and
  /// tracked histogram quantile in `registry`.
  void sample(const Registry& registry, double now);

  /// nullptr when the key has never been sampled.
  [[nodiscard]] const SeriesRing* find(const std::string& key) const;
  /// Get-or-create, for tests and manual feeds.
  [[nodiscard]] SeriesRing& series(const std::string& key);

  [[nodiscard]] std::uint64_t samples_taken() const { return samples_; }
  [[nodiscard]] std::vector<std::string> keys() const;

 private:
  std::size_t capacity_;
  std::uint64_t samples_ = 0;
  std::vector<std::pair<std::string, double>> tracked_;
  std::map<std::string, SeriesRing> series_;
};

}  // namespace dvfs::obs
