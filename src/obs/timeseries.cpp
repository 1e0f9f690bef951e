#include "dvfs/obs/timeseries.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "dvfs/common.h"

namespace dvfs::obs {

namespace {
constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
}  // namespace

SeriesRing::SeriesRing(std::size_t capacity)
    : slots_(std::max<std::size_t>(capacity, 2)) {}

void SeriesRing::push(double t, double v) {
  DVFS_REQUIRE(empty() || t >= back().t,
               "series timestamps must be monotone non-decreasing");
  if (size_ == slots_.size()) {
    slots_[head_] = Sample{t, v};
    head_ = (head_ + 1) % slots_.size();
  } else {
    slots_[(head_ + size_) % slots_.size()] = Sample{t, v};
    ++size_;
  }
}

SeriesRing::Sample SeriesRing::at(std::size_t i) const {
  DVFS_REQUIRE(i < size_, "series sample index out of range");
  return slots_[(head_ + i) % slots_.size()];
}

SeriesRing::Sample SeriesRing::back() const {
  DVFS_REQUIRE(size_ > 0, "series is empty");
  return at(size_ - 1);
}

std::size_t SeriesRing::skip_before(double cutoff) const {
  // Timestamps are monotone: binary-search the first retained sample with
  // t >= cutoff.
  std::size_t lo = 0, hi = size_;
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (at(mid).t < cutoff) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

std::vector<SeriesRing::Sample> SeriesRing::window(double now,
                                                   double window_s) const {
  DVFS_REQUIRE(window_s > 0.0, "window must be positive");
  std::vector<Sample> out;
  for (std::size_t i = skip_before(now - window_s); i < size_; ++i) {
    out.push_back(at(i));
  }
  return out;
}

SeriesRing::WindowStats SeriesRing::window_stats(double now,
                                                 double window_s) const {
  DVFS_REQUIRE(window_s > 0.0, "window must be positive");
  WindowStats stats;
  stats.min = stats.max = stats.mean = kNan;
  stats.first = stats.last = stats.first_t = stats.last_t = kNan;
  double sum = 0.0;
  for (std::size_t i = skip_before(now - window_s); i < size_; ++i) {
    const Sample s = at(i);
    if (stats.count == 0) {
      stats.min = stats.max = s.v;
      stats.first = s.v;
      stats.first_t = s.t;
    } else {
      stats.min = std::min(stats.min, s.v);
      stats.max = std::max(stats.max, s.v);
    }
    stats.last = s.v;
    stats.last_t = s.t;
    sum += s.v;
    ++stats.count;
  }
  if (stats.count > 0) {
    stats.mean = sum / static_cast<double>(stats.count);
  }
  return stats;
}

double SeriesRing::delta(double now, double window_s) const {
  const WindowStats stats = window_stats(now, window_s);
  if (stats.count < 2) return kNan;
  return stats.last - stats.first;
}

double SeriesRing::rate(double now, double window_s) const {
  const WindowStats stats = window_stats(now, window_s);
  if (stats.count < 2 || stats.last_t <= stats.first_t) return kNan;
  return (stats.last - stats.first) / (stats.last_t - stats.first_t);
}

double SeriesRing::quantile_over_window(double now, double window_s,
                                        double q) const {
  DVFS_REQUIRE(q >= 0.0 && q <= 1.0, "quantile must be in [0, 1]");
  std::vector<Sample> samples = window(now, window_s);
  if (samples.empty()) return kNan;
  std::vector<double> values;
  values.reserve(samples.size());
  for (const Sample& s : samples) values.push_back(s.v);
  std::sort(values.begin(), values.end());
  // Nearest rank, consistent with Histogram::percentile_upper_bound.
  const auto rank = std::max<std::size_t>(
      1, static_cast<std::size_t>(
             std::ceil(q * static_cast<double>(values.size()))));
  return values[std::min(rank, values.size()) - 1];
}

double snapshot_percentile(const Registry::HistogramSnapshot& snapshot,
                           double p) {
  const auto bound =
      Histogram::nearest_rank_upper_bound(snapshot.buckets, snapshot.count, p);
  return bound ? static_cast<double>(*bound) : kNan;
}

TimeSeriesStore::TimeSeriesStore(std::size_t capacity_per_series)
    : capacity_(capacity_per_series) {}

std::string TimeSeriesStore::quantile_key(const std::string& histogram,
                                          double q) {
  // "|q" cannot collide with a registry name ('|' never appears there).
  return histogram + "|q" + std::to_string(q);
}

void TimeSeriesStore::track_quantile(const std::string& histogram, double q) {
  DVFS_REQUIRE(q >= 0.0 && q <= 1.0, "quantile must be in [0, 1]");
  for (const auto& [name, existing] : tracked_) {
    if (name == histogram && existing == q) return;
  }
  tracked_.emplace_back(histogram, q);
}

void TimeSeriesStore::sample(const Registry& registry, double now) {
  for (const auto& [name, value] : registry.counters_snapshot()) {
    series(name).push(now, static_cast<double>(value));
  }
  for (const auto& [name, value] : registry.gauges_snapshot()) {
    series(name).push(now, value);
  }
  if (!tracked_.empty()) {
    const auto histograms = registry.histograms_snapshot();
    for (const auto& [name, q] : tracked_) {
      for (const auto& snap : histograms) {
        if (snap.name != name) continue;
        series(quantile_key(name, q)).push(now, snapshot_percentile(snap, q));
        break;
      }
      // A histogram that is not registered yet simply contributes no
      // sample; the series starts once the metric exists.
    }
  }
  ++samples_;
}

const SeriesRing* TimeSeriesStore::find(const std::string& key) const {
  const auto it = series_.find(key);
  return it == series_.end() ? nullptr : &it->second;
}

SeriesRing& TimeSeriesStore::series(const std::string& key) {
  const auto it = series_.find(key);
  if (it != series_.end()) return it->second;
  return series_.try_emplace(key, capacity_).first->second;
}

std::vector<std::string> TimeSeriesStore::keys() const {
  std::vector<std::string> out;
  out.reserve(series_.size());
  for (const auto& [key, ring] : series_) out.push_back(key);
  return out;
}

}  // namespace dvfs::obs
