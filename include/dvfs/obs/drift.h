/// \file drift.h
/// \brief Online predicted-vs-measured drift tracking for the rt executor.
///
/// Every executed task span yields a (SpanPrediction, SpanMeasurement)
/// pair; the tracker folds them into aggregate measured/predicted ratios
/// per dimension — cycles, duration, energy — and publishes them through
/// the ordinary metrics registry so the Prometheus endpoint and `.dfr`
/// epilogue pick them up for free:
///
///   gauges      rt.drift.cycles_ratio / duration_ratio / energy_ratio
///               (aggregate sum(measured)/sum(predicted); 0 until the
///               first *measured* sample — model-charged fallback values
///               never masquerade as drift-free measurements)
///   histograms  rt.drift.{cycles,duration,energy}_ratio_ppm
///               (per-span ratio * 1e6, log2-bucketed)
///               rt.hw.cpi_milli (realized CPI * 1000, when the counter
///               source reports instructions)
///   counters    rt.hw.spans_measured / rt.hw.spans_model
///
/// A dimension only contributes when its `Source` satisfies
/// `is_measured()`; spans whose every dimension fell back to the model
/// count under `rt.hw.spans_model` and move no ratio. With the fake
/// provider replaying predictions verbatim, every ratio is exactly 1.0 —
/// the property `dvfs_inspect drift` and the ctest gate rely on.
#pragma once

#include <cstdint>
#include <mutex>

#include "dvfs/obs/hw_telemetry.h"
#include "dvfs/obs/metrics.h"

namespace dvfs::obs::hw {

/// Aggregate drift state, returned by DriftTracker::summary() and carried
/// on rt::RtResult. Ratios are 0 when that dimension never measured; the
/// per-dimension span counts say how many spans measured it.
struct DriftSummary {
  double cycles_ratio = 0.0;
  double duration_ratio = 0.0;
  double energy_ratio = 0.0;
  std::uint64_t spans_measured = 0;
  std::uint64_t spans_model = 0;
  std::uint64_t cycles_spans = 0;
  std::uint64_t duration_spans = 0;
  std::uint64_t energy_spans = 0;
};

/// Thread-safe accumulator. Construct once per run (metric references are
/// resolved up front), then call observe() from any worker thread.
class DriftTracker {
 public:
  explicit DriftTracker(Registry& registry);

  /// Folds one completed span in and refreshes the published gauges.
  void observe(const SpanPrediction& predicted,
               const SpanMeasurement& measured);

  [[nodiscard]] DriftSummary summary() const;

 private:
  struct Dim {
    double predicted_sum = 0.0;
    double measured_sum = 0.0;
    std::uint64_t spans = 0;
    void add(double predicted, double measured) {
      predicted_sum += predicted;
      measured_sum += measured;
      ++spans;
    }
    [[nodiscard]] double ratio() const {
      return predicted_sum > 0.0 ? measured_sum / predicted_sum : 0.0;
    }
  };

  mutable std::mutex mu_;
  Dim cycles_, duration_, energy_;
  std::uint64_t spans_measured_ = 0;
  std::uint64_t spans_model_ = 0;

  Gauge& cycles_gauge_;
  Gauge& duration_gauge_;
  Gauge& energy_gauge_;
  Histogram& cycles_ppm_;
  Histogram& duration_ppm_;
  Histogram& energy_ppm_;
  Histogram& cpi_milli_;
  Counter& measured_counter_;
  Counter& model_counter_;
};

}  // namespace dvfs::obs::hw
