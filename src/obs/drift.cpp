#include "dvfs/obs/drift.h"

#include <cmath>

namespace dvfs::obs::hw {

namespace {

std::uint64_t ratio_ppm(double measured, double predicted) {
  if (predicted <= 0.0) return 0;
  return static_cast<std::uint64_t>(
      std::llround(measured / predicted * 1e6));
}

}  // namespace

DriftTracker::DriftTracker(Registry& registry)
    : cycles_gauge_(registry.gauge("rt.drift.cycles_ratio")),
      duration_gauge_(registry.gauge("rt.drift.duration_ratio")),
      energy_gauge_(registry.gauge("rt.drift.energy_ratio")),
      cycles_ppm_(registry.histogram("rt.drift.cycles_ratio_ppm")),
      duration_ppm_(registry.histogram("rt.drift.duration_ratio_ppm")),
      energy_ppm_(registry.histogram("rt.drift.energy_ratio_ppm")),
      cpi_milli_(registry.histogram("rt.hw.cpi_milli")),
      measured_counter_(registry.counter("rt.hw.spans_measured")),
      model_counter_(registry.counter("rt.hw.spans_model")) {}

void DriftTracker::observe(const SpanPrediction& predicted,
                           const SpanMeasurement& measured) {
  const bool counters_real = is_measured(measured.counter_source);
  const bool time_real = is_measured(measured.time_source);
  const bool energy_real = is_measured(measured.energy_source);

  if (counters_real || time_real || energy_real) {
    measured_counter_.inc();
  } else {
    model_counter_.inc();
  }
  if (counters_real) {
    cycles_ppm_.observe(ratio_ppm(static_cast<double>(measured.cycles),
                                  static_cast<double>(predicted.cycles)));
    if (measured.instructions > 0) {
      cpi_milli_.observe(
          static_cast<std::uint64_t>(std::llround(measured.cpi() * 1e3)));
    }
  }
  if (time_real) {
    duration_ppm_.observe(ratio_ppm(measured.seconds, predicted.seconds));
  }
  if (energy_real) {
    energy_ppm_.observe(ratio_ppm(measured.joules, predicted.joules));
  }

  const std::scoped_lock lock(mu_);
  if (counters_real || time_real || energy_real) {
    ++spans_measured_;
  } else {
    ++spans_model_;
  }
  if (counters_real) {
    cycles_.add(static_cast<double>(predicted.cycles),
                static_cast<double>(measured.cycles));
    cycles_gauge_.set(cycles_.ratio());
  }
  if (time_real) {
    duration_.add(predicted.seconds, measured.seconds);
    duration_gauge_.set(duration_.ratio());
  }
  if (energy_real) {
    energy_.add(predicted.joules, measured.joules);
    energy_gauge_.set(energy_.ratio());
  }
}

DriftSummary DriftTracker::summary() const {
  const std::scoped_lock lock(mu_);
  return DriftSummary{.cycles_ratio = cycles_.ratio(),
                      .duration_ratio = duration_.ratio(),
                      .energy_ratio = energy_.ratio(),
                      .spans_measured = spans_measured_,
                      .spans_model = spans_model_,
                      .cycles_spans = cycles_.spans,
                      .duration_spans = duration_.spans,
                      .energy_spans = energy_.spans};
}

}  // namespace dvfs::obs::hw
