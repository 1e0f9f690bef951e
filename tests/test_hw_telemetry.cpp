/// Hardware-telemetry tests: source labeling (never silently mislabeled),
/// RAPL wraparound accounting against a fake powercap tree, the
/// unprivileged timer+model path, the fake provider's exact-replay guarantee
/// (all drift ratios read 1.0 to the last bit), and the executor
/// integration including `.dfr` v2 events.
#include "dvfs/obs/hw_telemetry.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "dvfs/obs/drift.h"
#include "dvfs/obs/recorder.h"
#include "dvfs/obs/trace.h"
#include "dvfs/rt/executor.h"

namespace dvfs::obs::hw {
namespace {

namespace fs = std::filesystem;

std::string temp_dir(const std::string& leaf) {
  const fs::path dir = fs::temp_directory_path() / leaf;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

void write_file(const fs::path& p, const std::string& text) {
  std::ofstream os(p, std::ios::trunc);
  ASSERT_TRUE(os.is_open()) << p;
  os << text;
}

TEST(Source, EncodingRoundTrips) {
  const std::uint16_t aux =
      encode_sources(Source::kPerf, Source::kThreadTimer, Source::kRapl);
  EXPECT_EQ(decode_counter_source(aux), Source::kPerf);
  EXPECT_EQ(decode_time_source(aux), Source::kThreadTimer);
  EXPECT_EQ(decode_energy_source(aux), Source::kRapl);
  EXPECT_EQ(decode_counter_source(encode_sources(
                Source::kModel, Source::kFake, Source::kUnavailable)),
            Source::kModel);
  EXPECT_STREQ(to_string(Source::kRapl), "rapl");
  EXPECT_TRUE(is_measured(Source::kPerf));
  EXPECT_TRUE(is_measured(Source::kFake));
  EXPECT_FALSE(is_measured(Source::kModel));
  EXPECT_FALSE(is_measured(Source::kUnavailable));
}

TEST(RaplReader, ReadsFakeTreeAndCorrectsWraparound) {
  const std::string root = temp_dir("dvfs_rapl_wrap");
  make_fake_powercap_tree(root, /*packages=*/2, /*with_core_domain=*/false,
                          /*max_range_uj=*/10'000'000);
  RaplReader rapl(root);
  ASSERT_TRUE(rapl.available());
  EXPECT_EQ(rapl.num_packages(), 2u);

  RaplReader::Reading r = rapl.read();
  EXPECT_DOUBLE_EQ(r.package_j, 0.0);
  EXPECT_FALSE(r.has_core);

  write_file(fs::path(root) / "intel-rapl:0" / "energy_uj", "5000000\n");
  r = rapl.read();
  EXPECT_DOUBLE_EQ(r.package_j, 5.0);

  // Counter wraps: 5e6 -> 1e6 with range 10e6 is a +6 J step, not -4 J.
  write_file(fs::path(root) / "intel-rapl:0" / "energy_uj", "1000000\n");
  r = rapl.read();
  EXPECT_DOUBLE_EQ(r.package_j, 11.0);
  fs::remove_all(root);
}

TEST(RaplReader, FindsCoreSubdomain) {
  const std::string root = temp_dir("dvfs_rapl_core");
  make_fake_powercap_tree(root, 1, /*with_core_domain=*/true);
  RaplReader rapl(root);
  ASSERT_TRUE(rapl.available());
  EXPECT_EQ(rapl.num_packages(), 1u);
  write_file(fs::path(root) / "intel-rapl:0" / "intel-rapl:0:0" / "energy_uj",
             "2500000\n");
  const RaplReader::Reading r = rapl.read();
  EXPECT_TRUE(r.has_core);
  EXPECT_DOUBLE_EQ(r.core_j, 2.5);
  fs::remove_all(root);
}

TEST(RaplReader, MissingTreeIsUnavailableNotFatal) {
  RaplReader rapl("/nonexistent/powercap");
  EXPECT_FALSE(rapl.available());
  EXPECT_EQ(rapl.num_packages(), 0u);
  const RaplReader::Reading r = rapl.read();
  EXPECT_DOUBLE_EQ(r.package_j, 0.0);
}

TEST(FakeHwProvider, ExactReplayEqualsPrediction) {
  FakeHwProvider provider;  // all skews 1.0
  const auto tel = provider.open_thread_telemetry(0);
  const SpanPrediction pred{.cycles = 123'456'789,
                            .seconds = 0.0421,
                            .joules = 1.375};
  tel->begin_span(pred);
  const SpanMeasurement m = tel->end_span(pred);
  EXPECT_EQ(m.cycles, pred.cycles);
  EXPECT_EQ(m.instructions, pred.cycles);  // ipc = 1
  EXPECT_DOUBLE_EQ(m.seconds, pred.seconds);
  EXPECT_DOUBLE_EQ(m.joules, pred.joules);
  EXPECT_EQ(m.counter_source, Source::kFake);
  EXPECT_EQ(m.time_source, Source::kFake);
  EXPECT_EQ(m.energy_source, Source::kFake);
  EXPECT_FALSE(m.energy_is_shared);
  EXPECT_DOUBLE_EQ(m.cpi(), 1.0);
}

TEST(FakeHwProvider, SkewsScaleEachDimension) {
  FakeHwProvider provider({.cycles_skew = 1.5,
                           .time_skew = 0.5,
                           .energy_skew = 2.0,
                           .ipc = 2.0});
  const auto tel = provider.open_thread_telemetry(3);
  const SpanPrediction pred{.cycles = 1000, .seconds = 2.0, .joules = 3.0};
  tel->begin_span(pred);
  const SpanMeasurement m = tel->end_span(pred);
  EXPECT_EQ(m.cycles, 1500u);
  EXPECT_EQ(m.instructions, 3000u);
  EXPECT_DOUBLE_EQ(m.seconds, 1.0);
  EXPECT_DOUBLE_EQ(m.joules, 6.0);
  EXPECT_THROW(FakeHwProvider({.cycles_skew = -1.0}), PreconditionError);
}

TEST(LinuxHwProvider, TimerAndModelDegradeWithHonestLabels) {
  // The unprivileged path, pinned by the options: it reads the same on
  // hosts with and without perf or RAPL.
  LinuxHwProvider provider({.counters = LinuxHwProvider::Counters::kTimer,
                            .energy = LinuxHwProvider::Energy::kModel});
  EXPECT_FALSE(provider.rapl_active());
  EXPECT_EQ(provider.describe(), "timer+model");
  const auto tel = provider.open_thread_telemetry(0);
  const SpanPrediction pred{.cycles = 5000, .seconds = 0.5, .joules = 0.25};
  tel->begin_span(pred);
  const SpanMeasurement m = tel->end_span(pred);
  // Cycles and energy are charged from the model and say so; the thread
  // timer still measures for real.
  EXPECT_EQ(m.counter_source, Source::kModel);
  EXPECT_EQ(m.cycles, pred.cycles);
  EXPECT_EQ(m.energy_source, Source::kModel);
  EXPECT_DOUBLE_EQ(m.joules, pred.joules);
  EXPECT_EQ(m.time_source, Source::kThreadTimer);
  EXPECT_GE(m.seconds, 0.0);
  EXPECT_LT(m.seconds, 0.5);  // the span did no work, far below prediction
}

TEST(LinuxHwProvider, AutoCountersAreAlwaysLabeledTruthfully) {
  // Whatever this host supports, the label must match the value's origin:
  // a perf reading is a real measurement, a model fallback echoes the
  // prediction. No third state, no crash.
  LinuxHwProvider provider({.energy = LinuxHwProvider::Energy::kModel});
  const auto tel = provider.open_thread_telemetry(0);
  const SpanPrediction pred{.cycles = 777, .seconds = 0.0, .joules = 0.0};
  tel->begin_span(pred);
  volatile double sink = 1.0;
  for (int i = 0; i < 100'000; ++i) sink = sink * 1.0000001 + 1e-9;
  ASSERT_GT(sink, 0.0);
  const SpanMeasurement m = tel->end_span(pred);
  if (m.counter_source == Source::kPerf) {
    EXPECT_GT(m.cycles, 0u) << "a measured busy span has nonzero cycles";
  } else {
    EXPECT_EQ(m.counter_source, Source::kModel);
    EXPECT_EQ(m.cycles, pred.cycles);
  }
  EXPECT_EQ(m.time_source, Source::kThreadTimer);
  EXPECT_EQ(m.energy_source, Source::kModel);
}

TEST(LinuxHwProvider, RaplEnergyFromInjectedTreeIsShared) {
  const std::string root = temp_dir("dvfs_rapl_provider");
  make_fake_powercap_tree(root, 1, /*with_core_domain=*/false);
  LinuxHwProvider provider({.counters = LinuxHwProvider::Counters::kTimer,
                            .powercap_root = root});
  EXPECT_TRUE(provider.rapl_active());
  EXPECT_EQ(provider.describe(), "timer+rapl");
  const auto tel = provider.open_thread_telemetry(0);
  const SpanPrediction pred{.cycles = 1, .seconds = 0.0, .joules = 0.5};
  tel->begin_span(pred);
  write_file(fs::path(root) / "intel-rapl:0" / "energy_uj", "3000000\n");
  const SpanMeasurement m = tel->end_span(pred);
  EXPECT_EQ(m.energy_source, Source::kRapl);
  EXPECT_TRUE(m.energy_is_shared);
  EXPECT_DOUBLE_EQ(m.joules, 3.0);
  fs::remove_all(root);
}

TEST(MakeProvider, ParsesSpecs) {
  EXPECT_EQ(make_provider("off"), nullptr);
  EXPECT_NE(make_provider("auto"), nullptr);
  EXPECT_NE(make_provider("timer"), nullptr);
  EXPECT_NE(make_provider("model"), nullptr);
  const auto fake = make_provider("fake:cycles=1.5,energy=2,ipc=0.5");
  ASSERT_NE(fake, nullptr);
  const auto* cfg = dynamic_cast<FakeHwProvider*>(fake.get());
  ASSERT_NE(cfg, nullptr);
  EXPECT_DOUBLE_EQ(cfg->config().cycles_skew, 1.5);
  EXPECT_DOUBLE_EQ(cfg->config().energy_skew, 2.0);
  EXPECT_DOUBLE_EQ(cfg->config().time_skew, 1.0);
  EXPECT_DOUBLE_EQ(cfg->config().ipc, 0.5);
  EXPECT_THROW(make_provider("nonsense"), PreconditionError);
  EXPECT_THROW(make_provider("perf"), PreconditionError);
  EXPECT_THROW(make_provider("fake:bogus=1"), PreconditionError);
  EXPECT_THROW(make_provider("fake:cycles"), PreconditionError);
  EXPECT_THROW(make_provider("fake:cycles=abc"), PreconditionError);
  // A value must be a finite number over the whole field.
  EXPECT_THROW(make_provider("fake:energy=2x"), PreconditionError);
  EXPECT_THROW(make_provider("fake:cycles=inf"), PreconditionError);
  EXPECT_THROW(make_provider("fake:energy="), PreconditionError);
  EXPECT_THROW(make_provider("fake:energy= 2"), PreconditionError);
}

TEST(DriftTracker, RatiosAndProvenanceCounters) {
  Registry reg;
  DriftTracker tracker(reg);
  EXPECT_DOUBLE_EQ(tracker.summary().energy_ratio, 0.0);  // no data yet

  const SpanPrediction pred{.cycles = 1000, .seconds = 2.0, .joules = 4.0};
  SpanMeasurement fully_model;  // every source kUnavailable -> model span
  fully_model.counter_source = Source::kModel;
  fully_model.time_source = Source::kModel;
  fully_model.energy_source = Source::kModel;
  tracker.observe(pred, fully_model);
  EXPECT_EQ(tracker.summary().spans_model, 1u);
  EXPECT_EQ(tracker.summary().spans_measured, 0u);
  // Model-charged spans move no ratio: the gauges still say "no data".
  EXPECT_DOUBLE_EQ(reg.gauge("rt.drift.energy_ratio").value(), 0.0);

  SpanMeasurement measured;
  measured.cycles = 1500;
  measured.instructions = 1000;
  measured.seconds = 1.0;
  measured.joules = 8.0;
  measured.counter_source = Source::kFake;
  measured.time_source = Source::kFake;
  measured.energy_source = Source::kFake;
  tracker.observe(pred, measured);
  const DriftSummary s = tracker.summary();
  EXPECT_EQ(s.spans_measured, 1u);
  EXPECT_DOUBLE_EQ(s.cycles_ratio, 1.5);
  EXPECT_DOUBLE_EQ(s.duration_ratio, 0.5);
  EXPECT_DOUBLE_EQ(s.energy_ratio, 2.0);
  EXPECT_DOUBLE_EQ(reg.gauge("rt.drift.cycles_ratio").value(), 1.5);
  EXPECT_DOUBLE_EQ(reg.gauge("rt.drift.energy_ratio").value(), 2.0);
  EXPECT_EQ(reg.counter("rt.hw.spans_measured").value(), 1u);
  EXPECT_EQ(reg.counter("rt.hw.spans_model").value(), 1u);
  // CPI 1.5 -> 1500 milli-CPI landed in the histogram.
  EXPECT_EQ(reg.histogram("rt.hw.cpi_milli").count(), 1u);
  EXPECT_EQ(reg.histogram("rt.hw.cpi_milli").sum(), 1500u);
}

core::Plan small_plan() {
  core::Plan plan;
  plan.cores.resize(2);
  plan.cores[0].sequence = {core::ScheduledTask{0, 40'000'000, 0},
                            core::ScheduledTask{1, 40'000'000, 4}};
  plan.cores[1].sequence = {core::ScheduledTask{2, 80'000'000, 2}};
  return plan;
}

TEST(ExecutorIntegration, FakeExactReplayDriftIsExactlyOne) {
  Registry::global().reset_all();
  rt::RealtimeExecutor exec(core::EnergyModel::icpp2014_table2(),
                            {.time_scale = 1e-4});
  FakeHwProvider fake;
  exec.set_hw_provider(&fake);
  const rt::RtResult r = exec.execute(small_plan());
  ASSERT_EQ(r.tasks.size(), 3u);
  EXPECT_EQ(r.drift.spans_measured, 3u);
  EXPECT_EQ(r.drift.spans_model, 0u);
  // The acceptance bar: exact replay means every ratio is 1.0 within
  // 1e-6 (in fact, to the last bit).
  EXPECT_LT(std::abs(r.drift.cycles_ratio - 1.0), 1e-6);
  EXPECT_LT(std::abs(r.drift.duration_ratio - 1.0), 1e-6);
  EXPECT_LT(std::abs(r.drift.energy_ratio - 1.0), 1e-6);
  for (const rt::RtTaskRecord& t : r.tasks) {
    EXPECT_EQ(t.measured.counter_source, Source::kFake);
    EXPECT_EQ(t.measured.energy_source, Source::kFake);
    EXPECT_DOUBLE_EQ(t.measured.joules, t.model_energy);
  }
  EXPECT_DOUBLE_EQ(
      Registry::global().gauge("rt.drift.energy_ratio").value(), 1.0);
}

TEST(ExecutorIntegration, EnergySkewShowsUpInDriftMetrics) {
  Registry::global().reset_all();
  rt::RealtimeExecutor exec(core::EnergyModel::icpp2014_table2(),
                            {.time_scale = 1e-4});
  FakeHwProvider fake({.energy_skew = 2.0});
  exec.set_hw_provider(&fake);
  const rt::RtResult r = exec.execute(small_plan());
  EXPECT_LT(std::abs(r.drift.energy_ratio - 2.0), 1e-6);
  EXPECT_LT(std::abs(r.drift.cycles_ratio - 1.0), 1e-6);
  EXPECT_DOUBLE_EQ(
      Registry::global().gauge("rt.drift.energy_ratio").value(), 2.0);
}

TEST(ExecutorIntegration, WithoutProviderNothingIsMeasured) {
  Registry::global().reset_all();
  rt::RealtimeExecutor exec(core::EnergyModel::icpp2014_table2(),
                            {.time_scale = 1e-4});
  const rt::RtResult r = exec.execute(small_plan());
  EXPECT_EQ(r.drift.spans_measured, 0u);
  for (const rt::RtTaskRecord& t : r.tasks) {
    EXPECT_EQ(t.measured.counter_source, Source::kUnavailable);
  }
  // No provider -> the drift gauges are never even registered (a 0 gauge
  // would read as "perfectly calibrated to nothing").
  EXPECT_EQ(Registry::global().gauge("rt.drift.energy_ratio").value(), 0.0);
}

TEST(ExecutorIntegration, RecorderGetsV2HwEventsThatReplay) {
  Registry::global().reset_all();
  rt::RealtimeExecutor exec(core::EnergyModel::icpp2014_table2(),
                            {.time_scale = 1e-4});
  FakeHwProvider fake({.energy_skew = 2.0});
  exec.set_hw_provider(&fake);
  Recorder recorder(2);
  exec.set_recorder(&recorder);
  (void)exec.execute(small_plan());
  recorder.drain();

  std::size_t planned = 0, spans = 0;
  for (const dfr::Event& e : recorder.events()) {
    if (e.type == static_cast<std::uint8_t>(dfr::EventType::kHwPlanned)) {
      ++planned;
    }
    if (e.type == static_cast<std::uint8_t>(dfr::EventType::kHwSpan)) {
      ++spans;
      EXPECT_EQ(decode_counter_source(e.aux), Source::kFake);
      EXPECT_EQ(decode_energy_source(e.aux), Source::kFake);
    }
  }
  EXPECT_EQ(planned, 3u);
  EXPECT_EQ(spans, 3u);

  const std::string path =
      (fs::temp_directory_path() / "dvfs_hw_v2.dfr").string();
  recorder.write_file(path);
  const Recording loaded = Recording::load(path);
  std::remove(path.c_str());
  // hw events require at least format v2; the writer stamps the current
  // version (v3 adds the health kinds without changing the layout).
  EXPECT_GE(loaded.header.version, 2u);
  EXPECT_EQ(loaded.header.version, dfr::kFormatVersion);
  EXPECT_EQ(loaded.events.size(), recorder.events().size());
  // v2 hw events are invisible to the trace replay (byte-identity with
  // the v1 transform is preserved).
  TraceWriter direct, replayed;
  Recording in_memory;
  in_memory.events = recorder.events();
  replay_to_trace(in_memory, direct);
  replay_to_trace(loaded, replayed);
  EXPECT_EQ(replayed.to_json().dump(-1), direct.to_json().dump(-1));
}

}  // namespace
}  // namespace dvfs::obs::hw
