/// Round-trip validation of the Chrome trace_event export: run a real
/// policy on a real trace with a flight recorder attached, replay the
/// recording into a TraceWriter, write the JSON, parse it back, and
/// assert the structural invariants a trace viewer relies on (track
/// metadata, span containment, phase codes, timestamps) plus exact event
/// counts against state the engine keeps apart from the recorder.
#include "dvfs/obs/trace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "dvfs/governors/lmc_policy.h"
#include "dvfs/obs/json.h"
#include "dvfs/obs/metrics.h"
#include "dvfs/obs/recorder.h"
#include "dvfs/sim/engine.h"
#include "dvfs/workload/generators.h"

namespace dvfs::obs {
namespace {

constexpr std::size_t kCores = 4;

std::uint64_t counter_value(const char* name) {
  return Registry::global().counter(name).value();
}

/// Drains `rec` and replays everything recorded so far into a trace.
TraceWriter replay(Recorder& rec) {
  rec.drain();
  Recording recording;
  recording.events = rec.events();
  TraceWriter writer;
  replay_to_trace(recording, writer);
  return writer;
}

struct TracedRun {
  Json doc;
  sim::SimResult result;
  // The run's deltas of the engine's own counters.
  std::uint64_t freq_transitions = 0;
  std::uint64_t policy_callbacks = 0;
};

TracedRun traced_lmc_run(const std::string& path) {
  const core::EnergyModel model = core::EnergyModel::icpp2014_table2();
  const core::CostParams cp{0.4, 0.1};
  workload::JudgegirlConfig cfg;
  cfg.duration = 60.0;
  cfg.non_interactive_tasks = 24;
  cfg.interactive_tasks = 400;
  const workload::Trace trace = workload::generate_judgegirl(cfg, 7);

  governors::LmcPolicy policy(
      std::vector<core::CostTable>(kCores, core::CostTable(model, cp)));
  sim::Engine engine(std::vector<core::EnergyModel>(kCores, model),
                     sim::ContentionModel::none());
  Recorder rec(1, std::size_t{1} << 20);
  engine.set_recorder(&rec.channel(0));
  const auto callbacks = [] {
    return counter_value("sim.events.arrival") +
           counter_value("sim.events.completion") +
           counter_value("sim.events.timer");
  };
  const std::uint64_t freq_before = counter_value("sim.freq_transitions");
  const std::uint64_t callbacks_before = callbacks();
  TracedRun run;
  run.result = engine.run(trace, policy);
  run.freq_transitions = counter_value("sim.freq_transitions") - freq_before;
  run.policy_callbacks = callbacks() - callbacks_before;
  EXPECT_EQ(rec.events_dropped(), 0u);
  replay(rec).write_file(path);
  run.doc = read_json_file(path);
  return run;
}

TEST(TraceExport, WriterBuffersAndSerializes) {
  TraceWriter w;
  w.thread_name(0, "core 0");
  w.complete(0, "task 1", 10.0, 5.0, {{"rate_idx", Json(std::uint64_t{2})}});
  w.instant(0, "freq_change", 15.0);
  w.counter("busy_cores", 15.0, 1.0);
  EXPECT_EQ(w.size(), 4u);

  const Json doc = Json::parse(w.to_json().dump());
  EXPECT_EQ(doc.at("displayTimeUnit").as_string(), "ms");
  const Json::Array& events = doc.at("traceEvents").as_array();
  ASSERT_EQ(events.size(), 4u);
  const Json& span = events.at(1);
  EXPECT_EQ(span.at("ph").as_string(), "X");
  EXPECT_DOUBLE_EQ(span.at("ts").as_double(), 10.0);
  EXPECT_DOUBLE_EQ(span.at("dur").as_double(), 5.0);
  EXPECT_EQ(span.at("args").at("rate_idx").as_double(), 2.0);
}

TEST(TraceExport, EngineRoundTrip) {
  const std::string path = testing::TempDir() + "/dvfs_trace_roundtrip.json";
  const TracedRun run = traced_lmc_run(path);
  ASSERT_TRUE(run.doc.is_object());
  const Json::Array& events = run.doc.at("traceEvents").as_array();
  ASSERT_FALSE(events.empty());

  // Track metadata: every core plus the governor track is named.
  std::map<std::int64_t, std::string> names;
  for (const Json& e : events) {
    if (e.at("ph").as_string() == "M") {
      ASSERT_EQ(e.at("name").as_string(), "thread_name");
      names[static_cast<std::int64_t>(e.at("tid").as_double())] =
          e.at("args").at("name").as_string();
    }
  }
  ASSERT_EQ(names.size(), kCores + 1);
  for (std::size_t j = 0; j < kCores; ++j) {
    EXPECT_EQ(names[static_cast<std::int64_t>(j)],
              "core " + std::to_string(j));
  }
  EXPECT_EQ(names[static_cast<std::int64_t>(kCores)], "governor");

  // Task spans: each on a valid core track, with sane timestamps and
  // args; spans on one track never overlap (a core runs one task at a
  // time). Every completed task ends exactly one non-preempted span.
  std::map<std::int64_t, std::vector<std::pair<double, double>>> spans;
  std::size_t finished_spans = 0;
  for (const Json& e : events) {
    if (e.at("ph").as_string() != "X") continue;
    const auto tid = static_cast<std::int64_t>(e.at("tid").as_double());
    ASSERT_GE(tid, 0);
    ASSERT_LT(tid, static_cast<std::int64_t>(kCores));
    const double ts = e.at("ts").as_double();
    const double dur = e.at("dur").as_double();
    EXPECT_GE(ts, 0.0);
    EXPECT_GT(dur, 0.0);
    EXPECT_TRUE(e.at("args").contains("task"));
    EXPECT_TRUE(e.at("args").contains("rate_idx"));
    if (!e.at("args").contains("preempted")) ++finished_spans;
    spans[tid].emplace_back(ts, ts + dur);
  }
  EXPECT_EQ(finished_spans, run.result.completed_count());
  for (auto& [tid, list] : spans) {
    std::sort(list.begin(), list.end());
    for (std::size_t i = 1; i < list.size(); ++i) {
      EXPECT_LE(list[i - 1].second, list[i].first + 1e-6)
          << "overlapping spans on core track " << tid;
    }
  }

  // One freq_change instant per frequency transition the engine counted,
  // one governor instant and one busy-core sample per policy callback.
  std::size_t freq_changes = 0;
  std::size_t governor_marks = 0;
  std::size_t counter_samples = 0;
  for (const Json& e : events) {
    const std::string& ph = e.at("ph").as_string();
    if (ph == "i") {
      if (e.at("name").as_string() == "freq_change") {
        ++freq_changes;
        EXPECT_TRUE(e.at("args").contains("rate_idx"));
        EXPECT_TRUE(e.at("args").contains("ghz"));
      } else if (static_cast<std::size_t>(e.at("tid").as_double()) ==
                 kCores) {
        ++governor_marks;
        EXPECT_FALSE(e.contains("args"))
            << "a decision instant carries no wall time";
      }
    } else if (ph == "C") {
      ++counter_samples;
      EXPECT_EQ(e.at("name").as_string(), "busy_cores");
    }
  }
  EXPECT_GT(run.freq_transitions, 0u);
  EXPECT_EQ(freq_changes, run.freq_transitions);
  EXPECT_GT(run.policy_callbacks, 0u);
  EXPECT_EQ(governor_marks, run.policy_callbacks);
  EXPECT_EQ(counter_samples, run.policy_callbacks);
}

// Degenerate inputs must still produce a document every trace viewer can
// open: an empty schedule is a valid (if boring) recording, not an error.
TEST(TraceExport, EmptyWriterSerializesValidTrace) {
  TraceWriter w;
  EXPECT_EQ(w.size(), 0u);
  const Json doc = Json::parse(w.to_json().dump());
  EXPECT_EQ(doc.at("displayTimeUnit").as_string(), "ms");
  EXPECT_TRUE(doc.at("traceEvents").as_array().empty());
}

TEST(TraceExport, EmptyScheduleRunStillExportsParseableTrace) {
  const core::EnergyModel model = core::EnergyModel::icpp2014_table2();
  governors::LmcPolicy policy(std::vector<core::CostTable>(
      kCores, core::CostTable(model, core::CostParams{0.4, 0.1})));
  sim::Engine engine(std::vector<core::EnergyModel>(kCores, model),
                     sim::ContentionModel::none());
  Recorder rec(1, 64);
  engine.set_recorder(&rec.channel(0));
  const sim::SimResult r = engine.run(workload::Trace{}, policy);
  EXPECT_EQ(r.completed_count(), 0u);

  // Zero tasks: the export still carries the track metadata (one name per
  // core plus the governor lane) and nothing else, and parses cleanly.
  const Json doc = Json::parse(replay(rec).to_json().dump());
  const Json::Array& events = doc.at("traceEvents").as_array();
  ASSERT_EQ(events.size(), kCores + 1);
  for (const Json& e : events) {
    EXPECT_EQ(e.at("ph").as_string(), "M");
    EXPECT_EQ(e.at("name").as_string(), "thread_name");
  }
}

TEST(TraceExport, DetachStopsRecording) {
  const core::EnergyModel model = core::EnergyModel::icpp2014_table2();
  workload::JudgegirlConfig cfg;
  cfg.duration = 10.0;
  cfg.non_interactive_tasks = 4;
  cfg.interactive_tasks = 20;
  const workload::Trace trace = workload::generate_judgegirl(cfg, 11);
  governors::LmcPolicy policy(std::vector<core::CostTable>(
      kCores, core::CostTable(model, core::CostParams{0.4, 0.1})));

  sim::Engine engine(std::vector<core::EnergyModel>(kCores, model),
                     sim::ContentionModel::none());
  Recorder rec(1, std::size_t{1} << 16);
  engine.set_recorder(&rec.channel(0));
  engine.run(trace, policy);
  const std::size_t after_first = replay(rec).size();
  EXPECT_GT(after_first, 0u);

  engine.set_recorder(nullptr);  // runtime toggle off
  engine.run(trace, policy);
  EXPECT_EQ(replay(rec).size(), after_first);
  EXPECT_EQ(rec.channel(0).recorded(), rec.events().size());
}

}  // namespace
}  // namespace dvfs::obs
