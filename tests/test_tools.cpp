/// Integration tests for the command-line tools: run the real binaries
/// end to end (generate -> plan -> pin -> simulate) against a temp
/// directory and check outputs and exit codes.
#include <gtest/gtest.h>

#include <signal.h>

#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

#include "dvfs/core/plan_io.h"
#include "dvfs/cpufreq/cpufreq.h"
#include "dvfs/obs/json.h"
#include "dvfs/obs/recorder.h"
#include "dvfs/workload/trace.h"

#if !defined(DVFS_TOOLS_DIR) || !defined(DVFS_REQTRACE_GOLDEN_DIR)
#error "DVFS_TOOLS_DIR and DVFS_REQTRACE_GOLDEN_DIR must come from the build"
#endif

namespace {

namespace fs = std::filesystem;

std::string tool(const std::string& name) {
  return std::string(DVFS_TOOLS_DIR) + "/" + name;
}

int run(const std::string& command) {
  const int status = std::system((command + " > /dev/null 2>&1").c_str());
  return WEXITSTATUS(status);
}

std::string run_capture(const std::string& command, int* exit_code) {
  std::FILE* pipe = ::popen((command + " 2>&1").c_str(), "r");
  EXPECT_NE(pipe, nullptr);
  std::string out;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), pipe)) > 0) out.append(buf, n);
  *exit_code = WEXITSTATUS(::pclose(pipe));
  return out;
}

std::string slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  EXPECT_TRUE(is.good()) << path;
  return std::string(std::istreambuf_iterator<char>(is),
                     std::istreambuf_iterator<char>());
}

class ToolsFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/dvfs_tools_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string dir_;
};

TEST_F(ToolsFixture, TraceGenProducesLoadableCsv) {
  const std::string out = dir_ + "/trace.csv";
  ASSERT_EQ(run(tool("dvfs_trace_gen") +
                " --kind judgegirl --seed 5 --duration 60"
                " --submissions 20 --interactive 200 --out " + out),
            0);
  const dvfs::workload::Trace trace = dvfs::workload::read_csv_file(out);
  EXPECT_EQ(trace.size(), 220u);
  EXPECT_EQ(trace.count(dvfs::core::TaskClass::kInteractive), 200u);
}

TEST_F(ToolsFixture, TraceGenRejectsBadFlags) {
  EXPECT_NE(run(tool("dvfs_trace_gen") + " --kind alien --out /dev/null"), 0);
  EXPECT_NE(run(tool("dvfs_trace_gen") + " --kind poisson"), 0);  // no --out
  EXPECT_NE(run(tool("dvfs_trace_gen") + " --bogus 1"), 0);
}

// A model spec is an integer over the whole field: garbage, overflow and
// trailing junk are usage errors (exit 2), never an abort or a prefix.
TEST_F(ToolsFixture, MalformedModelSpecsAreUsageErrors) {
  const std::string trace = dir_ + "/trace.csv";
  ASSERT_EQ(run(tool("dvfs_trace_gen") +
                " --kind judgegirl --seed 5 --duration 60"
                " --submissions 5 --interactive 5 --out " + trace),
            0);
  for (const char* spec :
       {"cubic:x", "cubic:99999999999999999999999", "cubic:5x"}) {
    for (const std::string& command :
         {tool("dvfs_simulate") + " --trace " + trace + " --policy lmc",
          tool("dvfs_execute") +
              " --serve --listen 127.0.0.1:0 --serve-seconds 1"}) {
      int code = 0;
      const std::string out =
          run_capture(command + " --model " + spec, &code);
      EXPECT_EQ(code, 2) << command << " --model " << spec << "\n" << out;
      EXPECT_NE(out.find("error:"), std::string::npos) << out;
    }
  }
}

TEST_F(ToolsFixture, PlanSpecWorkloadsRoundTrip) {
  const std::string plan_path = dir_ + "/plan.csv";
  ASSERT_EQ(run(tool("dvfs_plan") + " --spec --cores 4 --out " + plan_path),
            0);
  const dvfs::core::Plan plan = dvfs::core::read_plan_csv_file(plan_path);
  EXPECT_EQ(plan.num_cores(), 4u);
  EXPECT_EQ(plan.num_tasks(), 24u);
}

TEST_F(ToolsFixture, FullPipelineGeneratePlanPinSimulate) {
  const std::string batch = dir_ + "/batch.csv";
  {
    // Hand-write a tiny batch trace.
    std::ofstream os(batch);
    os << "id,arrival,cycles,class,deadline\n";
    for (int i = 0; i < 8; ++i) {
      os << i << ",0," << (i + 1) * 1'000'000'000LL << ",batch,\n";
    }
  }
  const std::string plan_path = dir_ + "/plan.csv";
  ASSERT_EQ(run(tool("dvfs_plan") + " --tasks " + batch +
                " --cores 2 --re 0.1 --rt 0.4 --out " + plan_path),
            0);
  // Rehearse the pinning against a fake tree the tool itself creates.
  const std::string tree = dir_ + "/sysfs";
  ASSERT_EQ(run(tool("dvfs_pin") + " --plan " + plan_path +
                " --sysfs-root " + tree + " --make-fake 2"),
            0);
  dvfs::cpufreq::SysfsCpufreq backend(tree);
  EXPECT_EQ(backend.governor(0), dvfs::cpufreq::GovernorKind::kUserspace);
  // Execute the plan in the simulator.
  ASSERT_EQ(run(tool("dvfs_simulate") + " --trace " + batch +
                " --policy planned --plan " + plan_path +
                " --cores 2 --re 0.1 --rt 0.4"),
            0);
}

TEST_F(ToolsFixture, SimulateAllOnlinePolicies) {
  const std::string trace = dir_ + "/online.csv";
  ASSERT_EQ(run(tool("dvfs_trace_gen") +
                " --kind poisson --rate 3 --duration 30 --seed 2 --out " +
                trace),
            0);
  for (const std::string policy : {"lmc", "olb", "od", "ps"}) {
    EXPECT_EQ(run(tool("dvfs_simulate") + " --trace " + trace +
                  " --policy " + policy + " --cores 2"),
              0)
        << policy;
  }
  EXPECT_NE(run(tool("dvfs_simulate") + " --trace " + trace +
                " --policy alien"),
            0);
  EXPECT_NE(run(tool("dvfs_simulate") + " --trace " + dir_ +
                "/missing.csv --policy lmc"),
            0);
}

TEST_F(ToolsFixture, ExecuteRunsPlanOnRealThreads) {
  const std::string batch = dir_ + "/tiny.csv";
  {
    std::ofstream os(batch);
    os << "id,arrival,cycles,class,deadline\n";
    os << "0,0,1000000000,batch,\n1,0,2000000000,batch,\n";
  }
  const std::string plan_path = dir_ + "/plan.csv";
  ASSERT_EQ(run(tool("dvfs_plan") + " --tasks " + batch +
                " --cores 2 --out " + plan_path),
            0);
  ASSERT_EQ(run(tool("dvfs_execute") + " --plan " + plan_path +
                " --time-scale 1e-4"),
            0);
  EXPECT_NE(run(tool("dvfs_execute") + " --plan " + plan_path +
                " --time-scale 0"),
            0);
  EXPECT_NE(run(tool("dvfs_execute") + " --plan " + dir_ + "/missing.csv"),
            0);
}

// The flight-recorder acceptance loop: a recorded simulation replayed
// through dvfs_inspect must reproduce the run's own --trace-out and
// --metrics-out files byte for byte, and a --trace-out-only run (which
// records in memory and writes no .dfr) must produce the same trace. On
// failure the artifacts are preserved for CI (DVFS_ARTIFACT_DIR) so the
// divergence can be audited offline.
TEST_F(ToolsFixture, RecordedRunReplaysByteIdentical) {
  const std::string trace = dir_ + "/online.csv";
  ASSERT_EQ(run(tool("dvfs_trace_gen") +
                " --kind judgegirl --seed 9 --duration 90 --submissions 25"
                " --interactive 150 --out " + trace),
            0);
  const std::string simulate =
      tool("dvfs_simulate") + " --trace " + trace + " --policy lmc --cores 3";
  ASSERT_EQ(run(simulate + " --trace-out " + dir_ + "/trace_only.json"), 0);
  EXPECT_EQ(std::distance(fs::directory_iterator(dir_),
                          fs::directory_iterator{}),
            2)
      << "a --trace-out-only run writes the trace and nothing else";

  const std::string dfr = dir_ + "/run.dfr";
  ASSERT_EQ(run(simulate + " --trace-out " + dir_ + "/run_trace.json" +
                " --metrics-out " + dir_ + "/run_metrics.json" +
                " --record-out " + dfr),
            0);
  ASSERT_EQ(run(tool("dvfs_inspect") + " replay --in " + dfr +
                " --trace-out " + dir_ + "/replay_trace.json" +
                " --metrics-out " + dir_ + "/replay_metrics.json"),
            0);
  EXPECT_EQ(slurp(dir_ + "/run_trace.json"),
            slurp(dir_ + "/replay_trace.json"));
  EXPECT_EQ(slurp(dir_ + "/run_metrics.json"),
            slurp(dir_ + "/replay_metrics.json"));
  EXPECT_EQ(slurp(dir_ + "/trace_only.json"),
            slurp(dir_ + "/run_trace.json"));
  if (HasFailure()) {
    if (const char* art = std::getenv("DVFS_ARTIFACT_DIR")) {
      fs::create_directories(art);
      for (const char* leaf : {"run.dfr", "run_trace.json",
                               "replay_trace.json", "run_metrics.json",
                               "replay_metrics.json", "trace_only.json"}) {
        fs::copy_file(dir_ + "/" + leaf, std::string(art) + "/" + leaf,
                      fs::copy_options::overwrite_existing);
      }
    }
  }
}

// Non-LMC policies record Re = Rt = 0: audit has nothing to replan and
// says so instead of failing on the zero cost weights.
// A recorded simulation repeats event for event: no event carries wall
// time. The files still differ in their metrics epilogue (wall-time
// histograms), so the events are compared, not the files.
TEST_F(ToolsFixture, RecordedRunsRepeatEventForEvent) {
  const std::string trace = dir_ + "/judgegirl.csv";
  ASSERT_EQ(run(tool("dvfs_trace_gen") +
                " --kind judgegirl --seed 4 --duration 120 --submissions 40"
                " --interactive 400 --out " + trace),
            0);
  const std::string simulate =
      tool("dvfs_simulate") + " --trace " + trace + " --policy lmc --cores 4";
  ASSERT_EQ(run(simulate + " --record-out " + dir_ + "/a.dfr"), 0);
  ASSERT_EQ(run(simulate + " --record-out " + dir_ + "/b.dfr"), 0);
  const dvfs::obs::Recording a =
      dvfs::obs::Recording::load(dir_ + "/a.dfr");
  const dvfs::obs::Recording b =
      dvfs::obs::Recording::load(dir_ + "/b.dfr");
  EXPECT_EQ(a.header.dropped, 0u);
  EXPECT_EQ(b.header.dropped, 0u);
  ASSERT_EQ(a.events.size(), b.events.size());
  std::size_t decisions = 0;
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    const dvfs::obs::dfr::Event& x = a.events[i];
    ASSERT_EQ(std::memcmp(&x, &b.events[i], sizeof(x)), 0)
        << "event " << i << " (type " << int{x.type} << ") differs";
    if (x.type == static_cast<std::uint8_t>(
                      dvfs::obs::dfr::EventType::kDecision)) {
      ++decisions;
      EXPECT_EQ(x.f0, 0.0) << "event " << i;
    }
  }
  EXPECT_GT(decisions, 400u);
}

TEST_F(ToolsFixture, AuditOfNonLmcRecordingReportsNothingToAudit) {
  const std::string batch = dir_ + "/batch.csv";
  {
    std::ofstream os(batch);
    os << "id,arrival,cycles,class,deadline\n";
    for (int i = 0; i < 6; ++i) {
      os << i << ",0," << (i + 1) * 1'000'000'000LL << ",batch,\n";
    }
  }
  const std::string plan_path = dir_ + "/plan.csv";
  ASSERT_EQ(run(tool("dvfs_plan") + " --tasks " + batch +
                " --cores 2 --out " + plan_path),
            0);
  for (const std::string policy : {"olb", "planned"}) {
    SCOPED_TRACE(policy);
    const std::string dfr = dir_ + "/" + policy + ".dfr";
    const std::string plan_flag =
        policy == "planned" ? " --plan " + plan_path : "";
    ASSERT_EQ(run(tool("dvfs_simulate") + " --trace " + batch +
                  " --policy " + policy + plan_flag +
                  " --cores 2 --record-out " + dfr),
              0);
    int code = 0;
    const std::string audit = run_capture(
        tool("dvfs_inspect") + " audit --in " + dfr, &code);
    EXPECT_EQ(code, 0) << audit;
    EXPECT_NE(audit.find("no LMC placements to audit"), std::string::npos)
        << audit;
    // Explicit weights still run the replan.
    const std::string forced = run_capture(
        tool("dvfs_inspect") + " audit --in " + dfr + " --re 0.4 --rt 0.1",
        &code);
    EXPECT_EQ(code, 0) << forced;
    EXPECT_NE(forced.find("end-to-end"), std::string::npos) << forced;
  }
}

TEST_F(ToolsFixture, InspectExplainAndAuditSmoke) {
  const std::string trace = dir_ + "/online.csv";
  ASSERT_EQ(run(tool("dvfs_trace_gen") +
                " --kind poisson --rate 2 --duration 30 --seed 4 --out " +
                trace),
            0);
  const std::string dfr = dir_ + "/run.dfr";
  ASSERT_EQ(run(tool("dvfs_simulate") + " --trace " + trace +
                " --policy lmc --cores 2 --record-out " + dfr),
            0);
  int code = 0;
  const std::string info = run_capture(
      tool("dvfs_inspect") + " info --in " + dfr, &code);
  EXPECT_EQ(code, 0) << info;
  EXPECT_NE(info.find("policy lmc"), std::string::npos) << info;
  // v4 recordings print the per-channel recorded/dropped breakdown.
  EXPECT_NE(info.find("channel 0"), std::string::npos) << info;
  EXPECT_NE(info.find("recorded="), std::string::npos) << info;

  const std::string explain = run_capture(
      tool("dvfs_inspect") + " explain --in " + dfr + " --task 0", &code);
  EXPECT_EQ(code, 0) << explain;
  EXPECT_NE(explain.find("arrival"), std::string::npos) << explain;
  EXPECT_NE(explain.find("finish"), std::string::npos) << explain;

  const std::string audit = run_capture(
      tool("dvfs_inspect") + " audit --in " + dfr, &code);
  EXPECT_EQ(code, 0) << audit;
  EXPECT_NE(audit.find("end-to-end"), std::string::npos) << audit;

  // Error paths stay errors.
  EXPECT_NE(run(tool("dvfs_inspect") + " info --in " + dir_ + "/nope.dfr"),
            0);
  EXPECT_NE(run(tool("dvfs_inspect") + " bogus --in " + dfr), 0);
  EXPECT_NE(run(tool("dvfs_inspect") + " explain --in " + dfr +
                " --task 99999999"),
            0);
  // Simulator recordings carry no request-span events, so `trace` is a
  // clean error, not an empty report.
  const std::string no_trace = run_capture(
      tool("dvfs_inspect") + " trace --in " + dfr, &code);
  EXPECT_NE(code, 0);
  EXPECT_NE(no_trace.find("no request-trace events"), std::string::npos)
      << no_trace;
}

/// `dvfs_inspect trace` over a service-style recording: the file is
/// synthesized with the Recorder API using the exact channel layout
/// `dvfs_execute --serve --record-out` writes — one direct task and one
/// that migrated shards mid-admission.
TEST_F(ToolsFixture, InspectTraceRebuildsTimelinesAndExportsChrome) {
  namespace dfr = dvfs::obs::dfr;
  using dfr::EventType;
  dvfs::obs::Recorder recorder(2);
  auto ev = [](EventType type, double t, std::uint64_t task,
               std::uint64_t u0, std::uint16_t core = 0,
               std::uint16_t aux = 0) {
    dfr::Event e{};
    e.type = static_cast<std::uint8_t>(type);
    e.time_s = t;
    e.task = task;
    e.u0 = u0;
    e.core = core;
    e.aux = aux;
    return e;
  };
  // Task 1: direct lifecycle on shard 0, trace id 0xaaa.
  recorder.channel(0).record(ev(EventType::kSubmitRecv, 0.0, 1, 0xaaa));
  recorder.channel(0).record(ev(EventType::kRingEnqueue, 0.001, 1, 0xaaa));
  recorder.channel(0).record(ev(EventType::kRingDequeue, 0.002, 1, 0xaaa));
  recorder.channel(0).record(ev(EventType::kPlacement, 0.003, 1, 0, 1));
  recorder.channel(0).record(ev(EventType::kShardQueue, 0.004, 1, 5, 1));
  // Task 2: stolen from shard 0 to shard 1, trace id 0xbbb. Slower
  // end to end than task 1, so --slowest 1 must pick it.
  recorder.channel(0).record(ev(EventType::kSubmitRecv, 0.0, 2, 0xbbb));
  recorder.channel(0).record(ev(EventType::kRingEnqueue, 0.001, 2, 0xbbb));
  recorder.channel(0).record(ev(EventType::kRingDequeue, 0.002, 2, 0xbbb));
  recorder.channel(1).record(
      ev(EventType::kStealHop, 0.005, 2, 0xbbb, /*core=*/1, /*aux=*/0));
  recorder.channel(1).record(ev(EventType::kRingEnqueue, 0.005, 2, 0xbbb, 1));
  recorder.channel(1).record(ev(EventType::kRingDequeue, 0.006, 2, 0xbbb, 1));
  recorder.channel(1).record(ev(EventType::kPlacement, 0.007, 2, 0, 2));
  recorder.channel(1).record(ev(EventType::kShardQueue, 0.008, 2, 3, 2));
  recorder.drain();
  const std::string dfr_path = dir_ + "/svc.dfr";
  recorder.write_file(dfr_path);

  int code = 0;
  const std::string all = run_capture(
      tool("dvfs_inspect") + " trace --in " + dfr_path, &code);
  EXPECT_EQ(code, 0) << all;
  EXPECT_NE(all.find("end-to-end"), std::string::npos) << all;
  EXPECT_NE(all.find("breakdown:"), std::string::npos) << all;
  EXPECT_NE(all.find("admission critical path:"), std::string::npos) << all;
  EXPECT_NE(all.find("from_shard=0"), std::string::npos) << all;
  EXPECT_NE(all.find("trace=0000000000000aaa"), std::string::npos) << all;

  const std::string slowest = run_capture(
      tool("dvfs_inspect") + " trace --in " + dfr_path + " --slowest 1",
      &code);
  EXPECT_EQ(code, 0) << slowest;
  EXPECT_NE(slowest.find("slowest 1 of 2"), std::string::npos) << slowest;
  EXPECT_NE(slowest.find("task 2"), std::string::npos) << slowest;
  EXPECT_EQ(slowest.find("trace=0000000000000aaa"), std::string::npos)
      << slowest;

  // Chrome trace_event export: a parseable JSON with one named track per
  // selected task and the steal hop as an instant event.
  const std::string chrome = dir_ + "/trace.json";
  std::string task2 = run_capture(tool("dvfs_inspect") + " trace --in " +
                                      dfr_path + " --task 2 --trace-out " +
                                      chrome,
                                  &code);
  ASSERT_EQ(code, 0) << task2;
  const dvfs::obs::Json doc = dvfs::obs::Json::parse(slurp(chrome));
  const auto& events = doc.at("traceEvents").as_array();
  ASSERT_FALSE(events.empty());
  bool hop = false;
  for (const dvfs::obs::Json& e : events) {
    if (e.at("name").as_string() == "steal_hop") hop = true;
  }
  EXPECT_TRUE(hop);

  // Every byte of both renderings is pinned by a golden file.
  const std::string golden =
      std::string(DVFS_REQTRACE_GOLDEN_DIR) + "/inspect_trace_";
  EXPECT_EQ(all, slurp(golden + "all.txt"));
  EXPECT_EQ(slowest, slurp(golden + "slowest1.txt"));
  const std::size_t at = task2.find(chrome);
  ASSERT_NE(at, std::string::npos) << task2;
  task2.replace(at, chrome.size(), "<trace-out>");
  EXPECT_EQ(task2, slurp(golden + "task2.txt"));
  EXPECT_EQ(slurp(chrome), slurp(golden + "task2.json"));

  // Asking for a task that left no spans is an error.
  EXPECT_NE(run(tool("dvfs_inspect") + " trace --in " + dfr_path +
                " --task 99"),
            0);
}

TEST_F(ToolsFixture, SimulateHelpDocumentsObservabilityFlags) {
  int code = 0;
  const std::string help = run_capture(tool("dvfs_simulate") + " --help",
                                       &code);
  EXPECT_EQ(code, 0);
  for (const char* flag : {"--trace-out", "--metrics-out", "--record-out",
                           "--listen", "--serve-seconds", "--health-config",
                           "--health-period"}) {
    EXPECT_NE(help.find(flag), std::string::npos) << flag;
  }
}

TEST_F(ToolsFixture, ExecuteHelpDocumentsTelemetryFlags) {
  int code = 0;
  const std::string help = run_capture(tool("dvfs_execute") + " --help",
                                       &code);
  EXPECT_EQ(code, 0);
  for (const char* flag : {"--hw", "--trace-out", "--metrics-out",
                           "--record-out", "--health-config",
                           "--health-period"}) {
    EXPECT_NE(help.find(flag), std::string::npos) << flag;
  }
}

/// Writes a one-core plan of `tasks` tiny tasks, so a run's length is
/// dominated by per-task bookkeeping rather than simulated work.
std::string tiny_plan(const std::string& dir, int tasks) {
  const std::string path = dir + "/plan.csv";
  std::ofstream os(path);
  os << "core,position,task_id,cycles,rate_idx\n";
  for (int i = 1; i <= tasks; ++i) os << "0," << i << "," << i << ",1000,0\n";
  return path;
}

// The trace is replayed from an in-memory recording, so --trace-out needs
// no --record-out: the run writes a parseable trace of its one task.
TEST_F(ToolsFixture, ExecuteTraceOutWorksWithoutRecordOut) {
  const std::string chrome = dir_ + "/t.json";
  int code = 0;
  const std::string out = run_capture(
      tool("dvfs_execute") + " --plan " + tiny_plan(dir_, 1) +
          " --time-scale 1e-4 --trace-out " + chrome,
      &code);
  ASSERT_EQ(code, 0) << out;
  const dvfs::obs::Json doc = dvfs::obs::Json::parse(slurp(chrome));
  std::size_t spans = 0;
  for (const dvfs::obs::Json& e : doc.at("traceEvents").as_array()) {
    if (e.at("ph").as_string() == "X") ++spans;
  }
  EXPECT_EQ(spans, 1u);
}

// More events than a worker's ring holds (three per task, 2^16 slots):
// the run still succeeds and says that its recording lost events.
TEST_F(ToolsFixture, ExecuteWarnsWhenTheRecorderRingOverflows) {
  int code = 0;
  const std::string out = run_capture(
      tool("dvfs_execute") + " --plan " + tiny_plan(dir_, 25000) +
          " --time-scale 1e-6 --record-out " + dir_ + "/run.dfr",
      &code);
  ASSERT_EQ(code, 0) << out;
  EXPECT_NE(out.find("warning: recorder ring overflowed"), std::string::npos)
      << out;
}

/// Shared setup for the drift acceptance gates: plan a small batch, run it
/// on real threads with a fake telemetry provider, record, and summarize
/// with `dvfs_inspect drift --json-out`.
dvfs::obs::Json drift_report(const std::string& dir, const std::string& tool_dir,
                             const std::string& hw_spec,
                             const std::string& extra_execute_flags = "",
                             const std::string& extra_drift_flags = "") {
  const auto bin = [&](const std::string& name) {
    return tool_dir + "/" + name;
  };
  const std::string batch = dir + "/batch.csv";
  {
    std::ofstream os(batch);
    os << "id,arrival,cycles,class,deadline\n";
    for (int i = 0; i < 8; ++i) {
      os << i << ",0," << (i + 1) * 1'000'000'000LL << ",batch,\n";
    }
  }
  const std::string plan_path = dir + "/plan.csv";
  EXPECT_EQ(run(bin("dvfs_plan") + " --tasks " + batch +
                " --cores 2 --out " + plan_path),
            0);
  const std::string dfr = dir + "/run.dfr";
  int code = 0;
  const std::string out = run_capture(
      bin("dvfs_execute") + " --plan " + plan_path +
          " --time-scale 1e-4 --hw " + hw_spec + " --record-out " + dfr +
          extra_execute_flags,
      &code);
  EXPECT_EQ(code, 0) << out;
  EXPECT_NE(out.find("hardware telemetry:"), std::string::npos) << out;
  EXPECT_NE(out.find("telemetry drift"), std::string::npos) << out;
  const std::string report = dir + "/drift.json";
  const std::string drift = run_capture(
      bin("dvfs_inspect") + " drift --in " + dfr + " --json-out " + report +
          extra_drift_flags,
      &code);
  EXPECT_EQ(code, 0) << drift;
  return dvfs::obs::Json::parse(slurp(report));
}

// Acceptance gate 1: a fake provider replaying the model's own predictions
// must report drift ratios of exactly 1.0 and a corrected re-plan that
// flips zero decisions.
TEST_F(ToolsFixture, DriftGateExactReplayIsPerfectlyCalibrated) {
  const dvfs::obs::Json doc =
      drift_report(dir_, DVFS_TOOLS_DIR, "fake",
                   " --trace-out " + dir_ + "/t.json --metrics-out " +
                       dir_ + "/m.json");
  EXPECT_EQ(doc.at("schema").as_string(), "dvfs-drift-v1");
  EXPECT_EQ(doc.at("spans").at("total").as_double(), 8.0);
  EXPECT_EQ(doc.at("spans").at("model_only").as_double(), 0.0);
  for (const char* dim : {"cycles", "duration", "energy"}) {
    EXPECT_LT(std::abs(doc.at("ratios").at(dim).as_double() - 1.0), 1e-6)
        << dim;
  }
  EXPECT_EQ(doc.at("replan").at("flipped").as_double(), 0.0);
  // The satellite wiring: both observability outputs were produced.
  EXPECT_NE(slurp(dir_ + "/t.json").find("trace"), std::string::npos);
  EXPECT_NE(slurp(dir_ + "/m.json").find("build_info"), std::string::npos);
}

// Acceptance gate 2: a provider injecting a 2x energy skew must surface in
// the drift metrics, and the measurement-corrected re-plan must actually
// change decisions (nonzero flips).
TEST_F(ToolsFixture, DriftGateEnergySkewFlipsDecisions) {
  // Time-heavy weights so the uncorrected plan runs at high rates; a 2x
  // energy correction then makes WBG retreat to cheaper rates (flips).
  const dvfs::obs::Json doc =
      drift_report(dir_, DVFS_TOOLS_DIR, "fake:energy=2", "",
                   " --re 0.1 --rt 0.4");
  EXPECT_LT(std::abs(doc.at("ratios").at("energy").as_double() - 2.0), 1e-6);
  EXPECT_LT(std::abs(doc.at("ratios").at("cycles").as_double() - 1.0), 1e-6);
  EXPECT_GT(doc.at("replan").at("flipped").as_double(), 0.0);
  EXPECT_NE(doc.at("replan").at("cost_delta").as_double(), 0.0);
}

double alert_gauge(const dvfs::obs::Json& metrics, const std::string& name) {
  return metrics.at("gauges")
      .at("alert.state{alert=\"" + name + "\"}")
      .as_double();
}

// Health acceptance gate 1: a run with a pathological condition (a
// recorder ring far too small for the trace -> a drop storm) must end
// with the matching alert firing, visible in the metrics snapshot AND
// reproduced by the offline replay of the recording through the same
// engine.
TEST_F(ToolsFixture, HealthGateDropStormFiresAndReplaysOffline) {
  const std::string trace = dir_ + "/online.csv";
  ASSERT_EQ(run(tool("dvfs_trace_gen") +
                " --kind poisson --rate 3 --duration 30 --seed 2 --out " +
                trace),
            0);
  const std::string dfr = dir_ + "/run.dfr";
  ASSERT_EQ(run(tool("dvfs_simulate") + " --trace " + trace +
                " --policy lmc --cores 2 --record-out " + dfr +
                " --record-capacity 64 --health-period 0.05"
                " --metrics-out " + dir_ + "/m.json"),
            0);
  const dvfs::obs::Json metrics =
      dvfs::obs::Json::parse(slurp(dir_ + "/m.json"));
  EXPECT_EQ(alert_gauge(metrics, "recorder-drop-rate"), 2.0);  // firing
  EXPECT_EQ(alert_gauge(metrics, "governor-cost-overhead"), 0.0);
  EXPECT_GE(metrics.at("gauges").at("health.firing").as_double(), 1.0);

  // The offline replay must agree with the live monitor, state for state.
  int code = 0;
  const std::string health = run_capture(
      tool("dvfs_inspect") + " health --in " + dfr, &code);
  EXPECT_EQ(code, 0) << health;
  EXPECT_NE(health.find("all states match the live monitor"),
            std::string::npos)
      << health;
  EXPECT_NE(health.find("recorder-drop-rate       firing"),
            std::string::npos)
      << health;
  EXPECT_NE(health.find("firing at end: 1"), std::string::npos) << health;
}

// Health acceptance gate 2: the same workload with an adequately sized
// ring must end with zero alerts firing.
TEST_F(ToolsFixture, HealthGateCleanRunStaysQuiet) {
  const std::string trace = dir_ + "/online.csv";
  ASSERT_EQ(run(tool("dvfs_trace_gen") +
                " --kind poisson --rate 3 --duration 30 --seed 2 --out " +
                trace),
            0);
  const std::string dfr = dir_ + "/run.dfr";
  ASSERT_EQ(run(tool("dvfs_simulate") + " --trace " + trace +
                " --policy lmc --cores 2 --record-out " + dfr +
                " --health-period 0.05 --metrics-out " + dir_ + "/m.json"),
            0);
  const dvfs::obs::Json metrics =
      dvfs::obs::Json::parse(slurp(dir_ + "/m.json"));
  EXPECT_EQ(metrics.at("gauges").at("health.firing").as_double(), 0.0);
  for (const char* rule :
       {"governor-cost-overhead", "queue-wait-p99", "recorder-drop-rate",
        "hw-drift-energy", "hw-drift-duration"}) {
    EXPECT_EQ(alert_gauge(metrics, rule), 0.0) << rule;
  }
  int code = 0;
  const std::string health = run_capture(
      tool("dvfs_inspect") + " health --in " + dfr, &code);
  EXPECT_EQ(code, 0) << health;
  EXPECT_NE(health.find("firing at end: 0"), std::string::npos) << health;
}

// Health acceptance gate 3: an injected 2x energy skew on the real-thread
// executor trips the hw-drift-energy deviation alert (|2 - 1| > 0.5)
// while the well-calibrated duration axis stays quiet.
TEST_F(ToolsFixture, HealthGateDriftSkewFiresEnergyAlert) {
  const std::string batch = dir_ + "/batch.csv";
  {
    std::ofstream os(batch);
    os << "id,arrival,cycles,class,deadline\n";
    for (int i = 0; i < 8; ++i) {
      os << i << ",0," << (i + 1) * 1'000'000'000LL << ",batch,\n";
    }
  }
  const std::string plan_path = dir_ + "/plan.csv";
  ASSERT_EQ(run(tool("dvfs_plan") + " --tasks " + batch +
                " --cores 2 --out " + plan_path),
            0);
  int code = 0;
  const std::string out = run_capture(
      tool("dvfs_execute") + " --plan " + plan_path +
          " --time-scale 1e-4 --hw fake:energy=2 --health-period 0.02"
          " --metrics-out " + dir_ + "/m.json",
      &code);
  EXPECT_EQ(code, 0) << out;
  EXPECT_NE(out.find("health: 1 alert(s) firing"), std::string::npos) << out;
  const dvfs::obs::Json metrics =
      dvfs::obs::Json::parse(slurp(dir_ + "/m.json"));
  EXPECT_EQ(alert_gauge(metrics, "hw-drift-energy"), 2.0);
  EXPECT_EQ(alert_gauge(metrics, "hw-drift-duration"), 0.0);
}

TEST_F(ToolsFixture, InspectHealthRequiresHealthSamples) {
  const std::string trace = dir_ + "/online.csv";
  ASSERT_EQ(run(tool("dvfs_trace_gen") +
                " --kind poisson --rate 2 --duration 10 --seed 4 --out " +
                trace),
            0);
  const std::string dfr = dir_ + "/run.dfr";
  ASSERT_EQ(run(tool("dvfs_simulate") + " --trace " + trace +
                " --policy lmc --cores 2 --record-out " + dfr),
            0);
  // Recorded without --health-*: there is nothing to replay.
  EXPECT_NE(run(tool("dvfs_inspect") + " health --in " + dfr), 0);
}

// Graceful-shutdown gate: SIGTERM against a serving run must flush the
// recording (with its metrics epilogue) and the final snapshot before
// exiting. The run is started through the shell so the test can signal
// it mid-serve.
TEST_F(ToolsFixture, ServeShutsDownCleanlyOnSigterm) {
  const std::string trace = dir_ + "/online.csv";
  ASSERT_EQ(run(tool("dvfs_trace_gen") +
                " --kind poisson --rate 2 --duration 10 --seed 4 --out " +
                trace),
            0);
  const std::string dfr = dir_ + "/sig.dfr";
  const std::string log = dir_ + "/serve.log";
  const std::string pid_file = dir_ + "/pid";
  ASSERT_EQ(std::system((tool("dvfs_simulate") + " --trace " + trace +
                         " --policy lmc --cores 2 --record-out " + dfr +
                         " --health-period 0.05 --metrics-out " + dir_ +
                         "/m.json --listen 127.0.0.1:0 > " + log +
                         " 2>&1 & echo $! > " + pid_file)
                            .c_str()),
            0);
  const auto wait_for = [&](const char* needle) {
    for (int i = 0; i < 200; ++i) {  // up to 20 s
      // The log may not exist yet on the first polls: the backgrounded
      // shell races us to open the redirect target. Poll, don't assert.
      std::ifstream is(log, std::ios::binary);
      const std::string text((std::istreambuf_iterator<char>(is)),
                             std::istreambuf_iterator<char>());
      if (text.find(needle) != std::string::npos) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    return false;
  };
  ASSERT_TRUE(wait_for("serving Prometheus metrics")) << slurp(log);
  int pid = 0;
  {
    std::ifstream is(pid_file);
    ASSERT_TRUE(is >> pid);
  }
  ASSERT_EQ(::kill(pid, SIGTERM), 0);
  ASSERT_TRUE(wait_for("wrote metrics snapshot")) << slurp(log);
  const std::string output = slurp(log);
  EXPECT_NE(output.find("caught signal 15"), std::string::npos) << output;
  EXPECT_NE(output.find("recorded events"), std::string::npos) << output;

  // The interrupted run still produced a complete, loadable recording:
  // finalized header, intact metrics epilogue, health events included.
  const dvfs::obs::Recording rec = dvfs::obs::Recording::load(dfr);
  ASSERT_NE(rec.metrics, nullptr);
  EXPECT_TRUE(rec.epilogue_note.empty()) << rec.epilogue_note;
  EXPECT_GT(rec.events.size(), 0u);
  EXPECT_TRUE(
      rec.first_of(dvfs::obs::dfr::EventType::kHealthSample).has_value());
  const dvfs::obs::Json metrics =
      dvfs::obs::Json::parse(slurp(dir_ + "/m.json"));
  EXPECT_TRUE(metrics.at("gauges").contains("health.firing"));
}

TEST_F(ToolsFixture, PinDryRunTouchesNothing) {
  const std::string plan_path = dir_ + "/plan.csv";
  ASSERT_EQ(run(tool("dvfs_plan") + " --spec --cores 2 --out " + plan_path),
            0);
  ASSERT_EQ(run(tool("dvfs_pin") + " --plan " + plan_path +
                " --sysfs-root " + dir_ + "/nonexistent --dry-run"),
            0)
      << "dry run must not require the tree to exist";
  EXPECT_FALSE(fs::exists(dir_ + "/nonexistent"));
}

}  // namespace
