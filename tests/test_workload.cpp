#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdio>
#include <limits>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <variant>

#include "dvfs/workload/estimator.h"
#include "dvfs/workload/generators.h"
#include "dvfs/workload/spec2006int.h"
#include "dvfs/workload/trace.h"

namespace dvfs::workload {
namespace {

// ----------------------------------------------------------------- Table I

TEST(Spec2006, TableHas24Workloads) {
  const auto table = spec2006int();
  ASSERT_EQ(table.size(), 24u);
  std::size_t train = 0;
  std::size_t ref = 0;
  for (const SpecWorkload& w : table) {
    (w.input == SpecInput::kTrain ? train : ref) += 1;
    EXPECT_GT(w.avg_seconds_at_1_6ghz, 0.0);
  }
  EXPECT_EQ(train, 12u);
  EXPECT_EQ(ref, 12u);
}

TEST(Spec2006, SpotCheckPaperValues) {
  const auto table = spec2006int();
  EXPECT_EQ(table[0].benchmark, "perlbench");
  EXPECT_DOUBLE_EQ(table[0].avg_seconds_at_1_6ghz, 43.516);
  EXPECT_DOUBLE_EQ(table[1].avg_seconds_at_1_6ghz, 749.624);
  EXPECT_EQ(table[23].benchmark, "xalancbmk");
  EXPECT_DOUBLE_EQ(table[23].avg_seconds_at_1_6ghz, 453.463);
  // gcc train is the shortest workload, h264ref ref the longest.
  EXPECT_DOUBLE_EQ(table[4].avg_seconds_at_1_6ghz, 1.63);
  EXPECT_DOUBLE_EQ(table[17].avg_seconds_at_1_6ghz, 1549.734);
}

TEST(Spec2006, CycleConversionUsesProfileFrequency) {
  // L = seconds * 1.6e9, the paper's estimation method.
  const auto table = spec2006int();
  EXPECT_EQ(spec_cycles(table[4]), static_cast<Cycles>(1.63 * 1.6e9));
  const double expect = 749.624 * 1.6e9;
  EXPECT_NEAR(static_cast<double>(spec_cycles(table[1])), expect, 1.0);
}

TEST(Spec2006, BatchTasksCoverTable) {
  const auto tasks = spec_batch_tasks();
  ASSERT_EQ(tasks.size(), 24u);
  for (const core::Task& t : tasks) {
    EXPECT_TRUE(core::is_valid(t));
    EXPECT_EQ(t.arrival, 0.0);
    EXPECT_EQ(t.klass, core::TaskClass::kBatch);
  }
  EXPECT_EQ(spec_batch_tasks(SpecInput::kTrain).size(), 12u);
  EXPECT_EQ(spec_batch_tasks(SpecInput::kRef).size(), 12u);
}

// ------------------------------------------------------------------- Trace

TEST(Trace, SortsByArrivalThenId) {
  std::vector<core::Task> tasks{
      {.id = 2, .cycles = 10, .arrival = 5.0,
       .klass = core::TaskClass::kNonInteractive},
      {.id = 1, .cycles = 10, .arrival = 5.0,
       .klass = core::TaskClass::kNonInteractive},
      {.id = 3, .cycles = 10, .arrival = 1.0,
       .klass = core::TaskClass::kNonInteractive},
  };
  const Trace trace(std::move(tasks));
  EXPECT_EQ(trace[0].id, 3u);
  EXPECT_EQ(trace[1].id, 1u);
  EXPECT_EQ(trace[2].id, 2u);
  EXPECT_DOUBLE_EQ(trace.horizon(), 5.0);
  EXPECT_EQ(trace.total_cycles(), 30u);
}

TEST(Trace, RejectsInvalidTasks) {
  std::vector<core::Task> bad{{.id = 1, .cycles = 0}};
  EXPECT_THROW(Trace{std::move(bad)}, PreconditionError);
}

TEST(Trace, RejectsNonFiniteTimes) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const double arrival : {nan, inf, -inf}) {
    SCOPED_TRACE(arrival);
    std::vector<core::Task> bad{{.id = 1, .cycles = 10, .arrival = arrival}};
    EXPECT_THROW(Trace{std::move(bad)}, PreconditionError);
  }
  std::vector<core::Task> bad{
      {.id = 1, .cycles = 10, .arrival = 1.0, .deadline = nan}};
  EXPECT_THROW(Trace{std::move(bad)}, PreconditionError);
  // kNoDeadline (+inf) still means unconstrained.
  std::vector<core::Task> ok{
      {.id = 1, .cycles = 10, .arrival = 1.0, .deadline = kNoDeadline}};
  EXPECT_EQ(Trace{std::move(ok)}.size(), 1u);
}

TEST(Trace, CountsByClass) {
  std::vector<core::Task> tasks{
      {.id = 1, .cycles = 1, .klass = core::TaskClass::kInteractive},
      {.id = 2, .cycles = 1, .klass = core::TaskClass::kInteractive},
      {.id = 3, .cycles = 1, .klass = core::TaskClass::kNonInteractive},
  };
  const Trace trace(std::move(tasks));
  EXPECT_EQ(trace.count(core::TaskClass::kInteractive), 2u);
  EXPECT_EQ(trace.count(core::TaskClass::kNonInteractive), 1u);
  EXPECT_EQ(trace.count(core::TaskClass::kBatch), 0u);
}

TEST(Trace, SliceRebasesWindow) {
  std::vector<core::Task> tasks{
      {.id = 1, .cycles = 1, .arrival = 0.5,
       .klass = core::TaskClass::kNonInteractive},
      {.id = 2, .cycles = 1, .arrival = 2.0, .deadline = 4.0,
       .klass = core::TaskClass::kInteractive},
      {.id = 3, .cycles = 1, .arrival = 5.0,
       .klass = core::TaskClass::kNonInteractive},
  };
  const Trace trace(std::move(tasks));
  const Trace window = trace.slice(1.0, 5.0);
  ASSERT_EQ(window.size(), 1u);
  EXPECT_EQ(window[0].id, 2u);
  EXPECT_DOUBLE_EQ(window[0].arrival, 1.0);  // 2.0 - 1.0
  EXPECT_DOUBLE_EQ(window[0].deadline, 3.0);
  // Boundary semantics: [from, to).
  EXPECT_EQ(trace.slice(5.0, 6.0).size(), 1u);
  EXPECT_EQ(trace.slice(0.0, 0.5).size(), 0u);
  EXPECT_THROW((void)trace.slice(2.0, 2.0), PreconditionError);
  EXPECT_THROW((void)trace.slice(-1.0, 2.0), PreconditionError);
}

TEST(Trace, MergePreservesOrderAndSize) {
  const Trace a(std::vector<core::Task>{
      {.id = 1, .cycles = 1, .arrival = 1.0,
       .klass = core::TaskClass::kInteractive}});
  const Trace b(std::vector<core::Task>{
      {.id = 2, .cycles = 1, .arrival = 0.5,
       .klass = core::TaskClass::kNonInteractive}});
  const Trace m = Trace::merge(a, b);
  ASSERT_EQ(m.size(), 2u);
  EXPECT_EQ(m[0].id, 2u);
}

TEST(TraceCsv, RoundTripsAllFields) {
  std::vector<core::Task> tasks{
      {.id = 7, .cycles = 123456789, .arrival = 1.25, .deadline = 9.5,
       .klass = core::TaskClass::kInteractive},
      {.id = 8, .cycles = 42, .arrival = 0.75,
       .klass = core::TaskClass::kNonInteractive},
  };
  const Trace original(std::move(tasks));
  std::stringstream ss;
  write_csv(original, ss);
  const Trace parsed = read_csv(ss);
  ASSERT_EQ(parsed.size(), original.size());
  for (std::size_t i = 0; i < parsed.size(); ++i) {
    EXPECT_EQ(parsed[i].id, original[i].id);
    EXPECT_EQ(parsed[i].cycles, original[i].cycles);
    EXPECT_DOUBLE_EQ(parsed[i].arrival, original[i].arrival);
    EXPECT_EQ(parsed[i].klass, original[i].klass);
    EXPECT_DOUBLE_EQ(parsed[i].deadline, original[i].deadline);
  }
}

TEST(TraceCsv, RejectsMalformedInput) {
  {
    std::stringstream ss("not,a,header\n");
    EXPECT_THROW((void)read_csv(ss), PreconditionError);
  }
  {
    std::stringstream ss("id,arrival,cycles,class,deadline\n1,0.0\n");
    EXPECT_THROW((void)read_csv(ss), PreconditionError);
  }
  {
    std::stringstream ss(
        "id,arrival,cycles,class,deadline\n1,0.0,10,alien,\n");
    EXPECT_THROW((void)read_csv(ss), PreconditionError);
  }
  {
    std::stringstream ss("id,arrival,cycles,class,deadline\n1,zero,10,batch,\n");
    EXPECT_THROW((void)read_csv(ss), PreconditionError);
  }
  {
    std::stringstream ss("");
    EXPECT_THROW((void)read_csv(ss), PreconditionError);
  }
}

// The CSV reader's double parsing must accept exactly what std::stod
// (with whole-field consumption) accepts, return the same bits, and fail
// with the same message. This reference is that stod-only parse plus the
// trace's own arrival check: a partly consumed field reports "trailing
// junk", and a negative or non-finite arrival is an invalid task.
std::variant<double, std::string> stod_arrival(const std::string& field) {
  try {
    std::size_t used = 0;
    const double v = std::stod(field, &used);
    if (used != field.size()) return std::string("trailing junk in arrival");
    if (!std::isfinite(v) || v < 0.0) {
      return std::string("invalid task in trace");
    }
    return v;
  } catch (const std::invalid_argument&) {
    return std::string("non-numeric arrival");
  } catch (const std::out_of_range&) {
    return std::string("out-of-range arrival");
  }
}

void expect_parses_like_stod(const std::string& field) {
  SCOPED_TRACE("arrival field '" + field + "'");
  std::stringstream ss("id,arrival,cycles,class,deadline\n1," + field +
                       ",10,batch,\n");
  const auto expected = stod_arrival(field);
  if (const auto* value = std::get_if<double>(&expected)) {
    const Trace t = read_csv(ss);
    ASSERT_EQ(t.size(), 1u);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(t[0].arrival),
              std::bit_cast<std::uint64_t>(*value));
    return;
  }
  try {
    (void)read_csv(ss);
    ADD_FAILURE() << "accepted; stod path rejects it";
  } catch (const PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find(std::get<std::string>(expected)),
              std::string::npos)
        << e.what();
  }
}

TEST(TraceCsv, DoubleFieldsParseLikeStod) {
  for (const char* field :
       {"0", "-0", "0.0", "0e5", "1", "1.5", "-1.5", "+1.5", " 1.5", "1.5 ",
        "\t2", "00001.25", ".5", "5.", ".", "", "-", "+", "e5", "1e", "1e+",
        "1e-5", "1E3", "1e0010", "0.1", "123456789.123456789",
        "3.14159265358979323846264338327950288", "1e308",
        "1.7976931348623157e308", "1.7976931348623159e308", "1e309",
        "-1e309", "2.2250738585072014e-308", "2.225073858507201e-308",
        "4.9e-324", "1e-400", "inf", "-inf", "INF", "infinity", "nan", "NaN",
        "-nan", "nan(123)", "0x1p3", "0X1.8p1", "0x", "1.5abc", "abc",
        "1_000", "1..5", "--1"}) {
    expect_parses_like_stod(field);
  }
  // Random normal values in every printed precision.
  std::mt19937_64 rng(4242);
  for (int i = 0; i < 2000; ++i) {
    double v = 0.0;
    do {
      v = std::bit_cast<double>(rng() >> 1);  // sign bit clear
    } while (!std::isnormal(v));
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.*g", 1 + i % 17, v);
    expect_parses_like_stod(buf);
  }
}

TEST(TraceCsv, RandomRoundTripProperty) {
  std::mt19937_64 rng(2718);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<core::Task> tasks;
    const std::size_t n = 1 + rng() % 50;
    for (std::size_t i = 0; i < n; ++i) {
      core::Task t;
      t.id = i;
      t.cycles = 1 + rng() % 1'000'000'000'000ULL;
      t.arrival = static_cast<double>(rng() % 1'000'000) / 256.0;
      t.klass = (rng() % 2 == 0) ? core::TaskClass::kInteractive
                                 : core::TaskClass::kNonInteractive;
      if (rng() % 3 == 0) {
        t.deadline = t.arrival + 1.0 + static_cast<double>(rng() % 100);
      }
      tasks.push_back(t);
    }
    const Trace original(std::move(tasks));
    std::stringstream ss;
    write_csv(original, ss);
    const Trace parsed = read_csv(ss);
    ASSERT_EQ(parsed.size(), original.size());
    for (std::size_t i = 0; i < parsed.size(); ++i) {
      ASSERT_EQ(parsed[i].id, original[i].id);
      ASSERT_EQ(parsed[i].cycles, original[i].cycles);
      ASSERT_DOUBLE_EQ(parsed[i].arrival, original[i].arrival);
      ASSERT_DOUBLE_EQ(parsed[i].deadline, original[i].deadline);
      ASSERT_EQ(parsed[i].klass, original[i].klass);
    }
  }
}

TEST(TraceCsv, FileRoundTrip) {
  const Trace original(std::vector<core::Task>{
      {.id = 1, .cycles = 99, .arrival = 0.0,
       .klass = core::TaskClass::kNonInteractive}});
  const std::string path = ::testing::TempDir() + "/dvfs_trace_test.csv";
  write_csv_file(original, path);
  const Trace parsed = read_csv_file(path);
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed[0].cycles, 99u);
  EXPECT_THROW((void)read_csv_file(path + ".missing"), PreconditionError);
}

// -------------------------------------------------------------- generators

TEST(Poisson, DeterministicGivenSeed) {
  const PoissonConfig cfg{.arrivals_per_second = 5.0, .duration = 100.0};
  const Trace a = generate_poisson(cfg, 123);
  const Trace b = generate_poisson(cfg, 123);
  const Trace c = generate_poisson(cfg, 124);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].cycles, b[i].cycles);
    EXPECT_DOUBLE_EQ(a[i].arrival, b[i].arrival);
  }
  EXPECT_NE(a.size(), 0u);
  EXPECT_TRUE(a.size() != c.size() || a[0].cycles != c[0].cycles);
}

TEST(Poisson, RateControlsArrivalCount) {
  const PoissonConfig slow{.arrivals_per_second = 1.0, .duration = 500.0};
  const PoissonConfig fast{.arrivals_per_second = 10.0, .duration = 500.0};
  const std::size_t n_slow = generate_poisson(slow, 7).size();
  const std::size_t n_fast = generate_poisson(fast, 7).size();
  // Expected 500 vs 5000; huge margin to keep this deterministic-robust.
  EXPECT_GT(n_slow, 300u);
  EXPECT_LT(n_slow, 800u);
  EXPECT_GT(n_fast, 4000u);
  EXPECT_LT(n_fast, 6000u);
}

TEST(Poisson, RejectsBadConfig) {
  EXPECT_THROW((void)generate_poisson({.arrivals_per_second = 0.0}, 1),
               PreconditionError);
  EXPECT_THROW((void)generate_poisson({.duration = 0.0}, 1),
               PreconditionError);
}

TEST(Judgegirl, ReproducesPaperPopulation) {
  const JudgegirlConfig cfg;  // defaults = the paper's Section V-B numbers
  const Trace trace = generate_judgegirl(cfg, 2014);
  EXPECT_EQ(trace.count(core::TaskClass::kNonInteractive), 768u);
  EXPECT_EQ(trace.count(core::TaskClass::kInteractive), 50525u);
  EXPECT_EQ(trace.size(), 768u + 50525u);
  EXPECT_LE(trace.horizon(), 1800.0);
}

TEST(Judgegirl, InteractiveTasksAreTiny) {
  const Trace trace = generate_judgegirl(JudgegirlConfig{}, 3);
  double interactive_mean = 0.0;
  double judge_mean = 0.0;
  for (const core::Task& t : trace.tasks()) {
    if (t.klass == core::TaskClass::kInteractive) {
      interactive_mean += static_cast<double>(t.cycles);
    } else {
      judge_mean += static_cast<double>(t.cycles);
    }
  }
  interactive_mean /= 50525.0;
  judge_mean /= 768.0;
  // Judging a submission is far heavier than serving a query.
  EXPECT_GT(judge_mean, 10.0 * interactive_mean);
}

TEST(Judgegirl, BurstinessLoadsTheExamEnd) {
  JudgegirlConfig cfg;
  cfg.burstiness = 4.0;
  const Trace trace = generate_judgegirl(cfg, 11);
  std::size_t first_half = 0;
  std::size_t second_half = 0;
  for (const core::Task& t : trace.tasks()) {
    (t.arrival < cfg.duration / 2 ? first_half : second_half) += 1;
  }
  EXPECT_GT(second_half, first_half);
}

TEST(Judgegirl, RejectsBadConfig) {
  JudgegirlConfig cfg;
  cfg.num_problems = 0;
  EXPECT_THROW((void)generate_judgegirl(cfg, 1), PreconditionError);
  cfg = JudgegirlConfig{};
  cfg.burstiness = 0.5;
  EXPECT_THROW((void)generate_judgegirl(cfg, 1), PreconditionError);
}

TEST(BatchGenerator, ShapesStayInBounds) {
  for (const BatchShape shape :
       {BatchShape::kUniform, BatchShape::kLognormal, BatchShape::kBimodal}) {
    BatchConfig cfg;
    cfg.shape = shape;
    cfg.num_tasks = 200;
    const auto tasks = generate_batch(cfg, 5);
    ASSERT_EQ(tasks.size(), 200u);
    for (const core::Task& t : tasks) {
      EXPECT_GE(t.cycles, cfg.min_cycles);
      EXPECT_LE(t.cycles, cfg.max_cycles);
      EXPECT_TRUE(core::is_valid(t));
    }
  }
}

TEST(BatchGenerator, BimodalHasTwoModes) {
  BatchConfig cfg;
  cfg.shape = BatchShape::kBimodal;
  cfg.num_tasks = 400;
  const auto tasks = generate_batch(cfg, 9);
  const double mid =
      (static_cast<double>(cfg.min_cycles) + static_cast<double>(cfg.max_cycles)) / 2;
  std::size_t low = 0;
  std::size_t high = 0;
  for (const core::Task& t : tasks) {
    (static_cast<double>(t.cycles) < mid ? low : high) += 1;
  }
  EXPECT_GT(low, 100u);  // ~70%
  EXPECT_GT(high, 50u);  // ~30%
}

TEST(BatchGenerator, RejectsBadBounds) {
  BatchConfig cfg;
  cfg.min_cycles = 10;
  cfg.max_cycles = 9;
  EXPECT_THROW((void)generate_batch(cfg, 1), PreconditionError);
}

// -------------------------------------------------------------- estimators

TEST(ProfileEstimator, StoresAndLooksUp) {
  ProfileEstimator est;
  EXPECT_FALSE(est.has_profile("score_query"));
  est.set_profile("score_query", 3'000'000);
  EXPECT_TRUE(est.has_profile("score_query"));
  EXPECT_EQ(est.estimate("score_query"), 3'000'000u);
  est.set_profile("score_query", 4'000'000);  // replace
  EXPECT_EQ(est.estimate("score_query"), 4'000'000u);
  EXPECT_EQ(est.size(), 1u);
  EXPECT_THROW((void)est.estimate("unknown"), PreconditionError);
  EXPECT_THROW(est.set_profile("zero", 0), PreconditionError);
}

TEST(HistoricalAverage, PriorUntilDataThenMean) {
  HistoricalAverageEstimator est(3, 1'000'000);
  EXPECT_EQ(est.estimate(0), 1'000'000u);
  est.record(0, 200);
  est.record(0, 400);
  EXPECT_EQ(est.estimate(0), 300u);
  EXPECT_EQ(est.observations(0), 2u);
  // Other categories unaffected.
  EXPECT_EQ(est.estimate(1), 1'000'000u);
  EXPECT_EQ(est.observations(2), 0u);
}

TEST(HistoricalAverage, BoundsChecked) {
  HistoricalAverageEstimator est(2, 10);
  EXPECT_THROW((void)est.estimate(2), PreconditionError);
  EXPECT_THROW(est.record(2, 1), PreconditionError);
  EXPECT_THROW(est.record(0, 0), PreconditionError);
  EXPECT_THROW(HistoricalAverageEstimator(0, 10), PreconditionError);
}

TEST(HistoricalAverage, ConvergesOnJudgegirlStream) {
  // Feeding the generator's per-problem submissions, the estimate should
  // land near the configured per-problem mean.
  JudgegirlConfig cfg;
  cfg.non_interactive_tasks = 600;
  cfg.interactive_tasks = 0;
  cfg.num_problems = 1;  // single category keeps the check tight
  const Trace trace = generate_judgegirl(cfg, 77);
  HistoricalAverageEstimator est(1, 1);
  for (const core::Task& t : trace.tasks()) {
    est.record(0, t.cycles);
  }
  const double got = static_cast<double>(est.estimate(0));
  EXPECT_NEAR(got, cfg.base_judge_cycles, 0.2 * cfg.base_judge_cycles);
}

}  // namespace
}  // namespace dvfs::workload
