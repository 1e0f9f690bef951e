/// Differential property tests: the proptest harness run in-process.
///
/// Three layers:
///  * self-tests — the harness must detect and shrink a known injected
///    bug (a fuzzer that cannot fire proves nothing);
///  * live fuzzing — every oracle pair over a deterministic seed block;
///  * corpus replay — every checked-in counterexample/seed instance in
///    tests/corpus/ re-checked verbatim (the permanent regression net).
#include <gtest/gtest.h>

#include <string>

#include "proptest/proptest.h"

#ifndef DVFS_CORPUS_DIR
#error "DVFS_CORPUS_DIR must be defined by the build"
#endif

namespace dvfs::proptest {
namespace {

// ---------------------------------------------------------------- self-tests

TEST(FuzzSelfTest, InjectedOffByOneIsFoundAndShrunkSmall) {
  FuzzOptions opts;
  opts.oracle = "ltl_vs_bf";
  opts.instances = 300;
  opts.base_seed = 42;
  opts.hooks.single_core = [](std::span<const core::Task> ts,
                              const core::CostTable& t) {
    return inject::longest_task_last_off_by_one(ts, t);
  };
  const FuzzReport report = run_fuzz(opts);
  ASSERT_TRUE(report.failed)
      << "harness failed to detect a deliberately broken scheduler";
  // Acceptance bar: the shrinker must reach a tiny counterexample.
  EXPECT_LE(report.shrunk.tasks.size(), 4u) << report.message;
  EXPECT_LE(report.shrunk.num_rates(), 3u) << report.message;
  EXPECT_EQ(report.shrunk.cores.size(), 1u);
  // The shrunk instance still reproduces under the broken subject...
  EXPECT_TRUE(check_instance(report.shrunk, opts.hooks).has_value());
  // ...and passes with the real implementation (so it is corpus-worthy).
  EXPECT_FALSE(check_instance(report.shrunk).has_value());
}

TEST(FuzzSelfTest, InjectedBugAlsoCaughtBySortedRateSearch) {
  FuzzOptions opts;
  opts.oracle = "ltl_vs_sorted";
  opts.instances = 300;
  opts.base_seed = 43;
  opts.hooks.single_core = [](std::span<const core::Task> ts,
                              const core::CostTable& t) {
    return inject::longest_task_last_off_by_one(ts, t);
  };
  const FuzzReport report = run_fuzz(opts);
  ASSERT_TRUE(report.failed);
  EXPECT_LE(report.shrunk.tasks.size(), 4u) << report.message;
  EXPECT_LE(report.shrunk.num_rates(), 3u) << report.message;
}

TEST(FuzzSelfTest, SerializationRoundTripsEveryOracle) {
  for (const char* oracle : kOracleNames) {
    for (std::uint64_t i = 0; i < 25; ++i) {
      const Instance inst = generate_instance(oracle, derive_seed(77, i));
      const Instance reparsed = parse_instance(instance_to_string(inst));
      EXPECT_EQ(inst, reparsed) << oracle << " seed index " << i;
    }
  }
}

TEST(FuzzSelfTest, GenerationIsDeterministicAndPlatformPinned) {
  // SplitMix64 golden value: guards against accidental use of
  // platform-dependent std:: distributions sneaking into the generators.
  EXPECT_EQ(SplitMix64(0).next(), 0xE220A8397B1DCDAFull);
  const Instance a = generate_instance("ltl_vs_bf", 123);
  const Instance b = generate_instance("ltl_vs_bf", 123);
  EXPECT_EQ(a, b);
  const Instance c = generate_instance("ltl_vs_bf", 124);
  EXPECT_NE(instance_to_string(a), instance_to_string(c));
}

// --------------------------------------------------------------- live fuzzing

class OracleFuzz : public ::testing::TestWithParam<const char*> {};

TEST_P(OracleFuzz, RandomizedInstancesAgreeWithReference) {
  FuzzOptions opts;
  opts.oracle = GetParam();
  opts.instances = 120;
  opts.base_seed = 0xD1FF;
  const FuzzReport report = run_fuzz(opts);
  EXPECT_FALSE(report.failed)
      << "seed 0x" << std::hex << report.failing_seed << std::dec << ": "
      << report.message << "\nminimal counterexample:\n"
      << instance_to_string(report.shrunk);
  EXPECT_EQ(report.ran, opts.instances);
}

INSTANTIATE_TEST_SUITE_P(AllOracles, OracleFuzz,
                         ::testing::ValuesIn(kOracleNames));

// -------------------------------------------------------------- corpus replay

TEST(Corpus, ReplaysDeterministically) {
  const auto files = corpus_files(DVFS_CORPUS_DIR);
  ASSERT_FALSE(files.empty()) << "no corpus at " << DVFS_CORPUS_DIR;
  for (const std::string& file : files) {
    const Verdict first = replay_corpus_file(file);
    EXPECT_FALSE(first.has_value()) << file << ": " << first.value_or("");
    // Replaying the identical file must give the identical verdict — the
    // corpus is the deterministic regression layer, so any run-to-run
    // divergence here is itself a bug.
    const Verdict second = replay_corpus_file(file);
    EXPECT_EQ(first.has_value(), second.has_value()) << file;
  }
}

// The first counterexample this harness ever shrank (injected off-by-one
// in a scratch longest_task_last): kept inline as the canonical example of
// the promote-a-counterexample workflow described in docs/testing.md.
TEST(DifferentialRegression, ltl_vs_bf_089564dbb60d802f) {
  const char* corpus = R"corpus(dvfs-fuzz v1
oracle ltl_vs_bf
seed 618511418648264751
re 0.85825579131303742
rt 0.19244340047517719
cores 1
rates 2 0.44441162162069797 0.53329743044762712
epc 2 4.6534040030403521e-09 4.6696084771062271e-09
tpc 2 1.1140765280465232e-09 1.0609848197112628e-09
tasks 2
0 1 0 inf batch
1 1 0 inf batch
)corpus";
  const auto verdict = dvfs::proptest::check_instance(
      dvfs::proptest::parse_instance(std::string(corpus)));
  EXPECT_FALSE(verdict.has_value()) << verdict.value_or("");
}

}  // namespace
}  // namespace dvfs::proptest
