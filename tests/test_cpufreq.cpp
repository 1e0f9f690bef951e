#include "dvfs/cpufreq/cpufreq.h"

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>

namespace dvfs::cpufreq {
namespace {

namespace fs = std::filesystem;

const std::vector<KHz> kI7Freqs = {1'600'000, 2'000'000, 2'400'000,
                                   2'800'000, 3'000'000};

// ------------------------------------------------------------- conversions

TEST(Units, GhzKhzRoundTrip) {
  EXPECT_EQ(ghz_to_khz(1.6), 1'600'000u);
  EXPECT_EQ(ghz_to_khz(3.07), 3'070'000u);
  EXPECT_DOUBLE_EQ(khz_to_ghz(2'400'000), 2.4);
  const core::RateSet i7 = core::RateSet::i7_950();
  for (const Rate r : i7.rates()) {
    EXPECT_DOUBLE_EQ(khz_to_ghz(ghz_to_khz(r)), r);
  }
}

TEST(Governors, StringRoundTrip) {
  for (const GovernorKind g :
       {GovernorKind::kUserspace, GovernorKind::kOndemand,
        GovernorKind::kPowersave, GovernorKind::kPerformance,
        GovernorKind::kConservative}) {
    EXPECT_EQ(governor_from_string(to_string(g)), g);
  }
  EXPECT_THROW((void)governor_from_string("turbo"), PreconditionError);
}

// ----------------------------------------------------------- governor_step

// A five-level ladder (levels 0..4) with FifoPolicy's default thresholds:
// up above 85% (both governors), conservative down below 20%.
constexpr std::size_t kTop = 4;
constexpr double kUp = 0.85;
constexpr double kDown = 0.20;

std::size_t step(GovernorKind g, double load, std::size_t level) {
  return governor_step(g, load, level, kTop, kUp, kDown);
}

TEST(GovernorStep, OndemandJumpsUpStepsDown) {
  // Idle periods decay one level each, from the top to the floor.
  std::size_t level = kTop;
  for (std::size_t want = kTop; want-- > 0;) {
    level = step(GovernorKind::kOndemand, 0.1, level);
    EXPECT_EQ(level, want);
  }
  EXPECT_EQ(step(GovernorKind::kOndemand, 0.1, 0), 0u);  // floor holds
  // Load above the threshold jumps straight to the top.
  EXPECT_EQ(step(GovernorKind::kOndemand, 0.9, 0), kTop);
  EXPECT_EQ(step(GovernorKind::kOndemand, 0.9, kTop), kTop);
}

TEST(GovernorStep, OndemandThresholdIsExclusive) {
  // Exactly at the threshold does not ramp ("higher than 85%").
  EXPECT_EQ(step(GovernorKind::kOndemand, kUp, 3), 2u);
  EXPECT_EQ(step(GovernorKind::kOndemand, std::nextafter(kUp, 1.0), 3), kTop);
}

TEST(GovernorStep, ConservativeMovesOneStepEachWay) {
  EXPECT_EQ(step(GovernorKind::kConservative, 0.95, 2), 3u);  // not a jump
  EXPECT_EQ(step(GovernorKind::kConservative, 0.95, 3), kTop);
  EXPECT_EQ(step(GovernorKind::kConservative, 0.95, kTop), kTop);  // ceiling
  EXPECT_EQ(step(GovernorKind::kConservative, 0.05, 3), 2u);
  EXPECT_EQ(step(GovernorKind::kConservative, 0.05, 0), 0u);  // floor
  // Mid-band load is hysteresis, and both bounds are exclusive.
  EXPECT_EQ(step(GovernorKind::kConservative, 0.5, 3), 3u);
  EXPECT_EQ(step(GovernorKind::kConservative, kUp, 3), 3u);
  EXPECT_EQ(step(GovernorKind::kConservative, kDown, 3), 3u);
}

TEST(GovernorStep, StaticGovernorsPin) {
  for (const double load : {0.0, 0.5, 1.0}) {
    for (std::size_t level = 0; level <= kTop; ++level) {
      EXPECT_EQ(step(GovernorKind::kPerformance, load, level), kTop);
      EXPECT_EQ(step(GovernorKind::kPowersave, load, level), 0u);
    }
  }
}

TEST(GovernorStep, UserspaceIsNeverTouched) {
  // The paper's setup depends on this: userspace disables the governor.
  for (const double load : {0.0, 0.5, 1.0}) {
    for (std::size_t level = 0; level <= kTop; ++level) {
      EXPECT_EQ(step(GovernorKind::kUserspace, load, level), level);
    }
  }
}

// --------------------------------------------------------------- simulated

TEST(Simulated, InitialStateMatchesKernelDefaults) {
  SimulatedCpufreq be(4, kI7Freqs);
  EXPECT_EQ(be.num_cpus(), 4u);
  for (std::size_t cpu = 0; cpu < 4; ++cpu) {
    EXPECT_EQ(be.governor(cpu), GovernorKind::kOndemand);
    EXPECT_EQ(be.current_khz(cpu), kI7Freqs.back());
    EXPECT_EQ(be.available_khz(cpu), kI7Freqs);
  }
}

TEST(Simulated, RateSetConstructor) {
  SimulatedCpufreq be(2, core::RateSet::i7_950());
  EXPECT_EQ(be.available_khz(0), kI7Freqs);
}

TEST(Simulated, SetSpeedRequiresUserspace) {
  SimulatedCpufreq be(1, kI7Freqs);
  EXPECT_THROW(be.set_speed(0, 1'600'000), PreconditionError);
  be.set_governor(0, GovernorKind::kUserspace);
  be.set_speed(0, 1'600'000);
  EXPECT_EQ(be.current_khz(0), 1'600'000u);
}

TEST(Simulated, SetSpeedRejectsUnsupportedFrequency) {
  SimulatedCpufreq be(1, kI7Freqs);
  be.set_governor(0, GovernorKind::kUserspace);
  EXPECT_THROW(be.set_speed(0, 2'500'000), PreconditionError);
}

TEST(DriverSetSpeed, RejectsUnsupportedFrequency) {
  // The driver boundary refuses a frequency outside the table and a cpu
  // outside the platform, and leaves the current frequency as it was.
  SimulatedCpufreq be(1, kI7Freqs);
  be.set_governor(0, GovernorKind::kUserspace);
  const KHz before = be.current_khz(0);
  EXPECT_THROW(be.set_speed(0, 1'234'567), PreconditionError);
  EXPECT_THROW(be.set_speed(1, 1'600'000), PreconditionError);
  EXPECT_EQ(be.current_khz(0), before);
}

TEST(Simulated, StaticGovernorsSnapFrequency) {
  SimulatedCpufreq be(1, kI7Freqs);
  be.set_governor(0, GovernorKind::kPowersave);
  EXPECT_EQ(be.current_khz(0), kI7Freqs.front());
  be.set_governor(0, GovernorKind::kPerformance);
  EXPECT_EQ(be.current_khz(0), kI7Freqs.back());
}

TEST(Simulated, PerCoreIndependence) {
  SimulatedCpufreq be(4, kI7Freqs);
  for (std::size_t cpu = 0; cpu < 4; ++cpu) {
    be.set_governor(cpu, GovernorKind::kUserspace);
  }
  be.set_speed(0, 1'600'000);
  be.set_speed(1, 3'000'000);
  be.set_speed(2, 2'400'000);
  EXPECT_EQ(be.current_khz(0), 1'600'000u);
  EXPECT_EQ(be.current_khz(1), 3'000'000u);
  EXPECT_EQ(be.current_khz(2), 2'400'000u);
  EXPECT_EQ(be.current_khz(3), kI7Freqs.back());
}

TEST(Simulated, RejectsBadConstruction) {
  EXPECT_THROW(SimulatedCpufreq(0, kI7Freqs), PreconditionError);
  EXPECT_THROW(SimulatedCpufreq(1, std::vector<KHz>{}), PreconditionError);
  EXPECT_THROW(SimulatedCpufreq(1, std::vector<KHz>{2, 1}),
               PreconditionError);
  SimulatedCpufreq be(1, kI7Freqs);
  EXPECT_THROW((void)be.current_khz(1), PreconditionError);
}

// ------------------------------------------------------------------- sysfs

class SysfsFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = ::testing::TempDir() + "/dvfs_sysfs_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name();
    fs::remove_all(root_);
    fs::create_directories(root_);
    make_fake_sysfs_tree(root_, 4, kI7Freqs);
  }
  void TearDown() override { fs::remove_all(root_); }

  std::string root_;
};

TEST_F(SysfsFixture, DiscoversCpusAndFrequencies) {
  SysfsCpufreq be(root_);
  EXPECT_EQ(be.num_cpus(), 4u);
  EXPECT_EQ(be.available_khz(0), kI7Freqs);
  EXPECT_EQ(be.governor(0), GovernorKind::kOndemand);
  EXPECT_EQ(be.current_khz(0), kI7Freqs.back());
}

TEST_F(SysfsFixture, PaperProtocolEndToEnd) {
  // The exact procedure from Section V: governor <- userspace, write
  // scaling_setspeed, verify via scaling_cur_freq.
  SysfsCpufreq be(root_);
  be.set_governor(2, GovernorKind::kUserspace);
  EXPECT_EQ(be.governor(2), GovernorKind::kUserspace);
  be.set_speed(2, 2'000'000);
  EXPECT_EQ(be.current_khz(2), 2'000'000u);
  // The files really changed on disk.
  std::ifstream is(root_ + "/cpu2/cpufreq/scaling_setspeed");
  std::string content;
  is >> content;
  EXPECT_EQ(content, "2000000");
}

TEST_F(SysfsFixture, SetSpeedGuardsMirrorKernel) {
  SysfsCpufreq be(root_);
  EXPECT_THROW(be.set_speed(0, 1'600'000), PreconditionError)
      << "setspeed without userspace governor must fail";
  be.set_governor(0, GovernorKind::kUserspace);
  EXPECT_THROW(be.set_speed(0, 1'234'567), PreconditionError)
      << "frequency outside scaling_available_frequencies must fail";
}

TEST_F(SysfsFixture, StaticGovernorsSnapCurFreq) {
  SysfsCpufreq be(root_);
  be.set_governor(1, GovernorKind::kPowersave);
  EXPECT_EQ(be.current_khz(1), kI7Freqs.front());
  be.set_governor(1, GovernorKind::kPerformance);
  EXPECT_EQ(be.current_khz(1), kI7Freqs.back());
}

TEST_F(SysfsFixture, CpuIndexOutOfRange) {
  SysfsCpufreq be(root_);
  EXPECT_THROW((void)be.current_khz(4), PreconditionError);
}

TEST(Sysfs, RejectsMissingTree) {
  EXPECT_THROW(SysfsCpufreq("/nonexistent/path/xyz"), PreconditionError);
  const std::string empty = ::testing::TempDir() + "/dvfs_empty_tree";
  fs::create_directories(empty);
  EXPECT_THROW((void)SysfsCpufreq{empty}, PreconditionError);
  fs::remove_all(empty);
}

// -------------------------------------------------------------- controller

TEST_F(SysfsFixture, ControllerAppliesPlanRates) {
  SysfsCpufreq be(root_);
  PlatformController ctl(be, core::RateSet::i7_950());
  ctl.disable_automatic_scaling();
  for (std::size_t cpu = 0; cpu < 4; ++cpu) {
    EXPECT_EQ(be.governor(cpu), GovernorKind::kUserspace);
  }
  const std::vector<std::size_t> rates{0, 2, 4, 1};
  ctl.pin_all(rates);
  EXPECT_EQ(be.current_khz(0), 1'600'000u);
  EXPECT_EQ(be.current_khz(1), 2'400'000u);
  EXPECT_EQ(be.current_khz(2), 3'000'000u);
  EXPECT_EQ(be.current_khz(3), 2'000'000u);
}

TEST(Controller, RejectsUnsupportedRateSet) {
  SimulatedCpufreq be(2, kI7Freqs);
  EXPECT_THROW(PlatformController(be, core::RateSet({1.0, 2.0})),
               PreconditionError);
}

TEST(Controller, PinValidatesArguments) {
  SimulatedCpufreq be(2, kI7Freqs);
  PlatformController ctl(be, core::RateSet::i7_950());
  ctl.disable_automatic_scaling();
  EXPECT_THROW(ctl.pin(0, 9), PreconditionError);
  const std::vector<std::size_t> wrong{0};
  EXPECT_THROW(ctl.pin_all(wrong), PreconditionError);
  ctl.pin(1, 3);
  EXPECT_EQ(be.current_khz(1), 2'800'000u);
}

}  // namespace
}  // namespace dvfs::cpufreq
