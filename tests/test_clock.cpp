/// Tests for obs/clock.h: the run clock's one conversion to seconds.
#include "dvfs/obs/clock.h"

#include <gtest/gtest.h>

#include <bit>
#include <chrono>
#include <cstdint>

namespace dvfs::obs {
namespace {

// ns_to_s is the conversion std::chrono performs for duration<double>,
// so times kept in integer nanoseconds rebuild bit for bit.
TEST(Clock, NsToSecondsMatchesChronoDuration) {
  for (const std::uint64_t ns :
       {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{999'999'999},
        std::uint64_t{1} << 32, (std::uint64_t{1} << 53) + 1,
        std::uint64_t{123'456'789'012'345}}) {
    const std::chrono::nanoseconds d(static_cast<std::int64_t>(ns));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(ns_to_s(ns)),
              std::bit_cast<std::uint64_t>(
                  std::chrono::duration<double>(d).count()))
        << ns;
  }
}

}  // namespace
}  // namespace dvfs::obs
