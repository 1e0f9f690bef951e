/// \file clock.h
/// \brief The run clock: one monotonic time base for every wall-clock
///        timestamp and stopwatch in the process.
///
/// Time zero is fixed once per process, before `main()` runs, so the
/// service's task instants, the CPU profiler's samples, the health
/// monitor's ticks and the real-time executor's records are seconds on
/// one axis, and the channels of one recording line up without an
/// offset. A simulator's engine channel is on simulated time instead.
#pragma once

#include <cstdint>
#include <ctime>

namespace dvfs::obs {

namespace detail {
inline std::uint64_t monotonic_ns() noexcept {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000u +
         static_cast<std::uint64_t>(ts.tv_nsec);
}
/// Set while static objects are initialized, before any thread exists or
/// a signal handler is installed; no static initializer reads the clock.
inline const std::uint64_t origin_ns = monotonic_ns();
}  // namespace detail

/// CLOCK_MONOTONIC nanoseconds since the process-wide origin.
/// Async-signal-safe, so a signal handler may stamp with it.
[[nodiscard]] inline std::uint64_t now_ns() noexcept {
  return detail::monotonic_ns() - detail::origin_ns;
}

/// Run-clock nanoseconds as seconds: the one conversion, the one
/// `std::chrono::duration<double>` performs, so an instant kept in
/// integer nanoseconds rebuilds to the same double.
[[nodiscard]] constexpr double ns_to_s(std::uint64_t ns) {
  return static_cast<double>(ns) / 1e9;
}

}  // namespace dvfs::obs
