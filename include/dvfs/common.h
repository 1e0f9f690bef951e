/// \file common.h
/// \brief Shared utilities: precondition checking, numeric helpers, and
///        common type aliases used across the dvfs libraries.
#pragma once

#include <cmath>
#include <cstdint>
#include <limits>
#include <source_location>
#include <sstream>
#include <stdexcept>
#include <string>

namespace dvfs {

/// Number of CPU cycles a task needs. Cycle counts for realistic workloads
/// (minutes at GHz rates) exceed 32 bits, so 64 bits are required.
using Cycles = std::uint64_t;

/// Simulated wall-clock time and durations, in seconds.
using Seconds = double;

/// Energy in joules.
using Joules = double;

/// Monetized cost (the paper uses cents; any fixed currency unit works).
using Money = double;

/// Processing rate (core frequency) in GHz. The paper's rate sets are
/// small discrete sets, e.g. {1.6, 2.0, 2.4, 2.8, 3.0} for the i7-950.
using Rate = double;

/// Thrown by DVFS_REQUIRE when a caller violates an API precondition.
class PreconditionError : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

namespace detail {

[[noreturn]] inline void require_failed(const char* expr, const std::string& msg,
                                        const std::source_location& loc) {
  std::ostringstream os;
  os << loc.file_name() << ':' << loc.line() << " in " << loc.function_name()
     << ": precondition `" << expr << "` violated";
  if (!msg.empty()) os << ": " << msg;
  throw PreconditionError(os.str());
}

}  // namespace detail

/// Precondition check for public API entry points. Unlike assert(), stays
/// active in release builds: scheduling plans feed real frequency-control
/// actuators, so silent misuse is worse than the branch cost.
#define DVFS_REQUIRE(cond, msg)                                      \
  do {                                                               \
    if (!(cond)) {                                                   \
      ::dvfs::detail::require_failed(#cond, (msg),                   \
                                     std::source_location::current()); \
    }                                                                \
  } while (false)

/// Tolerant floating-point comparison for cost/energy arithmetic.
/// Costs are sums of O(N) products, so tolerance scales with magnitude.
inline bool almost_equal(double a, double b, double rel_tol = 1e-9,
                         double abs_tol = 1e-12) {
  const double diff = std::fabs(a - b);
  if (diff <= abs_tol) return true;
  return diff <= rel_tol * std::max(std::fabs(a), std::fabs(b));
}

/// MurmurHash3's 64-bit finalizer: a cheap bijective mixer for hashing
/// integer ids into open-addressing tables.
[[nodiscard]] constexpr std::uint64_t fmix64(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xFF51AFD7ED558CCDull;
  x ^= x >> 33;
  x *= 0xC4CEB9FE1A85EC53ull;
  x ^= x >> 33;
  return x;
}

/// +infinity shorthand for deadlines ("no time constraint", Sec. II-A).
inline constexpr Seconds kNoDeadline = std::numeric_limits<Seconds>::infinity();

}  // namespace dvfs
