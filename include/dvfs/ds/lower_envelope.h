/// \file lower_envelope.h
/// \brief Lower envelope of linear functions over the positive integers.
///
/// This is the geometric engine behind Algorithm 1 of the paper ("Finding
/// Dominating Position Ranges"). Each discrete processing rate p induces a
/// line f_p(k) = Re*E(p) + Rt*T(p)*k over backward queue positions k; the
/// positions where rate p is the cheapest choice are exactly the integer
/// points where f_p lies on the lower envelope of all rate lines. Because
/// the lines arrive sorted by strictly decreasing slope, the envelope is
/// computable in a single Graham-scan-style stack pass: Theta(n) for n
/// lines.
#pragma once

#include <cstddef>
#include <limits>
#include <span>
#include <vector>

#include "dvfs/common.h"

namespace dvfs::ds {

/// A line y = intercept + slope * x. `id` is caller-defined (the paper uses
/// the index of the processing rate inducing the line).
struct Line {
  double slope = 0.0;
  double intercept = 0.0;
  std::size_t id = 0;

  [[nodiscard]] double at(double x) const { return intercept + slope * x; }

  friend bool operator==(const Line&, const Line&) = default;
};

/// A contiguous range [lo, hi] of positive integers; empty() when no integer
/// point is covered. `hi == kUnbounded` denotes an infinite upper end.
struct IntegerRange {
  static constexpr std::size_t kUnbounded =
      std::numeric_limits<std::size_t>::max();

  std::size_t lo = 1;
  std::size_t hi = 0;

  [[nodiscard]] bool empty() const { return hi < lo; }
  [[nodiscard]] bool unbounded() const { return hi == kUnbounded; }
  [[nodiscard]] bool contains(std::size_t k) const { return lo <= k && k <= hi; }
  /// Number of integer points (undefined for unbounded ranges).
  [[nodiscard]] std::size_t count() const { return empty() ? 0 : hi - lo + 1; }

  friend bool operator==(const IntegerRange&, const IntegerRange&) = default;
};

/// Result of an envelope computation: for input line i, `range_of[i]` is the
/// set of integer x >= 1 where line i is the minimum (ties are awarded to the
/// *later* input line, matching the paper's "choose the higher processing
/// rate in case of a tie"). The non-empty ranges partition [1, inf).
struct EnvelopeResult {
  std::vector<IntegerRange> range_of;

  /// Indices of lines with a non-empty range, in increasing order of `lo`
  /// (the paper's P-hat).
  std::vector<std::size_t> active;

  /// Index of the line that wins integer position k (k >= 1). O(log n).
  [[nodiscard]] std::size_t winner(std::size_t k) const;
};

/// Computes the lower envelope of `lines` over integer positions x >= 1.
///
/// Preconditions (checked): `lines` non-empty; slopes strictly decreasing;
/// intercepts strictly increasing. These hold for lines induced by a valid
/// rate set (higher rate => strictly less time per cycle, strictly more
/// energy per cycle), and they are what makes the single-pass Theta(n)
/// construction sound.
[[nodiscard]] EnvelopeResult lower_envelope_integer(std::span<const Line> lines);

/// Brute-force reference: evaluates every line at position k and returns the
/// index of the minimum, breaking ties toward the later line. O(n) per call;
/// used by tests and by the A1 ablation bench as the naive baseline.
[[nodiscard]] std::size_t argmin_line_at(std::span<const Line> lines,
                                         std::size_t k);

}  // namespace dvfs::ds
