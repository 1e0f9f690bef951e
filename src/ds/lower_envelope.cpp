#include "dvfs/ds/lower_envelope.h"

#include <algorithm>
#include <cmath>

namespace dvfs::ds {
namespace {

// Dual-space point for a line (x = slope, y = intercept), as in Algorithm 1.
struct DualPoint {
  double x;
  double y;
  std::size_t id;
};

// Signed area of the (t0, t1, t2) triangle; >= 0 means t1 does not bend the
// chain in the direction required for it to touch the lower envelope, so it
// is popped (Algorithm 1 line 11).
double cross(const DualPoint& t0, const DualPoint& t1, const DualPoint& t2) {
  return (t1.x - t0.x) * (t2.y - t0.y) - (t2.x - t0.x) * (t1.y - t0.y);
}

// First integer position at which line `b` (smaller slope) becomes no worse
// than line `a` (larger slope): k >= (b.y - a.y) / (a.x - b.x), Eq. (25).
// Ties at an exact integer belong to `b` (the higher rate), so this is a
// ceiling; the epsilon guards against `k_star` being nudged just above an
// integer by floating-point rounding.
std::size_t crossover_position(const DualPoint& a, const DualPoint& b) {
  const double k_star = (b.y - a.y) / (a.x - b.x);
  const double eps = 1e-9 * std::max(1.0, std::fabs(k_star));
  const double c = std::ceil(k_star - eps);
  if (c < 1.0) return 1;
  return static_cast<std::size_t>(c);
}

}  // namespace

std::size_t EnvelopeResult::winner(std::size_t k) const {
  DVFS_REQUIRE(k >= 1, "positions are 1-based");
  DVFS_REQUIRE(!active.empty(), "envelope is empty");
  // Binary search over the active ranges, which partition [1, inf).
  auto it = std::partition_point(active.begin(), active.end(),
                                 [&](std::size_t idx) {
                                   const IntegerRange& r = range_of[idx];
                                   return r.hi != IntegerRange::kUnbounded &&
                                          r.hi < k;
                                 });
  DVFS_REQUIRE(it != active.end() && range_of[*it].contains(k),
               "active ranges must partition [1, inf)");
  return *it;
}

EnvelopeResult lower_envelope_integer(std::span<const Line> lines) {
  DVFS_REQUIRE(!lines.empty(), "need at least one line");
  for (std::size_t i = 1; i < lines.size(); ++i) {
    DVFS_REQUIRE(lines[i].slope < lines[i - 1].slope,
                 "slopes must be strictly decreasing");
    DVFS_REQUIRE(lines[i].intercept > lines[i - 1].intercept,
                 "intercepts must be strictly increasing");
  }

  // Graham-scan stack over dual points (Algorithm 1 lines 8-16).
  std::vector<DualPoint> hull;
  hull.reserve(lines.size());
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const DualPoint t{lines[i].slope, lines[i].intercept, i};
    while (hull.size() >= 2 &&
           cross(hull[hull.size() - 2], hull[hull.size() - 1], t) >= 0.0) {
      hull.pop_back();
    }
    hull.push_back(t);
  }

  // Convert consecutive hull vertices into integer position ranges
  // (Algorithm 1 lines 17-27). A hull line whose range collapses (its first
  // winning position coincides with its successor's) ends up dominated at
  // every *integer* point and is dropped from `active`.
  EnvelopeResult result;
  result.range_of.assign(lines.size(), IntegerRange{1, 0});
  result.active.reserve(hull.size());
  std::size_t lb = 1;
  for (std::size_t i = 0; i + 1 < hull.size(); ++i) {
    const std::size_t nlb = crossover_position(hull[i], hull[i + 1]);
    if (lb < nlb) {
      result.range_of[hull[i].id] = IntegerRange{lb, nlb - 1};
      result.active.push_back(hull[i].id);
      lb = nlb;
    }
    // lb >= nlb: hull[i] never wins an integer position; keep lb.
  }
  result.range_of[hull.back().id] = IntegerRange{lb, IntegerRange::kUnbounded};
  result.active.push_back(hull.back().id);
  return result;
}

std::size_t argmin_line_at(std::span<const Line> lines, std::size_t k) {
  DVFS_REQUIRE(!lines.empty(), "need at least one line");
  DVFS_REQUIRE(k >= 1, "positions are 1-based");
  std::size_t best = 0;
  double best_val = lines[0].at(static_cast<double>(k));
  for (std::size_t i = 1; i < lines.size(); ++i) {
    const double v = lines[i].at(static_cast<double>(k));
    if (v <= best_val) {  // ties toward the later (higher-rate) line
      best_val = v;
      best = i;
    }
  }
  return best;
}

}  // namespace dvfs::ds
