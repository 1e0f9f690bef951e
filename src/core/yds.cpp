#include "dvfs/core/yds.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace dvfs::core {

Joules YdsSchedule::energy(double c, double alpha) const {
  DVFS_REQUIRE(c > 0.0, "power coefficient must be positive");
  DVFS_REQUIRE(alpha > 1.0, "YDS optimality needs convex power (alpha > 1)");
  Joules joules = 0.0;
  for (const YdsSegment& seg : segments) {
    joules += c * std::pow(seg.speed, alpha) * (seg.end - seg.start);
  }
  return joules;
}

bool YdsSchedule::feasible(std::span<const Task> tasks) const {
  for (const Task& t : tasks) {
    double done = 0.0;
    Seconds finish = 0.0;
    for (const YdsSegment& seg : segments) {
      if (seg.id == t.id) {
        done += seg.work();
        finish = std::max(finish, seg.end);
      }
    }
    if (done + 1e-6 < static_cast<double>(t.cycles)) return false;
    if (finish > t.deadline * (1 + 1e-9)) return false;
  }
  return true;
}

YdsSchedule yds_schedule(std::span<const Task> tasks) {
  for (const Task& t : tasks) {
    DVFS_REQUIRE(is_valid(t), "invalid task");
    DVFS_REQUIRE(t.arrival == 0.0, "yds_schedule covers common arrivals");
    DVFS_REQUIRE(t.has_deadline(), "YDS needs finite deadlines");
  }

  // Deadline order (EDF), id tie-break for determinism.
  std::vector<std::size_t> order(tasks.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (tasks[a].deadline != tasks[b].deadline)
      return tasks[a].deadline < tasks[b].deadline;
    return tasks[a].id < tasks[b].id;
  });

  YdsSchedule schedule;
  Seconds t0 = 0.0;
  std::size_t begin = 0;  // first unscheduled job in deadline order
  while (begin < order.size()) {
    // Maximum-intensity prefix of the remaining jobs (common arrival =>
    // the critical set is a deadline prefix). Ties extend to the longer
    // prefix: jobs at equal intensity merge into one critical interval.
    double cum_work = 0.0;
    double best_intensity = -1.0;
    std::size_t best_end = begin;
    for (std::size_t i = begin; i < order.size(); ++i) {
      cum_work += static_cast<double>(tasks[order[i]].cycles);
      const Seconds window = tasks[order[i]].deadline - t0;
      DVFS_REQUIRE(window > 0.0,
                   "instance infeasible for any finite speed: deadline at or "
                   "before the accumulated critical intervals");
      const double intensity = cum_work / window;
      if (intensity >= best_intensity) {
        best_intensity = intensity;
        best_end = i;
      }
    }
    // Run jobs [begin, best_end] EDF at the critical speed.
    for (std::size_t i = begin; i <= best_end; ++i) {
      const Task& t = tasks[order[i]];
      const Seconds duration =
          static_cast<double>(t.cycles) / best_intensity;
      schedule.segments.push_back(
          YdsSegment{t.id, t0, t0 + duration, best_intensity});
      t0 += duration;
    }
    begin = best_end + 1;
  }
  return schedule;
}

YdsSchedule round_to_discrete(const YdsSchedule& continuous,
                              const EnergyModel& model) {
  // Discrete speeds in cycles/second, ascending with rate index.
  std::vector<double> speeds;
  speeds.reserve(model.num_rates());
  for (std::size_t i = 0; i < model.num_rates(); ++i) {
    speeds.push_back(1.0 / model.time_per_cycle(i));
  }

  YdsSchedule out;
  for (const YdsSegment& seg : continuous.segments) {
    DVFS_REQUIRE(seg.speed <= speeds.back() * (1 + 1e-9),
                 "instance needs a speed above the platform's fastest rate");
    if (seg.speed <= speeds.front()) {
      // Clamp: run at the slowest rate, finish early, idle the rest.
      const Seconds duration = seg.work() / speeds.front();
      out.segments.push_back(
          YdsSegment{seg.id, seg.start, seg.start + duration, speeds.front()});
      continue;
    }
    // Exact match (within rounding) uses the single rate.
    const auto hi_it =
        std::lower_bound(speeds.begin(), speeds.end(), seg.speed * (1 - 1e-12));
    const std::size_t hi = static_cast<std::size_t>(hi_it - speeds.begin());
    if (almost_equal(speeds[hi], seg.speed)) {
      out.segments.push_back(
          YdsSegment{seg.id, seg.start, seg.end, speeds[hi]});
      continue;
    }
    // Split the window between the bracketing speeds so the average speed
    // equals the continuous one: fast part first (never jeopardizes the
    // deadline; the work still completes exactly at seg.end).
    const double s_lo = speeds[hi - 1];
    const double s_hi = speeds[hi];
    const double frac_hi = (seg.speed - s_lo) / (s_hi - s_lo);
    const Seconds t_hi = frac_hi * (seg.end - seg.start);
    out.segments.push_back(
        YdsSegment{seg.id, seg.start, seg.start + t_hi, s_hi});
    out.segments.push_back(
        YdsSegment{seg.id, seg.start + t_hi, seg.end, s_lo});
  }
  return out;
}

Joules discrete_energy(const YdsSchedule& schedule,
                       const EnergyModel& model) {
  Joules joules = 0.0;
  for (const YdsSegment& seg : schedule.segments) {
    std::size_t rate = model.num_rates();
    for (std::size_t i = 0; i < model.num_rates(); ++i) {
      if (almost_equal(1.0 / model.time_per_cycle(i), seg.speed)) {
        rate = i;
        break;
      }
    }
    DVFS_REQUIRE(rate < model.num_rates(),
                 "segment speed is not a platform rate; round first");
    joules += model.energy_per_cycle(rate) * seg.work();
  }
  return joules;
}

}  // namespace dvfs::core
