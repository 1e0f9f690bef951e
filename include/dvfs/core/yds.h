/// \file yds.h
/// \brief Yao-Demers-Shenker optimal speed scaling (the paper's Related
///        Work anchor, Yao et al. 1995), for common-arrival instances.
///
/// The paper's Section VI positions its deadline results against the
/// classic YDS algorithm: offline-optimal *continuous* speed scaling for
/// jobs with deadlines under convex power P(s) = c * s^alpha. Having YDS
/// here gives the deadline solvers a principled lower bound — any
/// discrete-rate schedule spends at least the YDS energy — so the
/// "discretization gap" of a real rate set becomes measurable
/// (`bench_yds`).
///
/// Implementation covers the batch case the rest of this library works
/// in (all jobs released at time 0): the critical interval is then always
/// a deadline-order prefix, found by peeling maximum-intensity prefixes:
///
///   repeat: g* = max over deadlines D of (work due by D) / (D - t0);
///           run that prefix EDF at speed g* on [t0, D*]; advance t0.
///
/// Speeds are non-increasing across peels (a classic YDS invariant the
/// tests check), every deadline is met exactly or with slack, and the
/// energy integral of c * s^alpha is minimal among all feasible speed
/// profiles.
#pragma once

#include <span>
#include <vector>

#include "dvfs/core/energy_model.h"
#include "dvfs/core/task.h"

namespace dvfs::core {

/// One job's allotted execution window at a constant speed.
struct YdsSegment {
  TaskId id = 0;
  Seconds start = 0.0;
  Seconds end = 0.0;
  double speed = 0.0;  ///< cycles per second

  [[nodiscard]] double work() const {
    return speed * (end - start);  // cycles executed in this segment
  }
};

struct YdsSchedule {
  /// Execution order (EDF within each critical interval).
  std::vector<YdsSegment> segments;

  [[nodiscard]] Seconds makespan() const {
    return segments.empty() ? 0.0 : segments.back().end;
  }

  /// Energy under power c * s^alpha (watts at speed s): each segment
  /// contributes c * s^alpha * duration. alpha > 1 required (convexity is
  /// what makes YDS optimal).
  [[nodiscard]] Joules energy(double c, double alpha) const;

  /// True if every task's work completes by its deadline.
  [[nodiscard]] bool feasible(std::span<const Task> tasks) const;
};

/// Computes the YDS schedule for batch tasks (arrival 0, finite
/// deadlines; both checked). O(n^2) peeling — n is small in deadline
/// workloads, and clarity beats the O(n log n) refinement here.
[[nodiscard]] YdsSchedule yds_schedule(std::span<const Task> tasks);

/// Rounds a continuous YDS schedule onto a discrete rate set: each
/// segment's speed is emulated by splitting its window between the two
/// adjacent discrete speeds (1/T(p)) whose time-average equals it — the
/// classic construction, optimal among *preemptive* discrete-rate
/// schedules under convex power. Speeds below the slowest rate clamp to
/// it (the segment finishes early and the core idles); speeds above the
/// fastest rate make the instance infeasible for this platform
/// (PreconditionError).
[[nodiscard]] YdsSchedule round_to_discrete(const YdsSchedule& continuous,
                                            const EnergyModel& model);

/// Energy of a discrete-speed schedule priced by the model's E(p): every
/// segment speed must equal some 1/T(p_i) (checked). Counterpart of
/// YdsSchedule::energy for rounded schedules.
[[nodiscard]] Joules discrete_energy(const YdsSchedule& schedule,
                                     const EnergyModel& model);

}  // namespace dvfs::core
