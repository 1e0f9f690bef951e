/// \file task.h
/// \brief The paper's task model (Section II-A).
///
/// A task j_k is the tuple (L_k, A_k, D_k): required CPU cycles, arrival
/// time, and deadline. Batch-mode tasks all arrive at time 0 and are
/// non-preemptive; online-mode tasks are classified as interactive (early,
/// firm deadline; may preempt lower-priority work) or non-interactive.
#pragma once

#include <cmath>
#include <cstdint>
#include <string>

#include "dvfs/common.h"

namespace dvfs::core {

using TaskId = std::uint64_t;

/// Execution class of a task (Sections II-A and IV).
enum class TaskClass : std::uint8_t {
  kBatch,           ///< Batch mode: arrival 0, non-preemptive, arbitrary order.
  kInteractive,     ///< Online mode: firm deadline, preempts non-interactive.
  kNonInteractive,  ///< Online mode: no strict deadline, queued and sorted.
};

[[nodiscard]] constexpr const char* to_string(TaskClass c) {
  switch (c) {
    case TaskClass::kBatch: return "batch";
    case TaskClass::kInteractive: return "interactive";
    case TaskClass::kNonInteractive: return "non-interactive";
  }
  return "?";
}

/// Interactive tasks outrank non-interactive ones (Section II-A assumption
/// (3)); batch tasks never coexist with online tasks so their priority is
/// immaterial but defined for completeness.
[[nodiscard]] constexpr int priority_of(TaskClass c) {
  switch (c) {
    case TaskClass::kInteractive: return 1;
    case TaskClass::kBatch:
    case TaskClass::kNonInteractive: return 0;
  }
  return 0;
}

struct Task {
  TaskId id = 0;
  Cycles cycles = 0;                ///< L_k: CPU cycles to completion.
  Seconds arrival = 0.0;            ///< A_k.
  Seconds deadline = kNoDeadline;   ///< D_k; kNoDeadline if unconstrained.
  TaskClass klass = TaskClass::kBatch;

  [[nodiscard]] bool has_deadline() const { return deadline != kNoDeadline; }
  [[nodiscard]] int priority() const { return priority_of(klass); }

  friend bool operator==(const Task&, const Task&) = default;
};

/// Validates the Section II-A constraints: positive workload, a finite
/// A_k >= 0, and a finite D_k > A_k whenever a deadline is present.
[[nodiscard]] inline bool is_valid(const Task& t) {
  if (t.cycles == 0) return false;
  if (!std::isfinite(t.arrival) || t.arrival < 0.0) return false;
  if (t.has_deadline() &&
      (!std::isfinite(t.deadline) || t.deadline <= t.arrival)) {
    return false;
  }
  return true;
}

[[nodiscard]] inline std::string describe(const Task& t) {
  std::string s = "task#" + std::to_string(t.id) + " L=" +
                  std::to_string(t.cycles) + " A=" + std::to_string(t.arrival);
  if (t.has_deadline()) s += " D=" + std::to_string(t.deadline);
  s += " [";
  s += to_string(t.klass);
  s += "]";
  return s;
}

}  // namespace dvfs::core
