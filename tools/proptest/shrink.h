/// \file shrink.h
/// \brief Greedy counterexample minimization.
///
/// Given a failing instance and a predicate "does this instance still
/// fail?", the shrinker repeatedly applies structure-reducing
/// transformations — drop a task, halve a cycle count, drop a rate, drop
/// a core — keeping any transformation that preserves the failure, until
/// a full pass changes nothing. Every transformation strictly reduces a
/// well-founded measure (task count, total cycles, rate count, core
/// count), so termination is guaranteed; a budget additionally caps the
/// number of predicate evaluations because each evaluation may run an
/// exponential reference oracle.
#pragma once

#include <functional>
#include <vector>

#include "proptest/instance.h"

namespace dvfs::proptest {

struct ShrinkStats {
  std::size_t predicate_calls = 0;
  std::size_t accepted = 0;
};

/// Still-failing predicate: true when the instance reproduces the failure.
using FailPredicate = std::function<bool(const Instance&)>;

namespace shrink_detail {

/// Candidate transformations, cheapest-win first. Each returns true and
/// fills `out` if the transformation applies to `inst`.
inline std::vector<Instance> candidates(const Instance& inst) {
  std::vector<Instance> out;
  // 1. Drop one task (front-to-back: early tasks tried first).
  for (std::size_t i = 0; i < inst.tasks.size(); ++i) {
    Instance c = inst;
    c.tasks.erase(c.tasks.begin() + static_cast<long>(i));
    out.push_back(std::move(c));
  }
  // 2. Drop one rate index from every core (keep >= 1 rate per core).
  std::size_t max_rates = 0;
  for (const CoreModelSpec& c : inst.cores) {
    max_rates = std::max(max_rates, c.rates_ghz.size());
  }
  for (std::size_t r = 0; r < max_rates; ++r) {
    Instance c = inst;
    bool applied = false;
    for (CoreModelSpec& core : c.cores) {
      if (r < core.rates_ghz.size() && core.rates_ghz.size() > 1) {
        const auto off = static_cast<long>(r);
        core.rates_ghz.erase(core.rates_ghz.begin() + off);
        core.energy_per_cycle.erase(core.energy_per_cycle.begin() + off);
        core.time_per_cycle.erase(core.time_per_cycle.begin() + off);
        applied = true;
      }
    }
    if (applied) out.push_back(std::move(c));
  }
  // 3. Drop one core (keep >= 1).
  if (inst.cores.size() > 1) {
    for (std::size_t j = 0; j < inst.cores.size(); ++j) {
      Instance c = inst;
      c.cores.erase(c.cores.begin() + static_cast<long>(j));
      out.push_back(std::move(c));
    }
  }
  // 4. Halve one task's cycles (floor at 1), then try pinning it to 1.
  for (std::size_t i = 0; i < inst.tasks.size(); ++i) {
    if (inst.tasks[i].cycles > 1) {
      Instance c = inst;
      c.tasks[i].cycles = std::max<Cycles>(1, c.tasks[i].cycles / 2);
      out.push_back(std::move(c));
      Instance one = inst;
      one.tasks[i].cycles = 1;
      out.push_back(std::move(one));
    }
  }
  // 5. Normalize online structure: zero arrivals, drop deadlines, make
  //    tasks non-interactive (irrelevant for batch oracles, cheap to try).
  for (std::size_t i = 0; i < inst.tasks.size(); ++i) {
    const core::Task& t = inst.tasks[i];
    if (t.arrival != 0.0) {
      Instance c = inst;
      c.tasks[i].arrival = 0.0;
      out.push_back(std::move(c));
    }
    if (t.has_deadline()) {
      Instance c = inst;
      c.tasks[i].deadline = kNoDeadline;
      out.push_back(std::move(c));
    }
    if (t.klass == core::TaskClass::kInteractive) {
      Instance c = inst;
      c.tasks[i].klass = core::TaskClass::kNonInteractive;
      out.push_back(std::move(c));
    }
  }
  return out;
}

}  // namespace shrink_detail

/// Shrinks `inst` (which must satisfy `still_fails`) to a local minimum.
/// `max_predicate_calls` bounds total oracle work.
[[nodiscard]] inline Instance shrink_instance(
    Instance inst, const FailPredicate& still_fails,
    ShrinkStats* stats = nullptr, std::size_t max_predicate_calls = 4000) {
  ShrinkStats local;
  ShrinkStats& s = stats ? *stats : local;
  bool changed = true;
  while (changed && s.predicate_calls < max_predicate_calls) {
    changed = false;
    for (Instance& candidate : shrink_detail::candidates(inst)) {
      if (s.predicate_calls >= max_predicate_calls) break;
      ++s.predicate_calls;
      bool fails = false;
      try {
        fails = still_fails(candidate);
      } catch (const PreconditionError&) {
        // A transformation can make an instance invalid for its oracle
        // (e.g. empty rate interplay); treat as "does not reproduce".
        fails = false;
      }
      if (fails) {
        inst = std::move(candidate);
        ++s.accepted;
        changed = true;
        break;  // restart the pass from the smaller instance
      }
    }
  }
  return inst;
}

}  // namespace dvfs::proptest
