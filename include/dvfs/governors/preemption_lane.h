/// \file preemption_lane.h
/// \brief Section IV's execution rule for interactive work, shared by every
///        online policy.
///
/// An interactive task runs at once on its core, preempting a running
/// non-interactive task; one that finds interactive work running waits
/// FIFO behind it (equal priority never preempts). The preempted remainder
/// resumes once the interactive tasks have drained, before anything in the
/// policy's own queue. So a core never holds two remainders: the lane
/// keeps one slot, not a stack, and throws if asked to preempt into a full
/// one.
///
/// The lane owns the order, not the rates: each policy passes its own
/// (LMC and WBG: interactive at the top rate, the remainder at its queue
/// position's rate; the FIFO baselines: the governor's rate for both) and
/// falls through to its own queue when start_next() finds the lane empty.
#pragma once

#include <cstddef>
#include <deque>
#include <optional>
#include <vector>

#include "dvfs/common.h"
#include "dvfs/core/task.h"
#include "dvfs/sim/engine.h"

namespace dvfs::governors {

class PreemptionLane {
 public:
  /// Empties the lane and sizes it for `cores` cores.
  void reset(std::size_t cores) { per_core_.assign(cores, Core{}); }

  /// Admits interactive task `id` to `core`. It starts at `rate` when the
  /// core is idle or runs non-interactive work (which moves to the slot);
  /// otherwise it waits FIFO. Returns whether it started.
  bool admit(sim::Engine& engine, std::size_t core, core::TaskId id,
             double cycles, std::size_t rate) {
    Core& c = per_core_[core];
    if (engine.busy(core)) {
      if (engine.running_record(core).klass == core::TaskClass::kInteractive) {
        c.pending.push_back(Entry{id, cycles});
        return false;
      }
      DVFS_REQUIRE(!c.slot.has_value(),
                   "preempting a core whose remainder slot is full");
      c.slot = engine.preempt(core);
    }
    engine.start(core, id, cycles, rate);
    return true;
  }

  /// On an idle `core`, starts the next waiting interactive task at
  /// `interactive_rate`, else the preempted remainder at `resume_rate()`.
  /// Returns false, starting nothing, when the lane is empty there. The
  /// remainder's rate is asked for only when it starts: a positional rate
  /// is a table lookup that most completions do not need.
  template <class ResumeRate>
  bool start_next(sim::Engine& engine, std::size_t core,
                  std::size_t interactive_rate, ResumeRate resume_rate) {
    Core& c = per_core_[core];
    if (!c.pending.empty()) {
      const Entry next = c.pending.front();
      c.pending.pop_front();
      engine.start(core, next.task, next.remaining_cycles, interactive_rate);
      return true;
    }
    if (c.slot.has_value()) {
      const Entry next = *c.slot;
      c.slot.reset();
      engine.start(core, next.task, next.remaining_cycles, resume_rate());
      return true;
    }
    return false;
  }

  /// Moves the non-interactive task running on `core`, if any, to `rate`;
  /// interactive work keeps the rate it started at.
  static void rerate(sim::Engine& engine, std::size_t core, std::size_t rate) {
    if (engine.busy(core) &&
        engine.running_record(core).klass != core::TaskClass::kInteractive) {
      engine.set_rate(core, rate);
    }
  }

  /// Tasks waiting in the lane on `core`: interactive ones plus the slot.
  [[nodiscard]] std::size_t waiting(std::size_t core) const {
    const Core& c = per_core_[core];
    return c.pending.size() + (c.slot.has_value() ? 1 : 0);
  }

  /// True when no core has anything waiting in the lane.
  [[nodiscard]] bool idle() const {
    for (const Core& c : per_core_) {
      if (!c.pending.empty() || c.slot.has_value()) return false;
    }
    return true;
  }

 private:
  using Entry = sim::Engine::Preempted;  // a task and its remaining cycles
  struct Core {
    std::deque<Entry> pending;  // interactive, FIFO
    std::optional<Entry> slot;  // the preempted remainder
  };
  std::vector<Core> per_core_;
};

}  // namespace dvfs::governors
