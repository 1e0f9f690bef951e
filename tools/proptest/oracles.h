/// \file oracles.h
/// \brief The differential oracle pairs.
///
/// Each oracle cross-checks a production algorithm against an independent
/// reference on one Instance and returns nullopt (pass) or a human-readable
/// mismatch description (fail). The hierarchy, strongest first:
///
///   1. exact exponential references (`brute_force_single`,
///      `brute_force_assignment`) — ground truth on tiny instances;
///   2. semi-exact references that fix one theorem and search the rest
///      (`brute_force_rates_sorted` fixes the Theorem 3 order);
///   3. independent reimplementations of the same quantity
///      (naive per-position argmin vs the envelope; full-replan cost vs
///      the incremental Eq. 32 accounting; power-meter integration vs the
///      engine's energy bookkeeping).
///
/// All comparisons are on *costs*, not on plan identity: distinct plans
/// with equal cost are both optimal (ties are common by construction),
/// and cost comparison is robust to benign tie-break divergence.
#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "dvfs/core/batch_multi.h"
#include "dvfs/core/batch_single.h"
#include "dvfs/core/dynamic_sched.h"
#include "dvfs/core/online_lmc.h"
#include "dvfs/governors/lmc_policy.h"
#include "proptest/instance.h"
#include "proptest/rng.h"
#include "dvfs/sim/engine.h"
#include "dvfs/sim/power_meter.h"
#include "dvfs/workload/trace.h"

namespace dvfs::proptest {

/// Verdict of one oracle evaluation: nullopt = pass.
using Verdict = std::optional<std::string>;

/// Injection point: the single-core scheduler under test. The fuzz tool's
/// --inject mode swaps in a deliberately broken scratch copy to
/// demonstrate detection + shrinking end to end.
using SingleCoreSubject = std::function<core::CorePlan(
    std::span<const core::Task>, const core::CostTable&)>;

struct OracleHooks {
  SingleCoreSubject single_core;  ///< empty => core::longest_task_last
};

namespace oracle_detail {

inline bool close(double a, double b, double rel, double abs_floor) {
  return almost_equal(a, b, rel, abs_floor);
}

inline Verdict fail(std::ostringstream& os) { return os.str(); }

inline Verdict check_single_core_pair(const Instance& inst,
                                      const OracleHooks& hooks,
                                      bool sorted_reference) {
  const std::vector<core::CostTable> tables = inst.tables();
  const core::CostTable& table = tables.front();
  const SingleCoreSubject subject =
      hooks.single_core
          ? hooks.single_core
          : [](std::span<const core::Task> ts, const core::CostTable& t) {
              return core::longest_task_last(ts, t);
            };
  const core::CorePlan plan = subject(inst.tasks, table);
  core::Plan wrapped;
  wrapped.cores.push_back(plan);
  if (!core::plan_is_permutation_of(wrapped, inst.tasks, tables)) {
    std::ostringstream os;
    os << "subject plan is not a valid permutation of the input tasks";
    return fail(os);
  }
  const Money got = core::evaluate_single(plan, table).total();
  const core::CorePlan ref_plan =
      sorted_reference ? core::brute_force_rates_sorted(inst.tasks, table)
                       : core::brute_force_single(inst.tasks, table);
  const Money ref = core::evaluate_single(ref_plan, table).total();
  if (!close(got, ref, 1e-9, 1e-18)) {
    std::ostringstream os;
    os << (sorted_reference ? "longest_task_last vs brute_force_rates_sorted"
                            : "longest_task_last vs brute_force_single")
       << ": subject cost " << got << " != reference cost " << ref
       << (got > ref ? " (subject is suboptimal)"
                     : " (subject beat the exhaustive reference: evaluator "
                       "or reference bug)");
    return fail(os);
  }
  return std::nullopt;
}

inline Verdict check_wbg_vs_bf(const Instance& inst) {
  const std::vector<core::CostTable> tables = inst.tables();
  const core::Plan plan = core::workload_based_greedy(inst.tasks, tables);
  if (!core::plan_is_permutation_of(plan, inst.tasks, tables)) {
    std::ostringstream os;
    os << "WBG plan is not a valid permutation of the input tasks";
    return fail(os);
  }
  const Money got = core::evaluate_plan(plan, tables).total();
  const Money ref =
      core::evaluate_plan(core::brute_force_assignment(inst.tasks, tables),
                          tables)
          .total();
  if (!close(got, ref, 1e-9, 1e-18)) {
    std::ostringstream os;
    os << "workload_based_greedy vs brute_force_assignment: " << got
       << " != " << ref
       << (got > ref ? " (greedy is suboptimal)" : " (reference bug)");
    return fail(os);
  }
  return std::nullopt;
}

inline Verdict check_wbg_vs_rr(const Instance& inst) {
  const std::vector<core::CostTable> tables = inst.tables();
  const core::Plan wbg = core::workload_based_greedy(inst.tasks, tables);
  const core::Plan rr = core::round_robin_homogeneous(
      inst.tasks, tables.front(), tables.size());
  const Money cw = core::evaluate_plan(wbg, tables).total();
  const Money cr = core::evaluate_plan(rr, tables).total();
  // Theorems 4 and 5 both claim optimality on homogeneous platforms, so
  // the two plans must cost the same even when they differ structurally.
  if (!close(cw, cr, 1e-9, 1e-18)) {
    std::ostringstream os;
    os << "workload_based_greedy vs round_robin_homogeneous (homogeneous "
          "platform): "
       << cw << " != " << cr;
    return fail(os);
  }
  return std::nullopt;
}

inline Verdict check_envelope(const Instance& inst) {
  const core::CostTable table(inst.cores.front().model(), inst.params);
  // Structural invariants: the ranges partition [1, inf).
  const auto ranges = table.ranges();
  if (ranges.empty() || ranges.front().range.lo != 1 ||
      !ranges.back().range.unbounded()) {
    return "dominating ranges do not start at 1 / end unbounded";
  }
  for (std::size_t i = 1; i < ranges.size(); ++i) {
    if (ranges[i].range.lo != ranges[i - 1].range.hi + 1) {
      std::ostringstream os;
      os << "dominating ranges not contiguous at index " << i;
      return fail(os);
    }
  }
  // Differential: envelope winner vs naive argmin, compared on cost.
  std::vector<std::size_t> positions;
  for (std::size_t k = 1; k <= 64; ++k) positions.push_back(k);
  for (const core::DominatingRange& r : ranges) {
    if (r.range.lo > 1) positions.push_back(r.range.lo - 1);
    positions.push_back(r.range.lo);
    if (!r.range.unbounded()) {
      positions.push_back(r.range.hi);
      positions.push_back(r.range.hi + 1);
    }
  }
  for (const std::size_t k : {std::size_t{1000}, std::size_t{100000},
                              std::size_t{10000000}}) {
    positions.push_back(k);
  }
  for (const std::size_t k : positions) {
    const std::size_t fast = table.best_rate(k);
    const std::size_t naive = table.best_rate_naive(k);
    const double cf = table.backward_cost(k, fast);
    const double cn = table.backward_cost(k, naive);
    if (!close(cf, cn, 1e-9, 1e-18)) {
      std::ostringstream os;
      os << "lower_envelope vs naive argmin at k=" << k << ": rate " << fast
         << " costs " << cf << ", naive rate " << naive << " costs " << cn;
      return fail(os);
    }
  }
  return std::nullopt;
}

inline Verdict check_lmc_incremental(const Instance& inst) {
  const core::CostTable table(inst.cores.front().model(), inst.params);
  core::DynamicSingleCoreScheduler sched(table);
  auto replanned = [&]() {
    return core::evaluate_single(sched.plan(), table).total();
  };
  auto mismatch = [&](const char* what, std::size_t step, Money a, Money b) {
    std::ostringstream os;
    os << "lmc incremental accounting: " << what << " after op " << step
       << ": " << a << " != " << b;
    return Verdict(os.str());
  };
  // Arrival phase: every insert's peek/probe marginal must match the
  // realized cost delta, and the running Eq. 32 cost must match a full
  // evaluate_single replan of the materialized queue.
  for (std::size_t i = 0; i < inst.tasks.size(); ++i) {
    const Cycles c = inst.tasks[i].cycles;
    const Money peek = sched.peek_marginal_insert_cost(c);
    const Money probe = sched.marginal_insert_cost(c);
    const Money before = sched.total_cost();
    (void)sched.insert(c, inst.tasks[i].id);
    const Money after = sched.total_cost();
    const double scale = std::max(1e-12, std::abs(after));
    if (!almost_equal(peek, probe, 1e-6, 1e-9 * scale)) {
      return mismatch("peek vs probe marginal", i, peek, probe);
    }
    if (!almost_equal(probe, after - before, 1e-6, 1e-9 * scale)) {
      return mismatch("probe marginal vs realized delta", i, probe,
                      after - before);
    }
    const Money replan = replanned();
    if (!almost_equal(after, replan, 1e-9, 1e-12 * scale)) {
      return mismatch("incremental cost vs full replan", i, after, replan);
    }
    if (!sched.validate()) {
      std::ostringstream os;
      os << "dynamic scheduler invariants broken after insert " << i;
      return fail(os);
    }
  }
  // Drain phase: popping the front must keep the incremental cost in
  // lockstep with the replan.
  std::size_t step = inst.tasks.size();
  while (!sched.empty()) {
    sched.erase(sched.front());
    const Money after = sched.total_cost();
    const Money replan = replanned();
    const double scale = std::max(1e-12, std::abs(after));
    if (!almost_equal(after, replan, 1e-9, 1e-12 * scale)) {
      return mismatch("incremental cost vs full replan (drain)", step, after,
                      replan);
    }
    if (!sched.validate()) {
      std::ostringstream os;
      os << "dynamic scheduler invariants broken at drain step " << step;
      return fail(os);
    }
    ++step;
  }
  return std::nullopt;
}

inline Verdict check_sim_energy(const Instance& inst) {
  std::vector<core::EnergyModel> models;
  std::vector<core::CostTable> tables;
  for (const CoreModelSpec& c : inst.cores) {
    models.push_back(c.model());
    tables.emplace_back(c.model(), inst.params);
  }
  sim::Engine engine(models, sim::ContentionModel::none());
  governors::LmcPolicy policy(tables);
  sim::PowerTracingPolicy meter(policy, /*idle_watts_per_core=*/0.0);
  const workload::Trace trace(std::vector<core::Task>(inst.tasks));
  const sim::SimResult r = engine.run(trace, meter);
  if (r.completed_count() != inst.tasks.size()) {
    std::ostringstream os;
    os << "simulation left " << (inst.tasks.size() - r.completed_count())
       << " tasks incomplete";
    return fail(os);
  }
  // Independent meter integration (step-function power trace) vs the
  // engine's exact segment-by-segment energy accounting.
  const Joules metered = meter.integrate(r.end_time);
  const double scale = std::max(1e-9, r.busy_energy);
  if (!almost_equal(metered, r.busy_energy, 1e-6, 1e-9 * scale)) {
    std::ostringstream os;
    os << "power meter integral " << metered << " != engine busy_energy "
       << r.busy_energy;
    return fail(os);
  }
  // Per-task attribution must sum back to the platform total.
  Joules per_task = 0.0;
  for (const sim::TaskRecord& t : r.tasks) per_task += t.energy;
  if (!almost_equal(per_task, r.busy_energy, 1e-6, 1e-9 * scale)) {
    std::ostringstream os;
    os << "sum of per-task energy " << per_task << " != engine busy_energy "
       << r.busy_energy;
    return fail(os);
  }
  return std::nullopt;
}

/// Distance between two doubles in units in the last place, via the
/// monotone lexicographic reinterpretation of the IEEE-754 bit pattern.
inline std::uint64_t ulp_distance(double a, double b) {
  auto ordered = [](double x) {
    const std::int64_t i = std::bit_cast<std::int64_t>(x);
    return i >= 0 ? i : std::numeric_limits<std::int64_t>::min() - i;
  };
  const std::int64_t la = ordered(a);
  const std::int64_t lb = ordered(b);
  return la >= lb ? static_cast<std::uint64_t>(la - lb)
                  : static_cast<std::uint64_t>(lb - la);
}

inline Verdict check_lmc_soa(const Instance& inst) {
  // Two schedulers fed the identical arrival sequence stay in lockstep;
  // the subject's structure-of-arrays scans are compared against scalar
  // per-core evaluation on the mirror. Decisions must match EXACTLY (the
  // SoA rewrite may not change a single placement); candidate costs must
  // match to a couple of ULPs (the scan is specified to keep the scalar
  // association, so anything beyond rounding noise is a real divergence).
  core::LmcScheduler subject(inst.tables());
  core::LmcScheduler mirror(inst.tables());
  SplitMix64 g(derive_seed(inst.seed, 0xE27));
  const std::size_t n = subject.num_cores();
  std::vector<std::size_t> extra_waiting(n);
  std::vector<Money> extra_cost(n);
  std::vector<Money> scan;
  std::vector<Money> probed;

  for (std::size_t step = 0; step < inst.tasks.size(); ++step) {
    const core::Task& task = inst.tasks[step];
    auto mismatch = [&](const char* what, std::size_t core, Money got,
                        Money want) {
      std::ostringstream os;
      os.precision(17);
      os << "lmc soa scan: " << what << " at arrival " << step << " core "
         << core << ": " << got << " != " << want;
      return Verdict(os.str());
    };
    if (task.klass == core::TaskClass::kInteractive) {
      // Executor-visible waiting work the queues don't know about.
      for (std::size_t j = 0; j < n; ++j) {
        extra_waiting[j] = g.uniform_u64(0, 5);
      }
      const std::size_t fast =
          subject.interactive_scan(task.cycles, extra_waiting, scan);
      std::size_t slow = 0;
      for (std::size_t j = 0; j < n; ++j) {
        const Money c = mirror.interactive_marginal_cost(
            j, task.cycles, mirror.queue(j).size() + extra_waiting[j]);
        if (ulp_distance(scan[j], c) > 2) {
          return mismatch("Eq. 27 cost (scan vs scalar)", j, scan[j], c);
        }
        if (c < mirror.interactive_marginal_cost(
                    slow, task.cycles,
                    mirror.queue(slow).size() + extra_waiting[slow])) {
          slow = j;
        }
      }
      if (fast != slow) {
        std::ostringstream os;
        os << "lmc soa scan: interactive core choice at arrival " << step
           << ": scan chose " << fast << ", scalar argmin chose " << slow;
        return fail(os);
      }
      // Interactive tasks never enter the queues: no state change.
    } else {
      for (std::size_t j = 0; j < n; ++j) {
        extra_cost[j] = g.chance(0.5) ? g.uniform_real(0.0, 1.0) : 0.0;
      }
      // Scalar reference: probe every mirror queue before any mutation.
      std::vector<Money> ref(n);
      std::size_t slow = 0;
      for (std::size_t j = 0; j < n; ++j) {
        ref[j] = mirror.queue(j).peek_marginal_insert_cost(task.cycles) +
                 extra_cost[j];
        if (ref[j] < ref[slow]) slow = j;
      }
      const core::LmcScheduler::Placement placement =
          subject.place_non_interactive(task.cycles, task.id, extra_cost,
                                        &probed);
      if (placement.core != slow) {
        std::ostringstream os;
        os << "lmc soa scan: non-interactive placement at arrival " << step
           << ": scan chose core " << placement.core
           << ", scalar argmin chose " << slow;
        return fail(os);
      }
      if (probed.size() != n) {
        std::ostringstream os;
        os << "lmc soa scan: probed vector has " << probed.size()
           << " entries, expected " << n;
        return fail(os);
      }
      for (std::size_t j = 0; j < n; ++j) {
        if (ulp_distance(probed[j], ref[j]) > 2) {
          return mismatch("probed marginal (scan vs scalar)", j, probed[j],
                          ref[j]);
        }
      }
      if (ulp_distance(placement.marginal, ref[slow]) > 2) {
        return mismatch("chosen marginal", slow, placement.marginal,
                        ref[slow]);
      }
      // Replay the placement on the mirror to stay in lockstep.
      (void)mirror.queue(placement.core).insert(task.cycles, task.id);
    }
  }
  // Identical insert sequences must leave bit-identical queue state.
  const Money cs = subject.total_queue_cost();
  const Money cm = mirror.total_queue_cost();
  if (ulp_distance(cs, cm) > 2) {
    std::ostringstream os;
    os.precision(17);
    os << "lmc soa scan: final queue cost diverged: " << cs << " != " << cm;
    return fail(os);
  }
  return std::nullopt;
}

}  // namespace oracle_detail

/// Runs the oracle named by `inst.oracle`. Throws PreconditionError for
/// unknown names or instances invalid for their oracle.
[[nodiscard]] inline Verdict check_instance(const Instance& inst,
                                            const OracleHooks& hooks = {}) {
  using namespace oracle_detail;
  DVFS_REQUIRE(!inst.cores.empty(), "instance needs at least one core");
  if (inst.oracle == "ltl_vs_bf") {
    return check_single_core_pair(inst, hooks, /*sorted_reference=*/false);
  }
  if (inst.oracle == "ltl_vs_sorted") {
    return check_single_core_pair(inst, hooks, /*sorted_reference=*/true);
  }
  if (inst.oracle == "wbg_vs_bf") return check_wbg_vs_bf(inst);
  if (inst.oracle == "wbg_vs_rr") return check_wbg_vs_rr(inst);
  if (inst.oracle == "envelope") return check_envelope(inst);
  if (inst.oracle == "lmc_incremental") return check_lmc_incremental(inst);
  if (inst.oracle == "lmc_soa") return check_lmc_soa(inst);
  if (inst.oracle == "sim_energy") return check_sim_energy(inst);
  DVFS_REQUIRE(false, "unknown oracle `" + inst.oracle + "`");
  return std::nullopt;  // unreachable
}

}  // namespace dvfs::proptest
