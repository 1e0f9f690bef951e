/// \file dvfs.h
/// \brief Umbrella header for the percore-dvfs-sched library.
///
/// Pulls in the full public API:
///  - dvfs::core       task/energy/cost models and the paper's schedulers
///  - dvfs::ds         data structures (flat range tree, lower envelope)
///  - dvfs::sim        event-driven multi-core DVFS simulator
///  - dvfs::governors  scheduling policies (LMC, OLB, On-demand, plans)
///  - dvfs::cpufreq    sysfs-style per-core frequency control
///  - dvfs::workload   Table I data, trace generation and estimation
#pragma once

#include "dvfs/common.h"
#include "dvfs/core/batch_multi.h"
#include "dvfs/core/batch_single.h"
#include "dvfs/core/batch_switch_cost.h"
#include "dvfs/core/cost_model.h"
#include "dvfs/core/deadline.h"
#include "dvfs/core/dynamic_sched.h"
#include "dvfs/core/energy_model.h"
#include "dvfs/core/online_lmc.h"
#include "dvfs/core/plan_io.h"
#include "dvfs/core/rate_set.h"
#include "dvfs/core/schedule.h"
#include "dvfs/core/task.h"
#include "dvfs/core/yds.h"
#include "dvfs/cpufreq/cpufreq.h"
#include "dvfs/ds/flat_range_tree.h"
#include "dvfs/ds/lower_envelope.h"
#include "dvfs/governors/fifo_policy.h"
#include "dvfs/governors/lmc_policy.h"
#include "dvfs/governors/planned_policy.h"
#include "dvfs/governors/preemption_lane.h"
#include "dvfs/governors/wbg_rebalance_policy.h"
#include "dvfs/parallel/seed_sweep.h"
#include "dvfs/parallel/thread_pool.h"
#include "dvfs/rt/executor.h"
#include "dvfs/util/args.h"
#include "dvfs/sim/contention.h"
#include "dvfs/sim/engine.h"
#include "dvfs/sim/metrics.h"
#include "dvfs/sim/power_meter.h"
#include "dvfs/workload/estimator.h"
#include "dvfs/workload/generators.h"
#include "dvfs/workload/spec2006int.h"
#include "dvfs/workload/stats.h"
#include "dvfs/workload/trace.h"
