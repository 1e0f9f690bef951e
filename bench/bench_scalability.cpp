/// Ablation A5: scalability of the schedulers in cores and tasks, and the
/// Theorem 4 <-> Theorem 5 equivalence (round-robin equals WBG on
/// homogeneous cores).
///
/// Reports WBG planning wall time (the O(n log n + n log R) part the paper
/// cares about), per-task planning cost at increasing scales, confirms
/// the homogeneous RR plan cost matches WBG's to float precision, and
/// times online LMC through the event-driven simulator on judgegirl
/// traces (the simulator's event loop at 10k and 100k tasks).
#include <chrono>
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "dvfs/core/batch_multi.h"
#include "dvfs/governors/lmc_policy.h"
#include "dvfs/sim/engine.h"
#include "dvfs/workload/generators.h"

namespace {

using namespace dvfs;
using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchReporter reporter("bench_scalability", argc, argv);
  const core::EnergyModel model = core::EnergyModel::icpp2014_table2();
  const core::CostParams cp{0.1, 0.4};

  bench::print_header("A5a: WBG planning time vs tasks and cores");
  std::printf("%10s %8s %14s %14s %16s\n", "tasks", "cores", "plan (ms)",
              "us/task", "total cost");
  bench::print_rule(68);
  for (const std::size_t cores : {2u, 4u, 16u, 64u}) {
    const std::vector<core::CostTable> tables(cores,
                                              core::CostTable(model, cp));
    for (const std::size_t n : {100u, 1000u, 10000u, 100000u}) {
      workload::BatchConfig cfg;
      cfg.num_tasks = n;
      const auto tasks = workload::generate_batch(cfg, 77);
      const auto t0 = Clock::now();
      const core::Plan plan = core::workload_based_greedy(tasks, tables);
      const double ms = ms_since(t0);
      const core::PlanCost cost = core::evaluate_plan(plan, tables);
      std::printf("%10zu %8zu %14.2f %14.3f %16.1f\n", n, cores, ms,
                  ms * 1000.0 / static_cast<double>(n), cost.total());
      bench::BenchRow row("wbg_plan");
      row.param("cores", static_cast<std::uint64_t>(cores))
          .param("tasks", static_cast<std::uint64_t>(n))
          .set_wall_ns(ms * 1e6)
          .set_cost(cost.total());
      reporter.add(std::move(row));
    }
  }

  bench::print_header(
      "A5b: Theorem 4 vs Theorem 5 - RR equals WBG on homogeneous cores");
  std::printf("%10s %8s %16s %16s %10s\n", "tasks", "cores", "RR cost",
              "WBG cost", "equal?");
  bench::print_rule(66);
  bool all_equal = true;
  for (const std::size_t cores : {2u, 4u, 8u}) {
    const std::vector<core::CostTable> tables(cores,
                                              core::CostTable(model, cp));
    for (const std::size_t n : {24u, 500u, 5000u}) {
      workload::BatchConfig cfg;
      cfg.num_tasks = n;
      cfg.shape = workload::BatchShape::kLognormal;
      const auto tasks = workload::generate_batch(cfg, 13);
      const auto rr =
          core::evaluate_plan(core::round_robin_homogeneous(
                                  tasks, tables[0], cores),
                              tables[0]);
      const auto wbg = core::evaluate_plan(
          core::workload_based_greedy(tasks, tables), tables);
      const bool equal = almost_equal(rr.total(), wbg.total(), 1e-9, 1e-9);
      all_equal = all_equal && equal;
      std::printf("%10zu %8zu %16.1f %16.1f %10s\n", n, cores, rr.total(),
                  wbg.total(), equal ? "yes" : "NO");
      bench::BenchRow row("rr_vs_wbg");
      row.param("cores", static_cast<std::uint64_t>(cores))
          .param("tasks", static_cast<std::uint64_t>(n))
          .set_cost(wbg.total())
          .counter("rr_cost", rr.total())
          .counter("equal", equal ? 1.0 : 0.0);
      reporter.add(std::move(row));
    }
  }
  std::printf("\nTheorem 4/5 equivalence on homogeneous cores: %s\n",
              all_equal ? "HOLDS" : "VIOLATED");

  bench::print_header("A5c: online LMC simulation time vs tasks (8 cores)");
  std::printf("%10s %8s %14s %14s %16s\n", "tasks", "cores", "run (ms)",
              "us/task", "total cost");
  bench::print_rule(68);
  {
    // The paper's exam mix (one submission per 65 interactive requests)
    // at the default trace's density, scaled to n tasks; Re/Rt are
    // dvfs_simulate's defaults.
    constexpr std::size_t kCores = 8;
    const core::CostParams online_cp{0.4, 0.1};
    for (const std::size_t n : {10000u, 100000u}) {
      workload::JudgegirlConfig cfg;
      cfg.non_interactive_tasks = n / 66;
      cfg.interactive_tasks = n - cfg.non_interactive_tasks;
      cfg.duration = 9000.0 * static_cast<double>(n) / 660000.0;
      const workload::Trace trace = workload::generate_judgegirl(cfg, 5);
      governors::LmcPolicy policy(std::vector<core::CostTable>(
          kCores, core::CostTable(model, online_cp)));
      sim::Engine engine(std::vector<core::EnergyModel>(kCores, model),
                         sim::ContentionModel::none());
      const auto t0 = Clock::now();
      const sim::SimResult r = engine.run(trace, policy);
      const double ms = ms_since(t0);
      const double cost = r.total_cost(online_cp);
      std::printf("%10zu %8zu %14.2f %14.3f %16.1f\n", trace.size(), kCores,
                  ms, ms * 1000.0 / static_cast<double>(trace.size()), cost);
      bench::BenchRow row("online_lmc_sim");
      row.param("cores", static_cast<std::uint64_t>(kCores))
          .param("tasks", static_cast<std::uint64_t>(n))
          .set_wall_ns(ms * 1e6)
          .set_cost(cost);
      reporter.add(std::move(row));
    }
  }
  reporter.write();
  return all_equal ? 0 : 1;
}
