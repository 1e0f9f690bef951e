/// dvfs_simulate: run a workload trace through the event-driven simulator
/// under a chosen scheduling policy and print the metrics.
///
///   dvfs_simulate --trace exam.csv --policy lmc --cores 4 --re 0.4 --rt 0.1
///   dvfs_simulate --plan plan.csv --trace batch.csv --policy planned
///
/// Flags:
///   --trace       input trace CSV                      (required)
///   --policy      lmc | olb | od | ps | planned        (required)
///   --plan        plan CSV (policy=planned only)
///   --cores       core count                           (default 4)
///   --re, --rt    cost weights                         (default 0.4 / 0.1)
///   --model       table2 | cubic:<n>                   (default table2)
///   --contention  co-run slowdown alpha                (default 0)
///   --trace-out   write a Chrome trace_event JSON timeline here
///                 (replayed from the run's recording)
///   --metrics-out write a metrics-registry JSON snapshot here
///   --record-out  write a .dfr flight recording here (replay/explain/
///                 audit it later with dvfs_inspect)
///   --record-capacity  recorder ring slots (default: sized to the trace)
///   --health-config    SLO rules JSON ("builtin" or a path); enables the
///                 health monitor (burn-rate alerts over the registry)
///   --health-period    health sampling period in seconds (default 0.5;
///                 also enables the monitor with the builtin rules)
///   --listen      serve /metrics (Prometheus text) and, with the health
///                 monitor on, /healthz (200 ok / 503 firing) on
///                 ":9464"-style host:port after the run
///   --serve-seconds    with --listen: exit after N seconds (default 0 =
///                 serve until interrupted)
///
/// SIGINT/SIGTERM while serving exits gracefully: the health monitor is
/// settled and stopped, then --record-out/--trace-out/--metrics-out are
/// flushed (the recording gets its metrics epilogue), then exit 0.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <vector>

#include "dvfs/core/plan_io.h"
#include "dvfs/governors/fifo_policy.h"
#include "dvfs/governors/lmc_policy.h"
#include "dvfs/governors/planned_policy.h"
#include "dvfs/obs/build_info.h"
#include "dvfs/obs/metrics.h"
#include "dvfs/obs/promtext.h"
#include "dvfs/sim/engine.h"
#include "dvfs/workload/trace.h"
#include "tool_common.h"

namespace {

constexpr const char* kUsage =
    "usage: dvfs_simulate --trace t.csv --policy lmc [flags]\n"
    "  --trace PATH         input workload trace CSV          (required)\n"
    "  --policy NAME        lmc | olb | od | ps | planned     (required)\n"
    "  --plan PATH          plan CSV (policy=planned only)\n"
    "  --cores N            core count                        (default 4)\n"
    "  --re R, --rt R       cost weights                      (0.4 / 0.1)\n"
    "  --model SPEC         table2 | cubic:<n>                (table2)\n"
    "  --contention A       co-run slowdown alpha             (0)\n"
    "  --trace-out PATH     Chrome trace_event JSON timeline\n"
    "                       (replayed from the run's recording)\n"
    "  --metrics-out PATH   metrics-registry JSON snapshot\n"
    "  --record-out PATH    .dfr flight recording (dvfs_inspect replays\n"
    "                       it into the two files above byte-for-byte)\n"
    "  --record-capacity N  recorder ring slots (default: trace-sized)\n"
    "  --health-config C    SLO rules: \"builtin\" or a dvfs-health-v1\n"
    "                       JSON path; enables burn-rate alerting\n"
    "  --health-period S    health sampling period in seconds (0.5);\n"
    "                       also enables the monitor (builtin rules)\n"
    "  --listen HOST:PORT   serve Prometheus /metrics (and /healthz when\n"
    "                       the health monitor is on) after the run\n"
    "  --serve-seconds N    with --listen: exit after N s (0 = until\n"
    "                       SIGINT/SIGTERM; both exit gracefully)\n"
    "  --profile-out PATH   gzipped pprof CPU profile of this process\n"
    "                       (enables the sampling profiler for the run)\n"
    "  --profile-hz N       profiler sampling rate per thread    (100)\n";

}  // namespace

int main(int argc, char** argv) {
  using namespace dvfs;
  return tools::run_tool([&] {
    const util::Args args(argc, argv,
                          {"trace", "policy", "plan", "cores", "re", "rt",
                           "model", "contention", "trace-out",
                           "metrics-out", "record-out", "record-capacity",
                           "health-config", "health-period", "listen",
                           "serve-seconds", "profile-out", "profile-hz",
                           "help"});
    if (args.has("help")) {
      std::fputs(kUsage, stdout);
      return 0;
    }
    obs::register_build_info(obs::Registry::global());
    const workload::Trace trace =
        workload::read_csv_file(args.get_string("trace"));
    const std::string policy_name = args.get_string("policy");
    const std::size_t cores = args.get_u64("cores", 4);
    const core::CostParams cp{args.get_double("re", 0.4),
                              args.get_double("rt", 0.1)};
    const core::EnergyModel model =
        tools::model_from_flag(args.get_string("model", "table2"));
    const sim::ContentionModel contention(args.get_double("contention", 0.0));

    std::unique_ptr<sim::Policy> policy;
    if (policy_name == "lmc") {
      policy = std::make_unique<governors::LmcPolicy>(
          std::vector<core::CostTable>(cores, core::CostTable(model, cp)));
    } else if (policy_name == "olb") {
      policy = std::make_unique<governors::FifoPolicy>(governors::FifoPolicy::Config{
          .placement = governors::FifoPolicy::Placement::kEarliestReady,
          .freq = governors::FifoPolicy::FreqMode::kMax});
    } else if (policy_name == "od") {
      policy = std::make_unique<governors::FifoPolicy>(governors::FifoPolicy::Config{
          .placement = governors::FifoPolicy::Placement::kRoundRobin,
          .freq = governors::FifoPolicy::FreqMode::kOndemand});
    } else if (policy_name == "ps") {
      policy = std::make_unique<governors::FifoPolicy>(governors::FifoPolicy::Config{
          .placement = governors::FifoPolicy::Placement::kEarliestReady,
          .freq = governors::FifoPolicy::FreqMode::kOndemand,
          .rate_cap = (model.num_rates() + 1) / 2 - 1});
    } else if (policy_name == "planned") {
      policy = std::make_unique<governors::PlannedBatchPolicy>(
          core::read_plan_csv_file(args.get_string("plan")));
    } else {
      DVFS_REQUIRE(false,
                   "unknown --policy (want lmc|olb|od|ps|planned): " +
                       policy_name);
    }

    sim::Engine engine(std::vector<core::EnergyModel>(cores, model),
                       contention);
    // Ring sized so a normal run never drops: every task costs at most
    // ~16 events plus up to two candidate/decision events per core. The
    // 2^22 ceiling bounds a recording's memory; a trace is only as
    // complete as its recording, so --trace-out lifts it.
    const std::size_t wanted = trace.size() * (16 + 2 * cores);
    const std::size_t auto_capacity =
        args.has("trace-out")
            ? std::max(wanted, obs::Recorder::kDefaultCapacity)
            : std::clamp<std::size_t>(wanted, obs::Recorder::kDefaultCapacity,
                                      std::size_t{1} << 22);
    tools::ToolRun run(args, /*channels=*/1,
                       args.get_u64("record-capacity", auto_capacity));
    if (run.recorder() != nullptr) {
      engine.set_recorder(&run.recorder()->channel(0));
    }

    const sim::SimResult r = engine.run(trace, *policy);

    std::printf("policy %s on %zu cores: %zu/%zu tasks completed\n",
                policy_name.c_str(), cores, r.completed_count(),
                trace.size());
    std::printf("energy %.1f J | turnaround %.1f s | makespan %.1f s\n",
                r.busy_energy, r.total_turnaround(), r.end_time);
    std::printf("cost: %.2f (energy %.2f + time %.2f) at Re=%.3g Rt=%.3g\n",
                r.total_cost(cp), r.energy_cost(cp), r.time_cost(cp), cp.re,
                cp.rt);
    if (trace.count(core::TaskClass::kInteractive) > 0) {
      std::printf("interactive: mean turnaround %.4f s, deadline misses "
                  "%zu\n",
                  r.mean_turnaround(core::TaskClass::kInteractive),
                  r.deadline_misses(core::TaskClass::kInteractive));
    }
    const std::vector<double> share = r.rate_share();
    if (!share.empty()) {
      std::printf("frequency residency:");
      for (std::size_t i = 0; i < share.size(); ++i) {
        std::printf(" %.1fGHz=%.0f%%", model.rates()[i], share[i] * 100.0);
      }
      std::printf("\n");
    }

    if (args.has("listen")) {
      obs::MetricsHttpServer server(
          obs::parse_listen(args.get_string("listen")),
          [] { return obs::prometheus_text(obs::Registry::global()); });
      run.add_health_route(server);
      server.start();
      std::printf("serving Prometheus metrics on port %u at /metrics%s\n",
                  server.port(),
                  run.health_on() ? " (health at /healthz)" : "");
      std::fflush(stdout);
      run.wait_for_exit();
      server.stop();
    }
    // Outputs flush last so a signal-interrupted serve still produces a
    // finalized recording (epilogue included) and a final snapshot.
    run.finish();
    return 0;
  });
}
