/// dvfs_execute: run a plan on real worker threads (dvfs::rt) and compare
/// the wall clock against the model — the live half of the paper's
/// evaluation, time-dilated to taste. With `--serve` it becomes the
/// long-running scheduling daemon instead: a sharded online LMC service
/// (dvfs::svc) admitting tasks over HTTP until SIGINT/SIGTERM drains it.
///
///   dvfs_execute --plan plan.csv --time-scale 1e-3
///   dvfs_execute --plan plan.csv --hw auto --record-out run.dfr
///   dvfs_execute --serve --listen :9464 --shards 4 --cores 8
///
/// Serve-mode API (on the same server that exposes /metrics):
///   POST /submit           {"id":1,"cycles":4000000} or
///                          {"tasks":[{"id":...,"cycles":...},...]}
///                          → 202 {"accepted":..,"rejected":..};
///                          503 when backpressure rejected every task
///   GET  /schedule/{id}    → 200 placement decision JSON | 404
///   GET  /tasks/{id}/trace → 200 per-task request timeline JSON | 404
///   GET  /healthz          → 200 ok / 503 firing (with --health-*)
/// /metrics histogram buckets carry OpenMetrics-style trace-id
/// exemplars from the service's request-tracing layer.
///
/// Flags: see kUsage below (also printed by --help).
#include <algorithm>
#include <cstdio>
#include <memory>

#include "dvfs/core/plan_io.h"
#include "dvfs/obs/build_info.h"
#include "dvfs/obs/hw_telemetry.h"
#include "dvfs/obs/promtext.h"
#include "dvfs/rt/executor.h"
#include "dvfs/svc/http.h"
#include "dvfs/svc/service.h"
#include "tool_common.h"

namespace {

constexpr const char* kUsage =
    "usage: dvfs_execute --plan plan.csv [flags]\n"
    "       dvfs_execute --serve --listen HOST:PORT [flags]\n"
    "  --plan PATH          plan CSV                (required unless --serve)\n"
    "  --model SPEC         table2 | cubic:<n>                (table2)\n"
    "  --time-scale S       wall seconds per model second     (1e-3;\n"
    "                       in serve mode: 0 = queue-only, no virtual\n"
    "                       execution)\n"
    "  --pin                pin worker threads to CPUs (best effort)\n"
    "  --hw SPEC            hardware telemetry provider:\n"
    "                       auto | timer | model | off |\n"
    "                       fake[:cycles=A,time=B,energy=C,ipc=D]\n"
    "                       (default off; measures per-task cycles/CPI\n"
    "                       via perf_event_open and energy via RAPL,\n"
    "                       falling back to the thread timer / model\n"
    "                       with explicit source labels)\n"
    "  --trace-out PATH     Chrome trace_event JSON timeline of the run\n"
    "                       (replayed from the run's recording)\n"
    "  --metrics-out PATH   metrics-registry JSON snapshot\n"
    "  --record-out PATH    .dfr flight recording (v2 when --hw is on;\n"
    "                       summarize drift with `dvfs_inspect drift`)\n"
    "  --health-config C    SLO rules: \"builtin\" or a dvfs-health-v1\n"
    "                       JSON path; enables burn-rate alerting\n"
    "  --health-period S    health sampling period in seconds (0.5);\n"
    "                       also enables the monitor (builtin rules)\n"
    "  --profile-out PATH   gzipped pprof CPU profile of the run (plan\n"
    "                       mode: enables the sampling profiler; serve\n"
    "                       mode: always on, this adds the file dump)\n"
    "  --profile-hz N       profiler sampling rate per thread    (100)\n"
    "serve mode (long-running sharded scheduling daemon):\n"
    "  --serve              run the dvfs::svc daemon instead of a plan\n"
    "  --listen HOST:PORT   bind the HTTP API + /metrics     (required)\n"
    "  --shards N           independent LMC shards            (2)\n"
    "  --cores N            total cores, partitioned across shards (4)\n"
    "  --re R / --rt R      cost weights, money per J / per s (0.4/0.1)\n"
    "  --ring-capacity N    per-shard admission ring slots    (65536)\n"
    "  --max-batch N        ring messages per worker iteration (256;\n"
    "                       0 starves the shards: the 503 test hook)\n"
    "  --status-capacity N  remembered tasks for /schedule and\n"
    "                       /tasks/{id}/trace, FIFO-evicted (1M;\n"
    "                       ~88 MiB when full, held as it fills)\n"
    "  --serve-seconds N    exit after N s (0 = until SIGINT/SIGTERM;\n"
    "                       both drain gracefully and flush outputs)\n";

int run_serve(const dvfs::util::Args& args) {
  using namespace dvfs;
  obs::register_build_info(obs::Registry::global());
  const core::EnergyModel model =
      tools::model_from_flag(args.get_string("model", "table2"));
  // Online defaults per the paper's interactive experiments.
  const core::CostParams params{.re = args.get_double("re", 0.4),
                                .rt = args.get_double("rt", 0.1)};
  svc::ServiceOptions opts;
  opts.shards = args.get_u64("shards", 2);
  opts.cores = args.get_u64("cores", 4);
  opts.ring_capacity = args.get_u64("ring-capacity", std::size_t{1} << 16);
  opts.max_batch = args.get_u64("max-batch", 256);
  opts.status_capacity = args.get_u64("status-capacity", std::size_t{1} << 20);
  opts.time_scale = args.get_double("time-scale", 0.0);

  svc::SchedulingService svc(model, params, opts);
  // Serve mode keeps the sampling profiler always on so operators can
  // pull /debug/pprof/profile from a live daemon without a restart.
  tools::ToolRun run(args, std::max<std::size_t>(1, opts.shards));
  if (run.recorder() != nullptr) svc.set_recorder(run.recorder());
  svc.start();

  // /metrics serves exemplar-bearing histograms: the service's trace
  // layer remembers a recent trace id per latency bucket.
  svc::SchedulingService* s = &svc;
  obs::MetricsHttpServer server(
      obs::parse_listen(args.get_string("listen")), [s] {
        return obs::prometheus_text(obs::Registry::global(),
                                    &s->exemplars());
      });
  svc::register_service_routes(server, svc);
  obs::prof::register_pprof_route(server, *run.profiler());
  run.add_health_route(server);
  server.start();
  std::printf("serving scheduling API on port %u: POST /submit, "
              "GET /schedule/{id}, GET /tasks/{id}/trace, "
              "/metrics%s (%zu shards x %zu cores)\n",
              server.port(), run.health_on() ? ", /healthz" : "",
              opts.shards, opts.cores / opts.shards);
  std::fflush(stdout);
  run.wait_for_exit();
  // Graceful order: close the API first (no new admissions), drain the
  // shards (every accepted ticket reaches a placement), then finish the
  // run's outputs — so the recording carries the final state.
  server.stop();
  svc.drain();
  // "0 stolen" stays for log readers that parse this line; the shards
  // balance at admission and never migrate a task.
  std::printf("drained: %llu submitted, %llu placed, %llu rejected, "
              "0 stolen, %llu completed\n",
              static_cast<unsigned long long>(svc.submitted()),
              static_cast<unsigned long long>(svc.placed()),
              static_cast<unsigned long long>(svc.rejected()),
              static_cast<unsigned long long>(svc.completed()));
  run.finish();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dvfs;
  return tools::run_tool([&] {
    const util::Args args(
        argc, argv,
        {"plan", "model", "time-scale", "pin", "hw", "trace-out",
         "metrics-out", "record-out", "health-config", "health-period",
         "serve", "listen", "shards", "cores", "re", "rt", "ring-capacity",
         "max-batch", "status-capacity", "serve-seconds",
         "profile-out", "profile-hz", "help"});
    if (args.has("help")) {
      std::fputs(kUsage, stdout);
      return 0;
    }
    if (args.has("serve")) return run_serve(args);
    obs::register_build_info(obs::Registry::global());
    const core::Plan plan = core::read_plan_csv_file(args.get_string("plan"));
    const core::EnergyModel model =
        tools::model_from_flag(args.get_string("model", "table2"));
    const double scale = args.get_double("time-scale", 1e-3);

    // Model-side expectations for the comparison lines.
    Seconds model_makespan = 0.0;
    for (const core::CorePlan& c : plan.cores) {
      Seconds clock = 0.0;
      for (const core::ScheduledTask& st : c.sequence) {
        clock += model.task_time(st.cycles, st.rate_idx);
      }
      model_makespan = std::max(model_makespan, clock);
    }
    std::printf("executing %zu tasks on %zu worker threads "
                "(expected wall time ~%.2f s)...\n",
                plan.num_tasks(), plan.num_cores(), model_makespan * scale);

    rt::RealtimeExecutor exec(
        model, {.time_scale = scale, .pin_threads = args.has("pin")});
    const std::unique_ptr<obs::hw::HwProvider> hw =
        obs::hw::make_provider(args.get_string("hw", "off"));
    if (hw != nullptr) {
      exec.set_hw_provider(hw.get());
      std::printf("hardware telemetry: %s\n", hw->describe().c_str());
    }
    // One SPSC channel per worker thread (the executor requires it).
    tools::ToolRun run(args, std::max<std::size_t>(1, plan.num_cores()));
    if (run.recorder() != nullptr) exec.set_recorder(run.recorder());
    const rt::RtResult r = exec.execute(plan);
    run.finish();

    std::printf("done: %zu tasks, wall makespan %.3f s "
                "(model: %.3f s, drift %+.2f%%)\n",
                r.tasks.size(), r.wall_makespan, model_makespan * scale,
                (r.wall_makespan / (model_makespan * scale) - 1.0) * 100.0);
    std::printf("model energy charged: %.1f J; worst per-task duration "
                "drift %.1f%%\n",
                r.model_energy, r.worst_relative_drift() * 100.0);
    if (hw != nullptr) {
      std::printf("telemetry drift (measured/predicted): cycles %.6f | "
                  "duration %.6f | energy %.6f (%llu measured spans, "
                  "%llu model-charged)\n",
                  r.drift.cycles_ratio, r.drift.duration_ratio,
                  r.drift.energy_ratio,
                  static_cast<unsigned long long>(r.drift.spans_measured),
                  static_cast<unsigned long long>(r.drift.spans_model));
    }
    return 0;
  });
}
