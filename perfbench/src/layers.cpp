/// perfbench_layers: times the scheduler's layers in-process on the
/// benchmark's generated inputs.
///
///   perfbench_layers noop
///       Serves no-op routes on obs::MetricsHttpServer (same server
///       class and request shapes as the daemon, none of its work);
///       prints "port N" and serves until stdin closes.
///   perfbench_layers svc --seed S --rate R --tasks N [--w-* W]
///       [--metrics-period S] --warmup S --seconds S --time-scale T
///       --ring-capacity K --out DIR
///       Replays the load generator's request stream, paced at its due
///       times, into an in-process svc::SchedulingService and times
///       obs::Json::parse, SchedulingService::submit/status,
///       TraceStore::get + timeline_json, prometheus_text, MpscRing
///       push/pop, and core::LmcScheduler::place_non_interactive (each
///       shard's task sequence replayed with the daemon's virtual
///       execution). The parse-and-place replay also runs without
///       per-call timing, which gives the timing's own overhead.
///   perfbench_layers sim (--trace CSV | --seed S --rate R --tasks N
///       [--w-* W] --warmup S --seconds S --time-scale T)
///       --cores C --run-seconds S --setups K --out DIR
///       Loads the trace K times (set-up), then runs sim::Engine with
///       governors::LmcPolicy repeatedly for about S seconds (at least
///       once each way), alternating bare runs with runs that time every
///       scheduling decision. Without --trace the tasks are the HTTP
///       stream's, arriving at their due times in model seconds.
///
/// Raw samples go to DIR/<name>.u64 (native-endian uint64, ns);
/// scalars to DIR/layers.json. run.py computes every statistic.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "dvfs/core/cost_model.h"
#include "dvfs/core/energy_model.h"
#include "dvfs/core/online_lmc.h"
#include "dvfs/governors/lmc_policy.h"
#include "dvfs/obs/json.h"
#include "dvfs/obs/metrics.h"
#include "dvfs/obs/promtext.h"
#include "dvfs/obs/reqtrace.h"
#include "dvfs/sim/engine.h"
#include "dvfs/svc/mpsc_ring.h"
#include "dvfs/svc/service.h"
#include "dvfs/workload/trace.h"
#include "inputs.h"

namespace {

using namespace dvfs;
using perfbench::Args;
using Clock = std::chrono::steady_clock;

std::uint64_t ns_since(Clock::time_point t0) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
          .count());
}

/// Collects raw samples and scalars; writes them once at the end.
class Output {
 public:
  explicit Output(std::string dir) : dir_(std::move(dir)) {}
  std::vector<std::uint64_t>& samples(const std::string& name) {
    return samples_[name];
  }
  void set(const std::string& name, double v) { scalars_[name] = obs::Json(v); }
  void set(const std::string& name, const std::string& v) {
    scalars_[name] = obs::Json(v);
  }
  void write() const {
    for (const auto& [name, v] : samples_) {
      const std::string path = dir_ + "/" + name + ".u64";
      FILE* f = std::fopen(path.c_str(), "wb");
      if (f == nullptr) throw std::runtime_error("cannot write " + path);
      std::fwrite(v.data(), sizeof(std::uint64_t), v.size(), f);
      std::fclose(f);
    }
    obs::write_json_file(dir_ + "/layers.json", obs::Json(scalars_));
  }

 private:
  std::string dir_;
  std::map<std::string, std::vector<std::uint64_t>> samples_;
  obs::Json::Object scalars_;
};

/// The load generator's open-loop stream (warm-up, then measured
/// window), rebuilt from the same seed.
std::vector<perfbench::Planned> stream_from(const Args& a) {
  const auto seed = static_cast<std::uint64_t>(a.num("seed", 1));
  perfbench::SplitMix64 rng = perfbench::stream_rng(seed);
  const perfbench::Mix mix = perfbench::mix_from(a);
  const double warmup = a.num("warmup", 1);
  std::uint64_t next_id = 1;
  std::vector<perfbench::Planned> out =
      perfbench::plan(mix, 0.0, warmup, next_id, rng);
  const std::vector<perfbench::Planned> meas =
      perfbench::plan(mix, warmup, a.num("seconds", 10), next_id, rng);
  out.insert(out.end(), meas.begin(), meas.end());
  return out;
}

constexpr core::CostParams kParams{.re = 0.4, .rt = 0.1};

// ------------------------------------------------------------------ noop

int run_noop() {
  obs::MetricsHttpServer server(obs::MetricsHttpServer::Options{"127.0.0.1", 0},
                                [] { return std::string("noop 1\n"); });
  const auto json = [](const obs::MetricsHttpServer::Request&) {
    return obs::MetricsHttpServer::Response{
        202, "application/json; charset=utf-8", "{}\n"};
  };
  server.add_route("POST", "/submit", json);
  server.add_prefix_route("GET", "/schedule/", json);
  server.add_prefix_route("GET", "/tasks/", json);
  server.add_route("GET", "/healthz", json);
  server.start();
  std::printf("port %u\n", server.port());
  std::fflush(stdout);
  std::string line;
  while (std::getline(std::cin, line)) {
  }
  server.stop();
  return 0;
}

// ------------------------------------------------------------------- svc

/// Replays one shard's placements with the daemon's virtual execution:
/// a core pops its next task when the previous one's scaled duration has
/// elapsed, so queue depth matches a live shard at the same offered load.
struct ShardReplay {
  ShardReplay(const core::EnergyModel& model, std::size_t cores, double ts)
      : model_(model),
        lmc_(std::vector<core::CostTable>(cores, core::CostTable(model, kParams))),
        busy_until_(cores, 0.0),
        time_scale_(ts) {}

  /// Places one task at model time `t`; with `place_ns` set, times the
  /// call and records the queue depth it saw.
  void place(double t, std::uint64_t id, Cycles cycles,
             std::vector<std::uint64_t>* place_ns, double& depth_sum,
             double& busy_s) {
    advance(t, busy_s);
    if (place_ns == nullptr) {
      (void)lmc_.place_non_interactive(cycles, id);
    } else {
      std::size_t depth = 0;
      for (std::size_t c = 0; c < busy_until_.size(); ++c) {
        depth += lmc_.queue(c).size();
      }
      depth_sum += static_cast<double>(depth);
      const Clock::time_point t0 = Clock::now();
      (void)lmc_.place_non_interactive(cycles, id);
      place_ns->push_back(ns_since(t0));
    }
    advance(t, busy_s);
  }

 private:
  void advance(double t, double& busy_s) {
    for (std::size_t c = 0; c < busy_until_.size(); ++c) {
      while (busy_until_[c] <= t && !lmc_.queue(c).empty()) {
        const auto d = lmc_.pop_next(c);
        const double start = std::max(busy_until_[c], last_t_);
        const double dur = model_.task_time(d->cycles, d->rate_idx) * time_scale_;
        busy_until_[c] = start + dur;
        busy_s += dur;
      }
    }
    last_t_ = t;
  }

  core::EnergyModel model_;
  core::LmcScheduler lmc_;
  std::vector<double> busy_until_;
  double time_scale_;
  double last_t_ = 0.0;
};

int run_svc(const Args& a) {
  Output out(a.str("out"));
  const auto seed = static_cast<std::uint64_t>(a.num("seed", 1));
  const std::vector<perfbench::Planned> stream = stream_from(a);
  const core::EnergyModel model = core::EnergyModel::icpp2014_table2();
  svc::ServiceOptions opts;
  opts.shards = 2;
  opts.cores = 8;
  opts.time_scale = a.num("time-scale", 0);
  opts.ring_capacity = static_cast<std::size_t>(a.num("ring-capacity", 1 << 16));
  obs::Registry& reg = obs::Registry::global();

  std::vector<std::string> bodies;
  for (const perfbench::Planned& p : stream) {
    if (p.kind == perfbench::Kind::kSubmit) {
      bodies.push_back(perfbench::submit_body(seed, p.first_id, p.tasks));
    }
  }

  // svc/service, paced at the stream's due times.
  svc::SchedulingService service(model, kParams, opts);
  service.start();
  auto& submit_ns = out.samples("svc_submit_ns");
  auto& status_ns = out.samples("svc_status_get_ns");
  auto& reqtrace_ns = out.samples("reqtrace_get_ns");
  auto& render_ns = out.samples("promtext_render_ns");
  std::vector<obs::Gauge*> occupancy;
  for (std::size_t s = 0; s < opts.shards; ++s) {
    occupancy.push_back(
        &reg.gauge("svc.ring.occupancy{shard=\"" + std::to_string(s) + "\"}"));
  }
  double occupancy_max = 0.0;
  std::uint64_t last_id = 0;
  // What GET /schedule/{id} and GET /tasks/{id}/trace do below HTTP.
  const auto read_status = [&](std::uint64_t id) {
    Clock::time_point t0 = Clock::now();
    (void)service.status(id);
    status_ns.push_back(ns_since(t0));
    t0 = Clock::now();
    if (const auto tl = service.traces().get(id); tl.has_value()) {
      (void)obs::reqtrace::timeline_json(*tl).dump(-1);
    }
    reqtrace_ns.push_back(ns_since(t0));
  };
  const auto render = [&] {
    const Clock::time_point t0 = Clock::now();
    const std::string text = obs::prometheus_text(reg, &service.exemplars());
    render_ns.push_back(ns_since(t0));
    out.set("promtext_bytes", static_cast<double>(text.size()));
  };
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(20);
  for (const perfbench::Planned& p : stream) {
    const Clock::time_point due = start + std::chrono::nanoseconds(p.at_ns);
    while (Clock::now() < due) {
    }
    switch (p.kind) {
      case perfbench::Kind::kSubmit:
        for (std::uint32_t i = 0; i < p.tasks; ++i) {
          const std::uint64_t id = p.first_id + i;
          const Cycles cycles = perfbench::task_cycles(seed, id);
          const Clock::time_point t0 = Clock::now();
          const auto ticket = service.submit(id, cycles);
          submit_ns.push_back(ns_since(t0));
          if (!ticket.accepted) throw std::runtime_error("submit rejected");
          last_id = id;
        }
        break;
      case perfbench::Kind::kSchedule:
      case perfbench::Kind::kTrace:
        if (last_id != 0) read_status(last_id);
        break;
      case perfbench::Kind::kMetrics:
        render();
        break;
      case perfbench::Kind::kHealthz:
        break;
    }
    for (obs::Gauge* g : occupancy) occupancy_max = std::max(occupancy_max, g->value());
  }
  const std::uint64_t submitted = service.submitted();
  while (service.placed() < submitted) std::this_thread::yield();

  // Stage durations of every placed task, then status and trace reads
  // of a spread of ids (every workload reads, whatever its mix).
  auto& ring_wait = out.samples("svc_ring_wait_ns");
  auto& placement = out.samples("svc_placement_ns");
  for (std::uint64_t id = 1; id <= last_id; ++id) {
    const auto tl = service.traces().get(id);
    if (!tl.has_value()) continue;
    const obs::reqtrace::Durations d = tl->durations();
    ring_wait.push_back(static_cast<std::uint64_t>(d.ring_wait_s * 1e9));
    placement.push_back(static_cast<std::uint64_t>(d.placement_s * 1e9));
  }
  const std::uint64_t stride = std::max<std::uint64_t>(1, last_id / 4000);
  for (std::uint64_t id = 1; id <= last_id; id += stride) read_status(id);
  for (int i = 0; i < 20; ++i) render();
  const obs::Histogram& batch = reg.histogram("svc.admission.batch");
  out.set("svc_batch_mean", batch.count() == 0
                                ? 0.0
                                : static_cast<double>(batch.sum()) /
                                      static_cast<double>(batch.count()));
  out.set("svc_ring_occupancy_max", occupancy_max);
  out.set("svc_submitted", static_cast<double>(service.submitted()));
  out.set("svc_rejected", static_cast<double>(service.rejected()));
  service.drain();

  // svc/mpsc_ring at the workload's batch size.
  {
    const std::size_t b =
        std::max<std::uint32_t>(1, perfbench::mix_from(a).tasks_per_submit);
    svc::MpscRing<svc::Msg> ring(opts.ring_capacity);
    std::vector<svc::Msg> batch_buf(b);
    auto& ring_ns = out.samples("ring_push_pop_ns");
    for (int rep = 0; rep < 2000; ++rep) {
      const Clock::time_point t0 = Clock::now();
      for (std::size_t i = 0; i < b; ++i) {
        svc::Msg m;
        m.id = i;
        if (!ring.try_push(m)) throw std::runtime_error("ring full");
      }
      std::size_t popped = 0;
      while (popped < b) {
        popped += ring.pop_batch(std::span<svc::Msg>(batch_buf.data() + popped,
                                                     b - popped));
      }
      ring_ns.push_back(ns_since(t0) / b);
    }
  }

  // obs/json on the workload's own request bodies, and
  // core::LmcScheduler per shard on the same tasks at the same times.
  // The replay alternates untimed and timed passes (at least three of
  // each, and for at least a second), fastest of each kept: their ratio
  // is what the per-call timing itself costs.
  std::vector<std::uint64_t> parse_ns;
  std::vector<std::uint64_t> place_ns;
  double depth_sum = 0.0;
  double busy_s = 0.0;
  const auto replay = [&](bool timed) {
    parse_ns.clear();
    place_ns.clear();
    depth_sum = 0.0;
    busy_s = 0.0;
    std::vector<ShardReplay> shards;
    for (std::size_t s = 0; s < opts.shards; ++s) {
      shards.emplace_back(model, opts.cores / opts.shards, opts.time_scale);
    }
    const Clock::time_point begin = Clock::now();
    std::size_t b = 0;
    for (const perfbench::Planned& p : stream) {
      if (p.kind != perfbench::Kind::kSubmit) continue;
      const Clock::time_point t0 = timed ? Clock::now() : Clock::time_point{};
      const obs::Json doc = obs::Json::parse(bodies[b++]);
      if (timed) parse_ns.push_back(ns_since(t0));
      if (!doc.is_object()) throw std::runtime_error("body did not parse");
      const double t = static_cast<double>(p.at_ns) / 1e9;
      for (std::uint32_t i = 0; i < p.tasks; ++i) {
        const std::uint64_t id = p.first_id + i;
        shards[svc::SchedulingService::route(id, opts.shards)].place(
            t, id, perfbench::task_cycles(seed, id), timed ? &place_ns : nullptr,
            depth_sum, busy_s);
      }
    }
    return ns_since(begin);
  };
  auto& untimed_pass = out.samples("replay_untimed_ns");
  auto& timed_pass = out.samples("replay_timed_ns");
  const Clock::time_point passes_begin = Clock::now();
  while (timed_pass.size() < 3 ||
         std::chrono::duration<double>(Clock::now() - passes_begin).count() < 1.0) {
    untimed_pass.push_back(replay(false));
    timed_pass.push_back(replay(true));
  }
  out.samples("json_parse_ns") = parse_ns;
  out.samples("lmc_place_ns") = place_ns;
  const double horizon = static_cast<double>(stream.back().at_ns) / 1e9;
  out.set("lmc_queue_depth_mean",
          depth_sum / static_cast<double>(std::max<std::size_t>(1, place_ns.size())));
  out.set("lmc_virtual_busy_ratio",
          busy_s / (static_cast<double>(opts.cores) * horizon));
  out.write();
  return 0;
}

// ------------------------------------------------------------------- sim

/// Forwards to the LMC policy and times every scheduling decision.
class TimedPolicy final : public sim::Policy {
 public:
  TimedPolicy(sim::Policy& inner, std::vector<std::uint64_t>& ns,
              std::vector<std::uint64_t>& spans)
      : inner_(inner), ns_(ns), spans_(spans), epoch_(Clock::now()) {}
  void attach(sim::Engine& e) override { inner_.attach(e); }
  void on_arrival(sim::Engine& e, const core::Task& t) override {
    const Clock::time_point t0 = Clock::now();
    inner_.on_arrival(e, t);
    record(t0, 0);
  }
  void on_complete(sim::Engine& e, std::size_t core, core::TaskId t) override {
    const Clock::time_point t0 = Clock::now();
    inner_.on_complete(e, core, t);
    record(t0, 1);
  }
  void on_timer(sim::Engine& e) override { inner_.on_timer(e); }
  [[nodiscard]] Seconds timer_interval() const override {
    return inner_.timer_interval();
  }
  [[nodiscard]] bool idle() const override { return inner_.idle(); }

 private:
  void record(Clock::time_point t0, std::uint64_t kind) {
    const Clock::time_point t1 = Clock::now();
    ns_.push_back(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count()));
    // (start ns since the run began) << 1 | kind: one span per call.
    spans_.push_back(
        static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(t0 - epoch_)
                .count())
            << 1 |
        kind);
  }

  sim::Policy& inner_;
  std::vector<std::uint64_t>& ns_;
  std::vector<std::uint64_t>& spans_;
  Clock::time_point epoch_;
};

workload::Trace trace_from_stream(const Args& a) {
  const auto seed = static_cast<std::uint64_t>(a.num("seed", 1));
  const double ts = a.num("time-scale", 1);
  std::vector<core::Task> tasks;
  for (const perfbench::Planned& p : stream_from(a)) {
    if (p.kind != perfbench::Kind::kSubmit) continue;
    for (std::uint32_t i = 0; i < p.tasks; ++i) {
      const std::uint64_t id = p.first_id + i;
      tasks.push_back(core::Task{
          .id = id,
          .cycles = perfbench::task_cycles(seed, id),
          .arrival = static_cast<double>(p.at_ns) / 1e9 / ts,
          .klass = core::TaskClass::kNonInteractive});
    }
  }
  return workload::Trace(std::move(tasks));
}

int run_sim(const Args& a) {
  Output out(a.str("out"));
  const auto cores = static_cast<std::size_t>(a.num("cores", 8));
  const core::EnergyModel model = core::EnergyModel::icpp2014_table2();
  const auto setups = static_cast<int>(a.num("setups", 3));

  // Set-up: trace parsed, engine and policy built — what every run of
  // the simulator pays before its first event.
  auto& setup_ns = out.samples("sim_setup_ns");
  auto& load_ns = out.samples("trace_load_ns");
  workload::Trace trace;
  for (int i = 0; i < std::max(1, setups); ++i) {
    const Clock::time_point t0 = Clock::now();
    trace = a.has("trace") ? workload::read_csv_file(a.str("trace"))
                           : trace_from_stream(a);
    load_ns.push_back(ns_since(t0));
    sim::Engine engine(std::vector<core::EnergyModel>(cores, model),
                       sim::ContentionModel(0.0));
    governors::LmcPolicy policy(
        std::vector<core::CostTable>(cores, core::CostTable(model, kParams)));
    setup_ns.push_back(ns_since(t0));
  }

  obs::Registry& reg = obs::Registry::global();
  auto& decide_ns = out.samples("sim_decision_ns");
  auto& run_ns = out.samples("sim_run_ns");
  auto& timed_run_ns = out.samples("sim_timed_run_ns");
  auto& span_log = out.samples("sim_spans");
  decide_ns.reserve(trace.size() * 2 + 16);
  span_log.reserve(trace.size() * 2 + 16);
  const double budget_s = a.num("run-seconds", 10);
  const Clock::time_point begin = Clock::now();
  int runs = 0;
  std::size_t completed = 0;
  double cost = 0.0;
  const auto run_once = [&](bool timed) {
    sim::Engine engine(std::vector<core::EnergyModel>(cores, model),
                       sim::ContentionModel(0.0));
    governors::LmcPolicy lmc(
        std::vector<core::CostTable>(cores, core::CostTable(model, kParams)));
    if (timed) {  // keep only the latest timed run's decisions
      decide_ns.clear();
      span_log.clear();
    }
    TimedPolicy timed_lmc(lmc, decide_ns, span_log);
    sim::Policy& policy = timed ? static_cast<sim::Policy&>(timed_lmc) : lmc;
    const Clock::time_point t0 = Clock::now();
    const sim::SimResult r = engine.run(trace, policy);
    (timed ? timed_run_ns : run_ns).push_back(ns_since(t0));
    const double c = r.total_cost(kParams);
    if (runs > 0 && std::memcmp(&c, &cost, sizeof(c)) != 0) {
      throw std::runtime_error("simulated cost differs between runs");
    }
    cost = c;
    completed += r.completed_count();
    ++runs;
  };
  do {
    run_once(false);
    run_once(true);
  } while (std::chrono::duration<double>(Clock::now() - begin).count() <
           budget_s);

  char hex[64];
  std::snprintf(hex, sizeof(hex), "%a", cost);
  char fixed[64];
  std::snprintf(fixed, sizeof(fixed), "%.2f", cost);
  out.set("sim_cost_hex", std::string(hex));
  out.set("sim_cost_2dp", std::string(fixed));
  out.set("sim_cost", cost);
  out.set("sim_tasks", static_cast<double>(trace.size()));
  out.set("sim_runs", static_cast<double>(runs));
  out.set("sim_completed", static_cast<double>(completed));
  const obs::Histogram& decision = reg.histogram("sim.governor.decision_ns");
  out.set("governor_decision_ns_sum", static_cast<double>(decision.sum()));
  out.set("governor_decision_ns_count", static_cast<double>(decision.count()));
  out.set("governor_interactive_evals",
          static_cast<double>(reg.counter("governor.lmc.interactive_evals").value()));
  const obs::Histogram& depth = reg.histogram("sim.event_queue_depth");
  out.set("sim_event_queue_depth_sum", static_cast<double>(depth.sum()));
  out.set("sim_event_queue_depth_count", static_cast<double>(depth.count()));
  out.write();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc < 2) throw std::runtime_error("usage: perfbench_layers MODE ...");
    const std::string mode = argv[1];
    const Args args(argc, argv, 2);
    if (mode == "noop") return run_noop();
    if (mode == "svc") return run_svc(args);
    if (mode == "sim") return run_sim(args);
    throw std::runtime_error("unknown mode " + mode);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_layers: %s\n", e.what());
    return 2;
  }
}
