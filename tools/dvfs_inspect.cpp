/// dvfs_inspect: read a `.dfr` flight recording back out as human answers.
///
///   dvfs_inspect info    --in run.dfr
///   dvfs_inspect replay  --in run.dfr --trace-out t.json --metrics-out m.json
///   dvfs_inspect trace   --in run.dfr [--task 17 | --slowest 5]
///   dvfs_inspect explain --in run.dfr --task 17
///   dvfs_inspect audit   --in run.dfr [--model table2] [--re R] [--rt R]
///   dvfs_inspect drift   --in run.dfr [--json-out d.json]
///   dvfs_inspect health  --in run.dfr [--health-config rules.json]
///   dvfs_inspect prof    --in run.dfr [--top N] [--folded out.folded]
///
/// Subcommands:
///   info     header + event census: what is in the recording
///   replay   rebuild the Chrome trace / metrics JSON the live run would
///            have written (byte-identical to --trace-out / --metrics-out)
///   trace    reconstruct per-task request timelines from the v4 span
///            events (service recordings): per-stage latency breakdown,
///            the admission critical path, steal hops; `--slowest N`
///            ranks by end-to-end latency, `--trace-out` exports the
///            selection as Chrome trace_event JSON
///   explain  one task's full story: arrival, every candidate core the
///            governor priced with the losing margins, starts,
///            preemptions, finish, energy and turnaround
///   audit    re-plan every recorded placement offline (Workload Based
///            Greedy over the reconstructed queue) and report the realized
///            optimality gap, per decision and end to end
///   drift    summarize predicted-vs-measured telemetry ratios (v2
///            recordings from dvfs_execute --hw) and re-plan with the
///            measurement-corrected model
///   health   replay the recorded SLO evaluations (v3 recordings from
///            --health-config/--health-period runs) through the engine
///            offline, verify every state against the live monitor, and
///            print the alert transitions
///   prof     render the v5 CPU samples: top-N functions by self and
///            cumulative samples, per-stage / per-shard share tables
///            (symbolized from the recording's "DFRS" epilogue), and
///            optionally folded stacks for flamegraph.pl
///
/// Flags:
///   --in            input .dfr recording                  (required)
///   --trace-out     replay/trace: write Chrome trace JSON here
///   --metrics-out   replay: write metrics-registry JSON here
///   --task          explain: task id to explain           (required)
///                   trace: task id to show                (optional)
///   --slowest       trace: print the N slowest tasks      (default 5)
///   --model         audit/drift: table2 | cubic:<n>       (default table2)
///   --re, --rt      audit/drift: cost weights (default: recorded kParams)
///   --json-out      drift: write a dvfs-drift-v1 report here
///   --health-config health: rule set to replay with (default: the
///                   builtin rules; must match the live run's rules for
///                   the state cross-check to be meaningful)
///   --top           prof: show the N hottest functions   (default 20)
///   --folded        prof: write folded stacks here
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "dvfs/core/batch_multi.h"
#include "dvfs/core/cost_model.h"
#include "dvfs/core/schedule.h"
#include "dvfs/core/task.h"
#include "dvfs/obs/drift.h"
#include "dvfs/obs/health.h"
#include "dvfs/obs/hw_telemetry.h"
#include "dvfs/obs/json.h"
#include "dvfs/obs/prof.h"
#include "dvfs/obs/recorder.h"
#include "dvfs/obs/reqtrace.h"
#include "dvfs/obs/trace.h"
#include "tool_common.h"

namespace {

using namespace dvfs;
using obs::dfr::Event;
using obs::dfr::EventType;

[[nodiscard]] constexpr const char* policy_name(obs::dfr::PolicyKind k) {
  switch (k) {
    case obs::dfr::PolicyKind::kLmc: return "lmc";
    case obs::dfr::PolicyKind::kWbgRebalance: return "wbg-rebalance";
    case obs::dfr::PolicyKind::kFifo: return "fifo";
    case obs::dfr::PolicyKind::kPlannedBatch: return "planned-batch";
  }
  return "?";
}

[[nodiscard]] constexpr const char* scope_name(obs::dfr::DecisionScope s) {
  switch (s) {
    case obs::dfr::DecisionScope::kNonInteractive: return "non-interactive";
    case obs::dfr::DecisionScope::kInteractive: return "interactive";
    case obs::dfr::DecisionScope::kFifo: return "fifo";
    case obs::dfr::DecisionScope::kPlanned: return "planned";
  }
  return "?";
}

int cmd_info(const obs::Recording& rec) {
  std::printf("format v%u | %u channel(s) | %zu events | %llu dropped\n",
              rec.header.version, rec.header.num_channels, rec.events.size(),
              static_cast<unsigned long long>(rec.header.dropped));
  // v4 recordings carry per-channel counters; older files only have the
  // header aggregate, so the breakdown is simply absent.
  for (std::size_t i = 0; i < rec.channels.size(); ++i) {
    const obs::dfr::ChannelStats& ch = rec.channels[i];
    std::printf("  channel %-3zu recorded=%-10llu dropped=%llu%s\n", i,
                static_cast<unsigned long long>(ch.recorded),
                static_cast<unsigned long long>(ch.dropped),
                ch.dropped > 0 ? "  <-- lossy" : "");
  }
  if (const auto p = rec.first_of(EventType::kParams)) {
    std::printf("policy %s on %u cores",
                policy_name(static_cast<obs::dfr::PolicyKind>(p->aux)),
                p->core);
    if (p->f0 != 0.0 || p->f1 != 0.0) {
      std::printf(" (Re=%g Rt=%g)", p->f0, p->f1);
    }
    std::printf("\n");
  }
  std::map<std::uint8_t, std::size_t> census;
  double t_end = 0.0;
  for (const Event& e : rec.events) {
    ++census[e.type];
    t_end = std::max(t_end, e.time_s);
  }
  std::printf("span: %.6f s\n", t_end);
  for (const auto& [type, n] : census) {
    std::printf("  %-14s %zu\n",
                obs::dfr::to_string(static_cast<EventType>(type)), n);
  }
  // v4+ service recordings: walk the request funnel so a lossy channel
  // is diagnosable per stage — each count should be >= the next, and the
  // stage where events went missing shows up as a negative delta.
  if (rec.header.version >= 4) {
    using obs::reqtrace::Stage;
    const Stage funnel[] = {Stage::kSubmitRecv,  Stage::kRingEnqueue,
                            Stage::kRingDequeue, Stage::kPlacement,
                            Stage::kExecBegin,   Stage::kExecEnd};
    const auto count = [&census](Stage s) -> std::size_t {
      const auto it = census.find(
          static_cast<std::uint8_t>(obs::reqtrace::info(s).event));
      return it == census.end() ? 0 : it->second;
    };
    bool any = false;
    for (const Stage s : funnel) any = any || count(s) > 0;
    if (any) {
      std::printf("request funnel:\n");
      std::size_t prev = 0;
      bool first = true;
      for (const Stage s : funnel) {
        const std::size_t n = count(s);
        const char* name = obs::reqtrace::to_string(s);
        if (first) {
          std::printf("  %-14s %zu\n", name, n);
        } else {
          const auto delta = static_cast<long long>(n) -
                             static_cast<long long>(prev);
          std::printf("  %-14s %-10zu (%+lld%s)\n", name, n, delta,
                      delta > 0 ? "  <-- span loss upstream" : "");
        }
        prev = n;
        first = false;
      }
    }
  }
  std::printf("symbol table: %zu entries\n", rec.symbols.size());
  std::printf("metrics epilogue: %s\n", rec.metrics ? "yes" : "no");
  if (!rec.epilogue_note.empty()) {
    std::printf("note: %s\n", rec.epilogue_note.c_str());
  }
  return 0;
}

int cmd_replay(const obs::Recording& rec, const util::Args& args) {
  bool wrote = false;
  if (args.has("trace-out")) {
    obs::TraceWriter writer;
    obs::replay_to_trace(rec, writer);
    const std::string path = args.get_string("trace-out");
    writer.write_file(path);
    std::printf("replayed %zu trace events to %s\n", writer.size(),
                path.c_str());
    wrote = true;
  }
  if (args.has("metrics-out")) {
    DVFS_REQUIRE(rec.metrics != nullptr,
                 "recording has no metrics epilogue (record with "
                 "dvfs_simulate --record-out, which captures one)");
    const std::string path = args.get_string("metrics-out");
    obs::write_json_file(path, rec.metrics->to_json());
    std::printf("replayed metrics snapshot to %s\n", path.c_str());
    wrote = true;
  }
  DVFS_REQUIRE(wrote, "replay needs --trace-out and/or --metrics-out");
  return 0;
}

// ---------------------------------------------------------------- trace

void print_timeline(const obs::reqtrace::Timeline& t) {
  namespace rt = obs::reqtrace;
  std::printf("task %-6llu trace=%s %s hops=%zu end-to-end %.6f s\n",
              static_cast<unsigned long long>(t.task),
              rt::trace_id_hex(t.trace_id).c_str(),
              t.stolen() ? "STOLEN" : "direct", t.hops(), t.end_to_end_s());
  double prev = t.begin_s();
  for (const rt::Step& s : t.steps) {
    std::printf("  t=%-12.6f %-12s", s.t_s, rt::to_string(s.stage));
    rt::for_each_detail(s, [](const char* name, std::uint32_t v) {
      std::printf(" %s=%u", name, v);
    });
    std::printf("  (+%.6f s)\n", s.t_s - prev);
    prev = s.t_s;
  }
  const rt::Durations d = t.durations();
  std::printf("  breakdown: ingress=%.6f ring_wait=%.6f placement=%.6f "
              "steal_wait=%.6f queue_wait=%.6f exec=%.6f s\n",
              d.ingress_s, d.ring_wait_s, d.placement_s, d.steal_wait_s,
              d.queue_wait_s, d.exec_s);
  std::printf("  admission critical path: %s\n",
              t.admission_critical_stage());
}

/// Rebuilds request timelines from the v4 event stream and prints either
/// one task (`--task`) or the N slowest end-to-end (`--slowest`, default
/// 5). With `--trace-out`, exports the selected timelines as Chrome
/// trace_event JSON: one track per task, a complete span per stage gap,
/// steal hops as instants.
int cmd_trace(const obs::Recording& rec, const util::Args& args) {
  namespace rt = obs::reqtrace;
  std::vector<rt::Timeline> all = rt::build_timelines(rec.events);
  DVFS_REQUIRE(!all.empty(),
               "recording has no request-trace events (v4 recordings from "
               "dvfs_execute --serve ... --record-out carry them)");

  std::vector<rt::Timeline> selected;
  if (args.has("task")) {
    const std::uint64_t id = args.get_u64("task");
    const auto it =
        std::find_if(all.begin(), all.end(),
                     [id](const rt::Timeline& t) { return t.task == id; });
    DVFS_REQUIRE(it != all.end(), "task " + std::to_string(id) +
                                      " has no trace in the recording");
    selected.push_back(*it);
  } else {
    const std::uint64_t n = args.get_u64("slowest", 5);
    std::stable_sort(all.begin(), all.end(),
                     [](const rt::Timeline& a, const rt::Timeline& b) {
                       return a.end_to_end_s() > b.end_to_end_s();
                     });
    for (const rt::Timeline& t : all) {
      if (selected.size() >= n) break;
      selected.push_back(t);
    }
    std::printf("slowest %zu of %zu traced task(s)\n", selected.size(),
                all.size());
  }
  for (const rt::Timeline& t : selected) print_timeline(t);

  if (args.has("trace-out")) {
    obs::TraceWriter writer;
    for (std::size_t i = 0; i < selected.size(); ++i) {
      const rt::Timeline& t = selected[i];
      const auto tid = static_cast<std::int64_t>(i);
      writer.thread_name(tid, "task " + std::to_string(t.task));
      double prev = t.begin_s();
      for (const rt::Step& s : t.steps) {
        obs::Json::Object detail{
            {"task", obs::Json(static_cast<double>(t.task))},
            {"trace_id", obs::Json(rt::trace_id_hex(t.trace_id))}};
        if (s.stage == rt::Stage::kStealHop) {
          rt::for_each_detail(s, [&detail](const char* name, auto v) {
            detail.emplace(name, obs::Json(static_cast<double>(v)));
          });
          writer.instant(tid, rt::to_string(s.stage), s.t_s * 1e6,
                         std::move(detail));
        } else if (s.t_s > prev) {
          // The gap belongs to the stage that closed it — same attribution
          // rule Durations uses, so the spans tile the timeline exactly.
          writer.complete(tid, rt::to_string(s.stage), prev * 1e6,
                          (s.t_s - prev) * 1e6, std::move(detail));
        }
        prev = s.t_s;
      }
    }
    const std::string path = args.get_string("trace-out");
    writer.write_file(path);
    std::printf("wrote %zu trace events for %zu task(s) to %s\n",
                writer.size(), selected.size(), path.c_str());
  }
  return 0;
}

int cmd_explain(const obs::Recording& rec, const util::Args& args) {
  const core::TaskId id = args.get_u64("task");
  bool seen = false;
  // Candidate runs are buffered until their closing kPlacement so the
  // table can be printed sorted by cost with the margin to the winner.
  std::vector<Event> candidates;
  for (const Event& e : rec.events) {
    if (e.task != id) continue;
    seen = true;
    switch (static_cast<EventType>(e.type)) {
      case EventType::kTaskArrival:
        std::printf("t=%-12.6f arrival  class=%s cycles=%llu", e.time_s,
                    core::to_string(static_cast<core::TaskClass>(e.aux)),
                    static_cast<unsigned long long>(e.u0));
        if (std::isfinite(e.f0)) std::printf(" deadline=%.6f", e.f0);
        std::printf("\n");
        break;
      case EventType::kCandidate:
        candidates.push_back(e);
        break;
      case EventType::kPlacement: {
        std::printf("t=%-12.6f placed   core=%u scope=%s cost=%.6f", e.time_s,
                    e.core,
                    scope_name(static_cast<obs::dfr::DecisionScope>(e.aux)),
                    e.f0);
        if (e.u0 != 0) {
          std::printf(" est_cycles=%llu",
                      static_cast<unsigned long long>(e.u0));
        }
        if (e.f1 != 0.0) std::printf(" queue_cost_after=%.6f", e.f1);
        std::printf("\n");
        std::stable_sort(candidates.begin(), candidates.end(),
                         [](const Event& a, const Event& b) {
                           return a.f0 < b.f0;
                         });
        const double chosen_cost = e.f0;
        for (const Event& c : candidates) {
          const bool won = (c.flags & obs::dfr::kFlagChosen) != 0;
          std::printf("    core %-3u cost=%.6f  %s%+.6f vs chosen%s\n",
                      c.core, c.f0, won ? "CHOSEN (" : "       (",
                      c.f0 - chosen_cost, ")");
        }
        candidates.clear();
        break;
      }
      case EventType::kTaskStart:
        std::printf("t=%-12.6f start    core=%u rate_idx=%u "
                    "remaining_cycles=%.0f\n",
                    e.time_s, e.core, e.rate_idx, e.f0);
        break;
      case EventType::kSpanEnd:
        if ((e.flags & obs::dfr::kFlagPreempted) != 0) {
          std::printf("t=%-12.6f PREEMPT  core=%u (ran %.6f s)\n", e.time_s,
                      e.core, e.time_s - e.f0);
        }
        break;
      case EventType::kTaskFinish:
        std::printf("t=%-12.6f finish   core=%u energy=%.4f J "
                    "turnaround=%.6f s\n",
                    e.time_s, e.core, e.f0, e.f1);
        break;
      default:
        break;
    }
  }
  DVFS_REQUIRE(seen, "task " + std::to_string(id) + " not in the recording");
  return 0;
}

int cmd_audit(const obs::Recording& rec, const util::Args& args) {
  const auto params = rec.first_of(EventType::kParams);
  const auto begin = rec.first_of(EventType::kRunBegin);
  const double re =
      args.has("re") ? args.get_double("re") : (params ? params->f0 : 0.4);
  const double rt =
      args.has("rt") ? args.get_double("rt") : (params ? params->f1 : 0.1);
  const std::size_t cores =
      begin ? begin->core : (params ? params->core : 0);
  DVFS_REQUIRE(cores > 0, "recording has no run_begin/params event");
  // Only LMC records positive cost weights; OLB, OD, PS and planned runs
  // record Re = Rt = 0 and make no placement the replan could price.
  if (!args.has("re") && !args.has("rt") && !(re > 0.0 && rt > 0.0)) {
    std::printf("audit: recording has no LMC placements to audit "
                "(recorded Re=%g Rt=%g)\n",
                re, rt);
    return 0;
  }
  const core::EnergyModel model =
      tools::model_from_flag(args.get_string("model", "table2"));
  const std::vector<core::CostTable> tables(
      cores, core::CostTable(model, core::CostParams{re, rt}));

  std::printf("audit: %zu cores, Re=%g Rt=%g, model %s\n", cores, re, rt,
              args.get_string("model", "table2").c_str());

  // Replay the event stream, maintaining the queued-task set the governor
  // saw, and price each recorded non-interactive placement against a
  // clairvoyant offline replan of that same queue.
  std::map<core::TaskId, Event> arrivals;  // id -> kTaskArrival
  std::set<core::TaskId> started;
  std::size_t decisions = 0;
  double worst_gap = 0.0, sum_gap = 0.0;
  Joules realized_energy = 0.0;
  Seconds realized_turnaround = 0.0;
  std::size_t finished = 0;
  for (const Event& e : rec.events) {
    switch (static_cast<EventType>(e.type)) {
      case EventType::kTaskArrival:
        arrivals.emplace(e.task, e);
        break;
      case EventType::kTaskStart:
        started.insert(e.task);
        break;
      case EventType::kTaskFinish:
        realized_energy += e.f0;
        realized_turnaround += e.f1;
        ++finished;
        break;
      case EventType::kPlacement: {
        if (static_cast<obs::dfr::DecisionScope>(e.aux) !=
                obs::dfr::DecisionScope::kNonInteractive ||
            e.f1 == 0.0) {
          break;
        }
        // The queue at this instant: non-interactive tasks that have
        // arrived but not started (the just-placed task included — its
        // kTaskStart, if immediate, follows this event in the stream).
        std::vector<core::Task> queued;
        for (const auto& [id, a] : arrivals) {
          if (started.contains(id)) continue;
          if (static_cast<core::TaskClass>(a.aux) ==
              core::TaskClass::kInteractive) {
            continue;
          }
          queued.push_back(core::Task{.id = id, .cycles = a.u0});
        }
        if (queued.empty()) break;
        const core::Plan plan = core::workload_based_greedy(queued, tables);
        const Money offline = core::evaluate_plan(plan, tables).total();
        const double gap =
            offline > 0.0 ? e.f1 / offline - 1.0 : 0.0;
        ++decisions;
        sum_gap += gap;
        if (gap > worst_gap) worst_gap = gap;
        std::printf("  t=%-12.6f task=%-6llu core=%u queue_cost=%.4f "
                    "offline_wbg=%.4f gap=%+.2f%%\n",
                    e.time_s, static_cast<unsigned long long>(e.task), e.core,
                    e.f1, offline, gap * 100.0);
        break;
      }
      default:
        break;
    }
  }
  if (decisions > 0) {
    std::printf("%zu audited decisions: mean gap %+.2f%%, worst %+.2f%%\n",
                decisions, sum_gap / static_cast<double>(decisions) * 100.0,
                worst_gap * 100.0);
  } else {
    std::printf("no non-interactive LMC placements to audit\n");
  }

  // End-to-end: what the run actually cost vs a clairvoyant batch plan
  // over every recorded task (all arrive at 0 — a bound the online
  // governor cannot reach when arrivals are spread out).
  if (finished > 0 && !arrivals.empty()) {
    std::vector<core::Task> all;
    for (const auto& [id, a] : arrivals) {
      all.push_back(core::Task{.id = id, .cycles = a.u0});
    }
    const core::Plan plan = core::workload_based_greedy(all, tables);
    const Money offline = core::evaluate_plan(plan, tables).total();
    const Money realized = re * realized_energy + rt * realized_turnaround;
    std::printf("end-to-end: realized cost %.4f (energy %.1f J, turnaround "
                "%.1f s over %zu tasks)\n",
                realized, realized_energy, realized_turnaround, finished);
    std::printf("            offline WBG bound %.4f", offline);
    if (offline > 0.0) {
      std::printf(" -> realized gap %+.2f%%", (realized / offline - 1.0) * 100.0);
    }
    std::printf("\n");
  }
  return 0;
}

// ---------------------------------------------------------------- drift

/// Aggregates the kHwPlanned/kHwSpan pairs of a `.dfr` v2 recording into
/// calibration-error ratios, then re-plans the recorded workload with a
/// measurement-corrected model (energy-per-cycle scaled by the observed
/// energy ratio, time-per-cycle by the duration ratio) and reports which
/// placement/rate decisions WBG would flip and what the model error cost.
int cmd_drift(const obs::Recording& rec, const util::Args& args) {
  // The executor's own drift rule, fed from the recording: a dimension
  // counts only where its source was measured.
  obs::Registry scratch;
  obs::hw::DriftTracker tracker(scratch);
  std::map<core::TaskId, Event> planned;
  std::map<std::string, std::size_t> source_census;

  for (const Event& e : rec.events) {
    switch (static_cast<EventType>(e.type)) {
      case EventType::kHwPlanned:
        planned[e.task] = e;
        break;
      case EventType::kHwSpan: {
        const auto it = planned.find(e.task);
        if (it == planned.end()) break;
        const Event& p = it->second;
        const auto counter_src = obs::hw::decode_counter_source(e.aux);
        const auto time_src = obs::hw::decode_time_source(e.aux);
        const auto energy_src = obs::hw::decode_energy_source(e.aux);
        ++source_census[std::string("counter=") + to_string(counter_src)];
        ++source_census[std::string("time=") + to_string(time_src)];
        ++source_census[std::string("energy=") + to_string(energy_src)];
        tracker.observe({.cycles = p.u0, .seconds = p.f1, .joules = p.f0},
                        {.cycles = e.u0,
                         .seconds = e.f1,
                         .joules = e.f0,
                         .counter_source = counter_src,
                         .time_source = time_src,
                         .energy_source = energy_src});
        break;
      }
      default:
        break;
    }
  }
  const obs::hw::DriftSummary drift = tracker.summary();
  const std::uint64_t spans = drift.spans_measured + drift.spans_model;
  DVFS_REQUIRE(spans > 0,
               "recording has no hw telemetry spans (record with "
               "dvfs_execute --hw ... --record-out)");

  std::printf("drift: %llu telemetry spans (%llu fully model-charged)\n",
              static_cast<unsigned long long>(spans),
              static_cast<unsigned long long>(drift.spans_model));
  const auto print_dim = [](const char* name, double ratio,
                            std::uint64_t n) {
    if (n > 0) {
      std::printf("  %-8s measured/predicted = %.6f over %llu spans\n", name,
                  ratio, static_cast<unsigned long long>(n));
    } else {
      std::printf("  %-8s no measured spans (model-charged)\n", name);
    }
  };
  print_dim("cycles", drift.cycles_ratio, drift.cycles_spans);
  print_dim("duration", drift.duration_ratio, drift.duration_spans);
  print_dim("energy", drift.energy_ratio, drift.energy_spans);
  for (const auto& [label, n] : source_census) {
    std::printf("    source %-22s %zu\n", label.c_str(), n);
  }

  // Re-plan the recorded workload with the measurement-corrected model.
  // An unmeasured dimension keeps its modeled curve (scale 1): the
  // correction only applies what was actually observed.
  const auto begin = rec.first_of(EventType::kRunBegin);
  DVFS_REQUIRE(begin.has_value() && begin->core > 0,
               "recording has no run_begin event");
  const std::size_t cores = begin->core;
  const double re = args.get_double("re", 0.4);
  const double rt = args.get_double("rt", 0.1);
  const core::EnergyModel base =
      tools::model_from_flag(args.get_string("model", "table2"));
  const double energy_scale =
      drift.energy_spans > 0 ? drift.energy_ratio : 1.0;
  const double time_scale =
      drift.duration_spans > 0 ? drift.duration_ratio : 1.0;
  std::vector<double> epc, tpc;
  for (std::size_t i = 0; i < base.num_rates(); ++i) {
    epc.push_back(base.energy_per_cycle(i) * energy_scale);
    tpc.push_back(base.time_per_cycle(i) * time_scale);
  }
  const core::EnergyModel corrected(base.rates(), epc, tpc);

  std::vector<core::Task> tasks;
  for (const auto& [id, p] : planned) {
    tasks.push_back(core::Task{.id = id, .cycles = p.u0});
  }
  const std::vector<core::CostTable> base_tables(
      cores, core::CostTable(base, core::CostParams{re, rt}));
  const std::vector<core::CostTable> corrected_tables(
      cores, core::CostTable(corrected, core::CostParams{re, rt}));
  const core::Plan base_plan = core::workload_based_greedy(tasks, base_tables);
  const core::Plan corrected_plan =
      core::workload_based_greedy(tasks, corrected_tables);

  std::map<core::TaskId, std::pair<std::size_t, std::size_t>> base_at;
  for (std::size_t c = 0; c < base_plan.cores.size(); ++c) {
    for (const core::ScheduledTask& st : base_plan.cores[c].sequence) {
      base_at[st.task_id] = {c, st.rate_idx};
    }
  }
  std::size_t flipped = 0;
  for (std::size_t c = 0; c < corrected_plan.cores.size(); ++c) {
    for (const core::ScheduledTask& st : corrected_plan.cores[c].sequence) {
      const auto it = base_at.find(st.task_id);
      if (it == base_at.end() ||
          it->second != std::make_pair(c, st.rate_idx)) {
        ++flipped;
      }
    }
  }
  // Price both plans under the corrected (believed-true) cost tables:
  // the delta is what trusting the uncorrected model costs.
  const Money base_cost =
      core::evaluate_plan(base_plan, corrected_tables).total();
  const Money corrected_cost =
      core::evaluate_plan(corrected_plan, corrected_tables).total();
  std::printf("replan (%zu tasks, %zu cores, Re=%g Rt=%g): %zu decision(s) "
              "flip under the corrected model\n",
              tasks.size(), cores, re, rt, flipped);
  std::printf("  cost of recorded-model plan, corrected prices: %.6f\n",
              base_cost);
  std::printf("  cost of corrected re-plan:                     %.6f\n",
              corrected_cost);
  std::printf("  model-error cost delta:                        %+.6f\n",
              base_cost - corrected_cost);

  if (args.has("json-out")) {
    obs::Json::Object sources;
    for (const auto& [label, n] : source_census) {
      sources.emplace(label, obs::Json(static_cast<std::uint64_t>(n)));
    }
    const obs::Json doc(obs::Json::Object{
        {"schema", obs::Json("dvfs-drift-v1")},
        {"spans", obs::Json(obs::Json::Object{
                      {"total", obs::Json(spans)},
                      {"model_only", obs::Json(drift.spans_model)}})},
        {"ratios",
         obs::Json(obs::Json::Object{
             {"cycles", obs::Json(drift.cycles_ratio)},
             {"duration", obs::Json(drift.duration_ratio)},
             {"energy", obs::Json(drift.energy_ratio)}})},
        {"sources", obs::Json(std::move(sources))},
        {"replan",
         obs::Json(obs::Json::Object{
             {"tasks", obs::Json(static_cast<std::uint64_t>(tasks.size()))},
             {"cores", obs::Json(static_cast<std::uint64_t>(cores))},
             {"re", obs::Json(re)},
             {"rt", obs::Json(rt)},
             {"flipped", obs::Json(static_cast<std::uint64_t>(flipped))},
             {"recorded_plan_cost", obs::Json(base_cost)},
             {"corrected_plan_cost", obs::Json(corrected_cost)},
             {"cost_delta", obs::Json(base_cost - corrected_cost)}})}});
    const std::string path = args.get_string("json-out");
    obs::write_json_file(path, doc);
    std::printf("wrote drift report to %s\n", path.c_str());
  }
  return 0;
}

// ---------------------------------------------------------------- prof

/// Renders the kProfSample runs of a v5 recording: top-N functions by
/// self samples, per-stage and per-shard share tables (each summing to
/// exactly 100% of retained samples), and optionally the folded-stack
/// file flamegraph.pl consumes. Symbol names come from the recording's
/// "DFRS" epilogue; unnamed frames fall back to hex.
int cmd_prof(const obs::Recording& rec, const util::Args& args) {
  namespace prof = obs::prof;
  const std::vector<prof::StackSample> samples =
      prof::samples_from_events(rec.events);
  DVFS_REQUIRE(!samples.empty(),
               "recording has no CPU samples (v5 recordings from runs with "
               "--profile-out or --serve carry them)");
  const prof::TableSymbolizer sym(rec.symbols);
  const prof::Report report = prof::build_report(samples, sym);

  double t_begin = samples.front().t_s, t_end = samples.front().t_s;
  for (const prof::StackSample& s : samples) {
    t_begin = std::min(t_begin, s.t_s);
    t_end = std::max(t_end, s.t_s);
  }
  std::printf("%llu samples over %.3f s\n",
              static_cast<unsigned long long>(report.samples),
              t_end - t_begin);
  // The profiler's exact accounting rides in the metrics epilogue.
  if (rec.metrics) {
    const std::uint64_t dropped =
        rec.metrics->counter("obs.prof.dropped").value();
    std::printf("ring drops: %llu (exact; samples lost before collection)\n",
                static_cast<unsigned long long>(dropped));
  }

  const std::uint64_t top = args.get_u64("top", 20);
  std::printf("%-10s %-10s function\n", "self", "cum");
  std::uint64_t shown = 0;
  for (const prof::Report::Entry& e : report.by_function) {
    if (shown++ >= top) break;
    std::printf("%-10llu %-10llu %s\n",
                static_cast<unsigned long long>(e.self),
                static_cast<unsigned long long>(e.cum), e.name.c_str());
  }
  if (report.by_function.size() > top) {
    std::printf("  ... %zu more (raise --top)\n",
                report.by_function.size() - top);
  }

  const double denom = static_cast<double>(report.samples);
  std::printf("by stage:\n");
  for (const auto& [stage, n] : report.by_stage) {
    std::printf("  %-10s %-10llu %.1f%%\n", prof::to_string(stage),
                static_cast<unsigned long long>(n),
                static_cast<double>(n) / denom * 100.0);
  }
  std::printf("by shard:\n");
  for (const auto& [shard, n] : report.by_shard) {
    if (shard == prof::kNoShard) {
      std::printf("  %-10s %-10llu %.1f%%\n", "(none)",
                  static_cast<unsigned long long>(n),
                  static_cast<double>(n) / denom * 100.0);
    } else {
      std::printf("  shard %-4u %-10llu %.1f%%\n", shard,
                  static_cast<unsigned long long>(n),
                  static_cast<double>(n) / denom * 100.0);
    }
  }

  if (args.has("folded")) {
    const std::string path = args.get_string("folded");
    const std::string folded = prof::folded_stacks(samples, sym);
    std::FILE* f = std::fopen(path.c_str(), "wb");
    DVFS_REQUIRE(f != nullptr, "cannot open " + path);
    std::fwrite(folded.data(), 1, folded.size(), f);
    std::fclose(f);
    std::printf("wrote folded stacks to %s (flamegraph.pl ready)\n",
                path.c_str());
  }
  return 0;
}

// ---------------------------------------------------------------- health

/// Replays the v3 kHealthSample stream through the *same* SloEngine the
/// live monitor ran, cross-checking at every step that the offline state
/// machine lands where the live one did (u0 carries the live after-state)
/// and that the rule config matches (task carries the rule-name hash).
int cmd_health(const obs::Recording& rec, const util::Args& args) {
  namespace health = obs::health;
  const std::vector<health::Rule> rules =
      health::load_rules(args.get_string("health-config", ""));
  health::SloEngine engine(rules);

  std::size_t samples = 0, transitions = 0, recorded_alerts = 0;
  for (const Event& e : rec.events) {
    const auto type = static_cast<EventType>(e.type);
    if (type == EventType::kAlert) {
      ++recorded_alerts;
      continue;
    }
    if (type != EventType::kHealthSample) continue;
    const std::size_t idx = e.aux;
    DVFS_REQUIRE(idx < rules.size(),
                 "health sample references rule index " + std::to_string(idx) +
                     " but this config has only " +
                     std::to_string(rules.size()) +
                     " rules (was the recording made with a different "
                     "--health-config?)");
    DVFS_REQUIRE(e.task == health::rule_hash(rules[idx].name),
                 "rule-name hash mismatch at index " + std::to_string(idx) +
                     " (" + rules[idx].name +
                     "): the recording was made with a different health "
                     "config; pass the matching --health-config");
    const health::SloEngine::Evaluation ev =
        engine.step(idx, e.time_s, e.f0, e.f1);
    ++samples;
    DVFS_REQUIRE(
        static_cast<std::uint64_t>(ev.after) == e.u0,
        "offline replay diverged from the live monitor on rule " +
            rules[idx].name + " at t=" + std::to_string(e.time_s) +
            " (offline " + health::to_string(ev.after) + ", recorded " +
            health::to_string(static_cast<health::AlertState>(e.u0)) + ")");
    if (ev.transition()) {
      ++transitions;
      std::printf("t=%-12.6f alert %-24s %s -> %s (short=%g long=%g, %s %g)\n",
                  ev.t, rules[idx].name.c_str(),
                  health::to_string(ev.before), health::to_string(ev.after),
                  ev.short_value, ev.long_value,
                  health::to_string(rules[idx].op), rules[idx].threshold);
    }
  }
  DVFS_REQUIRE(samples > 0,
               "recording has no health samples (record one with "
               "dvfs_simulate/dvfs_execute --health-config ... --record-out)");
  DVFS_REQUIRE(transitions == recorded_alerts,
               "offline replay derived " + std::to_string(transitions) +
                   " transitions but the recording carries " +
                   std::to_string(recorded_alerts) + " alert events");
  std::printf("replayed %zu health samples, %zu transitions, all states "
              "match the live monitor\n",
              samples, transitions);
  for (std::size_t i = 0; i < rules.size(); ++i) {
    std::printf("final: %-24s %s\n", rules[i].name.c_str(),
                health::to_string(engine.state(i)));
  }
  std::printf("firing at end: %zu\n", engine.firing_count());
  return 0;
}

constexpr const char* kUsage =
    "usage: dvfs_inspect <info|replay|trace|explain|audit|drift|health|prof> "
    "--in run.dfr\n"
    "  info     recording header, per-channel counters and event census\n"
    "  replay   --trace-out t.json --metrics-out m.json (byte-identical to\n"
    "           the live run's --trace-out/--metrics-out)\n"
    "  trace    [--task <id> | --slowest N] [--trace-out t.json]: rebuild\n"
    "           per-task request timelines from v4 service recordings with\n"
    "           the per-stage latency breakdown and admission critical\n"
    "           path; export the selection as Chrome trace JSON\n"
    "  explain  --task <id>: that task's decisions, candidates and timeline\n"
    "  audit    [--model table2|cubic:<n>] [--re R] [--rt R]: offline WBG\n"
    "           replan of each recorded placement + end-to-end gap\n"
    "  drift    [--model SPEC] [--re R] [--rt R] [--json-out d.json]:\n"
    "           summarize predicted-vs-measured telemetry ratios (v2\n"
    "           recordings from dvfs_execute --hw) and re-plan with the\n"
    "           measurement-corrected model, reporting flipped decisions\n"
    "           and the model-error cost delta\n"
    "  health   [--health-config rules.json]: replay the recorded SLO\n"
    "           evaluations (v3) through the engine offline, verify every\n"
    "           state against the live monitor, print alert transitions\n"
    "  prof     [--top N] [--folded out.folded]: render the v5 CPU samples\n"
    "           as top-N self/cumulative tables, per-stage and per-shard\n"
    "           shares, and optionally folded stacks for flamegraph.pl\n";

}  // namespace

int main(int argc, char** argv) {
  return dvfs::tools::run_tool([&] {
    const dvfs::util::Args args(argc, argv,
                                {"in", "trace-out", "metrics-out", "task",
                                 "slowest", "model", "re", "rt", "json-out",
                                 "health-config", "top", "folded", "help"});
    if (args.has("help") || args.positional().empty()) {
      std::fputs(kUsage, stdout);
      return args.has("help") ? 0 : 2;
    }
    const std::string cmd = args.positional().front();
    const dvfs::obs::Recording rec =
        dvfs::obs::Recording::load(args.get_string("in"));
    if (cmd == "info") return cmd_info(rec);
    if (cmd == "replay") return cmd_replay(rec, args);
    if (cmd == "trace") return cmd_trace(rec, args);
    if (cmd == "explain") return cmd_explain(rec, args);
    if (cmd == "audit") return cmd_audit(rec, args);
    if (cmd == "drift") return cmd_drift(rec, args);
    if (cmd == "health") return cmd_health(rec, args);
    if (cmd == "prof") return cmd_prof(rec, args);
    DVFS_REQUIRE(false,
                 "unknown subcommand (want "
                 "info|replay|trace|explain|audit|drift|health|prof): " +
                     cmd);
    return 2;
  });
}
