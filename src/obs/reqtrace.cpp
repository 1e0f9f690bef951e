#include "dvfs/obs/reqtrace.h"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cstdio>
#include <unordered_map>

#include "dvfs/common.h"
#include "dvfs/obs/clock.h"

namespace dvfs::obs::reqtrace {

namespace {

void store(dfr::Event& e, Field f, std::uint32_t v) {
  switch (f) {
    case Field::kNone: break;
    case Field::kCore: e.core = static_cast<std::uint16_t>(v); break;
    case Field::kAux: e.aux = static_cast<std::uint16_t>(v); break;
    case Field::kU0: e.u0 = v; break;
    case Field::kRateIdx: e.rate_idx = static_cast<std::uint16_t>(v); break;
  }
}

std::uint32_t load(const dfr::Event& e, Field f) {
  switch (f) {
    case Field::kNone: return 0;
    case Field::kCore: return e.core;
    case Field::kAux: return e.aux;
    case Field::kU0: return static_cast<std::uint32_t>(e.u0);
    case Field::kRateIdx: return e.rate_idx;
  }
  return 0;
}

}  // namespace

dfr::Event to_event(std::uint64_t task, std::uint64_t trace,
                    const Step& s) {
  const StageInfo& row = info(s.stage);
  dfr::Event e;
  e.type = static_cast<std::uint8_t>(row.event);
  e.time_s = s.t_s;
  e.task = task;
  if (row.u0_is_trace) e.u0 = trace;
  store(e, row.a.field, s.a);
  store(e, row.b.field, s.b);
  return e;
}

std::optional<Step> to_step(const dfr::Event& e) {
  for (std::size_t i = 0; i < kStages.size(); ++i) {
    const StageInfo& row = kStages[i];
    if (e.type != static_cast<std::uint8_t>(row.event)) continue;
    return Step{static_cast<Stage>(i), e.time_s, load(e, row.a.field),
                load(e, row.b.field)};
  }
  return std::nullopt;
}

std::array<Step, 5> placement_steps(const Placement& p) {
  const double place_s = ns_to_s(p.place_ns);
  return {
      Step{Stage::kSubmitRecv, ns_to_s(p.recv_ns), 0, 0},
      Step{Stage::kRingEnqueue, ns_to_s(p.enqueue_ns), p.shard, 0},
      Step{Stage::kRingDequeue, ns_to_s(p.dequeue_ns), p.shard, 0},
      Step{Stage::kPlacement, place_s, p.core, p.rate_idx},
      Step{Stage::kShardQueue, place_s, p.core, p.depth}};
}

Step exec_step(Stage stage, std::uint16_t core, std::uint64_t ns) {
  DVFS_REQUIRE(stage == Stage::kExecBegin || stage == Stage::kExecEnd,
               "exec_step takes an execution stage");
  return Step{stage, ns_to_s(ns), core, 0};
}

void sort_steps(std::vector<Step>& steps) {
  std::stable_sort(steps.begin(), steps.end(),
                   [](const Step& x, const Step& y) {
                     if (x.t_s != y.t_s) return x.t_s < y.t_s;
                     return static_cast<std::uint8_t>(x.stage) <
                            static_cast<std::uint8_t>(y.stage);
                   });
}

std::size_t Timeline::hops() const {
  std::size_t n = 0;
  for (const Step& s : steps) n += s.stage == Stage::kStealHop ? 1 : 0;
  return n;
}

double Timeline::begin_s() const {
  return steps.empty() ? 0.0 : steps.front().t_s;
}

double Timeline::end_s() const {
  return steps.empty() ? 0.0 : steps.back().t_s;
}

Durations Timeline::durations() const {
  Durations d;
  for (std::size_t i = 1; i < steps.size(); ++i) {
    // Attribute the gap to the stage that closed it; every gap lands in
    // exactly one field, so the fields telescope to end-to-end.
    if (const auto field = info(steps[i].stage).charged) {
      d.*field += steps[i].t_s - steps[i - 1].t_s;
    }
  }
  return d;
}

const char* Timeline::admission_critical_stage() const {
  const Durations d = durations();
  const char* name = "ingress";
  double best = d.ingress_s;
  if (d.ring_wait_s > best) { best = d.ring_wait_s; name = "ring_wait"; }
  if (d.placement_s > best) { best = d.placement_s; name = "placement"; }
  if (d.steal_wait_s > best) { name = "steal_wait"; }
  return name;
}

std::vector<Timeline> build_timelines(const std::vector<dfr::Event>& events) {
  // Pass 1: which tasks are traced at all. A task qualifies once any
  // stage event other than kPlacement mentions it: kPlacement is also
  // the simulator's decision record, so a pre-v4 (simulator) stream
  // qualifies none and its placements never become bogus one-step
  // timelines.
  std::unordered_map<std::uint64_t, Timeline> by_task;
  for (const dfr::Event& e : events) {
    const std::optional<Step> s = to_step(e);
    if (!s.has_value() || s->stage == Stage::kPlacement) continue;
    Timeline& tl = by_task[e.task];
    tl.task = e.task;
    if (tl.trace_id == 0 && info(s->stage).u0_is_trace) tl.trace_id = e.u0;
  }

  // Pass 2: collect the steps of traced tasks, placements included.
  for (const dfr::Event& e : events) {
    const auto it = by_task.find(e.task);
    if (it == by_task.end()) continue;
    if (const std::optional<Step> s = to_step(e)) {
      it->second.steps.push_back(*s);
    }
  }

  std::vector<Timeline> out;
  out.reserve(by_task.size());
  for (auto& [id, tl] : by_task) {
    sort_steps(tl.steps);
    out.push_back(std::move(tl));
  }
  std::sort(out.begin(), out.end(),
            [](const Timeline& x, const Timeline& y) { return x.task < y.task; });
  return out;
}

Json timeline_json(const Timeline& t) {
  Json::Array steps;
  for (std::size_t i = 0; i < t.steps.size(); ++i) {
    const Step& s = t.steps[i];
    Json::Object o{{"stage", Json(to_string(s.stage))},
                   {"t_s", Json(s.t_s)},
                   {"dt_s", Json(i == 0 ? 0.0 : s.t_s - t.steps[i - 1].t_s)}};
    for_each_detail(s, [&o](const char* name, std::uint32_t v) {
      o.emplace(name, Json(static_cast<std::uint64_t>(v)));
    });
    steps.emplace_back(std::move(o));
  }

  const Durations d = t.durations();
  return Json(Json::Object{
      {"task", Json(t.task)},
      {"trace_id", Json(trace_id_hex(t.trace_id))},
      {"stolen", Json(t.stolen())},
      {"hops", Json(static_cast<std::uint64_t>(t.hops()))},
      {"begin_s", Json(t.begin_s())},
      {"end_s", Json(t.end_s())},
      {"end_to_end_s", Json(t.end_to_end_s())},
      {"critical_stage", Json(t.admission_critical_stage())},
      {"durations",
       Json(Json::Object{{"ingress_s", Json(d.ingress_s)},
                         {"ring_wait_s", Json(d.ring_wait_s)},
                         {"placement_s", Json(d.placement_s)},
                         {"steal_wait_s", Json(d.steal_wait_s)},
                         {"queue_wait_s", Json(d.queue_wait_s)},
                         {"exec_s", Json(d.exec_s)},
                         {"total_s", Json(d.total())}})},
      {"steps", Json(std::move(steps))}});
}

std::string trace_id_hex(std::uint64_t id) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(id));
  return std::string(buf, 16);
}

std::optional<std::uint64_t> parse_trace_id(std::string_view text) {
  if (text.starts_with("0x") || text.starts_with("0X")) {
    text.remove_prefix(2);
  }
  if (text.empty() || text.size() > 16) return std::nullopt;
  std::uint64_t v = 0;
  const auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), v, 16);
  if (ec != std::errc{} || end != text.data() + text.size()) {
    return std::nullopt;
  }
  return v;
}

void ExemplarSeries::observe(std::uint64_t value, std::uint64_t trace_id,
                             double t_s) noexcept {
  Slot& s = slots_[Histogram::bucket_index(value)];
  // Seqlock write: odd while the fields are in flux. Racing writers can
  // leave interleaved fields (see header) — every field is still a real
  // sample from this bucket.
  // The field stores are release so that a reader whose acquire load
  // sees one also sees the odd count before it.
  s.seq.fetch_add(1, std::memory_order_acq_rel);
  s.trace.store(trace_id, std::memory_order_release);
  s.value.store(value, std::memory_order_release);
  s.t_bits.store(std::bit_cast<std::uint64_t>(t_s),
                 std::memory_order_release);
  s.seq.fetch_add(1, std::memory_order_acq_rel);
}

std::optional<Exemplar> ExemplarSeries::bucket(std::size_t i) const noexcept {
  if (i >= slots_.size()) return std::nullopt;
  const Slot& s = slots_[i];
  for (int attempt = 0; attempt < 4; ++attempt) {
    const std::uint64_t s1 = s.seq.load(std::memory_order_acquire);
    if (s1 == 0) return std::nullopt;  // never written
    if ((s1 & 1) != 0) continue;       // writer in flight
    // Acquire loads keep the recheck below after the field reads (no
    // fence: GCC rejects atomic_thread_fence under -fsanitize=thread).
    Exemplar e;
    e.trace_id = s.trace.load(std::memory_order_acquire);
    e.value = s.value.load(std::memory_order_acquire);
    e.t_s = std::bit_cast<double>(s.t_bits.load(std::memory_order_acquire));
    if (s.seq.load(std::memory_order_relaxed) == s1) return e;
  }
  return std::nullopt;  // writer storm; skip the exemplar this scrape
}

ExemplarSeries& ExemplarStore::series(const std::string& histogram_name) {
  std::lock_guard lock(mu_);
  return series_[histogram_name];
}

const ExemplarSeries* ExemplarStore::find(
    const std::string& histogram_name) const {
  std::lock_guard lock(mu_);
  const auto it = series_.find(histogram_name);
  return it == series_.end() ? nullptr : &it->second;
}

}  // namespace dvfs::obs::reqtrace
