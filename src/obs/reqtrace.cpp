#include "dvfs/obs/reqtrace.h"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cstdio>
#include <unordered_map>

#include "dvfs/common.h"

namespace dvfs::obs::reqtrace {

const char* to_string(Stage s) {
  switch (s) {
    case Stage::kSubmitRecv: return "submit_recv";
    case Stage::kStealHop: return "steal_hop";
    case Stage::kRingEnqueue: return "ring_enqueue";
    case Stage::kRingDequeue: return "ring_dequeue";
    case Stage::kPlacement: return "placement";
    case Stage::kShardQueue: return "shard_queue";
    case Stage::kExecBegin: return "exec_begin";
    case Stage::kExecEnd: return "exec_end";
  }
  return "?";
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
    const double dt = steps[i].t_s - steps[i - 1].t_s;
    // Attribute the gap to the stage that closed it; every gap lands in
    // exactly one field, so the fields telescope to end-to-end.
    switch (steps[i].stage) {
      case Stage::kSubmitRecv: break;  // only ever the first step
      case Stage::kStealHop: d.steal_wait_s += dt; break;
      case Stage::kRingEnqueue: d.ingress_s += dt; break;
      case Stage::kRingDequeue: d.ring_wait_s += dt; break;
      case Stage::kPlacement: d.placement_s += dt; break;
      case Stage::kShardQueue: d.placement_s += dt; break;
      case Stage::kExecBegin: d.queue_wait_s += dt; break;
      case Stage::kExecEnd: d.exec_s += dt; break;
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
  using dfr::EventType;
  // Pass 1: which tasks are traced at all. A task qualifies once any v4
  // span event mentions it — a pre-v4 (simulator) stream qualifies none,
  // so its kPlacement events never become bogus one-step timelines.
  std::unordered_map<std::uint64_t, Timeline> by_task;
  for (const dfr::Event& e : events) {
    const auto t = static_cast<EventType>(e.type);
    if (t < EventType::kSubmitRecv || t > EventType::kExecEnd) continue;
    Timeline& tl = by_task[e.task];
    tl.task = e.task;
    // kShardQueue reuses u0 for queue depth; every other span event
    // carries the trace id there.
    if (tl.trace_id == 0 && t != EventType::kShardQueue) tl.trace_id = e.u0;
  }

  // Pass 2: collect steps (including the pre-existing kPlacement events,
  // which double as the decision record and the trace's placement step).
  for (const dfr::Event& e : events) {
    const auto it = by_task.find(e.task);
    if (it == by_task.end()) continue;
    Step s;
    s.t_s = e.time_s;
    switch (static_cast<EventType>(e.type)) {
      case EventType::kSubmitRecv:
        s.stage = Stage::kSubmitRecv;
        break;
      case EventType::kRingEnqueue:
        s.stage = Stage::kRingEnqueue;
        s.a = e.core;
        break;
      case EventType::kRingDequeue:
        s.stage = Stage::kRingDequeue;
        s.a = e.core;
        break;
      case EventType::kStealHop:
        s.stage = Stage::kStealHop;
        s.a = e.aux;
        s.b = e.core;
        break;
      case EventType::kPlacement:
        s.stage = Stage::kPlacement;
        s.a = e.core;
        s.b = e.rate_idx;
        break;
      case EventType::kShardQueue:
        s.stage = Stage::kShardQueue;
        s.a = e.core;
        s.b = static_cast<std::uint32_t>(e.u0);
        break;
      case EventType::kExecBegin:
        s.stage = Stage::kExecBegin;
        s.a = e.core;
        break;
      case EventType::kExecEnd:
        s.stage = Stage::kExecEnd;
        s.a = e.core;
        break;
      default:
        continue;
    }
    it->second.steps.push_back(s);
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
    switch (s.stage) {
      case Stage::kRingEnqueue:
      case Stage::kRingDequeue:
        o.emplace("shard", Json(static_cast<std::uint64_t>(s.a)));
        break;
      case Stage::kStealHop:
        o.emplace("from_shard", Json(static_cast<std::uint64_t>(s.a)));
        o.emplace("to_shard", Json(static_cast<std::uint64_t>(s.b)));
        break;
      case Stage::kPlacement:
        o.emplace("core", Json(static_cast<std::uint64_t>(s.a)));
        o.emplace("rate_idx", Json(static_cast<std::uint64_t>(s.b)));
        break;
      case Stage::kShardQueue:
        o.emplace("core", Json(static_cast<std::uint64_t>(s.a)));
        o.emplace("depth", Json(static_cast<std::uint64_t>(s.b)));
        break;
      case Stage::kExecBegin:
      case Stage::kExecEnd:
        o.emplace("core", Json(static_cast<std::uint64_t>(s.a)));
        break;
      case Stage::kSubmitRecv:
        break;
    }
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
  s.seq.fetch_add(1, std::memory_order_acq_rel);
  s.trace.store(trace_id, std::memory_order_relaxed);
  s.value.store(value, std::memory_order_relaxed);
  s.t_bits.store(std::bit_cast<std::uint64_t>(t_s),
                 std::memory_order_relaxed);
  s.seq.fetch_add(1, std::memory_order_acq_rel);
}

std::optional<Exemplar> ExemplarSeries::bucket(std::size_t i) const noexcept {
  if (i >= slots_.size()) return std::nullopt;
  const Slot& s = slots_[i];
  for (int attempt = 0; attempt < 4; ++attempt) {
    const std::uint64_t s1 = s.seq.load(std::memory_order_acquire);
    if (s1 == 0) return std::nullopt;  // never written
    if ((s1 & 1) != 0) continue;       // writer in flight
    Exemplar e;
    e.trace_id = s.trace.load(std::memory_order_relaxed);
    e.value = s.value.load(std::memory_order_relaxed);
    e.t_s = std::bit_cast<double>(s.t_bits.load(std::memory_order_relaxed));
    std::atomic_thread_fence(std::memory_order_acquire);
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
