#include "dvfs/svc/service.h"

#include <algorithm>
#include <chrono>
#include <deque>
#include <span>
#include <utility>

#include "dvfs/core/task.h"
#include "dvfs/obs/prof.h"
#include "dvfs/obs/recorder.h"

namespace dvfs::svc {

namespace {

using Clock = std::chrono::steady_clock;

std::uint64_t now_ns_since(Clock::time_point origin) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           origin)
          .count());
}

/// SplitMix64 finalizer: sequential task ids must not all land on one
/// shard, so the route hash has to mix low bits into high entropy.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

constexpr std::size_t kDrainBatch = 256;
constexpr std::size_t kStealCooldownIters = 64;
constexpr std::uint16_t kStealMaxTasks = 32;

}  // namespace

/// Everything one shard's worker thread owns. The LMC scheduler, the
/// virtual-execution state and `queue_len` are thread-confined; the
/// atomics are the published view peers and the drain coordinator read.
struct SchedulingService::Shard {
  Shard(std::size_t idx, std::size_t base, std::size_t n,
        std::vector<core::CostTable> tables, std::size_t ring_capacity,
        obs::Gauge& cost_g, obs::Gauge& len_g, obs::Gauge& occ_g,
        obs::Counter& rejected_c)
      : index(idx),
        base_core(base),
        num_cores(n),
        lmc(std::move(tables)),
        ring(ring_capacity),
        cost_gauge(cost_g),
        len_gauge(len_g),
        occupancy_gauge(occ_g),
        rejected_counter(rejected_c),
        running(n) {}

  struct Running {
    bool active = false;
    core::TaskId id = 0;
    double finish_s = 0.0;
    double begin_s = 0.0;
    std::uint64_t trace = 0;
  };

  std::size_t index;
  std::size_t base_core;
  std::size_t num_cores;
  core::LmcScheduler lmc;
  MpscRing<Msg> ring;
  obs::Gauge& cost_gauge;
  obs::Gauge& len_gauge;
  obs::Gauge& occupancy_gauge;
  /// Ring-full rejections on this shard — the per-shard breakdown the
  /// health engine and /metrics see (the aggregate only says "someone
  /// is overloaded"; a single hot shard says "resharding would help").
  obs::Counter& rejected_counter;
  std::thread thread;
  obs::RecorderChannel* channel = nullptr;

  // Worker-confined state.
  std::size_t queue_len = 0;
  std::vector<Running> running;
  std::uint64_t idle_iters = 0;

  // Published / drain-protocol state. Producers write `enqueued` on
  // every submit and the worker writes the rest after every batch, so
  // the two groups sit on separate cache lines.

  /// Messages ever admitted to this ring. Incremented *before* the push
  /// (decremented again by what a full ring refused), so
  /// `enqueued == processed` with an empty ring proves no message is in
  /// flight anywhere.
  alignas(64) std::atomic<std::uint64_t> enqueued{0};
  alignas(64) std::atomic<std::uint64_t> processed{0};
  std::atomic<double> published_cost{0.0};
  std::atomic<std::uint64_t> published_len{0};
  /// Steal requests this shard has posted that the rich shard has not
  /// finished serving. Raised before the request message exists, lowered
  /// only after every forwarded task is enqueued at its destination.
  std::atomic<std::uint64_t> steal_pending{0};
  std::atomic<bool> saw_draining{false};
};

SchedulingService::SchedulingService(core::EnergyModel model,
                                     core::CostParams params,
                                     ServiceOptions options)
    : model_(std::move(model)),
      params_(params),
      options_(options),
      registry_(options.registry != nullptr ? options.registry
                                            : &obs::Registry::global()),
      submitted_(registry_->counter("svc.submitted")),
      rejected_(registry_->counter("svc.rejected")),
      placed_(registry_->counter("svc.placed")),
      completed_(registry_->counter("svc.completed")),
      stolen_(registry_->counter("svc.stolen_tasks")),
      steal_requests_(registry_->counter("svc.steal.requests")),
      admission_latency_us_(
          registry_->histogram("svc.admission.latency_us")),
      batch_size_(registry_->histogram("svc.admission.batch")),
      queue_wait_us_(registry_->histogram("sim.task.queue_wait_us")),
      admission_exemplars_(exemplars_.series("svc.admission.latency_us")),
      queue_wait_exemplars_(exemplars_.series("sim.task.queue_wait_us")),
      tasks_(options.status_capacity, options.shards,
             registry_->counter("svc.status.evicted"),
             registry_->gauge("svc.status.bytes")) {
  DVFS_REQUIRE(options_.shards >= 1, "service needs at least one shard");
  DVFS_REQUIRE(options_.cores >= options_.shards,
               "service needs at least one core per shard");
  DVFS_REQUIRE(options_.ring_capacity > 0,
               "admission ring capacity must be positive");
  registry_->gauge("svc.shards")
      .set(static_cast<double>(options_.shards));
  registry_->gauge("svc.cores").set(static_cast<double>(options_.cores));
  shards_.reserve(options_.shards);
  for (std::size_t i = 0; i < options_.shards; ++i) {
    const std::size_t base = options_.cores * i / options_.shards;
    const std::size_t end = options_.cores * (i + 1) / options_.shards;
    const std::string label = "{shard=\"" + std::to_string(i) + "\"}";
    shards_.push_back(std::make_unique<Shard>(
        i, base, end - base,
        std::vector<core::CostTable>(end - base,
                                     core::CostTable(model_, params_)),
        options_.ring_capacity,
        registry_->gauge("svc.shard.queue_cost" + label),
        registry_->gauge("svc.shard.queue_len" + label),
        registry_->gauge("svc.ring.occupancy" + label),
        registry_->counter("svc.submit.rejected" + label)));
  }
}

SchedulingService::~SchedulingService() { drain(); }

void SchedulingService::set_recorder(obs::Recorder* recorder) {
  DVFS_REQUIRE(phase_.load(std::memory_order_acquire) == Phase::kIdle,
               "attach the recorder before start()");
  recorder_ = recorder;
}

void SchedulingService::start() {
  Phase expected = Phase::kIdle;
  DVFS_REQUIRE(phase_.compare_exchange_strong(expected, Phase::kRunning),
               "service already started");
  start_time_ = Clock::now();
  if (recorder_ != nullptr) {
    DVFS_REQUIRE(recorder_->num_channels() >= shards_.size(),
                 "recorder needs one channel per shard");
    for (auto& s : shards_) {
      s->channel = &recorder_->channel(s->index);
      obs::dfr::Event begin;
      begin.type = static_cast<std::uint8_t>(obs::dfr::EventType::kRunBegin);
      begin.core = static_cast<std::uint16_t>(s->num_cores);
      s->channel->record(begin);
      obs::record_params(*s->channel, 0.0, obs::dfr::PolicyKind::kLmc,
                         s->num_cores, params_.re, params_.rt);
    }
  }
  for (auto& s : shards_) {
    Shard* shard = s.get();
    shard->thread = std::thread([this, shard] { worker(*shard); });
  }
}

std::size_t SchedulingService::route(core::TaskId id, std::size_t shards) {
  DVFS_REQUIRE(shards > 0, "route needs at least one shard");
  return static_cast<std::size_t>(mix64(id) % shards);
}

SchedulingService::Ticket SchedulingService::submit(core::TaskId id,
                                                    Cycles cycles) {
  const Submission task{id, cycles};
  Ticket ticket;
  (void)submit(std::span(&task, 1), std::span(&ticket, 1));
  return ticket;
}

std::size_t SchedulingService::submit(std::span<const Submission> tasks,
                                      std::span<Ticket> tickets) {
  DVFS_REQUIRE(tickets.empty() || tickets.size() == tasks.size(),
               "submit needs one ticket per task");
  DVFS_REQUIRE(tasks.size() <= UINT32_MAX, "submit batch too large");
  const std::size_t n = tasks.size();
  if (n == 0) return 0;
  const std::size_t num_shards = shards_.size();
  // The batch grouped by shard with a counting sort, request order kept
  // within each group: `msgs[end[s - 1], end[s])` go to shard s (end[-1]
  // reads as 0), `shard_of[i]` is request i's shard and `request[k]` the
  // request index of `msgs[k]`. Reused per submitting thread.
  thread_local std::vector<Msg> msgs;
  thread_local std::vector<std::uint32_t> shard_of;
  thread_local std::vector<std::uint32_t> request;
  thread_local std::vector<std::size_t> end;
  shard_of.resize(n);
  end.assign(num_shards, 0);
  for (std::size_t i = 0; i < n; ++i) {
    shard_of[i] = static_cast<std::uint32_t>(route(tasks[i].id, num_shards));
    ++end[shard_of[i]];
  }
  // Exclusive prefix sums: end[s] becomes group s's first slot, and the
  // fill below advances it to one past the group's last.
  std::size_t sum = 0;
  for (std::size_t& e : end) sum += std::exchange(e, sum);

  // The in-flight count lets drain() wait out every submitter that
  // passed the phase gate before the flip — no accepted ticket can land
  // in a ring the drain no longer watches.
  inflight_submits_.fetch_add(1, std::memory_order_seq_cst);
  if (phase_.load(std::memory_order_seq_cst) != Phase::kRunning) {
    inflight_submits_.fetch_sub(1, std::memory_order_seq_cst);
    rejected_.add(n);
    for (std::size_t i = 0; i < tickets.size(); ++i) {
      tickets[i] = {false, static_cast<std::uint16_t>(shard_of[i])};
    }
    return 0;
  }
  const std::uint64_t recv_ns = now_ns_since(start_time_);
  // Trace ids come from a mixed sequence so they look (and dedupe) like
  // real distributed-tracing ids while staying deterministic per run;
  // request i takes the i-th id of one reservation.
  const std::uint64_t first_seq =
      trace_seq_.fetch_add(n, std::memory_order_relaxed) + 1;
  msgs.resize(n);
  request.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t k = end[shard_of[i]]++;
    Msg& msg = msgs[k];
    msg = Msg{};
    msg.id = tasks[i].id;
    msg.cycles = tasks[i].cycles;
    msg.recv_ns = recv_ns;
    msg.trace = mix64(first_seq + i);
    if (msg.trace == 0) msg.trace = 1;
    request[k] = static_cast<std::uint32_t>(i);
  }

  std::size_t accepted = 0;
  std::size_t begin = 0;
  for (std::size_t s = 0; s < num_shards; ++s) {
    const std::size_t want = end[s] - begin;
    if (want == 0) continue;
    Shard& shard = *shards_[s];
    const std::span<Msg> group(msgs.data() + begin, want);
    const std::uint64_t enqueue_ns = now_ns_since(start_time_);
    for (Msg& msg : group) msg.enqueue_ns = enqueue_ns;
    shard.enqueued.fetch_add(want, std::memory_order_seq_cst);
    const std::size_t pushed = shard.ring.try_push_n(group);
    if (pushed < want) {
      shard.enqueued.fetch_sub(want - pushed, std::memory_order_seq_cst);
      rejected_.add(want - pushed);
      shard.rejected_counter.add(want - pushed);
    }
    if (pushed > 0) submitted_.add(pushed);
    accepted += pushed;
    if (!tickets.empty()) {
      for (std::size_t j = 0; j < want; ++j) {
        const bool ok = j < pushed;
        tickets[request[begin + j]] = {ok, static_cast<std::uint16_t>(s),
                                       ok ? group[j].trace : 0};
      }
    }
    begin = end[s];
  }
  inflight_submits_.fetch_sub(1, std::memory_order_seq_cst);
  return accepted;
}

void SchedulingService::drain() {
  Phase expected = Phase::kRunning;
  if (!phase_.compare_exchange_strong(expected, Phase::kDraining,
                                      std::memory_order_seq_cst)) {
    if (expected == Phase::kIdle) {
      phase_.store(Phase::kStopped, std::memory_order_seq_cst);
    }
    return;  // never started, already draining, or already stopped
  }
  // 1. Wait out submitters that passed the admission gate pre-flip.
  while (inflight_submits_.load(std::memory_order_seq_cst) != 0) {
    std::this_thread::yield();
  }
  // 2. Wait until every worker has observed the drain phase — after
  //    that, no shard issues a *new* steal request, so the message
  //    population can only shrink.
  for (auto& s : shards_) {
    while (!s->saw_draining.load(std::memory_order_seq_cst)) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  }
  // 3. Quiescence: every ring empty, every admitted message handled,
  //    every steal fully served (pending counters are raised before the
  //    request exists and lowered after its replies are enqueued, so
  //    zero everywhere + empty rings = nothing in flight).
  for (;;) {
    bool quiet = true;
    for (auto& s : shards_) {
      if (!s->ring.empty() || s->steal_pending.load(
                                  std::memory_order_seq_cst) != 0 ||
          s->enqueued.load(std::memory_order_seq_cst) !=
              s->processed.load(std::memory_order_seq_cst)) {
        quiet = false;
        break;
      }
    }
    if (quiet) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  phase_.store(Phase::kStopped, std::memory_order_seq_cst);
  for (auto& s : shards_) {
    if (s->thread.joinable()) s->thread.join();
  }
}

std::optional<TaskStatus> SchedulingService::status(core::TaskId id) const {
  return tasks_.status(id);
}

void SchedulingService::worker(Shard& shard) {
  // Opt into CPU profiling: the guard registers this thread's stack and
  // CPU clock with the profiler pool (a no-op when no profiler ever
  // runs), and the shard marker attributes every sample taken here.
  const obs::prof::ThreadGuard prof_guard = obs::prof::profile_current_thread();
  obs::prof::set_shard(static_cast<std::uint16_t>(shard.index));
  std::vector<Msg> batch(std::max<std::size_t>(
      kDrainBatch, std::min<std::size_t>(options_.max_batch, 4096)));
  for (;;) {
    obs::prof::set_stage(obs::prof::Stage::kDrain);
    const Phase phase = phase_.load(std::memory_order_seq_cst);
    if (phase != Phase::kRunning) {
      shard.saw_draining.store(true, std::memory_order_seq_cst);
    }
    // A deliberately starved shard (max_batch = 0) still flushes during
    // drain — drain means "finish the admitted work", not "freeze".
    std::size_t budget = options_.max_batch;
    if (phase != Phase::kRunning) {
      budget = std::max<std::size_t>(budget, kDrainBatch);
    }
    // Sample ring occupancy before popping — the pre-drain depth is what
    // warns of a near-full ring while 503s are still avoidable.
    shard.occupancy_gauge.set(static_cast<double>(shard.ring.size()));
    const std::size_t n =
        budget == 0
            ? 0
            : shard.ring.pop_batch(std::span<Msg>(
                  batch.data(), std::min(budget, batch.size())));
    if (n > 0) {
      // One timestamp per batch: every message in it left the ring at
      // this instant as far as the trace is concerned.
      const std::uint64_t dequeue_ns = now_ns_since(start_time_);
      for (std::size_t i = 0; i < n; ++i) {
        const Msg& msg = batch[i];
        if (msg.kind == Msg::Kind::kSubmit) {
          handle_submit(shard, msg, dequeue_ns);
        } else {
          serve_steal(shard, msg);
        }
      }
      shard.processed.fetch_add(n, std::memory_order_seq_cst);
      batch_size_.observe(n);
      publish_gauges(shard);
      shard.idle_iters = 0;
      // Sustained admission keeps the ring non-empty; execution must
      // still advance between batches or no task would ever finish.
      if (options_.time_scale > 0.0) virtual_execute(shard);
      continue;
    }
    if (options_.time_scale > 0.0) virtual_execute(shard);
    if (phase == Phase::kStopped) break;
    obs::prof::set_stage(obs::prof::Stage::kIdle);
    ++shard.idle_iters;
    if (phase == Phase::kRunning &&
        shard.idle_iters % kStealCooldownIters == 0) {
      maybe_request_steal(shard);
    }
    if (shard.idle_iters > 1024) {
      // Long idle: stop burning the core; admission latency pays at most
      // this sleep, far under the health rule's threshold.
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    } else {
      std::this_thread::yield();
    }
  }
  publish_gauges(shard);
}

void SchedulingService::handle_submit(Shard& shard, const Msg& msg,
                                      std::uint64_t dequeue_ns) {
  const obs::prof::ScopedStage prof_stage(obs::prof::Stage::kPlacement);
  const core::LmcScheduler::Placement placement =
      shard.lmc.place_non_interactive(msg.cycles, msg.id);
  ++shard.queue_len;
  placed_.inc();
  if (msg.stolen) stolen_.inc();
  const std::uint64_t place_ns = now_ns_since(start_time_);
  const double place_s = obs::reqtrace::ns_to_s(place_ns);
  const std::uint64_t latency_us = (place_ns - msg.enqueue_ns) / 1000;
  admission_latency_us_.observe(latency_us);
  admission_exemplars_.observe(latency_us, msg.trace, place_s);

  const obs::reqtrace::Placement at{
      .recv_ns = msg.recv_ns,
      .enqueue_ns = msg.enqueue_ns,
      .dequeue_ns = dequeue_ns,
      .place_ns = place_ns,
      .shard = static_cast<std::uint16_t>(shard.index),
      .from_shard = msg.from_shard,
      .stolen = msg.stolen,
      .core = static_cast<std::uint16_t>(shard.base_core + placement.core),
      .rate_idx = static_cast<std::uint16_t>(
          shard.lmc.queue(placement.core).table().best_rate(placement.rank)),
      .depth = static_cast<std::uint32_t>(
          shard.lmc.queue(placement.core).size())};
  tasks_.place(msg.id, {.trace = msg.trace,
                        .cycles = msg.cycles,
                        .marginal = placement.marginal,
                        .at = at});

  if (shard.channel != nullptr) {
    using obs::dfr::Event;
    using obs::dfr::EventType;
    const auto steps = obs::reqtrace::placement_steps(at);
    // steps[3], the placement, is recorded as the decision record below.
    for (const obs::reqtrace::Step& s : std::span(steps).first<3>()) {
      shard.channel->record(obs::reqtrace::to_event(msg.id, msg.trace, s));
    }

    Event arrival;
    arrival.type = static_cast<std::uint8_t>(EventType::kTaskArrival);
    arrival.time_s = obs::reqtrace::ns_to_s(msg.enqueue_ns);
    arrival.task = msg.id;
    arrival.u0 = msg.cycles;
    arrival.aux = static_cast<std::uint16_t>(core::TaskClass::kBatch);
    arrival.f0 = kNoDeadline;
    shard.channel->record(arrival);
    obs::record_decision(
        *shard.channel,
        {.time_s = place_s,
         .scope = obs::dfr::DecisionScope::kNonInteractive,
         .task = msg.id,
         .core = at.core,
         .cycles = msg.cycles,
         .rate_idx = at.rate_idx,
         .flags = msg.stolen ? obs::dfr::kFlagStolen : std::uint8_t{0},
         .cost = placement.marginal,
         .f1 = shard.lmc.total_queue_cost()});

    Event shardq = obs::reqtrace::to_event(msg.id, msg.trace, steps[4]);
    shardq.rate_idx = at.rate_idx;
    shard.channel->record(shardq);
  }
}

void SchedulingService::serve_steal(Shard& shard, const Msg& msg) {
  const obs::prof::ScopedStage prof_stage(obs::prof::Stage::kSteal);
  Shard& requester = *shards_[msg.from_shard];
  std::uint16_t given = 0;
  while (given < msg.steal_want) {
    // Give away from the longest local queue; stop when the shard is
    // down to its own fair share.
    std::size_t victim = 0;
    std::size_t victim_len = 0;
    for (std::size_t c = 0; c < shard.num_cores; ++c) {
      const std::size_t len = shard.lmc.queue(c).size();
      if (len > victim_len) {
        victim = c;
        victim_len = len;
      }
    }
    if (victim_len <= 1) break;  // keep at least the head per queue
    const auto dispatched = shard.lmc.pop_next(victim);
    if (!dispatched.has_value()) break;
    --shard.queue_len;
    Msg forward;
    forward.kind = Msg::Kind::kSubmit;
    forward.stolen = true;
    forward.from_shard = static_cast<std::uint16_t>(shard.index);
    forward.id = dispatched->id;
    forward.cycles = dispatched->cycles;
    forward.enqueue_ns = now_ns_since(start_time_);
    // The trace id lives in the record written at first placement (0 if
    // it was already evicted: the hop still traces, unlinked).
    forward.trace = tasks_.trace_of(dispatched->id);
    requester.enqueued.fetch_add(1, std::memory_order_seq_cst);
    // The requester's worker is live and consuming, so this push can
    // only stall while its ring is momentarily full.
    while (!requester.ring.try_push(forward)) {
      std::this_thread::yield();
    }
    ++given;
  }
  publish_gauges(shard);
  // Serving complete (even when nothing could be given): the requester
  // may ask again.
  requester.steal_pending.fetch_sub(1, std::memory_order_seq_cst);
}

void SchedulingService::maybe_request_steal(Shard& shard) {
  if (options_.steal_ratio <= 0.0 || shards_.size() < 2) return;
  if (shard.steal_pending.load(std::memory_order_seq_cst) != 0) return;
  const double my_cost =
      shard.published_cost.load(std::memory_order_relaxed);
  std::size_t rich = shard.index;
  double rich_cost = 0.0;
  std::uint64_t rich_len = 0;
  for (const auto& other : shards_) {
    if (other->index == shard.index) continue;
    const double cost =
        other->published_cost.load(std::memory_order_relaxed);
    if (cost > rich_cost) {
      rich = other->index;
      rich_cost = cost;
      rich_len = other->published_len.load(std::memory_order_relaxed);
    }
  }
  if (rich == shard.index) return;
  if (rich_len < options_.steal_min_queue) return;
  if (rich_cost <= options_.steal_ratio * std::max(my_cost, 1e-12)) return;
  const std::uint64_t my_len =
      shard.published_len.load(std::memory_order_relaxed);
  const std::uint64_t gap = rich_len > my_len ? rich_len - my_len : 0;
  if (gap < 2) return;
  Msg request;
  request.kind = Msg::Kind::kStealRequest;
  request.from_shard = static_cast<std::uint16_t>(shard.index);
  request.steal_want = static_cast<std::uint16_t>(
      std::min<std::uint64_t>(gap / 2, kStealMaxTasks));
  Shard& target = *shards_[rich];
  shard.steal_pending.fetch_add(1, std::memory_order_seq_cst);
  target.enqueued.fetch_add(1, std::memory_order_seq_cst);
  if (!target.ring.try_push(request)) {
    // Rich shard's ring is full — it has plenty to do; try again later.
    target.enqueued.fetch_sub(1, std::memory_order_seq_cst);
    shard.steal_pending.fetch_sub(1, std::memory_order_seq_cst);
    return;
  }
  steal_requests_.inc();
}

void SchedulingService::virtual_execute(Shard& shard) {
  const obs::prof::ScopedStage prof_stage(obs::prof::Stage::kExec);
  using obs::reqtrace::Stage;
  const std::uint64_t now_ns = now_ns_since(start_time_);
  const double now = obs::reqtrace::ns_to_s(now_ns);
  bool changed = false;
  for (std::size_t c = 0; c < shard.num_cores; ++c) {
    const auto core = static_cast<std::uint16_t>(shard.base_core + c);
    Shard::Running& run = shard.running[c];
    if (run.active && now >= run.finish_s) {
      run.active = false;
      completed_.inc();
      tasks_.advance(run.id, Stage::kExecEnd, core, now_ns);
      if (shard.channel != nullptr) {
        obs::dfr::Event e = obs::reqtrace::to_event(
            run.id, run.trace,
            obs::reqtrace::exec_step(Stage::kExecEnd, core, now_ns));
        e.f0 = run.begin_s;
        shard.channel->record(e);
      }
    }
    if (!run.active && !shard.lmc.queue(c).empty()) {
      const auto next = shard.lmc.pop_next(c);
      --shard.queue_len;
      changed = true;
      run.active = true;
      run.id = next->id;
      run.begin_s = now;
      run.trace = 0;
      run.finish_s = now + model_.task_time(next->cycles, next->rate_idx) *
                               options_.time_scale;
      // The placement recorded trace id and placement instant;
      // dispatching is where queue wait becomes known.
      if (const auto st =
              tasks_.advance(next->id, Stage::kExecBegin, core, now_ns);
          st.has_value()) {
        run.trace = st->trace;
        const auto waited_us = static_cast<std::uint64_t>(
            std::max(0.0, now - st->placed_s) * 1e6);
        queue_wait_us_.observe(waited_us);
        queue_wait_exemplars_.observe(waited_us, run.trace, now);
      }
      if (shard.channel != nullptr) {
        shard.channel->record(obs::reqtrace::to_event(
            next->id, run.trace,
            obs::reqtrace::exec_step(Stage::kExecBegin, core, now_ns)));
      }
    }
  }
  if (changed) publish_gauges(shard);
}

void SchedulingService::publish_gauges(Shard& shard) {
  const Money cost = shard.lmc.total_queue_cost();
  shard.published_cost.store(cost, std::memory_order_relaxed);
  shard.published_len.store(shard.queue_len, std::memory_order_relaxed);
  shard.cost_gauge.set(cost);
  shard.len_gauge.set(static_cast<double>(shard.queue_len));
  shard.occupancy_gauge.set(static_cast<double>(shard.ring.size()));
}

std::uint64_t SchedulingService::submitted() const {
  return submitted_.value();
}
std::uint64_t SchedulingService::rejected() const {
  return rejected_.value();
}
std::uint64_t SchedulingService::placed() const { return placed_.value(); }
std::uint64_t SchedulingService::completed() const {
  return completed_.value();
}
std::uint64_t SchedulingService::stolen() const { return stolen_.value(); }

std::size_t SchedulingService::shard_queue_len(std::size_t shard) const {
  DVFS_REQUIRE(shard < shards_.size(), "shard index out of range");
  return static_cast<std::size_t>(
      shards_[shard]->published_len.load(std::memory_order_relaxed));
}

}  // namespace dvfs::svc
