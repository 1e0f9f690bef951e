#include "dvfs/svc/service.h"

#include <algorithm>
#include <chrono>
#include <span>
#include <utility>

#include "dvfs/core/task.h"
#include "dvfs/obs/clock.h"
#include "dvfs/obs/prof.h"
#include "dvfs/obs/recorder.h"

namespace dvfs::svc {

namespace {

/// SplitMix64 finalizer: sequential task ids must not all land on one
/// shard, so the route hash has to mix low bits into high entropy.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

constexpr std::size_t kDrainBatch = 256;

}  // namespace

/// Everything one shard's worker thread owns. The LMC scheduler, the
/// virtual-execution state and `queue_len` are thread-confined; the
/// atomics are what producers route by and what readers see.
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

  /// Cycles admitted to this shard and not yet dispatched, what
  /// admission routes by: producers add what they push and take back
  /// what a full ring refused, the worker subtracts what virtual
  /// execution dispatches. A double, because POST /submit admits up to
  /// 2^53 cycles per task and a 64-bit sum of those wraps after 2^11.
  alignas(64) std::atomic<double> outstanding{0.0};
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
  if (recorder_ != nullptr) {
    const double now = obs::ns_to_s(obs::now_ns());
    DVFS_REQUIRE(recorder_->num_channels() >= shards_.size(),
                 "recorder needs one channel per shard");
    for (auto& s : shards_) {
      s->channel = &recorder_->channel(s->index);
      obs::dfr::Event begin;
      begin.type = static_cast<std::uint8_t>(obs::dfr::EventType::kRunBegin);
      begin.core = static_cast<std::uint16_t>(s->num_cores);
      begin.time_s = now;
      s->channel->record(begin);
      obs::record_params(*s->channel, now, obs::dfr::PolicyKind::kLmc,
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
  // request index of `msgs[k]`. `tally[s]` is shard s's outstanding
  // cycles with this batch's earlier tasks on it, `per_core[s]` that
  // over its cores. Reused per submitting thread.
  thread_local std::vector<Msg> msgs;
  thread_local std::vector<std::uint32_t> shard_of;
  thread_local std::vector<std::uint32_t> request;
  thread_local std::vector<std::size_t> end;
  thread_local std::vector<double> tally;
  thread_local std::vector<double> per_core;
  shard_of.resize(n);
  end.assign(num_shards, 0);
  tally.resize(num_shards);
  per_core.resize(num_shards);
  for (std::size_t s = 0; s < num_shards; ++s) {
    tally[s] = shards_[s]->outstanding.load(std::memory_order_relaxed);
    per_core[s] = tally[s] / static_cast<double>(shards_[s]->num_cores);
  }
  // Each task goes to the shard with the least outstanding cycles per
  // owned core, as one LMC over all cores would weigh the queues. A tie
  // goes to the shard with more cores, which the task loads less per
  // core, then to the id's hash shard: so ids decide only between shards
  // alike in both, and a skewed id stream routes like a uniform one.
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t best = route(tasks[i].id, num_shards);
    for (std::size_t s = 0; s < num_shards; ++s) {
      if (per_core[s] < per_core[best] ||
          (per_core[s] == per_core[best] &&
           shards_[s]->num_cores > shards_[best]->num_cores)) {
        best = s;
      }
    }
    tally[best] += static_cast<double>(tasks[i].cycles);
    per_core[best] =
        tally[best] / static_cast<double>(shards_[best]->num_cores);
    shard_of[i] = static_cast<std::uint32_t>(best);
    ++end[best];
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
  const std::uint64_t recv_ns = obs::now_ns();
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
    const std::uint64_t enqueue_ns = obs::now_ns();
    double cycles = 0.0;
    for (Msg& msg : group) {
      msg.enqueue_ns = enqueue_ns;
      cycles += static_cast<double>(msg.cycles);
    }
    shard.outstanding.fetch_add(cycles, std::memory_order_relaxed);
    const std::size_t pushed = shard.ring.try_push_n(group);
    if (pushed < want) {
      double refused = 0.0;
      for (const Msg& msg : group.subspan(pushed)) {
        refused += static_cast<double>(msg.cycles);
      }
      shard.outstanding.fetch_sub(refused, std::memory_order_relaxed);
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
  // Wait out submitters that passed the admission gate pre-flip: after
  // that every accepted message is in a ring, and a worker that reads
  // kStopped and then an empty ring has handled all of its own.
  while (inflight_submits_.load(std::memory_order_seq_cst) != 0) {
    std::this_thread::yield();
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
      const std::uint64_t dequeue_ns = obs::now_ns();
      for (std::size_t i = 0; i < n; ++i) {
        handle_submit(shard, batch[i], dequeue_ns);
      }
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
  const std::uint64_t place_ns = obs::now_ns();
  const double place_s = obs::ns_to_s(place_ns);
  const std::uint64_t latency_us = (place_ns - msg.enqueue_ns) / 1000;
  admission_latency_us_.observe(latency_us);
  admission_exemplars_.observe(latency_us, msg.trace, place_s);

  const obs::reqtrace::Placement at{
      .recv_ns = msg.recv_ns,
      .enqueue_ns = msg.enqueue_ns,
      .dequeue_ns = dequeue_ns,
      .place_ns = place_ns,
      .shard = static_cast<std::uint16_t>(shard.index),
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
    const auto steps = obs::reqtrace::placement_steps(at);
    // steps[3], the placement, is recorded as the decision record below.
    for (const obs::reqtrace::Step& s : std::span(steps).first<3>()) {
      shard.channel->record(obs::reqtrace::to_event(msg.id, msg.trace, s));
    }

    obs::record_arrival(
        *shard.channel,
        {.time_s = obs::ns_to_s(msg.enqueue_ns),
         .task = msg.id,
         .cycles = msg.cycles,
         .klass = static_cast<std::uint16_t>(core::TaskClass::kBatch)});
    obs::record_decision(
        *shard.channel,
        {.time_s = place_s,
         .scope = obs::dfr::DecisionScope::kNonInteractive,
         .task = msg.id,
         .core = at.core,
         .cycles = msg.cycles,
         .rate_idx = at.rate_idx,
         .cost = placement.marginal,
         .f1 = shard.lmc.total_queue_cost()});

    auto shardq = obs::reqtrace::to_event(msg.id, msg.trace, steps[4]);
    shardq.rate_idx = at.rate_idx;
    shard.channel->record(shardq);
  }
}

void SchedulingService::virtual_execute(Shard& shard) {
  const obs::prof::ScopedStage prof_stage(obs::prof::Stage::kExec);
  using obs::reqtrace::Stage;
  const std::uint64_t now_ns = obs::now_ns();
  const double now = obs::ns_to_s(now_ns);
  bool changed = false;
  double dispatched = 0.0;
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
      dispatched += static_cast<double>(next->cycles);
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
  if (changed) {
    shard.outstanding.fetch_sub(dispatched, std::memory_order_relaxed);
    publish_gauges(shard);
  }
}

void SchedulingService::publish_gauges(Shard& shard) {
  shard.cost_gauge.set(shard.lmc.total_queue_cost());
  shard.len_gauge.set(static_cast<double>(shard.queue_len));
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

}  // namespace dvfs::svc
