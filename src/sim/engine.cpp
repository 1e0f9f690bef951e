#include "dvfs/sim/engine.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <functional>
#include <limits>
#include <vector>

#include "dvfs/obs/clock.h"
#include "dvfs/obs/recorder.h"
#include "dvfs/sim/metrics.h"

namespace dvfs::sim {

namespace {
// A task is complete once less than half a cycle remains (floating-point
// progress integration can leave ulp-scale residue at the completion
// event's exact timestamp).
constexpr double kCompletionEpsilonCycles = 0.5;

// How many arrivals ahead the record index prefetches its probe slot.
constexpr std::size_t kIndexPrefetchDistance = 16;
}  // namespace

Engine::Stats::Stats()
    : arrivals(obs::Registry::global().counter("sim.events.arrival")),
      completions(obs::Registry::global().counter("sim.events.completion")),
      timers(obs::Registry::global().counter("sim.events.timer")),
      starts(obs::Registry::global().counter("sim.tasks.started")),
      preemptions(obs::Registry::global().counter("sim.tasks.preempted")),
      freq_transitions(obs::Registry::global().counter("sim.freq_transitions")),
      queue_depth(obs::Registry::global().histogram("sim.event_queue_depth")),
      decision_ns(
          obs::Registry::global().histogram("sim.governor.decision_ns")),
      queue_wait_us(
          obs::Registry::global().histogram("sim.task.queue_wait_us")),
      margin_ratio(
          obs::Registry::global().gauge("governor.cost.margin_ratio")) {}

std::size_t argmin(std::span<const double> costs) {
  DVFS_REQUIRE(!costs.empty(), "argmin of no costs");
  std::size_t best = 0;
  for (std::size_t j = 1; j < costs.size(); ++j) {
    best = costs[j] < costs[best] ? j : best;
  }
  return best;
}

Seconds SimResult::busy_seconds(std::size_t core) const {
  DVFS_REQUIRE(core < rate_residency.size(), "core index out of range");
  Seconds s = 0.0;
  for (const Seconds r : rate_residency[core]) s += r;
  return s;
}

std::vector<double> SimResult::rate_share() const {
  std::size_t rates = 0;
  for (const auto& row : rate_residency) rates = std::max(rates, row.size());
  std::vector<double> share(rates, 0.0);
  Seconds total = 0.0;
  for (const auto& row : rate_residency) {
    for (std::size_t i = 0; i < row.size(); ++i) {
      share[i] += row[i];
      total += row[i];
    }
  }
  if (total <= 0.0) return {};
  for (double& s : share) s /= total;
  return share;
}

double SimResult::utilization(std::size_t core) const {
  if (end_time <= 0.0) return 0.0;
  return busy_seconds(core) / end_time;
}

std::size_t SimResult::completed_count() const {
  std::size_t n = 0;
  for (const TaskRecord& t : tasks) {
    if (t.completed()) ++n;
  }
  return n;
}

Seconds SimResult::total_turnaround() const {
  Seconds s = 0.0;
  for (const TaskRecord& t : tasks) {
    if (t.completed()) s += t.turnaround();
  }
  return s;
}

Seconds SimResult::total_turnaround(core::TaskClass klass) const {
  Seconds s = 0.0;
  for (const TaskRecord& t : tasks) {
    if (t.klass == klass && t.completed()) s += t.turnaround();
  }
  return s;
}

std::size_t SimResult::deadline_misses(core::TaskClass klass) const {
  std::size_t n = 0;
  for (const TaskRecord& t : tasks) {
    if (t.klass == klass && t.missed_deadline()) ++n;
  }
  return n;
}

Seconds SimResult::turnaround_percentile(core::TaskClass klass,
                                         double p) const {
  DVFS_REQUIRE(p >= 0.0 && p <= 1.0, "percentile must be in [0, 1]");
  std::vector<Seconds> values;
  for (const TaskRecord& t : tasks) {
    if (t.klass == klass && t.completed()) values.push_back(t.turnaround());
  }
  DVFS_REQUIRE(!values.empty(), "no completed tasks of that class");
  std::sort(values.begin(), values.end());
  const std::size_t idx = static_cast<std::size_t>(
      p * static_cast<double>(values.size() - 1) + 0.5);
  return values[std::min(idx, values.size() - 1)];
}

Seconds SimResult::mean_turnaround(core::TaskClass klass) const {
  Seconds s = 0.0;
  std::size_t n = 0;
  for (const TaskRecord& t : tasks) {
    if (t.klass == klass && t.completed()) {
      s += t.turnaround();
      ++n;
    }
  }
  DVFS_REQUIRE(n > 0, "no completed tasks of that class");
  return s / static_cast<double>(n);
}

Engine::Engine(std::vector<core::EnergyModel> models,
               ContentionModel contention, double idle_watts,
               Seconds dvfs_transition_latency)
    : models_(std::move(models)),
      contention_(contention),
      idle_watts_(idle_watts),
      transition_latency_(dvfs_transition_latency) {
  DVFS_REQUIRE(!models_.empty(), "need at least one core");
  DVFS_REQUIRE(idle_watts_ >= 0.0, "idle power cannot be negative");
  DVFS_REQUIRE(transition_latency_ >= 0.0,
               "transition latency cannot be negative");
  cores_.resize(models_.size());
}

void Engine::charge_transition(std::size_t core, std::size_t new_rate) {
  CoreState& c = cores_[core];
  if (c.last_rate != kNoRate && c.last_rate != new_rate) {
    ++tally_.freq_transitions;
    if (recorder_ != nullptr) {
      recorder_->record(
          {.type = static_cast<std::uint8_t>(obs::dfr::EventType::kFreqChange),
           .core = static_cast<std::uint16_t>(core),
           .rate_idx = static_cast<std::uint16_t>(new_rate),
           .time_s = now_,
           .f0 = models_[core].rates()[new_rate]});
    }
    if (transition_latency_ > 0.0) c.stall_remaining += transition_latency_;
  }
  c.last_rate = new_rate;
}

void Engine::emit_task_span(std::size_t core, bool preempted) {
  if (recorder_ == nullptr) return;
  const CoreState& c = cores_[core];
  recorder_->record(
      {.type = static_cast<std::uint8_t>(obs::dfr::EventType::kSpanEnd),
       .flags = preempted ? obs::dfr::kFlagPreempted : std::uint8_t{0},
       .core = static_cast<std::uint16_t>(core),
       .rate_idx = static_cast<std::uint16_t>(c.rate_idx),
       .time_s = now_,
       .task = result_.tasks[c.record_idx].id,
       .f0 = c.span_start});
}

void Engine::check_core(std::size_t core) const {
  DVFS_REQUIRE(core < cores_.size(), "core index out of range");
}

void Engine::publish_stats() noexcept {
  stats_.arrivals.add(tally_.arrivals);
  stats_.completions.add(tally_.completions);
  stats_.timers.add(tally_.timers);
  stats_.starts.add(tally_.starts);
  stats_.preemptions.add(tally_.preemptions);
  stats_.freq_transitions.add(tally_.freq_transitions);
  stats_.queue_depth.add(tally_.queue_depth.buckets, tally_.queue_depth.sum);
  stats_.queue_wait_us.add(tally_.queue_wait_us.buckets,
                           tally_.queue_wait_us.sum);
  tally_ = Tally{};
}

const core::EnergyModel& Engine::model(std::size_t core) const {
  check_core(core);
  return models_[core];
}

bool Engine::busy(std::size_t core) const {
  check_core(core);
  return cores_[core].busy;
}

core::TaskId Engine::running_task(std::size_t core) const {
  return running_record(core).id;
}

const TaskRecord& Engine::running_record(std::size_t core) const {
  check_core(core);
  DVFS_REQUIRE(cores_[core].busy, "core is idle");
  return result_.tasks[cores_[core].record_idx];
}

std::size_t Engine::current_rate(std::size_t core) const {
  check_core(core);
  DVFS_REQUIRE(cores_[core].busy, "core is idle");
  return cores_[core].rate_idx;
}

double Engine::remaining_cycles(std::size_t core) const {
  check_core(core);
  DVFS_REQUIRE(cores_[core].busy, "core is idle");
  return cores_[core].remaining;
}

Seconds Engine::cumulative_busy_seconds(std::size_t core) const {
  check_core(core);
  return cores_[core].busy_seconds;
}

const TaskRecord& Engine::record(core::TaskId task) const {
  return result_.tasks[record_index(task)];
}

void Engine::reset_index(std::size_t tasks) {
  DVFS_REQUIRE(tasks < std::numeric_limits<std::uint32_t>::max(),
               "trace too large for 32-bit record indices");
  index_.assign(std::bit_ceil(std::max<std::size_t>(2 * tasks, 1)), 0);
  index_mask_ = index_.size() - 1;
}

std::size_t Engine::index_slot(core::TaskId task) const {
  return static_cast<std::size_t>(fmix64(task)) & index_mask_;
}

void Engine::insert_index(core::TaskId id, std::size_t idx) {
  std::size_t pos = index_slot(id);
  while (index_[pos] != 0) {
    DVFS_REQUIRE(result_.tasks[index_[pos] - 1].id != id,
                 "duplicate task id in trace");
    pos = (pos + 1) & index_mask_;
  }
  index_[pos] = static_cast<std::uint32_t>(idx + 1);
}

std::size_t Engine::record_index(core::TaskId task) const {
  for (std::size_t pos = index_slot(task);; pos = (pos + 1) & index_mask_) {
    const std::uint32_t entry = index_[pos];
    DVFS_REQUIRE(entry != 0, "unknown task id");
    // Entries left by an earlier run point past this run's records.
    DVFS_REQUIRE(entry <= result_.tasks.size(), "unknown task id");
    if (result_.tasks[entry - 1].id == task) return entry - 1;
  }
}

void Engine::arm(Slot& slot, Seconds eta) {
  slot = Slot{.armed = true, .eta = eta, .seq = next_seq_++};
  ++armed_count_;
}

void Engine::disarm(Slot& slot) {
  slot.armed = false;
  --armed_count_;
}

void Engine::sync_to(Seconds t) {
  DVFS_REQUIRE(t >= now_ - 1e-9, "time cannot go backwards");
  const Seconds dt = std::max(0.0, t - now_);
  if (dt > 0.0) {
    const double factor = contention_.factor(busy_count_);
    for (std::size_t j = 0; j < cores_.size(); ++j) {
      CoreState& c = cores_[j];
      if (!c.busy) {
        result_.idle_energy += idle_watts_ * dt;
        continue;
      }
      const core::EnergyModel& m = models_[j];
      const double tpc = m.time_per_cycle(c.rate_idx);
      // A pending DVFS transition stalls the core (busy power, no
      // progress) before execution resumes.
      const Seconds stalled = std::min(dt, c.stall_remaining);
      c.stall_remaining -= stalled;
      const double executed = (dt - stalled) / (tpc * factor);
      c.remaining = std::max(0.0, c.remaining - executed);
      const Joules joules = m.busy_power(c.rate_idx) * dt;
      result_.busy_energy += joules;
      result_.tasks[c.record_idx].energy += joules;
      result_.rate_residency[j][c.rate_idx] += dt;
      c.busy_seconds += dt;
    }
  }
  now_ = std::max(now_, t);
}

void Engine::reschedule_completions() {
  const double factor = contention_.factor(busy_count_);
  for (std::size_t j = 0; j < cores_.size(); ++j) {
    CoreState& c = cores_[j];
    if (!c.busy) continue;
    const double tpc = models_[j].time_per_cycle(c.rate_idx);
    const Seconds eta =
        now_ + c.stall_remaining + c.remaining * tpc * factor;
    if (c.completion.armed) {
      c.completion.eta = eta;  // re-keyed: keeps its sequence number
    } else {
      arm(c.completion, eta);
    }
  }
}

void Engine::check_start(std::size_t core, double remaining_cycles,
                         std::size_t rate_idx) const {
  check_core(core);
  DVFS_REQUIRE(running_, "start() is only valid during run()");
  DVFS_REQUIRE(!cores_[core].busy, "core already busy");
  DVFS_REQUIRE(remaining_cycles > 0.0, "nothing to execute");
  DVFS_REQUIRE(rate_idx < models_[core].num_rates(), "rate index out of range");
}

void Engine::start(std::size_t core, core::TaskId task,
                   double remaining_cycles, std::size_t rate_idx) {
  check_start(core, remaining_cycles, rate_idx);
  start_record(core, record_index(task), remaining_cycles, rate_idx);
}

void Engine::start(std::size_t core, const TaskRecord& rec,
                   double remaining_cycles, std::size_t rate_idx) {
  check_start(core, remaining_cycles, rate_idx);
  const TaskRecord* first = result_.tasks.data();
  DVFS_REQUIRE(!std::less<>{}(&rec, first) &&
                   std::less<>{}(&rec, first + result_.tasks.size()),
               "record is not from this run");
  start_record(core, static_cast<std::size_t>(&rec - first), remaining_cycles,
               rate_idx);
}

void Engine::start_record(std::size_t core, std::size_t idx,
                          double remaining_cycles, std::size_t rate_idx) {
  TaskRecord& rec = result_.tasks[idx];
  DVFS_REQUIRE(!rec.completed(), "task already completed");
  if (!rec.started()) {
    rec.first_start = now_;
    // Queue wait = arrival to first start, in integer microseconds (the
    // histogram buckets integers; sub-microsecond waits land in bucket 0).
    tally_.queue_wait_us.observe(
        static_cast<std::uint64_t>(std::max(0.0, now_ - rec.arrival) * 1e6));
  }

  CoreState& c = cores_[core];
  c.busy = true;
  c.record_idx = idx;
  c.remaining = remaining_cycles;
  c.rate_idx = rate_idx;
  c.span_start = now_;
  ++tally_.starts;
  if (recorder_ != nullptr) {
    recorder_->record(
        {.type = static_cast<std::uint8_t>(obs::dfr::EventType::kTaskStart),
         .core = static_cast<std::uint16_t>(core),
         .rate_idx = static_cast<std::uint16_t>(rate_idx),
         .time_s = now_,
         .task = rec.id,
         .f0 = remaining_cycles});
  }
  charge_transition(core, rate_idx);
  ++busy_count_;
  reschedule_completions();
}

Engine::Preempted Engine::preempt(std::size_t core) {
  check_core(core);
  DVFS_REQUIRE(running_, "preempt() is only valid during run()");
  CoreState& c = cores_[core];
  DVFS_REQUIRE(c.busy, "core is idle");
  TaskRecord& rec = result_.tasks[c.record_idx];
  rec.preemptions += 1;
  ++tally_.preemptions;
  emit_task_span(core, /*preempted=*/true);
  // A preemption racing the task's own completion instant can observe a
  // ~zero remainder; keep it strictly positive (start() requires work to
  // do) but negligible, so cycle conservation holds to float precision.
  Preempted out{rec.id, std::max(c.remaining, 1e-9)};
  c.stall_remaining = 0.0;
  c.busy = false;
  --busy_count_;
  disarm(c.completion);
  reschedule_completions();
  return out;
}

void Engine::set_rate(std::size_t core, std::size_t rate_idx) {
  check_core(core);
  DVFS_REQUIRE(running_, "set_rate() is only valid during run()");
  CoreState& c = cores_[core];
  DVFS_REQUIRE(c.busy, "core is idle");
  DVFS_REQUIRE(rate_idx < models_[core].num_rates(), "rate index out of range");
  if (c.rate_idx == rate_idx) return;
  c.rate_idx = rate_idx;
  charge_transition(core, rate_idx);
  reschedule_completions();
}

void Engine::decide(obs::dfr::DecisionScope scope, core::TaskId task,
                    std::size_t core, Cycles cycles,
                    std::span<const double> candidates, double f1,
                    std::size_t rate_idx) {
  check_core(core);
  double cost = 0.0;
  if (!candidates.empty()) {
    DVFS_REQUIRE(candidates.size() == num_cores(),
                 "one candidate cost per core required");
    cost = candidates[core];
    chosen_sum_ += cost;
    best_sum_ += candidates[argmin(candidates)];
    stats_.margin_ratio.set(
        chosen_sum_ > 0.0 ? (chosen_sum_ - best_sum_) / chosen_sum_ : 0.0);
  }
  if (recorder_ != nullptr) {
    obs::record_decision(*recorder_,
                         {.time_s = now_,
                          .scope = scope,
                          .task = task,
                          .core = core,
                          .cycles = cycles,
                          .rate_idx = rate_idx,
                          .cost = cost,
                          .f1 = f1},
                         candidates);
  }
}

void Engine::record_params(obs::dfr::PolicyKind kind, double re, double rt) {
  if (recorder_ != nullptr) {
    obs::record_params(*recorder_, now_, kind, num_cores(), re, rt);
  }
}

SimResult Engine::run(const workload::Trace& trace, Policy& policy) {
  DVFS_REQUIRE(!running_, "engine is already running");
  // Reset per-run state.
  result_ = SimResult{};
  result_.rate_residency.resize(models_.size());
  for (std::size_t j = 0; j < models_.size(); ++j) {
    result_.rate_residency[j].assign(models_[j].num_rates(), 0.0);
  }
  result_.tasks.reserve(trace.size());
  reset_index(trace.size());
  for (CoreState& c : cores_) c = CoreState{};
  timer_ = Slot{};
  armed_count_ = 0;
  next_seq_ = 0;
  busy_count_ = 0;
  now_ = 0.0;
  chosen_sum_ = 0.0;
  best_sum_ = 0.0;
  stats_.margin_ratio.set(0.0);
  running_ = true;
  // On every exit, a run that throws (a duplicate task id, a negative
  // timer interval, a policy error) included: the tallies reach the
  // registry and the engine is reusable.
  struct StopOnExit {
    Engine& engine;
    ~StopOnExit() {
      engine.publish_stats();
      engine.running_ = false;
    }
  } stop_on_exit{*this};

  // Arrivals stream from the sorted trace; the slots hold only
  // completions and the timer (see the event-order contract in engine.h).
  std::size_t next_arrival = 0;

  const Seconds tick = policy.timer_interval();
  DVFS_REQUIRE(tick >= 0.0, "timer interval cannot be negative");
  if (tick > 0.0) arm(timer_, tick);

  if (recorder_ != nullptr) {
    recorder_->record(
        {.type = static_cast<std::uint8_t>(obs::dfr::EventType::kRunBegin),
         .core = static_cast<std::uint16_t>(num_cores()),
         .time_s = now_});
  }
  // Wraps a policy callback. On every kDecisionSampleEvery-th callback of
  // the run the wall-clock spent inside it is the governor's decision
  // latency (simulated time stands still meanwhile); the others read no
  // clock.
  std::uint64_t callbacks = 0;
  const auto timed_call = [&](obs::dfr::DecisionKind what, auto&& fn) {
    if (callbacks++ % kDecisionSampleEvery == 0) {
      const std::uint64_t t0 = obs::now_ns();
      fn();
      stats_.decision_ns.observe(obs::now_ns() - t0);
    } else {
      fn();
    }
    if (recorder_ != nullptr) {
      recorder_->record(
          {.type = static_cast<std::uint8_t>(obs::dfr::EventType::kDecision),
           .aux = static_cast<std::uint16_t>(what),
           .time_s = now_,
           .f1 = static_cast<double>(busy_count_)});
    }
  };

  policy.attach(*this);

  while (next_arrival < trace.size() || armed_count_ > 0) {
    if (tally_.events == kPublishEvents) publish_stats();
    ++tally_.events;
    const std::size_t arrivals_pending = trace.size() - next_arrival;
    tally_.queue_depth.observe(
        static_cast<std::uint64_t>(armed_count_ + arrivals_pending));
    // The armed slot with the least (eta, seq): core j's completion, or
    // the timer at j == n.
    const std::size_t n = cores_.size();
    Slot* next = nullptr;
    std::size_t next_j = 0;
    for (std::size_t j = 0; j <= n; ++j) {
      Slot& s = j < n ? cores_[j].completion : timer_;
      if (s.armed && (next == nullptr || s.eta < next->eta ||
                      (s.eta == next->eta && s.seq < next->seq))) {
        next = &s;
        next_j = j;
      }
    }
    // An arrival wins a tie with a completion or timer (engine.h).
    const bool arrival =
        arrivals_pending > 0 &&
        (next == nullptr || trace[next_arrival].arrival <= next->eta);
    const Seconds t = arrival ? trace[next_arrival].arrival : next->eta;
    Event ev{EventKind::kArrival, next_arrival};
    if (arrival) {
      ++next_arrival;
    } else {
      ev = next_j == n ? Event{EventKind::kTimer, 0}
                       : Event{EventKind::kCompletion, next_j};
      disarm(*next);
    }
    sync_to(t);

    switch (ev.kind) {
      case EventKind::kArrival: {
        const core::Task& task = trace[ev.index];
        if (ev.index + kIndexPrefetchDistance < trace.size()) {
          __builtin_prefetch(&index_[index_slot(
              trace[ev.index + kIndexPrefetchDistance].id)]);
        }
        insert_index(task.id, result_.tasks.size());
        result_.tasks.push_back(TaskRecord{.id = task.id,
                                           .klass = task.klass,
                                           .cycles = task.cycles,
                                           .arrival = task.arrival,
                                           .deadline = task.deadline});
        ++tally_.arrivals;
        if (recorder_ != nullptr) {
          obs::record_arrival(
              *recorder_, {.time_s = now_,
                           .task = task.id,
                           .cycles = task.cycles,
                           .klass = static_cast<std::uint16_t>(task.klass),
                           .deadline = task.deadline});
        }
        timed_call(obs::dfr::DecisionKind::kOnArrival,
                   [&] { policy.on_arrival(*this, task); });
        break;
      }
      case EventKind::kCompletion: {
        const std::size_t core = ev.index;
        CoreState& c = cores_[core];
        DVFS_REQUIRE(c.busy, "completion event for idle core");
        DVFS_REQUIRE(c.remaining <= kCompletionEpsilonCycles,
                     "completion event fired early");
        c.remaining = 0.0;
        ++tally_.completions;
        emit_task_span(core, /*preempted=*/false);
        c.busy = false;
        --busy_count_;
        TaskRecord& rec = result_.tasks[c.record_idx];
        rec.finish = now_;
        if (recorder_ != nullptr) {
          recorder_->record(
              {.type = static_cast<std::uint8_t>(
                   obs::dfr::EventType::kTaskFinish),
               .core = static_cast<std::uint16_t>(core),
               .time_s = now_,
               .task = rec.id,
               .f0 = rec.energy,
               .f1 = rec.turnaround()});
        }
        reschedule_completions();
        timed_call(obs::dfr::DecisionKind::kOnComplete,
                   [&] { policy.on_complete(*this, core, rec.id); });
        break;
      }
      case EventKind::kTimer: {
        ++tally_.timers;
        timed_call(obs::dfr::DecisionKind::kOnTimer,
                   [&] { policy.on_timer(*this); });
        const bool work_left = next_arrival < trace.size() ||
                               busy_count_ > 0 || !policy.idle();
        if (work_left) arm(timer_, now_ + tick);
        break;
      }
    }
  }

  result_.end_time = now_;
  return std::move(result_);
}

}  // namespace dvfs::sim
