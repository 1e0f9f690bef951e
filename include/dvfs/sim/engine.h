/// \file engine.h
/// \brief Event-driven multi-core DVFS simulator (Section V-B).
///
/// The paper evaluates the online mode with an event-driven simulator
/// whose events are task arrivals and completions; this engine generalizes
/// that with preemption, mid-flight frequency changes, periodic governor
/// timers, and the contention model needed for the Fig. 1 experiment.
///
/// Division of labour: the engine owns *mechanism* — per-core execution
/// progress, cancellable completion events, energy integration, task
/// records. A Policy owns *strategy* — which core a task goes to, what
/// runs next, at which rate. The paper's schedulers (LMC, OLB, On-demand,
/// Power Saving, WBG plan execution) are Policy implementations in
/// dvfs::governors.
///
/// Execution model: core j at rate index r executes 1 / (T_j(r) * f(b))
/// cycles per second while b cores are busy (f from ContentionModel), and
/// draws busy power E_j(r) / T_j(r) watts. Between events all state is
/// constant, so progress integrates exactly.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "dvfs/core/energy_model.h"
#include "dvfs/core/task.h"
#include "dvfs/obs/metrics.h"
#include "dvfs/obs/recorder_format.h"
#include "dvfs/sim/contention.h"
#include "dvfs/sim/metrics.h"
#include "dvfs/workload/trace.h"

namespace dvfs::obs {
class RecorderChannel;
}  // namespace dvfs::obs

namespace dvfs::sim {

class Engine;

/// Index of the cheapest cost; the lowest index wins ties.
[[nodiscard]] std::size_t argmin(std::span<const double> costs);

/// Scheduling strategy driven by the engine's events.
class Policy {
 public:
  virtual ~Policy() = default;

  /// Called once before the run starts (after cores are configured).
  virtual void attach(Engine& engine) { (void)engine; }

  /// A task from the trace has arrived. The policy may start it, queue it
  /// internally, preempt something, or re-rate running work.
  virtual void on_arrival(Engine& engine, const core::Task& task) = 0;

  /// Core `core` finished `task` and is now idle.
  virtual void on_complete(Engine& engine, std::size_t core,
                           core::TaskId task) = 0;

  /// Periodic callback every timer_interval() seconds (if positive).
  virtual void on_timer(Engine& engine) { (void)engine; }
  [[nodiscard]] virtual Seconds timer_interval() const { return 0.0; }

  /// False while the policy still holds queued work (keeps timers alive
  /// when all cores happen to be idle).
  [[nodiscard]] virtual bool idle() const { return true; }
};

class Engine {
 public:
  /// One energy model per core (homogeneous platforms pass copies).
  /// `idle_watts` is the per-core idle power, integrated separately.
  /// `dvfs_transition_latency`: a core stalls this long (no progress,
  /// busy power at the new rate) whenever its frequency changes — set
  /// non-zero to drop the paper's free-transition assumption online
  /// (ablation A14). The first task after boot pays nothing.
  Engine(std::vector<core::EnergyModel> models, ContentionModel contention,
         double idle_watts = 0.0, Seconds dvfs_transition_latency = 0.0);

  // ------------------------------------------------------------- topology
  [[nodiscard]] std::size_t num_cores() const { return cores_.size(); }
  [[nodiscard]] const core::EnergyModel& model(std::size_t core) const;
  [[nodiscard]] const ContentionModel& contention() const {
    return contention_;
  }

  // ------------------------------------------------- policy control surface
  /// Begins (or resumes) `task` on an idle core. `remaining` may be less
  /// than the task's total cycles when resuming preempted work.
  void start(std::size_t core, core::TaskId task, double remaining_cycles,
             std::size_t rate_idx);
  /// The same for the task whose record `rec` is (from record() or
  /// running_record() during this run), without looking its id up again.
  void start(std::size_t core, const TaskRecord& rec, double remaining_cycles,
             std::size_t rate_idx);

  struct Preempted {
    core::TaskId task = 0;
    double remaining_cycles = 0.0;
  };
  /// Stops the task running on `core` and returns what is left of it.
  [[nodiscard]] Preempted preempt(std::size_t core);

  /// Changes the rate of the running task (per-core DVFS mid-flight).
  void set_rate(std::size_t core, std::size_t rate_idx);

  [[nodiscard]] bool busy(std::size_t core) const;
  [[nodiscard]] core::TaskId running_task(std::size_t core) const;
  [[nodiscard]] std::size_t current_rate(std::size_t core) const;
  [[nodiscard]] double remaining_cycles(std::size_t core) const;

  /// Current simulated time (valid during callbacks).
  [[nodiscard]] Seconds now() const { return now_; }

  /// Total busy seconds core `core` has accumulated; governors sample the
  /// difference between ticks to compute loading.
  [[nodiscard]] Seconds cumulative_busy_seconds(std::size_t core) const;

  /// Record of a task seen so far this run (by id). Throws "unknown task
  /// id" for an id that has not arrived yet.
  [[nodiscard]] const TaskRecord& record(core::TaskId task) const;

  /// Record of the task running on `core`, read straight from the core
  /// (no id lookup); equals record(running_task(core)). Throws "core is
  /// idle" when nothing runs there.
  [[nodiscard]] const TaskRecord& running_record(std::size_t core) const;

  // ---------------------------------------------------------- observability
  /// Attaches a flight-recorder channel (see dvfs/obs/recorder.h);
  /// nullptr detaches. The recorder is the engine's only event sink: it
  /// pushes fixed-size events for the run boundary, task lifecycle,
  /// frequency transitions, and policy callbacks, and
  /// `obs::replay_to_trace` turns them into a Chrome trace (task spans
  /// per core, frequency-change and decision instants, busy-core
  /// counter). Policies record their parameters and placement decisions
  /// through `record_params()` and `decide()`, so one recording
  /// interleaves mechanism and strategy in decision order. No event
  /// carries wall time, so two runs of one trace record the same events.
  ///
  /// Registry metrics: the per-event counters and histograms
  /// (`sim.events.*`, `sim.tasks.started`/`preempted`,
  /// `sim.freq_transitions`, `sim.event_queue_depth`,
  /// `sim.task.queue_wait_us`) are tallied in plain run-local fields and
  /// added to the registry every kPublishEvents events and when run()
  /// returns or throws, so a reader during a run lags by at most that
  /// many events. `sim.governor.decision_ns` times one policy callback in
  /// kDecisionSampleEvery, picked by a run-wide callback count (the 1st,
  /// 65th, ...), so a run of n callbacks observes ceil(n / 64) samples.
  static constexpr std::uint64_t kPublishEvents = 4096;
  static constexpr std::uint64_t kDecisionSampleEvery = 64;
  void set_recorder(obs::RecorderChannel* channel) { recorder_ = channel; }
  [[nodiscard]] obs::RecorderChannel* recorder() const { return recorder_; }

  /// A placement: `task`, priced at `cycles`, goes to `core`;
  /// `candidates[j]` is core j's cost (empty for a precomputed plan).
  /// Sets the gauge `governor.cost.margin_ratio` to this run's
  /// (sum(chosen) - sum(best)) / sum(chosen), and records the decision
  /// (obs::record_decision, f0 = candidates[core]) when recording.
  void decide(obs::dfr::DecisionScope scope, core::TaskId task,
              std::size_t core, Cycles cycles,
              std::span<const double> candidates, double f1 = 0.0,
              std::size_t rate_idx = 0);

  /// Records the policy's kind and cost weights (from Policy::attach()).
  void record_params(obs::dfr::PolicyKind kind, double re = 0.0,
                     double rt = 0.0);

  // ---------------------------------------------------------------- running
  /// Simulates `trace` to completion under `policy` and returns the
  /// metrics. The engine is reusable: each run starts from idle cores,
  /// including after a run that threw.
  ///
  /// Event order: arrivals are delivered in trace order (the trace is
  /// sorted by arrival, then id) as they come due. Besides the next
  /// arrival, the pending events live in fixed slots: one completion slot
  /// per core, armed while the core is busy, and one timer slot. Each
  /// armed slot carries its time and a push sequence number drawn from a
  /// run-wide counter when the slot is armed (a new completion, or the
  /// timer re-armed); re-keying a busy core's completion after a state
  /// change keeps its sequence number. The next event is the arrival when
  /// its time is <= every armed slot's (an arrival wins a tie); otherwise
  /// the armed slot with the least (time, sequence), so completions and
  /// timers at one instant fire in the order they were armed. The pending
  /// event count (sim.event_queue_depth) is the armed slots plus the
  /// arrivals not yet delivered.
  SimResult run(const workload::Trace& trace, Policy& policy);

 private:
  /// A pending completion or timer: due at `eta`, ordered among equal
  /// times by `seq` (see the event-order contract on run()).
  struct Slot {
    bool armed = false;
    Seconds eta = 0.0;
    std::uint64_t seq = 0;
  };

  struct CoreState {
    bool busy = false;
    std::size_t record_idx = 0;   // into result_.tasks
    double remaining = 0.0;       // cycles
    std::size_t rate_idx = 0;
    std::size_t last_rate = kNoRate;  // persists across idle gaps
    Seconds stall_remaining = 0.0;    // pending DVFS transition stall
    Slot completion;                  // armed while busy
    Seconds busy_seconds = 0.0;
    Seconds span_start = 0.0;  // when the current execution span began
  };
  static constexpr std::size_t kNoRate = static_cast<std::size_t>(-1);

  /// Engine-wide metrics, resolved once from the global registry (no
  /// name lookup, no lock when publishing).
  struct Stats {
    Stats();
    obs::Counter& arrivals;
    obs::Counter& completions;
    obs::Counter& timers;
    obs::Counter& starts;
    obs::Counter& preemptions;
    obs::Counter& freq_transitions;
    obs::Histogram& queue_depth;
    obs::Histogram& decision_ns;
    obs::Histogram& queue_wait_us;
    obs::Gauge& margin_ratio;
  };

  /// A histogram counted in plain fields (obs::Histogram's buckets).
  struct HistogramTally {
    std::array<std::uint64_t, obs::Histogram::kNumBuckets> buckets{};
    std::uint64_t sum = 0;
    void observe(std::uint64_t v) {
      ++buckets[obs::Histogram::bucket_index(v)];
      sum += v;
    }
  };

  /// What the run counted since it last published to stats_.
  struct Tally {
    std::uint64_t events = 0;
    std::uint64_t arrivals = 0;
    std::uint64_t completions = 0;
    std::uint64_t timers = 0;
    std::uint64_t starts = 0;
    std::uint64_t preemptions = 0;
    std::uint64_t freq_transitions = 0;
    HistogramTally queue_depth;
    HistogramTally queue_wait_us;
  };

  /// Adds tally_ to the registry and clears it.
  void publish_stats() noexcept;

  /// Charges the transition stall (and counts/records the frequency
  /// change) when `core`'s frequency differs from its last one.
  void charge_transition(std::size_t core, std::size_t new_rate);

  /// Records the end of `core`'s current execution span at now().
  void emit_task_span(std::size_t core, bool preempted);

  enum class EventKind : std::uint8_t { kArrival, kCompletion, kTimer };
  struct Event {
    EventKind kind;
    std::size_t index;  // arrival: trace index; completion: core index
  };

  /// Arms `slot` at `eta` with the next push sequence number.
  void arm(Slot& slot, Seconds eta);
  void disarm(Slot& slot);

  void check_core(std::size_t core) const;
  /// start()'s checks of everything but the task.
  void check_start(std::size_t core, double remaining_cycles,
                   std::size_t rate_idx) const;
  /// Begins record `idx` on `core` once check_start() passed.
  void start_record(std::size_t core, std::size_t idx,
                    double remaining_cycles, std::size_t rate_idx);
  [[nodiscard]] std::size_t busy_count() const { return busy_count_; }

  /// Advances all cores from last_update_ to `t`, integrating cycles and
  /// energy with the contention factor of the elapsed segment.
  void sync_to(Seconds t);

  /// Re-keys every busy core's completion event after a state change.
  void reschedule_completions();

  /// Sizes the record index for `tasks` arrivals and empties it.
  void reset_index(std::size_t tasks);
  /// Files record `idx` (about to be appended) under `id`; throws on a
  /// duplicate id.
  void insert_index(core::TaskId id, std::size_t idx);
  [[nodiscard]] std::size_t index_slot(core::TaskId task) const;
  [[nodiscard]] std::size_t record_index(core::TaskId task) const;

  std::vector<core::EnergyModel> models_;
  ContentionModel contention_;
  double idle_watts_;
  Seconds transition_latency_;

  // Per-run state.
  std::vector<CoreState> cores_;
  std::size_t busy_count_ = 0;
  Seconds now_ = 0.0;
  Slot timer_;
  std::size_t armed_count_ = 0;  // armed completion slots + timer
  std::uint64_t next_seq_ = 0;
  SimResult result_;
  // Open-addressing record index (linear probing, fmix64 of the id):
  // each entry is a result_.tasks index + 1, 0 marks an empty slot. Its
  // size is a power of two at least twice the trace's task count.
  std::vector<std::uint32_t> index_ = std::vector<std::uint32_t>(1, 0);
  std::size_t index_mask_ = 0;
  bool running_ = false;

  // Chosen and best candidate costs summed over this run's decisions.
  double chosen_sum_ = 0.0;
  double best_sum_ = 0.0;

  Stats stats_;
  Tally tally_;
  obs::RecorderChannel* recorder_ = nullptr;
};

}  // namespace dvfs::sim
