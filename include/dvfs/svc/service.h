/// \file service.h
/// \brief Long-running sharded LMC scheduling service (daemon mode).
///
/// Promotes the paper's run-to-completion Least Marginal Cost scheduler
/// into an online service that admits a continuous task stream:
///
///  * **Admission.** `submit()` sends each task to the shard with the
///    least outstanding cycles per owned core (ties go to the shard with
///    more cores, then to `route(id)`, a stable hash of the id) and
///    pushes a fixed-size message into that shard's lock-free MPSC ring
///    (svc/mpsc_ring.h). Producers add the cycles they admit to a
///    per-shard tally and take back what a full ring refused; the
///    shard's worker subtracts what it dispatches. A batch is routed
///    task by task against the tallies plus its own earlier tasks,
///    grouped by shard, and each group claimed with one ring operation.
///    A full ring rejects the submission — backpressure is returned to
///    the caller (the HTTP layer answers 503), never silently queued.
///
///  * **Shards.** Each shard owns a contiguous subset of the platform's
///    cores and runs a private `core::LmcScheduler` over exactly those
///    cores — its own flat range trees, cost tables, and envelope
///    caches. One worker thread per shard drains its ring in batches and
///    places every task with the Eq. 27 / Algorithm 4–6 machinery,
///    untouched. All LMC state is thread-confined: no locks on the
///    decision path, and a sharded run over a partitioned core set makes
///    *identical* decisions to N independent schedulers fed the streams
///    the tickets name (the differential oracle in test_svc_service.cpp
///    holds this).
///
///  * **Drain.** `drain()` closes admission, waits for in-flight
///    submits, then stops the workers, each once its ring reads empty.
///    Queued-but-unexecuted decisions stay queryable; the caller flushes
///    the recorder/metrics epilogue afterwards. This is what
///    `dvfs_execute --serve` runs on SIGINT/SIGTERM.
///
/// Everything observable goes through the metrics registry (`svc.*`
/// counters/gauges/histograms; `svc.admission.latency_us` feeds the
/// builtin `admission-latency-p99` health rule) and, when a recorder is
/// attached, one flight-recorder channel per shard.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <thread>
#include <vector>

#include "dvfs/core/cost_model.h"
#include "dvfs/core/online_lmc.h"
#include "dvfs/obs/metrics.h"
#include "dvfs/obs/reqtrace.h"
#include "dvfs/svc/mpsc_ring.h"
#include "dvfs/svc/task_table.h"

namespace dvfs::obs {
class Recorder;
class RecorderChannel;
}  // namespace dvfs::obs

namespace dvfs::svc {

/// Fixed-size admission-ring message (POD, like a recorder event).
struct Msg {
  core::TaskId id = 0;
  Cycles cycles = 0;
  /// steady-clock nanoseconds at the ring push; admission latency is
  /// measured against the placement instant.
  std::uint64_t enqueue_ns = 0;
  /// steady-clock nanoseconds at the submission boundary. Rides in the
  /// message because the shard worker — the only thread allowed to write
  /// the shard's SPSC recorder channel — emits the ingress span event
  /// after dequeue.
  std::uint64_t recv_ns = 0;
  /// 64-bit request-trace id assigned at ingress.
  std::uint64_t trace = 0;
};

/// One task to admit: what a `POST /submit` body names per task.
struct Submission {
  core::TaskId id = 0;
  Cycles cycles = 0;
};

struct ServiceOptions {
  std::size_t shards = 2;
  /// Total platform cores, partitioned contiguously across shards
  /// (shard i owns [i*cores/shards, (i+1)*cores/shards)). Must be
  /// >= shards.
  std::size_t cores = 4;
  /// Per-shard admission ring slots (rounds up to a power of two).
  std::size_t ring_capacity = std::size_t{1} << 16;
  /// Max ring messages a shard handles per loop iteration. 0 starves the
  /// shard on purpose (never drains while serving) — the backpressure /
  /// 503 smoke-test hook; `drain()` still flushes.
  std::size_t max_batch = 256;
  /// Bound on remembered tasks, covering both the decision status and
  /// the request timeline; oldest entries are evicted first (a
  /// long-running daemon cannot keep every ticket forever).
  std::size_t status_capacity = std::size_t{1} << 20;
  /// Wall seconds per model second of *virtual execution*: > 0 lets each
  /// shard pop its queue fronts as their scaled durations elapse, so a
  /// serving daemon's queues drain. 0 = placement-only (queues grow
  /// until drained; what the differential oracle and the admission
  /// bench want).
  double time_scale = 0.0;
  /// Metrics sink; nullptr = obs::Registry::global().
  obs::Registry* registry = nullptr;
};

class SchedulingService {
 public:
  /// Homogeneous platform: every core is priced by `model` under
  /// `params` (heterogeneous shards would take per-core tables; the
  /// sharding machinery does not care).
  SchedulingService(core::EnergyModel model, core::CostParams params,
                    ServiceOptions options);
  ~SchedulingService();

  SchedulingService(const SchedulingService&) = delete;
  SchedulingService& operator=(const SchedulingService&) = delete;

  /// Attach before start(): shard i records kTaskArrival/kPlacement
  /// events into `recorder->channel(i)` (the recorder needs at least
  /// `shards()` channels).
  void set_recorder(obs::Recorder* recorder);

  /// Spawns the shard worker threads. Throws if already started.
  void start();

  struct Ticket {
    bool accepted = false;
    std::uint16_t shard = 0;
    /// Request-trace id assigned at ingress (0 when rejected).
    std::uint64_t trace = 0;
  };

  /// Lock-free admission of a batch from any thread. The tasks share one
  /// receive instant and consecutive trace ids in request order (one
  /// submitter mints the ids task-by-task admission would). Each shard
  /// gets its tasks in request order with one ring claim; when its ring
  /// is full it takes the prefix that fits and rejects the rest. The
  /// draining service rejects everything. Returns the number accepted;
  /// a non-empty `tickets` must be as long as `tasks` and receives each
  /// task's ticket.
  std::size_t submit(std::span<const Submission> tasks,
                     std::span<Ticket> tickets = {});

  /// One-task admission: a batch of one.
  Ticket submit(core::TaskId id, Cycles cycles);

  /// Closes admission, waits for in-flight submits, then joins the
  /// workers, each of which exits once it has emptied its ring.
  /// Idempotent. Shards flush their rings with a real batch size even
  /// under max_batch = 0.
  void drain();

  /// Decision lookup; nullopt for unknown (or evicted) ids.
  [[nodiscard]] std::optional<TaskStatus> status(core::TaskId id) const;

  /// The stable hash shard of `id`: where submit() sends it when shards
  /// tie on load and core count, and the task table's stripe for it.
  [[nodiscard]] static std::size_t route(core::TaskId id,
                                         std::size_t shards);

  [[nodiscard]] std::size_t shards() const { return shards_.size(); }
  [[nodiscard]] std::size_t cores() const { return options_.cores; }
  [[nodiscard]] bool draining() const {
    return phase_.load(std::memory_order_acquire) != Phase::kRunning;
  }

  /// Monotonic run counters (relaxed; exact after drain()).
  [[nodiscard]] std::uint64_t submitted() const;
  [[nodiscard]] std::uint64_t rejected() const;
  [[nodiscard]] std::uint64_t placed() const;
  [[nodiscard]] std::uint64_t completed() const;

  /// The task table behind status() and the live per-task request
  /// timelines (always on). `traces().get(id)` backs
  /// `GET /tasks/{id}/trace`.
  [[nodiscard]] const TaskTable& traces() const { return tasks_; }
  /// Per-histogram exemplar slots; pass to the two-argument
  /// `prometheus_text()` so `/metrics` links buckets to trace ids.
  [[nodiscard]] const obs::reqtrace::ExemplarStore& exemplars() const {
    return exemplars_;
  }

 private:
  enum class Phase : std::uint8_t { kIdle, kRunning, kDraining, kStopped };

  struct Shard;

  void worker(Shard& shard);
  void handle_submit(Shard& shard, const Msg& msg, std::uint64_t dequeue_ns);
  void virtual_execute(Shard& shard);
  void publish_gauges(Shard& shard);

  core::EnergyModel model_;
  core::CostParams params_;
  ServiceOptions options_;
  obs::Registry* registry_ = nullptr;
  obs::Recorder* recorder_ = nullptr;

  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<Phase> phase_{Phase::kIdle};
  /// Submitters currently between the admission phase-gate and their ring
  /// push; drain() waits for this to hit zero after flipping the phase so
  /// no accepted ticket can land in a ring the drain no longer watches.
  std::atomic<std::uint64_t> inflight_submits_{0};

  // Request tracing: id source and per-bucket exemplars.
  std::atomic<std::uint64_t> trace_seq_{0};
  obs::reqtrace::ExemplarStore exemplars_;

  // svc.* instruments, resolved once.
  obs::Counter& submitted_;
  obs::Counter& rejected_;
  obs::Counter& placed_;
  obs::Counter& completed_;
  obs::Histogram& admission_latency_us_;
  obs::Histogram& batch_size_;
  obs::Histogram& queue_wait_us_;
  obs::reqtrace::ExemplarSeries& admission_exemplars_;
  obs::reqtrace::ExemplarSeries& queue_wait_exemplars_;

  // Per-task status and timeline, striped by route(id) so a lookup needs
  // only the id. Writes come from the shard threads, reads from HTTP
  // lookups.
  TaskTable tasks_;
};

}  // namespace dvfs::svc
