/// Tests for svc::SchedulingService: the sharded-vs-independent
/// differential oracle (a sharded run over a partitioned core set must
/// make decisions identical to N standalone LMC schedulers), admission
/// backpressure, work stealing, status eviction, virtual execution, and
/// the recorder integration. Run under TSan in CI.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <optional>
#include <span>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "dvfs/core/energy_model.h"
#include "dvfs/core/online_lmc.h"
#include "dvfs/obs/recorder.h"
#include "proptest/rng.h"
#include "dvfs/svc/service.h"

namespace dvfs::svc {
namespace {

core::EnergyModel test_model() { return core::EnergyModel::icpp2014_table2(); }
constexpr core::CostParams kParams{0.4, 0.1};

ServiceOptions quiet_options(std::size_t shards, std::size_t cores) {
  ServiceOptions opts;
  opts.shards = shards;
  opts.cores = cores;
  opts.steal_ratio = 0.0;  // determinism: no cross-shard migration
  return opts;
}

/// Polls `pred` for up to `timeout_ms`; returns whether it turned true.
template <typename Pred>
bool eventually(Pred pred, int timeout_ms = 5000) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return pred();
}

TEST(SchedulingService, RouteIsStableAndCoversShards) {
  std::vector<bool> hit(8, false);
  for (core::TaskId id = 0; id < 1000; ++id) {
    const std::size_t shard = SchedulingService::route(id, 8);
    ASSERT_LT(shard, 8u);
    EXPECT_EQ(shard, SchedulingService::route(id, 8));  // stable
    hit[shard] = true;
  }
  // The id hash must spread sequential ids across every shard.
  for (std::size_t s = 0; s < 8; ++s) EXPECT_TRUE(hit[s]) << "shard " << s;
}

TEST(SchedulingService, PlacesEverySubmittedTask) {
  obs::Registry registry;
  ServiceOptions opts = quiet_options(2, 4);
  opts.registry = &registry;
  SchedulingService svc(test_model(), kParams, opts);
  svc.start();
  proptest::SplitMix64 rng(42);
  for (core::TaskId id = 1; id <= 200; ++id) {
    const auto ticket = svc.submit(id, rng.uniform_u64(100'000, 50'000'000));
    ASSERT_TRUE(ticket.accepted);
    EXPECT_EQ(ticket.shard, SchedulingService::route(id, 2));
  }
  svc.drain();
  EXPECT_EQ(svc.submitted(), 200u);
  EXPECT_EQ(svc.placed(), 200u);
  EXPECT_EQ(svc.rejected(), 0u);
  for (core::TaskId id = 1; id <= 200; ++id) {
    const std::optional<TaskStatus> st = svc.status(id);
    ASSERT_TRUE(st.has_value()) << "task " << id;
    EXPECT_EQ(st->shard, SchedulingService::route(id, 2));
    ASSERT_LT(st->core, 4u);
    // Shard 0 owns cores [0,2), shard 1 owns [2,4).
    EXPECT_EQ(st->core / 2, st->shard);
    EXPECT_FALSE(st->stolen);
  }
  EXPECT_EQ(svc.shard_queue_len(0) + svc.shard_queue_len(1), 200u);
}

// The tentpole correctness property: a sharded service over a
// partitioned core set makes exactly the decisions of N independent
// single-shard LMC schedulers fed the same per-shard submission streams
// in the same order. Any cross-shard state leak, reordering, or
// shard-local cost drift breaks the bit-exact comparison.
TEST(SchedulingService, DifferentialOracleMatchesIndependentSchedulers) {
  constexpr std::size_t kShards = 3;
  constexpr std::size_t kCores = 7;  // uneven split: 2+2+3 partition
  ServiceOptions opts = quiet_options(kShards, kCores);
  obs::Registry registry;
  opts.registry = &registry;
  SchedulingService svc(test_model(), kParams, opts);
  svc.start();

  proptest::SplitMix64 rng(0xdec15105);
  struct Submitted {
    core::TaskId id;
    Cycles cycles;
  };
  std::vector<Submitted> stream;
  for (core::TaskId id = 1; id <= 600; ++id) {
    const Cycles cycles = rng.uniform_u64(10'000, 100'000'000);
    stream.push_back({id, cycles});
    ASSERT_TRUE(svc.submit(id, cycles).accepted);
  }
  svc.drain();
  ASSERT_EQ(svc.placed(), stream.size());

  // Independent replica per shard: same table, same core count, fed the
  // shard's sub-stream in submission order (single producer => the ring
  // preserves exactly that order).
  struct Expected {
    std::uint16_t core = 0;
    std::uint16_t rate_idx = 0;
    Money marginal = 0.0;
  };
  std::vector<Expected> expected(stream.size() + 1);
  for (std::size_t s = 0; s < kShards; ++s) {
    const std::size_t base = kCores * s / kShards;
    const std::size_t n = kCores * (s + 1) / kShards - base;
    core::LmcScheduler replica(std::vector<core::CostTable>(
        n, core::CostTable(test_model(), kParams)));
    for (const Submitted& sub : stream) {
      if (SchedulingService::route(sub.id, kShards) != s) continue;
      const auto p = replica.place_non_interactive(sub.cycles, sub.id);
      expected[sub.id] = {
          static_cast<std::uint16_t>(base + p.core),
          static_cast<std::uint16_t>(replica.queue(p.core).rate_of(p.ref)),
          p.marginal};
    }
  }
  for (const Submitted& sub : stream) {
    const std::optional<TaskStatus> st = svc.status(sub.id);
    ASSERT_TRUE(st.has_value()) << "task " << sub.id;
    EXPECT_EQ(st->core, expected[sub.id].core) << "task " << sub.id;
    EXPECT_EQ(st->rate_idx, expected[sub.id].rate_idx) << "task " << sub.id;
    // Same code path in the same order: bitwise-equal marginals.
    EXPECT_EQ(st->marginal, expected[sub.id].marginal) << "task " << sub.id;
  }
}

TEST(SchedulingService, WorkStealingRebalancesALopsidedLoad) {
  obs::Registry registry;
  ServiceOptions opts;
  opts.shards = 2;
  opts.cores = 4;
  opts.steal_ratio = 1.5;
  opts.steal_min_queue = 4;
  opts.registry = &registry;
  SchedulingService svc(test_model(), kParams, opts);
  svc.start();
  // Aim the entire load at one shard; the idle peer must pull work over.
  std::size_t submitted = 0;
  for (core::TaskId id = 1; submitted < 400; ++id) {
    if (SchedulingService::route(id, 2) != 0) continue;
    ASSERT_TRUE(svc.submit(id, 5'000'000).accepted);
    ++submitted;
  }
  EXPECT_TRUE(eventually([&] { return svc.stolen() > 0; }))
      << "no task migrated within the timeout";
  svc.drain();
  EXPECT_EQ(svc.placed(), 400u + svc.stolen());  // re-placed after migration
  EXPECT_GT(svc.shard_queue_len(1), 0u);
  // A stolen task stays queryable under its original route, flagged.
  // (Its final shard may be either one: a later steal can migrate it
  // again, so only the flag is asserted per task.)
  std::size_t stolen_visible = 0;
  for (core::TaskId id = 1; id < 2000; ++id) {
    const std::optional<TaskStatus> st = svc.status(id);
    if (st.has_value() && st->stolen) ++stolen_visible;
  }
  EXPECT_GT(stolen_visible, 0u);
  EXPECT_GT(registry.counter("svc.steal.requests").value(), 0u);
}

TEST(SchedulingService, StarvedShardsExertBackpressureButStillDrain) {
  obs::Registry registry;
  ServiceOptions opts = quiet_options(2, 2);
  opts.max_batch = 0;  // shards never consume while serving
  opts.ring_capacity = 8;
  opts.registry = &registry;
  SchedulingService svc(test_model(), kParams, opts);
  svc.start();
  std::uint64_t accepted = 0;
  std::uint64_t rejected = 0;
  for (core::TaskId id = 1; id <= 64; ++id) {
    svc.submit(id, 1'000'000).accepted ? ++accepted : ++rejected;
  }
  // Two 8-slot rings: at most 16 admitted, the rest bounced with 503
  // semantics. No waiting — the rings cannot drain while serving.
  EXPECT_EQ(accepted, 16u);
  EXPECT_EQ(rejected, 48u);
  EXPECT_EQ(svc.rejected(), rejected);
  // The aggregate also breaks down per shard: with round-robin-ish id
  // routing the two 8-slot rings bounce 24 each, and the labeled
  // counters must account for every rejection exactly.
  const std::uint64_t shard0 =
      registry.counter("svc.submit.rejected{shard=\"0\"}").value();
  const std::uint64_t shard1 =
      registry.counter("svc.submit.rejected{shard=\"1\"}").value();
  EXPECT_EQ(shard0 + shard1, rejected);
  EXPECT_GT(shard0, 0u);
  EXPECT_GT(shard1, 0u);
  svc.drain();  // drain overrides the starvation and flushes the backlog
  EXPECT_EQ(svc.placed(), accepted);
  EXPECT_EQ(svc.submitted(), accepted);
}

TEST(SchedulingService, SubmitAfterDrainIsRejected) {
  SchedulingService svc(test_model(), kParams, quiet_options(1, 1));
  svc.start();
  ASSERT_TRUE(svc.submit(1, 1000).accepted);
  svc.drain();
  EXPECT_FALSE(svc.submit(2, 1000).accepted);
  EXPECT_EQ(svc.placed(), 1u);
  svc.drain();  // idempotent
}

TEST(SchedulingService, StatusStoreEvictsOldestBeyondCapacity) {
  obs::Registry registry;
  ServiceOptions opts = quiet_options(2, 2);
  opts.status_capacity = 32;
  opts.registry = &registry;
  SchedulingService svc(test_model(), kParams, opts);
  svc.start();
  for (core::TaskId id = 1; id <= 500; ++id) {
    ASSERT_TRUE(svc.submit(id, 1'000'000).accepted);
  }
  svc.drain();
  std::size_t found = 0;
  for (core::TaskId id = 1; id <= 500; ++id) {
    if (svc.status(id).has_value()) ++found;
  }
  // Per-stripe FIFO bound: at most capacity survives, newest last.
  EXPECT_LE(found, opts.status_capacity);
  EXPECT_GT(found, 0u);
  EXPECT_EQ(registry.counter("svc.status.evicted").value(), 500u - found);
  // The newest id per stripe is never the evicted one.
  EXPECT_TRUE(svc.status(500).has_value() || svc.status(499).has_value());
}

TEST(SchedulingService, VirtualExecutionCompletesQueuedTasks) {
  obs::Registry registry;
  ServiceOptions opts = quiet_options(2, 4);
  opts.time_scale = 1e-6;  // ~µs-scale virtual task durations
  opts.registry = &registry;
  SchedulingService svc(test_model(), kParams, opts);
  svc.start();
  for (core::TaskId id = 1; id <= 50; ++id) {
    ASSERT_TRUE(svc.submit(id, 1'000'000).accepted);
  }
  EXPECT_TRUE(eventually([&] { return svc.completed() == 50u; }))
      << "completed " << svc.completed() << "/50";
  svc.drain();
  for (core::TaskId id = 1; id <= 50; ++id) {
    const std::optional<TaskStatus> st = svc.status(id);
    ASSERT_TRUE(st.has_value());
    EXPECT_EQ(st->state, TaskStatus::State::kCompleted) << "task " << id;
  }
}

TEST(SchedulingService, VirtualExecutionAdvancesUnderSustainedAdmission) {
  // A producer that outruns placement keeps the admission ring non-empty
  // (64Ki slots cover any producer stall far below the run), so the
  // worker never sees an empty pop; tasks must still start and finish
  // between batches.
  obs::Registry registry;
  ServiceOptions opts = quiet_options(1, 2);
  opts.time_scale = 1e-6;  // ~ns-to-µs virtual task durations
  opts.status_capacity = 4096;
  opts.registry = &registry;
  SchedulingService svc(test_model(), kParams, opts);
  svc.start();
  core::TaskId id = 1;
  while (svc.rejected() == 0) (void)svc.submit(id++, 1'000'000);
  // The ring is full; from here on the producer keeps it that way.
  const std::uint64_t completed_when_full = svc.completed();
  std::uint64_t completed_while_busy = completed_when_full;
  const auto stop_at =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(300);
  while (std::chrono::steady_clock::now() < stop_at &&
         completed_while_busy == completed_when_full) {
    for (int i = 0; i < 256; ++i) (void)svc.submit(id++, 1'000'000);
    completed_while_busy = svc.completed();
  }
  EXPECT_GT(completed_while_busy, completed_when_full)
      << "no task finished while admission kept the ring busy";
  svc.drain();
}

TEST(SchedulingService, RecordsArrivalAndPlacementPerShardChannel) {
  obs::Registry registry;
  ServiceOptions opts = quiet_options(2, 4);
  opts.registry = &registry;
  SchedulingService svc(test_model(), kParams, opts);
  obs::Recorder recorder(2);
  svc.set_recorder(&recorder);
  svc.start();
  for (core::TaskId id = 1; id <= 40; ++id) {
    ASSERT_TRUE(svc.submit(id, 2'000'000).accepted);
  }
  svc.drain();
  recorder.drain();
  std::size_t run_begin = 0, params = 0, arrivals = 0, placements = 0;
  std::size_t submit_recv = 0, ring_enq = 0, ring_deq = 0, shard_queue = 0,
              steal_hops = 0;
  for (const obs::dfr::Event& e : recorder.events()) {
    switch (static_cast<obs::dfr::EventType>(e.type)) {
      case obs::dfr::EventType::kRunBegin: ++run_begin; break;
      case obs::dfr::EventType::kParams: ++params; break;
      case obs::dfr::EventType::kTaskArrival: ++arrivals; break;
      case obs::dfr::EventType::kPlacement:
        ++placements;
        EXPECT_LT(e.core, 4u);
        EXPECT_EQ(e.flags & obs::dfr::kFlagStolen, 0);
        break;
      case obs::dfr::EventType::kSubmitRecv:
        ++submit_recv;
        EXPECT_NE(e.u0, 0u);  // carries the trace id
        break;
      case obs::dfr::EventType::kRingEnqueue: ++ring_enq; break;
      case obs::dfr::EventType::kRingDequeue: ++ring_deq; break;
      case obs::dfr::EventType::kShardQueue: ++shard_queue; break;
      case obs::dfr::EventType::kStealHop: ++steal_hops; break;
      default: break;
    }
  }
  EXPECT_EQ(run_begin, 2u);  // one per shard channel
  EXPECT_EQ(params, 2u);
  EXPECT_EQ(arrivals, 40u);
  EXPECT_EQ(placements, 40u);
  // Request tracing is always on: every admitted task leaves one full
  // span chain in its shard's channel; no migrations under steal_ratio 0.
  EXPECT_EQ(submit_recv, 40u);
  EXPECT_EQ(ring_enq, 40u);
  EXPECT_EQ(ring_deq, 40u);
  EXPECT_EQ(shard_queue, 40u);
  EXPECT_EQ(steal_hops, 0u);
}

TEST(SchedulingService, MintsTraceIdsAndPublishesRingOccupancy) {
  obs::Registry registry;
  ServiceOptions opts = quiet_options(2, 4);
  opts.registry = &registry;
  SchedulingService svc(test_model(), kParams, opts);
  svc.start();
  std::vector<std::uint64_t> traces;
  for (core::TaskId id = 1; id <= 40; ++id) {
    const SchedulingService::Ticket ticket = svc.submit(id, 2'000'000);
    ASSERT_TRUE(ticket.accepted);
    ASSERT_NE(ticket.trace, 0u);
    traces.push_back(ticket.trace);
  }
  svc.drain();
  // Distinct ids, and the task table links each task to its ticket.
  std::sort(traces.begin(), traces.end());
  EXPECT_EQ(std::adjacent_find(traces.begin(), traces.end()), traces.end());
  for (core::TaskId id = 1; id <= 40; ++id) {
    const std::optional<TaskStatus> st = svc.status(id);
    ASSERT_TRUE(st.has_value());
    EXPECT_NE(st->trace, 0u);
    EXPECT_EQ(st->trace, svc.traces().get(id)->trace_id);
  }
  // The per-shard ring occupancy gauge is published (final value 0:
  // drained rings are empty).
  bool shard0 = false, shard1 = false;
  for (const auto& [name, value] : registry.gauges_snapshot()) {
    if (name == "svc.ring.occupancy{shard=\"0\"}") {
      shard0 = true;
      EXPECT_EQ(value, 0.0);
    }
    if (name == "svc.ring.occupancy{shard=\"1\"}") shard1 = true;
  }
  EXPECT_TRUE(shard0);
  EXPECT_TRUE(shard1);
}

TEST(SchedulingService, ConcurrentSubmittersAllLandExactlyOnce) {
  obs::Registry registry;
  ServiceOptions opts = quiet_options(4, 4);
  opts.registry = &registry;
  SchedulingService svc(test_model(), kParams, opts);
  svc.start();
  constexpr std::size_t kThreads = 4;
  constexpr core::TaskId kPerThread = 2000;
  std::vector<std::thread> submitters;
  for (std::size_t t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&svc, t] {
      for (core::TaskId i = 0; i < kPerThread; ++i) {
        const core::TaskId id = t * kPerThread + i + 1;
        while (!svc.submit(id, 500'000 + id).accepted) {
          std::this_thread::yield();
        }
      }
    });
  }
  for (auto& t : submitters) t.join();
  svc.drain();
  EXPECT_EQ(svc.placed(), kThreads * kPerThread);
  std::size_t total_len = 0;
  for (std::size_t s = 0; s < 4; ++s) total_len += svc.shard_queue_len(s);
  EXPECT_EQ(total_len, kThreads * kPerThread);
}

// Batch admission decides what task-by-task admission decides: one
// submitter's trace ids come out in the same order, and each shard gets
// its tasks in request order, so every placement matches.
TEST(SchedulingService, BatchSubmitMatchesTaskByTaskSubmit) {
  constexpr std::size_t kShards = 3;
  proptest::SplitMix64 rng(0xba7c4);
  std::vector<Submission> stream;
  for (core::TaskId id = 1; id <= 500; ++id) {
    stream.push_back({id * 7919 % 100'003, rng.uniform_u64(10'000, 90'000'000)});
  }
  obs::Registry one_registry;
  obs::Registry batch_registry;
  ServiceOptions opts = quiet_options(kShards, 7);
  opts.registry = &one_registry;
  SchedulingService one(test_model(), kParams, opts);
  opts.registry = &batch_registry;
  SchedulingService batch(test_model(), kParams, opts);
  one.start();
  batch.start();

  std::vector<SchedulingService::Ticket> one_tickets;
  for (const Submission& t : stream) {
    one_tickets.push_back(one.submit(t.id, t.cycles));
  }
  std::vector<SchedulingService::Ticket> batch_tickets(stream.size());
  for (std::size_t at = 0; at < stream.size();) {
    const std::size_t n =
        std::min<std::size_t>(rng.uniform_u64(1, 64), stream.size() - at);
    EXPECT_EQ(batch.submit(std::span(stream).subspan(at, n),
                           std::span(batch_tickets).subspan(at, n)),
              n);
    at += n;
  }
  one.drain();
  batch.drain();

  ASSERT_EQ(batch.placed(), stream.size());
  for (std::size_t i = 0; i < stream.size(); ++i) {
    EXPECT_TRUE(batch_tickets[i].accepted);
    EXPECT_EQ(batch_tickets[i].shard, one_tickets[i].shard) << i;
    EXPECT_EQ(batch_tickets[i].trace, one_tickets[i].trace) << i;
    const auto want = one.status(stream[i].id);
    const auto got = batch.status(stream[i].id);
    ASSERT_TRUE(want.has_value() && got.has_value()) << i;
    EXPECT_EQ(got->trace, batch_tickets[i].trace) << i;
    EXPECT_EQ(got->core, want->core) << i;
    EXPECT_EQ(got->rate_idx, want->rate_idx) << i;
    EXPECT_EQ(got->marginal, want->marginal) << i;
  }
}

TEST(SchedulingService, FullRingTakesThePrefixOfItsShardsTasks) {
  obs::Registry registry;
  ServiceOptions opts = quiet_options(2, 2);
  opts.max_batch = 0;  // shards never consume while serving
  opts.ring_capacity = 8;
  opts.registry = &registry;
  SchedulingService svc(test_model(), kParams, opts);
  svc.start();
  // Three tasks on each shard first, then a 40-task batch.
  std::vector<Submission> first;
  std::size_t per_shard[2] = {0, 0};
  for (core::TaskId id = 1000; first.size() < 6; ++id) {
    const std::size_t s = SchedulingService::route(id, 2);
    if (per_shard[s] == 3) continue;
    ++per_shard[s];
    first.push_back({id, 1'000'000});
  }
  ASSERT_EQ(svc.submit(first), 6u);
  std::vector<Submission> tasks;
  for (core::TaskId id = 1; id <= 40; ++id) tasks.push_back({id, 1'000'000});
  std::vector<SchedulingService::Ticket> tickets(tasks.size());
  // Each ring has five free slots: each shard takes its first five.
  EXPECT_EQ(svc.submit(tasks, tickets), 10u);
  std::size_t seen[2] = {0, 0};
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    const std::size_t s = SchedulingService::route(tasks[i].id, 2);
    EXPECT_EQ(tickets[i].shard, s);
    EXPECT_EQ(tickets[i].accepted, seen[s] < 5) << "task " << tasks[i].id;
    EXPECT_EQ(tickets[i].trace != 0, tickets[i].accepted);
    ++seen[s];
  }
  EXPECT_EQ(svc.rejected(), 30u);
  EXPECT_EQ(registry.counter("svc.submit.rejected{shard=\"0\"}").value(),
            seen[0] - 5);
  EXPECT_EQ(registry.counter("svc.submit.rejected{shard=\"1\"}").value(),
            seen[1] - 5);
  svc.drain();
  EXPECT_EQ(svc.placed(), 16u);
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    EXPECT_EQ(svc.status(tasks[i].id).has_value(), tickets[i].accepted);
  }
  // After drain every batch is rejected whole.
  EXPECT_EQ(svc.submit(tasks, tickets), 0u);
  for (const auto& t : tickets) EXPECT_FALSE(t.accepted);
  EXPECT_EQ(svc.rejected(), 70u);
}

// Batch producers racing a single-task producer into small, slowly
// drained rings, with work stealing on. Producers resubmit what a full
// ring refused, so partial claims are frequent and every task is
// admitted in the end. drain() returns only once every shard's
// `enqueued == processed` and its ring is empty, and the counts close:
// every task placed once, plus one placement per steal.
TEST(SchedulingService, BatchProducersWithStealingDrainExactly) {
  obs::Registry registry;
  ServiceOptions opts;
  opts.shards = 3;
  opts.cores = 6;
  opts.ring_capacity = 64;
  opts.max_batch = 4;  // slow consumers: batches meet full rings
  opts.steal_ratio = 1.5;
  opts.steal_min_queue = 4;
  opts.registry = &registry;
  SchedulingService svc(test_model(), kParams, opts);
  svc.start();
  constexpr std::size_t kProducers = 4;  // the last submits one at a time
  constexpr core::TaskId kPerProducer = 3000;
  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      proptest::SplitMix64 rng(p + 11);
      std::vector<Submission> batch;
      std::vector<SchedulingService::Ticket> tickets;
      core::TaskId id = p * kPerProducer + 1;
      for (core::TaskId left = kPerProducer; left > 0;) {
        const std::size_t n =
            p + 1 == kProducers
                ? 1
                : std::min<std::size_t>(rng.uniform_u64(1, 64), left);
        batch.clear();
        // Every other task on shard 0, so the other shards run dry first.
        while (batch.size() < n) {
          if (batch.size() % 2 == 0 ||
              SchedulingService::route(id, opts.shards) == 0) {
            batch.push_back({id, 2'000'000 + id % 97 * 10'000});
          }
          ++id;
        }
        left -= n;
        while (!batch.empty()) {
          tickets.resize(batch.size());
          const std::size_t accepted = svc.submit(batch, tickets);
          std::size_t kept = 0;
          for (std::size_t i = 0; i < batch.size(); ++i) {
            if (!tickets[i].accepted) batch[kept++] = batch[i];
          }
          EXPECT_EQ(batch.size() - kept, accepted);
          batch.resize(kept);
          if (kept > 0) std::this_thread::yield();
        }
      }
    });
  }
  for (auto& t : producers) t.join();
  // Queues only grow (no virtual execution), so the idle shards steal.
  ASSERT_TRUE(eventually([&] { return svc.stolen() > 0; }))
      << "no task migrated within the timeout";
  svc.drain();
  const std::uint64_t tasks = kProducers * kPerProducer;
  EXPECT_EQ(svc.submitted(), tasks);
  EXPECT_GT(svc.rejected(), 0u);
  EXPECT_EQ(svc.placed(), tasks + svc.stolen());
  std::size_t queued = 0;
  for (std::size_t s = 0; s < opts.shards; ++s) {
    queued += svc.shard_queue_len(s);
  }
  EXPECT_EQ(queued, tasks);
}

}  // namespace
}  // namespace dvfs::svc
