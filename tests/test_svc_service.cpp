/// Tests for svc::SchedulingService: the sharded-vs-independent
/// differential oracle (a sharded run over a partitioned core set must
/// make decisions identical to N standalone LMC schedulers fed the
/// streams its tickets name), the cost of admission balancing against
/// one LMC over all cores, admission backpressure, status eviction,
/// virtual execution, and the recorder integration. Run under TSan in
/// CI.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "dvfs/core/energy_model.h"
#include "dvfs/core/online_lmc.h"
#include "dvfs/obs/recorder.h"
#include "dvfs/workload/spec2006int.h"
#include "eventually.h"
#include "proptest/rng.h"
#include "dvfs/svc/service.h"

namespace dvfs::svc {
namespace {

core::EnergyModel test_model() { return core::EnergyModel::icpp2014_table2(); }
constexpr core::CostParams kParams{0.4, 0.1};

ServiceOptions shard_options(std::size_t shards, std::size_t cores) {
  ServiceOptions opts;
  opts.shards = shards;
  opts.cores = cores;
  return opts;
}

using test::eventually;

/// Tasks placed and not yet dispatched, summed over the per-shard
/// `svc.shard.queue_len` gauges each worker publishes.
std::size_t queued_tasks(obs::Registry& registry, std::size_t shards) {
  double total = 0.0;
  for (std::size_t s = 0; s < shards; ++s) {
    total += registry
                 .gauge("svc.shard.queue_len{shard=\"" + std::to_string(s) +
                        "\"}")
                 .value();
  }
  return static_cast<std::size_t>(total);
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
  ServiceOptions opts = shard_options(2, 4);
  opts.registry = &registry;
  SchedulingService svc(test_model(), kParams, opts);
  svc.start();
  proptest::SplitMix64 rng(42);
  std::vector<SchedulingService::Ticket> tickets(201);
  for (core::TaskId id = 1; id <= 200; ++id) {
    tickets[id] = svc.submit(id, rng.uniform_u64(100'000, 50'000'000));
    ASSERT_TRUE(tickets[id].accepted);
  }
  svc.drain();
  EXPECT_EQ(svc.submitted(), 200u);
  EXPECT_EQ(svc.placed(), 200u);
  EXPECT_EQ(svc.rejected(), 0u);
  for (core::TaskId id = 1; id <= 200; ++id) {
    const std::optional<TaskStatus> st = svc.status(id);
    ASSERT_TRUE(st.has_value()) << "task " << id;
    EXPECT_EQ(st->shard, tickets[id].shard);
    ASSERT_LT(st->core, 4u);
    // Shard 0 owns cores [0,2), shard 1 owns [2,4).
    EXPECT_EQ(st->core / 2, st->shard);
  }
  EXPECT_EQ(queued_tasks(registry, 2), 200u);
}

// The central correctness property: a sharded service over a
// partitioned core set makes exactly the decisions of N independent
// single-shard LMC schedulers fed the per-shard submission streams its
// tickets name, in the same order. Any cross-shard state leak, reordering, or
// shard-local cost drift breaks the bit-exact comparison.
TEST(SchedulingService, DifferentialOracleMatchesIndependentSchedulers) {
  constexpr std::size_t kShards = 3;
  constexpr std::size_t kCores = 7;  // uneven split: 2+2+3 partition
  ServiceOptions opts = shard_options(kShards, kCores);
  obs::Registry registry;
  opts.registry = &registry;
  SchedulingService svc(test_model(), kParams, opts);
  svc.start();

  proptest::SplitMix64 rng(0xdec15105);
  struct Submitted {
    core::TaskId id;
    Cycles cycles;
    std::uint16_t shard;
  };
  std::vector<Submitted> stream;
  for (core::TaskId id = 1; id <= 600; ++id) {
    const Cycles cycles = rng.uniform_u64(10'000, 100'000'000);
    const SchedulingService::Ticket ticket = svc.submit(id, cycles);
    ASSERT_TRUE(ticket.accepted);
    stream.push_back({id, cycles, ticket.shard});
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
      if (sub.shard != s) continue;
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

TEST(SchedulingService, StarvedShardsExertBackpressureButStillDrain) {
  obs::Registry registry;
  ServiceOptions opts = shard_options(2, 2);
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
  // The aggregate also breaks down per shard: once both rings are full
  // the shards tie on load and each task bounces off its hash shard's
  // ring, and the labeled counters must account for every rejection
  // exactly.
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
  SchedulingService svc(test_model(), kParams, shard_options(1, 1));
  svc.start();
  ASSERT_TRUE(svc.submit(1, 1000).accepted);
  svc.drain();
  EXPECT_FALSE(svc.submit(2, 1000).accepted);
  EXPECT_EQ(svc.placed(), 1u);
  svc.drain();  // idempotent
}

TEST(SchedulingService, StatusStoreEvictsOldestBeyondCapacity) {
  obs::Registry registry;
  ServiceOptions opts = shard_options(2, 2);
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
  ServiceOptions opts = shard_options(2, 4);
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
  ServiceOptions opts = shard_options(1, 2);
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
  ServiceOptions opts = shard_options(2, 4);
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
  // span chain in its shard's channel; no task ever migrates.
  EXPECT_EQ(submit_recv, 40u);
  EXPECT_EQ(ring_enq, 40u);
  EXPECT_EQ(ring_deq, 40u);
  EXPECT_EQ(shard_queue, 40u);
  EXPECT_EQ(steal_hops, 0u);
}

TEST(SchedulingService, MintsTraceIdsAndPublishesRingOccupancy) {
  obs::Registry registry;
  ServiceOptions opts = shard_options(2, 4);
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
  // The per-shard ring occupancy gauge is published (final value 0: the
  // last pre-drain sample finds the drained ring empty).
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
  ServiceOptions opts = shard_options(4, 4);
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
  EXPECT_EQ(queued_tasks(registry, 4), kThreads * kPerThread);
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
  ServiceOptions opts = shard_options(kShards, 7);
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
  ServiceOptions opts = shard_options(2, 2);
  opts.max_batch = 0;  // shards never consume while serving
  opts.ring_capacity = 8;
  opts.registry = &registry;
  SchedulingService svc(test_model(), kParams, opts);
  svc.start();
  // Six equal tasks first, which balancing splits three a shard, then a
  // 40-task batch.
  std::vector<Submission> first;
  for (core::TaskId id = 1000; id < 1006; ++id) first.push_back({id, 1'000'000});
  std::vector<SchedulingService::Ticket> first_tickets(first.size());
  ASSERT_EQ(svc.submit(first, first_tickets), 6u);
  std::size_t per_shard[2] = {0, 0};
  for (const auto& t : first_tickets) ++per_shard[t.shard];
  ASSERT_EQ(per_shard[0], 3u);
  ASSERT_EQ(per_shard[1], 3u);
  std::vector<Submission> tasks;
  for (core::TaskId id = 1; id <= 40; ++id) tasks.push_back({id, 1'000'000});
  std::vector<SchedulingService::Ticket> tickets(tasks.size());
  // Each ring has five free slots: each shard takes its first five.
  EXPECT_EQ(svc.submit(tasks, tickets), 10u);
  std::size_t seen[2] = {0, 0};
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    const std::size_t s = tickets[i].shard;
    ASSERT_LT(s, 2u);
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
// drained rings. Producers resubmit what a full ring refused, so partial
// claims are frequent and every task is admitted in the end. drain()
// returns only once every worker has emptied its ring, and the counts
// close: every task placed exactly once.
TEST(SchedulingService, BatchProducersWithStealingDrainExactly) {
  obs::Registry registry;
  ServiceOptions opts = shard_options(3, 6);
  opts.ring_capacity = 64;
  opts.max_batch = 4;  // slow consumers: batches meet full rings
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
        for (; batch.size() < n; ++id) {
          batch.push_back({id, 2'000'000 + id % 97 * 10'000});
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
  svc.drain();
  const std::uint64_t tasks = kProducers * kPerProducer;
  EXPECT_EQ(svc.submitted(), tasks);
  EXPECT_GT(svc.rejected(), 0u);
  EXPECT_EQ(svc.placed(), svc.submitted());
  EXPECT_EQ(queued_tasks(registry, opts.shards), tasks);
}

// A single submitter at time_scale 0 gets a routing that depends only on
// its stream: the tallies change only by what it submits.
TEST(SchedulingService, IdenticalRunsRouteIdentically) {
  proptest::SplitMix64 rng(0x5a3e);
  std::vector<Submission> stream;
  for (core::TaskId id = 1; id <= 500; ++id) {
    stream.push_back({id, rng.uniform_u64(10'000, 90'000'000)});
  }
  std::vector<SchedulingService::Ticket> runs[2];
  for (auto& tickets : runs) {
    obs::Registry registry;
    ServiceOptions opts = shard_options(3, 7);
    opts.registry = &registry;
    SchedulingService svc(test_model(), kParams, opts);
    svc.start();
    tickets.resize(stream.size());
    // Batches of 1 to 64 tasks, the same cuts in both runs.
    proptest::SplitMix64 cuts(7);
    for (std::size_t at = 0; at < stream.size();) {
      const std::size_t n =
          std::min<std::size_t>(cuts.uniform_u64(1, 64), stream.size() - at);
      ASSERT_EQ(svc.submit(std::span(stream).subspan(at, n),
                           std::span(tickets).subspan(at, n)),
                n);
      at += n;
    }
    svc.drain();
  }
  std::size_t per_shard[3] = {0, 0, 0};
  for (std::size_t i = 0; i < stream.size(); ++i) {
    EXPECT_EQ(runs[0][i].shard, runs[1][i].shard) << i;
    ++per_shard[runs[0][i].shard];
  }
  for (const std::size_t n : per_shard) EXPECT_GT(n, 0u);
}

/// Table I cycle counts in a seeded order.
std::vector<Cycles> spec_stream(std::size_t n, std::uint64_t seed) {
  const auto rows = workload::spec2006int();
  proptest::SplitMix64 rng(seed);
  std::vector<Cycles> cycles;
  for (std::size_t i = 0; i < n; ++i) {
    cycles.push_back(workload::spec_cycles(rows[rng.uniform_index(rows.size())]));
  }
  return cycles;
}

/// Total cost of LMC replicas, one per shard, each fed in order the
/// tasks `shard_of` gives it.
Money replica_cost(std::size_t cores, std::size_t shards,
                   const std::vector<Cycles>& cycles,
                   const std::vector<std::size_t>& shard_of) {
  Money total = 0.0;
  for (std::size_t s = 0; s < shards; ++s) {
    const std::size_t n = cores * (s + 1) / shards - cores * s / shards;
    core::LmcScheduler lmc(std::vector<core::CostTable>(
        n, core::CostTable(test_model(), kParams)));
    for (std::size_t i = 0; i < cycles.size(); ++i) {
      if (shard_of[i] == s) {
        total += lmc.place_non_interactive(cycles[i], i + 1).marginal;
      }
    }
  }
  return total;
}

/// Total cost of the service's placements of `ids` with `cycles`: the
/// sum of the marginals status() reports.
Money service_cost(std::size_t cores, std::size_t shards,
                   const std::vector<core::TaskId>& ids,
                   const std::vector<Cycles>& cycles) {
  obs::Registry registry;
  ServiceOptions opts = shard_options(shards, cores);
  opts.registry = &registry;
  SchedulingService svc(test_model(), kParams, opts);
  svc.start();
  for (std::size_t i = 0; i < ids.size(); ++i) {
    EXPECT_TRUE(svc.submit(ids[i], cycles[i]).accepted);
  }
  svc.drain();
  Money total = 0.0;
  for (const core::TaskId id : ids) total += svc.status(id)->marginal;
  return total;
}

// Admission balancing stays closer to one LMC over all cores than routing
// by id hash does, on SPEC tasks and the Table II model (each gap is the
// mean over five seeded streams), and a stream whose ids all hash to
// shard 0 costs what sequential ids cost.
TEST(SchedulingService, AdmissionBalanceBeatsHashRouting) {
  struct Row {
    std::size_t cores;
    std::size_t shards;
  };
  constexpr std::uint64_t kSeeds = 5;
  for (const Row row : {Row{8, 2}, Row{8, 4}, Row{8, 8}, Row{7, 2}, Row{7, 3}}) {
    for (const std::size_t n : {std::size_t{200}, std::size_t{2000}}) {
      std::vector<core::TaskId> sequential;
      std::vector<core::TaskId> skewed;
      std::vector<std::size_t> by_hash;
      for (core::TaskId id = 1; skewed.size() < n; ++id) {
        if (sequential.size() < n) {
          sequential.push_back(id);
          by_hash.push_back(SchedulingService::route(id, row.shards));
        }
        if (SchedulingService::route(id, row.shards) == 0) skewed.push_back(id);
      }
      // Mean cost above one LMC over all cores, as a fraction.
      double hash = 0.0;
      double balanced = 0.0;
      double balanced_skewed = 0.0;
      for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
        const std::vector<Cycles> cycles = spec_stream(n, seed);
        const Money all_cores =
            replica_cost(row.cores, 1, cycles, std::vector<std::size_t>(n, 0));
        const auto gap = [&](Money cost) {
          return (cost / all_cores - 1.0) / kSeeds;
        };
        hash += gap(replica_cost(row.cores, row.shards, cycles, by_hash));
        balanced += gap(service_cost(row.cores, row.shards, sequential, cycles));
        balanced_skewed +=
            gap(service_cost(row.cores, row.shards, skewed, cycles));
      }
      SCOPED_TRACE(::testing::Message()
                   << row.cores << " cores / " << row.shards << " shards, "
                   << n << " tasks: hash +" << hash * 100 << "%, balanced +"
                   << balanced * 100 << "%, skewed +" << balanced_skewed * 100
                   << "%");
      EXPECT_LE(balanced, hash);
      EXPECT_LE(balanced_skewed, hash);
      EXPECT_NEAR(balanced_skewed, balanced, 1e-4);  // 0.01 points
      if (row.cores % row.shards != 0) {
        // Shards of unequal size: balancing raw cycles instead of cycles
        // per core overloads the smaller shards and lands near hash.
        EXPECT_LE(balanced, hash / 4);
      }
    }
  }
}

/// The first id from `from` on whose hash shard (of two) is `shard`.
core::TaskId id_hashing_to(std::size_t shard, core::TaskId from) {
  while (SchedulingService::route(from, 2) != shard) ++from;
  return from;
}

// Cycles a full ring refused leave its shard's tally: after a refusal
// the shards tie again, so the tie goes to the id's hash shard.
TEST(SchedulingService, RefusedCyclesLeaveTheTally) {
  obs::Registry registry;
  ServiceOptions opts = shard_options(2, 2);
  opts.max_batch = 0;  // shards never consume while serving
  opts.ring_capacity = 8;
  opts.registry = &registry;
  SchedulingService svc(test_model(), kParams, opts);
  svc.start();
  constexpr Cycles kC = 1'000'000;
  // Fourteen equal tasks alternate: seven a shard, one free slot each.
  for (core::TaskId id = 1; id <= 14; ++id) {
    ASSERT_TRUE(svc.submit(id, kC).accepted);
  }
  const core::TaskId a = 1000;
  const std::size_t other = 1 - SchedulingService::route(a, 2);
  const core::TaskId big = id_hashing_to(other, a + 2);
  // a ties and takes its hash shard, a + 1 the other one, and the big
  // task ties again and joins a + 1, whose ring has room for one.
  const std::vector<Submission> batch = {{a, kC}, {a + 1, kC}, {big, 100 * kC}};
  std::vector<SchedulingService::Ticket> tickets(batch.size());
  ASSERT_EQ(svc.submit(batch, tickets), 2u);
  ASSERT_EQ(tickets[2].shard, other);
  ASSERT_FALSE(tickets[2].accepted);
  // Both shards hold 8 tasks of kC: a tie, which goes to the hash shard.
  const core::TaskId next = id_hashing_to(other, big + 1);
  EXPECT_EQ(svc.submit(next, kC).shard, other);
  svc.drain();
}

// Cycles a shard dispatches to virtual execution leave its tally.
TEST(SchedulingService, DispatchedCyclesLeaveTheTally) {
  obs::Registry registry;
  ServiceOptions opts = shard_options(2, 2);
  opts.time_scale = 1e-6;
  opts.registry = &registry;
  SchedulingService svc(test_model(), kParams, opts);
  svc.start();
  const SchedulingService::Ticket first = svc.submit(1, 1'000'000);
  ASSERT_TRUE(first.accepted);
  ASSERT_TRUE(eventually([&] { return svc.completed() == 1u; }));
  // The first task's shard is back to zero outstanding cycles: a tie.
  const core::TaskId next = id_hashing_to(first.shard, 2);
  EXPECT_EQ(svc.submit(next, 1'000'000).shard, first.shard);
  svc.drain();
}

// The routing tally stays exact past the point where a 64-bit sum of
// 2^53-cycle tasks (the most POST /submit admits) would wrap: 2^11 of
// them per shard. A wrapped tally would read near zero and draw every
// later task.
TEST(SchedulingService, RoutingTallyDoesNotWrapOnMaximalTasks) {
  obs::Registry registry;
  ServiceOptions opts = shard_options(2, 2);
  opts.registry = &registry;
  SchedulingService svc(test_model(), kParams, opts);
  svc.start();
  constexpr Cycles kMaxCycles = std::uint64_t{1} << 53;
  std::size_t per_shard[2] = {0, 0};
  for (core::TaskId id = 1; id <= 4096; ++id) {
    const SchedulingService::Ticket ticket = svc.submit(id, kMaxCycles);
    ASSERT_TRUE(ticket.accepted);
    ++per_shard[ticket.shard];
    ASSERT_LE(std::max(per_shard[0], per_shard[1]) -
                  std::min(per_shard[0], per_shard[1]),
              1u)
        << "after task " << id;
  }
  svc.drain();
  EXPECT_EQ(per_shard[0], 2048u);
  EXPECT_EQ(per_shard[1], 2048u);
}

}  // namespace
}  // namespace dvfs::svc
