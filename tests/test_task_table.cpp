/// Task-table tests: the merged status + timeline record against a
/// std::unordered_map plus per-stripe FIFO std::deque oracle under seeded
/// churn (eviction beyond capacity, updates to live and evicted ids,
/// collisions on one home slot, wrap-around at the end of the index,
/// index doublings, stolen tasks spilling steps), and concurrent writers
/// and readers for TSan.
#include "dvfs/svc/task_table.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <deque>
#include <initializer_list>
#include <optional>
#include <span>
#include <thread>
#include <unordered_map>
#include <vector>

#include "proptest/rng.h"
#include "dvfs/svc/service.h"

namespace dvfs::svc {
namespace {

using obs::reqtrace::Stage;
using obs::reqtrace::Step;

Step step(Stage stage, double t, std::uint32_t a = 0, std::uint32_t b = 0) {
  return Step{stage, t, a, b};
}

/// place() with the steps spelled inline.
void place(TaskTable& table, core::TaskId id, const TaskStatus& st,
           std::initializer_list<Step> steps) {
  table.place(id, st, std::span<const Step>(steps.begin(), steps.size()));
}

TaskStatus status_with(std::uint64_t trace, std::uint16_t core = 0) {
  TaskStatus st;
  st.trace = trace;
  st.core = core;
  return st;
}

::testing::AssertionResult same_status(const TaskStatus& x,
                                       const TaskStatus& y) {
  if (x.state != y.state || x.shard != y.shard || x.core != y.core ||
      x.rate_idx != y.rate_idx || x.stolen != y.stolen ||
      x.cycles != y.cycles || x.marginal != y.marginal ||
      x.trace != y.trace || x.placed_s != y.placed_s) {
    return ::testing::AssertionFailure()
           << "status differs (trace " << x.trace << " vs " << y.trace
           << ", core " << x.core << " vs " << y.core << ", state "
           << to_string(x.state) << " vs " << to_string(y.state) << ")";
  }
  return ::testing::AssertionSuccess();
}

/// The reference: a hash map of full records plus one FIFO of insertion
/// order per stripe, evicting from the front when a stripe is full.
class Oracle {
 public:
  Oracle(std::size_t capacity, std::size_t stripes)
      : cap_(std::max<std::size_t>(1, capacity / stripes)),
        stripes_(stripes),
        fifo_(stripes) {}

  void place(core::TaskId id, const TaskStatus& st,
             const std::vector<Step>& steps) {
    auto it = by_id_.find(id);
    if (it == by_id_.end()) {
      auto& fifo = fifo_[SchedulingService::route(id, stripes_)];
      if (fifo.size() == cap_) {
        by_id_.erase(fifo.front());
        fifo.pop_front();
        ++evicted_;
      }
      fifo.push_back(id);
      it = by_id_.emplace(id, Entry{st, {}}).first;
    } else {
      const std::uint64_t trace = it->second.status.trace;
      it->second.status = st;
      if (st.trace == 0) it->second.status.trace = trace;
    }
    it->second.steps.insert(it->second.steps.end(), steps.begin(),
                            steps.end());
  }

  std::optional<TaskStatus> advance(core::TaskId id, TaskStatus::State state,
                                    const Step& s) {
    const auto it = by_id_.find(id);
    if (it == by_id_.end()) return std::nullopt;
    it->second.status.state = state;
    it->second.steps.push_back(s);
    return it->second.status;
  }

  void expect_matches(const TaskTable& table, core::TaskId id) const {
    const auto it = by_id_.find(id);
    const auto st = table.status(id);
    const auto tl = table.get(id);
    if (it == by_id_.end()) {
      EXPECT_FALSE(st.has_value()) << "id " << id << " should be gone";
      EXPECT_FALSE(tl.has_value()) << "id " << id << " should be gone";
      EXPECT_EQ(table.trace_of(id), 0u);
      return;
    }
    ASSERT_TRUE(st.has_value()) << "id " << id << " lost";
    EXPECT_TRUE(same_status(*st, it->second.status)) << "id " << id;
    ASSERT_TRUE(tl.has_value()) << "id " << id << " lost its timeline";
    EXPECT_EQ(tl->task, id);
    EXPECT_EQ(tl->trace_id, it->second.status.trace);
    EXPECT_EQ(table.trace_of(id), it->second.status.trace);
    std::vector<Step> want = it->second.steps;
    obs::reqtrace::sort_steps(want);
    ASSERT_EQ(tl->steps.size(), want.size()) << "id " << id;
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(tl->steps[i].stage, want[i].stage) << "id " << id;
      EXPECT_EQ(tl->steps[i].t_s, want[i].t_s) << "id " << id;
      EXPECT_EQ(tl->steps[i].a, want[i].a) << "id " << id;
      EXPECT_EQ(tl->steps[i].b, want[i].b) << "id " << id;
    }
  }

  [[nodiscard]] std::uint64_t evicted() const { return evicted_; }

 private:
  struct Entry {
    TaskStatus status;
    std::vector<Step> steps;
  };
  std::size_t cap_;
  std::size_t stripes_;
  std::vector<std::deque<core::TaskId>> fifo_;
  std::unordered_map<core::TaskId, Entry> by_id_;
  std::uint64_t evicted_ = 0;
};

/// Drives the table and the oracle through the same seeded operations
/// over `ids`: first placements, re-placements (the steal path, whose
/// five extra steps overflow the inline ones), exec begin/end, and
/// re-insertion of evicted ids; checks every id after every batch.
/// Stores the index size the table ended with in `*slots`.
void churn(std::uint64_t seed, std::size_t capacity, std::size_t stripes,
           const std::vector<core::TaskId>& ids, std::size_t ops,
           std::size_t* slots = nullptr) {
  obs::Counter evicted;
  TaskTable table(capacity, stripes, evicted);
  Oracle oracle(capacity, stripes);
  proptest::SplitMix64 rng(seed);
  double t = 0.0;
  const auto next_steps = [&](std::size_t n) {
    std::vector<Step> steps;
    for (std::size_t i = 0; i < n; ++i) {
      t += 1.0;  // distinct times: the sorted order is unambiguous
      steps.push_back(step(static_cast<Stage>(rng.uniform_u64(0, 7)), t,
                           static_cast<std::uint32_t>(rng.next()),
                           static_cast<std::uint32_t>(rng.next())));
    }
    return steps;
  };
  for (std::size_t op = 0; op < ops; ++op) {
    const core::TaskId id = ids[rng.uniform_index(ids.size())];
    const std::uint64_t pick = rng.uniform_u64(0, 9);
    if (pick < 6) {
      TaskStatus st = status_with(rng.chance(0.2) ? 0 : rng.next() | 1,
                                  static_cast<std::uint16_t>(op));
      st.marginal = rng.uniform_real(0.0, 1.0);
      st.stolen = rng.chance(0.5);
      const std::vector<Step> steps = next_steps(5);
      table.place(id, st, steps);
      oracle.place(id, st, steps);
    } else {
      // The table derives the state from the stage; the oracle is told.
      const bool begin = pick < 8;
      Step s = next_steps(1).front();
      s.stage = begin ? Stage::kExecBegin : Stage::kExecEnd;
      const auto got = table.advance(id, s);
      const auto want = oracle.advance(
          id, begin ? TaskStatus::State::kRunning
                    : TaskStatus::State::kCompleted,
          s);
      ASSERT_EQ(got.has_value(), want.has_value()) << "id " << id;
      if (got.has_value()) {
        ASSERT_TRUE(same_status(*got, *want));
      }
    }
    if (op % 64 == 63 || op + 1 == ops) {
      for (const core::TaskId check : ids) {
        oracle.expect_matches(table, check);
        if (::testing::Test::HasFailure()) {
          FAIL() << "seed " << seed << " diverged by op " << op;
        }
      }
      ASSERT_EQ(table.evicted(), oracle.evicted()) << "seed " << seed;
      ASSERT_EQ(evicted.value(), oracle.evicted());
    }
  }
  if (slots != nullptr) *slots = table.index_slots();
}

/// Ids whose index hash has `bits` low bits all equal to `home`: they
/// share one home slot in every index of up to 2^bits slots.
std::vector<core::TaskId> ids_homing_to(std::uint32_t home, unsigned bits,
                                        std::size_t count,
                                        core::TaskId from = 1) {
  const std::uint32_t mask = (1u << bits) - 1;
  std::vector<core::TaskId> ids;
  for (core::TaskId id = from; ids.size() < count; ++id) {
    if ((TaskTable::index_hash(id) & mask) == home) ids.push_back(id);
  }
  return ids;
}

// Moved from the retired TraceStore: steps merge across writes and come
// back sorted; a zero trace id keeps the one recorded.
TEST(TaskTable, AppendsMergesAndSortsSteps) {
  obs::Counter evicted;
  TaskTable table(100, 16, evicted);
  place(table, 1, status_with(42), {step(Stage::kRingEnqueue, 0.5, 0)});
  place(table, 1, status_with(0), {step(Stage::kSubmitRecv, 0.25)});
  const auto st = table.advance(1, step(Stage::kExecBegin, 1.0, 2));
  ASSERT_TRUE(st.has_value());
  EXPECT_EQ(st->state, TaskStatus::State::kRunning);
  const auto t = table.get(1);
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->trace_id, 42u);
  ASSERT_EQ(t->steps.size(), 3u);
  EXPECT_EQ(t->steps.front().stage, Stage::kSubmitRecv);
  EXPECT_EQ(t->steps.back().stage, Stage::kExecBegin);
  EXPECT_FALSE(table.get(2).has_value());
  EXPECT_FALSE(table.status(2).has_value());
  EXPECT_FALSE(table.advance(2, step(Stage::kExecEnd, 2.0)).has_value());
  EXPECT_FALSE(table.get(2).has_value());  // advance never creates
  EXPECT_EQ(table.evicted(), 0u);
}

// Moved from the retired TraceStore: one FIFO per stripe bounds status and
// timeline together.
TEST(TaskTable, EvictsOldestPerStripeBeyondCapacity) {
  obs::Counter evicted;
  TaskTable table(64, 4, evicted);  // 16 tasks per stripe
  for (std::uint64_t task = 1; task <= 500; ++task) {
    place(table, task, status_with(task), {step(Stage::kSubmitRecv, 0.0)});
  }
  std::size_t found = 0;
  for (std::uint64_t task = 1; task <= 500; ++task) {
    const bool has_trace = table.get(task).has_value();
    EXPECT_EQ(has_trace, table.status(task).has_value()) << task;
    if (has_trace) ++found;
  }
  EXPECT_EQ(found, 64u);  // every stripe saw far more than 16 tasks
  EXPECT_EQ(table.evicted(), 500u - found);
  EXPECT_EQ(evicted.value(), table.evicted());
}

TEST(TaskTable, MatchesOracleUnderSeededChurn) {
  std::vector<core::TaskId> ids;
  for (core::TaskId id = 1; id <= 300; ++id) ids.push_back(id * 7919);
  for (const std::uint64_t seed : {1ull, 2ull, 0x20140901ull}) {
    churn(seed, 120, 3, ids, 4000);  // 40 per stripe, ~100 ids each
    churn(seed, 1000, 2, ids, 2000);  // never full: updates only
    churn(seed, 1, 1, ids, 500);      // a one-record ring
  }
}

TEST(TaskTable, CollidingIdsWrapAroundTheIndexEnd) {
  // Capacity 8 keeps the index at its initial 16 slots (at most half
  // full); every id homes to the last slot or the first two, so probe
  // runs wrap past the end and deletions shift entries back across it.
  std::vector<core::TaskId> ids = ids_homing_to(15, 4, 12);
  for (const core::TaskId id : ids_homing_to(0, 4, 4)) ids.push_back(id);
  for (const core::TaskId id : ids_homing_to(1, 4, 4)) ids.push_back(id);
  for (const std::uint64_t seed : {3ull, 4ull, 5ull}) {
    std::size_t slots = 0;
    churn(seed, 8, 1, ids, 3000, &slots);
    EXPECT_EQ(slots, 16u);
  }
}

TEST(TaskTable, OneHomeSlotAcrossIndexDoublings) {
  // 200 ids sharing their low 10 hash bits collide in every index up to
  // 1024 slots; a 150-record ring doubles the index from 16 to 512.
  const std::vector<core::TaskId> ids = ids_homing_to(1023, 10, 200);
  std::size_t slots = 0;
  churn(6, 150, 1, ids, 3000, &slots);
  EXPECT_EQ(slots, 512u);
}

TEST(TaskTable, IndexGrowsWithOccupancyNotCapacity) {
  obs::Counter evicted;
  TaskTable table(std::size_t{1} << 20, 1, evicted);
  EXPECT_EQ(table.index_slots(), 16u);
  for (core::TaskId id = 1; id <= 100; ++id) {
    place(table, id, status_with(id), {step(Stage::kSubmitRecv, 0.0)});
  }
  EXPECT_EQ(table.index_slots(), 256u);  // >= 2 x live, a power of two
  for (core::TaskId id = 101; id <= 3000; ++id) {
    place(table, id, status_with(id), {step(Stage::kSubmitRecv, 0.0)});
  }
  EXPECT_EQ(table.index_slots(), 8192u);  // nine doublings from 16
  for (core::TaskId id = 1; id <= 3000; id += 37) {
    ASSERT_TRUE(table.status(id).has_value()) << id;
    EXPECT_EQ(table.trace_of(id), id);
  }
  EXPECT_EQ(table.evicted(), 0u);
}

TEST(TaskTable, StolenTaskSpillsStepsAndEvictionDropsThem) {
  obs::Counter evicted;
  TaskTable table(2, 1, evicted);
  // First placement, then a steal re-placement: ten steps, three spill.
  place(table, 7, status_with(99), {step(Stage::kSubmitRecv, 0.0),
                                   step(Stage::kRingEnqueue, 0.1),
                                   step(Stage::kRingDequeue, 0.2),
                                   step(Stage::kPlacement, 0.3, 1, 2),
                                   step(Stage::kShardQueue, 0.3, 1, 5)});
  TaskStatus moved = status_with(99, 6);
  moved.stolen = true;
  place(table, 7, moved, {step(Stage::kStealHop, 0.4, 0, 1),
                         step(Stage::kRingEnqueue, 0.4, 1),
                         step(Stage::kRingDequeue, 0.5, 1),
                         step(Stage::kPlacement, 0.6, 6, 0),
                         step(Stage::kShardQueue, 0.6, 6, 1)});
  table.advance(7, step(Stage::kExecBegin, 0.7, 6));
  table.advance(7, step(Stage::kExecEnd, 0.9, 6));
  const auto t = table.get(7);
  ASSERT_TRUE(t.has_value());
  ASSERT_EQ(t->steps.size(), 12u);
  EXPECT_EQ(t->hops(), 1u);
  EXPECT_EQ(t->steps.front().stage, Stage::kSubmitRecv);
  EXPECT_EQ(t->steps.back().stage, Stage::kExecEnd);
  EXPECT_NEAR(t->durations().total(), t->end_to_end_s(), 1e-12);
  const auto st = table.status(7);
  ASSERT_TRUE(st.has_value());
  EXPECT_TRUE(st->stolen);
  EXPECT_EQ(st->core, 6u);
  EXPECT_EQ(st->state, TaskStatus::State::kCompleted);
  // Evict 7, then bring the id back: none of its old steps may return.
  place(table, 8, status_with(1), {step(Stage::kSubmitRecv, 1.0)});
  place(table, 9, status_with(2), {step(Stage::kSubmitRecv, 1.1)});
  EXPECT_FALSE(table.get(7).has_value());
  place(table, 7, status_with(3), {step(Stage::kSubmitRecv, 2.0)});
  const auto again = table.get(7);
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again->steps.size(), 1u);
  EXPECT_EQ(again->trace_id, 3u);
  EXPECT_EQ(table.evicted(), 2u);
}

TEST(TaskTable, ConcurrentWritersAndReaders) {
  // Two writers on disjoint ids (like two shard workers) share stripes
  // with a reader polling both; run under TSan in CI.
  obs::Counter evicted;
  TaskTable table(4096, 2, evicted);
  constexpr core::TaskId kPerWriter = 20'000;
  std::atomic<bool> done{false};
  const auto writer = [&](core::TaskId base) {
    for (core::TaskId i = 1; i <= kPerWriter; ++i) {
      const core::TaskId id = base + i;
      place(table, id, status_with(id), {step(Stage::kPlacement, 0.0)});
      table.advance(id, step(Stage::kExecBegin, 1.0));
    }
  };
  std::thread reader([&] {
    proptest::SplitMix64 rng(11);
    while (!done.load(std::memory_order_acquire)) {
      const core::TaskId id = rng.uniform_u64(1, 2 * kPerWriter + 2);
      if (const auto tl = table.get(id); tl.has_value()) {
        EXPECT_EQ(tl->trace_id, id);
      }
      (void)table.status(id);
    }
  });
  std::thread a(writer, 0);
  std::thread b(writer, kPerWriter);
  a.join();
  b.join();
  done.store(true, std::memory_order_release);
  reader.join();
  std::size_t found = 0;
  for (core::TaskId id = 1; id <= 2 * kPerWriter; ++id) {
    if (const auto tl = table.get(id); tl.has_value()) {
      ++found;
      EXPECT_EQ(tl->steps.size(), 2u) << id;
    }
  }
  EXPECT_EQ(found, 4096u);
  EXPECT_EQ(table.evicted(), 2 * kPerWriter - 4096);
}

}  // namespace
}  // namespace dvfs::svc
