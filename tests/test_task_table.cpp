/// Task-table tests: the compact record of facts against a
/// std::unordered_map plus per-stripe FIFO std::deque oracle that keeps
/// every status and step as the shard spelled them out, under seeded
/// churn (eviction beyond capacity, updates to live and evicted ids,
/// collisions on one home slot, wrap-around at the end of the index,
/// index doublings, ids placed again and facts that spill), bit-exact times
/// across the gap widths the record's 32-bit fields hold or spill, the
/// retained-bytes gauge, and concurrent writers and readers for TSan.
#include "dvfs/svc/task_table.h"

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdint>
#include <deque>
#include <optional>
#include <thread>
#include <unordered_map>
#include <vector>

#include "proptest/rng.h"
#include "dvfs/core/energy_model.h"
#include "dvfs/svc/service.h"

namespace dvfs::svc {
namespace {

using obs::reqtrace::Placement;
using obs::reqtrace::Stage;
using obs::reqtrace::Step;

static_assert(TaskTable::kRecordBytes <= 80,
              "a task placed once must stay within an 80-byte record");

constexpr std::uint64_t k32 = std::uint64_t{1} << 32;
constexpr std::uint64_t kMs = 1'000'000;

/// The stripe that holds `id`, and the shard `placed` puts it on.
std::uint16_t home(core::TaskId id, std::size_t stripes) {
  return static_cast<std::uint16_t>(SchedulingService::route(id, stripes));
}

/// A placement of `id` on its home shard: received at `t_ns`, every
/// later instant 1 ms after the one before.
Placed placed(core::TaskId id, std::size_t stripes, std::uint64_t trace,
              std::uint64_t t_ns, std::uint16_t core = 0) {
  Placed p;
  p.trace = trace;
  p.cycles = 1000 + id;
  p.marginal = 0.5;
  p.at.recv_ns = t_ns;
  p.at.enqueue_ns = t_ns + kMs;
  p.at.dequeue_ns = t_ns + 2 * kMs;
  p.at.place_ns = t_ns + 3 * kMs;
  p.at.shard = home(id, stripes);
  p.at.core = core;
  p.at.depth = 1;
  return p;
}

double seconds(std::uint64_t ns) { return static_cast<double>(ns) / 1e9; }

/// The status a placement leaves, spelled out field by field.
TaskStatus status_from(const Placed& p) {
  TaskStatus st;
  st.shard = p.at.shard;
  st.core = p.at.core;
  st.rate_idx = p.at.rate_idx;
  st.cycles = p.cycles;
  st.marginal = p.marginal;
  st.trace = p.trace;
  st.placed_s = seconds(p.at.place_ns);
  return st;
}

/// The steps a placement leaves, spelled out as the shard wrote them
/// before the table derived them.
std::vector<Step> steps_from(const Placement& at) {
  const double place_s = seconds(at.place_ns);
  return {Step{Stage::kSubmitRecv, seconds(at.recv_ns), 0, 0},
          Step{Stage::kRingEnqueue, seconds(at.enqueue_ns), at.shard, 0},
          Step{Stage::kRingDequeue, seconds(at.dequeue_ns), at.shard, 0},
          Step{Stage::kPlacement, place_s, at.core, at.rate_idx},
          Step{Stage::kShardQueue, place_s, at.core, at.depth}};
}

bool same_bits(double x, double y) {
  return std::bit_cast<std::uint64_t>(x) == std::bit_cast<std::uint64_t>(y);
}

::testing::AssertionResult same_status(const TaskStatus& x,
                                       const TaskStatus& y) {
  if (x.state != y.state || x.shard != y.shard || x.core != y.core ||
      x.rate_idx != y.rate_idx || x.cycles != y.cycles || !same_bits(x.marginal, y.marginal) ||
      x.trace != y.trace || !same_bits(x.placed_s, y.placed_s)) {
    return ::testing::AssertionFailure()
           << "status differs (trace " << x.trace << " vs " << y.trace
           << ", core " << x.core << " vs " << y.core << ", shard "
           << x.shard << " vs " << y.shard << ", state "
           << to_string(x.state) << " vs " << to_string(y.state)
           << ", placed_s " << x.placed_s << " vs " << y.placed_s << ")";
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
      it->second.status = st;
    }
    it->second.steps.insert(it->second.steps.end(), steps.begin(),
                            steps.end());
  }

  void place(core::TaskId id, const Placed& p) {
    place(id, status_from(p), steps_from(p.at));
  }

  std::optional<TaskStatus> advance(core::TaskId id, TaskStatus::State state,
                                    const Step& s) {
    const auto it = by_id_.find(id);
    if (it == by_id_.end()) return std::nullopt;
    it->second.status.state = state;
    it->second.steps.push_back(s);
    return it->second.status;
  }

  /// Exec begin or end of `id` on `core` at `ns`, spelled out.
  std::optional<TaskStatus> advance(core::TaskId id, Stage stage,
                                    std::uint16_t core, std::uint64_t ns) {
    return advance(id,
                   stage == Stage::kExecBegin ? TaskStatus::State::kRunning
                                              : TaskStatus::State::kCompleted,
                   Step{stage, seconds(ns), core, 0});
  }

  [[nodiscard]] const TaskStatus* find(core::TaskId id) const {
    const auto it = by_id_.find(id);
    return it == by_id_.end() ? nullptr : &it->second.status;
  }

  void expect_matches(const TaskTable& table, core::TaskId id) const {
    const auto it = by_id_.find(id);
    const auto st = table.status(id);
    const auto tl = table.get(id);
    if (it == by_id_.end()) {
      EXPECT_FALSE(st.has_value()) << "id " << id << " should be gone";
      EXPECT_FALSE(tl.has_value()) << "id " << id << " should be gone";
      return;
    }
    ASSERT_TRUE(st.has_value()) << "id " << id << " lost";
    EXPECT_TRUE(same_status(*st, it->second.status)) << "id " << id;
    ASSERT_TRUE(tl.has_value()) << "id " << id << " lost its timeline";
    EXPECT_EQ(tl->task, id);
    EXPECT_EQ(tl->trace_id, it->second.status.trace);
    std::vector<Step> want = it->second.steps;
    obs::reqtrace::sort_steps(want);
    ASSERT_EQ(tl->steps.size(), want.size()) << "id " << id;
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(tl->steps[i].stage, want[i].stage) << "id " << id;
      EXPECT_TRUE(same_bits(tl->steps[i].t_s, want[i].t_s))
          << "id " << id << " step " << i << ": " << tl->steps[i].t_s
          << " vs " << want[i].t_s;
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

/// Advances the table and the oracle alike; their answers must agree.
::testing::AssertionResult advance_both(TaskTable& table, Oracle& oracle,
                                        core::TaskId id, Stage stage,
                                        std::uint16_t core,
                                        std::uint64_t ns) {
  const auto got = table.advance(id, stage, core, ns);
  const auto want = oracle.advance(id, stage, core, ns);
  if (got.has_value() != want.has_value()) {
    return ::testing::AssertionFailure()
           << "id " << id << (got.has_value() ? " answered" : " lost");
  }
  return got.has_value() ? same_status(*got, *want)
                         : ::testing::AssertionSuccess();
}

/// Drives the table and the oracle through the same seeded operations
/// over `ids`: first placements, re-placements (reused ids), exec
/// begin/end mostly in lifecycle order, and re-insertion of evicted ids;
/// checks every id after every batch. Instants advance by gaps at the
/// edges of the record's 32-bit fields and sometimes step back;
/// placements sometimes land on a shard other than the stripe's, and
/// execution sometimes runs on another core, so both the compact and the
/// spilled form are exercised.
/// Stores the index size the table ended with in `*slots`.
void churn(std::uint64_t seed, std::size_t capacity, std::size_t stripes,
           const std::vector<core::TaskId>& ids, std::size_t ops,
           std::size_t* slots = nullptr) {
  obs::Counter evicted;
  obs::Gauge bytes;
  {
    TaskTable table(capacity, stripes, evicted, bytes);
    Oracle oracle(capacity, stripes);
    proptest::SplitMix64 rng(seed);
    std::uint64_t t = std::uint64_t{1} << 40;
    const auto next_ns = [&] {
      switch (rng.uniform_u64(0, 15)) {
        case 0: break;  // the same instant
        case 1: t += 1; break;
        case 2: t += k32 - 1; break;
        case 3: t += k32; break;
        case 4: t += k32 + rng.uniform_u64(1, 4 * k32); break;
        case 5: t -= rng.uniform_u64(1, 1000); break;  // a clock step back
        default: t += rng.uniform_u64(2, 10 * kMs); break;
      }
      return t;
    };
    for (std::size_t op = 0; op < ops; ++op) {
      const core::TaskId id = ids[rng.uniform_index(ids.size())];
      const std::uint64_t pick = rng.uniform_u64(0, 9);
      const TaskStatus* known = oracle.find(id);
      if (pick < 5) {
        Placed p;
        p.trace = rng.next() | 1;
        p.cycles = rng.next();
        p.marginal = rng.uniform_real(0.0, 1.0);
        p.at.recv_ns = next_ns();
        p.at.enqueue_ns = next_ns();
        p.at.dequeue_ns = next_ns();
        p.at.place_ns = next_ns();
        p.at.shard = rng.chance(0.85)
                         ? home(id, stripes)
                         : static_cast<std::uint16_t>(rng.next());
        p.at.core = static_cast<std::uint16_t>(op);
        p.at.rate_idx = static_cast<std::uint16_t>(rng.next());
        p.at.depth = static_cast<std::uint32_t>(rng.next());
        table.place(id, p);
        oracle.place(id, p);
      } else {
        // Mostly the lifecycle order (begin while queued, end while
        // running) on the placement's core; the table derives the state
        // from the stage, the oracle is told.
        const TaskStatus::State state =
            known != nullptr ? known->state : TaskStatus::State::kQueued;
        const double p_begin =
            state == TaskStatus::State::kQueued    ? 0.85
            : state == TaskStatus::State::kRunning ? 0.15
                                                   : 0.5;
        const Stage stage =
            rng.chance(p_begin) ? Stage::kExecBegin : Stage::kExecEnd;
        const auto core = known != nullptr && rng.chance(0.8)
                              ? known->core
                              : static_cast<std::uint16_t>(rng.next());
        ASSERT_TRUE(advance_both(table, oracle, id, stage, core, next_ns()));
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
        // The gauge never runs below what the index alone holds (an
        // unbalanced spill account would wrap far above any bound).
        ASSERT_GE(bytes.value(),
                  static_cast<double>(table.index_slots() * 8));
        ASSERT_LT(bytes.value(), 1e9);
      }
    }
    if (slots != nullptr) *slots = table.index_slots();
  }
  EXPECT_EQ(bytes.value(), 0.0) << "a destroyed table takes its bytes back";
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
// back sorted; the latest placement's trace id is the one kept.
TEST(TaskTable, AppendsMergesAndSortsSteps) {
  obs::Counter evicted;
  obs::Gauge bytes;
  TaskTable table(100, 16, evicted, bytes);
  table.place(1, placed(1, 16, 42, 500 * kMs));
  // Placed again with earlier instants and another trace id.
  table.place(1, placed(1, 16, 43, 250 * kMs));
  const auto st = table.advance(1, Stage::kExecBegin, 0, 1000 * kMs);
  ASSERT_TRUE(st.has_value());
  EXPECT_EQ(st->state, TaskStatus::State::kRunning);
  EXPECT_EQ(st->placed_s, 0.253);
  const auto t = table.get(1);
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->trace_id, 43u);
  ASSERT_EQ(t->steps.size(), 11u);
  EXPECT_EQ(t->steps.front().stage, Stage::kSubmitRecv);
  EXPECT_EQ(t->steps.front().t_s, 0.25);
  EXPECT_EQ(t->steps[5].stage, Stage::kSubmitRecv);
  EXPECT_EQ(t->steps[5].t_s, 0.5);
  EXPECT_EQ(t->steps.back().stage, Stage::kExecBegin);
  for (std::size_t i = 1; i < t->steps.size(); ++i) {
    EXPECT_LE(t->steps[i - 1].t_s, t->steps[i].t_s) << i;
  }
  EXPECT_FALSE(table.get(2).has_value());
  EXPECT_FALSE(table.status(2).has_value());
  EXPECT_FALSE(table.advance(2, Stage::kExecEnd, 0, 2000 * kMs).has_value());
  EXPECT_FALSE(table.get(2).has_value());  // advance never creates
  EXPECT_EQ(table.evicted(), 0u);
}

// Moved from the retired TraceStore: one FIFO per stripe bounds status and
// timeline together.
TEST(TaskTable, EvictsOldestPerStripeBeyondCapacity) {
  obs::Counter evicted;
  obs::Gauge bytes;
  TaskTable table(64, 4, evicted, bytes);  // 16 tasks per stripe
  for (std::uint64_t task = 1; task <= 500; ++task) {
    table.place(task, placed(task, 4, task, task * kMs));
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
  obs::Gauge bytes;
  TaskTable table(std::size_t{1} << 20, 1, evicted, bytes);
  EXPECT_EQ(table.index_slots(), 16u);
  for (core::TaskId id = 1; id <= 100; ++id) {
    table.place(id, placed(id, 1, id, id * kMs));
  }
  EXPECT_EQ(table.index_slots(), 256u);  // >= 2 x live, a power of two
  for (core::TaskId id = 101; id <= 3000; ++id) {
    table.place(id, placed(id, 1, id, id * kMs));
  }
  EXPECT_EQ(table.index_slots(), 8192u);  // nine doublings from 16
  for (core::TaskId id = 1; id <= 3000; id += 37) {
    ASSERT_TRUE(table.status(id).has_value()) << id;
    EXPECT_EQ(table.status(id)->trace, id);
  }
  EXPECT_EQ(table.evicted(), 0u);
}

TEST(TaskTable, PlacedAgainSpillsStepsAndEvictionDropsThem) {
  obs::Counter evicted;
  obs::Gauge bytes;
  TaskTable table(2, 1, evicted, bytes);
  // First placement, then the id placed again on another shard: ten
  // steps, all in the spill map from then on.
  table.place(7, placed(7, 1, 99, 0, 1));
  const double compact = bytes.value();
  Placed moved = placed(7, 1, 99, 400 * kMs, 6);
  moved.at.shard = 1;
  table.place(7, moved);
  EXPECT_GT(bytes.value(), compact);
  table.advance(7, Stage::kExecBegin, 6, 700 * kMs);
  table.advance(7, Stage::kExecEnd, 6, 900 * kMs);
  const double spilled = bytes.value();
  const auto t = table.get(7);
  ASSERT_TRUE(t.has_value());
  ASSERT_EQ(t->steps.size(), 12u);
  EXPECT_EQ(t->steps.front().stage, Stage::kSubmitRecv);
  EXPECT_EQ(t->steps.back().stage, Stage::kExecEnd);
  const auto st = table.status(7);
  ASSERT_TRUE(st.has_value());
  EXPECT_EQ(st->core, 6u);
  EXPECT_EQ(st->shard, 1u);
  EXPECT_EQ(st->state, TaskStatus::State::kCompleted);
  // Evict 7, then bring the id back: none of its old steps may return.
  // The spill entry's bytes go with it (its map keeps its buckets).
  table.place(8, placed(8, 1, 1, 1000 * kMs));
  table.place(9, placed(9, 1, 2, 1100 * kMs));
  EXPECT_FALSE(table.get(7).has_value());
  table.place(7, placed(7, 1, 3, 2000 * kMs));
  const auto again = table.get(7);
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again->steps.size(), 5u);
  EXPECT_EQ(again->trace_id, 3u);
  EXPECT_EQ(table.evicted(), 2u);
  EXPECT_LT(bytes.value(), spilled);
  EXPECT_LT(bytes.value() - compact, 1024.0);
  // A stream of ids placed twice through the full ring holds steady:
  // each eviction takes its task's spill entry and step bytes along.
  double steady = 0.0;
  for (core::TaskId id = 100; id < 1100; ++id) {
    table.place(id, placed(id, 1, id, id * kMs));
    table.place(id, moved);
    if (id == 199) steady = bytes.value();
  }
  EXPECT_EQ(bytes.value(), steady);
}

// Every gap between consecutive instants is either held exactly in the
// record or, from 2^32 ns up, spilled; either way each time comes back
// bit for bit as the shard formed it, for every one of the five gaps.
TEST(TaskTable, ExactTimesAcrossGapWidths) {
  const std::uint64_t widths[] = {0, 1, k32 - 1, k32, k32 + 1, 5 * k32 + 3};
  proptest::SplitMix64 rng(0x5eed);
  core::TaskId id = 0;
  for (const std::uint64_t width : widths) {
    for (std::size_t at_gap = 0; at_gap < 5; ++at_gap) {
      obs::Counter evicted;
      obs::Gauge bytes;
      TaskTable table(64, 2, evicted, bytes);
      Oracle oracle(64, 2);
      const double empty = bytes.value();
      ++id;
      // Seeded instants: a base anywhere in ~52 days of uptime, gaps of
      // up to 10 ms except the one under test.
      std::uint64_t instants[6];
      instants[0] = rng.uniform_u64(0, std::uint64_t{1} << 52);
      for (std::size_t i = 1; i < 6; ++i) {
        instants[i] = instants[i - 1] +
                      (i - 1 == at_gap ? width : rng.uniform_u64(0, 10 * kMs));
      }
      Placed p = placed(id, 2, rng.next() | 1, instants[0], 3);
      p.at.enqueue_ns = instants[1];
      p.at.dequeue_ns = instants[2];
      p.at.place_ns = instants[3];
      p.at.rate_idx = 2;
      p.at.depth = static_cast<std::uint32_t>(rng.next());
      p.marginal = rng.uniform_real(0.0, 1e6);
      table.place(id, p);
      oracle.place(id, p);
      oracle.expect_matches(table, id);
      EXPECT_TRUE(advance_both(table, oracle, id, Stage::kExecBegin, 3,
                               instants[4]));
      oracle.expect_matches(table, id);
      EXPECT_TRUE(
          advance_both(table, oracle, id, Stage::kExecEnd, 3, instants[5]));
      oracle.expect_matches(table, id);
      // Only a gap the 32-bit field cannot hold costs a spill entry; the
      // rest is the chunk the first record allocated.
      const double chunk = 64.0 / 2 * TaskTable::kRecordBytes;
      if (width < k32) {
        EXPECT_EQ(bytes.value() - empty, chunk)
            << "width " << width << " at gap " << at_gap;
      } else {
        EXPECT_GT(bytes.value() - empty, chunk)
            << "width " << width << " at gap " << at_gap;
      }
      if (::testing::Test::HasFailure()) {
        FAIL() << "width " << width << " at gap " << at_gap;
      }
    }
  }
}

// An id evicted before it runs records nothing when execution reaches
// it: no status, no timeline, no bytes.
TEST(TaskTable, ExecAfterEvictionRecordsNothing) {
  obs::Counter evicted;
  obs::Gauge bytes;
  TaskTable table(2, 1, evicted, bytes);
  Oracle oracle(2, 1);
  for (core::TaskId id = 1; id <= 3; ++id) {
    const Placed p = placed(id, 1, 10 + id, id * kMs, 1);
    table.place(id, p);
    oracle.place(id, p);
  }
  const double held = bytes.value();
  EXPECT_FALSE(table.advance(1, Stage::kExecBegin, 1, 10 * kMs).has_value());
  EXPECT_FALSE(table.advance(1, Stage::kExecEnd, 1, 11 * kMs).has_value());
  EXPECT_FALSE(table.get(1).has_value());
  // The live ones still take their steps.
  for (core::TaskId id = 2; id <= 3; ++id) {
    EXPECT_TRUE(
        advance_both(table, oracle, id, Stage::kExecBegin, 1, 12 * kMs));
    EXPECT_TRUE(advance_both(table, oracle, id, Stage::kExecEnd, 1, 13 * kMs));
  }
  for (core::TaskId id = 1; id <= 3; ++id) oracle.expect_matches(table, id);
  EXPECT_EQ(bytes.value(), held);
  EXPECT_EQ(table.evicted(), 1u);
}

// An id first placed off its stripe's shard (compact: the record keeps
// its own shard), then placed again on another shard and a third time.
TEST(TaskTable, IdPlacedThreeTimesMatchesOracle) {
  obs::Counter evicted;
  obs::Gauge bytes;
  TaskTable table(16, 4, evicted, bytes);
  Oracle oracle(16, 4);
  const core::TaskId id = 77;
  Placed first = placed(id, 4, 1, 100 * kMs, 5);
  first.at.shard = static_cast<std::uint16_t>((home(id, 4) + 1) % 4);
  table.place(id, first);
  oracle.place(id, first);
  oracle.expect_matches(table, id);
  Placed again = placed(id, 4, 2, 200 * kMs, 2);
  again.at.shard = static_cast<std::uint16_t>((home(id, 4) + 2) % 4);
  table.place(id, again);
  oracle.place(id, again);
  oracle.expect_matches(table, id);
  const Placed third = placed(id, 4, 3, 300 * kMs, 2);
  table.place(id, third);
  oracle.place(id, third);
  EXPECT_TRUE(advance_both(table, oracle, id, Stage::kExecBegin, 2, 400 * kMs));
  EXPECT_TRUE(advance_both(table, oracle, id, Stage::kExecEnd, 2, 500 * kMs));
  oracle.expect_matches(table, id);
  const auto t = table.get(id);
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->steps.size(), 17u);
  EXPECT_EQ(table.status(id)->shard, home(id, 4));
}

// svc.status.bytes follows occupancy one 1024-record chunk at a time,
// whatever the capacity, and 100k tasks placed once, on any shard,
// retain at most 100 bytes each with the index counted.
TEST(TaskTable, RetainedBytesGrowByChunkWithOccupancy) {
  obs::Counter evicted;
  obs::Gauge big_bytes;
  obs::Gauge huge_bytes;
  constexpr double kChunk = 1024.0 * TaskTable::kRecordBytes;
  {
    TaskTable big(std::size_t{1} << 20, 1, evicted, big_bytes);
    TaskTable huge(std::size_t{1} << 22, 1, evicted, huge_bytes);
    const double empty = big_bytes.value();
    EXPECT_EQ(huge_bytes.value(), empty);
    EXPECT_LT(empty, 1024.0);  // no record allocated up front
    const auto index_bytes = [&] {
      return static_cast<double>(big.index_slots()) * 8.0;
    };
    const double fixed = empty - index_bytes();
    for (core::TaskId id = 1; id <= 100'000; ++id) {
      Placed p = placed(id, 1, id, id * kMs);
      p.at.shard = static_cast<std::uint16_t>(id % 5);
      big.place(id, p);
      huge.place(id, p);
      if (id == 1 || id == 1024 || id == 1025 || id == 2048 || id == 2049) {
        const double chunks = static_cast<double>((id + 1023) / 1024);
        EXPECT_EQ(big_bytes.value(), fixed + chunks * kChunk + index_bytes())
            << "after " << id << " tasks";
      }
    }
    EXPECT_EQ(huge_bytes.value(), big_bytes.value());
    EXPECT_LE((big_bytes.value() - fixed) / 100'000, 100.0);
    EXPECT_EQ(big.evicted(), 0u);
  }
  EXPECT_EQ(big_bytes.value(), 0.0);
  EXPECT_EQ(huge_bytes.value(), 0.0);
}

// The service publishes the gauge in its registry (so on /metrics).
TEST(TaskTable, ServicePublishesRetainedBytes) {
  obs::Registry registry;
  ServiceOptions opts;
  opts.registry = &registry;
  {
    SchedulingService svc(core::EnergyModel::icpp2014_table2(),
                          core::CostParams{.re = 0.4, .rt = 0.1}, opts);
    const double empty = registry.gauge("svc.status.bytes").value();
    EXPECT_GT(empty, 0.0);
    svc.start();
    for (core::TaskId id = 1; id <= 10; ++id) {
      ASSERT_TRUE(svc.submit(id, 1'000'000).accepted);
    }
    svc.drain();
    EXPECT_GE(registry.gauge("svc.status.bytes").value(),
              empty + 1024.0 * TaskTable::kRecordBytes);
  }
  EXPECT_EQ(registry.gauge("svc.status.bytes").value(), 0.0);
}

TEST(TaskTable, ConcurrentWritersAndReaders) {
  // Two writers on disjoint ids (like two shard workers) share stripes
  // with a reader polling both; run under TSan in CI.
  obs::Counter evicted;
  obs::Gauge bytes;
  TaskTable table(4096, 2, evicted, bytes);
  constexpr core::TaskId kPerWriter = 20'000;
  std::atomic<bool> done{false};
  const auto writer = [&](core::TaskId base) {
    for (core::TaskId i = 1; i <= kPerWriter; ++i) {
      const core::TaskId id = base + i;
      table.place(id, placed(id, 2, id, i * kMs));
      table.advance(id, Stage::kExecBegin, 0, i * kMs + 5 * kMs);
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
      EXPECT_EQ(tl->steps.size(), 6u) << id;
    }
  }
  EXPECT_EQ(found, 4096u);
  EXPECT_EQ(table.evicted(), 2 * kPerWriter - 4096);
}

}  // namespace
}  // namespace dvfs::svc
