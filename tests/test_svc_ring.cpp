/// Tests for svc::MpscRing: FIFO + wraparound semantics, full-ring
/// backpressure, batch pop, a deque-differential fuzz of the
/// single-threaded protocol, and concurrent-producer exactly-once
/// delivery (run under TSan in CI).
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <deque>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "proptest/rng.h"
#include "dvfs/svc/mpsc_ring.h"

namespace dvfs::svc {
namespace {

struct Payload {
  std::uint32_t producer = 0;
  std::uint32_t seq = 0;
};

TEST(MpscRing, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(MpscRing<int>(1).capacity(), 2u);
  EXPECT_EQ(MpscRing<int>(2).capacity(), 2u);
  EXPECT_EQ(MpscRing<int>(3).capacity(), 4u);
  EXPECT_EQ(MpscRing<int>(64).capacity(), 64u);
  EXPECT_EQ(MpscRing<int>(65).capacity(), 128u);
  EXPECT_THROW(MpscRing<int>(0), PreconditionError);
}

TEST(MpscRing, FifoAcrossManyWraparounds) {
  MpscRing<int> ring(4);
  int expected = 0;
  int produced = 0;
  // 10k messages through a 4-slot ring: every slot recycles ~2500 times.
  while (expected < 10000) {
    while (produced < 10000 && ring.try_push(produced)) ++produced;
    int got = -1;
    ASSERT_TRUE(ring.try_pop(got));
    EXPECT_EQ(got, expected);
    ++expected;
  }
  EXPECT_TRUE(ring.empty());
}

TEST(MpscRing, FullRingRejectsUntilPopFreesASlot) {
  MpscRing<int> ring(4);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(ring.try_push(i));
  EXPECT_FALSE(ring.try_push(99));  // full: rejected, not overwritten
  EXPECT_EQ(ring.size(), 4u);
  int got = -1;
  ASSERT_TRUE(ring.try_pop(got));
  EXPECT_EQ(got, 0);
  EXPECT_TRUE(ring.try_push(4));  // slot recycled
  for (int want = 1; want <= 4; ++want) {
    ASSERT_TRUE(ring.try_pop(got));
    EXPECT_EQ(got, want);
  }
  EXPECT_FALSE(ring.try_pop(got));
}

TEST(MpscRing, PopBatchDrainsInOrderAndStopsAtEmpty) {
  MpscRing<int> ring(8);
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(ring.try_push(i));
  std::vector<int> out(8, -1);
  EXPECT_EQ(ring.pop_batch(out), 5u);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(out[static_cast<std::size_t>(i)], i);
  EXPECT_EQ(ring.pop_batch(out), 0u);
  // A batch smaller than the backlog drains exactly its span.
  for (int i = 0; i < 6; ++i) ASSERT_TRUE(ring.try_push(i));
  std::vector<int> small(2, -1);
  EXPECT_EQ(ring.pop_batch(small), 2u);
  EXPECT_EQ(small[0], 0);
  EXPECT_EQ(small[1], 1);
  EXPECT_EQ(ring.size(), 4u);
}

// Single-threaded differential fuzz: the ring against a capacity-bounded
// std::deque, through randomized push/pop scripts that force wraparound
// and full/empty boundary transitions.
TEST(MpscRing, FuzzMatchesDequeModel) {
  proptest::SplitMix64 rng(0x5eedf00d);
  for (int round = 0; round < 50; ++round) {
    const std::size_t capacity = std::size_t{1}
                                 << rng.uniform_u64(1, 6);  // 2..64
    MpscRing<std::uint64_t> ring(capacity);
    std::deque<std::uint64_t> model;
    std::uint64_t next_value = 0;
    for (int op = 0; op < 2000; ++op) {
      if (rng.chance(0.55)) {
        const bool pushed = ring.try_push(next_value);
        EXPECT_EQ(pushed, model.size() < capacity)
            << "round " << round << " op " << op;
        if (pushed) model.push_back(next_value);
        ++next_value;
      } else {
        std::uint64_t got = ~0ull;
        const bool popped = ring.try_pop(got);
        ASSERT_EQ(popped, !model.empty())
            << "round " << round << " op " << op;
        if (popped) {
          EXPECT_EQ(got, model.front());
          model.pop_front();
        }
      }
      ASSERT_EQ(ring.size(), model.size());
      ASSERT_EQ(ring.empty(), model.empty());
    }
  }
}

TEST(MpscRing, ConcurrentProducersDeliverExactlyOnceInProducerOrder) {
  constexpr std::uint32_t kProducers = 4;
  constexpr std::uint32_t kPerProducer = 20000;
  MpscRing<Payload> ring(1024);

  std::vector<std::thread> producers;
  for (std::uint32_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&ring, p] {
      for (std::uint32_t i = 0; i < kPerProducer; ++i) {
        Payload msg{p, i};
        // Spin on backpressure: the test asserts delivery, not capacity.
        while (!ring.try_push(msg)) std::this_thread::yield();
      }
    });
  }

  std::vector<std::uint32_t> next_seq(kProducers, 0);
  std::uint64_t received = 0;
  while (received < std::uint64_t{kProducers} * kPerProducer) {
    Payload msg;
    if (!ring.try_pop(msg)) {
      std::this_thread::yield();
      continue;
    }
    ASSERT_LT(msg.producer, kProducers);
    // Exactly-once + per-producer FIFO: each producer's stream arrives
    // gap-free and in order, however the producers interleave.
    ASSERT_EQ(msg.seq, next_seq[msg.producer]);
    ++next_seq[msg.producer];
    ++received;
  }
  for (auto& t : producers) t.join();
  EXPECT_TRUE(ring.empty());
  for (std::uint32_t p = 0; p < kProducers; ++p) {
    EXPECT_EQ(next_seq[p], kPerProducer);
  }
}

TEST(MpscRing, ConcurrentProducersAgainstTinyRingStillLoseNothing) {
  // A 2-slot ring under 3 producers maximizes full-ring CAS contention
  // and slot recycling; counting per-producer sums catches any lost or
  // duplicated message.
  constexpr std::uint32_t kProducers = 3;
  constexpr std::uint32_t kPerProducer = 5000;
  MpscRing<Payload> ring(2);
  std::atomic<bool> done{false};

  std::vector<std::uint64_t> seen(kProducers, 0);
  std::thread consumer([&] {
    Payload msg;
    while (!done.load(std::memory_order_acquire) || !ring.empty()) {
      if (ring.try_pop(msg)) {
        seen[msg.producer] += msg.seq;
      } else {
        std::this_thread::yield();
      }
    }
  });

  std::vector<std::thread> producers;
  for (std::uint32_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&ring, p] {
      for (std::uint32_t i = 1; i <= kPerProducer; ++i) {
        while (!ring.try_push(Payload{p, i})) std::this_thread::yield();
      }
    });
  }
  for (auto& t : producers) t.join();
  done.store(true, std::memory_order_release);
  consumer.join();

  const std::uint64_t want =
      std::uint64_t{kPerProducer} * (kPerProducer + 1) / 2;
  for (std::uint32_t p = 0; p < kProducers; ++p) {
    EXPECT_EQ(seen[p], want) << "producer " << p;
  }
}

}  // namespace
}  // namespace dvfs::svc
