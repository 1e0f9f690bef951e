/// Tests for svc::MpscRing: FIFO + wraparound semantics, full-ring
/// backpressure, batch push and pop, a deque-differential fuzz of the
/// single-threaded protocol, and concurrent-producer exactly-once
/// delivery with single and batch producers (run under TSan in CI).
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <deque>
#include <span>
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

TEST(MpscRing, PushNClaimsTheFreePrefixAtTheFullBoundary) {
  MpscRing<int> ring(8);
  const std::vector<int> five = {0, 1, 2, 3, 4};
  EXPECT_EQ(ring.try_push_n(five), 5u);
  // Three slots left: the batch's first three go in, the rest do not.
  const std::vector<int> more = {5, 6, 7, 8, 9};
  EXPECT_EQ(ring.try_push_n(more), 3u);
  EXPECT_EQ(ring.try_push_n(more), 0u);  // full
  EXPECT_EQ(ring.try_push_n(std::span<const int>()), 0u);
  int got = -1;
  for (int want = 0; want < 2; ++want) {
    ASSERT_TRUE(ring.try_pop(got));
    EXPECT_EQ(got, want);
  }
  // Two freed slots, across the wrap: a prefix of two.
  EXPECT_EQ(ring.try_push_n(std::span(more).subspan(3)), 2u);
  for (int want = 2; want < 10; ++want) {
    ASSERT_TRUE(ring.try_pop(got));
    EXPECT_EQ(got, want);
  }
  EXPECT_TRUE(ring.empty());
  // A batch longer than the whole ring fills it and no more.
  const std::vector<int> big(20, 7);
  EXPECT_EQ(ring.try_push_n(big), 8u);
  EXPECT_EQ(ring.size(), 8u);
}

// Single-threaded differential fuzz: the ring against a capacity-bounded
// std::deque, through randomized push/batch-push/pop scripts that force
// wraparound and full/empty boundary transitions.
TEST(MpscRing, FuzzMatchesDequeModel) {
  proptest::SplitMix64 rng(0x5eedf00d);
  for (int round = 0; round < 50; ++round) {
    const std::size_t capacity = std::size_t{1}
                                 << rng.uniform_u64(1, 6);  // 2..64
    MpscRing<std::uint64_t> ring(capacity);
    std::deque<std::uint64_t> model;
    std::uint64_t next_value = 0;
    std::vector<std::uint64_t> batch;
    for (int op = 0; op < 2000; ++op) {
      const double dice = rng.uniform_real(0.0, 1.0);
      if (dice < 0.35) {
        const bool pushed = ring.try_push(next_value);
        EXPECT_EQ(pushed, model.size() < capacity)
            << "round " << round << " op " << op;
        if (pushed) model.push_back(next_value);
        ++next_value;
      } else if (dice < 0.55) {
        batch.resize(rng.uniform_u64(0, capacity + 2));
        for (std::uint64_t& v : batch) v = next_value++;
        const std::size_t pushed = ring.try_push_n(batch);
        // The longest prefix that fits, exactly.
        EXPECT_EQ(pushed, std::min(batch.size(), capacity - model.size()))
            << "round " << round << " op " << op;
        model.insert(model.end(), batch.begin(),
                     batch.begin() + static_cast<std::ptrdiff_t>(pushed));
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

TEST(MpscRing, ConcurrentBatchAndSingleProducersDeliverExactlyOnce) {
  // Two producers push batches of 1..48 (retrying what a full ring
  // refused), two push one message at a time, into a ring smaller than a
  // few batches. Every message is tagged with the push call that
  // admitted it: exactly-once, per-producer order, and one claim's
  // messages arriving back to back all follow from the pop stream.
  struct Tagged {
    std::uint32_t producer = 0;
    std::uint32_t seq = 0;
    std::uint64_t claim = 0;  ///< (producer << 32) | push call number
  };
  constexpr std::uint32_t kProducers = 4;
  constexpr std::uint32_t kPerProducer = 20000;
  MpscRing<Tagged> ring(64);

  std::vector<std::thread> producers;
  for (std::uint32_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&ring, p] {
      std::uint64_t call = 0;
      if (p % 2 == 1) {
        for (std::uint32_t i = 0; i < kPerProducer; ++i) {
          Tagged msg{p, i, (std::uint64_t{p} << 32) | call};
          while (!ring.try_push(msg)) std::this_thread::yield();
          ++call;
        }
        return;
      }
      proptest::SplitMix64 rng(p + 1);
      std::vector<Tagged> batch;
      std::uint32_t next = 0;
      while (next < kPerProducer) {
        const auto n = static_cast<std::uint32_t>(std::min<std::uint64_t>(
            rng.uniform_u64(1, 48), kPerProducer - next));
        batch.clear();
        for (std::uint32_t i = 0; i < n; ++i) batch.push_back({p, next + i});
        std::size_t done = 0;
        while (done < batch.size()) {
          const std::uint64_t claim = (std::uint64_t{p} << 32) | call++;
          for (std::size_t i = done; i < batch.size(); ++i) {
            batch[i].claim = claim;
          }
          const std::size_t pushed =
              ring.try_push_n(std::span(batch).subspan(done));
          if (pushed == 0) std::this_thread::yield();
          done += pushed;
        }
        next += n;
      }
    });
  }

  std::vector<std::uint32_t> next_seq(kProducers, 0);
  std::vector<std::uint64_t> last_claim_of(kProducers, ~0ull);
  std::uint64_t last_claim = ~0ull;
  std::uint64_t received = 0;
  while (received < std::uint64_t{kProducers} * kPerProducer) {
    Tagged msg;
    if (!ring.try_pop(msg)) {
      std::this_thread::yield();
      continue;
    }
    ASSERT_LT(msg.producer, kProducers);
    ASSERT_EQ(msg.seq, next_seq[msg.producer]);
    ++next_seq[msg.producer];
    // A claim's messages arrive back to back: a claim that resumes after
    // another claim's message was split.
    if (msg.claim != last_claim) {
      ASSERT_NE(msg.claim, last_claim_of[msg.producer])
          << "claim split by another producer";
      last_claim = msg.claim;
    }
    last_claim_of[msg.producer] = msg.claim;
    ++received;
  }
  for (auto& t : producers) t.join();
  EXPECT_TRUE(ring.empty());
  for (std::uint32_t p = 0; p < kProducers; ++p) {
    EXPECT_EQ(next_seq[p], kPerProducer);
  }
}

}  // namespace
}  // namespace dvfs::svc
