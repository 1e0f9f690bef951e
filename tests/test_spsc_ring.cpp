#include "dvfs/obs/spsc_ring.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

namespace dvfs::obs {
namespace {

TEST(SpscRing, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(SpscRing<int>(0).capacity(), 2u);
  EXPECT_EQ(SpscRing<int>(1).capacity(), 2u);
  EXPECT_EQ(SpscRing<int>(2).capacity(), 2u);
  EXPECT_EQ(SpscRing<int>(3).capacity(), 4u);
  EXPECT_EQ(SpscRing<int>(1000).capacity(), 1024u);
  EXPECT_EQ(SpscRing<int>(1024).capacity(), 1024u);
}

TEST(SpscRing, FullRingTailDropsWithExactCount) {
  SpscRing<int> ring(8);
  for (int i = 0; i < 8; ++i) EXPECT_TRUE(ring.try_push(i));
  for (int i = 8; i < 13; ++i) EXPECT_FALSE(ring.try_push(i));
  EXPECT_EQ(ring.dropped(), 5u);

  // The prefix survives; the rejected elements are gone.
  std::vector<int> out;
  ring.drain(out);
  ASSERT_EQ(out.size(), 8u);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(out[static_cast<std::size_t>(i)], i);

  // Drained slots are free again, across the wrap; drops stay counted.
  for (int i = 0; i < 8; ++i) EXPECT_TRUE(ring.try_push(100 + i));
  EXPECT_FALSE(ring.try_push(0));
  EXPECT_EQ(ring.dropped(), 6u);
  out.clear();
  ring.drain(out);
  ASSERT_EQ(out.size(), 8u);
  EXPECT_EQ(out.front(), 100);
  EXPECT_EQ(out.back(), 107);

  ring.reset();
  EXPECT_EQ(ring.dropped(), 0u);
  out.clear();
  ring.drain(out);
  EXPECT_TRUE(out.empty());
}

// One producer, one consumer, a ring far smaller than the stream: every
// element is either delivered (in push order) or counted as dropped.
TEST(SpscRing, ProducerConsumerDeliverInOrderOrCountDrops) {
  constexpr std::uint64_t kItems = 200'000;
  SpscRing<std::uint64_t> ring(64);
  std::uint64_t pushed = 0;
  std::thread producer([&] {
    for (std::uint64_t i = 0; i < kItems; ++i) {
      if (ring.try_push(i)) ++pushed;
    }
  });
  std::vector<std::uint64_t> got;
  std::vector<std::uint64_t> batch;
  std::uint64_t last = 0;
  bool first = true;
  bool ordered = true;
  const auto consume = [&] {
    batch.clear();
    ring.drain(batch);
    for (const std::uint64_t v : batch) {
      ordered = ordered && (first || v > last);
      first = false;
      last = v;
    }
    got.insert(got.end(), batch.begin(), batch.end());
  };
  while (got.size() + ring.dropped() < kItems) consume();
  producer.join();
  consume();
  EXPECT_TRUE(ordered);
  EXPECT_EQ(got.size(), pushed);
  EXPECT_EQ(got.size() + ring.dropped(), kItems);
}

}  // namespace
}  // namespace dvfs::obs
