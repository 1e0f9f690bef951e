#include "range_tree.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <vector>

namespace dvfs::ds {
namespace {

using Tree = RangeTree<std::uint64_t>;

TEST(RangeTree, EmptyTree) {
  Tree t;
  EXPECT_EQ(t.size(), 0u);
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.first(), nullptr);
  EXPECT_EQ(t.last(), nullptr);
  EXPECT_TRUE(t.validate());
  EXPECT_DOUBLE_EQ(t.range_sum(3, 2), 0.0);   // empty range is fine
  EXPECT_DOUBLE_EQ(t.range_wsum(3, 2), 0.0);
}

TEST(RangeTree, SingleElement) {
  Tree t;
  const auto h = t.insert(42.0, 7);
  EXPECT_EQ(t.size(), 1u);
  EXPECT_EQ(t.rank(h), 1u);
  EXPECT_EQ(t.select(1), h);
  EXPECT_DOUBLE_EQ(Tree::weight(h), 42.0);
  EXPECT_EQ(Tree::payload(h), 7u);
  EXPECT_EQ(t.first(), h);
  EXPECT_EQ(t.last(), h);
  EXPECT_EQ(t.predecessor(h), nullptr);
  EXPECT_EQ(t.successor(h), nullptr);
  EXPECT_TRUE(t.validate());
}

TEST(RangeTree, DescendingOrderMaintained) {
  Tree t;
  t.insert(10.0, 0);
  t.insert(30.0, 1);
  t.insert(20.0, 2);
  ASSERT_EQ(t.size(), 3u);
  EXPECT_DOUBLE_EQ(Tree::weight(t.select(1)), 30.0);
  EXPECT_DOUBLE_EQ(Tree::weight(t.select(2)), 20.0);
  EXPECT_DOUBLE_EQ(Tree::weight(t.select(3)), 10.0);
  EXPECT_TRUE(t.validate());
}

TEST(RangeTree, EqualWeightsAreStableByInsertionOrder) {
  Tree t;
  t.insert(5.0, 100);
  t.insert(5.0, 200);
  t.insert(5.0, 300);
  EXPECT_EQ(Tree::payload(t.select(1)), 100u);
  EXPECT_EQ(Tree::payload(t.select(2)), 200u);
  EXPECT_EQ(Tree::payload(t.select(3)), 300u);
}

TEST(RangeTree, PrefixAggregates) {
  Tree t;
  // Descending: 40, 30, 20, 10 at ranks 1..4.
  t.insert(10.0, 0);
  t.insert(20.0, 1);
  t.insert(30.0, 2);
  t.insert(40.0, 3);
  const PrefixStats p0 = t.prefix(0);
  EXPECT_EQ(p0.count, 0u);
  EXPECT_DOUBLE_EQ(p0.sum, 0.0);
  const PrefixStats p2 = t.prefix(2);
  EXPECT_DOUBLE_EQ(p2.sum, 70.0);               // 40 + 30
  EXPECT_DOUBLE_EQ(p2.wsum, 1 * 40.0 + 2 * 30.0);
  const PrefixStats p4 = t.prefix(4);
  EXPECT_DOUBLE_EQ(p4.sum, 100.0);
  EXPECT_DOUBLE_EQ(p4.wsum, 40.0 + 60.0 + 60.0 + 40.0);
}

TEST(RangeTree, RangeSumAndWsum) {
  Tree t;
  for (const double w : {10.0, 20.0, 30.0, 40.0, 50.0}) t.insert(w, 0);
  // Ranks: 50, 40, 30, 20, 10.
  EXPECT_DOUBLE_EQ(t.range_sum(2, 4), 40.0 + 30.0 + 20.0);
  // Delta([2,4]) = 1*40 + 2*30 + 3*20.
  EXPECT_DOUBLE_EQ(t.range_wsum(2, 4), 40.0 + 60.0 + 60.0);
  EXPECT_DOUBLE_EQ(t.range_sum(1, 5), 150.0);
  EXPECT_DOUBLE_EQ(t.range_wsum(1, 1), 50.0);
}

TEST(RangeTree, RangeQueriesRejectOutOfBounds) {
  Tree t;
  t.insert(1.0, 0);
  EXPECT_THROW((void)t.range_sum(1, 2), PreconditionError);
  EXPECT_THROW((void)t.range_sum(0, 1), PreconditionError);
  EXPECT_THROW((void)t.prefix(2), PreconditionError);
  EXPECT_THROW((void)t.select(0), PreconditionError);
  EXPECT_THROW((void)t.select(2), PreconditionError);
}

TEST(RangeTree, EraseMiddleKeepsThreading) {
  Tree t;
  const auto a = t.insert(30.0, 0);
  const auto b = t.insert(20.0, 1);
  const auto c = t.insert(10.0, 2);
  t.erase(b);
  EXPECT_EQ(t.size(), 2u);
  EXPECT_EQ(t.successor(a), c);
  EXPECT_EQ(t.predecessor(c), a);
  EXPECT_EQ(t.first(), a);
  EXPECT_EQ(t.last(), c);
  EXPECT_TRUE(t.validate());
}

TEST(RangeTree, EraseOnlyElement) {
  Tree t;
  const auto h = t.insert(1.0, 0);
  t.erase(h);
  EXPECT_TRUE(t.empty());
  EXPECT_TRUE(t.validate());
}

TEST(RangeTree, MoveSemantics) {
  Tree t;
  t.insert(2.0, 0);
  t.insert(1.0, 1);
  Tree u = std::move(t);
  EXPECT_EQ(u.size(), 2u);
  EXPECT_TRUE(u.validate());
  Tree v;
  v.insert(9.0, 9);
  v = std::move(u);
  EXPECT_EQ(v.size(), 2u);
  EXPECT_DOUBLE_EQ(Tree::weight(v.select(1)), 2.0);
}

// Reference model: a plain sorted vector.
struct RefModel {
  struct Item {
    double w;
    std::uint64_t payload;
  };
  std::vector<Item> items;  // descending by w, stable

  std::size_t insert(double w, std::uint64_t p) {
    auto it = std::find_if(items.begin(), items.end(),
                           [&](const Item& i) { return i.w < w; });
    it = items.insert(it, Item{w, p});
    return static_cast<std::size_t>(it - items.begin()) + 1;
  }
  void erase_payload(std::uint64_t p) {
    auto it = std::find_if(items.begin(), items.end(),
                           [&](const Item& i) { return i.payload == p; });
    items.erase(it);
  }
  double range_sum(std::size_t a, std::size_t b) const {
    double s = 0.0;
    for (std::size_t k = a; k <= b && k <= items.size(); ++k) {
      s += items[k - 1].w;
    }
    return s;
  }
  double range_wsum(std::size_t a, std::size_t b) const {
    double s = 0.0;
    for (std::size_t k = a; k <= b && k <= items.size(); ++k) {
      s += static_cast<double>(k - a + 1) * items[k - 1].w;
    }
    return s;
  }
};

class RangeTreeProperty : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(RangeTreeProperty, MatchesReferenceModelUnderChurn) {
  std::mt19937_64 rng(GetParam());
  Tree t(GetParam());
  RefModel ref;
  std::vector<Tree::Handle> handles;
  std::uint64_t next_payload = 0;

  std::uniform_real_distribution<double> weight_dist(1.0, 1000.0);
  for (int step = 0; step < 800; ++step) {
    const bool do_insert = handles.empty() || (rng() % 100) < 60;
    if (do_insert) {
      // Occasionally duplicate an existing weight to exercise ties.
      double w = weight_dist(rng);
      if (!handles.empty() && (rng() % 10) == 0) {
        w = Tree::weight(handles[rng() % handles.size()]);
      }
      const auto h = t.insert(w, next_payload);
      ref.insert(w, next_payload);
      ++next_payload;
      handles.push_back(h);
    } else {
      const std::size_t pick = rng() % handles.size();
      const auto h = handles[pick];
      ref.erase_payload(Tree::payload(h));
      t.erase(h);
      handles.erase(handles.begin() + static_cast<long>(pick));
    }
    ASSERT_EQ(t.size(), ref.items.size());
    if (step % 50 == 0) {
      ASSERT_TRUE(t.validate()) << "at step " << step;
    }
    if (!handles.empty() && step % 7 == 0) {
      // Rank of a random handle matches the reference position.
      const auto h = handles[rng() % handles.size()];
      const std::size_t r = t.rank(h);
      ASSERT_EQ(Tree::payload(t.select(r)), Tree::payload(h));
      ASSERT_EQ(ref.items[r - 1].payload, Tree::payload(h));
      // Random range queries agree.
      const std::size_t n = t.size();
      std::size_t a = 1 + rng() % n;
      std::size_t b = 1 + rng() % n;
      if (a > b) std::swap(a, b);
      ASSERT_NEAR(t.range_sum(a, b), ref.range_sum(a, b), 1e-6);
      ASSERT_NEAR(t.range_wsum(a, b), ref.range_wsum(a, b), 1e-6);
    }
  }
  // Threading order equals reference order front to back and back to front.
  std::size_t idx = 0;
  for (auto h = t.first(); h != nullptr; h = t.successor(h), ++idx) {
    ASSERT_EQ(Tree::payload(h), ref.items[idx].payload);
  }
  ASSERT_EQ(idx, ref.items.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, RangeTreeProperty,
                         ::testing::Values(11u, 22u, 33u, 44u, 55u, 66u));

}  // namespace
}  // namespace dvfs::ds
