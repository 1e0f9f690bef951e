/// Differential tests: FlatRangeTree (implicit B-tree, bump arena) against
/// the pointer-based treap RangeTree (tests/range_tree.h), kept as the
/// oracle. Random insert/erase/range-query interleavings are generated
/// from a SplitMix64 seed so every failure reproduces from one integer; a
/// greedy delta-debugging shrinker reduces a failing op script before the
/// test reports it.
#include "dvfs/ds/flat_range_tree.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "proptest/rng.h"
#include "range_tree.h"

namespace dvfs::ds {
namespace {

using Oracle = RangeTree<std::uint64_t>;

// Aggregates are sums of the same multiset accumulated in different tree
// shapes, so they may differ by rounding; everything else must be exact.
bool close(double a, double b) {
  return std::fabs(a - b) <= 1e-9 * std::max({1.0, std::fabs(a), std::fabs(b)});
}

// ---------------------------------------------------------------------------
// Edge cases
// ---------------------------------------------------------------------------

TEST(FlatRangeTree, EmptyTree) {
  FlatRangeTree t;
  EXPECT_EQ(t.size(), 0u);
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.first(), nullptr);
  EXPECT_EQ(t.last(), nullptr);
  EXPECT_TRUE(t.validate());
  EXPECT_DOUBLE_EQ(t.range_sum(3, 2), 0.0);  // empty range is fine
  EXPECT_DOUBLE_EQ(t.range_wsum(3, 2), 0.0);
}

TEST(FlatRangeTree, SingleNode) {
  FlatRangeTree t;
  const auto h = t.insert(42.0, 7);
  EXPECT_EQ(t.size(), 1u);
  EXPECT_EQ(t.rank(h), 1u);
  EXPECT_EQ(t.select(1), h);
  EXPECT_DOUBLE_EQ(FlatRangeTree::weight(h), 42.0);
  EXPECT_EQ(FlatRangeTree::payload(h), 7u);
  EXPECT_EQ(t.first(), h);
  EXPECT_EQ(t.last(), h);
  EXPECT_EQ(t.predecessor(h), nullptr);
  EXPECT_EQ(t.successor(h), nullptr);
  EXPECT_TRUE(t.validate());
  t.erase(h);
  EXPECT_TRUE(t.empty());
  EXPECT_TRUE(t.validate());
}

TEST(FlatRangeTree, DuplicateKeysAreStableByInsertionOrder) {
  FlatRangeTree t;
  Oracle o;
  // Many identical (weight, payload-class) keys force every tie-break path:
  // stability demands insertion order within a weight class, matching the
  // treap's "ties go right".
  for (std::uint64_t p = 0; p < 100; ++p) {
    t.insert(5.0, p);
    o.insert(5.0, p);
    t.insert(7.0, 1000 + p);
    o.insert(7.0, 1000 + p);
  }
  ASSERT_EQ(t.size(), o.size());
  ASSERT_TRUE(t.validate());
  for (std::size_t r = 1; r <= t.size(); ++r) {
    ASSERT_EQ(FlatRangeTree::payload(t.select(r)), Oracle::payload(o.select(r)))
        << "rank " << r;
  }
}

TEST(FlatRangeTree, RangeQueriesRejectOutOfBounds) {
  FlatRangeTree t;
  t.insert(1.0, 0);
  EXPECT_THROW((void)t.range_sum(1, 2), PreconditionError);
  EXPECT_THROW((void)t.range_sum(0, 1), PreconditionError);
  EXPECT_THROW((void)t.prefix(2), PreconditionError);
  EXPECT_THROW((void)t.select(0), PreconditionError);
  EXPECT_THROW((void)t.select(2), PreconditionError);
}

TEST(FlatRangeTree, ArenaGrowsAcrossNodeChunkBoundary) {
  // One arena chunk holds 64 nodes; 3000 distinct weights need >100 leaves,
  // so handles minted in chunk 0 must survive growth into later chunks.
  FlatRangeTree t;
  std::vector<FlatRangeTree::Handle> handles;
  for (std::uint64_t i = 0; i < 3000; ++i) {
    handles.push_back(t.insert(static_cast<double>((i * 37) % 3001), i));
  }
  ASSERT_GE(t.arena_chunk_count(), 2u);
  ASSERT_TRUE(t.validate());
  // Handles are stable across every split/merge/chunk allocation.
  for (std::uint64_t i = 0; i < 3000; ++i) {
    ASSERT_EQ(FlatRangeTree::payload(handles[i]), i);
  }
  // Drain back through the merge path and rebuild: freed nodes and slots
  // must be reused, not leaked into fresh chunks.
  for (const auto h : handles) t.erase(h);
  EXPECT_TRUE(t.empty());
  EXPECT_TRUE(t.validate());
  const std::size_t chunks_after_drain = t.arena_chunk_count();
  for (std::uint64_t i = 0; i < 3000; ++i) {
    t.insert(static_cast<double>(i), i);
  }
  EXPECT_EQ(t.arena_chunk_count(), chunks_after_drain);
  EXPECT_TRUE(t.validate());
}

TEST(FlatRangeTree, MoveSemantics) {
  FlatRangeTree t;
  t.insert(2.0, 0);
  t.insert(1.0, 1);
  FlatRangeTree u = std::move(t);
  EXPECT_EQ(u.size(), 2u);
  EXPECT_TRUE(u.validate());
  FlatRangeTree v;
  v.insert(9.0, 9);
  v = std::move(u);
  EXPECT_EQ(v.size(), 2u);
  EXPECT_DOUBLE_EQ(FlatRangeTree::weight(v.select(1)), 2.0);
}

// ---------------------------------------------------------------------------
// Differential fuzz with shrinking
// ---------------------------------------------------------------------------

struct Op {
  enum Kind { kInsert, kErase } kind = kInsert;
  double weight = 0.0;     // kInsert
  std::uint64_t pick = 0;  // kErase: index into live handles, mod live count
};

std::string describe(const std::vector<Op>& script) {
  std::ostringstream os;
  for (const Op& op : script) {
    if (op.kind == Op::kInsert) {
      os << "insert(" << op.weight << ") ";
    } else {
      os << "erase(#" << op.pick << ") ";
    }
  }
  return os.str();
}

std::vector<Op> generate_script(std::uint64_t seed, std::size_t length) {
  proptest::SplitMix64 g(seed);
  std::vector<Op> script;
  script.reserve(length);
  std::vector<double> weights;  // pool for duplicate-weight inserts
  for (std::size_t i = 0; i < length; ++i) {
    Op op;
    if (weights.empty() || g.chance(0.6)) {
      op.kind = Op::kInsert;
      // Duplicates with 20% probability stress the stable-tie paths.
      op.weight = (!weights.empty() && g.chance(0.2))
                      ? weights[g.uniform_index(weights.size())]
                      : g.uniform_real(1.0, 1000.0);
      weights.push_back(op.weight);
    } else {
      op.kind = Op::kErase;
      op.pick = g.next();
    }
    script.push_back(op);
  }
  return script;
}

// Replays `script` on both trees in lockstep and cross-checks the full
// query surface after every op. Returns a description of the first
// divergence, or nullopt if the run is clean. Erase ops address the live
// set modulo its size, so the script stays well-formed under shrinking.
std::optional<std::string> run_script(const std::vector<Op>& script,
                                      std::uint64_t query_seed) {
  proptest::SplitMix64 q(query_seed);
  FlatRangeTree flat;
  Oracle oracle;
  std::vector<FlatRangeTree::Handle> fh;
  std::vector<Oracle::Handle> oh;
  std::uint64_t next_payload = 0;

  auto fail = [&](std::size_t step, const std::string& what) {
    std::ostringstream os;
    os << "step " << step << ": " << what;
    return os.str();
  };

  for (std::size_t step = 0; step < script.size(); ++step) {
    const Op& op = script[step];
    if (op.kind == Op::kInsert) {
      fh.push_back(flat.insert(op.weight, next_payload));
      oh.push_back(oracle.insert(op.weight, next_payload));
      ++next_payload;
    } else if (!fh.empty()) {
      const std::size_t pick = op.pick % fh.size();
      flat.erase(fh[pick]);
      oracle.erase(oh[pick]);
      fh.erase(fh.begin() + static_cast<long>(pick));
      oh.erase(oh.begin() + static_cast<long>(pick));
    }

    if (flat.size() != oracle.size()) return fail(step, "size mismatch");
    if (!flat.validate()) return fail(step, "flat validate() failed");
    const std::size_t n = flat.size();
    if (n == 0) {
      if (flat.first() != nullptr || flat.last() != nullptr) {
        return fail(step, "empty tree has first/last");
      }
      continue;
    }

    // Full order check: rank -> (weight, payload) must agree everywhere.
    for (std::size_t r = 1; r <= n; ++r) {
      const auto a = flat.select(r);
      const auto b = oracle.select(r);
      if (FlatRangeTree::weight(a) != Oracle::weight(b) ||
          FlatRangeTree::payload(a) != Oracle::payload(b)) {
        return fail(step, "select(" + std::to_string(r) + ") mismatch");
      }
    }
    // Handle-side rank agrees with the oracle for a random live element.
    {
      const std::size_t pick = q.uniform_index(fh.size());
      if (flat.rank(fh[pick]) != oracle.rank(oh[pick])) {
        return fail(step, "rank mismatch");
      }
    }
    // Aggregate queries over random ranges.
    std::size_t a = 1 + q.uniform_index(n);
    std::size_t b = 1 + q.uniform_index(n);
    if (a > b) std::swap(a, b);
    if (!close(flat.range_sum(a, b), oracle.range_sum(a, b))) {
      return fail(step, "range_sum mismatch");
    }
    if (!close(flat.range_wsum(a, b), oracle.range_wsum(a, b))) {
      return fail(step, "range_wsum mismatch");
    }
    const std::size_t k = q.uniform_index(n + 1);
    const PrefixStats pf = flat.prefix(k);
    const PrefixStats po = oracle.prefix(k);
    if (pf.count != po.count || !close(pf.sum, po.sum) ||
        !close(pf.wsum, po.wsum)) {
      return fail(step, "prefix mismatch");
    }
    // Insertion rank for a weight drawn near the live range (may tie).
    const double probe = q.uniform_real(0.0, 1001.0);
    if (flat.insertion_rank(probe) != oracle.insertion_rank(probe)) {
      return fail(step, "insertion_rank mismatch");
    }
    // Ordered traversal via the leaf links matches the treap threading.
    auto hf = flat.first();
    auto ho = oracle.first();
    while (hf != nullptr && ho != nullptr) {
      if (FlatRangeTree::payload(hf) != Oracle::payload(ho)) {
        return fail(step, "forward traversal mismatch");
      }
      hf = flat.successor(hf);
      ho = oracle.successor(ho);
    }
    if (hf != nullptr || ho != nullptr) {
      return fail(step, "traversal length mismatch");
    }
  }
  return std::nullopt;
}

// Greedy delta debugging: repeatedly drop op chunks (halving the chunk size
// down to 1) while the script still fails. Minimal scripts make the
// divergence report actionable.
std::vector<Op> shrink_script(std::vector<Op> script, std::uint64_t query_seed) {
  std::size_t chunk = script.size() / 2;
  while (chunk >= 1) {
    bool removed_any = false;
    for (std::size_t start = 0; start + chunk <= script.size();) {
      std::vector<Op> candidate;
      candidate.reserve(script.size() - chunk);
      candidate.insert(candidate.end(), script.begin(),
                       script.begin() + static_cast<long>(start));
      candidate.insert(candidate.end(),
                       script.begin() + static_cast<long>(start + chunk),
                       script.end());
      if (run_script(candidate, query_seed).has_value()) {
        script = std::move(candidate);
        removed_any = true;
        // Retry the same offset: the next chunk slid into place.
      } else {
        start += chunk;
      }
    }
    if (!removed_any || chunk == 1) {
      if (chunk == 1) break;
    }
    chunk /= 2;
  }
  return script;
}

class FlatRangeTreeDifferential
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FlatRangeTreeDifferential, MatchesTreapUnderRandomChurn) {
  const std::uint64_t seed = GetParam();
  const std::uint64_t query_seed = proptest::derive_seed(seed, 1);
  const std::vector<Op> script = generate_script(seed, 600);
  const auto failure = run_script(script, query_seed);
  if (failure.has_value()) {
    const std::vector<Op> minimal = shrink_script(script, query_seed);
    const auto shrunk_failure = run_script(minimal, query_seed);
    FAIL() << "seed " << seed << ": " << *failure << "\nshrunk to "
           << minimal.size() << " ops: " << describe(minimal) << "\n("
           << (shrunk_failure ? *shrunk_failure : std::string("?")) << ")";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlatRangeTreeDifferential,
                         ::testing::Values(0x1ull, 0x2ull, 0xDEADBEEFull,
                                           0x20140901ull, 0xC0FFEEull,
                                           0xB16B00B5ull));

// ---------------------------------------------------------------------------
// insertion_point: rank and prefix mass in one descent, bit for bit
// ---------------------------------------------------------------------------

// The Eq. 27 probe subtracts this sum from prefix(b).sum, and the
// simulation's cost is checked bit for bit, so "close" is not enough:
// compare bit patterns.
::testing::AssertionResult point_matches(const FlatRangeTree& t, double w) {
  const FlatRangeTree::InsertionPoint at = t.insertion_point(w);
  const std::size_t rank = t.insertion_rank(w);
  if (at.rank != rank) {
    return ::testing::AssertionFailure()
           << "weight " << w << ": rank " << at.rank << " != insertion_rank "
           << rank;
  }
  const double want = t.prefix(rank - 1).sum;
  if (std::bit_cast<std::uint64_t>(at.prefix_sum) !=
      std::bit_cast<std::uint64_t>(want)) {
    return ::testing::AssertionFailure()
           << "weight " << w << " (rank " << rank << "): prefix_sum "
           << at.prefix_sum << " != prefix(rank-1).sum " << want;
  }
  return ::testing::AssertionSuccess();
}

// Probes every stored weight exactly (duplicates land after their run),
// its two floating-point neighbours, and weights heavier and lighter than
// every element.
void expect_all_points_match(const FlatRangeTree& t) {
  std::vector<double> probes{1e300, 1e-300, 0.5, -1.0};
  for (auto h = t.first(); h != nullptr; h = t.successor(h)) {
    const double w = FlatRangeTree::weight(h);
    probes.push_back(w);
    probes.push_back(std::nextafter(w, 0.0));
    probes.push_back(std::nextafter(w, 1e308));
  }
  for (const double w : probes) {
    ASSERT_TRUE(point_matches(t, w));
  }
}

TEST(FlatRangeTreeInsertionPoint, EmptyTreeAndSingleLeafRoot) {
  FlatRangeTree t;
  const FlatRangeTree::InsertionPoint empty = t.insertion_point(5.0);
  EXPECT_EQ(empty.rank, 1u);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(empty.prefix_sum),
            std::bit_cast<std::uint64_t>(0.0));
  // Fewer than one leaf's worth: the root is a leaf. Duplicates included.
  for (const double w : {0.1, 0.7, 0.7, 0.3, 0.7, 2.9, 0.1}) t.insert(w);
  ASSERT_LE(t.size(), FlatRangeTree::kLeafCap);
  expect_all_points_match(t);
  EXPECT_EQ(t.insertion_point(0.7).rank, 5u);  // after 2.9 and three 0.7s
}

class FlatRangeTreeInsertionPointChurn
    : public ::testing::TestWithParam<std::uint64_t> {};

// Seeded trees of several shapes, under inserts and erases (erases leave
// underfull and merged nodes behind), with weights drawn both from a small
// integer set (long duplicate runs) and from a spread of magnitudes whose
// sums round differently in every summation order.
TEST_P(FlatRangeTreeInsertionPointChurn, MatchesRankAndPrefixBitForBit) {
  proptest::SplitMix64 rng(GetParam());
  for (const std::size_t size : {std::size_t{29}, std::size_t{450},
                                 std::size_t{6000}}) {
    FlatRangeTree t;
    std::vector<FlatRangeTree::Handle> handles;
    for (std::size_t i = 0; i < size; ++i) {
      const double w =
          rng.chance(0.5)
              ? static_cast<double>(rng.uniform_u64(1, 12))
              : rng.lognormalish(8.0, 3.0) * 1.0000001;
      handles.push_back(t.insert(w, i));
    }
    for (std::size_t i = 0; i < size / 3; ++i) {
      const std::size_t victim = rng.uniform_index(handles.size());
      t.erase(handles[victim]);
      handles[victim] = handles.back();
      handles.pop_back();
    }
    ASSERT_TRUE(t.validate());
    expect_all_points_match(t);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlatRangeTreeInsertionPointChurn,
                         ::testing::Values(0x1ull, 0x20140901ull,
                                           0xDEADBEEFull));

TEST(FlatRangeTreeInsertionPoint, DeepTreeAcrossArenaChunks) {
  // 10^5 elements span many 64-node arena chunks and four inner levels
  // (fanout 15 over ~5000 leaves), so absorption happens at every depth.
  proptest::SplitMix64 rng(0x5EED);
  FlatRangeTree t;
  for (std::uint64_t i = 0; i < 100'000; ++i) {
    t.insert(rng.chance(0.25) ? static_cast<double>(rng.uniform_u64(1, 64))
                              : rng.uniform_real(1.0, 1e9),
             i);
  }
  ASSERT_GE(t.arena_chunk_count(), 2u);
  std::size_t checked = 0;
  for (auto h = t.first(); h != nullptr; h = t.successor(h)) {
    // Every 7th element plus its neighbours keeps the walk affordable
    // under sanitizers while still probing every leaf.
    if (++checked % 7 != 0) continue;
    const double w = FlatRangeTree::weight(h);
    ASSERT_TRUE(point_matches(t, w));
    ASSERT_TRUE(point_matches(t, std::nextafter(w, 0.0)));
    ASSERT_TRUE(point_matches(t, std::nextafter(w, 1e308)));
  }
  ASSERT_TRUE(point_matches(t, 1e300));
  ASSERT_TRUE(point_matches(t, 0.5));
  // ~5400 nodes: past the 2 MiB mark, so the last chunks live in blocks.
  EXPECT_GE(t.arena_block_count(), 1u);
  EXPECT_TRUE(t.validate());
}

// ---------------------------------------------------------------------------
// insertion_points (lockstep) and insert_at (insert at the descent)
// ---------------------------------------------------------------------------

::testing::AssertionResult same_point(const FlatRangeTree::InsertionPoint& a,
                                      const FlatRangeTree::InsertionPoint& b) {
  if (a.rank != b.rank || a.leaf != b.leaf || a.pos != b.pos ||
      a.version != b.version ||
      std::bit_cast<std::uint64_t>(a.prefix_sum) !=
          std::bit_cast<std::uint64_t>(b.prefix_sum)) {
    return ::testing::AssertionFailure()
           << "lockstep {rank " << a.rank << ", sum " << a.prefix_sum
           << ", leaf " << a.leaf << ", pos " << a.pos << ", version "
           << a.version << "} != single {rank " << b.rank << ", sum "
           << b.prefix_sum << ", leaf " << b.leaf << ", pos " << b.pos
           << ", version " << b.version << "}";
  }
  return ::testing::AssertionSuccess();
}

// Trees of every shape in one set: empty, a single leaf, all-equal weights
// (ties), and seeded trees with churn of up to 10^5 elements, so the group
// mixes descents that finish at different depths.
std::vector<FlatRangeTree> mixed_trees(std::size_t count, std::uint64_t seed) {
  proptest::SplitMix64 rng(seed);
  std::vector<FlatRangeTree> trees;
  for (std::size_t k = 0; k < count; ++k) {
    FlatRangeTree t;
    std::size_t size = 0;
    switch (k % 6) {
      case 0: break;                                     // empty
      case 1: size = rng.uniform_u64(1, 20); break;      // one leaf
      case 2: size = 300; break;                         // ties only
      case 3: size = rng.uniform_u64(29, 6000); break;
      case 4: size = rng.uniform_u64(6000, 40'000); break;
      default: size = k < 6 ? 100'000 : 20'000; break;  // 10^5 once
    }
    std::vector<FlatRangeTree::Handle> handles;
    for (std::size_t i = 0; i < size; ++i) {
      const double w = k % 6 == 2 ? 7.0
                       : rng.chance(0.3)
                           ? static_cast<double>(rng.uniform_u64(1, 12))
                           : rng.lognormalish(8.0, 3.0) * 1.0000001;
      handles.push_back(t.insert(w, i));
    }
    for (std::size_t i = 0; i < size / 4 && k % 6 != 2; ++i) {
      const std::size_t victim = rng.uniform_index(handles.size());
      t.erase(handles[victim]);
      handles[victim] = handles.back();
      handles.pop_back();
    }
    trees.push_back(std::move(t));
  }
  return trees;
}

TEST(FlatRangeTreeInsertionPoint, LockstepMatchesPerTreeBitForBit) {
  // More trees than one lockstep group holds, so groups run back to back.
  const std::size_t count = 2 * FlatRangeTree::kLockstep + 3;
  const std::vector<FlatRangeTree> trees = mixed_trees(count, 0x10C4);
  std::vector<const FlatRangeTree*> ptrs;
  for (const FlatRangeTree& t : trees) ptrs.push_back(&t);
  ASSERT_EQ(trees[5].size(), 100'000u - 25'000u);

  // Probe weights: every tree's own stored weights (exact ties), their
  // neighbours, and weights beyond both ends.
  proptest::SplitMix64 rng(0xF00D);
  std::vector<double> probes{1e300, 1e-300, 7.0, std::nextafter(7.0, 0.0),
                             std::nextafter(7.0, 1e308), 0.5};
  for (const FlatRangeTree& t : trees) {
    for (int i = 0; i < 40 && !t.empty(); ++i) {
      const double w =
          FlatRangeTree::weight(t.select(1 + rng.uniform_index(t.size())));
      probes.push_back(w);
      probes.push_back(std::nextafter(w, 0.0));
      probes.push_back(std::nextafter(w, 1e308));
    }
  }
  std::vector<FlatRangeTree::InsertionPoint> out(count);
  for (const double w : probes) {
    // Every group size from one tree up to the whole set.
    for (const std::size_t n : {std::size_t{1}, std::size_t{3}, count}) {
      FlatRangeTree::insertion_points(ptrs.data(), n, w, out.data());
      for (std::size_t k = 0; k < n; ++k) {
        ASSERT_TRUE(same_point(out[k], trees[k].insertion_point(w)))
            << "tree " << k << " (size " << trees[k].size() << "), weight "
            << w << ", group " << n;
        ASSERT_TRUE(point_matches(trees[k], w));
      }
    }
  }
}

TEST(FlatRangeTreeInsertionPoint, InsertAtMatchesInsert) {
  // Two trees fed the same stream, one through insert(), one through
  // insert_at() at a fresh point: identical order, payloads and aggregates
  // after every kind of leaf split, erase and merge.
  proptest::SplitMix64 rng(0x1A5E);
  FlatRangeTree plain;
  FlatRangeTree hinted;
  std::vector<std::pair<FlatRangeTree::Handle, FlatRangeTree::Handle>> live;
  for (std::uint64_t i = 0; i < 30'000; ++i) {
    if (!live.empty() && rng.chance(0.3)) {
      const std::size_t victim = rng.uniform_index(live.size());
      plain.erase(live[victim].first);
      hinted.erase(live[victim].second);
      live[victim] = live.back();
      live.pop_back();
      continue;
    }
    const double w = rng.chance(0.4)
                         ? static_cast<double>(rng.uniform_u64(1, 16))
                         : rng.uniform_real(1.0, 1e6);
    const auto at = hinted.insertion_point(w);
    const auto h = hinted.insert_at(w, i, at);
    live.emplace_back(plain.insert(w, i), h);
    ASSERT_EQ(hinted.rank(h), at.rank);
  }
  ASSERT_TRUE(plain.validate());
  ASSERT_TRUE(hinted.validate());
  ASSERT_EQ(plain.size(), hinted.size());
  for (auto a = plain.first(), b = hinted.first(); a != nullptr;
       a = plain.successor(a), b = hinted.successor(b)) {
    ASSERT_NE(b, nullptr);
    ASSERT_EQ(FlatRangeTree::payload(a), FlatRangeTree::payload(b));
  }
  for (std::size_t k = 0; k <= plain.size(); k += 97) {
    const PrefixStats x = plain.prefix(k);
    const PrefixStats y = hinted.prefix(k);
    ASSERT_EQ(std::bit_cast<std::uint64_t>(x.sum),
              std::bit_cast<std::uint64_t>(y.sum));
    ASSERT_EQ(std::bit_cast<std::uint64_t>(x.wsum),
              std::bit_cast<std::uint64_t>(y.wsum));
    ASSERT_EQ(std::bit_cast<std::uint64_t>(x.sum), std::bit_cast<std::uint64_t>(
                                                       plain.prefix_sum(k)));
  }
}

TEST(FlatRangeTreeInsertionPoint, InsertAtRejectsStaleOrMisfitPoints) {
  FlatRangeTree t;
  const auto empty_at = t.insertion_point(3.0);
  t.insert_at(3.0, 1, empty_at);
  // The tree changed since the point was taken.
  EXPECT_THROW(t.insert_at(3.0, 2, empty_at), PreconditionError);
  for (const double w : {9.0, 5.0, 5.0, 1.0}) t.insert(w);
  const auto at = t.insertion_point(5.0);  // after both 5.0s, before 3.0
  ASSERT_EQ(at.rank, 4u);
  // Weights that do not belong there: heavier than the element ahead,
  // lighter than (or tied with) the element behind.
  EXPECT_THROW(t.insert_at(6.0, 3, at), PreconditionError);
  EXPECT_THROW(t.insert_at(3.0, 3, at), PreconditionError);
  EXPECT_THROW(t.insert_at(2.0, 3, at), PreconditionError);
  EXPECT_EQ(t.size(), 5u);  // a rejected insert changes nothing
  EXPECT_EQ(t.version(), at.version);
  t.insert_at(4.0, 3, at);  // any weight in (3.0, 5.0] fits
  EXPECT_TRUE(t.validate());
  // Erase invalidates points too.
  const auto tail_at = t.insertion_point(0.5);
  t.erase(t.first());
  EXPECT_THROW(t.insert_at(0.5, 4, tail_at), PreconditionError);
  EXPECT_TRUE(t.validate());
}

// The shrinker itself must converge on a known-bad predicate; drive it with
// a synthetic failure (any script containing >= 3 erases "fails") and check
// it reaches the minimum.
TEST(FlatRangeTreeShrinker, ConvergesOnSyntheticPredicate) {
  std::vector<Op> script = generate_script(99, 200);
  auto count_erases = [](const std::vector<Op>& s) {
    std::size_t c = 0;
    for (const Op& op : s) c += op.kind == Op::kErase ? 1 : 0;
    return c;
  };
  ASSERT_GE(count_erases(script), 3u);
  // Reuse the chunk-removal loop shape against the synthetic predicate.
  std::size_t chunk = script.size() / 2;
  while (chunk >= 1) {
    for (std::size_t start = 0; start + chunk <= script.size();) {
      std::vector<Op> candidate;
      candidate.insert(candidate.end(), script.begin(),
                       script.begin() + static_cast<long>(start));
      candidate.insert(candidate.end(),
                       script.begin() + static_cast<long>(start + chunk),
                       script.end());
      if (count_erases(candidate) >= 3) {
        script = std::move(candidate);
      } else {
        start += chunk;
      }
    }
    if (chunk == 1) break;
    chunk /= 2;
  }
  EXPECT_EQ(script.size(), 3u);
  EXPECT_EQ(count_erases(script), 3u);
}

}  // namespace
}  // namespace dvfs::ds
