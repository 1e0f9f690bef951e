/// \file flat_range_tree.h
/// \brief Cache-conscious order-statistic tree with position-weighted
///        aggregates.
///
/// The Section IV-A "single 1D range tree": a multiset of weighted
/// elements kept in *descending* weight order (the paper's L^B sequence)
/// with the two composable aggregates
///
///   sum  = sum of weights                                (the paper's xi)
///   wsum = sum of (local 1-based position) * weight      (the paper's Delta)
///
/// maintained per subtree, so insert/erase/rank/select/prefix all run in
/// O(log N). It is an implicit B+-tree tuned for the LMC hot path, where
/// a pointer-chasing treap (kept as a test oracle in tests/range_tree.h)
/// would miss the cache on every hop:
///
///  * Nodes are fixed 512-byte blocks, `alignas(64)` so a node occupies
///    whole cache lines; they live in a chunked bump arena and are
///    addressed by 32-bit indices, not pointers.
///  * Leaves pack up to 28 (weight, slot) pairs; the weights form a
///    contiguous `double[]` so the per-leaf scans the queries bottom out
///    in are branch-predictable linear sweeps over one or two lines.
///  * Interior nodes store *per-child* aggregate arrays (count, sum, wsum,
///    min weight), so a root-to-leaf descent reads exactly one node per
///    level — there is no need to touch a child to decide against it.
///  * Fanout 15 / leaf capacity 28 keeps the tree shallow, though not as
///    shallow as full nodes would: three levels hold at most
///    15*15*28 = 6,300 elements, and splits leave nodes about two thirds
///    full. The BM_PlaceNonInteractive queues measure 1 level at depth 16,
///    2 at 256, 4 at 4096, and 5 at both 65,536 and 262,144 (vs ~17
///    expected pointer hops for a treap at 10^5).
///  * Deep-queue placement overlaps its cache misses: insertion_points()
///    descends several trees one level at a time, prefetching each next
///    node, and insert_at() inserts at a point already found, skipping
///    the second descent. Once a tree holds 2 MiB of nodes, further arena
///    chunks are carved from 2 MiB-aligned blocks advised for huge pages.
///
/// Handles are stable pointers into a separate slot arena; a slot stores
/// the element's weight, payload and owning leaf, so `weight(h)` and
/// `payload(h)` stay O(1) and handles survive node splits/merges.
///
/// Deletion rebalancing is deliberately simple: an emptied leaf is freed,
/// a leaf at <= 1/4 capacity merges into a same-parent neighbor when it
/// fits, and a single-child root collapses. Node occupancy can therefore
/// drop below the classical B-tree minimum under adversarial churn, but
/// depth never exceeds that of the historical maximum size — the right
/// trade for a scheduler queue, and the differential fuzz in
/// tests/test_flat_range_tree.cpp holds the structure to the treap's
/// behaviour under exactly this kind of churn. See docs/flat_range_tree.md.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "dvfs/common.h"

namespace dvfs::ds {

/// Prefix aggregate of the first k elements (descending order):
/// `sum` = xi([1,k]); `wsum` = sum over i<=k of i * w_i.
struct PrefixStats {
  std::size_t count = 0;
  double sum = 0.0;
  double wsum = 0.0;
};

class FlatRangeTree {
 public:
  using Payload = std::uint64_t;

  /// Stable element record; handles point here, never into tree nodes.
  struct Slot {
    double weight = 0.0;
    Payload payload = 0;
    std::uint32_t leaf = 0;  ///< arena index of the owning leaf node
    std::uint32_t pad_ = 0;
  };

  /// Opaque element handle; stays valid until the element is erased.
  using Handle = Slot*;

  static constexpr std::size_t kLeafCap = 28;   ///< elements per leaf
  static constexpr std::size_t kInnerCap = 15;  ///< children per inner node

  FlatRangeTree() = default;

  FlatRangeTree(const FlatRangeTree&) = delete;
  FlatRangeTree& operator=(const FlatRangeTree&) = delete;

  FlatRangeTree(FlatRangeTree&& other) noexcept { swap(other); }
  FlatRangeTree& operator=(FlatRangeTree&& other) noexcept {
    if (this != &other) {
      clear();
      swap(other);
    }
    return *this;
  }

  ~FlatRangeTree() = default;

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  /// Inserts a weight, keeping descending order; equal weights are placed
  /// after existing ones (stable). Returns a handle valid until erase().
  Handle insert(double weight, Payload payload = Payload{});

  /// Removes the element behind `h`. The handle becomes invalid.
  void erase(Handle h);

  /// 1-based position of `h` in descending-weight order. O(log N).
  [[nodiscard]] std::size_t rank(Handle h) const;

  /// Handle of the element at 1-based rank k. O(log N).
  [[nodiscard]] Handle select(std::size_t k) const;

  /// Aggregates of the first k elements. O(log N); k == 0 gives zeros.
  [[nodiscard]] PrefixStats prefix(std::size_t k) const;

  /// prefix(k).sum, bit for bit, without accumulating wsum. O(log N).
  [[nodiscard]] double prefix_sum(std::size_t k) const;

  /// xi([a,b]): sum of weights at ranks a..b (inclusive). Empty if a > b.
  [[nodiscard]] double range_sum(std::size_t a, std::size_t b) const;

  /// Delta([a,b]) = sum over k in [a,b] of (k - a + 1) * w_k. Empty if a > b.
  [[nodiscard]] double range_wsum(std::size_t a, std::size_t b) const;

  /// Rank a new element of `weight` would occupy if inserted now (equal
  /// weights are stable, so the new element lands after them). O(log N).
  [[nodiscard]] std::size_t insertion_rank(double weight) const;

  /// Where a new element of `weight` would land, and the weight mass
  /// ahead of it. The leaf, position and version let insert_at() place
  /// the element there without descending again.
  struct InsertionPoint {
    std::size_t rank = 1;     ///< == insertion_rank(weight)
    double prefix_sum = 0.0;  ///< == prefix(rank - 1).sum, bit for bit
    std::uint32_t leaf = 0xFFFFFFFFu;  ///< arena index; none if empty
    std::uint32_t pos = 0;             ///< index inside that leaf
    std::uint64_t version = 0;         ///< tree version when taken
  };

  /// insertion_rank() and the prefix sum before that rank in one
  /// descent. Whole children ahead of the newcomer are absorbed as
  /// subtree sums in exactly the order prefix() absorbs them, so the
  /// sum is bit-identical to prefix(rank - 1).sum. O(log N).
  [[nodiscard]] InsertionPoint insertion_point(double weight) const;

  /// insertion_point(weight) on each of `n` trees, written to out[0..n).
  /// The trees are descended in lockstep groups, one level at a time,
  /// with each tree's next node prefetched before the group moves on, so
  /// their cache misses overlap instead of queueing. Each tree's own
  /// arithmetic runs in insertion_point()'s order: every result is bit
  /// for bit what insertion_point() returns (it is the n == 1 case).
  static void insertion_points(const FlatRangeTree* const* trees,
                               std::size_t n, double weight,
                               InsertionPoint* out);

  /// Trees descended together by insertion_points(); larger sets run in
  /// successive groups.
  static constexpr std::size_t kLockstep = 8;

  /// insert() at a point this tree returned for `weight`, skipping the
  /// descent; the resulting order and aggregates are insert()'s. Throws
  /// PreconditionError if the tree changed since the point was taken or
  /// `weight` does not belong at that position.
  Handle insert_at(double weight, Payload payload, const InsertionPoint& at);

  /// Bumped by every insert, erase and clear.
  [[nodiscard]] std::uint64_t version() const { return version_; }

  /// In-order neighbors (nullptr at the ends). O(1) amortized: one leaf
  /// scan, stepping through the doubly linked leaf list at boundaries.
  [[nodiscard]] Handle predecessor(Handle h) const;
  [[nodiscard]] Handle successor(Handle h) const;

  [[nodiscard]] Handle first() const;  ///< rank 1 (heaviest)
  [[nodiscard]] Handle last() const;   ///< rank N (lightest)

  [[nodiscard]] static double weight(Handle h) { return h->weight; }
  [[nodiscard]] static Payload& payload(Handle h) { return h->payload; }
  [[nodiscard]] static const Payload& payload(const Slot* h) {
    return h->payload;
  }

  void clear();

  /// Validates every structural invariant (descending order, per-child
  /// aggregates, leaf threading, parent links, slot back-references).
  /// Test-support; O(N).
  [[nodiscard]] bool validate() const;

  /// Arena introspection (test support: the differential test drives the
  /// arena across chunk boundaries and asserts handles survive).
  [[nodiscard]] std::size_t arena_chunk_count() const {
    return node_chunks_.size();
  }
  /// 2 MiB blocks backing node chunks past the first 2 MiB of nodes.
  [[nodiscard]] std::size_t arena_block_count() const {
    return node_blocks_.size();
  }

 private:
  static constexpr std::uint32_t kNil = 0xFFFFFFFFu;
  static constexpr std::size_t kNodesPerChunk = 64;  // 64 * 512 B = 32 KiB
  static constexpr std::size_t kSlotsPerChunk = 256;

  struct LeafData {
    double weight[kLeafCap];
    Slot* slot[kLeafCap];
    std::uint32_t next;  ///< leaf holding the next-lighter run (kNil at tail)
    std::uint32_t prev;
  };
  // Field order follows a descent's reads (minw, then sum and cnt of the
  // children it absorbs, then child), so a descent touches the node's
  // first six cache lines and never wsum's.
  struct InnerData {
    double minw[kInnerCap];  ///< per-child minimum (= last) weight
    double sum[kInnerCap];   ///< per-child subtree weight sums
    std::uint32_t cnt[kInnerCap];  ///< per-child subtree element counts
    std::uint32_t child[kInnerCap];
    double wsum[kInnerCap];  ///< per-child local position-weighted sums
  };

  struct alignas(64) Node {
    std::uint32_t parent;
    std::uint16_t num;  ///< live elements (leaf) or children (inner)
    std::uint8_t is_leaf;
    std::uint8_t pad_;
    union {
      LeafData leaf;
      InnerData inner;
    } u;
  };
  static_assert(sizeof(Node) == 512, "node must fill whole cache lines");
  /// Cache lines of a node a descent reads: a leaf's weights, or an
  /// inner node's minw/sum/cnt/child arrays.
  static constexpr std::size_t kDescentLines =
      (offsetof(Node, u) + offsetof(InnerData, wsum) + 63) / 64;

  [[nodiscard]] Node& node(std::uint32_t idx) {
    return node_chunks_[idx / kNodesPerChunk][idx % kNodesPerChunk];
  }
  [[nodiscard]] const Node& node(std::uint32_t idx) const {
    return node_chunks_[idx / kNodesPerChunk][idx % kNodesPerChunk];
  }

  std::uint32_t alloc_node(bool leaf);
  void free_node(std::uint32_t idx);
  Slot* alloc_slot();
  void free_slot(Slot* s);

  /// Totals of the subtree rooted at `idx`, composed from its own arrays.
  struct Totals {
    std::uint64_t cnt = 0;
    double sum = 0.0;
    double wsum = 0.0;
    double minw = 0.0;
  };
  [[nodiscard]] Totals totals_of(std::uint32_t idx) const;

  /// Position of `child` in its parent's child array. O(fanout).
  [[nodiscard]] std::size_t child_pos(const Node& parent,
                                      std::uint32_t child) const;

  /// Rewrites the parent-side aggregate entry of `idx` (no-op at the root).
  void refresh_entry(std::uint32_t idx);

  /// refresh_entry for `idx` and every ancestor. O((K + F) log N).
  void update_path(std::uint32_t idx);

  /// Splices `child` in at `pos` among `parent_idx`'s children; the parent
  /// must have room.
  void insert_entry(std::uint32_t parent_idx, std::size_t pos,
                    std::uint32_t child);

  /// Inserts `child` at `pos` among `parent_idx`'s children, splitting
  /// ancestors as needed (parent_idx == kNil grows a new root).
  void link_child(std::uint32_t parent_idx, std::size_t pos,
                  std::uint32_t left_sibling, std::uint32_t child);

  /// Removes the child at `pos`; frees emptied ancestors and collapses a
  /// single-child root.
  void unlink_child(std::uint32_t parent_idx, std::size_t pos);

  void collapse_root();

  /// Leaf index + position of `h` inside it.
  struct Location {
    std::uint32_t leaf;
    std::size_t pos;
  };
  [[nodiscard]] Location locate(Handle h) const;

  /// prefix() and prefix_sum(): one walk, wsum accumulated only if asked.
  template <bool kWsum>
  [[nodiscard]] PrefixStats prefix_walk(std::size_t k) const;

  void leaf_remove(std::uint32_t leaf_idx, std::size_t pos);
  void try_merge(std::uint32_t leaf_idx);

  void swap(FlatRangeTree& other) noexcept {
    node_chunks_.swap(other.node_chunks_);
    node_heap_.swap(other.node_heap_);
    node_blocks_.swap(other.node_blocks_);
    slot_chunks_.swap(other.slot_chunks_);
    free_nodes_.swap(other.free_nodes_);
    free_slots_.swap(other.free_slots_);
    std::swap(bump_nodes_, other.bump_nodes_);
    std::swap(bump_slots_, other.bump_slots_);
    std::swap(root_, other.root_);
    std::swap(head_leaf_, other.head_leaf_);
    std::swap(tail_leaf_, other.tail_leaf_);
    std::swap(size_, other.size_);
    std::swap(version_, other.version_);
  }

  /// Unmaps a 2 MiB node block.
  struct BlockUnmap {
    void operator()(Node* block) const noexcept;
  };

  // Bump arenas: chunked so node addresses and slot addresses are stable
  // across growth; freed entries recycle through freelists. The first
  // 2 MiB of node chunks come from the heap (node_heap_); later ones are
  // carved from 2 MiB blocks (node_blocks_). node_chunks_ indexes both.
  std::vector<Node*> node_chunks_;
  std::vector<std::unique_ptr<Node[]>> node_heap_;
  std::vector<std::unique_ptr<Node, BlockUnmap>> node_blocks_;
  std::vector<std::unique_ptr<Slot[]>> slot_chunks_;
  std::vector<std::uint32_t> free_nodes_;
  std::vector<Slot*> free_slots_;
  std::size_t bump_nodes_ = 0;  ///< total nodes ever bump-allocated
  std::size_t bump_slots_ = 0;

  std::uint32_t root_ = kNil;
  std::uint32_t head_leaf_ = kNil;  ///< leaf with rank 1 (heaviest)
  std::uint32_t tail_leaf_ = kNil;  ///< leaf with rank N (lightest)
  std::size_t size_ = 0;
  std::uint64_t version_ = 0;
};

}  // namespace dvfs::ds
