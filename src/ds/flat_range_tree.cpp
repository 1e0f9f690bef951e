#include "dvfs/ds/flat_range_tree.h"

#include <sys/mman.h>

#include <algorithm>
#include <cstdint>
#include <new>

namespace dvfs::ds {

// ---------------------------------------------------------------------------
// Arena plumbing.

namespace {

constexpr std::size_t kBlockBytes = std::size_t{2} << 20;

// A 2 MiB-aligned, 2 MiB anonymous mapping advised MADV_HUGEPAGE, so a
// deep tree's nodes sit on one TLB entry per block where transparent huge
// pages are enabled (the advice is a no-op where they are off). Maps one
// block more than needed and trims the misaligned ends.
void* map_block() {
  void* raw = ::mmap(nullptr, 2 * kBlockBytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (raw == MAP_FAILED) throw std::bad_alloc();
  const auto lo = reinterpret_cast<std::uintptr_t>(raw);
  const std::uintptr_t start = (lo + kBlockBytes - 1) & ~(kBlockBytes - 1);
  if (start > lo) ::munmap(raw, start - lo);
  const std::uintptr_t end = start + kBlockBytes;
  if (lo + 2 * kBlockBytes > end) {
    ::munmap(reinterpret_cast<void*>(end), lo + 2 * kBlockBytes - end);
  }
  void* block = reinterpret_cast<void*>(start);
#ifdef MADV_HUGEPAGE
  (void)::madvise(block, kBlockBytes, MADV_HUGEPAGE);
#endif
  return block;
}

}  // namespace

void FlatRangeTree::BlockUnmap::operator()(Node* block) const noexcept {
  ::munmap(block, kBlockBytes);
}

std::uint32_t FlatRangeTree::alloc_node(bool leaf) {
  std::uint32_t idx;
  if (!free_nodes_.empty()) {
    idx = free_nodes_.back();
    free_nodes_.pop_back();
  } else {
    if (bump_nodes_ == node_chunks_.size() * kNodesPerChunk) {
      // The first 2 MiB of chunks come from the heap, so small trees
      // allocate exactly as before; past that, chunks are carved from
      // 2 MiB blocks.
      constexpr std::size_t kChunksPerBlock =
          kBlockBytes / (kNodesPerChunk * sizeof(Node));
      static_assert(kChunksPerBlock * kNodesPerChunk * sizeof(Node) ==
                    kBlockBytes);
      const std::size_t c = node_chunks_.size();
      if (c < kChunksPerBlock) {
        node_heap_.emplace_back(new Node[kNodesPerChunk]);
        node_chunks_.push_back(node_heap_.back().get());
      } else {
        if (c % kChunksPerBlock == 0) {
          node_blocks_.emplace_back(static_cast<Node*>(map_block()));
        }
        node_chunks_.push_back(node_blocks_.back().get() +
                               (c % kChunksPerBlock) * kNodesPerChunk);
      }
    }
    idx = static_cast<std::uint32_t>(bump_nodes_++);
  }
  Node& n = node(idx);
  n.parent = kNil;
  n.num = 0;
  n.is_leaf = leaf ? 1 : 0;
  if (leaf) {
    n.u.leaf.next = kNil;
    n.u.leaf.prev = kNil;
  }
  return idx;
}

void FlatRangeTree::free_node(std::uint32_t idx) { free_nodes_.push_back(idx); }

FlatRangeTree::Slot* FlatRangeTree::alloc_slot() {
  if (!free_slots_.empty()) {
    Slot* s = free_slots_.back();
    free_slots_.pop_back();
    return s;
  }
  if (bump_slots_ == slot_chunks_.size() * kSlotsPerChunk) {
    slot_chunks_.emplace_back(new Slot[kSlotsPerChunk]);
  }
  Slot* s = &slot_chunks_[bump_slots_ / kSlotsPerChunk]
                         [bump_slots_ % kSlotsPerChunk];
  ++bump_slots_;
  return s;
}

void FlatRangeTree::free_slot(Slot* s) { free_slots_.push_back(s); }

// ---------------------------------------------------------------------------
// Aggregate maintenance.

FlatRangeTree::Totals FlatRangeTree::totals_of(std::uint32_t idx) const {
  const Node& n = node(idx);
  Totals t;
  if (n.is_leaf) {
    t.cnt = n.num;
    for (std::size_t j = 0; j < n.num; ++j) {
      const double w = n.u.leaf.weight[j];
      t.sum += w;
      t.wsum += static_cast<double>(j + 1) * w;
    }
    t.minw = n.num > 0 ? n.u.leaf.weight[n.num - 1] : 0.0;
    return t;
  }
  // Right-subtree local positions shift by the elements before them
  // (Eq. 34's composition), exactly as the treap's pull().
  for (std::size_t i = 0; i < n.num; ++i) {
    t.wsum += n.u.inner.wsum[i] + static_cast<double>(t.cnt) * n.u.inner.sum[i];
    t.sum += n.u.inner.sum[i];
    t.cnt += n.u.inner.cnt[i];
  }
  t.minw = n.num > 0 ? n.u.inner.minw[n.num - 1] : 0.0;
  return t;
}

std::size_t FlatRangeTree::child_pos(const Node& parent,
                                     std::uint32_t child) const {
  for (std::size_t i = 0; i < parent.num; ++i) {
    if (parent.u.inner.child[i] == child) return i;
  }
  DVFS_REQUIRE(false, "internal: child not found in parent");
  return 0;  // unreachable
}

void FlatRangeTree::refresh_entry(std::uint32_t idx) {
  const std::uint32_t p = node(idx).parent;
  if (p == kNil) return;
  Node& parent = node(p);
  const std::size_t pos = child_pos(parent, idx);
  const Totals t = totals_of(idx);
  parent.u.inner.cnt[pos] = static_cast<std::uint32_t>(t.cnt);
  parent.u.inner.sum[pos] = t.sum;
  parent.u.inner.wsum[pos] = t.wsum;
  parent.u.inner.minw[pos] = t.minw;
}

void FlatRangeTree::update_path(std::uint32_t idx) {
  while (idx != kNil) {
    refresh_entry(idx);
    idx = node(idx).parent;
  }
}

// ---------------------------------------------------------------------------
// Structure edits.

void FlatRangeTree::insert_entry(std::uint32_t parent_idx, std::size_t pos,
                                 std::uint32_t child) {
  Node& p = node(parent_idx);
  DVFS_REQUIRE(p.num < kInnerCap, "internal: inner node overflow");
  for (std::size_t i = p.num; i > pos; --i) {
    p.u.inner.child[i] = p.u.inner.child[i - 1];
    p.u.inner.cnt[i] = p.u.inner.cnt[i - 1];
    p.u.inner.sum[i] = p.u.inner.sum[i - 1];
    p.u.inner.wsum[i] = p.u.inner.wsum[i - 1];
    p.u.inner.minw[i] = p.u.inner.minw[i - 1];
  }
  p.u.inner.child[pos] = child;
  ++p.num;
  node(child).parent = parent_idx;
  const Totals t = totals_of(child);
  p.u.inner.cnt[pos] = static_cast<std::uint32_t>(t.cnt);
  p.u.inner.sum[pos] = t.sum;
  p.u.inner.wsum[pos] = t.wsum;
  p.u.inner.minw[pos] = t.minw;
}

void FlatRangeTree::link_child(std::uint32_t parent_idx, std::size_t pos,
                               std::uint32_t left_sibling,
                               std::uint32_t child) {
  if (parent_idx == kNil) {
    // The left sibling was the root: grow a new root above the pair.
    const std::uint32_t nr = alloc_node(/*leaf=*/false);
    root_ = nr;
    node(left_sibling).parent = nr;
    node(nr).num = 0;
    insert_entry(nr, 0, left_sibling);
    insert_entry(nr, 1, child);
    return;
  }
  if (node(parent_idx).num < kInnerCap) {
    insert_entry(parent_idx, pos, child);
    return;
  }
  // Split the full parent: keep the lower half, move the upper half into a
  // fresh right sibling, hook that sibling in one level up (recursing if
  // the grandparent is full too), then place the new child in whichever
  // half its position falls into.
  const std::uint32_t p2 = alloc_node(/*leaf=*/false);
  constexpr std::size_t keep = (kInnerCap + 1) / 2;
  {
    Node& p = node(parent_idx);
    Node& q = node(p2);
    q.num = static_cast<std::uint16_t>(kInnerCap - keep);
    for (std::size_t i = keep; i < kInnerCap; ++i) {
      const std::size_t j = i - keep;
      q.u.inner.child[j] = p.u.inner.child[i];
      q.u.inner.cnt[j] = p.u.inner.cnt[i];
      q.u.inner.sum[j] = p.u.inner.sum[i];
      q.u.inner.wsum[j] = p.u.inner.wsum[i];
      q.u.inner.minw[j] = p.u.inner.minw[i];
      node(p.u.inner.child[i]).parent = p2;
    }
    p.num = static_cast<std::uint16_t>(keep);
  }
  const std::uint32_t gp = node(parent_idx).parent;
  const std::size_t gpos =
      gp == kNil ? 0 : child_pos(node(gp), parent_idx) + 1;
  link_child(gp, gpos, parent_idx, p2);
  if (pos <= keep) {
    insert_entry(parent_idx, pos, child);
  } else {
    insert_entry(p2, pos - keep, child);
  }
  refresh_entry(parent_idx);
  refresh_entry(p2);
}

void FlatRangeTree::collapse_root() {
  while (root_ != kNil && !node(root_).is_leaf && node(root_).num == 1) {
    const std::uint32_t c = node(root_).u.inner.child[0];
    node(c).parent = kNil;
    free_node(root_);
    root_ = c;
  }
}

void FlatRangeTree::unlink_child(std::uint32_t parent_idx, std::size_t pos) {
  Node& p = node(parent_idx);
  for (std::size_t i = pos; i + 1 < p.num; ++i) {
    p.u.inner.child[i] = p.u.inner.child[i + 1];
    p.u.inner.cnt[i] = p.u.inner.cnt[i + 1];
    p.u.inner.sum[i] = p.u.inner.sum[i + 1];
    p.u.inner.wsum[i] = p.u.inner.wsum[i + 1];
    p.u.inner.minw[i] = p.u.inner.minw[i + 1];
  }
  --p.num;
  if (p.num == 0) {
    if (parent_idx == root_) {
      free_node(root_);
      root_ = kNil;
      return;
    }
    const std::uint32_t gp = p.parent;
    const std::size_t gpos = child_pos(node(gp), parent_idx);
    free_node(parent_idx);
    unlink_child(gp, gpos);
    return;
  }
  update_path(parent_idx);
  collapse_root();
}

// ---------------------------------------------------------------------------
// Insert.

FlatRangeTree::Handle FlatRangeTree::insert(double weight, Payload payload) {
  return insert_at(weight, payload, insertion_point(weight));
}

FlatRangeTree::Handle FlatRangeTree::insert_at(double weight, Payload payload,
                                               const InsertionPoint& at) {
  DVFS_REQUIRE(at.version == version_,
               "insertion point is stale: the tree changed since it was taken");
  if (root_ != kNil) {
    // The point must be where insert() would put `weight`: every element
    // before it at least as heavy (ties stay in front, keeping insertion
    // order stable), every element after it lighter. A point at a leaf's
    // end is only ever the tail.
    DVFS_REQUIRE(at.leaf < bump_nodes_ && node(at.leaf).is_leaf &&
                     at.pos <= node(at.leaf).num,
                 "insertion point does not name a leaf position");
    const Node& l = node(at.leaf);
    const std::uint32_t pv = l.u.leaf.prev;
    const bool after_heavier =
        at.pos > 0 ? l.u.leaf.weight[at.pos - 1] >= weight
                   : pv == kNil ||
                         node(pv).u.leaf.weight[node(pv).num - 1] >= weight;
    const bool before_lighter = at.pos < l.num
                                    ? l.u.leaf.weight[at.pos] < weight
                                    : at.leaf == tail_leaf_;
    DVFS_REQUIRE(after_heavier && before_lighter,
                 "weight does not belong at the insertion point");
  }

  Slot* s = alloc_slot();
  s->weight = weight;
  s->payload = payload;
  ++size_;
  ++version_;

  if (root_ == kNil) {
    root_ = alloc_node(/*leaf=*/true);
    head_leaf_ = tail_leaf_ = root_;
    Node& r = node(root_);
    r.u.leaf.weight[0] = weight;
    r.u.leaf.slot[0] = s;
    r.num = 1;
    s->leaf = root_;
    return s;
  }

  const std::uint32_t idx = at.leaf;
  std::size_t j = at.pos;
  std::uint32_t target = idx;
  std::uint32_t split_sibling = kNil;
  if (node(idx).num == kLeafCap) {
    // Split before placing: upper (lighter) half moves to a new right leaf.
    const std::uint32_t r = alloc_node(/*leaf=*/true);
    constexpr std::size_t keep = kLeafCap / 2;
    Node& l = node(idx);
    Node& q = node(r);
    q.num = static_cast<std::uint16_t>(kLeafCap - keep);
    for (std::size_t i = keep; i < kLeafCap; ++i) {
      q.u.leaf.weight[i - keep] = l.u.leaf.weight[i];
      q.u.leaf.slot[i - keep] = l.u.leaf.slot[i];
      l.u.leaf.slot[i]->leaf = r;
    }
    l.num = static_cast<std::uint16_t>(keep);
    q.u.leaf.next = l.u.leaf.next;
    q.u.leaf.prev = idx;
    if (l.u.leaf.next != kNil) {
      node(l.u.leaf.next).u.leaf.prev = r;
    } else {
      tail_leaf_ = r;
    }
    l.u.leaf.next = r;
    const std::uint32_t p = l.parent;
    const std::size_t pos = p == kNil ? 0 : child_pos(node(p), idx) + 1;
    link_child(p, pos, idx, r);
    split_sibling = r;
    if (j > keep) {
      target = r;
      j -= keep;
    }
  }

  Node& t = node(target);
  for (std::size_t i = t.num; i > j; --i) {
    t.u.leaf.weight[i] = t.u.leaf.weight[i - 1];
    t.u.leaf.slot[i] = t.u.leaf.slot[i - 1];
  }
  t.u.leaf.weight[j] = weight;
  t.u.leaf.slot[j] = s;
  ++t.num;
  s->leaf = target;

  update_path(target);
  if (split_sibling != kNil && split_sibling != target) {
    update_path(split_sibling);
  } else if (split_sibling != kNil) {
    update_path(idx);
  }
  return s;
}

// ---------------------------------------------------------------------------
// Erase.

FlatRangeTree::Location FlatRangeTree::locate(Handle h) const {
  const Node& l = node(h->leaf);
  DVFS_REQUIRE(l.is_leaf, "internal: handle does not reference a leaf");
  for (std::size_t j = 0; j < l.num; ++j) {
    if (l.u.leaf.slot[j] == h) return Location{h->leaf, j};
  }
  DVFS_REQUIRE(false, "internal: handle missing from its leaf");
  return Location{kNil, 0};  // unreachable
}

void FlatRangeTree::leaf_remove(std::uint32_t leaf_idx, std::size_t pos) {
  Node& l = node(leaf_idx);
  for (std::size_t i = pos; i + 1 < l.num; ++i) {
    l.u.leaf.weight[i] = l.u.leaf.weight[i + 1];
    l.u.leaf.slot[i] = l.u.leaf.slot[i + 1];
  }
  --l.num;
  if (l.num == 0) {
    const std::uint32_t pv = l.u.leaf.prev;
    const std::uint32_t nx = l.u.leaf.next;
    if (pv != kNil) node(pv).u.leaf.next = nx;
    if (nx != kNil) node(nx).u.leaf.prev = pv;
    if (head_leaf_ == leaf_idx) head_leaf_ = nx;
    if (tail_leaf_ == leaf_idx) tail_leaf_ = pv;
    if (leaf_idx == root_) {
      free_node(root_);
      root_ = kNil;
      return;
    }
    const std::uint32_t p = l.parent;
    const std::size_t cp = child_pos(node(p), leaf_idx);
    free_node(leaf_idx);
    unlink_child(p, cp);
    return;
  }
  update_path(leaf_idx);
  try_merge(leaf_idx);
}

void FlatRangeTree::try_merge(std::uint32_t leaf_idx) {
  Node& l = node(leaf_idx);
  if (leaf_idx == root_ || l.num > kLeafCap / 4) return;
  const std::uint32_t pv = l.u.leaf.prev;
  const std::uint32_t nx = l.u.leaf.next;
  if (pv != kNil && node(pv).parent == l.parent &&
      node(pv).num + l.num <= kLeafCap) {
    // Append this (lighter) run after the previous leaf's.
    Node& p = node(pv);
    for (std::size_t j = 0; j < l.num; ++j) {
      p.u.leaf.weight[p.num + j] = l.u.leaf.weight[j];
      p.u.leaf.slot[p.num + j] = l.u.leaf.slot[j];
      l.u.leaf.slot[j]->leaf = pv;
    }
    p.num = static_cast<std::uint16_t>(p.num + l.num);
    p.u.leaf.next = nx;
    if (nx != kNil) node(nx).u.leaf.prev = pv;
    if (tail_leaf_ == leaf_idx) tail_leaf_ = pv;
    const std::uint32_t par = l.parent;
    const std::size_t cp = child_pos(node(par), leaf_idx);
    free_node(leaf_idx);
    refresh_entry(pv);
    unlink_child(par, cp);
    return;
  }
  if (nx != kNil && node(nx).parent == l.parent &&
      node(nx).num + l.num <= kLeafCap) {
    // Prepend this (heavier) run before the next leaf's.
    Node& q = node(nx);
    for (std::size_t i = q.num; i > 0; --i) {
      q.u.leaf.weight[i - 1 + l.num] = q.u.leaf.weight[i - 1];
      q.u.leaf.slot[i - 1 + l.num] = q.u.leaf.slot[i - 1];
    }
    for (std::size_t j = 0; j < l.num; ++j) {
      q.u.leaf.weight[j] = l.u.leaf.weight[j];
      q.u.leaf.slot[j] = l.u.leaf.slot[j];
      l.u.leaf.slot[j]->leaf = nx;
    }
    q.num = static_cast<std::uint16_t>(q.num + l.num);
    q.u.leaf.prev = pv;
    if (pv != kNil) node(pv).u.leaf.next = nx;
    if (head_leaf_ == leaf_idx) head_leaf_ = nx;
    const std::uint32_t par = l.parent;
    const std::size_t cp = child_pos(node(par), leaf_idx);
    free_node(leaf_idx);
    refresh_entry(nx);
    unlink_child(par, cp);
  }
}

void FlatRangeTree::erase(Handle h) {
  DVFS_REQUIRE(h != nullptr, "null handle");
  const Location loc = locate(h);
  leaf_remove(loc.leaf, loc.pos);
  free_slot(h);
  --size_;
  ++version_;
}

// ---------------------------------------------------------------------------
// Queries.

std::size_t FlatRangeTree::rank(Handle h) const {
  DVFS_REQUIRE(h != nullptr, "null handle");
  const Location loc = locate(h);
  std::size_t r = loc.pos + 1;
  std::uint32_t idx = loc.leaf;
  while (node(idx).parent != kNil) {
    const std::uint32_t p = node(idx).parent;
    const Node& parent = node(p);
    const std::size_t cp = child_pos(parent, idx);
    for (std::size_t q = 0; q < cp; ++q) r += parent.u.inner.cnt[q];
    idx = p;
  }
  return r;
}

FlatRangeTree::Handle FlatRangeTree::select(std::size_t k) const {
  DVFS_REQUIRE(k >= 1 && k <= size_, "rank out of range");
  std::uint32_t idx = root_;
  while (!node(idx).is_leaf) {
    const Node& n = node(idx);
    std::size_t i = 0;
    while (k > n.u.inner.cnt[i]) {
      k -= n.u.inner.cnt[i];
      ++i;
      DVFS_REQUIRE(i < n.num, "internal: select walk overran");
    }
    idx = n.u.inner.child[i];
  }
  return node(idx).u.leaf.slot[k - 1];
}

PrefixStats FlatRangeTree::prefix(std::size_t k) const {
  return prefix_walk<true>(k);
}

double FlatRangeTree::prefix_sum(std::size_t k) const {
  return prefix_walk<false>(k).sum;
}

template <bool kWsum>
PrefixStats FlatRangeTree::prefix_walk(std::size_t k) const {
  DVFS_REQUIRE(k <= size_, "prefix length out of range");
  PrefixStats acc;
  if (k == 0) return acc;
  std::uint32_t idx = root_;
  while (!node(idx).is_leaf) {
    const Node& n = node(idx);
    std::size_t i = 0;
    while (acc.count + n.u.inner.cnt[i] <= k) {
      // Absorb the whole child subtree; its local positions shift by the
      // elements already counted before it.
      if constexpr (kWsum) {
        acc.wsum += n.u.inner.wsum[i] +
                    static_cast<double>(acc.count) * n.u.inner.sum[i];
      }
      acc.sum += n.u.inner.sum[i];
      acc.count += n.u.inner.cnt[i];
      if (acc.count == k) return acc;
      ++i;
      DVFS_REQUIRE(i < n.num, "internal: prefix walk overran");
    }
    idx = n.u.inner.child[i];
  }
  const Node& l = node(idx);
  for (std::size_t j = 0; acc.count < k; ++j) {
    const double w = l.u.leaf.weight[j];
    acc.sum += w;
    if constexpr (kWsum) acc.wsum += static_cast<double>(acc.count + 1) * w;
    ++acc.count;
  }
  return acc;
}

double FlatRangeTree::range_sum(std::size_t a, std::size_t b) const {
  if (a > b) return 0.0;
  DVFS_REQUIRE(a >= 1 && b <= size_, "range out of bounds");
  return prefix_sum(b) - prefix_sum(a - 1);
}

double FlatRangeTree::range_wsum(std::size_t a, std::size_t b) const {
  if (a > b) return 0.0;
  DVFS_REQUIRE(a >= 1 && b <= size_, "range out of bounds");
  const PrefixStats hi = prefix(b);
  const PrefixStats lo = prefix(a - 1);
  const double sum = hi.sum - lo.sum;
  const double wsum_abs = hi.wsum - lo.wsum;  // sum of k * w_k
  return wsum_abs - static_cast<double>(a - 1) * sum;
}

std::size_t FlatRangeTree::insertion_rank(double weight) const {
  if (root_ == kNil) return 1;
  std::size_t r = 1;
  std::uint32_t idx = root_;
  while (!node(idx).is_leaf) {
    const Node& n = node(idx);
    std::size_t i = 0;
    while (i + 1 < n.num && n.u.inner.minw[i] >= weight) {
      r += n.u.inner.cnt[i];
      ++i;
    }
    idx = n.u.inner.child[i];
  }
  const Node& l = node(idx);
  for (std::size_t j = 0; j < l.num && l.u.leaf.weight[j] >= weight; ++j) ++r;
  return r;
}

FlatRangeTree::InsertionPoint FlatRangeTree::insertion_point(
    double weight) const {
  const FlatRangeTree* self = this;
  InsertionPoint at;
  insertion_points(&self, 1, weight, &at);
  return at;
}

void FlatRangeTree::insertion_points(const FlatRangeTree* const* trees,
                                     std::size_t n, double weight,
                                     InsertionPoint* out) {
  for (std::size_t base = 0; base < n; base += kLockstep) {
    const std::size_t m = std::min(kLockstep, n - base);
    // Per-tree descent state; a null node marks a finished descent.
    const Node* cur[kLockstep] = {};
    std::uint32_t cur_idx[kLockstep] = {};
    std::size_t count[kLockstep] = {};
    std::size_t active = 0;
    for (std::size_t g = 0; g < m; ++g) {
      const FlatRangeTree& t = *trees[base + g];
      InsertionPoint& at = out[base + g];
      at = InsertionPoint{};
      at.version = t.version_;
      if (t.root_ == kNil) continue;
      cur_idx[g] = t.root_;
      cur[g] = &t.node(t.root_);
      ++active;
    }
    // One level of every unfinished tree per pass: each pass reads the
    // nodes the previous pass prefetched.
    while (active > 0) {
      for (std::size_t g = 0; g < m; ++g) {
        if (cur[g] == nullptr) continue;
        const FlatRangeTree& t = *trees[base + g];
        InsertionPoint& at = out[base + g];
        const Node& nd = *cur[g];
        if (nd.is_leaf) {
          std::size_t j = 0;
          while (j < nd.num && nd.u.leaf.weight[j] >= weight) {
            at.prefix_sum += nd.u.leaf.weight[j];
            ++j;
          }
          at.rank = count[g] + j + 1;
          at.leaf = cur_idx[g];
          at.pos = static_cast<std::uint32_t>(j);
          cur[g] = nullptr;
          --active;
          continue;
        }
        std::size_t i = 0;
        // Absorb every child wholly ahead of the newcomer. When that
        // takes the last child, prefix() would have returned here too,
        // so stop rather than re-summing its subtree child by child.
        // Only the root can end this way (a descent enters a child only
        // if that child holds a lighter element), and then the
        // newcomer goes after the tail.
        while (nd.u.inner.minw[i] >= weight) {
          at.prefix_sum += nd.u.inner.sum[i];
          count[g] += nd.u.inner.cnt[i];
          if (++i == nd.num) break;
        }
        if (i == nd.num) {
          at.rank = count[g] + 1;
          at.leaf = t.tail_leaf_;
          at.pos = t.node(t.tail_leaf_).num;
          cur[g] = nullptr;
          --active;
          continue;
        }
        cur_idx[g] = nd.u.inner.child[i];
        cur[g] = &t.node(cur_idx[g]);
        const char* line = reinterpret_cast<const char*>(cur[g]);
        for (std::size_t l = 0; l < kDescentLines; ++l) {
          __builtin_prefetch(line + 64 * l);
        }
      }
    }
  }
}

FlatRangeTree::Handle FlatRangeTree::predecessor(Handle h) const {
  const Location loc = locate(h);
  if (loc.pos > 0) return node(loc.leaf).u.leaf.slot[loc.pos - 1];
  const std::uint32_t pv = node(loc.leaf).u.leaf.prev;
  if (pv == kNil) return nullptr;
  const Node& p = node(pv);
  return p.u.leaf.slot[p.num - 1];
}

FlatRangeTree::Handle FlatRangeTree::successor(Handle h) const {
  const Location loc = locate(h);
  const Node& l = node(loc.leaf);
  if (loc.pos + 1 < l.num) return l.u.leaf.slot[loc.pos + 1];
  const std::uint32_t nx = l.u.leaf.next;
  if (nx == kNil) return nullptr;
  return node(nx).u.leaf.slot[0];
}

FlatRangeTree::Handle FlatRangeTree::first() const {
  if (head_leaf_ == kNil) return nullptr;
  return node(head_leaf_).u.leaf.slot[0];
}

FlatRangeTree::Handle FlatRangeTree::last() const {
  if (tail_leaf_ == kNil) return nullptr;
  const Node& l = node(tail_leaf_);
  return l.u.leaf.slot[l.num - 1];
}

void FlatRangeTree::clear() {
  node_chunks_.clear();
  node_heap_.clear();
  node_blocks_.clear();
  slot_chunks_.clear();
  free_nodes_.clear();
  free_slots_.clear();
  bump_nodes_ = bump_slots_ = 0;
  root_ = head_leaf_ = tail_leaf_ = kNil;
  size_ = 0;
  ++version_;
}

// ---------------------------------------------------------------------------
// Validation (test support).

namespace {
struct WalkState {
  double prev_weight = 0.0;
  bool have_prev = false;
  std::size_t seen = 0;
  std::vector<std::uint32_t> leaves;
  bool ok = true;
};
}  // namespace

bool FlatRangeTree::validate() const {
  if (root_ == kNil) {
    return size_ == 0 && head_leaf_ == kNil && tail_leaf_ == kNil;
  }
  if (node(root_).parent != kNil) return false;

  WalkState st;
  // Explicit DFS stack of (node, next-child) pairs; in-order over leaves.
  std::vector<std::pair<std::uint32_t, std::size_t>> stack;
  stack.emplace_back(root_, 0);
  while (!stack.empty() && st.ok) {
    auto& [idx, next] = stack.back();
    const Node& n = node(idx);
    if (n.num == 0) {
      st.ok = false;
      break;
    }
    if (n.is_leaf) {
      st.leaves.push_back(idx);
      for (std::size_t j = 0; j < n.num; ++j) {
        const double w = n.u.leaf.weight[j];
        if (st.have_prev && st.prev_weight < w) {
          st.ok = false;  // descending order violated
          break;
        }
        st.prev_weight = w;
        st.have_prev = true;
        const Slot* s = n.u.leaf.slot[j];
        if (s == nullptr || s->leaf != idx || s->weight != w) {
          st.ok = false;
          break;
        }
        ++st.seen;
      }
      stack.pop_back();
      continue;
    }
    if (next == n.num) {
      stack.pop_back();
      continue;
    }
    const std::uint32_t c = n.u.inner.child[next];
    const Node& child = node(c);
    if (child.parent != idx) return false;
    // Stored per-child entry must match a fresh recomputation.
    const Totals t = totals_of(c);
    if (n.u.inner.cnt[next] != t.cnt ||
        !almost_equal(n.u.inner.sum[next], t.sum, 1e-9, 1e-9) ||
        !almost_equal(n.u.inner.wsum[next], t.wsum, 1e-9, 1e-9) ||
        n.u.inner.minw[next] != t.minw) {
      return false;
    }
    ++next;
    stack.emplace_back(c, 0);
  }
  if (!st.ok || st.seen != size_) return false;

  // The leaf list must thread the same leaves in the same order.
  if (st.leaves.empty()) return false;
  if (head_leaf_ != st.leaves.front() || tail_leaf_ != st.leaves.back()) {
    return false;
  }
  std::uint32_t walk = head_leaf_;
  std::uint32_t prev = kNil;
  for (const std::uint32_t expect : st.leaves) {
    if (walk != expect) return false;
    if (node(walk).u.leaf.prev != prev) return false;
    prev = walk;
    walk = node(walk).u.leaf.next;
  }
  return walk == kNil;
}

}  // namespace dvfs::ds
