/// \file range_tree.h
/// \brief Order-statistic balanced tree with position-weighted aggregates.
///
/// This is the "single 1D range tree" of Section IV-A. It keeps a multiset
/// of weighted elements sorted by weight in *descending* order (the paper's
/// L^B sequence: backward position 1 holds the heaviest task), and maintains
/// two subtree aggregates:
///
///   sum  = sum of weights                                (the paper's xi)
///   wsum = sum of (local 1-based position) * weight      (the paper's Delta)
///
/// Both compose associatively (Eqs. 33-34), so insertion, deletion, rank,
/// select, and prefix/range queries all run in O(log N). Nodes are threaded
/// with predecessor/successor links for the O(1) neighbor steps Algorithms
/// 5-6 rely on, and every node handle supports an O(log N) rank() query
/// ("rank(ptr)" in the pseudo code) via parent pointers.
///
/// The balancing scheme is a treap with per-tree deterministic priorities,
/// giving expected O(log N) depth independent of insertion order.
///
/// Test support only: the library's queues use ds::FlatRangeTree, and this
/// pointer-based treap is the independent oracle tests/test_flat_range_tree.cpp
/// holds it to.
#pragma once

#include <cstddef>
#include <cstdint>
#include <random>
#include <utility>

#include "dvfs/common.h"
#include "dvfs/ds/flat_range_tree.h"  // PrefixStats (shared result type)

namespace dvfs::ds {

namespace detail {

template <typename Payload>
struct RtNode {
  double weight = 0.0;
  Payload payload{};
  std::uint64_t priority = 0;

  RtNode* left = nullptr;
  RtNode* right = nullptr;
  RtNode* parent = nullptr;

  // In-order threading (descending weight order).
  RtNode* prev = nullptr;
  RtNode* next = nullptr;

  // Subtree aggregates.
  std::size_t count = 1;
  double sum = 0.0;
  double wsum = 0.0;
};

}  // namespace detail

template <typename Payload = std::uint64_t>
class RangeTree {
 public:
  using Node = detail::RtNode<Payload>;
  /// Opaque element handle; stays valid until the element is erased.
  using Handle = Node*;

  /// `seed` fixes the treap priority stream so runs are reproducible.
  explicit RangeTree(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) : rng_(seed) {}

  RangeTree(const RangeTree&) = delete;
  RangeTree& operator=(const RangeTree&) = delete;

  RangeTree(RangeTree&& other) noexcept { swap(other); }
  RangeTree& operator=(RangeTree&& other) noexcept {
    if (this != &other) {
      clear();
      swap(other);
    }
    return *this;
  }

  ~RangeTree() { clear(); }

  [[nodiscard]] std::size_t size() const { return root_ ? root_->count : 0; }
  [[nodiscard]] bool empty() const { return root_ == nullptr; }

  /// Inserts a weight, keeping descending order; equal weights are placed
  /// after existing ones (stable). Returns a handle valid until erase().
  Handle insert(double weight, Payload payload = Payload{}) {
    Node* node = new Node;
    node->weight = weight;
    node->payload = std::move(payload);
    node->priority = rng_();
    node->sum = weight;
    node->wsum = weight;
    bst_insert(node);
    thread_link(node);
    bubble_up(node);
    return node;
  }

  /// Removes the element behind `h`. The handle becomes invalid.
  void erase(Handle h) {
    DVFS_REQUIRE(h != nullptr, "null handle");
    thread_unlink(h);
    sink_to_leaf(h);
    detach_leaf(h);
    delete h;
  }

  /// 1-based position of `h` in descending-weight order. O(log N).
  [[nodiscard]] std::size_t rank(Handle h) const {
    DVFS_REQUIRE(h != nullptr, "null handle");
    std::size_t r = count_of(h->left) + 1;
    for (const Node* x = h; x->parent != nullptr; x = x->parent) {
      if (x->parent->right == x) {
        r += count_of(x->parent->left) + 1;
      }
    }
    return r;
  }

  /// Handle of the element at 1-based rank k. O(log N).
  [[nodiscard]] Handle select(std::size_t k) const {
    DVFS_REQUIRE(k >= 1 && k <= size(), "rank out of range");
    Node* x = root_;
    while (true) {
      const std::size_t left = count_of(x->left);
      if (k <= left) {
        x = x->left;
      } else if (k == left + 1) {
        return x;
      } else {
        k -= left + 1;
        x = x->right;
      }
    }
  }

  /// Aggregates of the first k elements. O(log N); k == 0 gives zeros.
  [[nodiscard]] PrefixStats prefix(std::size_t k) const {
    DVFS_REQUIRE(k <= size(), "prefix length out of range");
    PrefixStats acc;
    const Node* x = root_;
    std::size_t base = 0;  // elements already accounted before this subtree
    while (x != nullptr && acc.count < k) {
      const std::size_t left = count_of(x->left);
      const std::size_t need = k - acc.count;
      if (need <= left) {
        x = x->left;
        continue;
      }
      // Absorb the whole left subtree plus this node.
      if (x->left != nullptr) {
        acc.sum += x->left->sum;
        acc.wsum += x->left->wsum + static_cast<double>(base) * x->left->sum;
      }
      const std::size_t pos = base + left + 1;
      acc.sum += x->weight;
      acc.wsum += static_cast<double>(pos) * x->weight;
      acc.count += left + 1;
      base = pos;
      x = x->right;
    }
    DVFS_REQUIRE(acc.count == k, "internal: prefix walk mismatch");
    return acc;
  }

  /// xi([a,b]): sum of weights at ranks a..b (inclusive). Empty if a > b.
  [[nodiscard]] double range_sum(std::size_t a, std::size_t b) const {
    if (a > b) return 0.0;
    DVFS_REQUIRE(a >= 1 && b <= size(), "range out of bounds");
    return prefix(b).sum - prefix(a - 1).sum;
  }

  /// Delta([a,b]) = sum over k in [a,b] of (k - a + 1) * w_k. Empty if a > b.
  [[nodiscard]] double range_wsum(std::size_t a, std::size_t b) const {
    if (a > b) return 0.0;
    DVFS_REQUIRE(a >= 1 && b <= size(), "range out of bounds");
    const PrefixStats hi = prefix(b);
    const PrefixStats lo = prefix(a - 1);
    const double sum = hi.sum - lo.sum;
    const double wsum_abs = hi.wsum - lo.wsum;  // sum of k * w_k
    return wsum_abs - static_cast<double>(a - 1) * sum;
  }

  /// Rank a new element of `weight` would occupy if inserted now (equal
  /// weights are stable, so the new element lands after them). O(log N).
  [[nodiscard]] std::size_t insertion_rank(double weight) const {
    std::size_t rank = 1;
    const Node* x = root_;
    while (x != nullptr) {
      if (goes_left(weight, x)) {
        x = x->left;
      } else {
        rank += count_of(x->left) + 1;
        x = x->right;
      }
    }
    return rank;
  }

  /// O(1) in-order neighbors (nullptr at the ends).
  [[nodiscard]] Handle predecessor(Handle h) const { return h->prev; }
  [[nodiscard]] Handle successor(Handle h) const { return h->next; }

  [[nodiscard]] Handle first() const { return head_; }
  [[nodiscard]] Handle last() const { return tail_; }

  [[nodiscard]] static double weight(Handle h) { return h->weight; }
  [[nodiscard]] static Payload& payload(Handle h) { return h->payload; }
  [[nodiscard]] static const Payload& payload(const Node* h) {
    return h->payload;
  }

  void clear() {
    for (Node* x = head_; x != nullptr;) {
      Node* next = x->next;
      delete x;
      x = next;
    }
    root_ = head_ = tail_ = nullptr;
  }

  /// Validates every structural invariant (BST order, heap priorities,
  /// aggregates, threading, parent links). Test-support; O(N).
  [[nodiscard]] bool validate() const {
    if (root_ == nullptr) return head_ == nullptr && tail_ == nullptr;
    if (root_->parent != nullptr) return false;
    bool ok = true;
    const Node* prev = nullptr;
    std::size_t seen = 0;
    validate_rec(root_, prev, seen, ok);
    ok = ok && seen == root_->count;
    // Threading must visit the same in-order sequence.
    const Node* t = head_;
    const Node* walked_last = nullptr;
    std::size_t threaded = 0;
    while (t != nullptr) {
      if (t->prev != walked_last) return false;
      walked_last = t;
      ++threaded;
      t = t->next;
    }
    ok = ok && threaded == seen && walked_last == tail_;
    return ok;
  }

 private:
  static std::size_t count_of(const Node* x) { return x ? x->count : 0; }
  static double sum_of(const Node* x) { return x ? x->sum : 0.0; }
  static double wsum_of(const Node* x) { return x ? x->wsum : 0.0; }

  static void pull(Node* x) {
    const std::size_t cl = count_of(x->left);
    x->count = cl + 1 + count_of(x->right);
    x->sum = sum_of(x->left) + x->weight + sum_of(x->right);
    // Right-subtree positions shift by the left count plus this node
    // (Eq. 34's (M + 1 - L) * xi term).
    x->wsum = wsum_of(x->left) + static_cast<double>(cl + 1) * x->weight +
              wsum_of(x->right) +
              static_cast<double>(cl + 1) * sum_of(x->right);
  }

  // Descending order: heavier weights to the left; ties go right so equal
  // weights keep insertion order.
  static bool goes_left(double weight, const Node* at) {
    return weight > at->weight;
  }

  void bst_insert(Node* node) {
    if (root_ == nullptr) {
      root_ = node;
      return;
    }
    Node* x = root_;
    while (true) {
      // Aggregates along the path grow by the new leaf; fix them on the way
      // down so no second pass is needed.
      Node*& child = goes_left(node->weight, x) ? x->left : x->right;
      if (child == nullptr) {
        child = node;
        node->parent = x;
        for (Node* p = x; p != nullptr; p = p->parent) pull(p);
        return;
      }
      x = child;
    }
  }

  void thread_link(Node* node) {
    // At link time `node` is a leaf; its in-order neighbors are the nearest
    // ancestors it descends from on each side.
    Node* pred = nullptr;
    Node* succ = nullptr;
    for (Node* x = node; x->parent != nullptr; x = x->parent) {
      if (x->parent->left == x) {
        if (succ == nullptr) succ = x->parent;
      } else {
        if (pred == nullptr) pred = x->parent;
      }
      if (pred && succ) break;
    }
    node->prev = pred;
    node->next = succ;
    if (pred != nullptr) {
      pred->next = node;
    } else {
      head_ = node;
    }
    if (succ != nullptr) {
      succ->prev = node;
    } else {
      tail_ = node;
    }
  }

  void thread_unlink(Node* node) {
    if (node->prev != nullptr) {
      node->prev->next = node->next;
    } else {
      head_ = node->next;
    }
    if (node->next != nullptr) {
      node->next->prev = node->prev;
    } else {
      tail_ = node->prev;
    }
    node->prev = node->next = nullptr;
  }

  void rotate_up(Node* x) {
    Node* p = x->parent;
    Node* g = p->parent;
    if (p->left == x) {
      p->left = x->right;
      if (x->right) x->right->parent = p;
      x->right = p;
    } else {
      p->right = x->left;
      if (x->left) x->left->parent = p;
      x->left = p;
    }
    p->parent = x;
    x->parent = g;
    if (g != nullptr) {
      (g->left == p ? g->left : g->right) = x;
    } else {
      root_ = x;
    }
    pull(p);
    pull(x);
    if (g != nullptr) pull(g);
  }

  void bubble_up(Node* x) {
    while (x->parent != nullptr && x->priority < x->parent->priority) {
      rotate_up(x);
    }
  }

  void sink_to_leaf(Node* x) {
    while (x->left != nullptr || x->right != nullptr) {
      Node* child;
      if (x->left == nullptr) {
        child = x->right;
      } else if (x->right == nullptr) {
        child = x->left;
      } else {
        child = (x->left->priority < x->right->priority) ? x->left : x->right;
      }
      rotate_up(child);
    }
  }

  void detach_leaf(Node* x) {
    Node* p = x->parent;
    if (p == nullptr) {
      root_ = nullptr;
      return;
    }
    (p->left == x ? p->left : p->right) = nullptr;
    x->parent = nullptr;
    for (; p != nullptr; p = p->parent) pull(p);
  }

  void validate_rec(const Node* x, const Node*& prev, std::size_t& seen,
                    bool& ok) const {
    if (x == nullptr || !ok) return;
    if (x->left != nullptr &&
        (x->left->parent != x || x->left->priority < x->priority)) {
      ok = false;
      return;
    }
    if (x->right != nullptr &&
        (x->right->parent != x || x->right->priority < x->priority)) {
      ok = false;
      return;
    }
    validate_rec(x->left, prev, seen, ok);
    if (!ok) return;
    if (prev != nullptr && prev->weight < x->weight) {
      ok = false;  // descending order violated
      return;
    }
    prev = x;
    ++seen;
    validate_rec(x->right, prev, seen, ok);
    if (!ok) return;
    // Aggregates.
    Node copy = *x;
    pull(&copy);
    if (copy.count != x->count || !almost_equal(copy.sum, x->sum, 1e-9, 1e-9) ||
        !almost_equal(copy.wsum, x->wsum, 1e-9, 1e-9)) {
      ok = false;
    }
  }

  void swap(RangeTree& other) noexcept {
    std::swap(root_, other.root_);
    std::swap(head_, other.head_);
    std::swap(tail_, other.tail_);
    std::swap(rng_, other.rng_);
  }

  Node* root_ = nullptr;
  Node* head_ = nullptr;  // rank 1 (heaviest)
  Node* tail_ = nullptr;  // rank N (lightest)
  std::mt19937_64 rng_;
};

}  // namespace dvfs::ds
