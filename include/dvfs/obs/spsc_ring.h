/// \file spsc_ring.h
/// \brief Bounded single-producer/single-consumer ring with tail-drop.
///
/// The transport under a flight-recorder channel and the CPU profiler's
/// per-thread sample ring. The producer writes a slot and publishes it
/// with a release store of `tail_`; the consumer acquires `tail_`, copies
/// the slots out and hands them back with a release store of `head_`
/// (the two live on separate cache lines). A full ring drops the new
/// element — the recorded prefix survives — and counts it exactly.
/// `try_push` touches only preallocated slots and atomics (no allocation,
/// no locks), so it is async-signal-safe. The slots are raw storage that
/// is never constructed, so pages the producer never reaches stay
/// untouched; hence `T` must be trivially copyable and destructible.
#pragma once

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <vector>

namespace dvfs::obs {

template <typename T>
class SpscRing {
  static_assert(std::is_trivially_copyable_v<T> &&
                std::is_trivially_destructible_v<T> &&
                alignof(T) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__);

 public:
  /// Capacity rounds up to a power of two (minimum 2).
  explicit SpscRing(std::size_t capacity)
      : mask_(std::bit_ceil(std::max<std::size_t>(capacity, 2)) - 1),
        slots_(static_cast<T*>(::operator new((mask_ + 1) * sizeof(T)))) {}

  [[nodiscard]] std::size_t capacity() const noexcept { return mask_ + 1; }

  /// Producer side. Returns false (and counts the drop) on a full ring.
  bool try_push(const T& value) noexcept {
    const std::uint64_t t = tail_.load(std::memory_order_relaxed);
    if (t - head_.load(std::memory_order_acquire) > mask_) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    slots_.get()[t & mask_] = value;
    tail_.store(t + 1, std::memory_order_release);
    return true;
  }

  /// Consumer side: appends everything published so far to `out`, in
  /// push order, and frees those slots.
  void drain(std::vector<T>& out) {
    const std::uint64_t h = head_.load(std::memory_order_relaxed);
    const std::uint64_t t = tail_.load(std::memory_order_acquire);
    out.reserve(out.size() + static_cast<std::size_t>(t - h));
    for (std::uint64_t i = h; i != t; ++i) {
      out.push_back(slots_.get()[i & mask_]);
    }
    head_.store(t, std::memory_order_release);
  }

  /// Pushes rejected on a full ring so far (exact).
  [[nodiscard]] std::uint64_t dropped() const noexcept {
    return dropped_.load(std::memory_order_relaxed);
  }

  /// Empties the ring and zeroes the drop count; only while neither side
  /// is active (e.g. before handing the ring to a new producer).
  void reset() noexcept {
    head_.store(0, std::memory_order_relaxed);
    tail_.store(0, std::memory_order_relaxed);
    dropped_.store(0, std::memory_order_relaxed);
  }

 private:
  struct Free {
    void operator()(T* p) const noexcept { ::operator delete(p); }
  };

  const std::size_t mask_;
  const std::unique_ptr<T, Free> slots_;
  alignas(64) std::atomic<std::uint64_t> head_{0};  // consumer-owned
  alignas(64) std::atomic<std::uint64_t> tail_{0};  // producer-owned
  std::atomic<std::uint64_t> dropped_{0};           // producer-owned
};

}  // namespace dvfs::obs
