/// \file mpsc_ring.h
/// \brief Bounded lock-free multi-producer/single-consumer ring.
///
/// The admission path of the scheduling service (svc/service.h): any
/// number of submitter threads (the HTTP handler, bench producers,
/// in-process callers of `submit()`) push fixed-size messages into the
/// ring of the shard admission chose; the shard's worker thread is the
/// only consumer.
///
/// The design is the classic bounded sequence-number queue (Vyukov),
/// restricted to one consumer:
///
///  * every slot carries an atomic sequence number. A slot whose
///    sequence equals the producer's ticket is free; a producer claims
///    the ticket with one CAS on `tail_`, writes the payload, and
///    publishes by storing `ticket + 1` with release order;
///  * the consumer owns `head_` outright (no atomicity needed beyond the
///    acquire load of the slot sequence that makes the payload visible)
///    and recycles a slot by storing `ticket + capacity` back into it;
///  * a batch push (`try_push_n`) claims as many consecutive tickets as
///    have free slots with the same one CAS, so a batch costs one
///    contended operation, not one per message;
///  * a full ring rejects the push (`try_push` returns false,
///    `try_push_n` the prefix that fit) instead of blocking or
///    overwriting — admission backpressure is a first-class
///    outcome that the service surfaces as HTTP 503, so the ring must
///    report it, not hide it.
///
/// Progress: push is lock-free (a stalled producer between CAS and
/// publish delays only consumption past its slot, never other
/// producers), pop is wait-free. Per-producer FIFO order is preserved;
/// cross-producer order is the CAS arrival order.
///
/// `T` must be trivially copyable — the ring is a transport for POD
/// messages, mirroring the flight recorder's fixed-size-event rule.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <type_traits>

#include "dvfs/common.h"

namespace dvfs::svc {

template <typename T>
class MpscRing {
  static_assert(std::is_trivially_copyable_v<T>,
                "ring messages are copied as raw payloads");

 public:
  /// Capacity rounds up to a power of two (minimum 2). Throws on 0.
  explicit MpscRing(std::size_t capacity) {
    DVFS_REQUIRE(capacity > 0, "ring capacity must be positive");
    std::size_t cap = 2;
    while (cap < capacity) cap <<= 1;
    slots_ = std::make_unique<Slot[]>(cap);
    mask_ = cap - 1;
    for (std::size_t i = 0; i < cap; ++i) {
      slots_[i].seq.store(i, std::memory_order_relaxed);
    }
  }

  MpscRing(const MpscRing&) = delete;
  MpscRing& operator=(const MpscRing&) = delete;

  [[nodiscard]] std::size_t capacity() const noexcept { return mask_ + 1; }

  /// Multi-producer push. Returns false when the ring is full (the
  /// message is NOT enqueued; the caller owns the backpressure policy).
  bool try_push(const T& value) noexcept {
    return try_push_n(std::span<const T>(&value, 1)) == 1;
  }

  /// Multi-producer batch push: claims the longest prefix of `values`
  /// that has free slots with one CAS on `tail_`, then writes and
  /// publishes it. Returns the prefix length; the rest is NOT enqueued
  /// (0 = the ring is full). The claimed messages stay contiguous, so a
  /// batch is never interleaved with another producer's messages.
  std::size_t try_push_n(std::span<const T> values) noexcept {
    if (values.empty()) return 0;
    std::uint64_t ticket = tail_.load(std::memory_order_relaxed);
    for (;;) {
      // A slot whose sequence equals its ticket is free; the prefix
      // stops at the first one that is not (still unconsumed, or already
      // claimed by a producer that beat us — then the CAS fails).
      std::size_t n = 0;
      std::int64_t dif = 0;
      while (n < values.size()) {
        const std::uint64_t seq =
            slots_[(ticket + n) & mask_].seq.load(std::memory_order_acquire);
        dif = static_cast<std::int64_t>(seq) -
              static_cast<std::int64_t>(ticket + n);
        if (dif != 0) break;
        ++n;
      }
      if (n > 0) {
        if (tail_.compare_exchange_weak(ticket, ticket + n,
                                        std::memory_order_relaxed)) {
          for (std::size_t i = 0; i < n; ++i) {
            Slot& slot = slots_[(ticket + i) & mask_];
            slot.value = values[i];
            slot.seq.store(ticket + i + 1, std::memory_order_release);
          }
          return n;
        }
        // CAS failure reloaded `ticket`; retry with the fresh value.
      } else if (dif < 0) {
        // The slot still holds an unconsumed message from one lap ago:
        // the ring is full *unless* the tail moved while we looked (a
        // slow producer's slot can read stale for one check).
        const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
        if (tail == ticket) return 0;
        ticket = tail;
      } else {
        ticket = tail_.load(std::memory_order_relaxed);
      }
    }
  }

  /// Single-consumer pop. Returns false when no published message is
  /// ready (an in-flight producer that claimed but not yet published the
  /// head slot also reads as "not ready" — never spin-wait on it).
  bool try_pop(T& out) noexcept {
    const std::uint64_t head = head_.load(std::memory_order_relaxed);
    Slot& slot = slots_[head & mask_];
    const std::uint64_t seq = slot.seq.load(std::memory_order_acquire);
    if (static_cast<std::int64_t>(seq) -
            static_cast<std::int64_t>(head + 1) < 0) {
      return false;
    }
    out = slot.value;
    slot.seq.store(head + mask_ + 1, std::memory_order_release);
    head_.store(head + 1, std::memory_order_relaxed);
    return true;
  }

  /// Single-consumer batch pop: fills `out` front-to-back, returns the
  /// number of messages moved (0 when the ring reads empty).
  std::size_t pop_batch(std::span<T> out) noexcept {
    std::size_t n = 0;
    while (n < out.size() && try_pop(out[n])) ++n;
    return n;
  }

  /// Consumer-side emptiness probe (exact for the consumer; a snapshot
  /// for anyone else — the drain coordinator polls it for quiescence).
  [[nodiscard]] bool empty() const noexcept {
    return tail_.load(std::memory_order_acquire) ==
           head_.load(std::memory_order_relaxed);
  }

  /// Messages currently in flight (published or claimed). Approximate
  /// under concurrency; exact once producers quiesce.
  [[nodiscard]] std::size_t size() const noexcept {
    const std::uint64_t tail = tail_.load(std::memory_order_acquire);
    return static_cast<std::size_t>(tail -
                                    head_.load(std::memory_order_relaxed));
  }

 private:
  struct Slot {
    std::atomic<std::uint64_t> seq{0};
    T value{};
  };

  std::unique_ptr<Slot[]> slots_;
  std::size_t mask_ = 0;
  /// Next ticket a producer will claim.
  alignas(64) std::atomic<std::uint64_t> tail_{0};
  /// Next slot the consumer will read. Only the consumer writes it;
  /// atomic (relaxed) so `empty()`/`size()` snapshots from other threads
  /// are race-free.
  alignas(64) std::atomic<std::uint64_t> head_{0};
};

}  // namespace dvfs::svc
