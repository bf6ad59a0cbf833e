// Bounded single-producer/single-consumer FIFO ring. This is the
// communication channel of both handshake-join variants: every pipeline
// node talks exclusively to its immediate neighbours through two of these
// (paper Section 4.2.1), mirroring the asynchronous message channels of
// Baumann et al. [4]. Producer and consumer indices live on separate cache
// lines and each side caches the opposing index to avoid ping-ponging.
#pragma once

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstddef>
#include <new>
#include <span>
#include <type_traits>
#include <vector>

#include "common/contracts.hpp"
#include "runtime/cacheline.hpp"
#include "runtime/doorbell.hpp"
#include "runtime/mempolicy.hpp"

namespace sjoin {

/// Wait-free bounded SPSC FIFO. T must be copyable (engines use PODs).
///
/// Exactly one thread may call the producer API (TryPush/PushBurst) and one
/// thread the consumer API (Front/PopFront/TryPop/PeekBurst/ConsumeBurst) at
/// a time. Size/free estimates are exact when called from the respective
/// side.
///
/// The burst APIs amortize one atomic index update (and hence one
/// producer/consumer cache-line transfer) over up to N elements, which is
/// what makes high-rate message passing between pipeline nodes cheap: the
/// per-element cost degenerates to a copy into an already-resident slot.
///
/// NUMA placement: the consumer reads every slot the producer writes, and
/// on a loaded link each slot is read soon after it is written — so the
/// ring's pages belong on the CONSUMER's node (remote write / local read,
/// the cheaper direction on ccNUMA interconnects, and the discipline the
/// paper applies via libnuma). One rule gets them there: the consumer
/// thread calls PrefaultByConsumer() before the producer's first push, and
/// that call writes every slot page, so first touch maps each page on the
/// consumer's node (ThreadedExecutor's start barrier orders the hook
/// before any production for pipeline threads). A ring whose consumer
/// never calls the hook is written by its first pushes.
///
/// Wake-on-push (runtime/doorbell.hpp): the first time an executor thread
/// finds the ring empty it registers its doorbell with the ring, and every
/// TryPush/TryPushBurst rings that doorbell after its release store, so a
/// parked consumer wakes on the push instead of at its timed fallback.
template <typename T>
class SpscQueue {
  // Slot construction is left to the consumer's hook only for
  // implicit-lifetime types (aggregates with trivial destruction): for
  // those, ::operator new already started the slots' lifetimes, so a
  // producer that pushes into a ring whose hook never ran writes into valid
  // objects — the SPSC protocol guarantees nothing reads a slot that was
  // not first produced.
  static constexpr bool kDeferrableInit =
      std::is_aggregate_v<T> && std::is_trivially_copyable_v<T> &&
      std::is_trivially_destructible_v<T>;

 public:
  /// Capacity is rounded up to a power of two (minimum 2).
  explicit SpscQueue(std::size_t capacity) {
    std::size_t cap = 2;
    while (cap < capacity) cap <<= 1;
    mask_ = cap - 1;
    bytes_ = RoundUpToPage(cap * sizeof(T));
    slots_ = static_cast<T*>(AllocatePages(bytes_));
    if constexpr (!kDeferrableInit) ConstructSlots();
  }

  ~SpscQueue() {
    if constexpr (!kDeferrableInit) {
      for (std::size_t i = 0; i <= mask_; ++i) slots_[i].~T();
    }
    FreePages(slots_, bytes_);
  }

  SpscQueue(const SpscQueue&) = delete;
  SpscQueue& operator=(const SpscQueue&) = delete;

  std::size_t capacity() const { return mask_ + 1; }

  /// Consumer-side placement hook: writes every slot from the calling
  /// thread, so the slot pages are first touched on the consumer's NUMA
  /// node. MUST be called from the consumer thread BEFORE the producer's
  /// first push (pipeline threads get this ordering from ThreadedExecutor's
  /// start barrier; other owners call it right after construction). Writes
  /// nothing once anything was pushed, and nothing for slots the
  /// constructor already wrote.
  void PrefaultByConsumer() {
    if constexpr (kDeferrableInit) {
      if (tail_->load(std::memory_order_acquire) == 0) ConstructSlots();
    }
  }

  /// Producer: returns false when full.
  bool TryPush(const T& item) {
    producer_role_.AssertHeld("SpscQueue", "producer");
    const std::size_t tail = tail_->load(std::memory_order_relaxed);
    if (tail - cached_head_ > mask_) {
      cached_head_ = head_->load(std::memory_order_acquire);
      if (tail - cached_head_ > mask_) return false;
    }
    slots_[tail & mask_] = item;
    tail_->store(tail + 1, std::memory_order_release);
    consumer_bell_.Notify();
    return true;
  }

  /// Producer: pushes up to `items.size()` elements, preserving order, with
  /// a single release store. Returns the number actually enqueued (0 when
  /// full — never a partial failure: the prefix that fits is enqueued).
  std::size_t PushBurst(std::span<const T> items) {
    return TryPushBurst(items.data(), items.size());
  }

  /// Producer: raw-pointer variant of PushBurst.
  std::size_t TryPushBurst(const T* items, std::size_t n) {
    if (n == 0) return 0;
    producer_role_.AssertHeld("SpscQueue", "producer");
    const std::size_t tail = tail_->load(std::memory_order_relaxed);
    std::size_t free = capacity() - (tail - cached_head_);
    if (free < n) {
      cached_head_ = head_->load(std::memory_order_acquire);
      free = capacity() - (tail - cached_head_);
      if (free == 0) return 0;
    }
    if (n > free) n = free;
    const std::size_t idx = tail & mask_;
    const std::size_t first = std::min(n, capacity() - idx);
    std::copy_n(items, first, slots_ + idx);
    std::copy_n(items + first, n - first, slots_);
    tail_->store(tail + n, std::memory_order_release);
    consumer_bell_.Notify();
    return n;
  }

  /// Producer: free slots (exact from producer side).
  std::size_t FreeApprox() const {
    const std::size_t tail = tail_->load(std::memory_order_relaxed);
    const std::size_t head = head_->load(std::memory_order_acquire);
    return capacity() - (tail - head);
  }

  /// Consumer: pointer to front element or nullptr when empty. The pointer
  /// stays valid until PopFront().
  T* Front() {
    consumer_role_.AssertHeld("SpscQueue", "consumer");
    const std::size_t head = head_->load(std::memory_order_relaxed);
    if (head == cached_tail_) {
      cached_tail_ = tail_->load(std::memory_order_acquire);
      if (head == cached_tail_) {
        consumer_bell_.BindConsumer();
        return nullptr;
      }
    }
    return &slots_[head & mask_];
  }

  /// Consumer: drops the front element. Requires a prior non-null Front().
  void PopFront() {
    consumer_role_.AssertHeld("SpscQueue", "consumer");
    const std::size_t head = head_->load(std::memory_order_relaxed);
    assert(head != tail_->load(std::memory_order_acquire) && "pop on empty");
    head_->store(head + 1, std::memory_order_release);
  }

  /// Consumer: exposes the longest *contiguous* run of queued elements
  /// starting at the front without consuming them. Returns the run length
  /// and sets *first to its start; the pointers stay valid until
  /// ConsumeBurst/PopFront. A wrapped queue surfaces the remainder on the
  /// next call after the first run is consumed.
  std::size_t PeekBurst(T** first) {
    consumer_role_.AssertHeld("SpscQueue", "consumer");
    const std::size_t head = head_->load(std::memory_order_relaxed);
    if (head == cached_tail_) {
      cached_tail_ = tail_->load(std::memory_order_acquire);
      if (head == cached_tail_) {
        consumer_bell_.BindConsumer();
        return 0;
      }
    }
    const std::size_t idx = head & mask_;
    const std::size_t queued = cached_tail_ - head;
    *first = &slots_[idx];
    return std::min(queued, capacity() - idx);
  }

  /// Consumer: drops the front `n` elements with a single release store.
  /// `n` must not exceed the run returned by a prior PeekBurst.
  void ConsumeBurst(std::size_t n) {
    if (n == 0) return;
    consumer_role_.AssertHeld("SpscQueue", "consumer");
    const std::size_t head = head_->load(std::memory_order_relaxed);
    assert(n <= tail_->load(std::memory_order_acquire) - head &&
           "consume past tail");
    head_->store(head + n, std::memory_order_release);
  }

  /// Consumer: pops up to `max` elements into `out`, preserving order, with
  /// one release store per contiguous run (at most two for a wrapped
  /// queue). Returns the number popped.
  std::size_t PopBurst(T* out, std::size_t max) {
    std::size_t total = 0;
    while (total < max) {
      T* first = nullptr;
      std::size_t n = PeekBurst(&first);
      if (n == 0) break;
      n = std::min(n, max - total);
      std::copy_n(first, n, out + total);
      ConsumeBurst(n);
      total += n;
    }
    return total;
  }

  /// Consumer: pop into *out; returns false when empty.
  bool TryPop(T* out) {
    T* front = Front();
    if (front == nullptr) return false;
    *out = *front;
    PopFront();
    return true;
  }

  /// Either side: approximate number of queued elements.
  std::size_t SizeApprox() const {
    const std::size_t tail = tail_->load(std::memory_order_acquire);
    const std::size_t head = head_->load(std::memory_order_acquire);
    return tail - head;
  }

  bool EmptyApprox() const { return SizeApprox() == 0; }

 private:
  void ConstructSlots() {
    for (std::size_t i = 0; i <= mask_; ++i) new (slots_ + i) T();
  }

  T* slots_ = nullptr;        // page-aligned, bytes_ long (see placement)
  std::size_t bytes_ = 0;
  std::size_t mask_ = 0;

  // Producer side.
  CachePadded<std::atomic<std::size_t>> tail_{};
  std::size_t cached_head_ = 0;  // producer's cache of head_
  // Read by the producer on every push, written by the consumer once per
  // registration: shares the producer's line, not the consumer's.
  DoorbellSlot consumer_bell_;

  // Consumer side.
  CachePadded<std::atomic<std::size_t>> head_{};
  std::size_t cached_tail_ = 0;  // consumer's cache of tail_

  // Checked-contracts state (DESIGN.md Section 14): each end of the ring is
  // pinned to the first thread that uses it within an executor generation.
  // Empty no-op structs — zero bytes, zero code — unless SJOIN_CONTRACTS=ON.
  [[no_unique_address]] contracts::ThreadRole producer_role_;
  [[no_unique_address]] contracts::ThreadRole consumer_role_;
};

/// Consumer-side burst driver shared by the pipeline nodes: feeds up to
/// `budget` front messages of `queue` through `handler` (one T* at a time,
/// processed in place), retiring each contiguous run with a single
/// ConsumeBurst. `handler` returns false to stop *without* consuming that
/// message — it (and everything behind it) stays at the channel front,
/// which is how the arrival backpressure gate defers work. Returns the
/// number of messages consumed.
template <typename T, typename Handler>
std::size_t DrainBurstBudget(SpscQueue<T>* queue, std::size_t budget,
                             Handler&& handler) {
  std::size_t done = 0;
  while (budget > 0) {
    T* msgs = nullptr;
    std::size_t n = queue->PeekBurst(&msgs);
    if (n == 0) break;
    n = std::min(n, budget);
    std::size_t i = 0;
    while (i < n && handler(&msgs[i])) ++i;
    queue->ConsumeBurst(i);
    done += i;
    budget -= i;
    if (i < n) break;  // handler deferred msgs[i]: leave it queued
  }
  return done;
}

/// Batch-aware variant of DrainBurstBudget: maximal runs of messages for
/// which `is_batchable` holds are handed as a whole to
/// `batch_handler(T* run, std::size_t len)`, which processes a prefix in
/// place and returns its length (less than `len` defers the rest — they
/// stay at the channel front, preserving FIFO order). Every other message
/// goes through `handler` with the DrainBurstBudget contract. This is what
/// lets pipeline nodes probe an arrival burst against their window store in
/// one pass instead of once per message.
template <typename T, typename IsBatchable, typename BatchHandler,
          typename Handler>
std::size_t DrainBurstBudgetBatched(SpscQueue<T>* queue, std::size_t budget,
                                    IsBatchable&& is_batchable,
                                    BatchHandler&& batch_handler,
                                    Handler&& handler) {
  std::size_t done = 0;
  while (budget > 0) {
    T* msgs = nullptr;
    std::size_t n = queue->PeekBurst(&msgs);
    if (n == 0) break;
    n = std::min(n, budget);
    std::size_t i = 0;
    bool deferred = false;
    while (i < n) {
      if (is_batchable(msgs[i])) {
        std::size_t run = 1;
        while (i + run < n && is_batchable(msgs[i + run])) ++run;
        const std::size_t did = batch_handler(&msgs[i], run);
        i += did;
        if (did < run) {
          deferred = true;
          break;
        }
      } else if (handler(&msgs[i])) {
        ++i;
      } else {
        deferred = true;
        break;
      }
    }
    queue->ConsumeBurst(i);
    done += i;
    budget -= i;
    if (deferred || i < n) break;
  }
  return done;
}

}  // namespace sjoin
