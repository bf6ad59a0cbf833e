// Wake-on-push for executor threads (DESIGN.md Section 16). An idle
// ThreadedExecutor thread stays hot for kHotIdle after its last productive
// Step(), pausing and yielding through the Backoff ladder (once through the
// ladder on an executor with more threads than placed CPUs); only then does
// it park on its Doorbell, a futex word. Every SpscQueue it consumes from
// rings that doorbell right after a push publishes new items. Under steady
// input a node never parks, so a hop costs a cache-line transfer; a node
// idle for longer than the window wakes within a futex wake-up of the push
// instead of at the end of a fixed sleep.
//
// Idle/wake protocol (two read-modify-writes on one state word):
//
//   consumer (parking)              producer (after its release store)
//   state_.exchange(kParked)        tail_ = t + n
//   Step() once more                if state_.exchange(kAwake) == kParked:
//   futex_wait(state_, kParked)       wake
//
// Both exchanges are acq_rel RMWs on state_, so they are totally ordered in
// its modification order. If the ring comes first, the arm reads from it
// (or from a later RMW of its release sequence) and synchronizes with it,
// so the consumer's last Step() sees the pushed items. If the arm comes
// first, the ring reads kParked and wakes the consumer. A push can never
// land between the last look and the wait unnoticed. Disarm is an RMW too,
// so it never breaks a ring's release sequence. ThreadedExecutor::Stop()
// rings every doorbell after setting its stop flag, and the parking thread
// checks that flag after arming, so Stop() pairs the same way. Unlike a
// pairing of standalone fences, these RMWs are what ThreadSanitizer models.
// The wait also times out after kParkTimeout: that covers the wake-ups no
// push signals (output-side backpressure clearing, a registration racing a
// push — see DoorbellSlot), so a missed wake can never cost more than the
// timed fallback. A timed-out Wait leaves the doorbell armed for the
// owner's next look; work found there with no ring since is counted as a
// missed wake (ThreadedExecutor::missed_wakes).
//
// Ownership and lifetime: the ThreadedExecutor owns one Doorbell per thread
// and keeps it until the executor is destroyed. The thread binds it as its
// current doorbell before OnThreadStart; a ring learns its consumer's
// doorbell the first time that thread finds the ring empty. When the
// thread exits, Release() unlinks the doorbell from every ring it was
// registered with, so a push after Stop() — or after the executor is gone —
// finds no doorbell and does nothing. Rings must outlive the executor
// threads consuming them (already required: those threads step them).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <vector>

#if defined(__linux__)
#include <linux/futex.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <ctime>
#else
#include <thread>
#endif

#include "runtime/backoff.hpp"
#include "runtime/cacheline.hpp"

namespace sjoin {

/// Longest a parked executor thread waits without being rung: the timed
/// fallback, equal to the sleep the Backoff ladder ends in.
inline constexpr std::chrono::microseconds kParkTimeout = kBackoffSleep;

/// How long an idle executor thread stays hot (pausing and yielding) after
/// its last productive Step() before it parks. Inputs spaced closer than
/// this never meet a parked thread; a thread with no input parks within it.
inline constexpr std::chrono::microseconds kHotIdle{1000};

/// A parking spot for one executor thread. Arm/Disarm/Wait/Release belong
/// to the owning thread; Ring may be called from any thread.
class Doorbell {
 public:
  Doorbell() = default;
  Doorbell(const Doorbell&) = delete;
  Doorbell& operator=(const Doorbell&) = delete;

  /// The calling thread's doorbell (null off executor threads).
  static Doorbell* Current() { return current_; }

  /// Makes this the calling thread's doorbell.
  void BindToThisThread() { current_ = this; }

  /// Announces the intent to park. The caller must look for work once more
  /// after this (and Disarm on finding some) before calling Wait.
  void Arm() { state_.exchange(kParked, std::memory_order_acq_rel); }

  /// Returns true when no ring came since Arm: the doorbell was still
  /// armed.
  bool Disarm() {
    return state_.exchange(kAwake, std::memory_order_acquire) == kParked;
  }

  /// Parks until rung or until kParkTimeout passes. Returns false when a
  /// ring woke it (or had already disarmed it: then it returns at once),
  /// leaving the doorbell disarmed. Returns true when it returned without
  /// a ring, leaving the doorbell armed: the caller looks for work once
  /// more, and Disarm then tells whether a ring came meanwhile.
  bool Wait() {
    parks_.store(parks_.load(std::memory_order_relaxed) + 1,
                 std::memory_order_relaxed);
#if defined(__linux__)
    struct timespec timeout {};
    timeout.tv_nsec = std::chrono::nanoseconds(kParkTimeout).count();
    syscall(SYS_futex, Word(), FUTEX_WAIT_PRIVATE, kParked, &timeout, nullptr,
            0);
#else
    // No futex: the timed fallback alone.
    std::this_thread::sleep_for(kParkTimeout);  // NOLINT(hot-path-sleep)
#endif
    // Acquire pairs with the ringer's exchange: a ring seen here makes the
    // work it published visible to the caller's next look.
    return state_.load(std::memory_order_acquire) == kParked;
  }

  /// Owner thread: counts a missed wake — work found after a Wait that
  /// returned without a ring, with no ring since.
  void CountMissedWake() {
    missed_wakes_.store(missed_wakes_.load(std::memory_order_relaxed) + 1,
                        std::memory_order_relaxed);
  }

  /// Wakes the owner if it is parked or about to park. Call after the store
  /// that published the work the owner may be waiting for.
  void Ring() {
    // Only the ringer that disarms pays for the wake system call.
    if (state_.exchange(kAwake, std::memory_order_acq_rel) != kParked) return;
    wakes_.fetch_add(1, std::memory_order_relaxed);
#if defined(__linux__)
    syscall(SYS_futex, Word(), FUTEX_WAKE_PRIVATE, 1, nullptr, nullptr, 0);
#endif
  }

  /// Unlinks this doorbell from every ring it was registered with and
  /// unbinds it from the calling thread. Called by the owning thread as it
  /// exits.
  void Release() {
    for (std::atomic<Doorbell*>* slot : slots_) {
      Doorbell* expected = this;
      slot->compare_exchange_strong(expected, nullptr,
                                    std::memory_order_acq_rel);
    }
    slots_.clear();
    if (current_ == this) current_ = nullptr;
  }

  /// Number of Wait calls so far (readable from any thread).
  uint64_t parks() const { return parks_.load(std::memory_order_relaxed); }

  /// Number of Ring calls that woke the owner from an armed or parked
  /// state (readable from any thread).
  uint64_t wakes() const { return wakes_.load(std::memory_order_relaxed); }

  /// Number of missed wakes counted so far (readable from any thread).
  uint64_t missed_wakes() const {
    return missed_wakes_.load(std::memory_order_relaxed);
  }

 private:
  friend class DoorbellSlot;

  static constexpr uint32_t kAwake = 0;
  static constexpr uint32_t kParked = 1;

  // The futex word is the atomic's object representation.
  static_assert(sizeof(std::atomic<uint32_t>) == sizeof(uint32_t) &&
                std::atomic<uint32_t>::is_always_lock_free);
  uint32_t* Word() { return reinterpret_cast<uint32_t*>(&state_); }

  /// Owner thread: links `slot` (a ring's consumer-doorbell pointer) to
  /// this doorbell and remembers it for Release.
  void Register(std::atomic<Doorbell*>* slot) {
    slot->store(this, std::memory_order_release);
    for (std::atomic<Doorbell*>* known : slots_) {
      if (known == slot) return;
    }
    slots_.push_back(slot);
  }

  // Written by ringers on any thread: keep it off the owner's other data.
  alignas(kCacheLineSize) std::atomic<uint32_t> state_{kAwake};
  std::atomic<uint64_t> parks_{0};
  std::atomic<uint64_t> wakes_{0};
  std::atomic<uint64_t> missed_wakes_{0};
  std::vector<std::atomic<Doorbell*>*> slots_;  // owner thread only

  static inline constinit thread_local Doorbell* current_ = nullptr;
};

/// A ring's link to the doorbell of the thread consuming it.
///
/// Registration is not paired on the producer side: a producer that finds
/// no doorbell skips the ring, which keeps pushes into rings no executor
/// thread consumes (result rings polled by the caller) as cheap as before.
/// A push racing the consumer's registration can therefore miss its wake;
/// that happens at most once per registration (the first time a thread
/// finds the ring empty) and costs at most kParkTimeout.
class DoorbellSlot {
 public:
  /// Consumer, on finding the ring empty: pushes from now on ring the
  /// calling thread's doorbell. No-op off executor threads.
  void BindConsumer() {
    Doorbell* mine = Doorbell::Current();
    if (mine != nullptr && bell_.load(std::memory_order_relaxed) != mine) {
      mine->Register(&bell_);
    }
  }

  /// Producer, after the release store that published new items.
  void Notify() {
    Doorbell* bell = bell_.load(std::memory_order_acquire);
    if (bell != nullptr) bell->Ring();
  }

 private:
  std::atomic<Doorbell*> bell_{nullptr};
};

}  // namespace sjoin
