// Progressive backoff for busy-wait loops. The evaluation machine in the
// paper had 48 cores, one per pipeline stage; this reproduction typically
// oversubscribes a small machine, so spin loops must yield quickly instead
// of burning the timeslice of the thread they are waiting for.
//
// This header holds the runtime's only timed sleep (lint rule
// hot-path-sleep; the one marked exception is the doorbell's fallback on
// hosts without futexes). Executor threads never reach it: they climb the
// pause and yield rungs only (Spin) for a fixed hot window, then park on a
// futex doorbell that pushes ring (runtime/doorbell.hpp). The sleep rung
// serves the waits no push can end — the session caller's full-channel and
// expiry-gate waits, start barriers.
#pragma once

#include <chrono>
#include <thread>

namespace sjoin {

#if defined(__x86_64__) || defined(__i386__)
inline void CpuRelax() { __builtin_ia32_pause(); }
#else
inline void CpuRelax() {}
#endif

/// Length of the ladder's last rung.
inline constexpr std::chrono::microseconds kBackoffSleep{50};

/// Escalating wait: pause -> yield -> short sleep. Reset() after progress.
class Backoff {
 public:
  void Pause() {
    if (attempt_ < kSpinLimit) {
      CpuRelax();
    } else if (attempt_ < kYieldLimit) {
      std::this_thread::yield();
    } else {
      std::this_thread::sleep_for(kBackoffSleep);
    }
    ++attempt_;
  }

  /// Pause() without the sleep rung: once the pauses are used up, every
  /// call yields. For executor threads, which bound their idle time
  /// themselves and then park on their doorbell instead of sleeping.
  void Spin() {
    if (attempt_ < kSpinLimit) {
      CpuRelax();
    } else {
      std::this_thread::yield();
    }
    ++attempt_;
  }

  void Reset() { attempt_ = 0; }

  int attempts() const { return attempt_; }

  /// Attempts that pause or yield before Pause() sleeps.
  static constexpr int kYieldLimit = 64;

 private:
  static constexpr int kSpinLimit = 16;
  int attempt_ = 0;
};

}  // namespace sjoin
