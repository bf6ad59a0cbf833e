// Progressive backoff for busy-wait loops. The evaluation machine in the
// paper had 48 cores, one per pipeline stage; this reproduction typically
// oversubscribes a small machine, so spin loops must yield quickly instead
// of burning the timeslice of the thread they are waiting for.
//
// This header holds the runtime's only timed sleep (lint rule
// hot-path-sleep; the one marked exception is the doorbell's fallback on
// hosts without futexes). Executor threads never reach it: once their
// ladder is exhausted they park on a futex doorbell that pushes ring
// (runtime/doorbell.hpp). The sleep rung serves the waits no push can end —
// the session caller's full-channel and expiry-gate waits, start barriers.
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

  void Reset() { attempt_ = 0; }

  int attempts() const { return attempt_; }

  /// True once the spin and yield rungs are used up: the next Pause()
  /// would sleep. Executor threads park on their doorbell instead.
  bool Exhausted() const { return attempt_ >= kYieldLimit; }

 private:
  static constexpr int kSpinLimit = 16;
  static constexpr int kYieldLimit = 64;
  int attempt_ = 0;
};

}  // namespace sjoin
