// Negative lint fixture: a timed sleep in a hot-path dir outside
// src/runtime/backoff.hpp must trip the hot-path-sleep rule — idle engine
// threads park on their doorbell and wake on push instead of polling.
// LINT_AS: src/stream/bad_sleep.hpp
#pragma once

#include <chrono>
#include <thread>

namespace sjoin_fixture {

inline void WaitForWork() {
  std::this_thread::sleep_for(std::chrono::microseconds(50));  // BAD
}

}  // namespace sjoin_fixture
