// Negative lint fixture: a clock read per tuple in a hot-path dir must trip
// the hot-path-clock rule — the push call reads the clock once and every
// arrival of its span carries that one stamp.
// LINT_AS: src/core/bad_clock.hpp
#pragma once

#include <chrono>
#include <cstdint>
#include <vector>

namespace sjoin_fixture {

inline void StampEach(std::vector<int64_t>* stamps) {
  for (int64_t& stamp : *stamps) {
    stamp = std::chrono::steady_clock::now().time_since_epoch().count();  // BAD
  }
}

}  // namespace sjoin_fixture
