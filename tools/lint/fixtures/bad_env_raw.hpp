// Negative lint fixture: an env::Raw knob read without NOLINT(env-knob) on
// its line must trip the env-knob rule — every knob is a visible act.
// LINT_AS: src/runtime/bad_env_raw.hpp
#pragma once

#include "common/env.hpp"

namespace sjoin_fixture {

inline bool FastModeRequested() {
  return sjoin::env::Raw("SJOIN_FAST_MODE") != nullptr;  // BAD: unmarked knob
}

}  // namespace sjoin_fixture
