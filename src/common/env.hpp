// Centralized environment-knob access (DESIGN.md Section 14). Every
// SJOIN_* runtime knob is read through env::Raw and parsed by its caller:
// a misspelled value must never silently select the wrong code path (a CI
// leg that believes it forced scalar kernels or a synthetic topology has
// to actually run them), so anything unrecognized warns on stderr through
// WarnUnrecognized and falls back to the default. The lint pass
// (tools/lint/sjoin_lint.py) rejects bare std::getenv anywhere in src/
// outside this header, and every env::Raw( call site must carry
// NOLINT(env-knob) on its line, so adding a knob is a visible act.
#pragma once

#include <cstdio>
#include <cstdlib>

namespace sjoin {
namespace env {

/// Raw knob value, nullptr when unset. The only sanctioned std::getenv
/// call site in src/; callers (topology shapes, SIMD level names) parse
/// the value and warn through WarnUnrecognized below.
inline const char* Raw(const char* name) { return std::getenv(name); }

/// Shared warn format so every knob misparse reads the same in CI logs.
inline void WarnUnrecognized(const char* name, const char* value,
                             const char* expected,
                             const char* fallback_desc) {
  std::fprintf(stderr, "sjoin: unrecognized %s=\"%s\" (%s); %s\n", name,
               value, expected, fallback_desc);
}

}  // namespace env
}  // namespace sjoin
