// SIMD probe kernels for the window-scan hot path, with runtime dispatch.
//
// After PR 1 made VectorStore a contiguous ring and PR 2 made scans
// entry-major over k probes x N queries, the inner loop of a window crossing
// is pure data-parallel compare work: test a block of entry key lanes
// against a band/equi predicate and emit the matches. This header supplies
// that layer:
//
//  * Mask kernels — packed-compare primitives (int32 range, float32
//    range, float32 entry-side band, int32/uint64 equality) that each
//    sweep one contiguous key lane and produce a match BITMASK (bit i set
//    iff lane i satisfies the predicate term). A full predicate is
//    evaluated as one or two kernel sweeps whose masks are ANDed; result
//    emission walks the set bits. Every kernel performs *exactly* the
//    arithmetic of the scalar predicate (exact integer bounds, same IEEE
//    single-precision rounding, ordered float compares), so the vectorized
//    result sets are bit-identical to the scalar path — asserted by
//    tests/test_simd_kernels.cpp and in-bench by
//    bench/ablation_simd_probe.cpp.
//
//  * Masked-tail contract — kernels write ceil(n/64) words of mask for n
//    lanes: the vector body covers the full 4/8-lane blocks, a scalar
//    epilogue covers the tail, and every bit at position >= n is ZERO.
//    Callers may therefore iterate whole mask words without re-checking n.
//
//  * Runtime dispatch — the ladder AVX-512 -> AVX2 -> SSE2 -> scalar is
//    selected ONCE at startup from cpuid (non-x86 builds compile the scalar
//    table only). `SJOIN_SIMD_LEVEL=scalar|sse2|avx2|avx512` clamps to any
//    lower rung (CI runs the suite at scalar and at sse2 on every PR).
//    Tests and benches switch levels in-process via OverrideSimdLevel
//    (always clamped to what the host supports).
//
//  * Trait hooks — SimdEntryLanes<T> declares how a stored tuple type maps
//    onto the hot key lanes (k0: int32 band/equi key, k1: optional float
//    band key); SimdProbeTraits<Pred, Probe, Entry> declares how a
//    predicate decomposes into kernel sweeps for a given probe direction.
//    Both default to disabled, which keeps arbitrary user predicates on the
//    generic scalar scan. The paper's benchmark schema specializes them in
//    common/schema.hpp; the test schema in tests/test_util.hpp.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/env.hpp"

#if defined(__x86_64__) || defined(__i386__)
#define SJOIN_SIMD_X86 1
#include <immintrin.h>
#else
#define SJOIN_SIMD_X86 0
#endif

namespace sjoin {

// ---------------------------------------------------------------------------
// Dispatch levels
// ---------------------------------------------------------------------------

enum class SimdLevel : uint8_t { kScalar = 0, kSse2 = 1, kAvx2 = 2, kAvx512 = 3 };

constexpr const char* ToString(SimdLevel level) {
  switch (level) {
    case SimdLevel::kScalar:
      return "scalar";
    case SimdLevel::kSse2:
      return "sse2";
    case SimdLevel::kAvx2:
      return "avx2";
    case SimdLevel::kAvx512:
      return "avx512";
  }
  return "?";
}

/// Highest level this host can execute (queried once, cached). The AVX-512
/// rung requires both F (512-bit int compare-to-mask) and BW (byte/word
/// masks) — the baseline every AVX-512 server part ships.
inline SimdLevel DetectedSimdLevel() {
#if SJOIN_SIMD_X86
  static const SimdLevel detected = [] {
    if (__builtin_cpu_supports("avx512f") &&
        __builtin_cpu_supports("avx512bw")) {
      return SimdLevel::kAvx512;
    }
    if (__builtin_cpu_supports("avx2")) return SimdLevel::kAvx2;
    if (__builtin_cpu_supports("sse2")) return SimdLevel::kSse2;
    return SimdLevel::kScalar;
  }();
  return detected;
#else
  return SimdLevel::kScalar;
#endif
}

namespace simd_internal {

/// Startup level: detection clamped by the environment knobs. Read once.
/// Misspelled knob values must not silently select the wrong path: a CI leg
/// that *believes* it forced a rung has to actually run it, so anything
/// unrecognized warns on stderr and keeps the detected level.
inline SimdLevel EnvSimdLevel() {
  SimdLevel level = DetectedSimdLevel();
  const char* named = env::Raw("SJOIN_SIMD_LEVEL");  // NOLINT(env-knob)
  if (named != nullptr && named[0] != '\0') {
    const std::string want(named);
    if (want == "scalar") {
      level = SimdLevel::kScalar;
    } else if (want == "sse2") {
      level = std::min(level, SimdLevel::kSse2);  // never above detection
    } else if (want == "avx2") {
      level = std::min(level, SimdLevel::kAvx2);
    } else if (want == "avx512") {
      level = std::min(level, SimdLevel::kAvx512);
    } else {
      const std::string keep = std::string("keeping ") + ToString(level);
      env::WarnUnrecognized("SJOIN_SIMD_LEVEL", named,
                            "use scalar|sse2|avx2|avx512", keep.c_str());
    }
  }
  return level;
}

/// In-process override used by tests/benches; -1 = none.
inline std::atomic<int>& OverrideSlot() {
  static std::atomic<int> slot{-1};
  return slot;
}

}  // namespace simd_internal

/// The level the dispatched kernel table follows. Selected once at startup
/// (cpuid clamped by SJOIN_SIMD_LEVEL), unless a test
/// or bench installed an override.
inline SimdLevel ActiveSimdLevel() {
  const int over = simd_internal::OverrideSlot().load(std::memory_order_relaxed);
  if (over >= 0) return static_cast<SimdLevel>(over);
  static const SimdLevel startup = simd_internal::EnvSimdLevel();
  return startup;
}

/// Installs an in-process dispatch override (clamped to the detected
/// ceiling — asking for AVX2 on an SSE2-only host yields SSE2). Returns the
/// level actually installed. Test/bench hook; production code never calls
/// this.
inline SimdLevel OverrideSimdLevel(SimdLevel level) {
  if (level > DetectedSimdLevel()) level = DetectedSimdLevel();
  simd_internal::OverrideSlot().store(static_cast<int>(level),
                                      std::memory_order_relaxed);
  return level;
}

/// Removes the override; ActiveSimdLevel reverts to the startup selection.
inline void ClearSimdLevelOverride() {
  simd_internal::OverrideSlot().store(-1, std::memory_order_relaxed);
}

/// The levels this host can execute, lowest first (always includes
/// kScalar). Tests and benches sweep this to prove every rung.
inline std::vector<SimdLevel> SupportedSimdLevels() {
  std::vector<SimdLevel> levels{SimdLevel::kScalar};
  if (DetectedSimdLevel() >= SimdLevel::kSse2) {
    levels.push_back(SimdLevel::kSse2);
  }
  if (DetectedSimdLevel() >= SimdLevel::kAvx2) {
    levels.push_back(SimdLevel::kAvx2);
  }
  if (DetectedSimdLevel() >= SimdLevel::kAvx512) {
    levels.push_back(SimdLevel::kAvx512);
  }
  return levels;
}

// ---------------------------------------------------------------------------
// Mask helpers
// ---------------------------------------------------------------------------

/// Mask words covering n lanes.
constexpr std::size_t SimdMaskWords(std::size_t n) { return (n + 63) / 64; }

inline void ZeroMask(uint64_t* mask, std::size_t n) {
  std::memset(mask, 0, SimdMaskWords(n) * sizeof(uint64_t));
}

inline void AndMask(uint64_t* dst, const uint64_t* src, std::size_t n) {
  for (std::size_t w = 0; w < SimdMaskWords(n); ++w) dst[w] &= src[w];
}

/// Calls f(i) for every set bit i of a mask covering n lanes (bits >= n are
/// zero by the kernel contract, so whole words are consumed).
template <typename F>
inline void ForEachSetBit(const uint64_t* mask, std::size_t n, F&& f) {
  for (std::size_t w = 0; w < SimdMaskWords(n); ++w) {
    uint64_t word = mask[w];
    while (word != 0) {
      const unsigned bit = static_cast<unsigned>(__builtin_ctzll(word));
      f(w * 64 + bit);
      word &= word - 1;
    }
  }
}

// ---------------------------------------------------------------------------
// Kernels — scalar reference implementations
//
// These are the semantic definition of every kernel: the SSE2/AVX2 variants
// must produce bit-identical masks (tests/test_simd_kernels.cpp pins this).
// They are also the dispatched implementation at SimdLevel::kScalar.
// ---------------------------------------------------------------------------

namespace simd_kernels {

/// bit i <=> lo <= v[i] <= hi  (probe-side bounds, precomputed scalars).
inline void RangeMaskI32Scalar(const int32_t* v, std::size_t n, int32_t lo,
                               int32_t hi, uint64_t* mask) {
  ZeroMask(mask, n);
  for (std::size_t i = 0; i < n; ++i) {
    if (v[i] >= lo && v[i] <= hi) mask[i >> 6] |= uint64_t{1} << (i & 63);
  }
}

/// bit i <=> lo <= v[i] <= hi, IEEE ordered compares (NaN never matches).
inline void RangeMaskF32Scalar(const float* v, std::size_t n, float lo,
                               float hi, uint64_t* mask) {
  ZeroMask(mask, n);
  for (std::size_t i = 0; i < n; ++i) {
    if (v[i] >= lo && v[i] <= hi) mask[i >> 6] |= uint64_t{1} << (i & 63);
  }
}

/// bit i <=> v[i]-band <= probe <= v[i]+band  (entry-side bounds: the band
/// arithmetic runs per entry, with the scalar band predicate's rounding).
inline void BandEntryMaskF32Scalar(const float* v, std::size_t n, float band,
                                   float probe, uint64_t* mask) {
  ZeroMask(mask, n);
  for (std::size_t i = 0; i < n; ++i) {
    if (probe >= v[i] - band && probe <= v[i] + band) {
      mask[i >> 6] |= uint64_t{1} << (i & 63);
    }
  }
}

/// bit i <=> v[i] == key  (equi-join sweep).
inline void EqMaskI32Scalar(const int32_t* v, std::size_t n, int32_t key,
                            uint64_t* mask) {
  ZeroMask(mask, n);
  for (std::size_t i = 0; i < n; ++i) {
    if (v[i] == key) mask[i >> 6] |= uint64_t{1} << (i & 63);
  }
}

/// bit i <=> v[i] == key  (sequence-number sweep of the Seq lane).
inline void EqMaskU64Scalar(const uint64_t* v, std::size_t n, uint64_t key,
                            uint64_t* mask) {
  ZeroMask(mask, n);
  for (std::size_t i = 0; i < n; ++i) {
    if (v[i] == key) mask[i >> 6] |= uint64_t{1} << (i & 63);
  }
}

#if SJOIN_SIMD_X86

// -- SSE2 (4-wide) -----------------------------------------------------------
//
// The target attribute lets these bodies use intrinsics without compiling
// the whole translation unit for the extension; the dispatcher only hands
// out a table after cpuid confirmed support.

__attribute__((target("sse2"))) inline void RangeMaskI32Sse2(
    const int32_t* v, std::size_t n, int32_t lo, int32_t hi, uint64_t* mask) {
  ZeroMask(mask, n);
  const __m128i vlo = _mm_set1_epi32(lo);
  const __m128i vhi = _mm_set1_epi32(hi);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m128i x =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(v + i));
    const __m128i bad =
        _mm_or_si128(_mm_cmpgt_epi32(vlo, x), _mm_cmpgt_epi32(x, vhi));
    const uint32_t bits =
        static_cast<uint32_t>(_mm_movemask_ps(_mm_castsi128_ps(bad))) ^ 0xfu;
    mask[i >> 6] |= static_cast<uint64_t>(bits) << (i & 63);
  }
  for (; i < n; ++i) {
    if (v[i] >= lo && v[i] <= hi) mask[i >> 6] |= uint64_t{1} << (i & 63);
  }
}

__attribute__((target("sse2"))) inline void RangeMaskF32Sse2(
    const float* v, std::size_t n, float lo, float hi, uint64_t* mask) {
  ZeroMask(mask, n);
  const __m128 vlo = _mm_set1_ps(lo);
  const __m128 vhi = _mm_set1_ps(hi);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m128 x = _mm_loadu_ps(v + i);
    const __m128 ok = _mm_and_ps(_mm_cmpge_ps(x, vlo), _mm_cmple_ps(x, vhi));
    const uint32_t bits = static_cast<uint32_t>(_mm_movemask_ps(ok));
    mask[i >> 6] |= static_cast<uint64_t>(bits) << (i & 63);
  }
  for (; i < n; ++i) {
    if (v[i] >= lo && v[i] <= hi) mask[i >> 6] |= uint64_t{1} << (i & 63);
  }
}

__attribute__((target("sse2"))) inline void BandEntryMaskF32Sse2(
    const float* v, std::size_t n, float band, float probe, uint64_t* mask) {
  ZeroMask(mask, n);
  const __m128 vband = _mm_set1_ps(band);
  const __m128 vprobe = _mm_set1_ps(probe);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m128 x = _mm_loadu_ps(v + i);
    const __m128 lo = _mm_sub_ps(x, vband);
    const __m128 hi = _mm_add_ps(x, vband);
    const __m128 ok =
        _mm_and_ps(_mm_cmpge_ps(vprobe, lo), _mm_cmple_ps(vprobe, hi));
    const uint32_t bits = static_cast<uint32_t>(_mm_movemask_ps(ok));
    mask[i >> 6] |= static_cast<uint64_t>(bits) << (i & 63);
  }
  for (; i < n; ++i) {
    if (probe >= v[i] - band && probe <= v[i] + band) {
      mask[i >> 6] |= uint64_t{1} << (i & 63);
    }
  }
}

__attribute__((target("sse2"))) inline void EqMaskI32Sse2(const int32_t* v,
                                                          std::size_t n,
                                                          int32_t key,
                                                          uint64_t* mask) {
  ZeroMask(mask, n);
  const __m128i vkey = _mm_set1_epi32(key);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m128i x =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(v + i));
    const __m128i eq = _mm_cmpeq_epi32(x, vkey);
    const uint32_t bits =
        static_cast<uint32_t>(_mm_movemask_ps(_mm_castsi128_ps(eq)));
    mask[i >> 6] |= static_cast<uint64_t>(bits) << (i & 63);
  }
  for (; i < n; ++i) {
    if (v[i] == key) mask[i >> 6] |= uint64_t{1} << (i & 63);
  }
}

__attribute__((target("sse2"))) inline void EqMaskU64Sse2(const uint64_t* v,
                                                          std::size_t n,
                                                          uint64_t key,
                                                          uint64_t* mask) {
  ZeroMask(mask, n);
  const __m128i vkey =
      _mm_set1_epi64x(static_cast<long long>(key));
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const __m128i x =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(v + i));
    // SSE2 has no 64-bit compare: compare the 32-bit halves and AND each
    // half with its sibling so a 64-bit lane is all-ones iff both match.
    const __m128i eq32 = _mm_cmpeq_epi32(x, vkey);
    const __m128i eq64 = _mm_and_si128(
        eq32, _mm_shuffle_epi32(eq32, _MM_SHUFFLE(2, 3, 0, 1)));
    const uint32_t bits =
        static_cast<uint32_t>(_mm_movemask_pd(_mm_castsi128_pd(eq64)));
    mask[i >> 6] |= static_cast<uint64_t>(bits) << (i & 63);
  }
  for (; i < n; ++i) {
    if (v[i] == key) mask[i >> 6] |= uint64_t{1} << (i & 63);
  }
}

// -- AVX2 (8-wide) -----------------------------------------------------------

__attribute__((target("avx2"))) inline void RangeMaskI32Avx2(
    const int32_t* v, std::size_t n, int32_t lo, int32_t hi, uint64_t* mask) {
  ZeroMask(mask, n);
  const __m256i vlo = _mm256_set1_epi32(lo);
  const __m256i vhi = _mm256_set1_epi32(hi);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i x =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(v + i));
    const __m256i bad = _mm256_or_si256(_mm256_cmpgt_epi32(vlo, x),
                                        _mm256_cmpgt_epi32(x, vhi));
    const uint32_t bits =
        static_cast<uint32_t>(_mm256_movemask_ps(_mm256_castsi256_ps(bad))) ^
        0xffu;
    mask[i >> 6] |= static_cast<uint64_t>(bits) << (i & 63);
  }
  for (; i < n; ++i) {
    if (v[i] >= lo && v[i] <= hi) mask[i >> 6] |= uint64_t{1} << (i & 63);
  }
}

__attribute__((target("avx2"))) inline void RangeMaskF32Avx2(
    const float* v, std::size_t n, float lo, float hi, uint64_t* mask) {
  ZeroMask(mask, n);
  const __m256 vlo = _mm256_set1_ps(lo);
  const __m256 vhi = _mm256_set1_ps(hi);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 x = _mm256_loadu_ps(v + i);
    const __m256 ok = _mm256_and_ps(_mm256_cmp_ps(x, vlo, _CMP_GE_OQ),
                                    _mm256_cmp_ps(x, vhi, _CMP_LE_OQ));
    const uint32_t bits = static_cast<uint32_t>(_mm256_movemask_ps(ok));
    mask[i >> 6] |= static_cast<uint64_t>(bits) << (i & 63);
  }
  for (; i < n; ++i) {
    if (v[i] >= lo && v[i] <= hi) mask[i >> 6] |= uint64_t{1} << (i & 63);
  }
}

__attribute__((target("avx2"))) inline void BandEntryMaskF32Avx2(
    const float* v, std::size_t n, float band, float probe, uint64_t* mask) {
  ZeroMask(mask, n);
  const __m256 vband = _mm256_set1_ps(band);
  const __m256 vprobe = _mm256_set1_ps(probe);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 x = _mm256_loadu_ps(v + i);
    const __m256 lo = _mm256_sub_ps(x, vband);
    const __m256 hi = _mm256_add_ps(x, vband);
    const __m256 ok = _mm256_and_ps(_mm256_cmp_ps(vprobe, lo, _CMP_GE_OQ),
                                    _mm256_cmp_ps(vprobe, hi, _CMP_LE_OQ));
    const uint32_t bits = static_cast<uint32_t>(_mm256_movemask_ps(ok));
    mask[i >> 6] |= static_cast<uint64_t>(bits) << (i & 63);
  }
  for (; i < n; ++i) {
    if (probe >= v[i] - band && probe <= v[i] + band) {
      mask[i >> 6] |= uint64_t{1} << (i & 63);
    }
  }
}

__attribute__((target("avx2"))) inline void EqMaskI32Avx2(const int32_t* v,
                                                          std::size_t n,
                                                          int32_t key,
                                                          uint64_t* mask) {
  ZeroMask(mask, n);
  const __m256i vkey = _mm256_set1_epi32(key);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i x =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(v + i));
    const __m256i eq = _mm256_cmpeq_epi32(x, vkey);
    const uint32_t bits =
        static_cast<uint32_t>(_mm256_movemask_ps(_mm256_castsi256_ps(eq)));
    mask[i >> 6] |= static_cast<uint64_t>(bits) << (i & 63);
  }
  for (; i < n; ++i) {
    if (v[i] == key) mask[i >> 6] |= uint64_t{1} << (i & 63);
  }
}

__attribute__((target("avx2"))) inline void EqMaskU64Avx2(const uint64_t* v,
                                                          std::size_t n,
                                                          uint64_t key,
                                                          uint64_t* mask) {
  ZeroMask(mask, n);
  const __m256i vkey =
      _mm256_set1_epi64x(static_cast<long long>(key));
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i x =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(v + i));
    const __m256i eq = _mm256_cmpeq_epi64(x, vkey);
    const uint32_t bits =
        static_cast<uint32_t>(_mm256_movemask_pd(_mm256_castsi256_pd(eq)));
    mask[i >> 6] |= static_cast<uint64_t>(bits) << (i & 63);
  }
  for (; i < n; ++i) {
    if (v[i] == key) mask[i >> 6] |= uint64_t{1} << (i & 63);
  }
}

// -- AVX-512 (16-wide i32 / 8-wide i64, native mask registers) ---------------
//
// The compare-to-mask forms return the match bitmask directly (__mmask16 /
// __mmask8) — no movemask round trip. Float range/band and the u64 Seq
// sweep stay on their AVX2 bodies (same table entry): those lanes are
// latency-bound in practice and 512-bit floats gain nothing measurable, so
// the rung adds only the integer sweeps the ablation actually exercises.

__attribute__((target("avx512f"))) inline void RangeMaskI32Avx512(
    const int32_t* v, std::size_t n, int32_t lo, int32_t hi, uint64_t* mask) {
  ZeroMask(mask, n);
  const __m512i vlo = _mm512_set1_epi32(lo);
  const __m512i vhi = _mm512_set1_epi32(hi);
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m512i x = _mm512_loadu_si512(v + i);
    const __mmask16 ge = _mm512_cmp_epi32_mask(x, vlo, _MM_CMPINT_NLT);
    const __mmask16 le = _mm512_cmp_epi32_mask(x, vhi, _MM_CMPINT_LE);
    const uint32_t bits = static_cast<uint32_t>(ge & le);
    mask[i >> 6] |= static_cast<uint64_t>(bits) << (i & 63);
  }
  for (; i < n; ++i) {
    if (v[i] >= lo && v[i] <= hi) mask[i >> 6] |= uint64_t{1} << (i & 63);
  }
}

__attribute__((target("avx512f"))) inline void EqMaskI32Avx512(
    const int32_t* v, std::size_t n, int32_t key, uint64_t* mask) {
  ZeroMask(mask, n);
  const __m512i vkey = _mm512_set1_epi32(key);
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m512i x = _mm512_loadu_si512(v + i);
    const uint32_t bits =
        static_cast<uint32_t>(_mm512_cmpeq_epi32_mask(x, vkey));
    mask[i >> 6] |= static_cast<uint64_t>(bits) << (i & 63);
  }
  for (; i < n; ++i) {
    if (v[i] == key) mask[i >> 6] |= uint64_t{1} << (i & 63);
  }
}

#endif  // SJOIN_SIMD_X86

}  // namespace simd_kernels

// ---------------------------------------------------------------------------
// Dispatch table
// ---------------------------------------------------------------------------

/// One kernel table per dispatch level; all entries obey the masked-tail
/// contract (bits >= n zero) and compute exactly the scalar arithmetic.
struct SimdKernels {
  const char* name;
  void (*range_i32)(const int32_t* v, std::size_t n, int32_t lo, int32_t hi,
                    uint64_t* mask);
  void (*range_f32)(const float* v, std::size_t n, float lo, float hi,
                    uint64_t* mask);
  void (*band_entry_f32)(const float* v, std::size_t n, float band,
                         float probe, uint64_t* mask);
  void (*eq_i32)(const int32_t* v, std::size_t n, int32_t key,
                 uint64_t* mask);
  void (*eq_u64)(const uint64_t* v, std::size_t n, uint64_t key,
                 uint64_t* mask);
};

/// Kernel table for an explicit level (tests sweep all of them). Levels the
/// build does not provide (non-x86) fall back to the scalar table.
inline const SimdKernels& KernelsFor(SimdLevel level) {
  static const SimdKernels scalar = {
      "scalar",
      &simd_kernels::RangeMaskI32Scalar,
      &simd_kernels::RangeMaskF32Scalar,
      &simd_kernels::BandEntryMaskF32Scalar,
      &simd_kernels::EqMaskI32Scalar,
      &simd_kernels::EqMaskU64Scalar,
  };
#if SJOIN_SIMD_X86
  static const SimdKernels sse2 = {
      "sse2",
      &simd_kernels::RangeMaskI32Sse2,
      &simd_kernels::RangeMaskF32Sse2,
      &simd_kernels::BandEntryMaskF32Sse2,
      &simd_kernels::EqMaskI32Sse2,
      &simd_kernels::EqMaskU64Sse2,
  };
  static const SimdKernels avx2 = {
      "avx2",
      &simd_kernels::RangeMaskI32Avx2,
      &simd_kernels::RangeMaskF32Avx2,
      &simd_kernels::BandEntryMaskF32Avx2,
      &simd_kernels::EqMaskI32Avx2,
      &simd_kernels::EqMaskU64Avx2,
  };
  // The float range/band sweeps and the u64 Seq sweep reuse their AVX2
  // bodies (see the AVX-512 section note); the integer sweeps get native
  // 512-bit mask forms.
  static const SimdKernels avx512 = {
      "avx512",
      &simd_kernels::RangeMaskI32Avx512,
      &simd_kernels::RangeMaskF32Avx2,
      &simd_kernels::BandEntryMaskF32Avx2,
      &simd_kernels::EqMaskI32Avx512,
      &simd_kernels::EqMaskU64Avx2,
  };
  switch (level) {
    case SimdLevel::kScalar:
      return scalar;
    case SimdLevel::kSse2:
      return sse2;
    case SimdLevel::kAvx2:
      return avx2;
    case SimdLevel::kAvx512:
      return avx512;
  }
#else
  (void)level;
#endif
  return scalar;
}

/// The dispatched table for the active level.
inline const SimdKernels& ActiveKernels() {
  return KernelsFor(ActiveSimdLevel());
}

// ---------------------------------------------------------------------------
// Block geometry + trait hooks
// ---------------------------------------------------------------------------

/// Entries are probed in blocks of this many lanes: small enough that one
/// block of both key lanes (256 * 8 bytes = 2 KB) stays L1-resident across
/// the k probes x N queries sweeping it, large enough to amortize kernel
/// call overhead and mask iteration.
inline constexpr std::size_t kSimdBlock = 256;
inline constexpr std::size_t kSimdBlockWords = kSimdBlock / 64;

/// One contiguous block of entry key lanes (k1 may be null when the entry
/// type has no float lane).
struct SimdLaneBlock {
  const int32_t* k0 = nullptr;
  const float* k1 = nullptr;
};

/// Per-call scratch for block evaluation: the result mask and a second
/// buffer for the float term of two-sweep predicates.
struct SimdMatchScratch {
  uint64_t mask[kSimdBlockWords];
  uint64_t tmp[kSimdBlockWords];
};

/// Declares how a stored tuple type maps onto the hot key lanes kept in
/// structure-of-arrays form next to the entry ring:
///
///   static constexpr bool kEnabled = true;
///   static constexpr bool kHasF32  = ...;         // is there a float lane?
///   static int32_t K0(const T&);                  // band/equi int key
///   static float   K1(const T&);                  // float band key (if any)
///
/// Disabled by default: types without a specialization skip lane
/// maintenance entirely and scan through the generic scalar path.
template <typename T>
struct SimdEntryLanes {
  static constexpr bool kEnabled = false;
};

/// How a predicate decomposes into kernel sweeps for one probe direction.
/// Keyed on (Pred, Probe tuple, Entry tuple) — both directions of a join
/// get their own specialization because the band arithmetic must stay on
/// the side where the scalar predicate computes it (bit-identical results):
///
///   kShape = kEqui:      eq_i32(entry.k0, Key(pred, probe))
///   kShape = kBandEntry: range_i32(entry.k0, SaturateI32(P0 -+ Band0))
///                        [AND band_entry_f32(entry.k1, Band1, P1)]
///                        — float bounds arithmetic on the ENTRY side
///   kShape = kBandProbe: range_i32(entry.k0, Lo0(pred,probe), Hi0(...))
///                        [AND range_f32(entry.k1, Lo1, Hi1)]
///                        — bounds arithmetic on the PROBE side, hoisted to
///                        scalars once per (probe, query)
///
/// Integer bounds are exact: e - b <= p <= e + b holds iff p - b <= e <=
/// p + b, so the entry-side int band is swept as a range around the probe.
/// Lo0/Hi0 and that range compute their bounds in int64 and saturate them
/// to the int32 lane (SaturateI32), which is exact because every lane
/// value lies in that range. Only the float term's rounding pins it to the
/// side the scalar predicate computes it on.
///
/// kUseF32 adds the float sweep; it requires SimdEntryLanes<Entry>::kHasF32.
template <typename Pred, typename Probe, typename Entry>
struct SimdProbeTraits {
  static constexpr bool kEnabled = false;
};

enum class SimdPredShape : uint8_t { kEqui, kBandEntry, kBandProbe };

/// An int64 band bound clamped to the int32 lane range. A bound beyond the
/// range admits or excludes every lane value exactly as the clamped bound
/// does.
constexpr int32_t SaturateI32(int64_t v) {
  return static_cast<int32_t>(
      std::clamp<int64_t>(v, INT32_MIN, INT32_MAX));
}

}  // namespace sjoin
