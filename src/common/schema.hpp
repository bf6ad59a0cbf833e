// The benchmark schemas and join predicates used throughout the paper's
// evaluation (Section 7.1), reproduced verbatim:
//
//   R = < x : int, y : float, z : char[20] >
//   S = < a : int, b : float, c : double, d : bool >
//
// joined by the two-dimensional band predicate
//
//   r.x BETWEEN s.a - 10 AND s.a + 10  AND  r.y BETWEEN s.b - 10 AND s.b + 10
//
// with join attributes uniform in 1..10000 (hit rate ~1 : 250,000). The
// equi-join variant (paper Section 7.6 / Table 2) replaces the band with
// r.x = s.a so node-local hash indexes become applicable.
#pragma once

#include <cstdint>

#include "common/fixed_string.hpp"
#include "common/simd.hpp"

namespace sjoin {

/// Declares a join key on a predicate type: KeyR/KeyS extract one int64 key
/// per side, and every matching pair lies within a key radius,
///
///   pred(r, s)  implies  |KeyR(r) - KeyS(s)| <= radius.
///
/// An equi type declares the radius as the type constant
/// `static constexpr int64_t kRadius = 0`: matching pairs have equal keys,
/// so both sides can be hash-partitioned on them (stream/partitioner.hpp).
/// A band type declares it per instance, `static int64_t Radius(const
/// Pred&)`. Either way, an LLHJ session keeps its windows in key-bucketed
/// BandStores (llhj/band_store.hpp). The equi decision is a compile-time
/// one, because a query added to a running session cannot re-partition it.
/// The primary template is disabled; specialize it for every keyed
/// predicate type.
template <typename Pred, typename R, typename S>
struct JoinKeyTraits {
  static constexpr bool kEnabled = false;
};

/// True when Pred declares its key with the type constant radius 0.
template <typename Pred, typename R, typename S>
constexpr bool IsEquiKey() {
  using Traits = JoinKeyTraits<Pred, R, S>;
  if constexpr (requires { Traits::kRadius; }) {
    return Traits::kRadius == 0;
  } else {
    return false;
  }
}

/// Paper benchmark stream R: 〈x:int, y:float, z:char[20]〉.
struct RTuple {
  int32_t x = 0;
  float y = 0.0f;
  FixedString<20> z;
};

/// Paper benchmark stream S: 〈a:int, b:float, c:double, d:bool〉.
struct STuple {
  int32_t a = 0;
  float b = 0.0f;
  double c = 0.0;
  bool d = false;
};

/// The paper's two-dimensional band join predicate. The int bounds are
/// computed in int64, so keys at the int32 limits join exactly.
struct BandPredicate {
  int32_t x_band = 10;
  float y_band = 10.0f;

  bool operator()(const RTuple& r, const STuple& s) const {
    const int64_t a = s.a;
    return r.x >= a - x_band && r.x <= a + x_band &&
           r.y >= s.b - y_band && r.y <= s.b + y_band;
  }
};

/// Equi-join variant of the benchmark predicate (Table 2).
struct EquiPredicate {
  bool operator()(const RTuple& r, const STuple& s) const {
    return r.x == s.a;
  }
};

/// The equi-join's key: r.x == s.a, radius 0.
template <>
struct JoinKeyTraits<EquiPredicate, RTuple, STuple> {
  static constexpr bool kEnabled = true;
  static constexpr int64_t kRadius = 0;
  static int64_t KeyR(const RTuple& r) { return r.x; }
  static int64_t KeyS(const STuple& s) { return s.a; }
};

/// The band predicate's key: r.x within s.a +- x_band (the y/b band is
/// left to the predicate).
template <>
struct JoinKeyTraits<BandPredicate, RTuple, STuple> {
  static constexpr bool kEnabled = true;
  static int64_t KeyR(const RTuple& r) { return r.x; }
  static int64_t KeyS(const STuple& s) { return s.a; }
  static int64_t Radius(const BandPredicate& p) { return p.x_band; }
};

static_assert(sizeof(RTuple) == 28 || sizeof(RTuple) == 32,
              "RTuple should stay a small POD");

// ---------------------------------------------------------------------------
// SIMD probe mappings (common/simd.hpp) for the benchmark schema: the hot
// predicate columns each tuple contributes to the store's SoA lanes, and
// how the band/equi predicates decompose into packed-compare sweeps per
// probe direction. The float terms perform exactly the scalar predicates'
// arithmetic on the side where the scalar code computes it, and the int
// terms compute exact (int64, saturated) bounds, so kernel-driven result
// sets are bit-identical to the scalar path.
// ---------------------------------------------------------------------------

template <>
struct SimdEntryLanes<RTuple> {
  static constexpr bool kEnabled = true;
  static constexpr bool kHasF32 = true;
  static int32_t K0(const RTuple& r) { return r.x; }
  static float K1(const RTuple& r) { return r.y; }
};

template <>
struct SimdEntryLanes<STuple> {
  static constexpr bool kEnabled = true;
  static constexpr bool kHasF32 = true;
  static int32_t K0(const STuple& s) { return s.a; }
  static float K1(const STuple& s) { return s.b; }
};

/// R probes the S window: the float bounds (s.b +- y_band) are computed
/// from the ENTRY, exactly like the scalar predicate; the int band is swept
/// as the equivalent exact range r.x -+ x_band (common/simd.hpp).
template <>
struct SimdProbeTraits<BandPredicate, RTuple, STuple> {
  static constexpr bool kEnabled = true;
  static constexpr SimdPredShape kShape = SimdPredShape::kBandEntry;
  static constexpr bool kUseF32 = true;
  static int32_t Band0(const BandPredicate& p) { return p.x_band; }
  static float Band1(const BandPredicate& p) { return p.y_band; }
  static int32_t P0(const RTuple& r) { return r.x; }
  static float P1(const RTuple& r) { return r.y; }
};

/// S probes the R window: the same terms now have the band arithmetic on
/// the PROBE side — hoisted to scalars once per (probe, query).
template <>
struct SimdProbeTraits<BandPredicate, STuple, RTuple> {
  static constexpr bool kEnabled = true;
  static constexpr SimdPredShape kShape = SimdPredShape::kBandProbe;
  static constexpr bool kUseF32 = true;
  static int32_t Lo0(const BandPredicate& p, const STuple& s) {
    return SaturateI32(int64_t{s.a} - p.x_band);
  }
  static int32_t Hi0(const BandPredicate& p, const STuple& s) {
    return SaturateI32(int64_t{s.a} + p.x_band);
  }
  static float Lo1(const BandPredicate& p, const STuple& s) {
    return s.b - p.y_band;
  }
  static float Hi1(const BandPredicate& p, const STuple& s) {
    return s.b + p.y_band;
  }
};

template <>
struct SimdProbeTraits<EquiPredicate, RTuple, STuple> {
  static constexpr bool kEnabled = true;
  static constexpr SimdPredShape kShape = SimdPredShape::kEqui;
  static int32_t Key(const EquiPredicate&, const RTuple& r) { return r.x; }
};

template <>
struct SimdProbeTraits<EquiPredicate, STuple, RTuple> {
  static constexpr bool kEnabled = true;
  static constexpr SimdPredShape kShape = SimdPredShape::kEqui;
  static int32_t Key(const EquiPredicate&, const STuple& s) { return s.a; }
};

}  // namespace sjoin
