// Exhaustive scalar-vs-SIMD equivalence for the packed probe kernels of
// common/simd.hpp, on every dispatch level the host supports:
//  * each kernel against the scalar reference on randomized inputs, with
//    every tail length 0 .. 2*lane_width-1 (lane width 8 for AVX2 i32) plus
//    block-sized and block+1 lengths — the masked-tail contract (bits >= n
//    zero) is checked on every call;
//  * boundary values: exact band edges, INT32_MIN/MAX, zero-width bands,
//    negative zero and exact float bounds (inputs are NaN-free; the scalar
//    predicate and the ordered vector compares agree on all of them);
//  * the dispatch ladder itself: detection, env-independent override
//    clamping, and the kernel-table names;
//  * the fused store scan: VectorStore::MatchBatch (SIMD path, ring
//    wrapped and unwrapped) must produce exactly the generic scalar scan's
//    (probe, query, entry) set on every level, for the paper schema (band
//    int+float lanes, equi) and the int-only test schema; so must the
//    radius-0 BandStore's probe against the seed bucket store.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <set>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "common/schema.hpp"
#include "common/simd.hpp"
#include "llhj/band_store.hpp"
#include "llhj/store.hpp"
#include "stream/query_set.hpp"

#include "ref_hash_store.hpp"
#include "test_util.hpp"

namespace sjoin {
namespace {

using test::TR;
using test::TS;



/// Widest vector lane count across kernels (AVX-512 i32: 16); tails are
/// swept to twice this.
constexpr std::size_t kMaxLanes = 16;

/// Lengths that stress the vector body / scalar epilogue boundary.
std::vector<std::size_t> TailLengths() {
  std::vector<std::size_t> ns;
  for (std::size_t n = 0; n < 2 * kMaxLanes; ++n) ns.push_back(n);
  ns.push_back(kSimdBlock - 1);
  ns.push_back(kSimdBlock);
  ns.push_back(kSimdBlock + 1);
  ns.push_back(1000);
  return ns;
}

/// Masks are compared word-for-word INCLUDING the tail bits, which the
/// contract requires to be zero. Buffers are pre-poisoned so a kernel that
/// fails to clear its words is caught.
class MaskBuf {
 public:
  explicit MaskBuf(std::size_t n) : words_(SimdMaskWords(n) + 1, ~uint64_t{0}) {}
  uint64_t* data() { return words_.data(); }
  std::vector<uint64_t> Covered(std::size_t n) const {
    return std::vector<uint64_t>(words_.begin(),
                                 words_.begin() +
                                     static_cast<std::ptrdiff_t>(
                                         SimdMaskWords(n)));
  }
  /// The word past the covered range must never be touched.
  uint64_t Sentinel() const { return words_.back(); }

 private:
  std::vector<uint64_t> words_;
};

void ExpectTailZero(const std::vector<uint64_t>& mask, std::size_t n) {
  if (n % 64 == 0) return;
  const uint64_t tail = mask.back() >> (n % 64);
  EXPECT_EQ(tail, 0u) << "bits >= n must be zero (n=" << n << ")";
}

TEST(SimdDispatch, DetectionAndOverrideClamp) {
  EXPECT_GE(DetectedSimdLevel(), SimdLevel::kScalar);
  // Override never exceeds the detected ceiling.
  const SimdLevel got = OverrideSimdLevel(SimdLevel::kAvx2);
  EXPECT_LE(got, DetectedSimdLevel());
  EXPECT_EQ(ActiveSimdLevel(), got);
  EXPECT_STREQ(ActiveKernels().name, ToString(got));
  OverrideSimdLevel(SimdLevel::kScalar);
  EXPECT_EQ(ActiveSimdLevel(), SimdLevel::kScalar);
  EXPECT_STREQ(ActiveKernels().name, "scalar");
  ClearSimdLevelOverride();
  EXPECT_LE(ActiveSimdLevel(), DetectedSimdLevel());
}

TEST(SimdDispatch, KernelTableNamesMatchLevels) {
  EXPECT_STREQ(KernelsFor(SimdLevel::kScalar).name, "scalar");
#if SJOIN_SIMD_X86
  EXPECT_STREQ(KernelsFor(SimdLevel::kSse2).name, "sse2");
  EXPECT_STREQ(KernelsFor(SimdLevel::kAvx2).name, "avx2");
  EXPECT_STREQ(KernelsFor(SimdLevel::kAvx512).name, "avx512");
#endif
}

// -- Per-kernel randomized equivalence ---------------------------------------

TEST(SimdKernels, RangeI32MatchesScalar) {
  const SimdKernels& ref = KernelsFor(SimdLevel::kScalar);
  for (SimdLevel level : SupportedSimdLevels()) {
    const SimdKernels& k = KernelsFor(level);
    Rng rng(1 + static_cast<uint64_t>(level));
    for (std::size_t n : TailLengths()) {
      for (int trial = 0; trial < 20; ++trial) {
        std::vector<int32_t> v(n);
        for (auto& x : v) x = static_cast<int32_t>(rng.UniformInt(-50, 50));
        const int32_t lo = static_cast<int32_t>(rng.UniformInt(-60, 60));
        const int32_t hi = lo + static_cast<int32_t>(rng.UniformInt(-5, 40));
        MaskBuf want(n), got(n);
        ref.range_i32(v.data(), n, lo, hi, want.data());
        k.range_i32(v.data(), n, lo, hi, got.data());
        ASSERT_EQ(want.Covered(n), got.Covered(n))
            << ToString(level) << " n=" << n << " lo=" << lo << " hi=" << hi;
        ExpectTailZero(got.Covered(n), n);
        EXPECT_EQ(got.Sentinel(), ~uint64_t{0});
      }
    }
  }
}

TEST(SimdKernels, RangeI32BoundaryValues) {
  constexpr int32_t kMin = std::numeric_limits<int32_t>::min();
  constexpr int32_t kMax = std::numeric_limits<int32_t>::max();
  const std::vector<int32_t> v = {kMin, kMin + 1, -1, 0, 1, kMax - 1, kMax,
                                  42,   42,       42};
  const SimdKernels& ref = KernelsFor(SimdLevel::kScalar);
  for (SimdLevel level : SupportedSimdLevels()) {
    const SimdKernels& k = KernelsFor(level);
    for (auto [lo, hi] : std::vector<std::pair<int32_t, int32_t>>{
             {kMin, kMax},  // everything
             {kMax, kMin},  // empty (inverted)
             {42, 42},      // exact point
             {kMin, kMin},
             {kMax, kMax},
             {0, 0}}) {
      MaskBuf want(v.size()), got(v.size());
      ref.range_i32(v.data(), v.size(), lo, hi, want.data());
      k.range_i32(v.data(), v.size(), lo, hi, got.data());
      ASSERT_EQ(want.Covered(v.size()), got.Covered(v.size()))
          << ToString(level) << " lo=" << lo << " hi=" << hi;
    }
  }
}

TEST(SimdKernels, RangeF32MatchesScalar) {
  const SimdKernels& ref = KernelsFor(SimdLevel::kScalar);
  for (SimdLevel level : SupportedSimdLevels()) {
    const SimdKernels& k = KernelsFor(level);
    Rng rng(7 + static_cast<uint64_t>(level));
    for (std::size_t n : TailLengths()) {
      for (int trial = 0; trial < 20; ++trial) {
        std::vector<float> v(n);
        for (auto& x : v) {
          x = static_cast<float>(rng.UniformInt(-400, 400)) * 0.25f;
        }
        const float lo = static_cast<float>(rng.UniformInt(-400, 400)) * 0.25f;
        const float hi = lo + static_cast<float>(rng.UniformInt(-20, 160)) * 0.25f;
        MaskBuf want(n), got(n);
        ref.range_f32(v.data(), n, lo, hi, want.data());
        k.range_f32(v.data(), n, lo, hi, got.data());
        ASSERT_EQ(want.Covered(n), got.Covered(n))
            << ToString(level) << " n=" << n << " lo=" << lo << " hi=" << hi;
        ExpectTailZero(got.Covered(n), n);
      }
    }
  }
}

TEST(SimdKernels, RangeF32BoundaryValues) {
  // Exact bounds, negative zero, denormal-free extremes. NaN-free per the
  // kernel contract (ordered compares and the scalar >= / <= agree anyway).
  const std::vector<float> v = {-0.0f, 0.0f,  1.0f, -1.0f, 10.0f,
                                10.0f, 9.99f, 1e30f, -1e30f, 0.5f};
  const SimdKernels& ref = KernelsFor(SimdLevel::kScalar);
  for (SimdLevel level : SupportedSimdLevels()) {
    const SimdKernels& k = KernelsFor(level);
    for (auto [lo, hi] : std::vector<std::pair<float, float>>{
             {0.0f, 0.0f},      // negative zero == zero
             {-0.0f, 0.0f},
             {10.0f, 10.0f},    // exact band edge
             {-1e30f, 1e30f},
             {1.0f, -1.0f}}) {  // inverted: empty
      MaskBuf want(v.size()), got(v.size());
      ref.range_f32(v.data(), v.size(), lo, hi, want.data());
      k.range_f32(v.data(), v.size(), lo, hi, got.data());
      ASSERT_EQ(want.Covered(v.size()), got.Covered(v.size()))
          << ToString(level) << " lo=" << lo << " hi=" << hi;
    }
  }
}

TEST(SimdKernels, BandEntryF32MatchesScalar) {
  const SimdKernels& ref = KernelsFor(SimdLevel::kScalar);
  for (SimdLevel level : SupportedSimdLevels()) {
    const SimdKernels& k = KernelsFor(level);
    Rng rng(17 + static_cast<uint64_t>(level));
    for (std::size_t n : TailLengths()) {
      for (int trial = 0; trial < 20; ++trial) {
        std::vector<float> v(n);
        for (auto& x : v) {
          x = static_cast<float>(rng.UniformInt(-1000, 1000)) * 0.1f;
        }
        const float band = static_cast<float>(rng.UniformInt(0, 100)) * 0.1f;
        const float probe =
            static_cast<float>(rng.UniformInt(-1100, 1100)) * 0.1f;
        MaskBuf want(n), got(n);
        ref.band_entry_f32(v.data(), n, band, probe, want.data());
        k.band_entry_f32(v.data(), n, band, probe, got.data());
        ASSERT_EQ(want.Covered(n), got.Covered(n))
            << ToString(level) << " n=" << n << " band=" << band
            << " probe=" << probe;
        ExpectTailZero(got.Covered(n), n);
      }
    }
  }
}

TEST(SimdKernels, BandEntryExactEdges) {
  // probe exactly on v - band and v + band must match (>= / <=).
  const std::vector<float> vf = {10.0f, 10.0f, 10.0f, 20.0f};
  for (SimdLevel level : SupportedSimdLevels()) {
    const SimdKernels& k = KernelsFor(level);
    MaskBuf mf(vf.size());
    k.band_entry_f32(vf.data(), vf.size(), 3.0f, 13.0f, mf.data());  // 10+3
    EXPECT_EQ(mf.Covered(vf.size())[0] & 0xfu, 0x7u) << ToString(level);
  }
}

TEST(SimdKernels, EqI32MatchesScalar) {
  const SimdKernels& ref = KernelsFor(SimdLevel::kScalar);
  for (SimdLevel level : SupportedSimdLevels()) {
    const SimdKernels& k = KernelsFor(level);
    Rng rng(23 + static_cast<uint64_t>(level));
    for (std::size_t n : TailLengths()) {
      for (int trial = 0; trial < 20; ++trial) {
        std::vector<int32_t> v(n);
        for (auto& x : v) x = static_cast<int32_t>(rng.UniformInt(0, 8));
        const int32_t key = static_cast<int32_t>(rng.UniformInt(0, 10));
        MaskBuf want(n), got(n);
        ref.eq_i32(v.data(), n, key, want.data());
        k.eq_i32(v.data(), n, key, got.data());
        ASSERT_EQ(want.Covered(n), got.Covered(n))
            << ToString(level) << " n=" << n << " key=" << key;
        ExpectTailZero(got.Covered(n), n);
      }
    }
  }
}

TEST(SimdKernels, EqU64MatchesScalar) {
  const SimdKernels& ref = KernelsFor(SimdLevel::kScalar);
  for (SimdLevel level : SupportedSimdLevels()) {
    const SimdKernels& k = KernelsFor(level);
    Rng rng(29 + static_cast<uint64_t>(level));
    for (std::size_t n : TailLengths()) {
      for (int trial = 0; trial < 20; ++trial) {
        std::vector<uint64_t> v(n);
        for (auto& x : v) {
          // Values whose 32-bit halves collide stress the SSE2 half-compare.
          x = static_cast<uint64_t>(rng.UniformInt(0, 3)) << 32 |
              static_cast<uint64_t>(rng.UniformInt(0, 3));
        }
        const uint64_t key = static_cast<uint64_t>(rng.UniformInt(0, 3)) << 32 |
                             static_cast<uint64_t>(rng.UniformInt(0, 3));
        MaskBuf want(n), got(n);
        ref.eq_u64(v.data(), n, key, want.data());
        k.eq_u64(v.data(), n, key, got.data());
        ASSERT_EQ(want.Covered(n), got.Covered(n))
            << ToString(level) << " n=" << n << " key=" << key;
        ExpectTailZero(got.Covered(n), n);
      }
    }
  }
}

// -- Fused store scan: MatchBatch across dispatch levels ---------------------

/// Guard that restores the startup dispatch selection.
struct LevelGuard {
  ~LevelGuard() { ClearSimdLevelOverride(); }
};

using Crossing = std::tuple<std::size_t, QueryId, Seq>;  // (probe j, q, seq)

template <bool kProbeIsLeft, typename Store, typename Pred, typename ProbeT>
std::multiset<Crossing> CollectMatches(const Store& store,
                                       const QuerySet<Pred>& queries,
                                       const std::vector<Stamped<ProbeT>>& ps) {
  std::multiset<Crossing> out;
  store.template MatchBatch<kProbeIsLeft>(
      queries, ps.data(), ps.size(),
      [&](std::size_t j, QueryId q, const auto& entry) {
        out.insert({j, q, entry.tuple.seq});
      });
  return out;
}

/// The generic scalar oracle: entry-major loop + QuerySet::Match.
template <bool kProbeIsLeft, typename Store, typename Pred, typename ProbeT>
std::multiset<Crossing> OracleMatches(const Store& store,
                                      const QuerySet<Pred>& queries,
                                      const std::vector<Stamped<ProbeT>>& ps) {
  std::multiset<Crossing> out;
  store.ForEach(0, [&](const auto& entry) {
    for (std::size_t j = 0; j < ps.size(); ++j) {
      queries.template MatchOriented<kProbeIsLeft>(
          ps[j].value, entry.tuple.value,
          [&](QueryId q) { out.insert({j, q, entry.tuple.seq}); });
    }
  });
  return out;
}

TEST(SimdMatchBatch, PaperSchemaBandIdenticalAcrossLevels) {
  LevelGuard guard;
  Rng rng(99);
  // Ring with wrap: insert past the grow boundary, expire a prefix.
  VectorStore<STuple> store;
  Seq seq = 0;
  for (int i = 0; i < 700; ++i) {
    STuple s;
    s.a = static_cast<int32_t>(rng.UniformInt(1, 200));
    s.b = static_cast<float>(rng.UniformInt(1, 200));
    store.Insert(Stamped<STuple>{s, seq++, 0, 0}, false);
  }
  for (Seq e = 0; e < 300; ++e) ASSERT_TRUE(store.EraseSeq(e));
  for (int i = 0; i < 400; ++i) {  // wraps the ring
    STuple s;
    s.a = static_cast<int32_t>(rng.UniformInt(1, 200));
    s.b = static_cast<float>(rng.UniformInt(1, 200));
    store.Insert(Stamped<STuple>{s, seq++, 0, 0}, false);
  }
  QuerySet<BandPredicate> queries(std::vector<BandPredicate>{
      BandPredicate{10, 10.0f}, BandPredicate{25, 3.0f},
      BandPredicate{0, 200.0f}});
  std::vector<Stamped<RTuple>> probes;
  for (std::size_t j = 0; j < 7; ++j) {
    RTuple r;
    r.x = static_cast<int32_t>(rng.UniformInt(1, 200));
    r.y = static_cast<float>(rng.UniformInt(1, 200));
    probes.push_back(Stamped<RTuple>{r, j, 0, 0});
  }
  const auto oracle = OracleMatches<true>(store, queries, probes);
  ASSERT_FALSE(oracle.empty());
  for (SimdLevel level : SupportedSimdLevels()) {
    OverrideSimdLevel(level);
    EXPECT_EQ(CollectMatches<true>(store, queries, probes), oracle)
        << ToString(level);
  }
}

TEST(SimdMatchBatch, PaperSchemaProbeBoundsDirectionIdentical) {
  LevelGuard guard;
  Rng rng(101);
  VectorStore<RTuple> store;
  for (Seq seq = 0; seq < 500; ++seq) {
    RTuple r;
    r.x = static_cast<int32_t>(rng.UniformInt(1, 100));
    r.y = static_cast<float>(rng.UniformInt(1, 100));
    store.Insert(Stamped<RTuple>{r, seq, 0, 0}, rng.Chance(0.5));
  }
  QuerySet<BandPredicate> queries(std::vector<BandPredicate>{
      BandPredicate{10, 10.0f}, BandPredicate{50, 50.0f}});
  std::vector<Stamped<STuple>> probes;
  for (std::size_t j = 0; j < 5; ++j) {
    STuple s;
    s.a = static_cast<int32_t>(rng.UniformInt(1, 100));
    s.b = static_cast<float>(rng.UniformInt(1, 100));
    probes.push_back(Stamped<STuple>{s, j, 0, 0});
  }
  const auto oracle = OracleMatches<false>(store, queries, probes);
  ASSERT_FALSE(oracle.empty());
  for (SimdLevel level : SupportedSimdLevels()) {
    OverrideSimdLevel(level);
    EXPECT_EQ(CollectMatches<false>(store, queries, probes), oracle)
        << ToString(level);
  }
}

TEST(SimdMatchBatch, PaperSchemaBandExactAtInt32Limits) {
  // Keys within x_band of INT32_MIN/INT32_MAX: the int bounds s.a +- x_band
  // leave the int32 range. Every level, both probe directions and the
  // scalar predicate must agree with |r.x - s.a| <= x_band taken in int64.
  LevelGuard guard;
  constexpr int32_t kMin = std::numeric_limits<int32_t>::min();
  constexpr int32_t kMax = std::numeric_limits<int32_t>::max();
  const std::vector<int32_t> keys = {kMin,      kMin + 1, kMin + 5, kMin + 10,
                                     kMin + 11, -1,       0,        1,
                                     kMax - 11, kMax - 10, kMax - 5, kMax - 1,
                                     kMax};
  const std::vector<int32_t> bands = {0, 1, 10, kMax, -5};  // -5: empty
  std::vector<BandPredicate> preds;
  for (int32_t band : bands) preds.push_back(BandPredicate{band, 1.0f});
  const QuerySet<BandPredicate> queries(preds);

  VectorStore<STuple> s_store;
  VectorStore<RTuple> r_store;
  BandStore<RTuple, STuple, BandPredicate, StreamSide::kS> s_band(queries);
  BandStore<RTuple, STuple, BandPredicate, StreamSide::kR> r_band(queries);
  std::vector<Stamped<RTuple>> r_probes;
  std::vector<Stamped<STuple>> s_probes;
  std::multiset<Crossing> want_r;  // R probes the S window
  std::multiset<Crossing> want_s;  // S probes the R window
  for (std::size_t i = 0; i < keys.size(); ++i) {
    STuple s;
    s.a = keys[i];
    RTuple r;
    r.x = keys[i];
    s_store.Insert(Stamped<STuple>{s, i, 0, 0}, false);
    r_store.Insert(Stamped<RTuple>{r, i, 0, 0}, false);
    s_band.Insert(Stamped<STuple>{s, i, 0, 0}, false);
    r_band.Insert(Stamped<RTuple>{r, i, 0, 0}, false);
    r_probes.push_back(Stamped<RTuple>{r, i, 0, 0});
    s_probes.push_back(Stamped<STuple>{s, i, 0, 0});
  }
  for (std::size_t j = 0; j < keys.size(); ++j) {
    for (std::size_t e = 0; e < keys.size(); ++e) {
      const int64_t d = int64_t{keys[j]} - keys[e];
      for (QueryId q = 0; q < bands.size(); ++q) {
        if ((d < 0 ? -d : d) > bands[q]) continue;
        want_r.insert({j, q, e});
        want_s.insert({j, q, e});
        EXPECT_TRUE(preds[q](r_probes[j].value, s_probes[e].value))
            << "r.x=" << keys[j] << " s.a=" << keys[e]
            << " band=" << bands[q];
      }
    }
  }
  ASSERT_EQ(OracleMatches<true>(s_store, queries, r_probes), want_r);
  ASSERT_EQ(OracleMatches<false>(r_store, queries, s_probes), want_s);
  for (SimdLevel level : SupportedSimdLevels()) {
    OverrideSimdLevel(level);
    EXPECT_EQ(CollectMatches<true>(s_store, queries, r_probes), want_r)
        << ToString(level);
    EXPECT_EQ(CollectMatches<false>(r_store, queries, s_probes), want_s)
        << ToString(level);
    EXPECT_EQ(CollectMatches<true>(s_band, queries, r_probes), want_r)
        << ToString(level) << " BandStore";
    EXPECT_EQ(CollectMatches<false>(r_band, queries, s_probes), want_s)
        << ToString(level) << " BandStore";
  }
}

TEST(SimdMatchBatch, PaperSchemaEquiIdenticalAcrossLevels) {
  LevelGuard guard;
  Rng rng(103);
  VectorStore<STuple> store;
  for (Seq seq = 0; seq < 300; ++seq) {
    STuple s;
    s.a = static_cast<int32_t>(rng.UniformInt(1, 20));
    store.Insert(Stamped<STuple>{s, seq, 0, 0}, false);
  }
  QuerySet<EquiPredicate> queries{EquiPredicate{}};
  std::vector<Stamped<RTuple>> probes;
  for (std::size_t j = 0; j < 6; ++j) {
    RTuple r;
    r.x = static_cast<int32_t>(rng.UniformInt(1, 20));
    probes.push_back(Stamped<RTuple>{r, j, 0, 0});
  }
  const auto oracle = OracleMatches<true>(store, queries, probes);
  ASSERT_FALSE(oracle.empty());
  for (SimdLevel level : SupportedSimdLevels()) {
    OverrideSimdLevel(level);
    EXPECT_EQ(CollectMatches<true>(store, queries, probes), oracle)
        << ToString(level);
  }
}

TEST(SimdMatchBatch, TestSchemaIntOnlyLanesIdenticalAcrossLevels) {
  LevelGuard guard;
  Rng rng(107);
  VectorStore<TS> store;
  for (Seq seq = 0; seq < 333; ++seq) {
    store.Insert(
        Stamped<TS>{TS{static_cast<int32_t>(rng.UniformInt(1, 12)), 0},
                    seq, 0, 0},
        false);
  }
  QuerySet<test::KeyBand> queries(
      std::vector<test::KeyBand>{test::KeyBand{1}, test::KeyBand{3}});
  std::vector<Stamped<TR>> probes;
  for (std::size_t j = 0; j < 9; ++j) {
    probes.push_back(Stamped<TR>{
        TR{static_cast<int32_t>(rng.UniformInt(1, 12)), 0}, j, 0, 0});
  }
  const auto oracle = OracleMatches<true>(store, queries, probes);
  ASSERT_FALSE(oracle.empty());
  for (SimdLevel level : SupportedSimdLevels()) {
    OverrideSimdLevel(level);
    EXPECT_EQ(CollectMatches<true>(store, queries, probes), oracle)
        << ToString(level);
  }
}

// The radius-0 band store's probe (one key bucket per probe, swept by the
// eq_i32 kernel) must reproduce the seed bucket store's crossings exactly
// on every dispatch level. The seed store (scalar, probe by probe) is the
// oracle; random erases leave records moved across blocks behind.
TEST(SimdMatchBatch, RadiusZeroBandStoreIdenticalAcrossLevelsAndRefOracle) {
  LevelGuard guard;
  Rng rng(113);
  QuerySet<test::IndexedEq> queries{test::IndexedEq{}};
  BandStore<TR, TS, test::IndexedEq, StreamSide::kS> band(queries);
  test::RefHashStore<TS, test::TSKey, test::TRKey> ref;
  std::vector<Seq> live;
  Seq seq = 0;
  for (int step = 0; step < 1200; ++step) {
    if (live.empty() || rng.Chance(0.6)) {
      const Stamped<TS> e{
          TS{static_cast<int32_t>(rng.UniformInt(1, 40)), step}, seq, 0, 0};
      band.Insert(e, rng.Chance(0.3));
      ref.Insert(e, rng.Chance(0.3));
      live.push_back(seq++);
    } else {
      const std::size_t pick = static_cast<std::size_t>(
          rng.UniformInt(0, static_cast<int64_t>(live.size()) - 1));
      ASSERT_TRUE(band.EraseSeq(live[pick]));
      ASSERT_TRUE(ref.EraseSeq(live[pick]));
      live[pick] = live.back();
      live.pop_back();
    }
  }
  ASSERT_EQ(band.size(), ref.size());
  std::vector<Stamped<TR>> probes;
  for (std::size_t j = 0; j < 25; ++j) {
    // Keys 41..44 are absent: the batch must also agree on zero-hit probes.
    probes.push_back(Stamped<TR>{
        TR{static_cast<int32_t>(rng.UniformInt(1, 44)), 0}, j, 0, 0});
  }
  const auto oracle = CollectMatches<true>(ref, queries, probes);
  ASSERT_FALSE(oracle.empty());
  for (SimdLevel level : SupportedSimdLevels()) {
    OverrideSimdLevel(level);
    EXPECT_EQ(CollectMatches<true>(band, queries, probes), oracle)
        << ToString(level);
  }
}

TEST(SimdMatchBatch, EmptyStoreAndEmptyProbesAreNoops) {
  LevelGuard guard;
  VectorStore<STuple> store;
  QuerySet<BandPredicate> queries{BandPredicate{}};
  std::vector<Stamped<RTuple>> none;
  for (SimdLevel level : SupportedSimdLevels()) {
    OverrideSimdLevel(level);
    EXPECT_TRUE(CollectMatches<true>(store, queries, none).empty());
    store.Insert(Stamped<STuple>{STuple{}, 0, 0, 0}, false);
    EXPECT_TRUE(CollectMatches<true>(store, queries, none).empty());
    ASSERT_TRUE(store.EraseSeq(0));
  }
}

// The Seq lane drives the packed expiry search; erases through it must stay
// consistent with the entry ring on every level (including ring wrap).
TEST(SimdMatchBatch, SeqLaneEraseConsistentAcrossLevels) {
  LevelGuard guard;
  for (SimdLevel level : SupportedSimdLevels()) {
    OverrideSimdLevel(level);
    Rng rng(1000 + static_cast<uint64_t>(level));
    VectorStore<TR> store;
    std::vector<Seq> live;
    Seq next = 0;
    for (int op = 0; op < 3000; ++op) {
      if (live.empty() || rng.Chance(0.55)) {
        store.Insert(Stamped<TR>{TR{1, 0}, next, 0, 0}, false);
        live.push_back(next++);
      } else {
        // Mostly head, sometimes middle/tail: exercises the lane shifts.
        const std::size_t pick =
            rng.Chance(0.7) ? 0
                            : static_cast<std::size_t>(rng.UniformInt(
                                  0, static_cast<int64_t>(live.size()) - 1));
        ASSERT_TRUE(store.EraseSeq(live[pick]));
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
      }
      ASSERT_EQ(store.size(), live.size());
      ASSERT_FALSE(store.EraseSeq(next + 7));  // absent
    }
    std::vector<Seq> got;
    store.ForEach(0, [&](const StoreEntry<TR>& e) {
      got.push_back(e.tuple.seq);
    });
    EXPECT_EQ(got, live) << ToString(level);
  }
}

}  // namespace
}  // namespace sjoin
