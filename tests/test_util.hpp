// Shared test machinery: tiny tuple schemas, predicates, random trace
// generation, pipeline run helpers (sequential, deterministic), the Kang
// reference (kang_join.hpp), and multiset comparison of result sets
// against it with duplicate/miss diagnostics.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "hsj/hsj_pipeline.hpp"
#include "kang_join.hpp"
#include "llhj/llhj_pipeline.hpp"
#include "runtime/executor.hpp"
#include "script_replay.hpp"
#include "stream/collector.hpp"
#include "stream/handlers.hpp"
#include "stream/script.hpp"
#include "stream/trace.hpp"
#include "stream/window.hpp"

namespace sjoin::test {

/// Minimal R-side tuple: a join key plus an identity payload.
struct TR {
  int32_t key = 0;
  int32_t id = 0;
};

/// Minimal S-side tuple.
struct TS {
  int32_t key = 0;
  int32_t id = 0;
};

/// Equi predicate on key.
struct KeyEq {
  bool operator()(const TR& r, const TS& s) const { return r.key == s.key; }
};

/// Band predicate |r.key - s.key| <= width.
struct KeyBand {
  int32_t width = 1;
  bool operator()(const TR& r, const TS& s) const {
    return r.key >= s.key - width && r.key <= s.key + width;
  }
};

/// KeyBand under another type, which declares its key radius
/// (RangeKeyTraits, below): LLHJ sessions index its windows in BandStores,
/// while KeyBand sessions keep the scan store, so both stay covered.
struct RangeBand {
  int32_t width = 1;
  bool operator()(const TR& r, const TS& s) const {
    return r.key >= s.key - width && r.key <= s.key + width;
  }
};

struct TRKey {
  int64_t operator()(const TR& r) const { return r.key; }
};
struct TSKey {
  int64_t operator()(const TS& s) const { return s.key; }
};

}  // namespace sjoin::test

// SIMD probe mappings (common/simd.hpp) for the test schema: the pipeline
// tests thereby run the packed-compare scan path end to end — and the CI
// forced-scalar leg (SJOIN_SIMD_LEVEL=scalar) re-runs the very same tests on
// the scalar fallback, pinning bit-identical results across dispatch
// levels. Int key only: no float lane.
namespace sjoin {

template <>
struct SimdEntryLanes<test::TR> {
  static constexpr bool kEnabled = true;
  static constexpr bool kHasF32 = false;
  static int32_t K0(const test::TR& r) { return r.key; }
};

template <>
struct SimdEntryLanes<test::TS> {
  static constexpr bool kEnabled = true;
  static constexpr bool kHasF32 = false;
  static int32_t K0(const test::TS& s) { return s.key; }
};

template <>
struct SimdProbeTraits<test::KeyBand, test::TR, test::TS> {
  static constexpr bool kEnabled = true;
  static constexpr SimdPredShape kShape = SimdPredShape::kBandEntry;
  static constexpr bool kUseF32 = false;
  static int32_t Band0(const test::KeyBand& p) { return p.width; }
  static int32_t P0(const test::TR& r) { return r.key; }
};

template <>
struct SimdProbeTraits<test::KeyBand, test::TS, test::TR> {
  static constexpr bool kEnabled = true;
  static constexpr SimdPredShape kShape = SimdPredShape::kBandProbe;
  static constexpr bool kUseF32 = false;
  static int32_t Lo0(const test::KeyBand& p, const test::TS& s) {
    return s.key - p.width;
  }
  static int32_t Hi0(const test::KeyBand& p, const test::TS& s) {
    return s.key + p.width;
  }
};

template <>
struct SimdProbeTraits<test::RangeBand, test::TR, test::TS> {
  static constexpr bool kEnabled = true;
  static constexpr SimdPredShape kShape = SimdPredShape::kBandEntry;
  static constexpr bool kUseF32 = false;
  static int32_t Band0(const test::RangeBand& p) { return p.width; }
  static int32_t P0(const test::TR& r) { return r.key; }
};

template <>
struct SimdProbeTraits<test::RangeBand, test::TS, test::TR> {
  static constexpr bool kEnabled = true;
  static constexpr SimdPredShape kShape = SimdPredShape::kBandProbe;
  static constexpr bool kUseF32 = false;
  static int32_t Lo0(const test::RangeBand& p, const test::TS& s) {
    return s.key - p.width;
  }
  static int32_t Hi0(const test::RangeBand& p, const test::TS& s) {
    return s.key + p.width;
  }
};

template <>
struct RangeKeyTraits<test::RangeBand, test::TR, test::TS> {
  static constexpr bool kEnabled = true;
  static int64_t KeyR(const test::TR& r) { return r.key; }
  static int64_t KeyS(const test::TS& s) { return s.key; }
  static int64_t Radius(const test::RangeBand& p) { return p.width; }
};

template <>
struct SimdProbeTraits<test::KeyEq, test::TR, test::TS> {
  static constexpr bool kEnabled = true;
  static constexpr SimdPredShape kShape = SimdPredShape::kEqui;
  static int32_t Key(const test::KeyEq&, const test::TR& r) { return r.key; }
};

template <>
struct SimdProbeTraits<test::KeyEq, test::TS, test::TR> {
  static constexpr bool kEnabled = true;
  static constexpr SimdPredShape kShape = SimdPredShape::kEqui;
  static int32_t Key(const test::KeyEq&, const test::TS& s) { return s.key; }
};

}  // namespace sjoin

namespace sjoin::test {

/// Random trace: alternating-ish arrivals with configurable key domain and
/// timestamp gaps (gap 0 produces runs of equal timestamps — the tie cases).
struct TraceConfig {
  std::size_t events = 200;
  int32_t key_domain = 8;      ///< small domain => many matches
  int64_t max_gap_us = 3;      ///< timestamp gap drawn from [0, max_gap_us]
  double r_fraction = 0.5;     ///< probability an event is an R arrival
};

inline Trace<TR, TS> MakeRandomTrace(uint64_t seed, const TraceConfig& config) {
  Rng rng(seed);
  Trace<TR, TS> trace;
  trace.reserve(config.events);
  Timestamp ts = 0;
  int32_t next_id = 0;
  for (std::size_t i = 0; i < config.events; ++i) {
    ts += rng.UniformInt(0, config.max_gap_us);
    const int32_t key =
        static_cast<int32_t>(rng.UniformInt(1, config.key_domain));
    if (rng.UniformDouble() < config.r_fraction) {
      trace.push_back(ArriveR<TR, TS>(ts, TR{key, next_id++}));
    } else {
      trace.push_back(ArriveS<TR, TS>(ts, TS{key, next_id++}));
    }
  }
  return trace;
}

/// A result identified by the (r_seq, s_seq) pair.
using PairKey = std::pair<Seq, Seq>;

template <typename R, typename S>
std::map<PairKey, int> PairMultiset(const std::vector<ResultMsg<R, S>>& rs) {
  std::map<PairKey, int> out;
  for (const auto& m : rs) out[{m.r_seq, m.s_seq}]++;
  return out;
}

/// Multiset equality with readable diagnostics (misses, duplicates, extras).
template <typename R, typename S>
::testing::AssertionResult SameResultSet(
    const std::vector<ResultMsg<R, S>>& expected,
    const std::vector<ResultMsg<R, S>>& actual) {
  const auto want = PairMultiset(expected);
  const auto got = PairMultiset(actual);
  std::ostringstream oss;
  bool ok = true;
  for (const auto& [pair, n] : want) {
    auto it = got.find(pair);
    const int have = it == got.end() ? 0 : it->second;
    if (have == 0) {
      oss << "MISSING (r" << pair.first << ", s" << pair.second << ")\n";
      ok = false;
    } else if (have != n) {
      oss << "COUNT (r" << pair.first << ", s" << pair.second << "): want "
          << n << " got " << have << "\n";
      ok = false;
    }
  }
  for (const auto& [pair, n] : got) {
    if (n > 1) {
      oss << "DUPLICATE x" << n << " (r" << pair.first << ", s" << pair.second
          << ")\n";
      ok = false;
    }
    if (want.find(pair) == want.end()) {
      oss << "EXTRA (r" << pair.first << ", s" << pair.second << ")\n";
      ok = false;
    }
  }
  if (ok) return ::testing::AssertionSuccess();
  oss << "expected " << expected.size() << " results, got " << actual.size();
  return ::testing::AssertionFailure() << oss.str();
}

/// Order-independent fingerprint of a result multiset over (r_seq, s_seq):
/// the count plus two wrapping sums of independent mixes of each pair. It
/// tells multisets apart without storing millions of results: a miss, a
/// duplicate or an extra pair shifts both sums by a pseudo-random amount.
struct ResultFingerprint {
  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t mix_sum = 0;

  static uint64_t Mix(uint64_t x) {  // splitmix64 finalizer
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
  }
  void Add(Seq r_seq, Seq s_seq) {
    const uint64_t h = Mix(Mix(r_seq) + s_seq);
    ++count;
    sum += h;
    mix_sum += Mix(h);
  }
  bool operator==(const ResultFingerprint&) const = default;
};

/// Punctuation invariant checked live: a result delivered after a
/// punctuation must not be covered by it (result ts >= last punctuation).
/// Also fingerprints the delivered multiset and forwards every callback to
/// `next` when one is given. Read the totals only after the delivering
/// thread has stopped.
template <typename R, typename S>
class LivePunctuationChecker : public OutputHandler<R, S> {
 public:
  explicit LivePunctuationChecker(OutputHandler<R, S>* next = nullptr)
      : next_(next) {}

  void OnResult(const ResultMsg<R, S>& m) override {
    if (m.ts < last_tp_) ++violations_;
    fingerprint_.Add(m.r_seq, m.s_seq);
    if (next_ != nullptr) next_->OnResult(m);
  }
  void OnPunctuation(Timestamp tp) override {
    last_tp_ = tp;
    ++punctuations_;
    if (next_ != nullptr) next_->OnPunctuation(tp);
  }

  uint64_t violations() const { return violations_; }
  uint64_t count() const { return fingerprint_.count; }
  uint64_t punctuations() const { return punctuations_; }
  const ResultFingerprint& fingerprint() const { return fingerprint_; }

 private:
  OutputHandler<R, S>* next_;
  Timestamp last_tp_ = kMinTimestamp;
  uint64_t violations_ = 0;
  uint64_t punctuations_ = 0;
  ResultFingerprint fingerprint_;
};

using Replay = ScriptReplay<TR, TS>;

/// Replay options for LLHJ: batches of `batch`, expiries gated on the
/// pipeline's completion marks.
template <typename Pipeline>
Replay::Options Gated(const Pipeline& pipeline, std::size_t batch = 1) {
  Replay::Options options;
  options.batch = batch;
  options.expiry_gate = &pipeline.hwm();
  return options;
}

/// Replay options for HSJ, which has no completion notion to gate expiries
/// on: the driver must not run ahead of the pipeline (bounded-lag regime,
/// DESIGN.md), and one event per executor pass keeps its lead at O(1).
inline Replay::Options OneEventPerPass(std::size_t batch = 1) {
  Replay::Options options;
  options.batch = batch;
  options.events_per_step = 1;
  return options;
}

/// Replays `script` into `pipeline` on one SequentialExecutor (replay,
/// nodes, collector) until quiescent; results go to `handler`. Returns the
/// collector for its counters.
template <typename Pipeline>
std::unique_ptr<Collector<TR, TS>> ReplaySequential(
    Pipeline& pipeline, const DriverScript<TR, TS>& script,
    OutputHandler<TR, TS>* handler, const Replay::Options& options) {
  Replay replay(pipeline.ports(), script, options);
  auto collector = pipeline.MakeCollector(handler);
  SequentialExecutor executor;
  executor.Add(&replay);
  for (Steppable* node : pipeline.nodes()) executor.Add(node);
  executor.Add(collector.get());
  const std::size_t passes = executor.RunUntilQuiescent();
  EXPECT_LT(passes, std::size_t{1} << 22) << "pipeline did not quiesce";
  EXPECT_TRUE(replay.finished());
  return collector;
}

/// Runs a script through an LLHJ pipeline on the sequential executor until
/// quiescent. Returns collected results; asserts zero protocol anomalies.
template <typename Pred, typename RStore = VectorStore<TR>,
          typename SStore = VectorStore<TS>>
std::vector<ResultMsg<TR, TS>> RunLlhjSequential(
    const DriverScript<TR, TS>& script,
    typename LlhjPipeline<TR, TS, Pred, RStore, SStore>::Options options,
    Pred pred = Pred{}, std::size_t batch = 1) {
  LlhjPipeline<TR, TS, Pred, RStore, SStore> pipeline(options, pred);
  CollectingHandler<TR, TS> handler;
  ReplaySequential(pipeline, script, &handler, Gated(pipeline, batch));
  EXPECT_EQ(pipeline.total_anomalies(), 0u);
  return handler.results();
}

/// Same for the original handshake join.
template <typename Pred>
std::vector<ResultMsg<TR, TS>> RunHsjSequential(
    const DriverScript<TR, TS>& script,
    typename HsjPipeline<TR, TS, Pred>::Options options, Pred pred = Pred{},
    std::size_t batch = 1) {
  HsjPipeline<TR, TS, Pred> pipeline(options, pred);
  CollectingHandler<TR, TS> handler;
  ReplaySequential(pipeline, script, &handler, OneEventPerPass(batch));
  EXPECT_EQ(pipeline.total_anomalies(), 0u);
  return handler.results();
}

}  // namespace sjoin::test
