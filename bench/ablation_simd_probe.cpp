// Ablation: SIMD probe kernels vs the forced-scalar fallback on the
// window-scan hot path (ROADMAP: SIMD band-join probe + SIMD multi-query
// probe; DESIGN.md Section 9).
//
// The measured loop is exactly the pipeline nodes' store sweep: one
// VectorStore window of W entries probed by k arrivals x Q registered
// queries through MatchBatch — the same call LlhjNode::ScanBatchAgainstS /
// HsjNode::ScanBatchAgainstS issue per crossing. Three probe shapes cover
// every kernel family:
//
//   band_entry — R probes the S window; float band bounds computed per
//                ENTRY, the int band as an exact range around the probe
//                (range_i32 + band_entry_f32 kernels);
//   band_probe — S probes the R window; band bounds hoisted per PROBE
//                (range_i32 + range_f32 kernels);
//   equi       — key equality sweep (eq_i32 kernel).
//
// Every supported dispatch level (scalar -> sse2 -> avx2) runs the same
// sweep; the per-level result multisets are asserted identical in-bench
// (bit-identical kernels are the correctness contract, not a best effort).
// Throughput is reported as predicate evaluations per second
// (W x k x Q x sweeps / wall), with speedup_vs_scalar per level.
// --require_speedup=N exits nonzero if the best SIMD level fails to reach
// N x scalar (acceptance runs; CI smoke leaves it off — shared runners).
#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "common/simd.hpp"
#include "llhj/store.hpp"
#include "stream/query_set.hpp"

using namespace sjoin;
using namespace sjoin::bench;

namespace {

struct Config {
  int64_t window = 16384;   ///< resident entries per sweep
  int64_t probes = 8;       ///< k: arrival-run length (kMsgsPerStep shape)
  int64_t queries = 4;      ///< Q: registered predicates
  double duration = 0.4;    ///< seconds per (shape, level) measurement
  int64_t key_domain = kPaperKeyDomain;
  uint64_t seed = 42;
  double require_speedup = 0.0;
};

/// A 64-bit order-insensitive fingerprint of the emitted (probe, query,
/// seq) triples plus the total count — levels must agree on both.
struct ResultSig {
  uint64_t hash = 0;
  uint64_t count = 0;
  bool operator==(const ResultSig&) const = default;
};

uint64_t MixTriple(std::size_t j, QueryId q, Seq seq) {
  uint64_t h = 0x9e3779b97f4a7c15ull;
  h ^= (static_cast<uint64_t>(j) + 1) * 0xff51afd7ed558ccdull;
  h ^= (static_cast<uint64_t>(q) + 1) * 0xc4ceb9fe1a85ec53ull;
  h ^= (seq + 1) * 0x2545f4914f6cdd1dull;
  h *= 0xbf58476d1ce4e5b9ull;
  return h ^ (h >> 31);
}

/// One (store, probes, queries) scan shape, measured at one dispatch level.
struct LevelStats {
  SimdLevel level = SimdLevel::kScalar;
  double wall_s = 0.0;
  uint64_t sweeps = 0;
  ResultSig sig;
  double evals_per_sec = 0.0;
};

template <bool kProbeIsLeft, typename Store, typename Pred, typename ProbeT>
LevelStats MeasureLevel(SimdLevel level, const Store& store,
                        const QuerySet<Pred>& queries,
                        const std::vector<Stamped<ProbeT>>& probes,
                        const Config& c) {
  OverrideSimdLevel(level);
  LevelStats stats;
  stats.level = level;
  // Fingerprint sweep (outside the timed loop).
  store.template MatchBatch<kProbeIsLeft>(
      queries, probes.data(), probes.size(),
      [&](std::size_t j, QueryId q, const auto& entry) {
        stats.sig.hash ^= MixTriple(j, q, entry.tuple.seq);
        ++stats.sig.count;
      });
  // Timed sweeps. The per-sweep match count is folded into a sink so the
  // emission path (set-bit walk + callback) stays in the measurement.
  uint64_t sink = 0;
  const int64_t start = NowNs();
  const int64_t deadline = start + static_cast<int64_t>(c.duration * 1e9);
  while (NowNs() < deadline) {
    store.template MatchBatch<kProbeIsLeft>(
        queries, probes.data(), probes.size(),
        [&](std::size_t j, QueryId q, const auto& entry) {
          sink += j + q + static_cast<uint64_t>(entry.tuple.seq & 1);
        });
    ++stats.sweeps;
  }
  const int64_t end = NowNs();
  ClearSimdLevelOverride();
  if (sink == 0xdeadbeef) std::printf("(unreachable)\n");  // keep `sink` live
  stats.wall_s = NsToSec(end - start);
  const double evals = static_cast<double>(store.size()) *
                       static_cast<double>(probes.size()) *
                       static_cast<double>(queries.size()) *
                       static_cast<double>(stats.sweeps);
  stats.evals_per_sec = stats.wall_s <= 0 ? 0.0 : evals / stats.wall_s;
  return stats;
}

/// Runs one scan shape at every level; returns the best SIMD speedup and
/// emits one JSON row per level. Exits the process on a result mismatch.
template <bool kProbeIsLeft, typename Store, typename Pred, typename ProbeT>
double RunShape(const char* shape, const Store& store,
                const QuerySet<Pred>& queries,
                const std::vector<Stamped<ProbeT>>& probes, const Config& c,
                JsonEmitter* json) {
  std::vector<LevelStats> rows;
  for (SimdLevel level : SupportedSimdLevels()) {
    rows.push_back(
        MeasureLevel<kProbeIsLeft>(level, store, queries, probes, c));
  }
  const LevelStats& scalar = rows.front();
  double best_speedup = 1.0;
  std::printf("  %-10s  %-7s  %12s  %10s  %14s  %8s\n", "shape", "level",
              "sweeps", "matches", "evals/s", "speedup");
  for (const LevelStats& row : rows) {
    if (!(row.sig == scalar.sig)) {
      std::printf("ERROR: %s result set differs between scalar and %s "
                  "(count %llu vs %llu, hash %016llx vs %016llx)\n",
                  shape, ToString(row.level),
                  static_cast<unsigned long long>(scalar.sig.count),
                  static_cast<unsigned long long>(row.sig.count),
                  static_cast<unsigned long long>(scalar.sig.hash),
                  static_cast<unsigned long long>(row.sig.hash));
      std::exit(1);
    }
    const double speedup =
        row.evals_per_sec <= 0 || scalar.evals_per_sec <= 0
            ? 0.0
            : row.evals_per_sec / scalar.evals_per_sec;
    if (row.level != SimdLevel::kScalar && speedup > best_speedup) {
      best_speedup = speedup;
    }
    std::printf("  %-10s  %-7s  %12llu  %10llu  %14.3e  %7.2fx\n", shape,
                ToString(row.level),
                static_cast<unsigned long long>(row.sweeps),
                static_cast<unsigned long long>(row.sig.count),
                row.evals_per_sec, speedup);
    JsonRow out;
    out.Str("shape", shape)
        .Str("level", ToString(row.level))
        .Str("detected", ToString(DetectedSimdLevel()))
        .Int("window", static_cast<int64_t>(store.size()))
        .Int("probes", static_cast<int64_t>(probes.size()))
        .Int("queries", static_cast<int64_t>(queries.size()))
        .Int("sweeps", static_cast<int64_t>(row.sweeps))
        .Num("wall_s", row.wall_s)
        .Num("evals_per_sec", row.evals_per_sec)
        .Int("matches_per_sweep", static_cast<int64_t>(row.sig.count))
        .Num("speedup_vs_scalar", speedup)
        .Int("results_equal", 1);
    json->Emit(out);
  }
  std::printf("\n");
  return best_speedup;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  Config c;
  c.window = flags.Int("window", c.window);
  c.probes = flags.Int("probes", c.probes);
  c.queries = flags.Int("queries", c.queries);
  c.duration = flags.Double("duration", c.duration);
  c.key_domain = flags.Int("domain", c.key_domain);
  c.seed = static_cast<uint64_t>(flags.Int("seed", 42));
  c.require_speedup = flags.Double("require_speedup", 0.0);

  PrintHeader("ablation_simd_probe — packed scan-probe kernels vs "
              "forced-scalar",
              "ROADMAP: SIMD band-join + multi-query probe (DESIGN.md S9)");
  std::printf("window %lld, %lld probes x %lld queries, %.2fs per level, "
              "detected %s\n\n",
              static_cast<long long>(c.window),
              static_cast<long long>(c.probes),
              static_cast<long long>(c.queries), c.duration,
              ToString(DetectedSimdLevel()));

  JsonEmitter json(flags, "ablation_simd_probe");
  Rng rng(c.seed);

  // Windows and probe runs drawn from the paper's band workload.
  VectorStore<STuple> ws;
  VectorStore<RTuple> wr;
  for (int64_t i = 0; i < c.window; ++i) {
    ws.Insert(Stamped<STuple>{MakeBandS(rng, c.key_domain),
                              static_cast<Seq>(i), 0, 0},
              false);
    wr.Insert(Stamped<RTuple>{MakeBandR(rng, c.key_domain),
                              static_cast<Seq>(i), 0, 0},
              false);
  }
  std::vector<Stamped<RTuple>> probe_r;
  std::vector<Stamped<STuple>> probe_s;
  for (int64_t j = 0; j < c.probes; ++j) {
    probe_r.push_back(Stamped<RTuple>{MakeBandR(rng, c.key_domain),
                                      static_cast<Seq>(j), 0, 0});
    probe_s.push_back(Stamped<STuple>{MakeBandS(rng, c.key_domain),
                                      static_cast<Seq>(j), 0, 0});
  }

  // Q band queries with distinct widths (the multi-query sharing shape);
  // wide enough that matches exist at every window size.
  std::vector<BandPredicate> bands;
  for (int64_t q = 0; q < c.queries; ++q) {
    const int32_t w = static_cast<int32_t>(10 + 40 * q);
    bands.push_back(BandPredicate{w, static_cast<float>(w)});
  }
  QuerySet<BandPredicate> band_queries(bands);
  QuerySet<EquiPredicate> equi_queries{EquiPredicate{}};

  double best = 1.0;
  best = std::max(best, RunShape<true>("band_entry", ws, band_queries,
                                       probe_r, c, &json));
  best = std::max(best, RunShape<false>("band_probe", wr, band_queries,
                                        probe_s, c, &json));
  best = std::max(best, RunShape<true>("equi", ws, equi_queries, probe_r, c,
                                       &json));

  if (c.require_speedup > 0 && DetectedSimdLevel() > SimdLevel::kScalar &&
      best < c.require_speedup) {
    std::printf("ERROR: best SIMD speedup %.2fx below required %.2fx\n", best,
                c.require_speedup);
    return 1;
  }
  std::printf("best SIMD speedup vs forced-scalar: %.2fx\n", best);
  return 0;
}
