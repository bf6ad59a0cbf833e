// Ablation: multi-query sharing. Q concurrent band queries over the paper's
// band-join workload, run two ways:
//
//   independent — Q single-query JoinSessions, each owning its own pipeline,
//     windows and transport, each ingesting the full stream through the
//     per-tuple Push API (the pre-session deployment: one operator per
//     query);
//   shared — ONE JoinSession with Q registered queries: windows, transport
//     and driver are paid once, every window crossing evaluates all Q
//     predicates in a single store traversal, and ingestion uses the
//     batch-first span API (shared_tuple additionally isolates the sharing
//     effect from the batching effect).
//
// Aggregate throughput counts each query as a consumer of the full stream:
// aggregate = Q * (tuples per stream / wall seconds). The predicate work
// (Q predicates x window entries) is identical in all modes by necessity —
// what sharing removes is the Q-fold transport, window maintenance and
// store traversal.
//
// Defaults are sized for the single-core CI box (non-threaded, count
// windows); --threaded=1 runs the pipelines on their own threads instead.
#include <cstdio>
#include <memory>
#include <span>
#include <vector>

#include "bench_common.hpp"
#include "core/join_session.hpp"

using namespace sjoin;
using namespace sjoin::bench;

namespace {

struct Config {
  int64_t tuples = 20'000;  ///< per stream
  int64_t window = 512;     ///< count window per stream
  int nodes = 2;
  int batch = 64;
  int64_t key_domain = kPaperKeyDomain;
  bool threaded = false;
  uint64_t seed = 42;
};

JoinConfig SessionConfig(const Config& c) {
  JoinConfig config;
  config.algorithm = Algorithm::kLowLatency;
  config.parallelism = c.nodes;
  config.window_r = WindowSpec::Count(c.window);
  config.window_s = WindowSpec::Count(c.window);
  config.threaded = c.threaded;
  return config;
}

/// The Q predicates: the paper's band predicate, one per query. Distinct
/// widths keep the per-query result sets distinguishable without changing
/// the per-evaluation cost.
std::vector<BandPredicate> MakeQueries(int q) {
  std::vector<BandPredicate> preds;
  for (int i = 0; i < q; ++i) {
    preds.push_back(BandPredicate{10 + i, 10.0f + static_cast<float>(i)});
  }
  return preds;
}

struct Streams {
  std::vector<RTuple> rs;
  std::vector<STuple> ss;
  std::vector<Timestamp> ts_r;
  std::vector<Timestamp> ts_s;
};

Streams MakeStreams(const Config& c) {
  Streams out;
  Rng rng(c.seed);
  Timestamp ts = 0;
  for (int64_t i = 0; i < c.tuples; ++i) {
    out.rs.push_back(MakeBandR(rng, c.key_domain));
    out.ts_r.push_back(ts++);
    out.ss.push_back(MakeBandS(rng, c.key_domain));
    out.ts_s.push_back(ts++);
  }
  return out;
}

struct ModeStats {
  double wall_s = 0.0;
  std::vector<uint64_t> per_query;
  uint64_t anomalies = 0;
};

// All modes feed the SAME logical stream: alternating chunks of `batch`
// R tuples then `batch` S tuples (stream order is push order, so the
// interleaving is part of the stream definition — feeding chunk-ordered
// spans to one mode and tuple-interleaved order to another would compare
// different streams and legitimately differ at window boundaries). The
// modes differ only in API: spans vs a per-tuple loop over the chunks.

/// Q independent per-tuple single-query sessions, fed round-robin per chunk
/// so the Q windows advance together (as Q separate operator deployments
/// would).
ModeStats RunIndependent(const Config& c, int q, const Streams& in) {
  const auto preds = MakeQueries(q);
  std::vector<std::unique_ptr<CountingHandler<RTuple, STuple>>> handlers;
  std::vector<std::unique_ptr<JoinSession<RTuple, STuple, BandPredicate>>>
      joiners;
  for (int i = 0; i < q; ++i) {
    handlers.push_back(std::make_unique<CountingHandler<RTuple, STuple>>());
    joiners.push_back(
        std::make_unique<JoinSession<RTuple, STuple, BandPredicate>>(
            SessionConfig(c)));
    joiners.back()->AddQuery(preds[i], handlers.back().get());
  }
  const std::size_t chunk = static_cast<std::size_t>(c.batch);
  const int64_t start = NowNs();
  for (std::size_t i = 0; i < in.rs.size(); i += chunk) {
    const std::size_t n = std::min(chunk, in.rs.size() - i);
    for (auto& j : joiners) {
      for (std::size_t k = 0; k < n; ++k) j->PushR(in.rs[i + k], in.ts_r[i + k]);
      for (std::size_t k = 0; k < n; ++k) j->PushS(in.ss[i + k], in.ts_s[i + k]);
      j->Poll();
    }
  }
  for (auto& j : joiners) j->FinishInput();
  const int64_t end = NowNs();
  ModeStats stats;
  stats.wall_s = NsToSec(end - start);
  for (int i = 0; i < q; ++i) {
    stats.per_query.push_back(handlers[i]->count());
    stats.anomalies += joiners[i]->pipeline_anomalies();
  }
  return stats;
}

/// One shared session with Q queries; `batched` selects span vs per-tuple
/// ingestion.
ModeStats RunShared(const Config& c, int q, const Streams& in, bool batched) {
  const auto preds = MakeQueries(q);
  JoinSession<RTuple, STuple, BandPredicate> session(SessionConfig(c));
  std::vector<std::unique_ptr<CountingHandler<RTuple, STuple>>> handlers;
  for (int i = 0; i < q; ++i) {
    handlers.push_back(std::make_unique<CountingHandler<RTuple, STuple>>());
    session.AddQuery(preds[i], handlers.back().get());
  }
  const std::size_t chunk = static_cast<std::size_t>(c.batch);
  const int64_t start = NowNs();
  for (std::size_t i = 0; i < in.rs.size(); i += chunk) {
    const std::size_t n = std::min(chunk, in.rs.size() - i);
    if (batched) {
      session.PushR(std::span<const RTuple>(in.rs.data() + i, n),
                    std::span<const Timestamp>(in.ts_r.data() + i, n));
      session.PushS(std::span<const STuple>(in.ss.data() + i, n),
                    std::span<const Timestamp>(in.ts_s.data() + i, n));
    } else {
      for (std::size_t k = 0; k < n; ++k) {
        session.PushR(in.rs[i + k], in.ts_r[i + k]);
      }
      for (std::size_t k = 0; k < n; ++k) {
        session.PushS(in.ss[i + k], in.ts_s[i + k]);
      }
    }
    session.Poll();
  }
  session.FinishInput();
  const int64_t end = NowNs();
  ModeStats stats;
  stats.wall_s = NsToSec(end - start);
  for (int i = 0; i < q; ++i) {
    stats.per_query.push_back(
        session.results_collected(static_cast<QueryId>(i)));
  }
  stats.anomalies = session.pipeline_anomalies();
  return stats;
}

void EmitRow(JsonEmitter* json, const Config& c, const char* mode, int q,
             const ModeStats& stats, double speedup_vs_independent) {
  const double rate =
      stats.wall_s <= 0 ? 0.0 : static_cast<double>(c.tuples) / stats.wall_s;
  uint64_t results = 0;
  for (uint64_t n : stats.per_query) results += n;
  JsonRow row;
  row.Str("mode", mode)
      .Int("q", q)
      .Int("tuples_per_stream", c.tuples)
      .Int("window", c.window)
      .Int("nodes", c.nodes)
      .Int("batch", c.batch)
      .Int("threaded", c.threaded ? 1 : 0)
      .Num("wall_s", stats.wall_s)
      .Num("tuples_per_sec", rate)
      .Num("aggregate_tput", rate * q)
      .Int("results", static_cast<int64_t>(results))
      .Int("anomalies", static_cast<int64_t>(stats.anomalies));
  if (speedup_vs_independent > 0) {
    row.Num("speedup_vs_independent", speedup_vs_independent);
  }
  json->Emit(row);
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  Config c;
  c.tuples = flags.Int("tuples", c.tuples);
  c.window = flags.Int("window", c.window);
  c.nodes = static_cast<int>(flags.Int("nodes", c.nodes));
  c.batch = static_cast<int>(flags.Int("batch", c.batch));
  c.key_domain = flags.Int("domain", c.key_domain);
  c.threaded = flags.Bool("threaded", c.threaded);
  c.seed = static_cast<uint64_t>(flags.Int("seed", 42));

  PrintHeader("ablation_multi_query — shared session vs Q independent "
              "pipelines",
              "ROADMAP: multi-query sharing (paper Section 7 cost model)");
  std::printf("band workload, count windows %lld/%lld, %d nodes, batch %d, "
              "%s\n\n",
              static_cast<long long>(c.window),
              static_cast<long long>(c.window), c.nodes, c.batch,
              c.threaded ? "threaded" : "non-threaded");

  JsonEmitter json(flags, "ablation_multi_query");
  const Streams in = MakeStreams(c);

  std::printf("  %2s  %-12s  %10s  %14s  %14s  %8s\n", "Q", "mode",
              "wall(s)", "tuples/s", "aggregate/s", "speedup");
  for (int q : {1, 2, 4, 8}) {
    const ModeStats indep = RunIndependent(c, q, in);
    const ModeStats shared_tuple = RunShared(c, q, in, /*batched=*/false);
    const ModeStats shared_batch = RunShared(c, q, in, /*batched=*/true);

    // Correctness guard: every mode must produce identical per-query counts.
    for (int i = 0; i < q; ++i) {
      if (indep.per_query[static_cast<std::size_t>(i)] !=
              shared_batch.per_query[static_cast<std::size_t>(i)] ||
          indep.per_query[static_cast<std::size_t>(i)] !=
              shared_tuple.per_query[static_cast<std::size_t>(i)]) {
        std::printf("ERROR: result mismatch at Q=%d query %d "
                    "(independent %llu, shared_tuple %llu, shared_batch "
                    "%llu)\n",
                    q, i,
                    static_cast<unsigned long long>(
                        indep.per_query[static_cast<std::size_t>(i)]),
                    static_cast<unsigned long long>(
                        shared_tuple.per_query[static_cast<std::size_t>(i)]),
                    static_cast<unsigned long long>(
                        shared_batch.per_query[static_cast<std::size_t>(i)]));
        return 1;
      }
    }

    EmitRow(&json, c, "independent", q, indep, 0.0);
    EmitRow(&json, c, "shared_tuple", q, shared_tuple,
            indep.wall_s / shared_tuple.wall_s);
    EmitRow(&json, c, "shared_batch", q, shared_batch,
            indep.wall_s / shared_batch.wall_s);

    const double rate = static_cast<double>(c.tuples);
    std::printf("  %2d  %-12s  %10.3f  %14.0f  %14.0f  %8s\n", q,
                "independent", indep.wall_s, rate / indep.wall_s,
                q * rate / indep.wall_s, "1.00x");
    std::printf("  %2d  %-12s  %10.3f  %14.0f  %14.0f  %7.2fx\n", q,
                "shared_tuple", shared_tuple.wall_s, rate / shared_tuple.wall_s,
                q * rate / shared_tuple.wall_s,
                indep.wall_s / shared_tuple.wall_s);
    std::printf("  %2d  %-12s  %10.3f  %14.0f  %14.0f  %7.2fx\n", q,
                "shared_batch", shared_batch.wall_s,
                rate / shared_batch.wall_s, q * rate / shared_batch.wall_s,
                indep.wall_s / shared_batch.wall_s);
  }
  return 0;
}
