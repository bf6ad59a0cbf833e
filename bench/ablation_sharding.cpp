// Ablation: sharded multi-pipeline scale-out (DESIGN.md Section 13). The
// same equi workload runs through a JoinSession at 1, 2 and 4
// shards, hash-partitioned on the join key. EquiPredicate declares its
// join keys, so every shard probes a hash index: a probe visits only its
// key's candidates, which all sit on one shard, and the non-threaded
// default shows no algorithmic speedup from sharding (the rows recorded
// before the index show the scan-work cut of the scan store). Add
// --threaded=1 to run the shards in parallel, and on a multi-socket
// machine --nodes=2 to stack pipeline parallelism (one shard per NUMA
// node) on top. Reported per shard count: wall time, throughput, merged
// latency percentiles (LatencyHistogram::Merge across the shard
// histograms) and the speedup over the 1-shard run.
//
// Correctness guard (the sharded-equivalence contract, in-bench): the
// result multiset must not depend on the shard count. Each run folds its
// results into an order-independent hash of (r_seq, s_seq); any divergence
// across shard counts — or a nonzero anomaly counter — exits 1.
#include <algorithm>
#include <cstdio>
#include <span>
#include <vector>

#include "bench_common.hpp"
#include "core/join_session.hpp"

using namespace sjoin;
using namespace sjoin::bench;

namespace {

struct Config {
  int64_t tuples = 30'000;   ///< per stream
  int64_t window = 32'768;   ///< count window per stream
  int nodes = 1;             ///< pipeline parallelism per shard
  int batch = 256;
  int64_t key_domain = 8192; ///< equi key domain (window/domain hits/probe)
  bool threaded = false;
  bool assert_equal = true;
  uint64_t seed = 42;
};

/// Order-independent digest of the result multiset: commutative sum of a
/// mixed (r_seq, s_seq) fingerprint, so shard interleaving cannot matter.
struct HashingHandler : OutputHandler<RTuple, STuple> {
  uint64_t hash = 0;
  uint64_t results = 0;
  void OnResult(const ResultMsg<RTuple, STuple>& m) override {
    hash += MixShardKey(m.r_seq * 0x9e3779b97f4a7c15ULL + MixShardKey(m.s_seq));
    ++results;
  }
};

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
    RTuple r{};
    r.x = static_cast<int32_t>(rng.UniformInt(1, c.key_domain));
    out.rs.push_back(r);
    out.ts_r.push_back(ts++);
    STuple s{};
    s.a = static_cast<int32_t>(rng.UniformInt(1, c.key_domain));
    out.ss.push_back(s);
    out.ts_s.push_back(ts++);
  }
  return out;
}

struct ShardRunStats {
  double wall_s = 0.0;
  uint64_t results = 0;
  uint64_t hash = 0;
  uint64_t anomalies = 0;
  uint64_t shard_results_min = 0;
  uint64_t shard_results_max = 0;
  LatencyHistogram latency;
};

ShardRunStats Run(const Config& c, const Streams& in, int shards) {
  ShardedJoinConfig config;
  config.shard.algorithm = Algorithm::kLowLatency;
  config.shard.parallelism = c.nodes;
  config.shard.window_r = WindowSpec::Count(c.window);
  config.shard.window_s = WindowSpec::Count(c.window);
  config.shard.threaded = c.threaded;
  config.shards = shards;
  config.partition = PartitionPolicy::kHashKey;  // EquiPredicate shard keys

  JoinSession<RTuple, STuple, EquiPredicate> session(config);
  HashingHandler handler;
  session.AddQuery(EquiPredicate{}, &handler);

  const std::size_t chunk = static_cast<std::size_t>(c.batch);
  const int64_t start = NowNs();
  for (std::size_t i = 0; i < in.rs.size(); i += chunk) {
    const std::size_t n = std::min(chunk, in.rs.size() - i);
    session.PushR(std::span<const RTuple>(in.rs.data() + i, n),
                  std::span<const Timestamp>(in.ts_r.data() + i, n));
    session.PushS(std::span<const STuple>(in.ss.data() + i, n),
                  std::span<const Timestamp>(in.ts_s.data() + i, n));
    session.Poll();
  }
  session.FinishInput();
  const int64_t end = NowNs();

  ShardRunStats stats;
  stats.wall_s = NsToSec(end - start);
  stats.results = handler.results;
  stats.hash = handler.hash;
  stats.anomalies = session.pipeline_anomalies();
  stats.latency = session.merged_latency_histogram();
  stats.shard_results_min = session.shard_results(0);
  stats.shard_results_max = session.shard_results(0);
  for (int k = 1; k < session.shard_count(); ++k) {
    stats.shard_results_min =
        std::min(stats.shard_results_min, session.shard_results(k));
    stats.shard_results_max =
        std::max(stats.shard_results_max, session.shard_results(k));
  }
  session.Stop();
  return stats;
}

void EmitRow(JsonEmitter* json, const Config& c, int shards,
             const ShardRunStats& stats, double speedup) {
  const double rate =
      stats.wall_s <= 0 ? 0.0 : static_cast<double>(c.tuples) / stats.wall_s;
  char hash_hex[32];
  std::snprintf(hash_hex, sizeof(hash_hex), "%016llx",
                static_cast<unsigned long long>(stats.hash));
  JsonRow row;
  row.Int("shards", shards)
      .Int("tuples_per_stream", c.tuples)
      .Int("window", c.window)
      .Int("nodes_per_shard", c.nodes)
      .Int("key_domain", c.key_domain)
      .Int("threaded", c.threaded ? 1 : 0)
      .Num("wall_s", stats.wall_s)
      .Num("tuples_per_sec", rate)
      .Num("latency_p50_ms", stats.latency.QuantileMs(0.50))
      .Num("latency_p95_ms", stats.latency.QuantileMs(0.95))
      .Num("latency_p99_ms", stats.latency.QuantileMs(0.99))
      .Num("latency_p999_ms", stats.latency.QuantileMs(0.999))
      .Int("results", static_cast<int64_t>(stats.results))
      .Str("result_hash", hash_hex)
      .Int("shard_results_min", static_cast<int64_t>(stats.shard_results_min))
      .Int("shard_results_max", static_cast<int64_t>(stats.shard_results_max))
      .Int("anomalies", static_cast<int64_t>(stats.anomalies))
      .Num("speedup_vs_1shard", speedup);
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
  c.assert_equal = flags.Bool("assert", c.assert_equal);
  c.seed = static_cast<uint64_t>(flags.Int("seed", 42));

  PrintHeader("ablation_sharding — multi-pipeline scale-out vs single shard",
              "ROADMAP: sharded multi-socket scale-out (DESIGN.md S.13)");
  std::printf("equi workload, count windows %lld/%lld, domain %lld, "
              "%d nodes/shard, batch %d, %s\n\n",
              static_cast<long long>(c.window),
              static_cast<long long>(c.window),
              static_cast<long long>(c.key_domain), c.nodes, c.batch,
              c.threaded ? "threaded" : "non-threaded");

  JsonEmitter json(flags, "ablation_sharding");
  const Streams in = MakeStreams(c);

  // Warm caches/allocator so the first measured run isn't penalised.
  Config warm = c;
  warm.tuples = std::min<int64_t>(c.tuples, 8'000);
  Streams warm_in = in;
  warm_in.rs.resize(static_cast<std::size_t>(warm.tuples));
  warm_in.ss.resize(static_cast<std::size_t>(warm.tuples));
  warm_in.ts_r.resize(static_cast<std::size_t>(warm.tuples));
  warm_in.ts_s.resize(static_cast<std::size_t>(warm.tuples));
  (void)Run(warm, warm_in, 1);

  const int shard_counts[] = {1, 2, 4};
  std::vector<ShardRunStats> runs;
  for (int shards : shard_counts) runs.push_back(Run(c, in, shards));

  std::printf("  %-7s  %10s  %14s  %9s  %9s  %10s  %8s\n", "shards",
              "wall(s)", "tuples/s", "p50(ms)", "p99(ms)", "results",
              "speedup");
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const ShardRunStats& s = runs[i];
    const double speedup =
        s.wall_s > 0 && i > 0 ? runs[0].wall_s / s.wall_s : 1.0;
    EmitRow(&json, c, shard_counts[i], s, speedup);
    std::printf("  %-7d  %10.3f  %14.0f  %9.3f  %9.3f  %10llu  %7.2fx\n",
                shard_counts[i], s.wall_s,
                static_cast<double>(c.tuples) / s.wall_s,
                s.latency.QuantileMs(0.50), s.latency.QuantileMs(0.99),
                static_cast<unsigned long long>(s.results), speedup);
  }

  // Equivalence guard: same results whatever the shard count.
  for (std::size_t i = 0; i < runs.size(); ++i) {
    if (runs[i].anomalies != 0) {
      std::printf("ERROR: %llu pipeline anomalies at %d shards\n",
                  static_cast<unsigned long long>(runs[i].anomalies),
                  shard_counts[i]);
      return 1;
    }
    if (c.assert_equal && (runs[i].hash != runs[0].hash ||
                           runs[i].results != runs[0].results)) {
      std::printf("ERROR: result set diverged at %d shards "
                  "(hash %016llx vs %016llx, %llu vs %llu results)\n",
                  shard_counts[i],
                  static_cast<unsigned long long>(runs[i].hash),
                  static_cast<unsigned long long>(runs[0].hash),
                  static_cast<unsigned long long>(runs[i].results),
                  static_cast<unsigned long long>(runs[0].results));
      return 1;
    }
  }
  std::printf("\nresult multiset identical across 1/2/4 shards "
              "(hash %016llx, %llu results)\n",
              static_cast<unsigned long long>(runs[0].hash),
              static_cast<unsigned long long>(runs[0].results));
  return 0;
}
