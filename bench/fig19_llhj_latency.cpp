// Figure 19 — latency distribution of *low-latency* handshake join over
// wall-clock time for the two window configurations of Figure 5, with the
// default batch size of 64.
//
// Expected shape (paper): average latency below ~10 ms and maxima around
// 30 ms, insensitive to the window configuration — three orders of
// magnitude below Figure 5 — dominated by the driver's batching delay
// (batch 64 at rate 2λ fills every 64/(2 λ) seconds).
// Additionally benchmarks the session Push API on the same workload: the
// batch-first PushR/PushS(span) overloads against the per-tuple loop
// (config "push_tuple" vs "push_batch"), at maximum rate against
// backpressure. The redesign's bar: batch ingestion must be no slower.
#include <cstdio>
#include <span>
#include <vector>

#include "bench_common.hpp"
#include "core/join_session.hpp"

using namespace sjoin;
using namespace sjoin::bench;

namespace {

void RunConfig(const char* label, double wr_s, double ws_s, double rate,
               int nodes, int batch, double duration_s, uint64_t seed,
               JsonEmitter* json) {
  Workload workload;
  workload.wr = WindowSpec::Time(static_cast<int64_t>(wr_s * 1e6));
  workload.ws = WindowSpec::Time(static_cast<int64_t>(ws_s * 1e6));
  workload.rate_per_stream = rate;
  workload.paced = true;
  workload.seed = seed;

  const double batch_interval_ms = batch / (2.0 * rate) * 1e3;
  std::printf("\n-- Fig 19(%s): |W_R| = %.0f s, |W_S| = %.0f s, batch %d "
              "(fills every ~%.1f ms) --\n",
              label, wr_s, ws_s, batch, batch_interval_ms);

  RunStats stats = RunLlhjBench(nodes, workload, batch, duration_s);
  PrintLatencySeries(stats);
  std::printf("overall: avg %.3f ms, max %.3f ms, stddev %.3f ms, "
              "%llu results\n",
              stats.latency_ms.mean(), stats.latency_ms.max(),
              stats.latency_ms.stddev(),
              static_cast<unsigned long long>(stats.results));
  std::printf("tail:    p50 %.3f ms, p95 %.3f ms, p99 %.3f ms, "
              "p99.9 %.3f ms\n",
              stats.latency_hist.QuantileMs(0.50),
              stats.latency_hist.QuantileMs(0.95),
              stats.latency_hist.QuantileMs(0.99),
              stats.latency_hist.QuantileMs(0.999));
  JsonRow row;
  row.Str("config", label)
      .Num("wr_s", wr_s)
      .Num("ws_s", ws_s)
      .Num("rate_per_stream", rate)
      .Int("nodes", nodes)
      .Int("batch", batch);
  json->Emit(StatsFields(row, stats));
}

/// Drives the fig19 workload (band join, time windows) through the
/// JoinSession Push API at max rate; `batched` selects span vs per-tuple
/// ingestion. Event time advances at the paced rate, so the live window
/// matches the paced experiment; wall time measures ingestion throughput.
void RunPushApi(bool batched, double window_s, double rate, int nodes,
                int batch, int64_t tuples, uint64_t seed, JsonEmitter* json) {
  JoinConfig config;
  config.algorithm = Algorithm::kLowLatency;
  config.parallelism = nodes;
  config.window_r = WindowSpec::Time(static_cast<int64_t>(window_s * 1e6));
  config.window_s = WindowSpec::Time(static_cast<int64_t>(window_s * 1e6));
  config.threaded = true;

  BenchRecorder latency(nullptr);
  JoinSession<RTuple, STuple, BandPredicate> session(config);
  session.AddQuery(BandPredicate{}, &latency);

  // Pre-generate the streams so generation cost stays out of the loop.
  Rng rng(seed);
  std::vector<RTuple> rs;
  std::vector<STuple> ss;
  std::vector<Timestamp> ts_r;
  std::vector<Timestamp> ts_s;
  const int64_t period = static_cast<int64_t>(1e6 / (2.0 * rate) + 0.5);
  Timestamp ts = 0;
  for (int64_t i = 0; i < tuples; ++i) {
    rs.push_back(MakeBandR(rng));
    ts_r.push_back(ts);
    ts += period;
    ss.push_back(MakeBandS(rng));
    ts_s.push_back(ts);
    ts += period;
  }

  // Both modes feed the identical stream — alternating chunks of R and S —
  // so their result sets are comparable; only the ingestion API differs.
  const std::size_t chunk = static_cast<std::size_t>(batch);
  const int64_t start = NowNs();
  latency.Start(start, /*paced=*/false);
  for (std::size_t i = 0; i < rs.size(); i += chunk) {
    const std::size_t n = std::min(chunk, rs.size() - i);
    if (batched) {
      session.PushR(std::span<const RTuple>(rs.data() + i, n),
                    std::span<const Timestamp>(ts_r.data() + i, n));
      session.PushS(std::span<const STuple>(ss.data() + i, n),
                    std::span<const Timestamp>(ts_s.data() + i, n));
    } else {
      for (std::size_t k = 0; k < n; ++k) session.PushR(rs[i + k], ts_r[i + k]);
      for (std::size_t k = 0; k < n; ++k) session.PushS(ss[i + k], ts_s[i + k]);
    }
    session.Poll();
  }
  session.FinishInput();
  const int64_t end = NowNs();
  session.Stop();

  const double wall_s = NsToSec(end - start);
  const double tput = static_cast<double>(tuples) / wall_s;
  std::printf("push_%s: %lld tuples/stream in %.3f s -> %.0f tuples/s/stream"
              " (%llu results, drain latency avg %.3f ms)\n",
              batched ? "batch" : "tuple", static_cast<long long>(tuples),
              wall_s, tput,
              static_cast<unsigned long long>(session.results_collected()),
              latency.overall().mean());
  JsonRow row;
  row.Str("config", batched ? "push_batch" : "push_tuple")
      .Num("window_s", window_s)
      .Int("nodes", nodes)
      .Int("batch", batch)
      .Int("tuples_per_stream", tuples)
      .Num("wall_s", wall_s)
      .Num("tput_per_stream", tput)
      .Num("latency_avg_ms", latency.overall().mean())
      .Num("latency_max_ms", latency.overall().max())
      .Num("latency_p50_ms", latency.histogram().QuantileMs(0.50))
      .Num("latency_p95_ms", latency.histogram().QuantileMs(0.95))
      .Num("latency_p99_ms", latency.histogram().QuantileMs(0.99))
      .Num("latency_p999_ms", latency.histogram().QuantileMs(0.999))
      .Int("results", static_cast<int64_t>(session.results_collected()))
      .Int("anomalies", static_cast<int64_t>(session.pipeline_anomalies()));
  json->Emit(row);
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const double window_s = flags.Double("window", 8.0);
  const double rate = flags.Double("rate", 3000.0);
  const int nodes = static_cast<int>(flags.Int("nodes", 4));
  const int batch = static_cast<int>(flags.Int("batch", 64));
  const double duration = flags.Double("duration", 20.0);
  const uint64_t seed = static_cast<uint64_t>(flags.Int("seed", 42));

  PrintHeader("fig19_llhj_latency — LLHJ latency over time, batch 64",
              "Figure 19 (a), (b)");
  std::printf("scaling: paper windows 200 s/100 s -> %.0f s/%.0f s "
              "(latency should be window-insensitive either way)\n",
              window_s, window_s / 2);

  JsonEmitter json(flags, "fig19_llhj_latency");
  RunConfig("a", window_s, window_s, rate, nodes, batch, duration, seed,
            &json);
  RunConfig("b", window_s / 2, window_s, rate, nodes, batch, duration, seed,
            &json);

  // Session Push API on the same workload: batch-first spans vs the
  // per-tuple loop, max rate (batch ingestion must be no slower).
  // --push_batch is the span/chunk size, independent of the feeder batch.
  const int64_t push_tuples = flags.Int("push_tuples", 20'000);
  const int push_batch = static_cast<int>(flags.Int("push_batch", 64));
  std::printf("\n-- Push API (max rate, window %.0f s, chunk %d) --\n",
              window_s, push_batch);
  RunPushApi(/*batched=*/false, window_s, rate, nodes, push_batch,
             push_tuples, seed, &json);
  RunPushApi(/*batched=*/true, window_s, rate, nodes, push_batch,
             push_tuples, seed, &json);
  return 0;
}
