// Figure 17 — maximum sustained throughput per stream vs. number of
// processing cores, for the original handshake join, LLHJ, and LLHJ with
// punctuation generation.
//
// The paper sweeps 4..40 real cores on a Magny Cours; this host has few
// cores, so the sweep covers pipeline lengths (nodes) with oversubscribed
// threads — the expected *shape* still holds: LLHJ throughput is on par
// with (or slightly above) HSJ, and punctuations cost only a marginal
// amount. Feeding is max-rate against backpressure (no drops), as in the
// paper's "maximum throughput the system could sustain".
#include <cstdio>

#include "runtime/affinity.hpp"

#include "bench_common.hpp"

using namespace sjoin;
using namespace sjoin::bench;

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const int64_t window = flags.Int("window_tuples", 20'000);
  const double duration = flags.Double("duration", 4.0);
  const int batch = static_cast<int>(flags.Int("batch", 64));
  std::vector<int> node_counts;
  {
    const std::string list = flags.Str("nodes", "1,2,4,8");
    std::size_t pos = 0;
    while (pos < list.size()) {
      node_counts.push_back(std::atoi(list.c_str() + pos));
      const auto comma = list.find(',', pos);
      if (comma == std::string::npos) break;
      pos = comma + 1;
    }
  }

  JsonEmitter json(flags, "fig17_throughput");
  PrintHeader("fig17_throughput — throughput/stream vs processing cores",
              "Figure 17");
  std::printf("scaling: paper window 15 min @ ~3-4k tuples/s (~3M tuples) -> "
              "count window of %lld tuples; host has %d cpus (nodes beyond "
              "that oversubscribe)\n",
              static_cast<long long>(window), AvailableCpuCount());
  std::printf("\n%6s  %18s  %18s  %18s\n", "nodes", "handshake (t/s)",
              "llhj (t/s)", "llhj+punct (t/s)");

  for (int nodes : node_counts) {
    Workload workload;
    workload.wr = WindowSpec::Count(window);
    workload.ws = WindowSpec::Count(window);
    workload.paced = false;

    RunStats hsj = RunHsjBench(nodes, workload, window, batch, duration);
    RunStats llhj = RunLlhjBench(nodes, workload, batch, duration);
    RunStats punct =
        RunLlhjBench(nodes, workload, batch, duration, /*punctuate=*/true);

    std::printf("%6d  %18.0f  %18.0f  %18.0f\n", nodes,
                hsj.throughput_per_stream(), llhj.throughput_per_stream(),
                punct.throughput_per_stream());
    json.Emit(JsonRow()
                  .Int("nodes", nodes)
                  .Int("window_tuples", window)
                  .Int("batch", batch)
                  .Num("duration_s", duration)
                  .Num("hsj_tput", hsj.throughput_per_stream())
                  .Num("llhj_tput", llhj.throughput_per_stream())
                  .Num("llhj_punct_tput", punct.throughput_per_stream())
                  .Num("llhj_latency_avg_ms", llhj.latency_ms.mean())
                  .Num("llhj_latency_max_ms", llhj.latency_ms.max())
                  .Int("anomalies", static_cast<int64_t>(
                                        hsj.anomalies + llhj.anomalies +
                                        punct.anomalies)));
    if (hsj.anomalies + llhj.anomalies + punct.anomalies > 0) {
      std::printf("  WARNING: anomalies hsj=%llu llhj=%llu punct=%llu\n",
                  static_cast<unsigned long long>(hsj.anomalies),
                  static_cast<unsigned long long>(llhj.anomalies),
                  static_cast<unsigned long long>(punct.anomalies));
    }
  }
  std::printf("\nexpected shape: llhj ~= handshake (home-node assignment "
              "balances load slightly better); punctuations marginally "
              "below plain llhj.\n");
  return 0;
}
