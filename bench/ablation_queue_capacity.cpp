// Ablation — FIFO channel capacity (DESIGN.md Section 5). Channel capacity
// trades memory for burst absorption; throughput should be largely flat
// once channels cover a driver batch, degrading only when capacity
// approaches the arrival-slack floor.
#include <cstdio>

#include "bench_common.hpp"

using namespace sjoin;
using namespace sjoin::bench;

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const int nodes = static_cast<int>(flags.Int("nodes", 4));
  const int64_t window = flags.Int("window_tuples", 20'000);
  const double duration = flags.Double("duration", 3.0);
  const int batch = static_cast<int>(flags.Int("batch", 64));

  PrintHeader("ablation_queue_capacity — LLHJ channel capacity sweep",
              "runtime design choice (Section 4.2.1 channels)");
  std::printf("%d nodes, count window %lld tuples, batch %d\n\n", nodes,
              static_cast<long long>(window), batch);
  std::printf("%10s  %16s  %14s\n", "capacity", "tput (t/s)", "results");

  JsonEmitter json(flags, "ablation_queue_capacity");
  for (std::size_t capacity : {16u, 64u, 256u, 1024u, 4096u}) {
    Workload workload;
    workload.wr = WindowSpec::Count(window);
    workload.ws = WindowSpec::Count(window);
    workload.paced = false;

    JoinConfig config = BenchConfig(Algorithm::kLowLatency, nodes, workload);
    config.channel_capacity = capacity;
    RunStats stats = RunPipelineBench(config, BandPredicate{}, workload,
                                      batch, duration);

    std::printf("%10zu  %16.0f  %14llu\n", capacity,
                stats.throughput_per_stream(),
                static_cast<unsigned long long>(stats.results));
    json.Emit(JsonRow()
                  .Int("channel_capacity", static_cast<int64_t>(capacity))
                  .Int("nodes", nodes)
                  .Int("window_tuples", window)
                  .Int("batch", batch)
                  .Num("tput_per_stream", stats.throughput_per_stream())
                  .Int("results", static_cast<int64_t>(stats.results)));
  }
  std::printf("\nexpected: flat beyond ~batch size; small capacities cost "
              "throughput through backpressure stalls.\n");
  return 0;
}
