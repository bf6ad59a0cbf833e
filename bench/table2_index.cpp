// Table 2 — throughput with node-local index acceleration (paper Section
// 7.6). The join predicate is changed to the equi-join variant so
// hash-based processing applies; three configurations are compared:
//
//       handshake join            (scan)      paper:   5,125 tuples/s
//       low-latency handshake     (scan)      paper:   5,117 tuples/s
//       low-latency + hash index              paper: 225,234 tuples/s
//
// Expected shape: the two scan variants are nearly identical; the indexed
// variant is more than an order of magnitude faster (the paper's 44x is on
// 40 real cores; the multiple here depends on window size and host).
#include <cstdio>

#include "bench_common.hpp"

using namespace sjoin;
using namespace sjoin::bench;

// The scan rows: the paper's predicates under types that declare no key
// traits (ShardKeyTraits, RangeKeyTraits), so the session keeps its windows
// in scan stores. They keep the originals' SIMD probe mappings.
struct ScanEqui : EquiPredicate {};
struct ScanBand : BandPredicate {};

namespace sjoin {
template <>
struct SimdProbeTraits<ScanEqui, RTuple, STuple>
    : SimdProbeTraits<EquiPredicate, RTuple, STuple> {};
template <>
struct SimdProbeTraits<ScanEqui, STuple, RTuple>
    : SimdProbeTraits<EquiPredicate, STuple, RTuple> {};
template <>
struct SimdProbeTraits<ScanBand, RTuple, STuple>
    : SimdProbeTraits<BandPredicate, RTuple, STuple> {};
template <>
struct SimdProbeTraits<ScanBand, STuple, RTuple>
    : SimdProbeTraits<BandPredicate, STuple, RTuple> {};
}  // namespace sjoin

namespace {

template <typename Pred>
double Tput(Algorithm algorithm, Pred pred, int nodes,
            const Workload& workload, int batch, double duration) {
  return RunPipelineBench(BenchConfig(algorithm, nodes, workload), pred,
                          workload, batch, duration)
      .throughput_per_stream();
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const int nodes = static_cast<int>(flags.Int("nodes", 4));
  // Scan cost is O(window), probe cost O(1): a larger window moves the
  // speedup toward the paper's 44x (their 15-min window held ~3M tuples).
  const int64_t window = flags.Int("window_tuples", 50'000);
  const double duration = flags.Double("duration", 5.0);
  const int batch = static_cast<int>(flags.Int("batch", 64));
  // Key domain sized so the equi-join hit rate matches the paper's band
  // join (~1:250,000): P(x == a) = 1/domain.
  const int64_t domain = flags.Int("key_domain", 250'000);

  PrintHeader("table2_index — equi-join throughput with node-local indexes",
              "Table 2 (40-core configuration in the paper)");
  std::printf("nodes %d, count window %lld tuples, key domain %lld "
              "(hit rate 1:%lld)\n\n",
              nodes, static_cast<long long>(window),
              static_cast<long long>(domain),
              static_cast<long long>(domain));

  Workload workload;
  workload.wr = WindowSpec::Count(window);
  workload.ws = WindowSpec::Count(window);
  workload.key_domain = domain;
  workload.paced = false;

  JsonEmitter json(flags, "table2_index");
  std::printf("%-42s %18s\n", "algorithm", "throughput (t/s)");

  const double hsj_tput = Tput(Algorithm::kHandshake, ScanEqui{}, nodes,
                                workload, batch, duration);
  std::printf("%-42s %18.0f\n", "handshake join (scan)", hsj_tput);
  const double llhj_tput = Tput(Algorithm::kLowLatency, ScanEqui{}, nodes,
                                workload, batch, duration);
  std::printf("%-42s %18.0f\n", "low-latency handshake join (scan)",
              llhj_tput);
  const double idx_tput = Tput(Algorithm::kLowLatency, EquiPredicate{},
                               nodes, workload, batch, duration);
  std::printf("%-42s %18.0f\n", "low-latency handshake join with index",
              idx_tput);

  std::printf("\nspeedup index vs scan-llhj: %.1fx (paper: %.1fx on 40 "
              "cores; the multiple grows with the window since scan cost "
              "is O(window))\n",
              llhj_tput > 0 ? idx_tput / llhj_tput : 0.0, 225234.0 / 5117.0);
  json.Emit(JsonRow()
                .Str("workload", "equi")
                .Int("nodes", nodes)
                .Int("window_tuples", window)
                .Int("key_domain", domain)
                .Num("hsj_scan_tput", hsj_tput)
                .Num("llhj_scan_tput", llhj_tput)
                .Num("llhj_index_tput", idx_tput)
                .Num("index_speedup",
                     llhj_tput > 0 ? idx_tput / llhj_tput : 0.0));

  // Beyond the paper (its stated future work, Sections 7.6/9): a
  // key-bucketed node-local index (llhj/band_store.hpp) accelerating the
  // original BAND join by probing only the x buckets within the band, with
  // the predicate filtering the y dimension.
  std::printf("\n-- future-work extension: range index on the band join --\n");
  Workload band = workload;
  band.key_domain = kPaperKeyDomain;  // the paper's band workload

  const double band_scan = Tput(Algorithm::kLowLatency, ScanBand{}, nodes,
                                 band, batch, duration);
  std::printf("%-42s %18.0f\n", "llhj band join (scan)", band_scan);
  const double band_idx = Tput(Algorithm::kLowLatency, BandPredicate{},
                               nodes, band, batch, duration);
  std::printf("%-42s %18.0f\n", "llhj band join (range index)", band_idx);
  std::printf("speedup range-index vs scan on band join: %.1fx\n",
              band_scan > 0 ? band_idx / band_scan : 0.0);
  json.Emit(JsonRow()
                .Str("workload", "band")
                .Int("nodes", nodes)
                .Int("window_tuples", window)
                .Num("llhj_scan_tput", band_scan)
                .Num("llhj_range_index_tput", band_idx)
                .Num("index_speedup",
                     band_scan > 0 ? band_idx / band_scan : 0.0));
  return 0;
}
