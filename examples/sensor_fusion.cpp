// Sensor fusion: equi-join of two sensor streams (temperature and smoke
// level) on zone id over count-based windows, using the hash-index
// accelerated LLHJ pipeline directly (paper Section 7.6 / Table 2 — the
// "looking forward: index acceleration" configuration).
//
// This example uses the pipeline layer rather than the JoinSession API
// to show how the pieces compose: pipeline + feeder + collector + executor.
//
//   $ ./sensor_fusion [readings-per-stream]
#include <cstdio>
#include <cstdlib>

#include "llhj/llhj_pipeline.hpp"
#include "runtime/executor.hpp"
#include "stream/feeder.hpp"
#include "stream/handlers.hpp"
#include "stream/script.hpp"
#include "stream/source.hpp"

using namespace sjoin;

namespace {

struct TempReading {
  int32_t zone = 0;
  double celsius = 0.0;
};

struct SmokeReading {
  int32_t zone = 0;
  double ppm = 0.0;
};

/// Same zone, both readings elevated -> possible fire.
struct FireRisk {
  bool operator()(const TempReading& t, const SmokeReading& s) const {
    return t.zone == s.zone && t.celsius > 50.0 && s.ppm > 80.0;
  }
};

struct TempZone {
  int64_t operator()(const TempReading& t) const { return t.zone; }
};
struct SmokeZone {
  int64_t operator()(const SmokeReading& s) const { return s.zone; }
};

}  // namespace

int main(int argc, char** argv) {
  const std::size_t readings =
      argc > 1 ? static_cast<std::size_t>(std::atoll(argv[1])) : 20'000;

  // Build the trace: interleaved temperature/smoke readings across zones,
  // with a handful of injected incidents.
  Rng rng(99);
  Trace<TempReading, SmokeReading> trace;
  trace.reserve(readings * 2);
  Timestamp ts = 0;
  for (std::size_t i = 0; i < readings; ++i) {
    const int32_t zone = static_cast<int32_t>(rng.UniformInt(0, 255));
    const bool incident = rng.Chance(0.001);
    TempReading t{zone, incident ? 75.0 : 20.0 + rng.UniformDouble() * 10};
    SmokeReading s{zone, incident ? 120.0 : rng.UniformDouble() * 40};
    trace.push_back(ArriveR<TempReading, SmokeReading>(ts++, t));
    trace.push_back(ArriveS<TempReading, SmokeReading>(ts++, s));
  }
  // Count windows: correlate each reading against the last 4096 readings of
  // the other stream.
  auto script = BuildDriverScript(trace, WindowSpec::Count(4096),
                                  WindowSpec::Count(4096));

  // Hash-indexed LLHJ pipeline keyed on the zone id, laid over the host's
  // hardware model: neighbouring nodes on neighbouring cores, channel rings
  // homed on their consumer's NUMA node.
  using Pipeline = IndexedLlhjPipeline<TempReading, SmokeReading, FireRisk,
                                       TempZone, SmokeZone>;
  Pipeline::Options options;
  options.nodes = 4;
  options.placement = PlacementPlan::Build(
      Topology::Detect(), PlacementPolicy::kAuto, options.nodes);
  Pipeline pipeline(options);

  ScriptSource<TempReading, SmokeReading> source(&script);
  Feeder<TempReading, SmokeReading>::Options feeder_options;
  feeder_options.batch_size = 64;
  Feeder<TempReading, SmokeReading> feeder(pipeline.ports(), &source,
                                           feeder_options);

  CollectingHandler<TempReading, SmokeReading> alarms;
  auto collector = pipeline.MakeCollector(&alarms);

  // The same plan places the node threads; feeder and collector are
  // helpers (leftover cores near the pipeline ends, unpinned when the
  // host has none to spare).
  ThreadedExecutor executor(pipeline.placement());
  for (auto* node : pipeline.nodes()) executor.Add(node);
  executor.AddHelper(&feeder);
  executor.AddHelper(collector.get());
  executor.Start();
  while (!feeder.finished()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // Allow the tail of the pipeline to drain, then stop.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  executor.Stop();
  collector->VacuumOnce();

  std::printf("correlated %zu readings/stream -> %zu fire-risk alarms\n",
              readings, alarms.results().size());
  std::size_t shown = 0;
  for (const auto& m : alarms.results()) {
    if (shown++ >= 5) break;
    std::printf("  zone %4d: %.1f C with smoke %.0f ppm (ts %lld)\n",
                m.r.zone, m.r.celsius, m.s.ppm,
                static_cast<long long>(m.ts));
  }
  std::printf("node-local index sizes: ");
  for (int k = 0; k < options.nodes; ++k) {
    std::printf("%zu ", pipeline.node(k).r_store().size() +
                            pipeline.node(k).s_store().size());
  }
  std::printf("\n");
  return 0;
}
