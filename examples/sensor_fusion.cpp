// Sensor fusion: equi-join of two sensor streams (temperature and smoke
// level) on zone id over count-based windows. The predicate declares its
// join keys (ShardKeyTraits), so the session runs the hash-index
// accelerated LLHJ pipeline (paper Section 7.6 / Table 2 — the "looking
// forward: index acceleration" configuration).
//
// Readings arrive in groups of 64 per sensor, pushed as spans: the paper's
// driver batch (Section 7.3).
//
//   $ ./sensor_fusion [readings-per-stream]
#include <cstdio>
#include <cstdlib>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "core/join_session.hpp"

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

}  // namespace

/// FireRisk only matches readings of equal zones: the zone is its join key.
namespace sjoin {
template <>
struct ShardKeyTraits<FireRisk, TempReading, SmokeReading> {
  static constexpr bool kEnabled = true;
  static uint64_t KeyR(const TempReading& t) {
    return static_cast<uint64_t>(t.zone);
  }
  static uint64_t KeyS(const SmokeReading& s) {
    return static_cast<uint64_t>(s.zone);
  }
};
}  // namespace sjoin

int main(int argc, char** argv) {
  const std::size_t readings =
      argc > 1 ? static_cast<std::size_t>(std::atoll(argv[1])) : 20'000;
  constexpr std::size_t kGroup = 64;

  // Count windows: correlate each reading against the last 4096 readings of
  // the other stream. The session lays its 4 nodes over the host's
  // hardware model: neighbouring nodes on neighbouring cores, channel rings
  // homed on their consumer's NUMA node.
  JoinConfig config;
  config.algorithm = Algorithm::kLowLatency;
  config.parallelism = 4;
  config.window_r = WindowSpec::Count(4096);
  config.window_s = WindowSpec::Count(4096);
  JoinSession<TempReading, SmokeReading, FireRisk> session(config);
  CollectingHandler<TempReading, SmokeReading> alarms;
  session.AddQuery(FireRisk{}, &alarms);

  // Readings across 256 zones, with a handful of injected incidents.
  Rng rng(99);
  std::vector<TempReading> temps;
  std::vector<SmokeReading> smokes;
  std::vector<Timestamp> temp_ts;
  std::vector<Timestamp> smoke_ts;
  Timestamp ts = 0;
  for (std::size_t done = 0; done < readings; done += kGroup) {
    temps.clear();
    smokes.clear();
    temp_ts.clear();
    smoke_ts.clear();
    for (std::size_t i = done; i < readings && i < done + kGroup; ++i) {
      const int32_t zone = static_cast<int32_t>(rng.UniformInt(0, 255));
      const bool incident = rng.Chance(0.001);
      temps.push_back(
          {zone, incident ? 75.0 : 20.0 + rng.UniformDouble() * 10});
      smokes.push_back({zone, incident ? 120.0 : rng.UniformDouble() * 40});
    }
    for (std::size_t i = 0; i < temps.size(); ++i) temp_ts.push_back(ts++);
    for (std::size_t i = 0; i < smokes.size(); ++i) smoke_ts.push_back(ts++);
    session.PushR(std::span<const TempReading>(temps), temp_ts);
    session.PushS(std::span<const SmokeReading>(smokes), smoke_ts);
    session.Poll();
  }
  // Every result still in flight reaches the handler before this returns.
  session.FinishInput();
  session.Stop();

  std::printf("correlated %zu readings/stream -> %zu fire-risk alarms\n",
              readings, alarms.results().size());
  std::size_t shown = 0;
  for (const auto& m : alarms.results()) {
    if (shown++ >= 5) break;
    std::printf("  zone %4d: %.1f C with smoke %.0f ppm (ts %lld)\n",
                m.r.zone, m.r.celsius, m.s.ppm,
                static_cast<long long>(m.ts));
  }
  return session.pipeline_anomalies() == 0 ? 0 : 1;
}
