// The benchmark's three workloads and their seeded inputs. Inputs are made
// before any timing: a tuple pool per stream, the event-time rule, and the
// reference join's cumulative totals after every push group, so a closed
// loop that stops at its deadline can still be checked exactly.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/schema.hpp"
#include "common/types.hpp"
#include "reference.hpp"

namespace perfbench {

using sjoin::RTuple;
using sjoin::Seq;
using sjoin::STuple;
using sjoin::Timestamp;

struct WorkloadSpec {
  const char* name;
  const char* why;
  bool paced;            ///< open loop at `rate`; else closed loop
  bool sharded;          ///< ShardedJoinSession (equi) vs JoinSession (band)
  int32_t band;          ///< x/y band of the band predicate; 0 = equi
  int32_t key_domain;    ///< join attributes uniform in [1, key_domain]
  bool time_window;      ///< time window (us) vs count window (tuples)
  int64_t window;
  int64_t group;         ///< tuples per PushR/PushS call
  double rate;           ///< paced: offered tuples/s per stream
  double max_rate;       ///< closed: input cap, tuples/s per stream
  int64_t warm_tuples;   ///< untimed prefill per stream (fills the windows)
  uint64_t sample_mask;  ///< latency sample: (PairHash & mask) == 0
};

inline const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> kAll = {
      {"band_paced",
       "Fig. 19: at ~3% load the engine threads idle, so latency is set by "
       "hop wake-ups, driver and collector cost; the probe does little",
       /*paced=*/true, /*sharded=*/false, /*band=*/10, /*key_domain=*/3000,
       /*time_window=*/true, /*window=*/8'000'000, /*group=*/1,
       /*rate=*/3000.0, /*max_rate=*/0.0, /*warm_tuples=*/24'000,
       /*sample_mask=*/0},
      {"band_saturate",
       "Fig. 17: every arrival scans the full opposite window, so llhj store "
       "scans and SIMD kernels do most of the work and threads never idle",
       false, false, 10, 10'000, false, 20'000, 64, 0.0, 200'000.0, 20'000,
       0},
      {"equi_sharded",
       "short scans, one insert and one expiry per arrival and ~4M results/s "
       "through the partitioning driver, both shards and the merging "
       "collector",
       false, true, 0, 1'024, false, 4'096, 64, 0.0, 2'000'000.0, 4'096,
       63},
  };
  return kAll;
}

inline const WorkloadSpec& FindWorkload(const std::string& name) {
  for (const WorkloadSpec& w : Workloads()) {
    if (name == w.name) return w;
  }
  throw std::invalid_argument("unknown workload \"" + name + "\"");
}

/// Seeded inputs of one workload. Push group g is the g-th PushR call
/// followed by the g-th PushS call, each carrying `group` tuples: R seqs
/// [g * group, (g + 1) * group), likewise S.
struct Inputs {
  const WorkloadSpec* spec = nullptr;
  std::vector<RTuple> r;  ///< pool; R seq n carries r[n % r.size()]
  std::vector<STuple> s;
  int64_t warm_groups = 0;
  int64_t max_groups = 0;
  /// expected[g]: reference totals once groups [0, g) are pushed.
  std::vector<Totals> expected;

  const RTuple* R(int64_t g) const { return &r[PoolIndex(g)]; }
  const STuple* S(int64_t g) const { return &s[PoolIndex(g)]; }

  /// Event time of tuple `n` of one side. Paced: arrivals alternate R, S
  /// at the offered rate. Closed: timestamps count pushes in push order,
  /// so the session never clamps one.
  Timestamp Ts(bool s_side, Seq n) const {
    const auto k = static_cast<int64_t>(n);
    if (spec->paced) {
      const int64_t arrival = 2 * k + (s_side ? 1 : 0);
      return static_cast<Timestamp>(static_cast<double>(arrival) * 1e6 /
                                    (2.0 * spec->rate));
    }
    const int64_t g = k / spec->group;
    return g * 2 * spec->group + (s_side ? spec->group : 0) + k % spec->group;
  }

 private:
  std::size_t PoolIndex(int64_t g) const {
    return static_cast<std::size_t>((g * spec->group) %
                                    static_cast<int64_t>(r.size()));
  }
};

inline RTuple MakeR(sjoin::Rng& rng, int32_t domain) {
  RTuple t;
  t.x = static_cast<int32_t>(rng.UniformInt(1, domain));
  t.y = static_cast<float>(rng.UniformInt(1, domain));
  t.z.Assign("payload-r");
  return t;
}

inline STuple MakeS(sjoin::Rng& rng, int32_t domain) {
  STuple t;
  t.a = static_cast<int32_t>(rng.UniformInt(1, domain));
  t.b = static_cast<float>(rng.UniformInt(1, domain));
  t.c = rng.UniformDouble();
  t.d = rng.Chance(0.5);
  return t;
}

/// Closed loops cycle through a pool this large (a multiple of every
/// group size); the windows are far smaller, so reuse changes nothing.
inline constexpr int64_t kPoolTuples = 1 << 17;

inline Inputs MakeInputs(const WorkloadSpec& spec, uint64_t seed,
                         int64_t max_groups) {
  Inputs in;
  in.spec = &spec;
  in.warm_groups = (spec.warm_tuples + spec.group - 1) / spec.group;
  in.max_groups = max_groups;
  const int64_t pool =
      spec.paced ? max_groups * spec.group
                 : std::min<int64_t>(max_groups * spec.group, kPoolTuples);
  sjoin::Rng rng(seed);
  in.r.reserve(static_cast<std::size_t>(pool));
  in.s.reserve(static_cast<std::size_t>(pool));
  for (int64_t i = 0; i < pool; ++i) {
    in.r.push_back(MakeR(rng, spec.key_domain));
    in.s.push_back(MakeS(rng, spec.key_domain));
  }

  const std::size_t capacity =
      spec.time_window ? static_cast<std::size_t>(max_groups * spec.group)
                       : static_cast<std::size_t>(spec.window) + 1;
  ReferenceJoin ref(spec.time_window, spec.window, spec.key_domain, spec.band,
                    capacity);
  in.expected.resize(static_cast<std::size_t>(max_groups) + 1);
  for (int64_t g = 0; g < max_groups; ++g) {
    const bool timed = g >= in.warm_groups;
    const RTuple* rs = in.R(g);
    const STuple* ss = in.S(g);
    for (int64_t i = 0; i < spec.group; ++i) {
      const Seq n = static_cast<Seq>(g * spec.group + i);
      ref.ArriveR(rs[i], n, in.Ts(false, n), timed, spec.sample_mask);
    }
    for (int64_t i = 0; i < spec.group; ++i) {
      const Seq n = static_cast<Seq>(g * spec.group + i);
      ref.ArriveS(ss[i], n, in.Ts(true, n), timed, spec.sample_mask);
    }
    in.expected[static_cast<std::size_t>(g) + 1] = ref.totals();
  }
  return in;
}

}  // namespace perfbench
