// Adversarial schedule fuzzing. Correctness of the handshake-join protocols
// must hold for *any* interleaving of node executions — the paper's
// arguments rest on per-channel FIFO order only. The fuzzer executes a
// pipeline under seeded random schedules: every round the components
// (script replay, nodes, collector) run in a random permutation, and components
// are randomly "starved" for up to a bounded number of consecutive rounds.
// This reproduces the races the protocols guard against (in-flight
// crossings, expiry chases, expedition-end ordering) deterministically.
//
// Starvation stays bounded and the replay injects at most one driver event
// per round, so a window of w events is always much larger than the
// pipeline transit time — the regime the algorithms (and the paper) assume.
#pragma once

#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "common/rng.hpp"
#include "runtime/executor.hpp"
#include "stream/admission.hpp"
#include "stream/collector.hpp"
#include "stream/handlers.hpp"
#include "stream/hwm.hpp"
#include "stream/script.hpp"

#include "test_util.hpp"

namespace sjoin::test {

struct FuzzResult {
  std::vector<ResultMsg<TR, TS>> results;
  std::vector<Timestamp> punctuations;
  std::vector<LossBound> losses;  // delivered OnLoss bounds, in order
  bool quiesced = false;
  uint64_t rounds = 0;
};

struct FuzzOptions {
  uint64_t seed = 1;
  double skip_probability = 0.35;
  int max_consecutive_skips = 3;
  /// Overload control: wired into the replay when set; delivered loss
  /// bounds are captured into FuzzResult::losses.
  AdmissionController* admission = nullptr;
  /// LLHJ completion gate for expiries (ScriptReplay::Options).
  const HighWaterMarks* expiry_gate = nullptr;
  /// Invoked after every round — invariant probes (HWM monotonicity, ...).
  std::function<void()> per_round;
};

/// Runs `pipeline` over `script` under a seeded adversarial schedule.
template <typename Pipeline>
FuzzResult RunFuzzedSchedule(Pipeline& pipeline,
                             const DriverScript<TR, TS>& script,
                             const FuzzOptions& fuzz) {
  Replay::Options replay_options;
  replay_options.events_per_step = 1;
  replay_options.admission = fuzz.admission;
  replay_options.expiry_gate = fuzz.expiry_gate;
  Replay replay(pipeline.ports(), script, replay_options);

  CollectingHandler<TR, TS> handler;
  auto collector = pipeline.MakeCollector(&handler);

  std::vector<Steppable*> components;
  components.push_back(&replay);
  for (Steppable* node : pipeline.nodes()) components.push_back(node);
  components.push_back(collector.get());

  std::vector<int> skips(components.size(), 0);
  std::vector<std::size_t> order(components.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;

  Rng rng(fuzz.seed);
  FuzzResult out;
  constexpr uint64_t kMaxRounds = 1 << 22;
  for (uint64_t round = 0; round < kMaxRounds; ++round) {
    // Fisher-Yates shuffle of the execution order.
    for (std::size_t i = order.size(); i > 1; --i) {
      const std::size_t j =
          static_cast<std::size_t>(rng.UniformInt(0, static_cast<int64_t>(i) - 1));
      std::swap(order[i - 1], order[j]);
    }

    bool progress = false;
    for (std::size_t idx : order) {
      if (skips[idx] < fuzz.max_consecutive_skips &&
          rng.Chance(fuzz.skip_probability)) {
        ++skips[idx];
        continue;
      }
      skips[idx] = 0;
      progress |= components[idx]->Step();
    }
    if (fuzz.per_round) fuzz.per_round();

    if (!progress) {
      // Confirm quiescence with a clean, skip-free pass.
      bool confirm = false;
      for (Steppable* c : components) confirm |= c->Step();
      if (!confirm) {
        out.quiesced = true;
        out.rounds = round;
        break;
      }
    }
  }

  EXPECT_TRUE(out.quiesced) << "schedule did not quiesce";
  EXPECT_TRUE(replay.finished());
  out.results = handler.results();
  out.punctuations = handler.punctuations();
  out.losses = handler.losses();
  return out;
}

/// Back-compat wrapper: the original positional signature.
template <typename Pipeline>
FuzzResult RunFuzzedSchedule(Pipeline& pipeline,
                             const DriverScript<TR, TS>& script,
                             uint64_t seed, double skip_probability = 0.35,
                             int max_consecutive_skips = 3) {
  FuzzOptions fuzz;
  fuzz.seed = seed;
  fuzz.skip_probability = skip_probability;
  fuzz.max_consecutive_skips = max_consecutive_skips;
  return RunFuzzedSchedule(pipeline, script, fuzz);
}

}  // namespace sjoin::test
