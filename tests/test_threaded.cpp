// Integration tests with real threads: full pipelines (pinned node threads,
// with the script replay and the collector on the test thread) must produce
// exactly the oracle result set, under regular and tiny channel and
// result-ring capacities, with punctuation invariants holding live; an
// idle threaded session woken push by push stays exact, and its engine
// wake/park counters count.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <thread>

#include "core/join_session.hpp"
#include "runtime/placement.hpp"
#include "hsj/hsj_pipeline.hpp"
#include "llhj/llhj_pipeline.hpp"
#include "runtime/executor.hpp"

#include "kang_join.hpp"
#include "result_overflow.hpp"
#include "test_util.hpp"

namespace sjoin {
namespace {

using test::KeyEq;
using test::LivePunctuationChecker;
using test::MakeRandomTrace;
using test::SameResultSet;
using test::TR;
using test::TraceConfig;
using test::TS;

/// Runs a pipeline's nodes threaded while the test thread replays the
/// script and collects, as a session's driver thread does; returns once the
/// replay finished and the system quiesced. Results go to `handler`.
template <typename Pipeline>
void RunThreaded(Pipeline& pipeline, const DriverScript<TR, TS>& script,
                 std::size_t batch, OutputHandler<TR, TS>* handler,
                 const HighWaterMarks* expiry_gate = nullptr) {
  test::Replay::Options options;
  options.batch = batch;
  options.expiry_gate = expiry_gate;
  test::Replay replay(pipeline.ports(), script, options);
  auto collector = pipeline.MakeCollector(handler);

  // A pipeline built with a placement plan gets its node threads placed by
  // the SAME plan, so threads and channel memory agree.
  auto exec_owner = pipeline.placement().empty()
                        ? std::make_unique<ThreadedExecutor>()
                        : std::make_unique<ThreadedExecutor>(
                              pipeline.placement());
  ThreadedExecutor& exec = *exec_owner;
  for (auto* node : pipeline.nodes()) exec.Add(node);
  collector->PrefaultQueues();
  exec.Start();

  // Replay, then wait for distributed quiescence; vacuum all along, since a
  // node whose results are staged behind its full ring waits for room.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (!replay.finished()) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline) << "replay stuck";
    const bool stepped = replay.Step();
    if (collector->VacuumOnce() == 0 && !stepped) std::this_thread::yield();
  }
  uint64_t last = 0;
  int stable = 0;
  while (stable < 10) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline) << "no quiescence";
    collector->VacuumOnce();
    const uint64_t processed = pipeline.TotalProcessed();
    const std::size_t backlog = pipeline.ApproxBacklog();
    if (processed == last && backlog == 0) {
      ++stable;
    } else {
      stable = 0;
      last = processed;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  exec.Stop();
  collector->VacuumOnce();  // final sweep after nodes stopped

  EXPECT_EQ(pipeline.total_anomalies(), 0u);
}

DriverScript<TR, TS> ThreadedScript(uint64_t seed, bool count_windows) {
  TraceConfig config;
  config.events = 2000;
  config.key_domain = 12;
  config.max_gap_us = 2;
  auto trace = MakeRandomTrace(seed, config);
  if (count_windows) {
    return BuildDriverScript(trace, WindowSpec::Count(220),
                             WindowSpec::Count(180));
  }
  return BuildDriverScript(trace, WindowSpec::Time(500),
                           WindowSpec::Time(500));
}

TEST(ThreadedLlhj, ExactOracleEquality) {
  for (uint64_t seed : {1u, 2u}) {
    auto script = ThreadedScript(seed, false);
    auto oracle = RunKangOracle<TR, TS, KeyEq>(script);

    typename LlhjPipeline<TR, TS, KeyEq>::Options options;
    options.nodes = 4;
    LlhjPipeline<TR, TS, KeyEq> pipeline(options);
    CollectingHandler<TR, TS> handler;
    RunThreaded(pipeline, script, /*batch=*/8, &handler, &pipeline.hwm());
    EXPECT_TRUE(SameResultSet(oracle, handler.results())) << "seed " << seed;
  }
}

TEST(ThreadedLlhj, CountWindowsAndBatch64) {
  auto script = ThreadedScript(3, true);
  auto oracle = RunKangOracle<TR, TS, KeyEq>(script);

  typename LlhjPipeline<TR, TS, KeyEq>::Options options;
  options.nodes = 5;
  LlhjPipeline<TR, TS, KeyEq> pipeline(options);
  CollectingHandler<TR, TS> handler;
  RunThreaded(pipeline, script, /*batch=*/64, &handler, &pipeline.hwm());
  EXPECT_TRUE(SameResultSet(oracle, handler.results()));
}

TEST(ThreadedLlhj, TinyChannelsExerciseBackpressure) {
  auto script = ThreadedScript(4, true);
  auto oracle = RunKangOracle<TR, TS, KeyEq>(script);

  typename LlhjPipeline<TR, TS, KeyEq>::Options options;
  options.nodes = 4;
  options.channel_capacity = 16;
  options.result_capacity = 64;  // forces result staging too
  options.punctuate = true;
  LlhjPipeline<TR, TS, KeyEq> pipeline(options);
  CollectingHandler<TR, TS> handler;
  LivePunctuationChecker<TR, TS> checker(&handler);
  RunThreaded(pipeline, script, /*batch=*/8, &checker, &pipeline.hwm());
  EXPECT_TRUE(SameResultSet(oracle, handler.results()));
  EXPECT_GT(checker.punctuations(), 0u);
  EXPECT_EQ(checker.violations(), 0u);
}

TEST(ThreadedHsj, ExactOracleEquality) {
  auto script = ThreadedScript(5, true);
  auto oracle = RunKangOracle<TR, TS, KeyEq>(script);

  typename HsjPipeline<TR, TS, KeyEq>::Options options;
  options.nodes = 4;  // self-balancing segments (default)
  // Bounded-lag regime: channels far smaller than the window so the driver
  // cannot run a window ahead of the pipeline (DESIGN.md).
  options.channel_capacity = 16;
  HsjPipeline<TR, TS, KeyEq> pipeline(options);
  CollectingHandler<TR, TS> handler;
  RunThreaded(pipeline, script, /*batch=*/8, &handler);
  EXPECT_TRUE(SameResultSet(oracle, handler.results()));
}

TEST(ThreadedHsj, TimeWindowsWithRelocationPressure) {
  auto script = ThreadedScript(6, false);
  auto oracle = RunKangOracle<TR, TS, KeyEq>(script);

  typename HsjPipeline<TR, TS, KeyEq>::Options options;
  options.nodes = 3;                // self-balancing segments (default)
  options.channel_capacity = 16;    // bounded-lag regime
  HsjPipeline<TR, TS, KeyEq> pipeline(options);
  CollectingHandler<TR, TS> handler;
  RunThreaded(pipeline, script, /*batch=*/16, &handler);
  EXPECT_TRUE(SameResultSet(oracle, handler.results()));
}

/// Punctuation invariant checked live under threads, with the default
/// result rings and with 64-slot rings that stage results on most batches.
TEST(ThreadedLlhj, PunctuationInvariantHoldsLive) {
  auto script = ThreadedScript(7, false);
  const auto oracle = RunKangOracle<TR, TS, KeyEq>(script);

  for (std::size_t result_capacity :
       {kDefaultResultCapacity, std::size_t{64}}) {
    typename LlhjPipeline<TR, TS, KeyEq>::Options options;
    options.nodes = 4;
    options.punctuate = true;
    options.result_capacity = result_capacity;
    LlhjPipeline<TR, TS, KeyEq> pipeline(options);
    LivePunctuationChecker<TR, TS> checker;
    RunThreaded(pipeline, script, /*batch=*/8, &checker, &pipeline.hwm());

    EXPECT_GT(checker.count(), 0u) << "ring " << result_capacity;
    EXPECT_EQ(checker.count(), oracle.size()) << "ring " << result_capacity;
    EXPECT_EQ(checker.violations(), 0u) << "ring " << result_capacity;
  }
}

// One node's output per Poll exceeds 65,536 results here (3 nodes, every
// key equal, 2,048-tuple windows: about 87k results per node per round),
// far beyond the default ring. The threaded session must still deliver the
// exact oracle multiset by the return of FinishInput, with no result behind
// its punctuation.
TEST(ThreadedResultRingOverflow, DefaultRingsOverflowBetweenPollsAndStayExact) {
  test::OverflowCase c;
  c.algorithm = Algorithm::kLowLatency;
  c.threaded = true;
  c.parallelism = 3;
  c.window = 2048;
  c.pairs = 40;
  const uint64_t max_per_pair = test::RunOverflowCase(c);
  EXPECT_GT(max_per_pair / static_cast<uint64_t>(c.parallelism), 65'536u);
}

// Channel rings of a planned pipeline are homed on their CONSUMER's NUMA
// node and the consumer-side placement hook runs on every ring before
// steady state — observed here through the pipeline's placement
// introspection on a synthetic two-node topology (so the test exercises the
// multi-node paths even on single-socket hosts), with the result set still
// exactly the oracle's.
TEST(ThreadedPlacement, ChannelsHomedOnConsumersUnderSyntheticTopology) {
  Topology::SyntheticShape shape;
  shape.nodes_per_package = 2;
  shape.cores_per_node = 2;
  Topology topo = Topology::Synthetic(shape);  // cpus 0-3 over nodes {0, 1}
  PlacementPlan plan =
      PlacementPlan::Build(topo, PlacementPolicy::kCompact, 4, kHelperCount);

  auto script = ThreadedScript(8, true);
  auto oracle = RunKangOracle<TR, TS, KeyEq>(script);

  typename LlhjPipeline<TR, TS, KeyEq>::Options options;
  options.nodes = 4;
  options.placement = plan;
  LlhjPipeline<TR, TS, KeyEq> pipeline(options);
  // Construction already recorded each ring's home = its consumer's node.
  for (int k = 0; k < options.nodes; ++k) {
    EXPECT_EQ(pipeline.channel_home(k), plan.NodeForPosition(k)) << "node " << k;
  }
  EXPECT_EQ(plan.NodeForPosition(0), 0);
  EXPECT_EQ(plan.NodeForPosition(3), 1);  // genuinely multi-node plan

  CollectingHandler<TR, TS> handler;
  RunThreaded(pipeline, script, /*batch=*/8, &handler, &pipeline.hwm());
  EXPECT_TRUE(SameResultSet(oracle, handler.results()));
  // The hook ran on every ring (which rung it reached depends on the host;
  // kUnplaced would mean placement was skipped entirely).
  for (int k = 0; k < options.nodes; ++k) {
    EXPECT_NE(pipeline.channel_placement(k), ChannelPlacement::kUnplaced)
        << "node " << k;
  }
}

// All four placement policies must produce the exact oracle result set —
// placement moves threads and memory, never results.
TEST(ThreadedPlacement, AllPoliciesProduceIdenticalResults) {
  auto script = ThreadedScript(9, true);
  auto oracle = RunKangOracle<TR, TS, KeyEq>(script);
  Topology::SyntheticShape shape;
  shape.nodes_per_package = 2;
  shape.cores_per_node = 3;
  Topology topo = Topology::Synthetic(shape);

  for (PlacementPolicy policy :
       {PlacementPolicy::kAuto, PlacementPolicy::kCompact,
        PlacementPolicy::kScatter, PlacementPolicy::kNone}) {
    PlacementPlan plan =
        PlacementPlan::Build(topo, policy, 4, kHelperCount);
    typename LlhjPipeline<TR, TS, KeyEq>::Options options;
    options.nodes = 4;
    options.placement = plan;
    LlhjPipeline<TR, TS, KeyEq> pipeline(options);
    CollectingHandler<TR, TS> handler;
    RunThreaded(pipeline, script, /*batch=*/8, &handler, &pipeline.hwm());
    EXPECT_TRUE(SameResultSet(oracle, handler.results()))
        << "policy " << ToString(policy);
  }
}

// A session's engine wake and park counters sum its node threads'
// doorbells and read 0 without engine threads. A threaded 3-node band
// session fed one tuple at a time, with every node parked again before the
// next push, is woken by the pushes (each push rings the whole pipeline)
// and delivers exactly the reference results.
TEST(ThreadedSession, IdlePipelineWokenPushByPushStaysExact) {
  TraceConfig tc;
  tc.events = 150;
  tc.key_domain = 6;
  const auto trace = MakeRandomTrace(77, tc);
  const WindowSpec w = WindowSpec::Count(40);
  const auto expected = ReferenceResults(trace, w, w, test::RangeBand{1});
  for (const bool threaded : {false, true}) {
    JoinConfig config;
    config.algorithm = Algorithm::kLowLatency;
    config.parallelism = 3;
    config.window_r = w;
    config.window_s = w;
    config.threaded = threaded;
    JoinSession<TR, TS, test::RangeBand> session(config);
    EXPECT_EQ(session.engine_wakes(), 0u);
    EXPECT_EQ(session.engine_parks(), 0u);
    CollectingHandler<TR, TS> handler;
    session.AddQuery(test::RangeBand{1}, &handler);
    session.Start();
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(60);
    for (const auto& e : trace) {
      // Idle: every node thread has parked (about) once since the last push.
      const uint64_t parked = session.engine_parks();
      while (threaded && session.engine_parks() < parked + 3) {
        ASSERT_LT(std::chrono::steady_clock::now(), deadline)
            << "engine threads never parked";
        std::this_thread::yield();
      }
      if (e.side == StreamSide::kR) {
        session.PushR(e.r, e.ts);
      } else {
        session.PushS(e.s, e.ts);
      }
      session.Poll();
    }
    session.FinishInput();
    session.Stop();
    EXPECT_EQ(session.pipeline_anomalies(), 0u);
    EXPECT_TRUE(SameResultSet(expected, handler.results()))
        << (threaded ? "threaded" : "sequential");
    if (threaded) {
      EXPECT_GT(session.engine_parks(), trace.size());
      EXPECT_GT(session.engine_wakes(), 0u) << "no push woke a parked node";
    } else {
      EXPECT_EQ(session.engine_wakes(), 0u);
      EXPECT_EQ(session.engine_parks(), 0u);
    }
  }
}

}  // namespace
}  // namespace sjoin
