// Post-quiescence protocol invariants. Beyond result-set equality, the
// pipelines must reach a *clean* internal state once input stops: no
// orphaned in-flight buffers, no lingering expedition flags, no tombstones
// when the expiry gate is active, resident counts exactly equal to the
// live windows, and high-water marks equal to the last completed tuples.
// Violations here would indicate leaks that only manifest as wrong results
// much later (or as unbounded memory growth in long-running deployments).
#include <gtest/gtest.h>

#include <string>

#include "hsj/hsj_pipeline.hpp"
#include "llhj/llhj_pipeline.hpp"

#include "kang_join.hpp"
#include "test_util.hpp"

namespace sjoin {
namespace {

using test::Gated;
using test::KeyEq;
using test::MakeRandomTrace;
using test::OneEventPerPass;
using test::ReplaySequential;
using test::TR;
using test::TraceConfig;
using test::TS;

struct LiveCounts {
  std::size_t r = 0;
  std::size_t s = 0;
  Timestamp last_r_ts = kMinTimestamp;
  Timestamp last_s_ts = kMinTimestamp;
  Seq last_r_seq = 0;
  Seq last_s_seq = 0;
  bool any_r = false;
  bool any_s = false;
};

/// Independently derives the expected end-of-script state.
LiveCounts ComputeLive(const DriverScript<TR, TS>& script) {
  LiveCounts out;
  for (const auto& e : script.events) {
    switch (e.op) {
      case DriverOp::kArriveR:
        ++out.r;
        out.last_r_ts = e.ts;
        out.last_r_seq = e.seq;
        out.any_r = true;
        break;
      case DriverOp::kArriveS:
        ++out.s;
        out.last_s_ts = e.ts;
        out.last_s_seq = e.seq;
        out.any_s = true;
        break;
      case DriverOp::kExpireR:
        --out.r;
        break;
      case DriverOp::kExpireS:
        --out.s;
        break;
      default:
        break;
    }
  }
  return out;
}

class LlhjInvariants : public ::testing::TestWithParam<int> {};

TEST_P(LlhjInvariants, CleanStateAfterQuiescence) {
  const int nodes = GetParam();
  TraceConfig config;
  config.events = 400;
  config.key_domain = 6;
  config.max_gap_us = 3;
  auto trace = MakeRandomTrace(7 + static_cast<uint64_t>(nodes), config);
  auto script = BuildDriverScript(trace, WindowSpec::Count(40),
                                  WindowSpec::Count(31));
  const LiveCounts live = ComputeLive(script);

  typename LlhjPipeline<TR, TS, KeyEq>::Options options;
  options.nodes = nodes;
  options.channel_capacity = 64;
  LlhjPipeline<TR, TS, KeyEq> pipeline(options);

  CollectingHandler<TR, TS> handler;
  ReplaySequential(pipeline, script, &handler, Gated(pipeline, 4));

  std::size_t resident_r = 0, resident_s = 0;
  for (int k = 0; k < nodes; ++k) {
    const auto& node = pipeline.node(k);
    // No tuple may remain "virtually in flight".
    EXPECT_EQ(node.inflight_s(), 0u) << "node " << k;
    // Every expedition must have completed and cleared its flag.
    EXPECT_EQ(node.r_store().expedited_count(), 0u) << "node " << k;
    // With the expiry gate, an expiry can never overtake its tuple, so the
    // tombstone backstop must never fire.
    EXPECT_EQ(node.counters().tombstoned, 0u) << "node " << k;
    EXPECT_EQ(node.counters().anomalies, 0u) << "node " << k;
    resident_r += node.r_store().size();
    resident_s += node.s_store().size();
  }

  // Stored copies must be exactly the unexpired window contents.
  EXPECT_EQ(resident_r, live.r);
  EXPECT_EQ(resident_s, live.s);

  // High-water marks must have reached the final arrivals of each side.
  if (live.any_r) {
    EXPECT_EQ(pipeline.hwm().Get(StreamSide::kR), live.last_r_ts);
    EXPECT_EQ(pipeline.hwm().CompletedSeq(StreamSide::kR),
              static_cast<int64_t>(live.last_r_seq));
  }
  if (live.any_s) {
    EXPECT_EQ(pipeline.hwm().Get(StreamSide::kS), live.last_s_ts);
    EXPECT_EQ(pipeline.hwm().CompletedSeq(StreamSide::kS),
              static_cast<int64_t>(live.last_s_seq));
  }

  // Nothing left anywhere in the channels.
  EXPECT_EQ(pipeline.ApproxBacklog(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Nodes, LlhjInvariants, ::testing::Values(1, 2, 4, 6),
                         [](const ::testing::TestParamInfo<int>& info) {
                           std::string name = "n";
                           name += std::to_string(info.param);
                           return name;
                         });

class HsjInvariants : public ::testing::TestWithParam<int> {};

TEST_P(HsjInvariants, CleanStateAfterQuiescence) {
  const int nodes = GetParam();
  TraceConfig config;
  config.events = 400;
  config.key_domain = 6;
  auto trace = MakeRandomTrace(17 + static_cast<uint64_t>(nodes), config);
  // No flush: residency must still be exactly the live windows.
  auto script = BuildDriverScript(trace, WindowSpec::Count(40),
                                  WindowSpec::Count(31),
                                  /*flush_at_end=*/false);
  const LiveCounts live = ComputeLive(script);

  typename HsjPipeline<TR, TS, KeyEq>::Options options;
  options.nodes = nodes;  // self-balancing
  options.channel_capacity = 64;
  HsjPipeline<TR, TS, KeyEq> pipeline(options);

  CollectingHandler<TR, TS> handler;
  ReplaySequential(pipeline, script, &handler, OneEventPerPass());

  std::size_t resident_r = 0, resident_s = 0;
  for (int k = 0; k < nodes; ++k) {
    const auto& node = pipeline.node(k);
    EXPECT_EQ(node.inflight_s(), 0u) << "node " << k;
    EXPECT_EQ(node.counters().anomalies, 0u) << "node " << k;
    resident_r += node.resident_r();
    resident_s += node.resident_s();
  }
  EXPECT_EQ(resident_r, live.r);
  EXPECT_EQ(resident_s, live.s);

  // Self-balancing: interior segments must be within one tuple of their
  // downstream neighbour (end nodes accumulate the old remainder).
  for (int k = 0; k + 1 < nodes; ++k) {
    EXPECT_LE(pipeline.node(k).resident_r(),
              pipeline.node(k + 1).resident_r() + 1)
        << "R segment balance violated at node " << k;
  }
  for (int k = nodes - 1; k > 0; --k) {
    EXPECT_LE(pipeline.node(k).resident_s(),
              pipeline.node(k - 1).resident_s() + 1)
        << "S segment balance violated at node " << k;
  }

  EXPECT_EQ(pipeline.ApproxBacklog(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Nodes, HsjInvariants, ::testing::Values(1, 2, 4, 6),
                         [](const ::testing::TestParamInfo<int>& info) {
                           std::string name = "n";
                           name += std::to_string(info.param);
                           return name;
                         });

TEST(Invariants, LlhjSurvivesAlternatingBurstTraffic) {
  // Failure-injection-flavoured workload: long one-sided bursts (R drought
  // then S drought) stress window fluctuation, the gate, and balancing.
  Trace<TR, TS> trace;
  Timestamp ts = 0;
  int32_t id = 0;
  Rng rng(1234);
  for (int burst = 0; burst < 20; ++burst) {
    const bool r_side = burst % 2 == 0;
    for (int i = 0; i < 25; ++i) {
      const int32_t key = static_cast<int32_t>(rng.UniformInt(1, 5));
      if (r_side) {
        trace.push_back(ArriveR<TR, TS>(ts, TR{key, id++}));
      } else {
        trace.push_back(ArriveS<TR, TS>(ts, TS{key, id++}));
      }
      ts += 2;
    }
  }
  auto script = BuildDriverScript(trace, WindowSpec::Time(120),
                                  WindowSpec::Time(120));
  auto oracle = RunKangOracle<TR, TS, KeyEq>(script);

  typename LlhjPipeline<TR, TS, KeyEq>::Options options;
  options.nodes = 4;
  options.channel_capacity = 64;
  auto results = test::RunLlhjSequential<KeyEq>(script, options);
  EXPECT_TRUE(test::SameResultSet(oracle, results));
}

TEST(Invariants, HsjSurvivesAlternatingBurstTraffic) {
  Trace<TR, TS> trace;
  Timestamp ts = 0;
  int32_t id = 0;
  Rng rng(4321);
  for (int burst = 0; burst < 20; ++burst) {
    const bool r_side = burst % 2 == 0;
    for (int i = 0; i < 25; ++i) {
      const int32_t key = static_cast<int32_t>(rng.UniformInt(1, 5));
      if (r_side) {
        trace.push_back(ArriveR<TR, TS>(ts, TR{key, id++}));
      } else {
        trace.push_back(ArriveS<TR, TS>(ts, TS{key, id++}));
      }
      ts += 2;
    }
  }
  auto script = BuildDriverScript(trace, WindowSpec::Time(120),
                                  WindowSpec::Time(120));
  auto oracle = RunKangOracle<TR, TS, KeyEq>(script);

  typename HsjPipeline<TR, TS, KeyEq>::Options options;
  options.nodes = 4;  // self-balancing must absorb the fluctuation
  options.channel_capacity = 64;
  auto results = test::RunHsjSequential<KeyEq>(script, options);
  EXPECT_TRUE(test::SameResultSet(oracle, results));
}

// Fault counting, the same for both engines: a message a node must never
// see is counted as an anomaly and emits nothing.
template <typename Engine>
class FaultCounting : public ::testing::Test {
 protected:
  FaultCounting() : pipeline_(MakeOptions()) {
    collector_ = pipeline_.MakeCollector(&handler_);
    for (Steppable* node : pipeline_.nodes()) executor_.Add(node);
    executor_.Add(collector_.get());
  }

  static typename Engine::Options MakeOptions() {
    typename Engine::Options options;
    options.nodes = 3;
    return options;
  }

  /// Pushes one message into an entry port and runs until quiescent.
  template <typename T>
  void Inject(SpscQueue<FlowMsg<T>>* port, const FlowMsg<T>& msg) {
    ASSERT_TRUE(port->TryPush(msg));
    executor_.RunUntilQuiescent();
  }

  template <typename T>
  static FlowMsg<T> Arrival(Seq seq, Epoch epoch) {
    FlowMsg<T> msg;
    msg.seq = seq;
    msg.epoch = epoch;
    msg.payload = T{1, static_cast<int32_t>(seq)};
    return msg;
  }

  void ExpectFaultWithoutResults() {
    EXPECT_GE(pipeline_.total_anomalies(), 1u);
    EXPECT_TRUE(handler_.results().empty());
  }

  Engine pipeline_;
  CollectingHandler<TR, TS> handler_;
  std::unique_ptr<Collector<TR, TS>> collector_;
  SequentialExecutor executor_;
};

using FaultPipelines =
    ::testing::Types<LlhjPipeline<TR, TS, KeyEq>, HsjPipeline<TR, TS, KeyEq>>;
TYPED_TEST_SUITE(FaultCounting, FaultPipelines);

TYPED_TEST(FaultCounting, OutOfRangeKind) {
  FlowMsg<TR> msg;
  msg.kind = static_cast<MsgKind>(200);
  this->Inject(this->pipeline_.ports().left, msg);
  this->ExpectFaultWithoutResults();
}

TYPED_TEST(FaultCounting, ExpeditionEndOnLeftFlow) {
  FlowMsg<TR> msg;
  msg.kind = MsgKind::kExpeditionEnd;
  this->Inject(this->pipeline_.ports().left, msg);
  this->ExpectFaultWithoutResults();
}

TYPED_TEST(FaultCounting, NeverInstalledEpoch) {
  this->Inject(this->pipeline_.ports().right, this->template Arrival<TS>(0, 0));
  EXPECT_EQ(this->pipeline_.total_anomalies(), 0u);
  this->Inject(this->pipeline_.ports().left, this->template Arrival<TR>(0, 7));
  this->ExpectFaultWithoutResults();
}

}  // namespace
}  // namespace sjoin
