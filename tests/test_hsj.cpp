// Tests for the original handshake join: oracle equivalence across pipeline
// lengths and segment capacities, relocation behaviour, expiry chasing, and
// flush semantics.
#include <gtest/gtest.h>

#include <string>

#include "hsj/hsj_pipeline.hpp"

#include "kang_join.hpp"
#include "test_util.hpp"

namespace sjoin {
namespace {

using test::KeyBand;
using test::KeyEq;
using test::MakeRandomTrace;
using test::OneEventPerPass;
using test::ReplaySequential;
using test::RunHsjSequential;
using test::SameResultSet;
using test::TR;
using test::TraceConfig;
using test::TS;

typename HsjPipeline<TR, TS, KeyEq>::Options HsjOptions(int nodes,
                                                        int64_t cap) {
  typename HsjPipeline<TR, TS, KeyEq>::Options options;
  options.nodes = nodes;
  options.segment_capacity_r = cap;
  options.segment_capacity_s = cap;
  options.channel_capacity = 64;
  return options;
}

struct HsjParam {
  int nodes;
  int64_t cap;
};

class HsjOracle : public ::testing::TestWithParam<HsjParam> {};

TEST_P(HsjOracle, MatchesKangOnRandomTimeWindows) {
  // Segment capacities must respect the fair share (cap <= live window / n,
  // paper's self-balancing invariant): a tuple must traverse the pipeline
  // within its lifetime or latent pairs expire unmet. The 120 us windows
  // keep ~40 tuples per side alive, so every parameterized shape complies.
  const auto param = GetParam();
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    TraceConfig config;
    config.events = 240;
    config.key_domain = 5;
    config.max_gap_us = 3;
    auto trace = MakeRandomTrace(seed, config);
    auto script = BuildDriverScript(trace, WindowSpec::Time(120),
                                    WindowSpec::Time(120));
    auto oracle = RunKangOracle<TR, TS, KeyEq>(script);
    auto hsj = RunHsjSequential<KeyEq>(
        script, HsjOptions(param.nodes, param.cap));
    EXPECT_TRUE(SameResultSet(oracle, hsj))
        << "nodes=" << param.nodes << " cap=" << param.cap << " seed="
        << seed;
  }
}

TEST_P(HsjOracle, MatchesKangOnRandomCountWindows) {
  const auto param = GetParam();
  for (uint64_t seed = 11; seed <= 14; ++seed) {
    TraceConfig config;
    config.events = 240;
    config.key_domain = 4;
    auto trace = MakeRandomTrace(seed, config);
    auto script = BuildDriverScript(trace, WindowSpec::Count(40),
                                    WindowSpec::Count(33));
    auto oracle = RunKangOracle<TR, TS, KeyEq>(script);
    auto hsj = RunHsjSequential<KeyEq>(
        script, HsjOptions(param.nodes, param.cap));
    EXPECT_TRUE(SameResultSet(oracle, hsj))
        << "nodes=" << param.nodes << " cap=" << param.cap << " seed="
        << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(
    PipelineShapes, HsjOracle,
    ::testing::Values(HsjParam{1, 1024}, HsjParam{2, 8}, HsjParam{3, 4},
                      HsjParam{4, 2}, HsjParam{5, 1}, HsjParam{4, 8},
                      HsjParam{6, 3}, HsjParam{2, 0}, HsjParam{4, 0},
                      HsjParam{6, 0}),
    [](const ::testing::TestParamInfo<HsjParam>& info) {
      std::string name = "n";
      name += std::to_string(info.param.nodes);
      if (info.param.cap == 0) {
        name += "bal";
      } else {
        name += "cap";
        name += std::to_string(info.param.cap);
      }
      return name;
    });

TEST(Hsj, SingleNodeDegeneratesToKang) {
  // Paper Section 3.2: with one core, handshake join degenerates to Kang's
  // procedure.
  TraceConfig config;
  config.events = 150;
  auto trace = MakeRandomTrace(3, config);
  auto script = BuildDriverScript(trace, WindowSpec::Time(40),
                                  WindowSpec::Time(40));
  auto oracle = RunKangOracle<TR, TS, KeyEq>(script);
  auto hsj = RunHsjSequential<KeyEq>(script, HsjOptions(1, 1 << 20));
  EXPECT_TRUE(SameResultSet(oracle, hsj));
}

TEST(Hsj, TinySegmentsForceRelocationAndStayCorrect) {
  TraceConfig config;
  config.events = 200;
  config.key_domain = 3;
  auto trace = MakeRandomTrace(8, config);
  auto script = BuildDriverScript(trace, WindowSpec::Count(30),
                                  WindowSpec::Count(30));
  HsjPipeline<TR, TS, KeyEq> pipeline(HsjOptions(4, 1));
  CollectingHandler<TR, TS> handler;
  ReplaySequential(pipeline, script, &handler, OneEventPerPass());

  EXPECT_GT(pipeline.total_relocations(), 0u);
  EXPECT_EQ(pipeline.total_anomalies(), 0u);
  auto oracle = RunKangOracle<TR, TS, KeyEq>(script);
  EXPECT_TRUE(SameResultSet(oracle, handler.results()));
}

TEST(Hsj, WithoutFlushDistantPairsAreDelayed) {
  // Construct a pair that rests far apart: r relocates right, s arrives
  // later. Without flush the pair is found only thanks to continued input;
  // here input stops, so the non-flushed run must miss it while the flushed
  // run finds it — this demonstrates *why* flush exists.
  Trace<TR, TS> trace;
  // Many R tuples push r0 deep into the pipeline.
  trace.push_back(ArriveR<TR, TS>(0, TR{1, 0}));
  for (int i = 1; i <= 20; ++i) {
    trace.push_back(ArriveR<TR, TS>(i, TR{100 + i, i}));
  }
  // A late S partner for r0.
  trace.push_back(ArriveS<TR, TS>(21, TS{1, 99}));

  auto with_flush = BuildDriverScript(trace, WindowSpec::Time(1000),
                                      WindowSpec::Time(1000), true);
  auto without_flush = BuildDriverScript(trace, WindowSpec::Time(1000),
                                         WindowSpec::Time(1000), false);
  auto options = HsjOptions(4, 2);  // tiny caps: r0 relocates to node 3

  auto flushed = RunHsjSequential<KeyEq>(with_flush, options);
  EXPECT_EQ(flushed.size(), 1u) << "flush must surface the distant pair";

  auto unflushed = RunHsjSequential<KeyEq>(without_flush, options);
  // s enters at the right end and r0 rests near the right end, so the pair
  // is actually found on arrival here; the flushed run must never produce
  // duplicates on top of that.
  EXPECT_LE(unflushed.size(), 1u);
}

TEST(Hsj, ExpiryChaseTerminatesWithTinyCaps) {
  // Relocations and expiries race constantly with cap=1; anomaly counters
  // (chase give-ups) must stay zero and the result set exact.
  TraceConfig config;
  config.events = 300;
  config.key_domain = 3;
  auto trace = MakeRandomTrace(21, config);
  auto script = BuildDriverScript(trace, WindowSpec::Count(6),
                                  WindowSpec::Count(6));
  auto oracle = RunKangOracle<TR, TS, KeyEq>(script);
  auto hsj = RunHsjSequential<KeyEq>(script, HsjOptions(5, 1));
  EXPECT_TRUE(SameResultSet(oracle, hsj));
}

TEST(Hsj, BandPredicateWorks) {
  TraceConfig config;
  config.events = 200;
  config.key_domain = 12;
  auto trace = MakeRandomTrace(31, config);
  auto script = BuildDriverScript(trace, WindowSpec::Time(100),
                                  WindowSpec::Time(100));
  auto oracle = RunKangOracle<TR, TS, KeyBand>(script, KeyBand{2});

  typename HsjPipeline<TR, TS, KeyBand>::Options options;
  options.nodes = 3;
  options.segment_capacity_r = 4;  // <= live window (~33/side) / nodes
  options.segment_capacity_s = 4;
  options.channel_capacity = 64;
  auto hsj = RunHsjSequential<KeyBand>(script, options, KeyBand{2});
  EXPECT_TRUE(SameResultSet(oracle, hsj));
}

TEST(Hsj, EmptyScriptQuiesces) {
  DriverScript<TR, TS> script;
  auto results = RunHsjSequential<KeyEq>(script, HsjOptions(3, 4));
  EXPECT_TRUE(results.empty());
}

TEST(Hsj, SmallChannelsStillCorrect) {
  // Channel capacity 4 forces constant backpressure and staging.
  TraceConfig config;
  config.events = 200;
  config.key_domain = 4;
  auto trace = MakeRandomTrace(41, config);
  auto script = BuildDriverScript(trace, WindowSpec::Count(16),
                                  WindowSpec::Count(16));
  auto options = HsjOptions(4, 2);
  options.channel_capacity = 8;  // arrival slack is 4; leave some room
  auto oracle = RunKangOracle<TR, TS, KeyEq>(script);
  auto hsj = RunHsjSequential<KeyEq>(script, options);
  EXPECT_TRUE(SameResultSet(oracle, hsj));
}

TEST(Hsj, ResidentTuplesRespectExpiries) {
  // After the full script (everything expired), windows must be empty.
  Trace<TR, TS> trace;
  for (int i = 0; i < 40; ++i) {
    if (i % 2 == 0) {
      trace.push_back(ArriveR<TR, TS>(i, TR{1, i}));
    } else {
      trace.push_back(ArriveS<TR, TS>(i, TS{1, i}));
    }
  }
  trace.push_back(ArriveR<TR, TS>(1000, TR{2, 99}));  // expires everything

  auto script = BuildDriverScript(trace, WindowSpec::Time(10),
                                  WindowSpec::Time(10), false);
  HsjPipeline<TR, TS, KeyEq> pipeline(HsjOptions(3, 4));
  CollectingHandler<TR, TS> handler;
  ReplaySequential(pipeline, script, &handler, OneEventPerPass());

  EXPECT_EQ(pipeline.resident_tuples(), 1u);  // only the last arrival
  EXPECT_EQ(pipeline.total_anomalies(), 0u);
}

// An expiry can reach a node before its tuple does: the tuple is still
// being relocated toward that node. A partner pushed after the expiry that
// rests there must not meet the tuple when it lands, and the chase must end
// without an anomaly (DESIGN.md Section 4, HSJ expiry horizon).
TEST(Hsj, ExpiryOvertakingARelocationFiltersLaterPartners) {
  typename HsjPipeline<TR, TS, KeyEq>::Options options;
  options.nodes = 2;
  options.channel_capacity = 16;
  HsjPipeline<TR, TS, KeyEq> pipeline(options);
  CollectingHandler<TR, TS> handler;
  auto collector = pipeline.MakeCollector(&handler);
  const PipelinePorts<TR, TS> ports = pipeline.ports();
  const std::vector<Steppable*> nodes = pipeline.nodes();

  auto arrival = [](auto tuple, Seq seq) {
    FlowMsg<decltype(tuple)> msg;
    msg.seq = seq;
    msg.ts = static_cast<Timestamp>(seq);
    msg.payload = tuple;
    return msg;
  };
  // Driver order with an R count window of 1: r0, r1, the expiry of r0
  // (issued by r1's arrival, before any S), then s0. All share key 1, so
  // the only legal pair is (r1, s0).
  ASSERT_TRUE(ports.left->TryPush(arrival(TR{1, 0}, 0)));
  ASSERT_TRUE(ports.left->TryPush(arrival(TR{1, 1}, 1)));
  FlowMsg<TS> expiry;
  expiry.kind = MsgKind::kExpiry;
  expiry.ref_side = StreamSide::kR;
  expiry.seq = 0;
  SetExpiryHorizon(&expiry, /*next_opposite_seq=*/0);
  ASSERT_TRUE(ports.right->TryPush(expiry));
  ASSERT_TRUE(ports.right->TryPush(arrival(TS{1, 0}, 0)));

  nodes[1]->Step();  // the expiry passes node 1 ahead of r0; s0 rests there
  nodes[0]->Step();  // r0 relocates toward node 1; the chase turns back
  nodes[1]->Step();  // r0 lands where s0 rests, then the expiry returns

  FlowMsg<TR> flush_r;
  flush_r.kind = MsgKind::kFlush;
  ASSERT_TRUE(ports.left->TryPush(flush_r));
  FlowMsg<TS> flush_s;
  flush_s.kind = MsgKind::kFlush;
  ASSERT_TRUE(ports.right->TryPush(flush_s));
  SequentialExecutor exec;
  for (Steppable* node : nodes) exec.Add(node);
  exec.Add(collector.get());
  exec.RunUntilQuiescent();

  ASSERT_EQ(handler.results().size(), 1u);
  EXPECT_EQ(handler.results()[0].r_seq, 1u);
  EXPECT_EQ(handler.results()[0].s_seq, 0u);
  EXPECT_EQ(pipeline.total_anomalies(), 0u);
}

// Many expiries can wait at one node for tuples that are still upstream.
// None of them may be forgotten: a tuple whose expiry entry was dropped
// would meet the partners pushed after its expiry when it lands.
TEST(Hsj, ManyExpiriesOvertakingTheirTuplesFilterLaterPartners) {
  constexpr Seq kExpired = 200;
  typename HsjPipeline<TR, TS, KeyEq>::Options options;
  options.nodes = 2;
  options.channel_capacity = 512;
  HsjPipeline<TR, TS, KeyEq> pipeline(options);
  CollectingHandler<TR, TS> handler;
  auto collector = pipeline.MakeCollector(&handler);
  const PipelinePorts<TR, TS> ports = pipeline.ports();
  const std::vector<Steppable*> nodes = pipeline.nodes();

  auto arrival = [](auto tuple, Seq seq) {
    FlowMsg<decltype(tuple)> msg;
    msg.seq = seq;
    msg.ts = static_cast<Timestamp>(seq);
    msg.payload = tuple;
    return msg;
  };
  // Driver order: r0..r200, the expiries of r0..r199 (all before any S),
  // then s0. All share key 1, so the only legal pair is (r200, s0).
  for (Seq seq = 0; seq <= kExpired; ++seq) {
    ASSERT_TRUE(ports.left->TryPush(arrival(TR{1, 0}, seq)));
  }
  for (Seq seq = 0; seq < kExpired; ++seq) {
    FlowMsg<TS> expiry;
    expiry.kind = MsgKind::kExpiry;
    expiry.ref_side = StreamSide::kR;
    expiry.seq = seq;
    SetExpiryHorizon(&expiry, /*next_opposite_seq=*/0);
    ASSERT_TRUE(ports.right->TryPush(expiry));
  }
  ASSERT_TRUE(ports.right->TryPush(arrival(TS{1, 0}, 0)));

  // Only node 1 runs: every expiry passes it ahead of its tuple, and s0
  // comes to rest there.
  for (int i = 0; i < 1000 && ports.right->SizeApprox() > 0; ++i) {
    nodes[1]->Step();
  }
  ASSERT_EQ(ports.right->SizeApprox(), 0u);

  FlowMsg<TR> flush_r;
  flush_r.kind = MsgKind::kFlush;
  ASSERT_TRUE(ports.left->TryPush(flush_r));
  FlowMsg<TS> flush_s;
  flush_s.kind = MsgKind::kFlush;
  ASSERT_TRUE(ports.right->TryPush(flush_s));
  SequentialExecutor exec;
  for (Steppable* node : nodes) exec.Add(node);
  exec.Add(collector.get());
  exec.RunUntilQuiescent();

  ASSERT_EQ(handler.results().size(), 1u);
  EXPECT_EQ(handler.results()[0].r_seq, kExpired);
  EXPECT_EQ(handler.results()[0].s_seq, 0u);
  EXPECT_EQ(pipeline.total_anomalies(), 0u);
}

}  // namespace
}  // namespace sjoin
