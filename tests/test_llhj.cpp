// Tests for the low-latency handshake join: oracle equivalence across
// pipeline lengths and stores; the Table 1 matching cases;
// tombstones; expedition flags; and indexed operation.
#include <gtest/gtest.h>

#include "llhj/llhj_pipeline.hpp"

#include "kang_join.hpp"
#include "test_util.hpp"

namespace sjoin {
namespace {

using test::Gated;
using test::KeyBand;
using test::KeyEq;
using test::MakeRandomTrace;
using test::RangeBand;
using test::ReplaySequential;
using test::RunLlhjSequential;
using test::SameResultSet;
using test::TR;
using test::TraceConfig;
using test::TRKey;
using test::TS;
using test::TSKey;

template <typename Pred = KeyEq>
typename LlhjPipeline<TR, TS, Pred>::Options LlhjOptions(int nodes) {
  typename LlhjPipeline<TR, TS, Pred>::Options options;
  options.nodes = nodes;
  options.channel_capacity = 64;
  return options;
}

class LlhjOracle : public ::testing::TestWithParam<int> {};

TEST_P(LlhjOracle, MatchesKangOnRandomTimeWindows) {
  const int nodes = GetParam();
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    TraceConfig config;
    config.events = 240;
    config.key_domain = 5;
    auto trace = MakeRandomTrace(seed, config);
    auto script = BuildDriverScript(trace, WindowSpec::Time(60),
                                    WindowSpec::Time(60));
    auto oracle = RunKangOracle<TR, TS, KeyEq>(script);
    auto llhj = RunLlhjSequential<KeyEq>(script, LlhjOptions(nodes));
    EXPECT_TRUE(SameResultSet(oracle, llhj))
        << "nodes=" << nodes << " seed=" << seed;
  }
}

TEST_P(LlhjOracle, MatchesKangOnRandomCountWindows) {
  const int nodes = GetParam();
  for (uint64_t seed = 21; seed <= 24; ++seed) {
    TraceConfig config;
    config.events = 240;
    config.key_domain = 4;
    auto trace = MakeRandomTrace(seed, config);
    auto script = BuildDriverScript(trace, WindowSpec::Count(24),
                                    WindowSpec::Count(17));
    auto oracle = RunKangOracle<TR, TS, KeyEq>(script);
    auto llhj = RunLlhjSequential<KeyEq>(script, LlhjOptions(nodes));
    EXPECT_TRUE(SameResultSet(oracle, llhj))
        << "nodes=" << nodes << " seed=" << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(
    PipelineShapes, LlhjOracle,
    ::testing::Values(1, 2, 3, 4, 6),
    [](const ::testing::TestParamInfo<int>& info) {
      std::string name = "n";
      name += std::to_string(info.param);
      return name + "rr";
    });

TEST(Llhj, SingleNodeDegeneratesToKang) {
  TraceConfig config;
  config.events = 150;
  auto trace = MakeRandomTrace(3, config);
  auto script = BuildDriverScript(trace, WindowSpec::Time(40),
                                  WindowSpec::Time(40));
  auto oracle = RunKangOracle<TR, TS, KeyEq>(script);
  auto llhj = RunLlhjSequential<KeyEq>(script, LlhjOptions(1));
  EXPECT_TRUE(SameResultSet(oracle, llhj));
}

TEST(Llhj, LateArrivalMatchesStoredCopy) {
  // Table 1 row "never met, r after s": s completes its expedition long
  // before r arrives; the match must come from s's stored copy at h_s.
  Trace<TR, TS> trace;
  trace.push_back(ArriveS<TR, TS>(0, TS{1, 0}));
  trace.push_back(ArriveR<TR, TS>(50, TR{1, 1}));
  auto script = BuildDriverScript(trace, WindowSpec::Time(100),
                                  WindowSpec::Time(100));
  auto results = RunLlhjSequential<KeyEq>(script, LlhjOptions(4));
  ASSERT_EQ(results.size(), 1u);
}

TEST(Llhj, LateSMatchesClearedFlagCopy) {
  // Table 1 row "never met, s after r": r's expedition flag must be cleared
  // by the expedition-end message, or s would skip the copy at h_r.
  Trace<TR, TS> trace;
  trace.push_back(ArriveR<TR, TS>(0, TR{1, 0}));
  trace.push_back(ArriveS<TR, TS>(50, TS{1, 1}));
  auto script = BuildDriverScript(trace, WindowSpec::Time(100),
                                  WindowSpec::Time(100));
  for (int nodes = 1; nodes <= 6; ++nodes) {
    auto results = RunLlhjSequential<KeyEq>(script, LlhjOptions(nodes));
    EXPECT_EQ(results.size(), 1u) << "nodes=" << nodes;
  }
}

TEST(Llhj, ExpeditionFlagsEventuallyClear) {
  Trace<TR, TS> trace;
  for (int i = 0; i < 32; ++i) {
    trace.push_back(ArriveR<TR, TS>(i, TR{i + 100, i}));  // no matches
  }
  auto script = BuildDriverScript(trace, WindowSpec::Time(10'000),
                                  WindowSpec::Time(10'000), false);
  LlhjPipeline<TR, TS, KeyEq> pipeline(LlhjOptions(4));
  CollectingHandler<TR, TS> handler;
  ReplaySequential(pipeline, script, &handler, Gated(pipeline));

  std::size_t stored = 0;
  for (int k = 0; k < 4; ++k) {
    stored += pipeline.node(k).r_store().size();
    EXPECT_EQ(pipeline.node(k).r_store().expedited_count(), 0u)
        << "node " << k << " still has expedited entries after quiescence";
  }
  EXPECT_EQ(stored, 32u);
  EXPECT_EQ(pipeline.total_anomalies(), 0u);
}

TEST(Llhj, RoundRobinDistributesHomeCopies) {
  Trace<TR, TS> trace;
  for (int i = 0; i < 40; ++i) {
    trace.push_back(ArriveR<TR, TS>(i, TR{i + 100, i}));
  }
  auto script = BuildDriverScript(trace, WindowSpec::Time(10'000),
                                  WindowSpec::Time(10'000), false);
  LlhjPipeline<TR, TS, KeyEq> pipeline(LlhjOptions(4));
  CollectingHandler<TR, TS> handler;
  ReplaySequential(pipeline, script, &handler, Gated(pipeline));

  for (int k = 0; k < 4; ++k) {
    EXPECT_EQ(pipeline.node(k).r_store().size(), 10u) << "node " << k;
  }
}

TEST(Llhj, ExpiryRemovesStoredCopies) {
  Trace<TR, TS> trace;
  for (int i = 0; i < 30; ++i) {
    if (i % 2 == 0) {
      trace.push_back(ArriveR<TR, TS>(i, TR{1, i}));
    } else {
      trace.push_back(ArriveS<TR, TS>(i, TS{1, i}));
    }
  }
  trace.push_back(ArriveR<TR, TS>(1000, TR{2, 99}));
  auto script = BuildDriverScript(trace, WindowSpec::Time(5),
                                  WindowSpec::Time(5), false);
  LlhjPipeline<TR, TS, KeyEq> pipeline(LlhjOptions(3));
  CollectingHandler<TR, TS> handler;
  ReplaySequential(pipeline, script, &handler, Gated(pipeline));

  EXPECT_EQ(pipeline.resident_tuples(), 1u);
  EXPECT_EQ(pipeline.total_anomalies(), 0u);
}

TEST(Llhj, TombstoneBackstopWithoutExpiryGate) {
  // Robustness test for raw pipeline users that feed *without* the expiry
  // gate: with a tiny window the driver floods expiries that overtake their
  // still-travelling tuples. The tombstone mechanism must keep the stores
  // clean (no leaked copies => no duplicates, no missed legal pairs); a few
  // extra matches from in-flight crossings are inherent in this unguarded
  // mode (DESIGN.md, bounded-lag discussion), so extras are not asserted.
  Trace<TR, TS> trace;
  for (int i = 0; i < 60; ++i) {
    if (i % 2 == 0) {
      trace.push_back(ArriveR<TR, TS>(i, TR{1, i}));
    } else {
      trace.push_back(ArriveS<TR, TS>(i, TS{1, i}));
    }
  }
  auto script = BuildDriverScript(trace, WindowSpec::Time(1),
                                  WindowSpec::Time(1));
  auto oracle = RunKangOracle<TR, TS, KeyEq>(script);

  LlhjPipeline<TR, TS, KeyEq> pipeline(LlhjOptions(4));
  CollectingHandler<TR, TS> handler;
  ReplaySequential(pipeline, script, &handler,
                   test::Replay::Options{});  // deliberately NO expiry gate

  const auto want = test::PairMultiset(oracle);
  const auto got = test::PairMultiset(handler.results());
  for (const auto& [pair, n] : want) {
    auto it = got.find(pair);
    EXPECT_TRUE(it != got.end()) << "missing legal pair (r" << pair.first
                                 << ", s" << pair.second << ")";
  }
  for (const auto& [pair, n] : got) {
    EXPECT_LE(n, 1) << "duplicate pair (r" << pair.first << ", s"
                    << pair.second << ")";
  }
  EXPECT_EQ(pipeline.total_anomalies(), 0u);
  // Only the final two arrivals (ts 58, 59) are still inside the 1 us
  // window when the trace ends — no later arrival triggers their expiry.
  // Everything else must have been erased directly or via tombstone.
  EXPECT_EQ(pipeline.resident_tuples(), 2u);
}

TEST(Llhj, BandPredicate) {
  TraceConfig config;
  config.events = 220;
  config.key_domain = 12;
  auto trace = MakeRandomTrace(51, config);
  auto script = BuildDriverScript(trace, WindowSpec::Time(50),
                                  WindowSpec::Time(50));
  auto oracle = RunKangOracle<TR, TS, KeyBand>(script, KeyBand{2});
  auto llhj = RunLlhjSequential<KeyBand>(script, LlhjOptions<KeyBand>(4),
                                         KeyBand{2});
  EXPECT_TRUE(SameResultSet(oracle, llhj));
}

TEST(Llhj, IndexedStoresMatchOracle) {
  using RStore = HashStore<TR, TRKey, TSKey>;
  using SStore = HashStore<TS, TSKey, TRKey>;
  for (uint64_t seed = 61; seed <= 66; ++seed) {
    TraceConfig config;
    config.events = 240;
    config.key_domain = 6;
    auto trace = MakeRandomTrace(seed, config);
    auto script = BuildDriverScript(trace, WindowSpec::Count(20),
                                    WindowSpec::Count(20));
    auto oracle = RunKangOracle<TR, TS, KeyEq>(script);

    typename LlhjPipeline<TR, TS, KeyEq, RStore, SStore>::Options options;
    options.nodes = 4;
    options.channel_capacity = 64;
    auto llhj = RunLlhjSequential<KeyEq, RStore, SStore>(script, options);
    EXPECT_TRUE(SameResultSet(oracle, llhj)) << "seed " << seed;
  }
}

TEST(Llhj, BandStoresMatchOracleOnBandJoin) {
  // Key-bucketed node-local indexes accelerating the band join — the
  // paper's future-work configuration. The index prunes on the key
  // dimension; results must equal the scan-based oracle exactly.
  using RStore = BandStore<TR, TS, RangeBand, StreamSide::kR>;
  using SStore = BandStore<TR, TS, RangeBand, StreamSide::kS>;

  for (uint64_t seed = 101; seed <= 105; ++seed) {
    TraceConfig config;
    config.events = 240;
    config.key_domain = 12;
    auto trace = MakeRandomTrace(seed, config);
    auto script = BuildDriverScript(trace, WindowSpec::Count(24),
                                    WindowSpec::Count(20));
    auto oracle = RunKangOracle<TR, TS, RangeBand>(script, RangeBand{2});

    typename LlhjPipeline<TR, TS, RangeBand, RStore, SStore>::Options options;
    options.nodes = 4;
    options.channel_capacity = 64;
    auto llhj = RunLlhjSequential<RangeBand, RStore, SStore>(script, options,
                                                             RangeBand{2});
    EXPECT_TRUE(SameResultSet(oracle, llhj)) << "seed " << seed;
  }
}

TEST(Llhj, BatchedFeedingStaysExact) {
  TraceConfig config;
  config.events = 260;
  config.key_domain = 5;
  auto trace = MakeRandomTrace(71, config);
  auto script = BuildDriverScript(trace, WindowSpec::Time(60),
                                  WindowSpec::Time(60));
  auto oracle = RunKangOracle<TR, TS, KeyEq>(script);
  for (int batch : {1, 4, 64}) {
    auto llhj = RunLlhjSequential<KeyEq>(script, LlhjOptions(4), KeyEq{},
                                         batch);
    EXPECT_TRUE(SameResultSet(oracle, llhj)) << "batch " << batch;
  }
}

TEST(Llhj, SmallChannelsStillCorrect) {
  TraceConfig config;
  config.events = 200;
  config.key_domain = 4;
  auto trace = MakeRandomTrace(81, config);
  auto script = BuildDriverScript(trace, WindowSpec::Count(16),
                                  WindowSpec::Count(16));
  auto options = LlhjOptions(4);
  options.channel_capacity = 8;
  auto oracle = RunKangOracle<TR, TS, KeyEq>(script);
  auto llhj = RunLlhjSequential<KeyEq>(script, options);
  EXPECT_TRUE(SameResultSet(oracle, llhj));
}

TEST(Llhj, EmptyScriptQuiesces) {
  DriverScript<TR, TS> script;
  auto results = RunLlhjSequential<KeyEq>(script, LlhjOptions(3));
  EXPECT_TRUE(results.empty());
}

TEST(Llhj, HighWaterMarksAdvanceToLastTimestamps) {
  Trace<TR, TS> trace;
  trace.push_back(ArriveR<TR, TS>(10, TR{1, 0}));
  trace.push_back(ArriveS<TR, TS>(20, TS{2, 1}));
  trace.push_back(ArriveR<TR, TS>(30, TR{3, 2}));
  auto script = BuildDriverScript(trace, WindowSpec::Time(1000),
                                  WindowSpec::Time(1000), false);
  LlhjPipeline<TR, TS, KeyEq> pipeline(LlhjOptions(3));
  CollectingHandler<TR, TS> handler;
  ReplaySequential(pipeline, script, &handler, Gated(pipeline));

  EXPECT_EQ(pipeline.hwm().Get(StreamSide::kR), 30);
  EXPECT_EQ(pipeline.hwm().Get(StreamSide::kS), 20);
  EXPECT_EQ(pipeline.hwm().SafeMin(), 20);
}

}  // namespace
}  // namespace sjoin
