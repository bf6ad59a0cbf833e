// Tests for the public single-query JoinSession: both engines behind one
// push/poll API must produce the Kang reference's result set; window
// bookkeeping, punctuation, threaded and non-threaded operation.
#include <gtest/gtest.h>

#include <vector>

#include "core/join_session.hpp"

#include "kang_join.hpp"
#include "test_util.hpp"

namespace sjoin {
namespace {

using test::KeyEq;
using test::MakeRandomTrace;
using test::SameResultSet;
using test::TR;
using test::TraceConfig;
using test::TS;

std::vector<ResultMsg<TR, TS>> RunFacade(Algorithm algorithm,
                                         const Trace<TR, TS>& trace,
                                         WindowSpec wr, WindowSpec ws,
                                         bool threaded, int parallelism = 4,
                                         bool punctuate = false) {
  CollectingHandler<TR, TS> handler;
  JoinConfig config;
  config.algorithm = algorithm;
  config.parallelism = parallelism;
  config.window_r = wr;
  config.window_s = ws;
  config.threaded = threaded;
  config.punctuate = punctuate;
  // For time windows HSJ needs a live-window estimate to size its segments;
  // it must be a *lower* estimate (smaller segments mean more relocation,
  // which is always correct; larger ones strand tuples). The test traces
  // keep ~17 tuples/side alive in their 50 us windows.
  config.hsj_window_tuples_hint = 16;
  JoinSession<TR, TS, KeyEq> joiner(config);
  joiner.AddQuery(KeyEq{}, &handler);
  for (const auto& e : trace) {
    if (e.side == StreamSide::kR) {
      joiner.PushR(e.r, e.ts);
    } else {
      joiner.PushS(e.s, e.ts);
    }
  }
  joiner.FinishInput();
  joiner.Poll();
  EXPECT_EQ(joiner.pipeline_anomalies(), 0u);
  return handler.results();
}

class FacadeAlgorithms : public ::testing::TestWithParam<Algorithm> {};

TEST_P(FacadeAlgorithms, MatchesOracleNonThreaded) {
  TraceConfig config;
  config.events = 300;
  config.key_domain = 6;
  auto trace = MakeRandomTrace(91, config);
  const WindowSpec wr = WindowSpec::Time(50);
  const WindowSpec ws = WindowSpec::Time(50);

  auto expected = ReferenceResults(trace, wr, ws, KeyEq{});
  ASSERT_FALSE(expected.empty());
  auto actual = RunFacade(GetParam(), trace, wr, ws, /*threaded=*/false);
  EXPECT_TRUE(SameResultSet(expected, actual));
}

TEST_P(FacadeAlgorithms, MatchesOracleThreaded) {
  TraceConfig config;
  config.events = 600;
  config.key_domain = 8;
  auto trace = MakeRandomTrace(92, config);
  // The handshake-join contract requires windows well above the pipeline's
  // own buffering (bounded-lag regime, DESIGN.md); 150 tuples with 4 nodes
  // satisfies it comfortably.
  const WindowSpec wr = WindowSpec::Count(150);
  const WindowSpec ws = WindowSpec::Count(150);

  auto expected = ReferenceResults(trace, wr, ws, KeyEq{});
  auto actual = RunFacade(GetParam(), trace, wr, ws, /*threaded=*/true);
  EXPECT_TRUE(SameResultSet(expected, actual));
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithms, FacadeAlgorithms,
    ::testing::Values(Algorithm::kHandshake, Algorithm::kLowLatency),
    [](const ::testing::TestParamInfo<Algorithm>& info) {
      return std::string(ToString(info.param));
    });

TEST(Facade, AlgorithmNames) {
  EXPECT_STREQ(ToString(Algorithm::kHandshake), "handshake");
  EXPECT_STREQ(ToString(Algorithm::kLowLatency), "llhj");
}

TEST(Facade, NonMonotonicTimestampsAreClamped) {
  CollectingHandler<TR, TS> handler;
  JoinConfig config;
  config.algorithm = Algorithm::kLowLatency;
  config.threaded = false;
  config.window_r = WindowSpec::Time(10);
  config.window_s = WindowSpec::Time(10);
  JoinSession<TR, TS, KeyEq> joiner(config);
  joiner.AddQuery(KeyEq{}, &handler);
  joiner.PushR(TR{1, 0}, 100);
  joiner.PushS(TS{1, 1}, 50);  // clamped to 100 -> still joins
  joiner.FinishInput();
  EXPECT_EQ(handler.results().size(), 1u);
  EXPECT_EQ(joiner.timestamps_clamped(), 1u);
}

TEST(Facade, PunctuatedOutput) {
  TraceConfig tc;
  tc.events = 200;
  tc.key_domain = 4;
  auto trace = MakeRandomTrace(93, tc);
  CollectingHandler<TR, TS> handler;
  JoinConfig config;
  config.algorithm = Algorithm::kLowLatency;
  config.parallelism = 3;
  config.window_r = WindowSpec::Time(60);
  config.window_s = WindowSpec::Time(60);
  config.punctuate = true;
  config.threaded = false;
  JoinSession<TR, TS, KeyEq> joiner(config);
  joiner.AddQuery(KeyEq{}, &handler);
  for (const auto& e : trace) {
    if (e.side == StreamSide::kR) {
      joiner.PushR(e.r, e.ts);
    } else {
      joiner.PushS(e.s, e.ts);
    }
    joiner.Poll();
  }
  joiner.FinishInput();
  EXPECT_GT(handler.punctuations().size(), 0u);
  // Punctuations must be strictly increasing.
  for (std::size_t i = 1; i < handler.punctuations().size(); ++i) {
    EXPECT_LT(handler.punctuations()[i - 1], handler.punctuations()[i]);
  }
}

TEST(Facade, ResultsCollectedCounter) {
  CollectingHandler<TR, TS> handler;
  JoinConfig config;
  config.algorithm = Algorithm::kLowLatency;
  config.parallelism = 2;
  config.window_r = WindowSpec::Count(8);
  config.window_s = WindowSpec::Count(8);
  config.threaded = false;
  JoinSession<TR, TS, KeyEq> joiner(config);
  joiner.AddQuery(KeyEq{}, &handler);
  joiner.PushR(TR{5, 0}, 0);
  joiner.PushS(TS{5, 1}, 1);
  joiner.FinishInput();
  EXPECT_EQ(joiner.results_collected(), 1u);
  EXPECT_EQ(handler.results().size(), 1u);
}

TEST(Facade, InterleavedPollDeliversIncrementally) {
  CollectingHandler<TR, TS> handler;
  JoinConfig config;
  config.algorithm = Algorithm::kLowLatency;
  config.parallelism = 3;
  config.window_r = WindowSpec::Count(100);
  config.window_s = WindowSpec::Count(100);
  config.threaded = false;
  JoinSession<TR, TS, KeyEq> joiner(config);
  joiner.AddQuery(KeyEq{}, &handler);
  joiner.PushR(TR{1, 0}, 0);
  joiner.PushS(TS{1, 1}, 1);
  joiner.Poll();
  EXPECT_EQ(handler.results().size(), 1u);  // available before Finish
  joiner.PushS(TS{1, 2}, 2);
  joiner.Poll();
  EXPECT_EQ(handler.results().size(), 2u);
  joiner.FinishInput();
  EXPECT_EQ(handler.results().size(), 2u);
}

TEST(Facade, StopIsIdempotentAndSafe) {
  CollectingHandler<TR, TS> handler;
  JoinConfig config;
  config.algorithm = Algorithm::kLowLatency;
  config.threaded = true;
  JoinSession<TR, TS, KeyEq> joiner(config);
  joiner.AddQuery(KeyEq{}, &handler);
  joiner.PushR(TR{1, 0}, 0);
  joiner.Stop();
  joiner.Stop();
  SUCCEED();
}

TEST(Facade, SingleNodePipelines) {
  TraceConfig tc;
  tc.events = 120;
  auto trace = MakeRandomTrace(95, tc);
  auto expected = ReferenceResults(trace, WindowSpec::Time(40),
                                   WindowSpec::Time(40), KeyEq{});
  for (Algorithm a : {Algorithm::kHandshake, Algorithm::kLowLatency}) {
    auto actual = RunFacade(a, trace, WindowSpec::Time(40),
                            WindowSpec::Time(40), false, /*parallelism=*/1);
    EXPECT_TRUE(SameResultSet(expected, actual)) << ToString(a);
  }
}

}  // namespace
}  // namespace sjoin
