// Tests for the multi-query, batch-first JoinSession API:
//  * config validation (clear std::invalid_argument on nonsense configs),
//  * query-set rules (register before start, at least one query),
//  * multi-query equivalence: one session with Q predicates produces
//    exactly the results of Q independent single-query reference runs
//    (per-query result sets compared, threaded and non-threaded, both
//    engines),
//  * batch PushR/PushS and the per-tuple loop both matching the Kang
//    reference (tests/kang_join.hpp), at 1 and 2 shards,
//  * QueryId routing and punctuation broadcast,
//  * result rings that overflow between Polls: the exact oracle multiset
//    by the return of FinishInput and no result behind its punctuation
//    (tests/result_overflow.hpp).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <span>
#include <sstream>
#include <tuple>
#include <vector>

#include "core/join_session.hpp"

#include "kang_join.hpp"
#include "result_overflow.hpp"
#include "test_util.hpp"

namespace sjoin {
namespace {

using test::KeyBand;
using test::KeyEq;
using test::MakeRandomTrace;
using test::SameResultSet;
using test::TR;
using test::TraceConfig;
using test::TS;

JoinConfig BaseConfig(Algorithm algorithm, WindowSpec wr, WindowSpec ws,
                      bool threaded, int parallelism = 3) {
  JoinConfig config;
  config.algorithm = algorithm;
  config.parallelism = parallelism;
  config.window_r = wr;
  config.window_s = ws;
  config.threaded = threaded;
  config.hsj_window_tuples_hint = 16;
  return config;
}

/// Pushes a trace event by event (per-tuple path).
template <typename Joinable>
void FeedPerTuple(Joinable& join, const Trace<TR, TS>& trace) {
  for (const auto& e : trace) {
    if (e.side == StreamSide::kR) {
      join.PushR(e.r, e.ts);
    } else {
      join.PushS(e.s, e.ts);
    }
  }
}

/// Pushes a trace as batch spans: maximal same-side runs (capped at
/// `max_batch`) are handed to the span overloads.
template <typename Joinable>
void FeedBatched(Joinable& join, const Trace<TR, TS>& trace,
                 std::size_t max_batch) {
  std::vector<TR> rs;
  std::vector<TS> ss;
  std::vector<Timestamp> tss;
  std::size_t i = 0;
  while (i < trace.size()) {
    const StreamSide side = trace[i].side;
    rs.clear();
    ss.clear();
    tss.clear();
    while (i < trace.size() && trace[i].side == side &&
           tss.size() < max_batch) {
      if (side == StreamSide::kR) {
        rs.push_back(trace[i].r);
      } else {
        ss.push_back(trace[i].s);
      }
      tss.push_back(trace[i].ts);
      ++i;
    }
    if (side == StreamSide::kR) {
      join.PushR(std::span<const TR>(rs), std::span<const Timestamp>(tss));
    } else {
      join.PushS(std::span<const TS>(ss), std::span<const Timestamp>(tss));
    }
  }
}

/// A session of `shards` shards over BaseConfig. KeyEq declares no shard
/// keys here, so kAuto replicates R and splits S by sequence number.
ShardedJoinConfig ShardedConfig(Algorithm algorithm, WindowSpec wr,
                                WindowSpec ws, bool threaded, int shards) {
  return ShardedJoinConfig{BaseConfig(algorithm, wr, ws, threaded), shards,
                           PartitionPolicy::kAuto};
}

// -- Config validation -------------------------------------------------------

TEST(SessionValidation, RejectsNonPositiveParallelism) {
  JoinConfig config;
  config.parallelism = 0;
  EXPECT_THROW(ValidateJoinConfig(config), std::invalid_argument);
  config.parallelism = -3;
  try {
    ValidateJoinConfig(config);
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("parallelism"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("-3"), std::string::npos);
  }
}

TEST(SessionValidation, RejectsZeroCapacities) {
  JoinConfig config;
  config.channel_capacity = 0;
  try {
    ValidateJoinConfig(config);
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("channel_capacity"),
              std::string::npos);
    EXPECT_NE(std::string(e.what()).find("got 0"), std::string::npos);
  }
  config.channel_capacity = 1024;
  config.result_capacity = 0;
  try {
    ValidateJoinConfig(config);
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("result_capacity"),
              std::string::npos);
    EXPECT_NE(std::string(e.what()).find("got 0"), std::string::npos);
  }
}

TEST(SessionValidation, RejectsNegativeHsjWindowTuplesHint) {
  // The hint is optional (0 = not given), but when given it must be a
  // usable window size — a negative value is a usage error for EVERY
  // algorithm, not just HSJ over time windows.
  JoinConfig config;
  config.hsj_window_tuples_hint = -5;
  try {
    ValidateJoinConfig(config);
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("hsj_window_tuples_hint"),
              std::string::npos);
    EXPECT_NE(std::string(e.what()).find("-5"), std::string::npos);
  }
  config.hsj_window_tuples_hint = 0;  // "not given" stays valid
  EXPECT_NO_THROW(ValidateJoinConfig(config));
  config.hsj_window_tuples_hint = 1;  // smallest usable hint
  EXPECT_NO_THROW(ValidateJoinConfig(config));
}

TEST(SessionValidation, RejectsTimeWindowHsjWithoutHint) {
  JoinConfig config;
  config.algorithm = Algorithm::kHandshake;
  config.window_r = WindowSpec::Time(1'000'000);
  config.window_s = WindowSpec::Count(128);
  config.hsj_window_tuples_hint = 0;
  try {
    ValidateJoinConfig(config);
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("hsj_window_tuples_hint"),
              std::string::npos);
  }
  // The hint fixes it; count windows never need it.
  config.hsj_window_tuples_hint = 64;
  EXPECT_NO_THROW(ValidateJoinConfig(config));
  config.hsj_window_tuples_hint = 0;
  config.window_r = WindowSpec::Count(128);
  EXPECT_NO_THROW(ValidateJoinConfig(config));
  // LLHJ sizes nothing from the hint — time windows are fine without it.
  config.algorithm = Algorithm::kLowLatency;
  config.window_r = WindowSpec::Time(1'000'000);
  EXPECT_NO_THROW(ValidateJoinConfig(config));
}

TEST(SessionValidation, RejectsNegativeLatencyBudget) {
  JoinConfig config;
  config.latency_budget_us = -250;
  try {
    ValidateJoinConfig(config);
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("latency_budget_us"),
              std::string::npos);
    EXPECT_NE(std::string(e.what()).find("-250"), std::string::npos)
        << "error must name the offending value: " << e.what();
  }
  config.latency_budget_us = 0;  // "disabled" stays valid
  EXPECT_NO_THROW(ValidateJoinConfig(config));
}

TEST(SessionValidation, RejectsSheddingPolicyWithoutBudget) {
  // A policy with nothing to shed against would silently never shed —
  // reject the combination and name both knobs.
  JoinConfig config;
  config.overload_policy = OverloadPolicy::kDropNewest;
  config.latency_budget_us = 0;
  try {
    ValidateJoinConfig(config);
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("drop_newest"), std::string::npos)
        << "error must name the offending policy: " << e.what();
    EXPECT_NE(std::string(e.what()).find("latency_budget_us"),
              std::string::npos);
  }
  // A budget makes every policy valid; so does dropping the policy.
  config.latency_budget_us = 1000;
  for (OverloadPolicy ok :
       {OverloadPolicy::kNone, OverloadPolicy::kDropNewest,
        OverloadPolicy::kSample}) {
    config.overload_policy = ok;
    EXPECT_NO_THROW(ValidateJoinConfig(config));
  }
  config.latency_budget_us = 0;
  config.overload_policy = OverloadPolicy::kNone;
  EXPECT_NO_THROW(ValidateJoinConfig(config));
}

TEST(SessionValidation, RejectsOutOfRangePlacement) {
  JoinConfig config;
  config.placement = static_cast<PlacementPolicy>(17);  // not a policy
  try {
    ValidateJoinConfig(config);
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("placement"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("17"), std::string::npos)
        << "error must name the offending value: " << e.what();
  }
  for (PlacementPolicy ok :
       {PlacementPolicy::kAuto, PlacementPolicy::kCompact,
        PlacementPolicy::kScatter, PlacementPolicy::kNone}) {
    config.placement = ok;
    EXPECT_NO_THROW(ValidateJoinConfig(config));
  }
}

TEST(SessionValidation, RejectsOutOfRangeAlgorithm) {
  // An unchecked value would build no engine at Start.
  JoinConfig config;
  config.algorithm = static_cast<Algorithm>(7);  // not an engine
  try {
    ValidateJoinConfig(config);
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("algorithm"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("7"), std::string::npos)
        << "error must name the offending value: " << e.what();
  }
  EXPECT_THROW((JoinSession<TR, TS, KeyEq>(config)), std::invalid_argument);
  for (Algorithm ok : {Algorithm::kHandshake, Algorithm::kLowLatency}) {
    config.algorithm = ok;
    EXPECT_NO_THROW(ValidateJoinConfig(config));
  }
}

// All four placement policies over an injected synthetic multi-node
// topology produce the exact per-query oracle result sets: placement moves
// threads and channel memory, never results. The injected topology also
// proves the session uses the configured hardware model instead of
// re-detecting (the config's topology reaches the pipeline's channel
// construction through the session's cached plan).
TEST(SessionPlacement, PoliciesProduceIdenticalResultsOnSyntheticTopology) {
  TraceConfig tc;
  tc.events = 400;
  tc.key_domain = 8;
  auto trace = MakeRandomTrace(191, tc);
  const WindowSpec wr = WindowSpec::Count(100);
  const WindowSpec ws = WindowSpec::Count(100);
  const std::vector<KeyBand> preds = {KeyBand{0}, KeyBand{2}};

  Topology::SyntheticShape shape;
  shape.nodes_per_package = 2;
  shape.cores_per_node = 3;
  auto topo = std::make_shared<const Topology>(Topology::Synthetic(shape));

  for (PlacementPolicy policy :
       {PlacementPolicy::kAuto, PlacementPolicy::kCompact,
        PlacementPolicy::kScatter, PlacementPolicy::kNone}) {
    JoinConfig config =
        BaseConfig(Algorithm::kLowLatency, wr, ws, /*threaded=*/true);
    config.placement = policy;
    config.topology = topo;
    JoinSession<TR, TS, KeyBand> session(config);
    std::vector<CollectingHandler<TR, TS>> handlers(preds.size());
    for (std::size_t q = 0; q < preds.size(); ++q) {
      session.AddQuery(preds[q], &handlers[q]);
    }
    FeedBatched(session, trace, 16);
    session.FinishInput();
    session.Stop();
    EXPECT_EQ(session.pipeline_anomalies(), 0u)
        << "policy " << ToString(policy);

    for (std::size_t q = 0; q < preds.size(); ++q) {
      auto expected = ReferenceResults(trace, wr, ws, preds[q]);
      EXPECT_TRUE(SameResultSet(expected, handlers[q].results()))
          << "policy " << ToString(policy) << " query " << q;
    }
  }
}

TEST(SessionValidation, ConstructorValidates) {
  JoinConfig config;
  config.parallelism = 0;
  EXPECT_THROW((JoinSession<TR, TS, KeyEq>(config)), std::invalid_argument);
  EXPECT_THROW((JoinSession<TR, TS, KeyEq>(
                   ShardedJoinConfig{config, 1, PartitionPolicy::kAuto})),
               std::invalid_argument);
}

TEST(SessionValidation, QuerySetRules) {
  JoinConfig config;
  config.threaded = false;
  config.window_r = WindowSpec::Count(16);
  config.window_s = WindowSpec::Count(16);
  JoinSession<TR, TS, KeyEq> session(config);
  // No queries registered: pushing is a usage error, and the message names
  // the session state it observed (ValidateJoinConfig convention).
  try {
    session.PushR(TR{1, 0}, 0);
    FAIL() << "expected logic_error";
  } catch (const std::logic_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("0 live queries"), std::string::npos) << what;
    EXPECT_NE(what.find("not started"), std::string::npos) << what;
    EXPECT_NE(what.find("0 registered"), std::string::npos) << what;
  }
  auto q0 = session.AddQuery(KeyEq{}, nullptr);
  session.PushR(TR{1, 0}, 0);
  // Live lifecycle: AddQuery after ingestion stages a new epoch instead of
  // throwing (the PR 2 freeze rule is gone).
  EXPECT_EQ(session.current_epoch(), 0u);
  auto q1 = session.AddQuery(KeyEq{}, nullptr);
  EXPECT_EQ(session.current_epoch(), 1u);
  session.PushS(TS{1, 1}, 1);
  session.FinishInput();
  // Both queries see the (r, s) pair: its later input arrived in epoch 1,
  // where both are members.
  EXPECT_EQ(session.results_collected(q0.id), 1u);
  EXPECT_EQ(session.results_collected(q1.id), 1u);
  // Removing an unknown/already-removed handle reports failure.
  EXPECT_TRUE(session.RemoveQuery(q1));
  EXPECT_FALSE(session.RemoveQuery(q1));
  EXPECT_FALSE(session.RemoveQuery({99}));
}

// -- Multi-query equivalence -------------------------------------------------

class SessionAlgorithms : public ::testing::TestWithParam<Algorithm> {};

TEST_P(SessionAlgorithms, MultiQueryMatchesIndependentJoinersNonThreaded) {
  TraceConfig tc;
  tc.events = 300;
  tc.key_domain = 8;
  auto trace = MakeRandomTrace(171, tc);
  const WindowSpec wr = WindowSpec::Time(50);
  const WindowSpec ws = WindowSpec::Time(50);
  const std::vector<KeyBand> preds = {KeyBand{0}, KeyBand{1}, KeyBand{3}};

  JoinSession<TR, TS, KeyBand> session(
      BaseConfig(GetParam(), wr, ws, /*threaded=*/false));
  std::vector<CollectingHandler<TR, TS>> handlers(preds.size());
  for (std::size_t q = 0; q < preds.size(); ++q) {
    auto handle = session.AddQuery(preds[q], &handlers[q]);
    EXPECT_EQ(handle.id, q);
  }
  FeedPerTuple(session, trace);
  session.FinishInput();
  session.Poll();
  EXPECT_EQ(session.pipeline_anomalies(), 0u);

  for (std::size_t q = 0; q < preds.size(); ++q) {
    auto expected = ReferenceResults(trace, wr, ws, preds[q]);
    EXPECT_FALSE(expected.empty()) << "weak oracle for query " << q;
    EXPECT_TRUE(SameResultSet(expected, handlers[q].results()))
        << "query " << q << " (band " << preds[q].width << ")";
    EXPECT_EQ(session.results_collected(static_cast<QueryId>(q)),
              handlers[q].results().size());
    for (const auto& m : handlers[q].results()) {
      EXPECT_EQ(m.query, q);
    }
  }
}

TEST_P(SessionAlgorithms, MultiQueryMatchesIndependentJoinersThreaded) {
  TraceConfig tc;
  tc.events = 500;
  tc.key_domain = 8;
  auto trace = MakeRandomTrace(172, tc);
  // Count windows well above pipeline buffering (bounded-lag regime).
  const WindowSpec wr = WindowSpec::Count(120);
  const WindowSpec ws = WindowSpec::Count(120);
  const std::vector<KeyBand> preds = {KeyBand{0}, KeyBand{2}};

  JoinSession<TR, TS, KeyBand> session(
      BaseConfig(GetParam(), wr, ws, /*threaded=*/true));
  std::vector<CollectingHandler<TR, TS>> handlers(preds.size());
  for (std::size_t q = 0; q < preds.size(); ++q) {
    session.AddQuery(preds[q], &handlers[q]);
  }
  FeedPerTuple(session, trace);
  session.FinishInput();
  session.Stop();
  EXPECT_EQ(session.pipeline_anomalies(), 0u);

  for (std::size_t q = 0; q < preds.size(); ++q) {
    auto expected = ReferenceResults(trace, wr, ws, preds[q]);
    EXPECT_TRUE(SameResultSet(expected, handlers[q].results()))
        << "query " << q;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithms, SessionAlgorithms,
    ::testing::Values(Algorithm::kHandshake, Algorithm::kLowLatency),
    [](const ::testing::TestParamInfo<Algorithm>& info) {
      return std::string(ToString(info.param));
    });

// -- Batch push equivalence --------------------------------------------------

class BatchPush : public ::testing::TestWithParam<Algorithm> {};

// A tuple push is a span of one, so per-tuple and span pushes run the same
// staged path: both are held to the independent Kang reference instead of
// to each other, at 1 and 2 shards.

/// Runs `trace` through a session of `shards` shards, per tuple
/// (max_batch 0) or as spans of up to `max_batch`.
std::vector<ResultMsg<TR, TS>> RunSharded(Algorithm algorithm,
                                          const Trace<TR, TS>& trace,
                                          WindowSpec wr, WindowSpec ws,
                                          bool threaded, int shards,
                                          std::size_t max_batch) {
  CollectingHandler<TR, TS> handler;
  JoinSession<TR, TS, KeyEq> session(
      ShardedConfig(algorithm, wr, ws, threaded, shards));
  session.AddQuery(KeyEq{}, &handler);
  if (max_batch == 0) {
    FeedPerTuple(session, trace);
  } else {
    FeedBatched(session, trace, max_batch);
  }
  session.FinishInput();
  session.Stop();
  EXPECT_EQ(session.pipeline_anomalies(), 0u)
      << "shards " << shards << " max_batch " << max_batch;
  return handler.results();
}

TEST_P(BatchPush, SpansMatchPerTupleLoopNonThreaded) {
  TraceConfig tc;
  tc.events = 400;
  tc.key_domain = 6;
  tc.r_fraction = 0.55;  // uneven sides => longer same-side runs
  auto trace = MakeRandomTrace(173, tc);
  const WindowSpec wr = WindowSpec::Time(60);
  const WindowSpec ws = WindowSpec::Time(60);
  const auto oracle = ReferenceResults(trace, wr, ws, KeyEq{});
  ASSERT_FALSE(oracle.empty());

  for (int shards : {1, 2}) {
    for (std::size_t max_batch : {0u, 1u, 7u, 64u}) {
      EXPECT_TRUE(SameResultSet(
          oracle, RunSharded(GetParam(), trace, wr, ws, /*threaded=*/false,
                             shards, max_batch)))
          << "shards " << shards << " max_batch " << max_batch;
    }
  }
}

TEST_P(BatchPush, SpansMatchPerTupleLoopThreaded) {
  TraceConfig tc;
  tc.events = 600;
  tc.key_domain = 8;
  auto trace = MakeRandomTrace(174, tc);
  const WindowSpec wr = WindowSpec::Count(150);
  const WindowSpec ws = WindowSpec::Count(150);
  const auto oracle = ReferenceResults(trace, wr, ws, KeyEq{});

  for (int shards : {1, 2}) {
    EXPECT_TRUE(SameResultSet(
        oracle, RunSharded(GetParam(), trace, wr, ws, /*threaded=*/false,
                           shards, /*max_batch=*/0)))
        << "shards " << shards;
    EXPECT_TRUE(SameResultSet(
        oracle, RunSharded(GetParam(), trace, wr, ws, /*threaded=*/true,
                           shards, /*max_batch=*/32)))
        << "shards " << shards;
  }
}

INSTANTIATE_TEST_SUITE_P(
    PipelineAlgorithms, BatchPush,
    ::testing::Values(Algorithm::kHandshake, Algorithm::kLowLatency),
    [](const ::testing::TestParamInfo<Algorithm>& info) {
      return std::string(ToString(info.param));
    });

TEST_P(BatchPush, TinyCountWindowsMatchPerTupleLoopNonThreaded) {
  // Regression: count windows below the entry-channel capacity floor (8)
  // force an expiry on nearly every arrival; the batch path must not let
  // the driver run a window ahead of the undrained pipeline (HSJ
  // bounded-lag exactness — the pipeline drains at every expiry).
  TraceConfig tc;
  tc.events = 500;
  tc.key_domain = 4;
  auto trace = MakeRandomTrace(176, tc);
  for (int64_t window : {2, 4, 6}) {
    const WindowSpec wr = WindowSpec::Count(window);
    const WindowSpec ws = WindowSpec::Count(window);
    const auto oracle = ReferenceResults(trace, wr, ws, KeyEq{});
    for (int shards : {1, 2}) {
      if (GetParam() == Algorithm::kHandshake && shards > 1) {
        // A thinned window this small is below the handshake join's
        // chase-convergence envelope: the config is rejected up front.
        EXPECT_THROW((JoinSession<TR, TS, KeyEq>(ShardedConfig(
                         GetParam(), wr, ws, /*threaded=*/false, shards))),
                     std::invalid_argument);
        continue;
      }
      for (std::size_t max_batch : {0u, 64u}) {
        EXPECT_TRUE(SameResultSet(
            oracle, RunSharded(GetParam(), trace, wr, ws, /*threaded=*/false,
                               shards, max_batch)))
            << "window " << window << " shards " << shards << " max_batch "
            << max_batch;
      }
    }
  }
}

TEST(BatchPushApi, MismatchedSpansThrow) {
  JoinConfig config;
  config.threaded = false;
  JoinSession<TR, TS, KeyEq> session(config);
  session.AddQuery(KeyEq{}, nullptr);
  std::vector<TR> rs(3);
  std::vector<Timestamp> tss(2);
  EXPECT_THROW(session.PushR(std::span<const TR>(rs),
                             std::span<const Timestamp>(tss)),
               std::invalid_argument);
}

// The push call is the arrival: every tuple of one span carries the call's
// one wall stamp, so the results its tuples produce share one
// ready_wall_ns, and a later call's results carry a later one.
TEST(BatchPushApi, SpanResultsShareOneReadyStamp) {
  JoinConfig config;
  config.threaded = false;
  config.parallelism = 2;
  config.window_r = WindowSpec::Count(64);
  config.window_s = WindowSpec::Count(64);
  JoinSession<TR, TS, KeyEq> session(config);
  CollectingHandler<TR, TS> handler;
  session.AddQuery(KeyEq{}, &handler);
  constexpr int kSpan = 16;
  std::vector<TR> rs;
  std::vector<TS> ss;
  std::vector<Timestamp> tss;
  for (int i = 0; i < kSpan; ++i) {
    rs.push_back(TR{i, i});
    ss.push_back(TS{i, i});
    tss.push_back(i);
  }
  session.PushR(std::span<const TR>(rs), std::span<const Timestamp>(tss));
  session.PushS(std::span<const TS>(ss), std::span<const Timestamp>(tss));
  session.Poll();
  ASSERT_EQ(handler.results().size(), static_cast<std::size_t>(kSpan));
  const int64_t first = handler.results().front().ready_wall_ns;
  EXPECT_GT(first, 0);
  for (const auto& m : handler.results()) EXPECT_EQ(m.ready_wall_ns, first);

  // A second S span: its results share a stamp of their own.
  session.PushS(std::span<const TS>(ss), std::span<const Timestamp>(tss));
  session.FinishInput();
  ASSERT_EQ(handler.results().size(), static_cast<std::size_t>(2 * kSpan));
  const int64_t second = handler.results().back().ready_wall_ns;
  EXPECT_GT(second, first);
  for (std::size_t i = kSpan; i < handler.results().size(); ++i) {
    EXPECT_EQ(handler.results()[i].ready_wall_ns, second);
  }
  EXPECT_EQ(session.merged_latency_histogram().count(),
            session.results_collected());
}

// A timestamp behind the session's last one (either side) is raised to it
// and counted; an equal timestamp is not a regression.
TEST(BatchPushApi, RegressingTimestampsAreCounted) {
  JoinConfig config;
  config.threaded = false;
  JoinSession<TR, TS, KeyEq> session(config);
  session.AddQuery(KeyEq{}, nullptr);
  session.PushR(TR{1, 0}, 100);
  session.PushS(TS{1, 0}, 100);  // equal: not clamped
  EXPECT_EQ(session.timestamps_clamped(), 0u);
  constexpr uint64_t kRegressing = 5;
  for (uint64_t i = 0; i < kRegressing; ++i) {
    session.PushS(TS{1, 1}, static_cast<Timestamp>(10 * i));
  }
  const std::vector<TR> rs(3, TR{1, 2});
  const std::vector<Timestamp> tss = {99, 200, 150};  // 99 and 150 regress
  session.PushR(std::span<const TR>(rs), std::span<const Timestamp>(tss));
  session.FinishInput();
  EXPECT_EQ(session.timestamps_clamped(), kRegressing + 2);
  // Clamped tuples still join: the first pair, each later S with the first
  // R, and each of the 3 later Rs with all 6 Ss.
  EXPECT_EQ(session.results_collected(), 1u + kRegressing + 3 * 6);
}

// -- Routing details ---------------------------------------------------------

TEST(SessionRouting, NullHandlerCountsOnly) {
  JoinConfig config;
  config.threaded = false;
  config.window_r = WindowSpec::Count(16);
  config.window_s = WindowSpec::Count(16);
  JoinSession<TR, TS, KeyEq> session(config);
  CollectingHandler<TR, TS> collected;
  auto q0 = session.AddQuery(KeyEq{}, nullptr);       // count only
  auto q1 = session.AddQuery(KeyEq{}, &collected);    // same predicate
  session.PushR(TR{7, 0}, 0);
  session.PushS(TS{7, 1}, 1);
  session.FinishInput();
  EXPECT_EQ(session.results_collected(q0.id), 1u);
  EXPECT_EQ(session.results_collected(q1.id), 1u);
  ASSERT_EQ(collected.results().size(), 1u);
  EXPECT_EQ(collected.results()[0].query, q1.id);
  EXPECT_EQ(session.results_collected(), 2u);
}

// -- Live query lifecycle (epoch-tagged query sets) --------------------------
//
// Oracle model: a churn scenario is a list of (position, action) mutations
// over a trace; each mutation installs one epoch, so the epoch active at
// trace position i is the number of mutations at positions <= i. A result
// is attributed to the epoch of its LATER input (that is when the pair is
// evaluated), so the expected result set of query q is: all pairs matching
// q's predicate whose later input lies in an epoch where q was live. The
// oracle replays the full trace through the Kang reference per query,
// stamps each result with the epoch at its later input's trace position,
// then filters by q's live interval — a frozen-set replay per epoch,
// exactly the acceptance model.

struct ChurnAction {
  std::size_t pos;        ///< applied before trace[pos]
  int add_width = -1;     ///< >= 0: AddQuery(KeyBand{add_width})
  int remove_query = -1;  ///< >= 0: RemoveQuery(global id)
};

struct ChurnScenario {
  std::vector<KeyBand> initial;      ///< epoch-0 queries
  std::vector<ChurnAction> actions;  ///< sorted by pos; one epoch each
};

/// Live interval [first_epoch, last_epoch] of query `q` under `scenario`
/// (global ids: initial queries first, then adds in action order).
std::pair<Epoch, Epoch> LiveInterval(const ChurnScenario& scenario,
                                     QueryId q) {
  Epoch first = 0;
  Epoch last = static_cast<Epoch>(scenario.actions.size());
  QueryId next_added = static_cast<QueryId>(scenario.initial.size());
  for (std::size_t a = 0; a < scenario.actions.size(); ++a) {
    const Epoch installed = static_cast<Epoch>(a + 1);
    if (scenario.actions[a].add_width >= 0) {
      if (next_added == q) first = installed;
      ++next_added;
    }
    if (scenario.actions[a].remove_query == static_cast<int>(q)) {
      last = installed - 1;  // member up to and including the prior epoch
    }
  }
  return {first, last};
}

KeyBand PredOf(const ChurnScenario& scenario, QueryId q) {
  if (q < scenario.initial.size()) return scenario.initial[q];
  QueryId next = static_cast<QueryId>(scenario.initial.size());
  for (const ChurnAction& a : scenario.actions) {
    if (a.add_width < 0) continue;
    if (next == q) return KeyBand{a.add_width};
    ++next;
  }
  ADD_FAILURE() << "unknown query " << q;
  return KeyBand{0};
}

std::size_t TotalQueries(const ChurnScenario& scenario) {
  std::size_t n = scenario.initial.size();
  for (const ChurnAction& a : scenario.actions) n += a.add_width >= 0 ? 1 : 0;
  return n;
}

/// Expected results of query `q`: frozen-set Kang replay of the whole
/// trace with q's predicate, epoch-stamped, filtered to q's live interval.
std::vector<ResultMsg<TR, TS>> EpochOracleFor(const ChurnScenario& scenario,
                                              const Trace<TR, TS>& trace,
                                              WindowSpec wr, WindowSpec ws,
                                              QueryId q) {
  // Trace position of each side's seqs (every arrival is admitted), and
  // the epoch active there: one per mutation at or before it.
  std::vector<std::size_t> pos_r;
  std::vector<std::size_t> pos_s;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    (trace[i].side == StreamSide::kR ? pos_r : pos_s).push_back(i);
  }
  const auto epoch_at = [&](std::size_t i) {
    Epoch epoch = 0;
    for (const ChurnAction& a : scenario.actions) epoch += a.pos <= i ? 1 : 0;
    return epoch;
  };
  const auto [first, last] = LiveInterval(scenario, q);
  std::vector<ResultMsg<TR, TS>> expected;
  for (ResultMsg<TR, TS> m :
       ReferenceResults(trace, wr, ws, PredOf(scenario, q))) {
    m.epoch = epoch_at(std::max(pos_r[m.r_seq], pos_s[m.s_seq]));
    if (m.epoch >= first && m.epoch <= last) expected.push_back(m);
  }
  return expected;
}

/// Multiset equality over (r_seq, s_seq, epoch) — attribution included.
::testing::AssertionResult SameEpochResultSet(
    const std::vector<ResultMsg<TR, TS>>& expected,
    const std::vector<ResultMsg<TR, TS>>& actual) {
  std::map<std::tuple<Seq, Seq, Epoch>, int> want, got;
  for (const auto& m : expected) want[{m.r_seq, m.s_seq, m.epoch}]++;
  for (const auto& m : actual) got[{m.r_seq, m.s_seq, m.epoch}]++;
  if (want == got) return ::testing::AssertionSuccess();
  std::ostringstream oss;
  for (const auto& [k, n] : want) {
    auto it = got.find(k);
    if (it == got.end() || it->second != n) {
      oss << "want (r" << std::get<0>(k) << ", s" << std::get<1>(k)
          << ", e" << std::get<2>(k) << ") x" << n << " got "
          << (it == got.end() ? 0 : it->second) << "\n";
    }
  }
  for (const auto& [k, n] : got) {
    if (want.find(k) == want.end()) {
      oss << "extra (r" << std::get<0>(k) << ", s" << std::get<1>(k)
          << ", e" << std::get<2>(k) << ") x" << n << "\n";
    }
  }
  oss << "expected " << expected.size() << " results, got " << actual.size();
  return ::testing::AssertionFailure() << oss.str();
}

struct ChurnRun {
  std::vector<std::vector<ResultMsg<TR, TS>>> per_query;
  std::vector<QueryId> retired;
  uint64_t anomalies = 0;
  Epoch final_epoch = 0;
  Epoch drained_epoch = 0;
};

/// Runs a churn scenario on a live session (any engine, threaded or not).
ChurnRun RunChurnScenario(const ChurnScenario& scenario,
                          const Trace<TR, TS>& trace, WindowSpec wr,
                          WindowSpec ws, Algorithm algorithm, bool threaded,
                          int parallelism = 3) {
  JoinSession<TR, TS, KeyBand> session(
      BaseConfig(algorithm, wr, ws, threaded, parallelism));
  const std::size_t total = TotalQueries(scenario);
  std::vector<std::unique_ptr<CollectingHandler<TR, TS>>> handlers;
  std::vector<JoinSession<TR, TS, KeyBand>::QueryHandle> handles;
  for (std::size_t q = 0; q < scenario.initial.size(); ++q) {
    handlers.push_back(std::make_unique<CollectingHandler<TR, TS>>());
    handles.push_back(
        session.AddQuery(scenario.initial[q], handlers.back().get()));
  }
  std::size_t next_action = 0;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    while (next_action < scenario.actions.size() &&
           scenario.actions[next_action].pos == i) {
      const ChurnAction& action = scenario.actions[next_action];
      if (action.add_width >= 0) {
        handlers.push_back(std::make_unique<CollectingHandler<TR, TS>>());
        handles.push_back(session.AddQuery(KeyBand{action.add_width},
                                           handlers.back().get()));
      }
      if (action.remove_query >= 0) {
        EXPECT_TRUE(session.RemoveQuery(
            handles[static_cast<std::size_t>(action.remove_query)]));
      }
      ++next_action;
    }
    if (trace[i].side == StreamSide::kR) {
      session.PushR(trace[i].r, trace[i].ts);
    } else {
      session.PushS(trace[i].s, trace[i].ts);
    }
  }
  session.FinishInput();
  session.Poll();
  session.Stop();

  ChurnRun run;
  run.anomalies = session.pipeline_anomalies();
  run.final_epoch = session.current_epoch();
  run.drained_epoch = session.drained_epoch();
  EXPECT_EQ(handlers.size(), total);
  for (std::size_t q = 0; q < total; ++q) {
    run.per_query.push_back(handlers[q]->results());
    for (QueryId r : handlers[q]->retired_queries()) run.retired.push_back(r);
  }
  return run;
}

void CheckChurnAgainstOracle(const ChurnScenario& scenario,
                             const Trace<TR, TS>& trace, WindowSpec wr,
                             WindowSpec ws, const ChurnRun& run) {
  EXPECT_EQ(run.anomalies, 0u);
  EXPECT_EQ(run.final_epoch, scenario.actions.size());
  for (QueryId q = 0; q < run.per_query.size(); ++q) {
    auto expected = EpochOracleFor(scenario, trace, wr, ws, q);
    EXPECT_TRUE(SameEpochResultSet(expected, run.per_query[q]))
        << "query " << q;
    for (const auto& m : run.per_query[q]) {
      EXPECT_EQ(m.query, q) << "misrouted result";
    }
  }
}

class SessionChurn : public ::testing::TestWithParam<Algorithm> {};

// (a) Results straddling an epoch install are attributed to the correct
// set — deterministic non-threaded run, exact (r_seq, s_seq, epoch)
// multiset against the per-epoch frozen-set oracle.
TEST_P(SessionChurn, StraddlingResultsAttributedToCorrectEpochNonThreaded) {
  TraceConfig tc;
  tc.events = 400;
  tc.key_domain = 8;
  auto trace = MakeRandomTrace(181, tc);
  const WindowSpec wr = WindowSpec::Time(50);
  const WindowSpec ws = WindowSpec::Time(50);
  ChurnScenario scenario;
  scenario.initial = {KeyBand{0}, KeyBand{2}};
  scenario.actions = {
      {100, /*add_width=*/1, /*remove_query=*/-1},  // epoch 1: add q2
      {200, /*add_width=*/-1, /*remove_query=*/1},  // epoch 2: remove q1
      {300, /*add_width=*/3, /*remove_query=*/-1},  // epoch 3: add q3
  };
  const ChurnRun run = RunChurnScenario(scenario, trace, wr, ws, GetParam(),
                                        /*threaded=*/false);
  CheckChurnAgainstOracle(scenario, trace, wr, ws, run);
  // The removed query received its final punctuation and nothing after it.
  EXPECT_NE(std::find(run.retired.begin(), run.retired.end(), QueryId{1}),
            run.retired.end())
      << "removed query was never retired";
}

// (b) Add/remove under the THREADED executor matches the scalar
// single-epoch oracle replay, on both engines.
TEST_P(SessionChurn, ChurnUnderThreadedExecutorMatchesOracle) {
  TraceConfig tc;
  tc.events = 600;
  tc.key_domain = 8;
  auto trace = MakeRandomTrace(182, tc);
  // Count windows well above pipeline buffering (bounded-lag regime).
  const WindowSpec wr = WindowSpec::Count(120);
  const WindowSpec ws = WindowSpec::Count(120);
  ChurnScenario scenario;
  scenario.initial = {KeyBand{0}, KeyBand{2}};
  scenario.actions = {
      {150, 1, -1},   // epoch 1: add q2
      {300, -1, 0},   // epoch 2: remove q0
      {450, 4, -1},   // epoch 3: add q3
  };
  const ChurnRun run = RunChurnScenario(scenario, trace, wr, ws, GetParam(),
                                        /*threaded=*/true);
  CheckChurnAgainstOracle(scenario, trace, wr, ws, run);
  EXPECT_NE(std::find(run.retired.begin(), run.retired.end(), QueryId{0}),
            run.retired.end())
      << "removed query was never retired";
  EXPECT_GE(run.drained_epoch, 2u)
      << "epoch with the removal never reported drained";
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithms, SessionChurn,
    ::testing::Values(Algorithm::kHandshake, Algorithm::kLowLatency),
    [](const ::testing::TestParamInfo<Algorithm>& info) {
      return std::string(ToString(info.param));
    });

// (c) Forced-scalar and the host's best SIMD level agree across an epoch
// switch: the fused-scan path is re-pointed at each epoch's predicate
// lanes without re-freezing, and both dispatch levels emit the identical
// (r_seq, s_seq, epoch) multiset.
TEST(SessionChurn, ScalarAndSimdAgreeAcrossEpochSwitch) {
  TraceConfig tc;
  tc.events = 500;
  tc.key_domain = 8;
  auto trace = MakeRandomTrace(183, tc);
  const WindowSpec wr = WindowSpec::Time(60);
  const WindowSpec ws = WindowSpec::Time(60);
  ChurnScenario scenario;
  scenario.initial = {KeyBand{1}};
  scenario.actions = {
      {120, 2, -1},   // epoch 1: add
      {320, -1, 0},   // epoch 2: remove the original query
  };
  for (Algorithm algorithm :
       {Algorithm::kHandshake, Algorithm::kLowLatency}) {
    const SimdLevel best = OverrideSimdLevel(DetectedSimdLevel());
    const ChurnRun simd = RunChurnScenario(scenario, trace, wr, ws, algorithm,
                                           /*threaded=*/false);
    OverrideSimdLevel(SimdLevel::kScalar);
    const ChurnRun scalar = RunChurnScenario(scenario, trace, wr, ws,
                                             algorithm, /*threaded=*/false);
    ClearSimdLevelOverride();
    ASSERT_EQ(simd.per_query.size(), scalar.per_query.size());
    for (std::size_t q = 0; q < simd.per_query.size(); ++q) {
      EXPECT_TRUE(SameEpochResultSet(scalar.per_query[q], simd.per_query[q]))
          << ToString(algorithm) << " level " << static_cast<int>(best)
          << " vs scalar, query " << q;
    }
    CheckChurnAgainstOracle(scenario, trace, wr, ws, scalar);
  }
}

TEST(SessionRouting, PunctuationsBroadcastToAllQueries) {
  TraceConfig tc;
  tc.events = 200;
  tc.key_domain = 4;
  auto trace = MakeRandomTrace(175, tc);
  JoinConfig config;
  config.algorithm = Algorithm::kLowLatency;
  config.parallelism = 3;
  config.window_r = WindowSpec::Time(60);
  config.window_s = WindowSpec::Time(60);
  config.punctuate = true;
  config.threaded = false;
  JoinSession<TR, TS, KeyBand> session(config);
  CollectingHandler<TR, TS> h0;
  CollectingHandler<TR, TS> h1;
  session.AddQuery(KeyBand{0}, &h0);
  session.AddQuery(KeyBand{2}, &h1);
  for (const auto& e : trace) {
    if (e.side == StreamSide::kR) {
      session.PushR(e.r, e.ts);
    } else {
      session.PushS(e.s, e.ts);
    }
    session.Poll();
  }
  session.FinishInput();
  EXPECT_GT(h0.punctuations().size(), 0u);
  EXPECT_EQ(h0.punctuations(), h1.punctuations());
}

// Result rings that overflow between Polls (every key equal, so each
// arrival matches the whole opposite window): FinishInput must return with
// the exact oracle multiset delivered and no result behind a punctuation
// that covers it.
class ResultRingOverflow
    : public ::testing::TestWithParam<test::OverflowParam> {};

TEST_P(ResultRingOverflow, FinishInputDeliversExactlyWithSafePunctuations) {
  test::RunOverflowCase(
      test::MakeOverflowCase(GetParam(), /*shards=*/1));
}

INSTANTIATE_TEST_SUITE_P(Engines, ResultRingOverflow,
                         test::OverflowMatrix(), test::OverflowParamName);

}  // namespace
}  // namespace sjoin
