// Tests for the punctuation machinery (paper Section 6): high-water marks,
// the collector's read-marks-then-vacuum protocol, and the punctuation
// invariant — no result emitted after <t_p> may carry a timestamp < t_p.
// Also the burst result-delivery contract (OutputHandler::OnResultBurst):
// the collector's runs end at markers, the router's burst path matches its
// per-result path, and per-result handlers still see every result.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "llhj/llhj_pipeline.hpp"
#include "stream/collector.hpp"
#include "stream/hwm.hpp"

#include "test_util.hpp"

namespace sjoin {
namespace {

using test::Gated;
using test::KeyEq;
using test::MakeRandomTrace;
using test::ReplaySequential;
using test::TR;
using test::TraceConfig;
using test::TS;

TEST(HighWaterMarks, StartsAtMinimum) {
  HighWaterMarks hwm;
  EXPECT_EQ(hwm.Get(StreamSide::kR), kMinTimestamp);
  EXPECT_EQ(hwm.Get(StreamSide::kS), kMinTimestamp);
  EXPECT_EQ(hwm.SafeMin(), kMinTimestamp);
}

TEST(HighWaterMarks, SafeMinIsMinimumOfSides) {
  HighWaterMarks hwm;
  hwm.Publish(StreamSide::kR, 100, 0);
  EXPECT_EQ(hwm.SafeMin(), kMinTimestamp);  // S not seen yet
  hwm.Publish(StreamSide::kS, 40, 0);
  EXPECT_EQ(hwm.SafeMin(), 40);
  hwm.Publish(StreamSide::kS, 120, 1);
  EXPECT_EQ(hwm.SafeMin(), 100);
}

TEST(HighWaterMarks, CompletedSeqTracksFifoCompletion) {
  HighWaterMarks hwm;
  EXPECT_EQ(hwm.CompletedSeq(StreamSide::kR), -1);
  EXPECT_EQ(hwm.CompletedSeq(StreamSide::kS), -1);
  hwm.Publish(StreamSide::kR, 10, 0);
  hwm.Publish(StreamSide::kR, 20, 1);
  EXPECT_EQ(hwm.CompletedSeq(StreamSide::kR), 1);
  EXPECT_EQ(hwm.CompletedSeq(StreamSide::kS), -1);
  hwm.Publish(StreamSide::kS, 5, 7);
  EXPECT_EQ(hwm.CompletedSeq(StreamSide::kS), 7);
}

/// An output handler that checks the punctuation guarantee on the fly.
class PunctuationChecker : public OutputHandler<TR, TS> {
 public:
  void OnResult(const ResultMsg<TR, TS>& m) override {
    results.push_back(m);
    if (m.ts < last_punctuation) ++violations;
  }
  void OnPunctuation(Timestamp tp) override {
    if (tp <= last_punctuation && last_punctuation != kMinTimestamp) {
      ++non_monotonic;
    }
    last_punctuation = tp;
    ++punctuations;
  }

  std::vector<ResultMsg<TR, TS>> results;
  Timestamp last_punctuation = kMinTimestamp;
  int violations = 0;
  int non_monotonic = 0;
  int punctuations = 0;
};

TEST(Collector, EmitsPunctuationsWithInvariant) {
  TraceConfig config;
  config.events = 300;
  config.key_domain = 4;
  config.max_gap_us = 5;
  auto trace = MakeRandomTrace(17, config);
  auto script = BuildDriverScript(trace, WindowSpec::Time(80),
                                  WindowSpec::Time(80));

  typename LlhjPipeline<TR, TS, KeyEq>::Options options;
  options.nodes = 4;
  options.channel_capacity = 64;
  options.punctuate = true;
  LlhjPipeline<TR, TS, KeyEq> pipeline(options);

  PunctuationChecker checker;
  ReplaySequential(pipeline, script, &checker, Gated(pipeline));

  EXPECT_GT(checker.punctuations, 0);
  EXPECT_EQ(checker.violations, 0)
      << "results with ts below an already-emitted punctuation";
  EXPECT_EQ(checker.non_monotonic, 0);
  EXPECT_FALSE(checker.results.empty());
}

TEST(Collector, NoPunctuationsWhenDisabled) {
  TraceConfig config;
  config.events = 120;
  auto trace = MakeRandomTrace(18, config);
  auto script = BuildDriverScript(trace, WindowSpec::Time(50),
                                  WindowSpec::Time(50));

  typename LlhjPipeline<TR, TS, KeyEq>::Options options;
  options.nodes = 3;
  options.channel_capacity = 64;
  options.punctuate = false;
  LlhjPipeline<TR, TS, KeyEq> pipeline(options);

  PunctuationChecker checker;
  auto collector = ReplaySequential(pipeline, script, &checker,
                                    Gated(pipeline));

  EXPECT_EQ(checker.punctuations, 0);
  EXPECT_EQ(collector->punctuations_emitted(), 0u);
}

TEST(Collector, PunctuationValueTracksSlowerStream) {
  // R advances far ahead of S; punctuations must follow min(marks) = S.
  Trace<TR, TS> trace;
  for (int i = 0; i < 10; ++i) {
    trace.push_back(ArriveR<TR, TS>(i * 100, TR{1, i}));
  }
  trace.push_back(ArriveS<TR, TS>(950, TS{1, 50}));
  auto script = BuildDriverScript(trace, WindowSpec::Time(10'000),
                                  WindowSpec::Time(10'000), false);

  typename LlhjPipeline<TR, TS, KeyEq>::Options options;
  options.nodes = 2;
  options.channel_capacity = 64;
  options.punctuate = true;
  LlhjPipeline<TR, TS, KeyEq> pipeline(options);

  PunctuationChecker checker;
  auto collector = ReplaySequential(pipeline, script, &checker,
                                    Gated(pipeline));

  // R's last completed timestamp is 900, S's is 950; the safe punctuation
  // is the minimum of the two marks.
  EXPECT_EQ(checker.last_punctuation, 900);
  EXPECT_EQ(collector->last_punctuation(), 900);
}

// -- QueryRouter punctuation broadcast ---------------------------------------

/// Counts punctuation deliveries (the dedupe regression target).
class PunctuationCounter : public OutputHandler<TR, TS> {
 public:
  void OnResult(const ResultMsg<TR, TS>&) override { ++results; }
  void OnPunctuation(Timestamp tp) override {
    ++punctuations;
    last = tp;
  }
  void OnQueryRetired(QueryId q) override { retired.push_back(q); }

  int results = 0;
  int punctuations = 0;
  Timestamp last = kMinTimestamp;
  std::vector<QueryId> retired;
};

// Regression: a handler registered for SEVERAL queries used to receive
// every punctuation once per registration. Punctuations are a property of
// the shared windows, so each distinct handler must see each punctuation
// exactly once per (epoch, punctuation seq).
TEST(QueryRouter, PunctuationDeliveredOncePerHandler) {
  QueryRouter<TR, TS> router;
  PunctuationCounter shared;
  PunctuationCounter solo;
  router.Register(&shared);  // q0
  router.Register(&shared);  // q1 — same handler again
  router.Register(&solo);    // q2
  router.BeginEpoch(0, {0, 1, 2});

  router.OnPunctuation(100);
  EXPECT_EQ(shared.punctuations, 1) << "duplicate broadcast to a handler "
                                       "registered for two queries";
  EXPECT_EQ(solo.punctuations, 1);

  router.OnPunctuation(200);
  EXPECT_EQ(shared.punctuations, 2);  // new seq => delivered again, once
  EXPECT_EQ(solo.punctuations, 2);
  EXPECT_EQ(shared.last, 200);
}

// A retired query's handler stops receiving punctuations (unless it still
// owns another live query).
TEST(QueryRouter, RetiredQueriesDropOutOfBroadcast) {
  QueryRouter<TR, TS> router;
  PunctuationCounter a;
  PunctuationCounter b;
  router.Register(&a);  // q0
  router.Register(&b);  // q1
  router.BeginEpoch(0, {0, 1});
  router.BeginEpoch(1, {0}, /*removed=*/{1});  // q1 removed at epoch 1

  router.OnPunctuation(10);
  EXPECT_EQ(b.punctuations, 1);  // still draining: broadcast continues

  router.OnEpochDrained(1);  // final results of q1 delivered
  ASSERT_EQ(b.retired.size(), 1u);
  EXPECT_EQ(b.retired[0], 1u);

  router.OnPunctuation(20);
  EXPECT_EQ(a.punctuations, 2);
  EXPECT_EQ(b.punctuations, 1) << "retired query still receives broadcasts";
}

// Per-epoch membership: a result tagged with an epoch its query was not a
// member of counts as misrouted and is dropped (pipeline-bug containment).
TEST(QueryRouter, EpochMembershipGatesRouting) {
  QueryRouter<TR, TS> router;
  PunctuationCounter a;
  router.Register(&a);  // q0
  router.BeginEpoch(0, {0});
  router.BeginEpoch(1, {}, /*removed=*/{0});

  ResultMsg<TR, TS> ok;
  ok.query = 0;
  ok.epoch = 0;
  router.OnResult(ok);
  EXPECT_EQ(a.results, 1);
  EXPECT_EQ(router.misrouted(), 0u);

  ResultMsg<TR, TS> stale;
  stale.query = 0;
  stale.epoch = 1;  // q0 is not a member of epoch 1
  router.OnResult(stale);
  EXPECT_EQ(a.results, 1);
  EXPECT_EQ(router.misrouted(), 1u);
}

TEST(Collector, TotalCollectedCounts) {
  Trace<TR, TS> trace;
  trace.push_back(ArriveR<TR, TS>(0, TR{1, 0}));
  trace.push_back(ArriveS<TR, TS>(1, TS{1, 1}));
  auto script = BuildDriverScript(trace, WindowSpec::Time(10),
                                  WindowSpec::Time(10));

  typename LlhjPipeline<TR, TS, KeyEq>::Options options;
  options.nodes = 2;
  options.channel_capacity = 64;
  LlhjPipeline<TR, TS, KeyEq> pipeline(options);

  CollectingHandler<TR, TS> handler;
  auto collector = ReplaySequential(pipeline, script, &handler,
                                    Gated(pipeline));

  EXPECT_EQ(collector->total_collected(), 1u);
  EXPECT_EQ(handler.results().size(), 1u);
}

// -- Burst result delivery (OutputHandler::OnResultBurst) ---------------------

ResultMsg<TR, TS> Result(Seq r_seq, QueryId query = 0, Epoch epoch = 0) {
  ResultMsg<TR, TS> m;
  m.r_seq = r_seq;
  m.query = query;
  m.epoch = epoch;
  return m;
}

/// Logs every callback in order; bursts as "b<r_seq,...>".
class BurstLog : public OutputHandler<TR, TS> {
 public:
  void OnResult(const ResultMsg<TR, TS>& m) override {
    std::string e = "r";
    e += std::to_string(m.r_seq);
    events.push_back(e);
    seqs.push_back(m.r_seq);
  }
  void OnResultBurst(const ResultMsg<TR, TS>* run, std::size_t n) override {
    std::string e = "b";
    for (std::size_t i = 0; i < n; ++i) {
      if (i != 0) e += ",";
      e += std::to_string(run[i].r_seq);
      seqs.push_back(run[i].r_seq);
    }
    events.push_back(e);
  }
  void OnLoss(StreamSide, Seq first_seq, uint64_t) override {
    events.push_back("loss" + std::to_string(first_seq));
  }
  void OnEpochDrained(Epoch epoch) override {
    events.push_back("drained" + std::to_string(epoch));
  }
  std::vector<std::string> events;
  std::vector<Seq> seqs;
};

TEST(Collector, BurstsEndAtEpochAndLossMarkersInFifoOrder) {
  SpscQueue<ResultMsg<TR, TS>> queue(32);
  ResultMsg<TR, TS> epoch_mark;
  epoch_mark.query = kEpochMarkQuery;
  epoch_mark.epoch = 1;
  const std::vector<ResultMsg<TR, TS>> stream = {
      Result(0), Result(1), MakeLossMark<TR, TS>(StreamSide::kR, 7, 2, 0),
      Result(2), epoch_mark, epoch_mark, Result(3), Result(4)};
  ASSERT_EQ(queue.TryPushBurst(stream.data(), stream.size()), stream.size());
  BurstLog log;
  Collector<TR, TS> collector({&queue}, &log);
  EXPECT_EQ(collector.VacuumOnce(), 5u);
  const std::vector<std::string> want = {"b0,1", "loss7", "b2", "drained1",
                                         "b3,4"};
  EXPECT_EQ(log.events, want);
  EXPECT_EQ(collector.total_collected(), 5u);
  EXPECT_EQ(collector.loss_bounds(), 1u);
}

// The router's burst path must be indistinguishable from feeding the same
// stream through OnResult one result at a time: counts, misroutes and every
// handler's own order — across runs that mix queries, a handler registered
// twice, a count-only (null) query, and misrouted results mid-run.
TEST(QueryRouter, BurstPathMatchesPerResultPath) {
  auto make = [](QueryRouter<TR, TS>* router, BurstLog* a, BurstLog* b) {
    router->Register(a);        // q0
    router->Register(b);        // q1
    router->Register(a);        // q2: same handler again
    router->Register(nullptr);  // q3: count-only
    router->BeginEpoch(0, {0, 1, 2, 3});
    router->BeginEpoch(1, {0, 2, 3}, /*removed=*/{1});
  };
  const std::vector<ResultMsg<TR, TS>> stream = {
      Result(0, 0), Result(1, 0), Result(2, 1),
      Result(3, 1, 1),  // q1 is not a member of epoch 1: misrouted
      Result(4, 1), Result(5, 0, 1), Result(6, 2), Result(7, 2, 1),
      Result(8, 3), Result(9, 9),  // unregistered query: misrouted
      Result(10, 0, 2),            // undeclared epoch: misrouted
      Result(11, 0), Result(12, 0), Result(13, 1)};

  QueryRouter<TR, TS> per_result;
  BurstLog a1, b1;
  make(&per_result, &a1, &b1);
  for (const auto& m : stream) per_result.OnResult(m);

  QueryRouter<TR, TS> burst;
  BurstLog a2, b2;
  make(&burst, &a2, &b2);
  burst.OnResultBurst(stream.data(), stream.size());

  EXPECT_EQ(burst.misrouted(), 3u);
  EXPECT_EQ(burst.misrouted(), per_result.misrouted());
  EXPECT_EQ(burst.total_collected(), per_result.total_collected());
  for (QueryId q = 0; q < 4; ++q) {
    EXPECT_EQ(burst.collected(q), per_result.collected(q)) << "query " << q;
  }
  EXPECT_EQ(a2.seqs, a1.seqs);
  EXPECT_EQ(b2.seqs, b1.seqs);
  // Runs that share a query reach its handler as one burst.
  const std::vector<std::string> want_a = {"b0,1", "b5", "b6,7", "b11,12"};
  EXPECT_EQ(a2.events, want_a);
  const std::vector<std::string> want_b = {"b2", "b4", "b13"};
  EXPECT_EQ(b2.events, want_b);
}

// Membership is checked once per (query, epoch) change, not per result: a
// burst mixing two epochs, two queries and misrouted results must still
// count and route exactly like the per-result path, and split its runs
// where a per-result membership check would.
TEST(QueryRouter, RunLengthChecksMatchPerResultPath) {
  auto make = [](QueryRouter<TR, TS>* router, BurstLog* a, BurstLog* b) {
    router->Register(a);  // q0
    router->Register(b);  // q1
    router->BeginEpoch(0, {0, 1});
    router->BeginEpoch(1, {0, 1});
    router->BeginEpoch(2, {0}, /*removed=*/{1});
  };
  const std::vector<ResultMsg<TR, TS>> stream = {
      Result(0, 0, 0), Result(1, 0, 1), Result(2, 0, 1),  // q0 over 2 epochs
      Result(3, 1, 1),
      Result(4, 1, 2),  // q1 is not a member of epoch 2: misrouted
      Result(5, 1, 0), Result(6, 1, 1),
      Result(7, 1, 2),  // misrouted mid-run of q1
      Result(8, 1, 1), Result(9, 0, 2), Result(10, 0, 2),
      Result(11, 0, 3)};  // undeclared epoch: misrouted at the run's tail

  QueryRouter<TR, TS> per_result;
  BurstLog a1, b1;
  make(&per_result, &a1, &b1);
  for (const auto& m : stream) per_result.OnResult(m);

  QueryRouter<TR, TS> burst;
  BurstLog a2, b2;
  make(&burst, &a2, &b2);
  burst.OnResultBurst(stream.data(), stream.size());

  EXPECT_EQ(burst.misrouted(), 3u);
  EXPECT_EQ(burst.misrouted(), per_result.misrouted());
  EXPECT_EQ(burst.total_collected(), per_result.total_collected());
  for (QueryId q = 0; q < 2; ++q) {
    EXPECT_EQ(burst.collected(q), per_result.collected(q)) << "query " << q;
  }
  EXPECT_EQ(a2.seqs, a1.seqs);
  EXPECT_EQ(b2.seqs, b1.seqs);
  // An epoch change inside one query's run does not split it; a misrouted
  // result does.
  const std::vector<std::string> want_a = {"b0,1,2", "b9,10"};
  EXPECT_EQ(a2.events, want_a);
  const std::vector<std::string> want_b = {"b3", "b5,6", "b8"};
  EXPECT_EQ(b2.events, want_b);
}

// A handler written against the per-result interface keeps working: the
// default OnResultBurst feeds it every result, in order.
TEST(OutputHandler, PerResultHandlerSeesEveryResultOfABurst) {
  class PerResult : public OutputHandler<TR, TS> {
   public:
    void OnResult(const ResultMsg<TR, TS>& m) override {
      seqs.push_back(m.r_seq);
    }
    std::vector<Seq> seqs;
  } handler;
  SpscQueue<ResultMsg<TR, TS>> queue(8);  // wraps: two runs per vacuum
  Collector<TR, TS> collector({&queue}, &handler);
  std::vector<Seq> want;
  for (Seq next = 0; next < 40;) {
    for (int i = 0; i < 5; ++i, ++next) {
      ASSERT_TRUE(queue.TryPush(Result(next)));
      want.push_back(next);
    }
    collector.VacuumOnce();
  }
  EXPECT_EQ(handler.seqs, want);
  EXPECT_EQ(collector.total_collected(), 40u);
}

}  // namespace
}  // namespace sjoin
