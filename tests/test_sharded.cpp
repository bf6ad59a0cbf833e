// Tests for the sharded session (JoinSession over N shards,
// core/join_session.hpp) and the predicate-aware partitioner
// (stream/partitioner.hpp):
//  * config validation (shard counts/policies the predicate set cannot
//    support are rejected with self-diagnosing messages),
//  * partitioner properties: hash assigns every key to exactly one shard
//    (deterministically, with all shards populated), replicate-one-side
//    co-locates every candidate pair exactly once (fuzzed band widths),
//  * shard-vs-single-shard oracle equality on both engines, threaded
//    and non-threaded, equi (hash) and band (replicate) predicates, count
//    and time windows — exact result multisets and per-query attribution,
//  * shard-count-1 degeneration to the plain JoinSession,
//  * live query churn across shards (epoch attribution, exactly-once
//    retirement),
//  * sharding-level loss accounting (forced sheds) matching the plain
//    session under the identical shed schedule,
//  * merged latency histograms and min-merged punctuations,
//  * shards sharing a NUMA node pinned to disjoint CPUs,
//  * result rings that overflow between Polls on both shards
//    (tests/result_overflow.hpp).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/join_session.hpp"
#include "stream/partitioner.hpp"

#include "kang_join.hpp"
#include "result_overflow.hpp"
#include "test_util.hpp"

namespace sjoin {

// The test equi predicate joins on TR.key == TS.key: declaring the key with
// radius 0 makes it hash-partitionable, and its LLHJ shards index their
// windows in radius-0 BandStores (the production EquiPredicate declares its
// own in common/schema.hpp).
template <>
struct JoinKeyTraits<test::KeyEq, test::TR, test::TS> {
  static constexpr bool kEnabled = true;
  static constexpr int64_t kRadius = 0;
  static int64_t KeyR(const test::TR& r) { return r.key; }
  static int64_t KeyS(const test::TS& s) { return s.key; }
};

namespace {

using test::KeyBand;
using test::KeyEq;
using test::MakeRandomTrace;
using test::SameResultSet;
using test::TR;
using test::TraceConfig;
using test::TS;

JoinConfig BaseShard(Algorithm algorithm, WindowSpec wr, WindowSpec ws,
                     bool threaded, int parallelism = 3) {
  JoinConfig config;
  config.algorithm = algorithm;
  config.parallelism = parallelism;
  config.window_r = wr;
  config.window_s = ws;
  config.threaded = threaded;
  config.hsj_window_tuples_hint = 16;
  if (threaded) {
    // Deterministic multi-node shape so per-shard placement derivation
    // (Topology::OnNode round-robin) is exercised regardless of the host;
    // pinning to synthetic CPUs degrades gracefully (same as the CI
    // SJOIN_TOPOLOGY leg).
    Topology::SyntheticShape shape;
    shape.nodes_per_package = 2;
    shape.cores_per_node = 2;
    config.topology =
        std::make_shared<const Topology>(Topology::Synthetic(shape));
  }
  return config;
}

ShardedJoinConfig ShardedFor(Algorithm algorithm, WindowSpec wr,
                             WindowSpec ws, bool threaded, int shards,
                             PartitionPolicy partition) {
  ShardedJoinConfig config;
  config.shard = BaseShard(algorithm, wr, ws, threaded);
  config.shards = shards;
  config.partition = partition;
  return config;
}

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

const Algorithm kAllEngines[] = {Algorithm::kHandshake,
                                 Algorithm::kLowLatency};

// -- Validation --------------------------------------------------------------

TEST(ShardedValidation, RejectsBadShardCount) {
  ShardedJoinConfig config;
  config.shards = 0;
  EXPECT_THROW((ValidateShardedJoinConfig<TR, TS, KeyEq>(config)),
               std::invalid_argument);
  config.shards = -2;
  try {
    ValidateShardedJoinConfig<TR, TS, KeyEq>(config);
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("shards"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("-2"), std::string::npos);
  }
}

TEST(ShardedValidation, RejectsSheddingPolicyWithoutBudget) {
  ShardedJoinConfig config;
  config.shard.overload_policy = OverloadPolicy::kSample;
  config.shard.latency_budget_us = 0;
  try {
    ValidateShardedJoinConfig<TR, TS, KeyEq>(config);
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("sample"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("latency_budget_us"),
              std::string::npos);
  }
}

TEST(ShardedValidation, RejectsHashPartitioningForBandPredicate) {
  // KeyBand declares no shard keys: hash-partitioning it would silently
  // lose matches, so the config is rejected up front.
  ShardedJoinConfig config;
  config.partition = PartitionPolicy::kHashKey;
  try {
    ValidateShardedJoinConfig<TR, TS, KeyBand>(config);
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("hash"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("JoinKeyTraits"), std::string::npos);
  }
  // A declared band radius is no equi key: hash stays rejected.
  EXPECT_THROW((ResolvePartitionPolicy<test::RangeBand, TR, TS>(
                   PartitionPolicy::kHashKey)),
               std::invalid_argument);
  // auto degrades to replicate_r for the same predicate.
  EXPECT_EQ((ResolvePartitionPolicy<KeyBand, TR, TS>(PartitionPolicy::kAuto)),
            PartitionPolicy::kReplicateR);
  EXPECT_EQ((ResolvePartitionPolicy<KeyEq, TR, TS>(PartitionPolicy::kAuto)),
            PartitionPolicy::kHashKey);
}

TEST(ShardedValidation, RejectsHandshakeBelowChaseEnvelope) {
  // A handshake shard whose thinned window drops below max(8, 2 *
  // parallelism) tuples would race its expiry chase against segment
  // rebalancing; the config is rejected with the arithmetic spelled out.
  ShardedJoinConfig config;
  config.shard.algorithm = Algorithm::kHandshake;
  config.shard.parallelism = 3;
  config.shard.window_r = WindowSpec::Count(12);
  config.shard.window_s = WindowSpec::Count(24);
  config.shards = 3;  // 12 / 3 = 4 per shard on R: below the floor of 8
  try {
    ValidateShardedJoinConfig<TR, TS, KeyEq>(config);
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("side R"), std::string::npos) << what;
    EXPECT_NE(what.find("12 / 3 shards = 4"), std::string::npos) << what;
  }
  config.shards = 1;  // single shard is the plain session: no thinning
  EXPECT_NO_THROW((ValidateShardedJoinConfig<TR, TS, KeyEq>(config)));
  config.shards = 3;
  config.shard.window_r = WindowSpec::Count(24);  // 8 per shard: at floor
  EXPECT_NO_THROW((ValidateShardedJoinConfig<TR, TS, KeyEq>(config)));
  // Replicated sides are not thinned: under replicate_r a small R window
  // is fine, but the partitioned S side must clear the floor.
  config.shard.window_r = WindowSpec::Count(4);
  config.partition = PartitionPolicy::kReplicateR;
  EXPECT_NO_THROW((ValidateShardedJoinConfig<TR, TS, KeyBand>(config)));
  config.shard.window_s = WindowSpec::Count(12);  // 4 per shard on S
  EXPECT_THROW((ValidateShardedJoinConfig<TR, TS, KeyBand>(config)),
               std::invalid_argument);
}

TEST(ShardedValidation, ParsePartitionPolicyNamesOffendingValue) {
  EXPECT_EQ(ParsePartitionPolicy("auto"), PartitionPolicy::kAuto);
  EXPECT_EQ(ParsePartitionPolicy("hash"), PartitionPolicy::kHashKey);
  EXPECT_EQ(ParsePartitionPolicy("replicate_r"), PartitionPolicy::kReplicateR);
  EXPECT_EQ(ParsePartitionPolicy("replicate_s"), PartitionPolicy::kReplicateS);
  try {
    ParsePartitionPolicy("range");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("range"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("replicate_s"), std::string::npos);
  }
}

// -- Partitioner properties --------------------------------------------------

TEST(Partitioner, HashAssignsEveryKeyExactlyOneShard) {
  for (int shards : {1, 2, 3, 5}) {
    std::vector<int> population(static_cast<std::size_t>(shards), 0);
    for (uint64_t key = 0; key < 2000; ++key) {
      const int shard = ShardOfKey(key, shards);
      ASSERT_GE(shard, 0);
      ASSERT_LT(shard, shards);
      // Deterministic: the same key always lands on the same shard.
      EXPECT_EQ(shard, ShardOfKey(key, shards));
      ++population[static_cast<std::size_t>(shard)];
    }
    // The splitmix mix must spread sequential keys over all shards.
    for (int k = 0; k < shards; ++k) {
      EXPECT_GT(population[static_cast<std::size_t>(k)], 0)
          << "shard " << k << "/" << shards << " starved";
    }
  }
}

TEST(Partitioner, EquiKeyContractSendsMatchingPairsToOneShard) {
  // pred(r, s) => KeyR(r) == KeyS(s) => same shard: the hash-partitioning
  // correctness anchor, checked over the full key domain.
  using Traits = JoinKeyTraits<KeyEq, TR, TS>;
  static_assert(IsEquiKey<KeyEq, TR, TS>());
  for (int32_t key = -50; key < 50; ++key) {
    const TR r{key, 0};
    const TS s{key, 1};
    ASSERT_TRUE(KeyEq{}(r, s));
    for (int shards : {2, 3, 4}) {
      EXPECT_EQ(ShardOfKey(static_cast<uint64_t>(Traits::KeyR(r)), shards),
                ShardOfKey(static_cast<uint64_t>(Traits::KeyS(s)), shards));
    }
  }
}

// Replicate-one-side loses no candidate pair: fuzzed band widths, seeds and
// shard counts, each run compared against the Kang reference.
TEST(Partitioner, ReplicateOneSideLosesNoCandidatePairFuzzed) {
  struct Case {
    uint64_t seed;
    int32_t width;
    int shards;
    PartitionPolicy policy;
  };
  const Case cases[] = {
      {11, 0, 2, PartitionPolicy::kReplicateR},
      {12, 1, 3, PartitionPolicy::kReplicateR},
      {13, 2, 4, PartitionPolicy::kReplicateS},
      {14, 3, 2, PartitionPolicy::kReplicateS},
      {15, 2, 3, PartitionPolicy::kAuto},  // resolves to replicate_r
      {16, 1, 5, PartitionPolicy::kReplicateR},
  };
  TraceConfig tc;
  tc.events = 300;
  tc.key_domain = 10;
  for (const Case& c : cases) {
    const auto trace = MakeRandomTrace(c.seed, tc);
    const WindowSpec wr = WindowSpec::Count(9);
    const WindowSpec ws = WindowSpec::Count(13);
    const KeyBand pred{c.width};
    const auto oracle = ReferenceResults(trace, wr, ws, pred);

    CollectingHandler<TR, TS> handler;
    JoinSession<TR, TS, KeyBand> sharded(
        ShardedFor(Algorithm::kLowLatency, wr, ws, /*threaded=*/false,
                   c.shards, c.policy));
    sharded.AddQuery(pred, &handler);
    FeedPerTuple(sharded, trace);
    sharded.FinishInput();

    EXPECT_TRUE(SameResultSet(oracle, handler.results()))
        << "seed=" << c.seed << " width=" << c.width
        << " shards=" << c.shards << " policy=" << ToString(c.policy);
    EXPECT_EQ(sharded.pipeline_anomalies(), 0u);
  }
}

// -- Shard-vs-oracle equality, all engines -----------------------------------

TEST(ShardedEquivalence, EquiHashMatchesOracleAllEngines) {
  TraceConfig tc;
  tc.events = 400;
  tc.key_domain = 8;
  const auto trace = MakeRandomTrace(21, tc);
  // Per-shard windows (24/2, 20/2) stay inside the handshake join's
  // chase-convergence envelope (>= max(8, 2 * parallelism)).
  const WindowSpec wr = WindowSpec::Count(24);
  const WindowSpec ws = WindowSpec::Count(20);
  const auto oracle = ReferenceResults(trace, wr, ws, KeyEq{});
  ASSERT_FALSE(oracle.empty());

  for (Algorithm algorithm : kAllEngines) {
    for (bool threaded : {false, true}) {
      CollectingHandler<TR, TS> q0, q1;
      JoinSession<TR, TS, KeyEq> sharded(ShardedFor(
          algorithm, wr, ws, threaded, /*shards=*/2, PartitionPolicy::kAuto));
      EXPECT_EQ(sharded.partition(), PartitionPolicy::kHashKey);
      sharded.AddQuery(KeyEq{}, &q0);
      sharded.AddQuery(KeyEq{}, &q1);  // per-query attribution under merge
      FeedPerTuple(sharded, trace);
      sharded.FinishInput();

      EXPECT_TRUE(SameResultSet(oracle, q0.results()))
          << ToString(algorithm) << " threaded=" << threaded;
      EXPECT_TRUE(SameResultSet(oracle, q1.results()))
          << ToString(algorithm) << " threaded=" << threaded;
      EXPECT_EQ(sharded.results_collected(0), oracle.size());
      EXPECT_EQ(sharded.results_collected(1), oracle.size());
      EXPECT_EQ(sharded.results_collected(), 2 * oracle.size());
      EXPECT_EQ(sharded.pipeline_anomalies(), 0u)
          << ToString(algorithm) << " threaded=" << threaded;
      // Every result was attributed to the query that produced it.
      for (const auto& m : q0.results()) EXPECT_EQ(m.query, 0u);
      for (const auto& m : q1.results()) EXPECT_EQ(m.query, 1u);
    }
  }
}

TEST(ShardedEquivalence, BandReplicateMatchesOracleAllEngines) {
  TraceConfig tc;
  tc.events = 350;
  tc.key_domain = 10;
  const auto trace = MakeRandomTrace(22, tc);
  // S is the partitioned side under replicate_r: 16/2 per shard clears the
  // handshake chase floor; replicated R may stay small.
  const WindowSpec wr = WindowSpec::Count(11);
  const WindowSpec ws = WindowSpec::Count(16);
  const KeyBand pred{2};
  const auto oracle = ReferenceResults(trace, wr, ws, pred);
  ASSERT_FALSE(oracle.empty());

  for (Algorithm algorithm : kAllEngines) {
    for (bool threaded : {false, true}) {
      CollectingHandler<TR, TS> handler;
      JoinSession<TR, TS, KeyBand> sharded(ShardedFor(
          algorithm, wr, ws, threaded, /*shards=*/2, PartitionPolicy::kAuto));
      EXPECT_EQ(sharded.partition(), PartitionPolicy::kReplicateR);
      sharded.AddQuery(pred, &handler);
      FeedPerTuple(sharded, trace);
      sharded.FinishInput();

      EXPECT_TRUE(SameResultSet(oracle, handler.results()))
          << ToString(algorithm) << " threaded=" << threaded;
      EXPECT_EQ(sharded.pipeline_anomalies(), 0u)
          << ToString(algorithm) << " threaded=" << threaded;
    }
  }
}

TEST(ShardedEquivalence, TimeWindowsMatchOracleAllEngines) {
  TraceConfig tc;
  tc.events = 300;
  tc.key_domain = 6;
  tc.max_gap_us = 3;
  const auto trace = MakeRandomTrace(23, tc);
  // Mean gap ~1.5us per event, so ~40/32 tuples live globally — about
  // 20/16 per shard, inside the handshake chase envelope (hint 16 / 2
  // shards = 8 clears validation).
  const WindowSpec wr = WindowSpec::Time(60);
  const WindowSpec ws = WindowSpec::Time(48);
  const auto oracle = ReferenceResults(trace, wr, ws, KeyEq{});
  ASSERT_FALSE(oracle.empty());

  for (Algorithm algorithm : kAllEngines) {
    for (bool threaded : {false, true}) {
      CollectingHandler<TR, TS> handler;
      JoinSession<TR, TS, KeyEq> sharded(ShardedFor(
          algorithm, wr, ws, threaded, /*shards=*/2, PartitionPolicy::kAuto));
      sharded.AddQuery(KeyEq{}, &handler);
      FeedPerTuple(sharded, trace);
      sharded.FinishInput();

      EXPECT_TRUE(SameResultSet(oracle, handler.results()))
          << ToString(algorithm) << " threaded=" << threaded;
      EXPECT_EQ(sharded.pipeline_anomalies(), 0u);
    }
  }
}

// -- Degeneration ------------------------------------------------------------

TEST(Sharded, SingleShardDegeneratesToPlainSession) {
  // shards=1 behind the sharded API must reproduce the plain session
  // exactly: same result sequence (per query, with epochs), same epochs
  // drained, same retirements — on both engines (non-threaded for
  // a deterministic event-by-event comparison), including live churn.
  TraceConfig tc;
  tc.events = 260;
  tc.key_domain = 7;
  const auto trace = MakeRandomTrace(24, tc);
  const WindowSpec wr = WindowSpec::Count(10);
  const WindowSpec ws = WindowSpec::Count(10);

  for (Algorithm algorithm : kAllEngines) {
    CollectingHandler<TR, TS> plain_q0, plain_q1, shard_q0, shard_q1;

    JoinSession<TR, TS, KeyEq> plain(
        BaseShard(algorithm, wr, ws, /*threaded=*/false));
    JoinSession<TR, TS, KeyEq> sharded(
        ShardedFor(algorithm, wr, ws, /*threaded=*/false, /*shards=*/1,
                   PartitionPolicy::kAuto));

    const auto p0 = plain.AddQuery(KeyEq{}, &plain_q0);
    const auto s0 = sharded.AddQuery(KeyEq{}, &shard_q0);
    EXPECT_EQ(p0.id, s0.id);

    // Identical mid-stream churn on both: add a query at event 80, remove
    // the first at event 180.
    typename JoinSession<TR, TS, KeyEq>::QueryHandle p1{}, s1{};
    std::size_t i = 0;
    for (const auto& e : trace) {
      if (i == 80) {
        p1 = plain.AddQuery(KeyEq{}, &plain_q1);
        s1 = sharded.AddQuery(KeyEq{}, &shard_q1);
        EXPECT_EQ(p1.id, s1.id);
      }
      if (i == 180) {
        EXPECT_TRUE(plain.RemoveQuery(p0));
        EXPECT_TRUE(sharded.RemoveQuery(s0));
      }
      if (e.side == StreamSide::kR) {
        plain.PushR(e.r, e.ts);
        sharded.PushR(e.r, e.ts);
      } else {
        plain.PushS(e.s, e.ts);
        sharded.PushS(e.s, e.ts);
      }
      ++i;
    }
    plain.FinishInput();
    sharded.FinishInput();

    auto same_sequence = [&](const CollectingHandler<TR, TS>& a,
                             const CollectingHandler<TR, TS>& b) {
      ASSERT_EQ(a.results().size(), b.results().size());
      for (std::size_t j = 0; j < a.results().size(); ++j) {
        EXPECT_EQ(a.results()[j].r_seq, b.results()[j].r_seq);
        EXPECT_EQ(a.results()[j].s_seq, b.results()[j].s_seq);
        EXPECT_EQ(a.results()[j].query, b.results()[j].query);
        EXPECT_EQ(a.results()[j].epoch, b.results()[j].epoch);
      }
    };
    same_sequence(plain_q0, shard_q0);
    same_sequence(plain_q1, shard_q1);
    EXPECT_EQ(plain.current_epoch(), sharded.current_epoch());
    EXPECT_EQ(plain.drained_epoch(), sharded.drained_epoch());
    EXPECT_EQ(plain_q0.retired_queries(), shard_q0.retired_queries());
    EXPECT_EQ(sharded.pipeline_anomalies(), 0u) << ToString(algorithm);
  }
}

// -- Live churn across shards ------------------------------------------------

TEST(Sharded, ChurnAcrossShardsRetiresExactlyOnceWithEpochAttribution) {
  TraceConfig tc;
  tc.events = 320;
  tc.key_domain = 8;
  const auto trace = MakeRandomTrace(25, tc);
  const WindowSpec wr = WindowSpec::Count(12);
  const WindowSpec ws = WindowSpec::Count(12);
  const auto oracle = ReferenceResults(trace, wr, ws, KeyEq{});

  for (bool threaded : {false, true}) {
    CollectingHandler<TR, TS> removed_q, kept_q, added_q;
    JoinSession<TR, TS, KeyEq> sharded(
        ShardedFor(Algorithm::kLowLatency, wr, ws, threaded, /*shards=*/3,
                   PartitionPolicy::kAuto));
    const auto h_removed = sharded.AddQuery(KeyEq{}, &removed_q);
    sharded.AddQuery(KeyEq{}, &kept_q);

    std::size_t i = 0;
    Epoch removal_epoch = 0;
    for (const auto& e : trace) {
      if (i == 100) {
        sharded.AddQuery(KeyEq{}, &added_q);
      }
      if (i == 200) {
        EXPECT_TRUE(sharded.RemoveQuery(h_removed));
        removal_epoch = sharded.current_epoch();
        EXPECT_FALSE(sharded.RemoveQuery(h_removed));  // already removed
      }
      if (e.side == StreamSide::kR) {
        sharded.PushR(e.r, e.ts);
      } else {
        sharded.PushS(e.s, e.ts);
      }
      ++i;
    }
    sharded.FinishInput();

    // The kept query sees the full oracle; the removed query only results
    // attributed to epochs before its removal; the added query only results
    // attributed to epochs from its install on. All three partitions are
    // subsets of the oracle.
    EXPECT_TRUE(SameResultSet(oracle, kept_q.results()));
    const auto want = test::PairMultiset(oracle);
    for (const auto& m : removed_q.results()) {
      EXPECT_LT(m.epoch, removal_epoch);
      EXPECT_TRUE(want.count({m.r_seq, m.s_seq}));
    }
    for (const auto& m : added_q.results()) {
      EXPECT_GE(m.epoch, 1u);
      EXPECT_TRUE(want.count({m.r_seq, m.s_seq}));
    }
    // Exactly-once retirement through the merging collector, even though
    // every shard drains the removal epoch independently.
    ASSERT_EQ(removed_q.retired_queries().size(), 1u);
    EXPECT_EQ(removed_q.retired_queries()[0], h_removed.id);
    EXPECT_TRUE(kept_q.retired_queries().empty());
    EXPECT_GE(sharded.drained_epoch(), removal_epoch);
    EXPECT_EQ(sharded.pipeline_anomalies(), 0u) << "threaded=" << threaded;
  }
}

// -- Loss accounting ---------------------------------------------------------

TEST(Sharded, ForcedShedsAccountExactlyAndMatchPlainSession) {
  // The same deterministic shed schedule applied to a plain session and a
  // sharded one must produce the same result multiset, and the sharded
  // merge layer must report every shed tuple exactly once
  // (tuples_lost_reported == tuples_shed after drain).
  TraceConfig tc;
  tc.events = 300;
  tc.key_domain = 8;
  const auto trace = MakeRandomTrace(26, tc);
  const WindowSpec wr = WindowSpec::Count(10);
  const WindowSpec ws = WindowSpec::Count(10);
  auto shed = [](StreamSide side, Seq seq) {
    return side == StreamSide::kR ? seq % 7 == 3 : seq % 5 == 1;
  };

  for (bool threaded : {false, true}) {
    CollectingHandler<TR, TS> plain_h, shard_h;

    JoinSession<TR, TS, KeyEq> plain(
        BaseShard(Algorithm::kLowLatency, wr, ws, threaded));
    plain.admission().SetForceShed(shed);
    plain.AddQuery(KeyEq{}, &plain_h);
    FeedPerTuple(plain, trace);
    plain.FinishInput();

    JoinSession<TR, TS, KeyEq> sharded(
        ShardedFor(Algorithm::kLowLatency, wr, ws, threaded, /*shards=*/2,
                   PartitionPolicy::kAuto));
    sharded.admission().SetForceShed(shed);
    sharded.AddQuery(KeyEq{}, &shard_h);
    FeedPerTuple(sharded, trace);
    sharded.FinishInput();

    EXPECT_TRUE(SameResultSet(plain_h.results(), shard_h.results()))
        << "threaded=" << threaded;
    for (StreamSide side : {StreamSide::kR, StreamSide::kS}) {
      EXPECT_EQ(sharded.tuples_shed(side), plain.tuples_shed(side));
      EXPECT_EQ(sharded.tuples_lost_reported(side), sharded.tuples_shed(side))
          << "threaded=" << threaded;
    }
    EXPECT_GT(sharded.tuples_shed(StreamSide::kR), 0u);
    // The handler heard each gap exactly once (its per-side totals equal
    // the ground truth).
    EXPECT_EQ(shard_h.lost(StreamSide::kR),
              sharded.tuples_shed(StreamSide::kR));
    EXPECT_EQ(shard_h.lost(StreamSide::kS),
              sharded.tuples_shed(StreamSide::kS));
    EXPECT_EQ(sharded.pipeline_anomalies(), 0u);
  }
}

// -- Merging collector extras ------------------------------------------------

TEST(Sharded, MergesLatencyHistogramsAndPunctuations) {
  TraceConfig tc;
  tc.events = 280;
  tc.key_domain = 6;
  const auto trace = MakeRandomTrace(27, tc);
  const WindowSpec wr = WindowSpec::Count(10);
  const WindowSpec ws = WindowSpec::Count(10);

  ShardedJoinConfig config =
      ShardedFor(Algorithm::kLowLatency, wr, ws, /*threaded=*/false,
                 /*shards=*/3, PartitionPolicy::kAuto);
  config.shard.punctuate = true;
  CollectingHandler<TR, TS> handler;
  JoinSession<TR, TS, KeyEq> sharded(config);
  sharded.AddQuery(KeyEq{}, &handler);
  FeedPerTuple(sharded, trace);
  sharded.FinishInput();

  // Every delivered result contributed one sample to exactly one shard's
  // histogram; the merged histogram is their bucket-wise sum.
  const LatencyHistogram merged = sharded.merged_latency_histogram();
  EXPECT_EQ(merged.count(), sharded.results_collected());
  uint64_t per_shard = 0;
  for (int k = 0; k < sharded.shard_count(); ++k) {
    per_shard += sharded.shard_results(k);
  }
  EXPECT_EQ(per_shard, merged.count());

  // Merged punctuations (min over shard marks) are non-decreasing and
  // never run ahead of a mark some shard has not reached.
  ASSERT_FALSE(handler.punctuations().empty());
  for (std::size_t i = 1; i < handler.punctuations().size(); ++i) {
    EXPECT_GE(handler.punctuations()[i], handler.punctuations()[i - 1]);
  }
  EXPECT_EQ(sharded.pipeline_anomalies(), 0u);
}

// -- Placement ---------------------------------------------------------------

// Shards that share a NUMA node split its cores. Each shard used to take the
// whole node as its machine model, so on a single-node host compact
// placement pinned every shard's position 0 to the node's first CPU.
TEST(ShardedPlacement, ShardsOnOneNodePinDisjointCpus) {
  Topology::SyntheticShape shape;
  shape.cores_per_node = 4;  // 1 node x 4 CPUs
  for (int shards : {2, 4}) {
    ShardedJoinConfig config =
        ShardedFor(Algorithm::kLowLatency, WindowSpec::Count(16),
                   WindowSpec::Count(16), /*threaded=*/true, shards,
                   PartitionPolicy::kHashKey);
    config.shard.topology =
        std::make_shared<const Topology>(Topology::Synthetic(shape));
    config.shard.parallelism = 4 / shards;
    config.shard.placement = PlacementPolicy::kCompact;
    CollectingHandler<TR, TS> handler;
    JoinSession<TR, TS, KeyEq> sharded(config);
    sharded.AddQuery(KeyEq{}, &handler);
    sharded.PushR(TR{1, 0}, 0);  // starts every shard
    std::set<int> pinned;
    for (int k = 0; k < shards; ++k) {
      const PlacementPlan& plan = sharded.shard_placement(k);
      ASSERT_EQ(plan.positions(), config.shard.parallelism);
      for (int pos = 0; pos < plan.positions(); ++pos) {
        const int cpu = plan.CpuForPosition(pos);
        ASSERT_GE(cpu, 0) << "shard " << k << " position " << pos;
        EXPECT_TRUE(pinned.insert(cpu).second)
            << shards << " shards: cpu " << cpu << " pinned twice (shard "
            << k << ", position " << pos << ")";
      }
    }
    sharded.PushS(TS{1, 1}, 1);
    sharded.FinishInput();
    EXPECT_EQ(handler.results().size(), 1u);
  }
}

// Result rings that overflow between Polls (every key equal, so each
// arrival matches the whole opposite window): FinishInput must return with
// the exact oracle multiset delivered and no result behind a punctuation
// that covers it.
class ShardedResultRingOverflow
    : public ::testing::TestWithParam<test::OverflowParam> {};

TEST_P(ShardedResultRingOverflow,
       FinishInputDeliversExactlyWithSafePunctuations) {
  test::RunOverflowCase(
      test::MakeOverflowCase(GetParam(), /*shards=*/2));
}

INSTANTIATE_TEST_SUITE_P(Engines, ShardedResultRingOverflow,
                         test::OverflowMatrix(), test::OverflowParamName);

}  // namespace
}  // namespace sjoin
