// Latency-budget overload control (DESIGN.md Section 12).
//
// The invariant under test everywhere here: shedding happens AT INGEST
// ONLY, and every gap it tears into the arrival sequence is accounted for
// exactly — the union of all delivered OnLoss bounds (side, first_seq,
// count) equals the generator-side ground-truth set of shed sequence
// numbers, per side, with no overlap. On top of that the join stays exact
// over what was admitted: the result set equals the oracle run over the
// shed-filtered input, punctuations stay safe and monotone, and the
// anomaly counters stay zero. Both engines are held to the contract.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "core/join_session.hpp"
#include "llhj/llhj_pipeline.hpp"
#include "stream/admission.hpp"
#include "stream/latency_model.hpp"

#include "kang_join.hpp"
#include "schedule_fuzzer.hpp"
#include "test_util.hpp"

namespace sjoin {
namespace {

using test::FuzzOptions;
using test::KeyEq;
using test::MakeRandomTrace;
using test::RunFuzzedSchedule;
using test::SameResultSet;
using test::TR;
using test::TraceConfig;
using test::TS;

// -- Policy knob parsing -----------------------------------------------------

TEST(OverloadPolicy, ParseRoundTripsEveryPolicy) {
  for (OverloadPolicy p :
       {OverloadPolicy::kNone, OverloadPolicy::kDropNewest,
        OverloadPolicy::kDropOldest, OverloadPolicy::kSample}) {
    EXPECT_EQ(ParseOverloadPolicy(ToString(p)), p);
  }
}

TEST(OverloadPolicy, ParseNamesTheOffendingValue) {
  try {
    ParseOverloadPolicy("bogus");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("bogus"), std::string::npos) << msg;
    EXPECT_NE(msg.find("drop_newest"), std::string::npos)
        << "message should list the valid policies: " << msg;
  }
}

// -- Projection closed form --------------------------------------------------

TEST(AdmissionProjection, WaitsAddAndQueueingTakesTheMax) {
  // Pipeline EWMA dominates an empty queue.
  EXPECT_EQ(ProjectedAdmissionLatencyNs(0, 500, 0, 100), 500);
  // Queueing dominates once backlog * service exceeds the EWMA (the EWMA
  // already contains steady-state queueing; max, not sum, avoids counting
  // it twice).
  EXPECT_EQ(ProjectedAdmissionLatencyNs(0, 500, 10, 100), 1000);
  // Time already waited at ingest always adds.
  EXPECT_EQ(ProjectedAdmissionLatencyNs(300, 500, 10, 100), 1300);
  // Clock skew must not produce negative waits.
  EXPECT_EQ(ProjectedAdmissionLatencyNs(-50, 500, 0, 100), 500);
}

// -- Gap accounting ----------------------------------------------------------

TEST(AdmissionController, CoalescesAdjacentShedsIntoOneGap) {
  AdmissionController adm;
  adm.RecordShed(StreamSide::kR, 4);
  adm.RecordShed(StreamSide::kR, 5);
  adm.RecordShed(StreamSide::kR, 6);
  adm.RecordShed(StreamSide::kR, 9);  // non-adjacent: new gap
  adm.RecordShed(StreamSide::kS, 0);

  EXPECT_EQ(adm.shed_count(StreamSide::kR), 4u);
  EXPECT_EQ(adm.shed_count(StreamSide::kS), 1u);

  LossBound gap;
  ASSERT_TRUE(adm.TakeGap(StreamSide::kR, &gap));
  EXPECT_EQ(gap.first_seq, 4u);
  EXPECT_EQ(gap.count, 3u);
  ASSERT_TRUE(adm.TakeGap(StreamSide::kR, &gap));
  EXPECT_EQ(gap.first_seq, 9u);
  EXPECT_EQ(gap.count, 1u);
  EXPECT_FALSE(adm.TakeGap(StreamSide::kR, &gap));
  ASSERT_TRUE(adm.TakeGap(StreamSide::kS, &gap));
  EXPECT_EQ(gap.side, StreamSide::kS);
  EXPECT_EQ(gap.first_seq, 0u);
  EXPECT_EQ(gap.count, 1u);
}

// -- Shared ground-truth helpers ---------------------------------------------

/// Deterministic shed predicates exercised against every path: a prefix, a
/// suffix, and a pseudo-random subset (Knuth multiplicative hash).
enum class ShedPattern { kPrefix, kSuffix, kSubset };

bool GroundTruthShed(ShedPattern pattern, StreamSide side, Seq seq,
                     Seq side_count) {
  switch (pattern) {
    case ShedPattern::kPrefix:
      return seq < side_count / 4;
    case ShedPattern::kSuffix:
      return seq >= (3 * side_count) / 4;
    case ShedPattern::kSubset:
      return ((seq * 2654435761u) ^ (side == StreamSide::kR ? 0u : 0x9e37u)) %
                 3 ==
             0;
  }
  return false;
}

/// The input the pipeline should effectively have seen: shed arrivals AND
/// the expiries referencing them removed (the windows never held them).
template <typename Pred>
DriverScript<TR, TS> FilterScript(const DriverScript<TR, TS>& script,
                                  Pred shed) {
  DriverScript<TR, TS> out;
  out.r_count = script.r_count;
  out.s_count = script.s_count;
  for (const auto& event : script.events) {
    StreamSide side = StreamSide::kR;
    bool has_seq = true;
    switch (event.op) {
      case DriverOp::kArriveR:
      case DriverOp::kExpireR:
        side = StreamSide::kR;
        break;
      case DriverOp::kArriveS:
      case DriverOp::kExpireS:
        side = StreamSide::kS;
        break;
      default:
        has_seq = false;
        break;
    }
    if (has_seq && shed(side, event.seq)) continue;
    out.events.push_back(event);
  }
  return out;
}

/// Expands delivered loss bounds into per-side seq sets, asserting that no
/// sequence number is reported lost twice.
void ExpandLosses(const std::vector<LossBound>& losses,
                  std::set<Seq>* lost_r, std::set<Seq>* lost_s) {
  for (const LossBound& bound : losses) {
    auto* dst = bound.side == StreamSide::kR ? lost_r : lost_s;
    for (uint64_t i = 0; i < bound.count; ++i) {
      const auto inserted = dst->insert(bound.first_seq + i);
      EXPECT_TRUE(inserted.second)
          << "seq " << bound.first_seq + i << " reported lost twice";
    }
  }
}

template <typename Pred>
void GroundTruthSets(const DriverScript<TR, TS>& script, Pred shed,
                     std::set<Seq>* shed_r, std::set<Seq>* shed_s) {
  for (const auto& event : script.events) {
    if (event.op == DriverOp::kArriveR &&
        shed(StreamSide::kR, event.seq)) {
      shed_r->insert(event.seq);
    } else if (event.op == DriverOp::kArriveS &&
               shed(StreamSide::kS, event.seq)) {
      shed_s->insert(event.seq);
    }
  }
}

// -- Feeder-path fuzz: exactness + accounting under adversarial schedules ----

class OverloadFuzz
    : public ::testing::TestWithParam<std::tuple<ShedPattern, uint64_t>> {};

TEST_P(OverloadFuzz, ExactLossAccountingUnderAdversarialSchedules) {
  const auto [pattern, seed] = GetParam();

  TraceConfig trace_config;
  trace_config.events = 240;
  trace_config.key_domain = 5;
  trace_config.max_gap_us = 3;
  auto trace = MakeRandomTrace(seed * 577 + 29, trace_config);
  auto script =
      BuildDriverScript(trace, WindowSpec::Count(22), WindowSpec::Count(17));

  const auto shed = [&](StreamSide side, Seq seq) {
    return GroundTruthShed(
        pattern, side, seq,
        side == StreamSide::kR ? script.r_count : script.s_count);
  };
  auto oracle = RunKangOracle<TR, TS, KeyEq>(FilterScript(script, shed));

  typename LlhjPipeline<TR, TS, KeyEq>::Options options;
  options.nodes = 4;
  options.channel_capacity = 64;
  options.punctuate = true;
  LlhjPipeline<TR, TS, KeyEq> pipeline(options);

  AdmissionController admission;
  admission.SetForceShed(shed);

  // Punctuation safety probe: the high-water marks must stay monotone no
  // matter which ingest prefixes/suffixes/subsets were shed.
  Timestamp last_safe_min = kMinTimestamp;
  Timestamp last_r = kMinTimestamp;
  Timestamp last_s = kMinTimestamp;

  FuzzOptions fuzz;
  fuzz.seed = seed * 131 + 17;
  fuzz.admission = &admission;
  fuzz.expiry_gate = &pipeline.hwm();
  fuzz.per_round = [&] {
    const Timestamp safe = pipeline.hwm().SafeMin();
    const Timestamp tr = pipeline.hwm().Get(StreamSide::kR);
    const Timestamp ts = pipeline.hwm().Get(StreamSide::kS);
    ASSERT_GE(safe, last_safe_min) << "SafeMin regressed";
    ASSERT_GE(tr, last_r) << "t_max,R regressed";
    ASSERT_GE(ts, last_s) << "t_max,S regressed";
    last_safe_min = safe;
    last_r = tr;
    last_s = ts;
  };

  auto fuzzed = RunFuzzedSchedule(pipeline, script, fuzz);

  EXPECT_EQ(pipeline.total_anomalies(), 0u);
  EXPECT_TRUE(SameResultSet(oracle, fuzzed.results));

  // Punctuations must be strictly increasing and safe: no later result may
  // carry a smaller timestamp than an already-emitted punctuation. Results
  // and punctuations are recorded by the same single-threaded handler, so
  // the last punctuation bounds only results that arrive after it; the
  // collector's mark-before-vacuum protocol guarantees the final state.
  for (std::size_t i = 1; i < fuzzed.punctuations.size(); ++i) {
    EXPECT_GT(fuzzed.punctuations[i], fuzzed.punctuations[i - 1]);
  }

  // Exact loss accounting: delivered bounds == generator-side ground truth.
  std::set<Seq> shed_r_truth, shed_s_truth;
  GroundTruthSets(script, shed, &shed_r_truth, &shed_s_truth);
  std::set<Seq> lost_r, lost_s;
  ExpandLosses(fuzzed.losses, &lost_r, &lost_s);
  EXPECT_EQ(lost_r, shed_r_truth);
  EXPECT_EQ(lost_s, shed_s_truth);
  EXPECT_EQ(admission.shed_count(StreamSide::kR), shed_r_truth.size());
  EXPECT_EQ(admission.shed_count(StreamSide::kS), shed_s_truth.size());
}

std::string ShedParamName(
    const ::testing::TestParamInfo<std::tuple<ShedPattern, uint64_t>>& info) {
  const char* names[] = {"Prefix", "Suffix", "Subset"};
  return std::string(names[static_cast<int>(std::get<0>(info.param))]) + "s" +
         std::to_string(std::get<1>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    Overload, OverloadFuzz,
    ::testing::Combine(::testing::Values(ShedPattern::kPrefix,
                                         ShedPattern::kSuffix,
                                         ShedPattern::kSubset),
                       ::testing::Values(1u, 2u, 3u)),
    ShedParamName);

// -- Session path: the loss-accounting oracle on both engines ---------------

struct EngineRun {
  std::vector<ResultMsg<TR, TS>> results;
  std::set<Seq> lost_r;
  std::set<Seq> lost_s;
  uint64_t shed_r = 0;
  uint64_t shed_s = 0;
};

const WindowSpec kShedWindowR = WindowSpec::Count(16);
const WindowSpec kShedWindowS = WindowSpec::Count(12);

struct ShedItem {
  bool is_r;
  int32_t key;
  int id;
  Timestamp ts;
};

/// Grouped interleaving — alternating runs of 8 R then 8 S — used by BOTH
/// ingestion paths, so scalar and batch runs see the identical cross-side
/// arrival order (join semantics depend on it) and differ only in how the
/// tuples are handed over.
std::vector<ShedItem> ShedOrder() {
  constexpr int kBlocks = 12;
  constexpr int kSpan = 8;
  std::vector<ShedItem> order;
  for (int block = 0; block < kBlocks; ++block) {
    for (int j = 0; j < kSpan; ++j) {
      const int id = block * 2 * kSpan + 2 * j;
      order.push_back(
          ShedItem{true, static_cast<int32_t>((id * 7) % 5), id, id});
    }
    for (int j = 0; j < kSpan; ++j) {
      const int id = block * 2 * kSpan + 2 * j + 1;
      order.push_back(
          ShedItem{false, static_cast<int32_t>((id * 7) % 5), id, id});
    }
  }
  return order;
}

/// Pushes ShedOrder() per tuple, or as maximal same-side spans.
template <typename Joinable>
void PushShedOrder(Joinable& join, bool batch_push) {
  const std::vector<ShedItem> order = ShedOrder();
  if (!batch_push) {
    for (const ShedItem& item : order) {
      if (item.is_r) {
        join.PushR(TR{item.key, item.id}, item.ts);
      } else {
        join.PushS(TS{item.key, item.id}, item.ts);
      }
    }
    return;
  }
  std::size_t i = 0;
  while (i < order.size()) {
    const bool is_r = order[i].is_r;
    std::vector<TR> rs;
    std::vector<TS> ss;
    std::vector<Timestamp> tss;
    while (i < order.size() && order[i].is_r == is_r) {
      if (is_r) {
        rs.push_back(TR{order[i].key, order[i].id});
      } else {
        ss.push_back(TS{order[i].key, order[i].id});
      }
      tss.push_back(order[i].ts);
      ++i;
    }
    if (is_r) {
      join.PushR(std::span<const TR>(rs), std::span<const Timestamp>(tss));
    } else {
      join.PushS(std::span<const TS>(ss), std::span<const Timestamp>(tss));
    }
  }
}

template <typename Shed>
EngineRun RunEngineWithShedding(Algorithm algo, Shed shed, bool batch_push,
                                int shards = 1) {
  JoinConfig config;
  config.algorithm = algo;
  config.parallelism = 3;
  config.threaded = false;
  config.window_r = kShedWindowR;
  config.window_s = kShedWindowS;

  JoinSession<TR, TS, KeyEq> session(
      ShardedJoinConfig{config, shards, PartitionPolicy::kAuto});
  CollectingHandler<TR, TS> handler;
  session.AddQuery(KeyEq{}, &handler);
  session.admission().SetForceShed(shed);
  PushShedOrder(session, batch_push);
  session.FinishInput();
  session.Poll();

  EXPECT_EQ(session.pipeline_anomalies(), 0u) << ToString(algo);
  EXPECT_EQ(session.tuples_lost_reported(StreamSide::kR),
            session.tuples_shed(StreamSide::kR))
      << ToString(algo);
  EXPECT_EQ(session.tuples_lost_reported(StreamSide::kS),
            session.tuples_shed(StreamSide::kS))
      << ToString(algo);

  EngineRun run;
  run.results = handler.results();
  run.shed_r = session.tuples_shed(StreamSide::kR);
  run.shed_s = session.tuples_shed(StreamSide::kS);
  ExpandLosses(handler.losses(), &run.lost_r, &run.lost_s);
  return run;
}

TEST(OverloadSession, ExactLossAccountingOnBothEngines) {
  // Deterministic subset shed, identical for every engine (forced by seq),
  // so both must agree with the reference on results AND accounting.
  const auto shed = [](StreamSide side, Seq seq) {
    return GroundTruthShed(ShedPattern::kSubset, side, seq, 100);
  };

  // Ground truth over the push order of ShedOrder: 12 blocks of 8 tuples
  // per side = 96 sequence numbers per side.
  std::set<Seq> shed_r_truth, shed_s_truth;
  for (Seq q = 0; q < 96; ++q) {
    if (shed(StreamSide::kR, q)) shed_r_truth.insert(q);
    if (shed(StreamSide::kS, q)) shed_s_truth.insert(q);
  }
  ASSERT_FALSE(shed_r_truth.empty());
  ASSERT_FALSE(shed_s_truth.empty());

  // The Kang reference over the same pushes: shed seqs are consumed but
  // never enter a window.
  CollectingHandler<TR, TS> reference_handler;
  KangReference<TR, TS, KeyEq> reference(kShedWindowR, kShedWindowS, KeyEq{},
                                         &reference_handler, shed);
  PushShedOrder(reference, /*batch_push=*/false);

  for (Algorithm algo : {Algorithm::kHandshake, Algorithm::kLowLatency}) {
    SCOPED_TRACE(ToString(algo));
    EngineRun run = RunEngineWithShedding(algo, shed, /*batch_push=*/false);
    EXPECT_EQ(run.lost_r, shed_r_truth);
    EXPECT_EQ(run.lost_s, shed_s_truth);
    EXPECT_EQ(run.shed_r, shed_r_truth.size());
    EXPECT_EQ(run.shed_s, shed_s_truth.size());
    // Every engine shed the same tuples, so every engine must produce the
    // reference's result multiset.
    EXPECT_TRUE(SameResultSet(reference_handler.results(), run.results));
  }
}

TEST(OverloadSession, BatchPushPathShedsAndAccountsIdentically) {
  const auto shed = [](StreamSide side, Seq seq) {
    return GroundTruthShed(ShedPattern::kSubset, side, seq, 100);
  };
  // At 2 shards every loss gap is staged into the first shard, also when
  // it closes in the middle of a span routed to the other one.
  const EngineRun reference =
      RunEngineWithShedding(Algorithm::kLowLatency, shed, false);
  for (int shards : {1, 2}) {
    SCOPED_TRACE("shards " + std::to_string(shards));
    EngineRun scalar =
        RunEngineWithShedding(Algorithm::kLowLatency, shed, false, shards);
    EngineRun batch =
        RunEngineWithShedding(Algorithm::kLowLatency, shed, true, shards);
    EXPECT_TRUE(SameResultSet(scalar.results, batch.results));
    EXPECT_EQ(scalar.lost_r, batch.lost_r);
    EXPECT_EQ(scalar.lost_s, batch.lost_s);
    EXPECT_TRUE(SameResultSet(reference.results, batch.results));
    EXPECT_EQ(reference.lost_r, batch.lost_r);
    EXPECT_EQ(reference.lost_s, batch.lost_s);
  }
}

TEST(OverloadSession, NoPolicyNeverSheds) {
  // Default config: no budget, no policy — admission disabled; everything
  // is admitted and no loss is ever reported.
  JoinConfig config;
  config.algorithm = Algorithm::kLowLatency;
  config.parallelism = 2;
  config.threaded = false;
  config.window_r = WindowSpec::Count(8);
  config.window_s = WindowSpec::Count(8);
  JoinSession<TR, TS, KeyEq> session(config);
  CollectingHandler<TR, TS> handler;
  session.AddQuery(KeyEq{}, &handler);
  for (int i = 0; i < 64; ++i) {
    session.PushR(TR{i % 3, i}, i);
    session.PushS(TS{i % 3, i}, i);
  }
  session.FinishInput();
  EXPECT_EQ(session.tuples_shed(StreamSide::kR), 0u);
  EXPECT_EQ(session.tuples_shed(StreamSide::kS), 0u);
  EXPECT_TRUE(handler.losses().empty());
  EXPECT_GT(handler.results().size(), 0u);
}

}  // namespace
}  // namespace sjoin
