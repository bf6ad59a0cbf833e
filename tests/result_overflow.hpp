// Result-ring overflow scenario shared by test_session, test_sharded and
// test_threaded. An equi-join in which every key is equal makes each
// arrival match the whole opposite window, so the nodes' result rings
// overflow between Polls. The session must still have delivered exactly the
// Kang reference's result multiset when FinishInput returns, and no result
// may reach the handler after a punctuation that covers it.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "common/schema.hpp"
#include "core/join_session.hpp"
#include "stream/sink.hpp"

#include "kang_join.hpp"
#include "test_util.hpp"

namespace sjoin::test {

struct OverflowCase {
  Algorithm algorithm = Algorithm::kLowLatency;
  bool threaded = true;
  std::size_t result_capacity = kDefaultResultCapacity;
  int shards = 1;
  int parallelism = 3;
  int64_t window = 256;  ///< count window of both sides, in tuples
  int pairs = 12;        ///< rounds of: R span, S span, Poll
};

/// Tuples per PushR/PushS span.
inline constexpr int kOverflowSpan = 64;

/// The session test matrix: engine x threaded x result_capacity, with
/// 2-, 4- and 16-slot rings that fill on every batch and default rings
/// that fill at this window too.
using OverflowParam = std::tuple<Algorithm, bool, std::size_t>;

inline auto OverflowMatrix() {
  return ::testing::Combine(
      ::testing::Values(Algorithm::kLowLatency, Algorithm::kHandshake),
      ::testing::Bool(),
      ::testing::Values(std::size_t{2}, std::size_t{4}, std::size_t{16},
                        kDefaultResultCapacity));
}

/// gtest parameter name, e.g. "llhj_threaded_ring16".
inline std::string OverflowParamName(
    const ::testing::TestParamInfo<OverflowParam>& info) {
  const auto& [algorithm, threaded, result_capacity] = info.param;
  return std::string(ToString(algorithm)) +
         (threaded ? "_threaded" : "_sequential") + "_ring" +
         std::to_string(result_capacity);
}

inline OverflowCase MakeOverflowCase(const OverflowParam& param, int shards) {
  OverflowCase c;
  c.algorithm = std::get<0>(param);
  c.threaded = std::get<1>(param);
  c.result_capacity = std::get<2>(param);
  c.shards = shards;
  return c;
}

/// Pushes `pairs` rounds of a 64-tuple R span and a 64-tuple S span, all
/// with join key 1 and strictly increasing timestamps, calling
/// `after_pair` after each round.
template <typename Session, typename AfterPair>
void PushOverflowPairs(Session& session, int pairs, AfterPair after_pair) {
  std::vector<RTuple> rs(kOverflowSpan);
  std::vector<STuple> ss(kOverflowSpan);
  for (RTuple& r : rs) r.x = 1;
  for (STuple& s : ss) s.a = 1;
  std::vector<Timestamp> r_ts(kOverflowSpan);
  std::vector<Timestamp> s_ts(kOverflowSpan);
  for (int p = 0; p < pairs; ++p) {
    for (int i = 0; i < kOverflowSpan; ++i) {
      r_ts[static_cast<std::size_t>(i)] = 2 * kOverflowSpan * p + i;
      s_ts[static_cast<std::size_t>(i)] =
          2 * kOverflowSpan * p + kOverflowSpan + i;
    }
    session.PushR(std::span<const RTuple>(rs),
                  std::span<const Timestamp>(r_ts));
    session.PushS(std::span<const STuple>(ss),
                  std::span<const Timestamp>(s_ts));
    after_pair();
  }
}

/// Runs `c` against the Kang reference and checks it: the exact multiset
/// is delivered when FinishInput returns, with no punctuation violation
/// and no anomaly; LLHJ emits punctuations; a threaded ring of 16 slots or
/// fewer really fills.
/// Returns the most results one round produced (reference count).
inline uint64_t RunOverflowCase(const OverflowCase& c) {
  LivePunctuationChecker<RTuple, STuple> want;
  KangReference<RTuple, STuple, EquiPredicate> reference(
      WindowSpec::Count(c.window), WindowSpec::Count(c.window),
      EquiPredicate{}, &want);
  uint64_t max_per_pair = 0;
  uint64_t before = 0;
  PushOverflowPairs(reference, c.pairs, [&] {
    max_per_pair = std::max(max_per_pair, want.count() - before);
    before = want.count();
  });

  ShardedJoinConfig config;
  config.shard.algorithm = c.algorithm;
  config.shard.parallelism = c.parallelism;
  config.shard.window_r = WindowSpec::Count(c.window);
  config.shard.window_s = WindowSpec::Count(c.window);
  config.shard.threaded = c.threaded;
  config.shard.result_capacity = c.result_capacity;
  config.shard.punctuate = true;
  config.shards = c.shards;
  // Every key is equal: hashing would send everything to one shard.
  config.partition =
      c.shards > 1 ? PartitionPolicy::kReplicateR : PartitionPolicy::kAuto;
  JoinSession<RTuple, STuple, EquiPredicate> session(config);
  LivePunctuationChecker<RTuple, STuple> got;
  session.AddQuery(EquiPredicate{}, &got);
  PushOverflowPairs(session, c.pairs, [&] { session.Poll(); });
  session.FinishInput();

  // Checked right at the return of FinishInput: no Poll after it.
  EXPECT_EQ(got.count(), want.count()) << "undelivered or extra results";
  EXPECT_TRUE(got.fingerprint() == want.fingerprint())
      << "result multiset differs from the reference";
  EXPECT_EQ(got.violations(), 0u) << "results trailed their punctuation";
  EXPECT_EQ(session.pipeline_anomalies(), 0u);
  if (c.algorithm == Algorithm::kLowLatency) {
    EXPECT_GT(got.punctuations(), 0u);
  }
  if (c.threaded && c.result_capacity <= 16) {
    // A sequential shard fed one tuple per delivery (a replicated side at
    // N = 2) drains between arrivals and need not stall.
    EXPECT_GT(session.result_ring_stalls(), 0u) << "the ring never filled";
  }
  return max_per_pair;
}

}  // namespace sjoin::test
