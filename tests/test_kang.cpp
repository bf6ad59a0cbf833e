// Tests for Kang's three-step procedure — the sequential baseline and the
// oracle every other engine is compared against. Because everything hinges
// on its correctness, it is verified here against hand-computed cases and
// an independent brute-force evaluation of the window-join semantics.
#include <gtest/gtest.h>

#include <vector>

#include "stream/script.hpp"

#include "kang_join.hpp"
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

/// Brute-force reference for *time* windows, straight from the semantics:
/// p(r,s) and neither tuple expired when the other arrived.
std::vector<ResultMsg<TR, TS>> BruteForceTime(const Trace<TR, TS>& trace,
                                              int64_t wr, int64_t ws) {
  std::vector<Stamped<TR>> rs;
  std::vector<Stamped<TS>> ss;
  Seq r_seq = 0, s_seq = 0;
  for (const auto& e : trace) {
    if (e.side == StreamSide::kR) {
      rs.push_back(Stamped<TR>{e.r, r_seq++, e.ts, 0});
    } else {
      ss.push_back(Stamped<TS>{e.s, s_seq++, e.ts, 0});
    }
  }
  std::vector<ResultMsg<TR, TS>> out;
  KeyEq pred;
  for (const auto& r : rs) {
    for (const auto& s : ss) {
      if (!pred(r.value, s.value)) continue;
      const bool s_alive_at_r = r.ts < s.ts || (r.ts - s.ts) <= ws;
      const bool r_alive_at_s = s.ts < r.ts || (s.ts - r.ts) <= wr;
      if (s_alive_at_r && r_alive_at_s) out.push_back(MakeResult(r, s, -1));
    }
  }
  return out;
}

TEST(KangJoin, SimpleMatch) {
  Trace<TR, TS> trace;
  trace.push_back(ArriveR<TR, TS>(0, TR{1, 0}));
  trace.push_back(ArriveS<TR, TS>(1, TS{1, 1}));
  auto script = BuildDriverScript(trace, WindowSpec::Time(10),
                                  WindowSpec::Time(10));
  auto results = RunKangOracle<TR, TS, KeyEq>(script);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].r_seq, 0u);
  EXPECT_EQ(results[0].s_seq, 0u);
  EXPECT_EQ(results[0].ts, 1);  // max(t_r, t_s)
}

TEST(KangJoin, NoMatchOutsideWindow) {
  Trace<TR, TS> trace;
  trace.push_back(ArriveR<TR, TS>(0, TR{1, 0}));
  trace.push_back(ArriveS<TR, TS>(100, TS{1, 1}));
  auto script = BuildDriverScript(trace, WindowSpec::Time(10),
                                  WindowSpec::Time(10));
  EXPECT_TRUE((RunKangOracle<TR, TS, KeyEq>(script).empty()));
}

TEST(KangJoin, WindowBoundaryInclusive) {
  Trace<TR, TS> trace;
  trace.push_back(ArriveR<TR, TS>(0, TR{1, 0}));
  trace.push_back(ArriveS<TR, TS>(10, TS{1, 1}));  // exactly W apart
  auto script = BuildDriverScript(trace, WindowSpec::Time(10),
                                  WindowSpec::Time(10));
  EXPECT_EQ((RunKangOracle<TR, TS, KeyEq>(script).size()), 1u);
}

TEST(KangJoin, AsymmetricWindows) {
  // R window tiny, S window large: r@0 s@50 joins only through W_S ... the
  // surviving side is decided by who arrived first.
  Trace<TR, TS> trace;
  trace.push_back(ArriveR<TR, TS>(0, TR{1, 0}));
  trace.push_back(ArriveS<TR, TS>(50, TS{1, 1}));   // needs r alive: WR >= 50
  trace.push_back(ArriveR<TR, TS>(100, TR{1, 2}));  // needs s alive: WS >= 50
  auto script = BuildDriverScript(trace, WindowSpec::Time(49),
                                  WindowSpec::Time(100));
  auto results = RunKangOracle<TR, TS, KeyEq>(script);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].r_seq, 1u);  // the second R
  EXPECT_EQ(results[0].s_seq, 0u);
}

TEST(KangJoin, CountWindowKeepsLastK) {
  Trace<TR, TS> trace;
  for (int i = 0; i < 3; ++i) {
    trace.push_back(ArriveR<TR, TS>(i, TR{1, i}));
  }
  trace.push_back(ArriveS<TR, TS>(3, TS{1, 99}));
  auto script = BuildDriverScript(trace, WindowSpec::Count(2),
                                  WindowSpec::Count(2));
  auto results = RunKangOracle<TR, TS, KeyEq>(script);
  // Only the last two R tuples are in the window when s arrives.
  ASSERT_EQ(results.size(), 2u);
}

TEST(KangJoin, EqualTimestampsBothDirections) {
  Trace<TR, TS> trace;
  trace.push_back(ArriveR<TR, TS>(5, TR{1, 0}));
  trace.push_back(ArriveS<TR, TS>(5, TS{1, 1}));
  trace.push_back(ArriveR<TR, TS>(5, TR{1, 2}));
  auto script = BuildDriverScript(trace, WindowSpec::Time(0),
                                  WindowSpec::Time(0));
  // All three share ts 5 with zero windows: both R's join the S.
  EXPECT_EQ((RunKangOracle<TR, TS, KeyEq>(script).size()), 2u);
}

TEST(KangJoin, BandPredicate) {
  Trace<TR, TS> trace;
  trace.push_back(ArriveR<TR, TS>(0, TR{10, 0}));
  trace.push_back(ArriveS<TR, TS>(1, TS{11, 1}));
  trace.push_back(ArriveS<TR, TS>(2, TS{12, 2}));
  auto script = BuildDriverScript(trace, WindowSpec::Time(100),
                                  WindowSpec::Time(100));
  auto results = RunKangOracle<TR, TS, KeyBand>(script, KeyBand{1});
  EXPECT_EQ(results.size(), 1u);  // |10-11| <= 1 matches, |10-12| doesn't
}

TEST(KangJoin, MatchesBruteForceOnRandomTraces) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    TraceConfig config;
    config.events = 150;
    config.key_domain = 6;
    config.max_gap_us = 4;
    auto trace = MakeRandomTrace(seed, config);
    const int64_t wr = 20, ws = 35;
    auto script = BuildDriverScript(trace, WindowSpec::Time(wr),
                                    WindowSpec::Time(ws));
    auto kang = RunKangOracle<TR, TS, KeyEq>(script);
    auto brute = BruteForceTime(trace, wr, ws);
    EXPECT_TRUE(SameResultSet(brute, kang)) << "seed " << seed;
  }
}

TEST(KangJoin, WindowSizesTrackScript) {
  VectorSink<TR, TS> sink;
  KangJoin<TR, TS, KeyEq> join(&sink);
  Trace<TR, TS> trace;
  for (int i = 0; i < 5; ++i) trace.push_back(ArriveR<TR, TS>(i, TR{1, i}));
  auto script = BuildDriverScript(trace, WindowSpec::Count(3),
                                  WindowSpec::Count(3), false);
  join.RunScript(script);
  EXPECT_EQ(join.window_size(StreamSide::kR), 3u);
  EXPECT_EQ(join.window_size(StreamSide::kS), 0u);
}

TEST(KangJoin, ResultCarriesPayloads) {
  Trace<TR, TS> trace;
  trace.push_back(ArriveR<TR, TS>(0, TR{7, 123}));
  trace.push_back(ArriveS<TR, TS>(1, TS{7, 456}));
  auto script = BuildDriverScript(trace, WindowSpec::Time(10),
                                  WindowSpec::Time(10));
  auto results = RunKangOracle<TR, TS, KeyEq>(script);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].r.id, 123);
  EXPECT_EQ(results[0].s.id, 456);
}

}  // namespace
}  // namespace sjoin
