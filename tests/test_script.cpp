// Tests for the external driver: trace -> script translation, expiry rules
// for time and count windows, sequence assignment, and flush emission;
// and the paper's band-join trace generator.
#include <gtest/gtest.h>

#include <vector>

#include "common/schema.hpp"
#include "stream/generator.hpp"
#include "stream/script.hpp"
#include "stream/window.hpp"

#include "test_util.hpp"

namespace sjoin {
namespace {

using test::TR;
using test::TS;

Trace<TR, TS> T(std::initializer_list<std::pair<char, Timestamp>> events) {
  Trace<TR, TS> trace;
  int32_t id = 0;
  for (const auto& [side, ts] : events) {
    if (side == 'r') {
      trace.push_back(ArriveR<TR, TS>(ts, TR{1, id++}));
    } else {
      trace.push_back(ArriveS<TR, TS>(ts, TS{1, id++}));
    }
  }
  return trace;
}

std::vector<DriverOp> Ops(const DriverScript<TR, TS>& script) {
  std::vector<DriverOp> ops;
  for (const auto& e : script.events) ops.push_back(e.op);
  return ops;
}

TEST(Script, AssignsDenseSequencesPerSide) {
  auto script = BuildDriverScript(T({{'r', 0}, {'s', 1}, {'r', 2}, {'s', 3}}),
                                  WindowSpec::Time(100), WindowSpec::Time(100),
                                  /*flush_at_end=*/false);
  ASSERT_EQ(script.events.size(), 4u);
  EXPECT_EQ(script.r_count, 2u);
  EXPECT_EQ(script.s_count, 2u);
  EXPECT_EQ(script.events[0].seq, 0u);
  EXPECT_EQ(script.events[1].seq, 0u);
  EXPECT_EQ(script.events[2].seq, 1u);
  EXPECT_EQ(script.events[3].seq, 1u);
}

TEST(Script, TimeWindowExpiryIsStrict) {
  // W = 10: tuple at ts 0 survives an arrival at ts 10 (10 - 0 == W, still
  // matches) but expires before an arrival at ts 11.
  auto script =
      BuildDriverScript(T({{'r', 0}, {'s', 10}, {'s', 11}}),
                        WindowSpec::Time(10), WindowSpec::Time(10), false);
  EXPECT_EQ(Ops(script),
            (std::vector<DriverOp>{DriverOp::kArriveR, DriverOp::kArriveS,
                                   DriverOp::kExpireR, DriverOp::kArriveS}));
}

TEST(Script, TimeWindowPerSideSizes) {
  // WR = 5, WS = 50: R expires quickly, S lingers.
  auto script =
      BuildDriverScript(T({{'r', 0}, {'s', 0}, {'r', 20}}),
                        WindowSpec::Time(5), WindowSpec::Time(50), false);
  EXPECT_EQ(Ops(script),
            (std::vector<DriverOp>{DriverOp::kArriveR, DriverOp::kArriveS,
                                   DriverOp::kExpireR, DriverOp::kArriveR}));
}

TEST(Script, TimeExpiriesOrderedOldestFirstAcrossSides) {
  auto script = BuildDriverScript(
      T({{'r', 0}, {'s', 1}, {'r', 100}}), WindowSpec::Time(10),
      WindowSpec::Time(10), false);
  ASSERT_EQ(script.events.size(), 5u);
  EXPECT_EQ(script.events[2].op, DriverOp::kExpireR);  // ts 0 first
  EXPECT_EQ(script.events[3].op, DriverOp::kExpireS);  // ts 1 second
}

TEST(Script, CountWindowExpiresOldestAfterOverflow) {
  auto script = BuildDriverScript(T({{'r', 0}, {'r', 1}, {'r', 2}}),
                                  WindowSpec::Count(2), WindowSpec::Count(2),
                                  false);
  EXPECT_EQ(Ops(script),
            (std::vector<DriverOp>{DriverOp::kArriveR, DriverOp::kArriveR,
                                   DriverOp::kArriveR, DriverOp::kExpireR}));
  EXPECT_EQ(script.events[3].seq, 0u);  // the oldest R
}

TEST(Script, CountWindowsIndependentPerSide) {
  auto script = BuildDriverScript(
      T({{'r', 0}, {'s', 1}, {'r', 2}, {'s', 3}}), WindowSpec::Count(1),
      WindowSpec::Count(5), false);
  EXPECT_EQ(Ops(script),
            (std::vector<DriverOp>{DriverOp::kArriveR, DriverOp::kArriveS,
                                   DriverOp::kArriveR, DriverOp::kExpireR,
                                   DriverOp::kArriveS}));
}

TEST(Script, MixedTimeAndCountWindows) {
  auto script = BuildDriverScript(
      T({{'r', 0}, {'r', 1}, {'s', 2}, {'s', 30}}), WindowSpec::Count(1),
      WindowSpec::Time(10), false);
  // R: count window 1 -> seq 0 expires right after seq 1 arrives.
  // S: time window 10 -> s@2 expires before s@30.
  EXPECT_EQ(Ops(script),
            (std::vector<DriverOp>{DriverOp::kArriveR, DriverOp::kArriveR,
                                   DriverOp::kExpireR, DriverOp::kArriveS,
                                   DriverOp::kExpireS, DriverOp::kArriveS}));
}

TEST(Script, FlushAppendedAtEnd) {
  auto script = BuildDriverScript(T({{'r', 0}}), WindowSpec::Time(10),
                                  WindowSpec::Time(10), true);
  ASSERT_GE(script.events.size(), 3u);
  EXPECT_EQ(script.events[script.events.size() - 2].op, DriverOp::kFlushR);
  EXPECT_EQ(script.events.back().op, DriverOp::kFlushS);
}

TEST(Script, EmptyTrace) {
  auto script = BuildDriverScript(Trace<TR, TS>{}, WindowSpec::Time(10),
                                  WindowSpec::Time(10), false);
  EXPECT_TRUE(script.events.empty());
  EXPECT_EQ(script.r_count, 0u);
  EXPECT_EQ(script.s_count, 0u);
}

TEST(Script, ExpiryCarriesOriginalTimestamp) {
  auto script = BuildDriverScript(T({{'r', 5}, {'s', 100}}),
                                  WindowSpec::Time(10), WindowSpec::Time(10),
                                  false);
  ASSERT_EQ(script.events.size(), 3u);
  EXPECT_EQ(script.events[1].op, DriverOp::kExpireR);
  EXPECT_EQ(script.events[1].ts, 5);
}

TEST(Script, ZeroTimeWindowExpiresOnNextTick) {
  auto script =
      BuildDriverScript(T({{'r', 0}, {'s', 0}, {'s', 1}}),
                        WindowSpec::Time(0), WindowSpec::Time(0), false);
  // r@0 and s@0 still join (0 - 0 <= 0); both expire before ts 1.
  EXPECT_EQ(Ops(script),
            (std::vector<DriverOp>{DriverOp::kArriveR, DriverOp::kArriveS,
                                   DriverOp::kExpireR, DriverOp::kExpireS,
                                   DriverOp::kArriveS}));
}

TEST(ExpiryTracker, LiveCountsTrackArrivalsAndExpiries) {
  ExpiryTracker tracker(WindowSpec::Count(2), WindowSpec::Count(2));
  Seq expired_seq;
  Timestamp expired_ts;
  EXPECT_FALSE(tracker.OnArrival(StreamSide::kR, 0, 0, &expired_seq,
                                 &expired_ts));
  EXPECT_FALSE(tracker.OnArrival(StreamSide::kR, 1, 1, &expired_seq,
                                 &expired_ts));
  EXPECT_EQ(tracker.live_count(StreamSide::kR), 2u);
  EXPECT_TRUE(tracker.OnArrival(StreamSide::kR, 2, 2, &expired_seq,
                                &expired_ts));
  EXPECT_EQ(expired_seq, 0u);
  EXPECT_EQ(tracker.live_count(StreamSide::kR), 2u);
}

TEST(Generator, BandTraceHasPaperShape) {
  auto trace = MakeBandTrace(50, 3, /*seed=*/9);
  ASSERT_EQ(trace.size(), 100u);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ(trace[i].side,
              i % 2 == 0 ? StreamSide::kR : StreamSide::kS);
    EXPECT_EQ(trace[i].ts, static_cast<Timestamp>(i) * 3);
    if (trace[i].side == StreamSide::kR) {
      EXPECT_GE(trace[i].r.x, 1);
      EXPECT_LE(trace[i].r.x, kPaperKeyDomain);
    }
  }
}

}  // namespace
}  // namespace sjoin
