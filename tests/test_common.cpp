// Unit tests for src/common: fixed strings, RNG, schemas, the latency
// model, and basic type helpers.
#include <gtest/gtest.h>

#include <set>

#include "common/fixed_string.hpp"
#include "common/rng.hpp"
#include "common/schema.hpp"
#include "common/types.hpp"
#include "stream/latency_model.hpp"

namespace sjoin {
namespace {

TEST(FixedString, DefaultIsEmpty) {
  FixedString<8> s;
  EXPECT_EQ(s.size(), 0u);
  EXPECT_EQ(s.str(), "");
}

TEST(FixedString, AssignAndRead) {
  FixedString<8> s;
  s.Assign("hello");
  EXPECT_EQ(s.size(), 5u);
  EXPECT_EQ(s.str(), "hello");
  EXPECT_EQ(s.view(), "hello");
}

TEST(FixedString, TruncatesAtCapacity) {
  FixedString<4> s("abcdefgh");
  EXPECT_EQ(s.size(), 4u);
  EXPECT_EQ(s.str(), "abcd");
}

TEST(FixedString, ExactCapacityNoNul) {
  FixedString<4> s("abcd");
  EXPECT_EQ(s.size(), 4u);
  EXPECT_EQ(s.str(), "abcd");
}

TEST(FixedString, ReassignShorterClearsTail) {
  FixedString<8> s("longtext");
  s.Assign("ab");
  EXPECT_EQ(s.str(), "ab");
  FixedString<8> t("ab");
  EXPECT_EQ(s, t);
}

TEST(FixedString, Equality) {
  FixedString<8> a("x"), b("x"), c("y");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST(Rng, DeterministicFromSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.Next() == b.Next() ? 1 : 0;
  EXPECT_LT(same, 4);
}

TEST(Rng, UniformIntInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const int64_t v = rng.UniformInt(3, 17);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 17);
  }
}

TEST(Rng, UniformIntCoversRange) {
  Rng rng(9);
  std::set<int64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.UniformInt(0, 9));
  EXPECT_EQ(seen.size(), 10u);
}

TEST(Rng, UniformDoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.UniformDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, ChanceExtremes) {
  Rng rng(13);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.Chance(0.0));
    EXPECT_TRUE(rng.Chance(1.0));
  }
}

TEST(Types, OppositeSide) {
  EXPECT_EQ(Opposite(StreamSide::kR), StreamSide::kS);
  EXPECT_EQ(Opposite(StreamSide::kS), StreamSide::kR);
}

TEST(Types, SideNames) {
  EXPECT_STREQ(ToString(StreamSide::kR), "R");
  EXPECT_STREQ(ToString(StreamSide::kS), "S");
}

TEST(Schema, BandPredicateMatchesInsideBand) {
  BandPredicate pred;
  RTuple r;
  r.x = 100;
  r.y = 200.0f;
  STuple s;
  s.a = 105;
  s.b = 195.0f;
  EXPECT_TRUE(pred(r, s));
}

TEST(Schema, BandPredicateRejectsOutsideX) {
  BandPredicate pred;
  RTuple r;
  r.x = 100;
  r.y = 200.0f;
  STuple s;
  s.a = 111;  // 11 > 10
  s.b = 200.0f;
  EXPECT_FALSE(pred(r, s));
}

TEST(Schema, BandPredicateRejectsOutsideY) {
  BandPredicate pred;
  RTuple r;
  r.x = 100;
  r.y = 200.0f;
  STuple s;
  s.a = 100;
  s.b = 211.0f;
  EXPECT_FALSE(pred(r, s));
}

TEST(Schema, BandBoundaryIsInclusive) {
  BandPredicate pred;
  RTuple r;
  r.x = 100;
  r.y = 200.0f;
  STuple s;
  s.a = 110;
  s.b = 190.0f;
  EXPECT_TRUE(pred(r, s));  // exactly +/-10
}

TEST(Schema, EquiPredicate) {
  EquiPredicate pred;
  RTuple r;
  r.x = 42;
  STuple s;
  s.a = 42;
  EXPECT_TRUE(pred(r, s));
  s.a = 43;
  EXPECT_FALSE(pred(r, s));
}

TEST(Schema, KeyExtractors) {
  RTuple r;
  r.x = 7;
  STuple s;
  s.a = 9;
  using Equi = JoinKeyTraits<EquiPredicate, RTuple, STuple>;
  EXPECT_EQ(Equi::KeyR(r), 7);
  EXPECT_EQ(Equi::KeyS(s), 9);
  static_assert(IsEquiKey<EquiPredicate, RTuple, STuple>());
  using Band = JoinKeyTraits<BandPredicate, RTuple, STuple>;
  EXPECT_EQ(Band::KeyR(r), 7);
  EXPECT_EQ(Band::KeyS(s), 9);
  EXPECT_EQ(Band::Radius(BandPredicate{12, 1.0f}), 12);
  static_assert(!IsEquiKey<BandPredicate, RTuple, STuple>());
}

TEST(LatencyModel, SymmetricWindows) {
  // |W_R| = |W_S| = W  =>  bound = W/2 (paper: "expected maximum is 1/2 W").
  EXPECT_DOUBLE_EQ(HsjMaxLatencyBound(200.0, 200.0), 100.0);
}

TEST(LatencyModel, AsymmetricWindowsFig5b) {
  // |W_R| = 100 s, |W_S| = 200 s => 66.6 s (paper Section 3.2).
  EXPECT_NEAR(HsjMaxLatencyBound(100.0, 200.0), 66.66, 0.01);
}

TEST(LatencyModel, ZeroWindow) {
  EXPECT_DOUBLE_EQ(HsjMaxLatencyBound(0.0, 200.0), 0.0);
}

TEST(LatencyModel, MeetingPointEqualWindows) {
  EXPECT_DOUBLE_EQ(HsjEqualTimestampMeetingPoint(100.0, 100.0), 0.5);
}

TEST(LatencyModel, MeetingPointSkewsTowardSmallerWindow) {
  // |W_S| smaller => alpha = WS/(WR+WS) < 1/2.
  EXPECT_LT(HsjEqualTimestampMeetingPoint(200.0, 100.0), 0.5);
}

}  // namespace
}  // namespace sjoin
