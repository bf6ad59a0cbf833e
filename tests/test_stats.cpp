// Tests for the statistics substrate (Welford moments, time-bucketed
// series) used by the latency experiments.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "stream/stats.hpp"

namespace sjoin {
namespace {

TEST(RunningStat, EmptyIsZero) {
  RunningStat s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(RunningStat, SingleValue) {
  RunningStat s;
  s.Add(5.0);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 5.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(RunningStat, MatchesDirectComputation) {
  const std::vector<double> xs = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  RunningStat s;
  for (double x : xs) s.Add(x);
  EXPECT_EQ(s.count(), xs.size());
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  // Sample variance of this classic dataset: sum sq dev = 32, n-1 = 7.
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStat, MergeEqualsSequential) {
  RunningStat a, b, all;
  for (int i = 0; i < 50; ++i) {
    const double x = i * 0.37;
    a.Add(x);
    all.Add(x);
  }
  for (int i = 50; i < 120; ++i) {
    const double x = i * 0.37;
    b.Add(x);
    all.Add(x);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStat, MergeWithEmpty) {
  RunningStat a, empty;
  a.Add(1.0);
  a.Add(3.0);
  a.Merge(empty);
  EXPECT_EQ(a.count(), 2u);
  RunningStat b;
  b.Merge(a);
  EXPECT_EQ(b.count(), 2u);
  EXPECT_DOUBLE_EQ(b.mean(), 2.0);
}

TEST(TimeSeriesStat, BucketsByInterval) {
  TimeSeriesStat series(1000);  // 1 us buckets
  series.Anchor(0);
  series.Add(0, 1.0);
  series.Add(999, 3.0);
  series.Add(1000, 5.0);
  series.Add(2500, 7.0);
  ASSERT_EQ(series.buckets().size(), 3u);
  EXPECT_EQ(series.buckets()[0].count(), 2u);
  EXPECT_DOUBLE_EQ(series.buckets()[0].mean(), 2.0);
  EXPECT_EQ(series.buckets()[1].count(), 1u);
  EXPECT_EQ(series.buckets()[2].count(), 1u);
}

TEST(TimeSeriesStat, AutoAnchorsOnFirstAdd) {
  TimeSeriesStat series(1000);
  series.Add(5000, 1.0);
  series.Add(5999, 2.0);
  ASSERT_EQ(series.buckets().size(), 1u);
  EXPECT_EQ(series.buckets()[0].count(), 2u);
}

TEST(TimeSeriesStat, ValuesBeforeAnchorClampToBucketZero) {
  TimeSeriesStat series(1000);
  series.Anchor(10'000);
  series.Add(9'500, 1.0);  // slightly before anchor
  ASSERT_EQ(series.buckets().size(), 1u);
  EXPECT_EQ(series.buckets()[0].count(), 1u);
}

TEST(LatencyHistogram, EmptyQuantilesAreZero) {
  LatencyHistogram hist;
  EXPECT_EQ(hist.count(), 0u);
  EXPECT_EQ(hist.QuantileNs(0.5), 0);
  EXPECT_EQ(hist.QuantileNs(0.999), 0);
}

TEST(LatencyHistogram, QuantilesWithinBucketResolution) {
  // Log-bucketed (32 sub-buckets per octave): any quantile must come back
  // within the bucket's relative error (< ~3.2%) of the exact value.
  LatencyHistogram hist;
  for (int64_t v = 1; v <= 100'000; ++v) hist.Add(v);
  EXPECT_EQ(hist.count(), 100'000u);
  for (double q : {0.5, 0.95, 0.99, 0.999}) {
    const double exact = q * 100'000.0;
    const double got = static_cast<double>(hist.QuantileNs(q));
    EXPECT_NEAR(got, exact, exact * 0.04) << "q=" << q;
  }
  // Min/max stay inside the recorded range.
  EXPECT_GE(hist.QuantileNs(0.0), 1);
  EXPECT_LE(hist.QuantileNs(1.0), 110'000);
}

TEST(LatencyHistogram, MergeEqualsSequential) {
  LatencyHistogram a, b, both;
  for (int64_t v = 1; v <= 3'000; ++v) {
    (v % 2 == 0 ? a : b).Add(v * 17);
    both.Add(v * 17);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), both.count());
  for (double q : {0.25, 0.5, 0.9, 0.99}) {
    EXPECT_EQ(a.QuantileNs(q), both.QuantileNs(q)) << "q=" << q;
  }
}

TEST(LatencyHistogram, MultiWayMergeEqualsConcatenation) {
  // The sharded merging collector folds one histogram per shard into a
  // session-wide one; a k-way merge must be exactly the concatenated
  // single histogram, bucket for bucket, at every quantile.
  constexpr int kShards = 5;
  LatencyHistogram shard[kShards];
  LatencyHistogram all;
  uint64_t total = 0;
  for (int64_t v = 1; v <= 4'000; ++v) {
    const int64_t sample = v * v % 900'001 + 1;  // spread over many octaves
    shard[v % kShards].Add(sample);
    all.Add(sample);
    ++total;
  }
  LatencyHistogram merged;
  for (const LatencyHistogram& h : shard) merged.Merge(h);
  EXPECT_EQ(merged.count(), total);
  EXPECT_EQ(merged.count(), all.count());
  for (double q : {0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999, 1.0}) {
    EXPECT_EQ(merged.QuantileNs(q), all.QuantileNs(q)) << "q=" << q;
  }
  // Merge order must not matter (bucket addition commutes).
  LatencyHistogram reversed;
  for (int k = kShards - 1; k >= 0; --k) reversed.Merge(shard[k]);
  for (double q : {0.5, 0.99}) {
    EXPECT_EQ(reversed.QuantileNs(q), all.QuantileNs(q)) << "q=" << q;
  }
}

TEST(LatencyHistogram, MergeWithEmptyIsIdentityBothDirections) {
  LatencyHistogram filled, empty;
  for (int64_t v = 1; v <= 500; ++v) filled.Add(v * 31);
  const uint64_t count = filled.count();
  const int64_t p50 = filled.QuantileNs(0.5);
  const int64_t p999 = filled.QuantileNs(0.999);

  filled.Merge(empty);  // merging an empty histogram changes nothing
  EXPECT_EQ(filled.count(), count);
  EXPECT_EQ(filled.QuantileNs(0.5), p50);
  EXPECT_EQ(filled.QuantileNs(0.999), p999);

  LatencyHistogram target;  // merging INTO an empty one copies it
  target.Merge(filled);
  EXPECT_EQ(target.count(), count);
  EXPECT_EQ(target.QuantileNs(0.5), p50);
  EXPECT_EQ(target.QuantileNs(0.999), p999);
  EXPECT_EQ(empty.count(), 0u);  // source untouched
}

TEST(LatencyHistogram, RunAddEqualsRepeatedAdds) {
  // Add(ns, k) is k calls of Add(ns): same count, same bucket, so every
  // quantile agrees — including runs of one, negative values and a mix of
  // run lengths over many octaves.
  LatencyHistogram runs, singles;
  for (int64_t v = -3; v <= 2'000; ++v) {
    const int64_t sample = v * v * 37 % 5'000'011 - 2;
    const uint64_t times = static_cast<uint64_t>((v + 3) % 7);  // 0..6
    runs.Add(sample, times);
    for (uint64_t k = 0; k < times; ++k) singles.Add(sample);
  }
  EXPECT_EQ(runs.count(), singles.count());
  for (double q : {0.0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1.0}) {
    EXPECT_EQ(runs.QuantileNs(q), singles.QuantileNs(q)) << "q=" << q;
  }
  LatencyHistogram merged;
  merged.Merge(runs);
  EXPECT_EQ(merged.count(), singles.count());
  EXPECT_EQ(merged.QuantileNs(0.5), singles.QuantileNs(0.5));
}

TEST(LatencyHistogram, HandlesZeroAndNegativeAsFloor) {
  LatencyHistogram hist;
  hist.Add(0);
  hist.Add(-123);  // clock skew: clamp, don't crash
  hist.Add(5);
  EXPECT_EQ(hist.count(), 3u);
  EXPECT_GE(hist.QuantileNs(1.0), 5);
}

}  // namespace
}  // namespace sjoin
