// Streaming statistics used by the latency experiments: Welford running
// moments (numerically stable mean/stddev) plus a wall-clock-bucketed time
// series matching the "moving average / maximum per interval" plots of the
// paper (Figures 5, 19, 20).
#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

namespace sjoin {

/// Welford's online algorithm for count/mean/variance plus min/max.
class RunningStat {
 public:
  void Add(double x) {
    ++count_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (x - mean_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }

  void Merge(const RunningStat& other) {
    if (other.count_ == 0) return;
    if (count_ == 0) {
      *this = other;
      return;
    }
    const double n1 = static_cast<double>(count_);
    const double n2 = static_cast<double>(other.count_);
    const double delta = other.mean_ - mean_;
    mean_ += delta * n2 / (n1 + n2);
    m2_ += other.m2_ + delta * delta * n1 * n2 / (n1 + n2);
    count_ += other.count_;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }

  uint64_t count() const { return count_; }
  double mean() const { return count_ == 0 ? 0.0 : mean_; }
  double variance() const {
    return count_ < 2 ? 0.0 : m2_ / static_cast<double>(count_ - 1);
  }
  double stddev() const { return std::sqrt(variance()); }
  double min() const { return count_ == 0 ? 0.0 : min_; }
  double max() const { return count_ == 0 ? 0.0 : max_; }

 private:
  uint64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Fixed-footprint log-bucketed histogram for tail-latency percentiles
/// (p50/p95/p99/p99.9). Values are nanoseconds; each power-of-two octave is
/// split into 2^kSubBits linear sub-buckets, so the representative value of
/// a bucket is within ~1/2^kSubBits (3.1%) of any member — HDR-histogram
/// style, O(1) Add, no allocation after construction, mergeable.
class LatencyHistogram {
 public:
  /// Adds `times` samples of value `ns` (one bucket update for a run).
  void Add(int64_t ns, uint64_t times = 1) {
    if (ns < 0) ns = 0;
    counts_[BucketIndex(static_cast<uint64_t>(ns))] += times;
    count_ += times;
  }

  void Merge(const LatencyHistogram& other) {
    for (std::size_t i = 0; i < kBuckets; ++i) counts_[i] += other.counts_[i];
    count_ += other.count_;
  }

  uint64_t count() const { return count_; }

  /// Value (ns) at quantile q in [0, 1]: the representative (midpoint) of
  /// the bucket holding the ceil(q * count)-th smallest sample. 0 if empty.
  int64_t QuantileNs(double q) const {
    if (count_ == 0) return 0;
    if (q < 0.0) q = 0.0;
    if (q > 1.0) q = 1.0;
    uint64_t rank = static_cast<uint64_t>(q * static_cast<double>(count_));
    if (rank >= count_) rank = count_ - 1;
    uint64_t seen = 0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      seen += counts_[i];
      if (seen > rank) return static_cast<int64_t>(BucketMid(i));
    }
    return static_cast<int64_t>(BucketMid(kBuckets - 1));
  }

  double QuantileMs(double q) const {
    return static_cast<double>(QuantileNs(q)) / 1e6;
  }

 private:
  static constexpr int kSubBits = 5;                  // 32 sub-buckets/octave
  static constexpr int kSub = 1 << kSubBits;
  static constexpr int kOctaves = 64 - kSubBits;      // values up to 2^63
  static constexpr std::size_t kBuckets =
      static_cast<std::size_t>(kSub) * (kOctaves + 1);

  static std::size_t BucketIndex(uint64_t v) {
    if (v < static_cast<uint64_t>(kSub)) return static_cast<std::size_t>(v);
    // Highest set bit places the octave; the next kSubBits bits below it
    // select the linear sub-bucket.
    const int msb = 63 - std::countl_zero(v);
    const int octave = msb - kSubBits;               // >= 1 here
    const uint64_t sub = (v >> octave) - kSub;       // in [0, kSub)
    return static_cast<std::size_t>(octave + 1) * kSub +
           static_cast<std::size_t>(sub);
  }

  static uint64_t BucketMid(std::size_t index) {
    const std::size_t octave1 = index / kSub;        // octave + 1, 0 = linear
    const uint64_t sub = index % kSub;
    if (octave1 == 0) return sub;
    const int octave = static_cast<int>(octave1) - 1;
    const uint64_t lo = (static_cast<uint64_t>(kSub) + sub) << octave;
    return lo + (uint64_t{1} << octave) / 2;
  }

  std::vector<uint64_t> counts_ = std::vector<uint64_t>(kBuckets, 0);
  uint64_t count_ = 0;
};

/// Values bucketed by wall-clock interval (default 1 s), for the latency-
/// over-time plots. The first Add() anchors bucket 0.
class TimeSeriesStat {
 public:
  explicit TimeSeriesStat(int64_t bucket_ns = 1'000'000'000)
      : bucket_ns_(bucket_ns) {}

  void Add(int64_t wall_ns, double value) {
    if (!anchored_) {
      base_ns_ = wall_ns;
      anchored_ = true;
    }
    int64_t idx64 = (wall_ns - base_ns_) / bucket_ns_;
    if (idx64 < 0) idx64 = 0;
    const std::size_t idx = static_cast<std::size_t>(idx64);
    if (idx >= buckets_.size()) buckets_.resize(idx + 1);
    buckets_[idx].Add(value);
  }

  /// Anchor explicitly (e.g. at experiment start) so bucket 0 is t=0.
  void Anchor(int64_t wall_ns) {
    base_ns_ = wall_ns;
    anchored_ = true;
  }

  const std::vector<RunningStat>& buckets() const { return buckets_; }
  int64_t bucket_ns() const { return bucket_ns_; }

 private:
  int64_t bucket_ns_;
  int64_t base_ns_ = 0;
  bool anchored_ = false;
  std::vector<RunningStat> buckets_;
};

}  // namespace sjoin
