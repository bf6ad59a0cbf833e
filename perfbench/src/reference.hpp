// Independent reference join for the benchmark's inputs. It shares nothing
// with the engine's join path: no window store, no SIMD kernel, no driver.
// Each side keeps its live window as a FIFO of slots plus per-key bucket
// chains, so a probe visits only the buckets its predicate can reach and
// tests each candidate with a plain scalar predicate.
//
// Window semantics are the session's (stream/script.hpp ExpiryTracker):
//  * time window W: before an arrival with timestamp t, every tuple of
//    either side with ts + W < t expires;
//  * count window W: right after an arrival, the oldest tuple of the same
//    side expires once that side holds more than W tuples.
// An arrival pairs with every live tuple of the other side, so each result
// is found exactly once, when its later input arrives.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/schema.hpp"
#include "common/types.hpp"
#include "util.hpp"

namespace perfbench {

/// Running result totals: count, multiset hash and how many results the
/// deterministic latency sample would pick.
struct Totals {
  uint64_t count = 0;
  uint64_t hash = 0;
  uint64_t sampled = 0;
};

class ReferenceJoin {
 public:
  /// `band` > 0 selects the paper's band predicate with that x/y band;
  /// 0 selects the equi predicate r.x == s.a. Keys lie in [1, key_domain].
  /// `capacity` bounds the number of live tuples per side.
  ReferenceJoin(bool time_window, int64_t window, int32_t key_domain,
                int32_t band, std::size_t capacity)
      : time_window_(time_window),
        window_(window),
        domain_(key_domain),
        band_(band),
        r_(key_domain, capacity),
        s_(key_domain, capacity) {}

  /// `sampled` tells whether results of this arrival count as latency
  /// samples (their later input is this arrival, pushed after warm-up);
  /// `sample_mask` is the 1-in-N selector on the pair hash.
  void ArriveR(const sjoin::RTuple& r, sjoin::Seq seq, sjoin::Timestamp ts,
               bool sampled, uint64_t sample_mask) {
    ExpireByTime(ts);
    const auto [lo, hi] = KeyRange(r.x);
    for (int32_t k = lo; k <= hi; ++k) {
      for (int32_t slot = s_.head[k]; slot >= 0; slot = s_.next[slot]) {
        if (Match(r.x, r.y, s_.key[slot], s_.f[slot])) {
          Emit(seq, s_.seq[slot], sampled, sample_mask);
        }
      }
    }
    r_.Insert(seq, r.x, r.y, ts);
    ExpireByCount(&r_);
  }

  void ArriveS(const sjoin::STuple& s, sjoin::Seq seq, sjoin::Timestamp ts,
               bool sampled, uint64_t sample_mask) {
    ExpireByTime(ts);
    const auto [lo, hi] = KeyRange(s.a);
    for (int32_t k = lo; k <= hi; ++k) {
      for (int32_t slot = r_.head[k]; slot >= 0; slot = r_.next[slot]) {
        if (Match(r_.key[slot], r_.f[slot], s.a, s.b)) {
          Emit(r_.seq[slot], seq, sampled, sample_mask);
        }
      }
    }
    s_.Insert(seq, s.a, s.b, ts);
    ExpireByCount(&s_);
  }

  const Totals& totals() const { return totals_; }

 private:
  /// One side's live window: slot arrays indexed by seq mod capacity, a
  /// FIFO over [first, end) and singly linked per-key chains (oldest at
  /// the head; FIFO expiry always removes a chain head).
  struct Side {
    Side(int32_t domain, std::size_t capacity) {
      std::size_t cap = 1;
      while (cap < capacity) cap <<= 1;
      mask = cap - 1;
      seq.resize(cap);
      key.resize(cap);
      f.resize(cap);
      ts.resize(cap);
      next.resize(cap);
      head.assign(static_cast<std::size_t>(domain) + 1, -1);
      tail.assign(static_cast<std::size_t>(domain) + 1, -1);
    }

    void Insert(sjoin::Seq s, int32_t k, float y, sjoin::Timestamp t) {
      const int32_t slot = static_cast<int32_t>(s & mask);
      seq[slot] = s;
      key[slot] = k;
      f[slot] = y;
      ts[slot] = t;
      next[slot] = -1;
      if (tail[k] >= 0) {
        next[tail[k]] = slot;
      } else {
        head[k] = slot;
      }
      tail[k] = slot;
      ++live;
    }

    void ExpireOldest() {
      const int32_t slot = static_cast<int32_t>(first & mask);
      const int32_t k = key[slot];
      head[k] = next[slot];
      if (head[k] < 0) tail[k] = -1;
      ++first;
      --live;
    }

    sjoin::Timestamp OldestTs() const { return ts[first & mask]; }

    std::size_t mask = 0;
    uint64_t first = 0;  ///< oldest live seq
    std::size_t live = 0;
    std::vector<sjoin::Seq> seq;
    std::vector<int32_t> key;
    std::vector<float> f;
    std::vector<sjoin::Timestamp> ts;
    std::vector<int32_t> next;
    std::vector<int32_t> head;
    std::vector<int32_t> tail;
  };

  std::pair<int32_t, int32_t> KeyRange(int32_t key) const {
    return {std::max(1, key - band_), std::min(domain_, key + band_)};
  }

  /// The paper's predicates, written out independently of common/schema.
  bool Match(int32_t x, float y, int32_t a, float b) const {
    if (band_ == 0) return x == a;
    const float fb = static_cast<float>(band_);
    return x >= a - band_ && x <= a + band_ && y >= b - fb && y <= b + fb;
  }

  void Emit(sjoin::Seq r_seq, sjoin::Seq s_seq, bool sampled,
            uint64_t sample_mask) {
    const uint64_t h = PairHash(r_seq, s_seq);
    ++totals_.count;
    totals_.hash += h;
    if (sampled && (h & sample_mask) == 0) ++totals_.sampled;
  }

  void ExpireByTime(sjoin::Timestamp t) {
    if (!time_window_) return;
    for (Side* side : {&r_, &s_}) {
      while (side->live > 0 && side->OldestTs() + window_ < t) {
        side->ExpireOldest();
      }
    }
  }

  void ExpireByCount(Side* side) {
    if (!time_window_ && static_cast<int64_t>(side->live) > window_) {
      side->ExpireOldest();
    }
  }

  bool time_window_;
  int64_t window_;
  int32_t domain_;
  int32_t band_;
  Side r_;
  Side s_;
  Totals totals_;
};

}  // namespace perfbench
