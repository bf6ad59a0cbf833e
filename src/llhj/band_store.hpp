// Key-bucketed window store for keyed joins (DESIGN.md Section 18): the
// band-join index the paper names as future work (Sections 7.6 and 9), and,
// at radius 0, its equi-join hash index (Table 2). A predicate type that
// declares JoinKeyTraits (common/schema.hpp) promises that every matching
// pair lies within a key distance:
//
//   pred(r, s)  implies  |KeyR(r) - KeyS(s)| <= radius(pred)
//
// so a probe only has to visit the entries whose key lies in
// [key - Rmax, key + Rmax], Rmax being the widest radius of the probing
// epoch's query set. At radius 0 that is the probe key's own bucket.
//
// Layout: the entries sit in an insertion-order ring, exactly like
// VectorStore's (a window expiry pops the head in O(1); the expedition and
// epoch walks run it newest-first). The ring is indexed by buckets of key
// width W = 2^shift: bucket floor(key / W) holds, in insertion order, one
// SoA lane record per entry — the entry's ordinal in the ring plus the
// int32/float key lanes the SIMD kernels sweep (common/simd.hpp). W starts
// as the smallest power of two of at least 2R + 1, R the widest radius of
// the epoch-0 query set, so a probe covers one or two buckets. Bucket
// bounds are computed in int64, so no key or radius can wrap them.
//
// Memory: the ring holds the tuples, their expedition flags sit in a
// bitset beside it (8 bytes less per slot than VectorStore's padded
// entries), and bucket lanes replace VectorStore's lanes. A bucket keeps
// its records in a chain of fixed blocks of kBlock records (8 for an equi
// type, 32 otherwise) from one slab-backed pool per store (no heap
// allocation per bucket), 12 bytes per record (ordinal, int key, float
// key) against VectorStore's 16 bytes of Seq/key lanes at its doubling
// ring capacity. A bucket wastes at most its
// head and tail blocks' free slots. Per ring slot, VectorStore spends
// 24 bytes more than this store's ring (8 of padding, 16 of lanes), so the
// lanes stay in budget while the blocks in use hold at most two records
// per ring slot. A store whose keys are too sparse against W to keep that
// doubles W and rebuilds; a wider W only costs scan length, never
// exactness. The rule is judged at erases, that is once the window has
// filled, so a store still filling is never widened for the sparse keys
// it starts with; W never narrows.
//
// Out-of-order erases (an expiry whose tuple was tombstoned, then stored
// late) mark the ring slot dead instead of moving entries, so the lane
// ordinals stay valid; dead slots are skipped by every walk and dropped
// once they reach the head.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "common/contracts.hpp"
#include "common/flat_hash.hpp"
#include "common/schema.hpp"
#include "common/simd.hpp"
#include "common/types.hpp"
#include "llhj/store.hpp"
#include "runtime/mempolicy.hpp"
#include "stream/query_set.hpp"

namespace sjoin {

/// The window store of side kSide (R or S) of a keyed join of R and S under
/// Pred (see the header for layout and budget). Same concept as
/// VectorStore, less the probe-agnostic ForEach: Insert, EraseSeq,
/// ClearExpedited, MatchBatch, ForEachEpochAfter, size, max_epoch.
template <typename R, typename S, typename Pred, StreamSide kSide>
class BandStore {
  using Traits = JoinKeyTraits<Pred, R, S>;
  static_assert(Traits::kEnabled,
                "BandStore needs a JoinKeyTraits specialization for the "
                "predicate type");
  static constexpr bool kIsR = kSide == StreamSide::kR;
  using T = std::conditional_t<kIsR, R, S>;
  using ProbeT = std::conditional_t<kIsR, S, R>;
  using Lanes = SimdEntryLanes<T>;

  static constexpr bool HasF32() {
    if constexpr (Lanes::kEnabled) {
      return Lanes::kHasF32;
    } else {
      return false;
    }
  }
  static constexpr bool kHasLanes = Lanes::kEnabled;
  static constexpr bool kHasF32 = HasF32();

 public:
  /// `epoch0` is the query set the pipeline starts with: its widest radius
  /// sets the initial bucket width.
  explicit BandStore(const QuerySet<Pred>& epoch0)
      : shift_(ShiftFor(WidestRadius(epoch0))) {}

  void Insert(const Stamped<T>& t, bool expedited) {
    insert_order_.AssertAdvance(static_cast<long long>(t.seq), "BandStore",
                                "insert seq", /*strict=*/true);
    if (entries_.empty() || tail_ - head_ == entries_.size()) GrowRing();
    const uint64_t ord = tail_++;
    entries_[Pos(ord)] = t;
    SetFlag(&dead_, ord, false);
    SetFlag(&expedited_, ord, expedited);
    Append(BucketOf(OwnKey(t.value)), ord, t.value);
    if (t.epoch > max_epoch_) max_epoch_ = t.epoch;
    ++size_;
  }

  /// Window expiry. The oldest entry, where expiries land, is O(1); any
  /// other is a binary search over the seq-ordered ring. Returns false when
  /// `seq` is not stored. Widens the buckets when they are over budget.
  bool EraseSeq(Seq seq) {
    if (size_ == 0) return false;
    uint64_t ord = head_;  // the head is always live
    if (entries_[Pos(ord)].seq != seq) {
      ord = FindOrdinal(seq);
      if (ord == kNone) return false;
    }
    Bucket& bucket = FindBucket(OwnKey(entries_[Pos(ord)].value));
    Remove(&bucket, ord);
    SetFlag(&dead_, ord, true);
    --size_;
    while (head_ != tail_ && Flag(dead_, head_)) ++head_;
    while (blocks_live_ * std::size_t{kBlock} > 2 * entries_.size() &&
           shift_ < kMaxShift) {
      Rebucket(shift_ + 1);
    }
    return true;
  }

  /// Expedition-end: flags are monotone over insertion order (see
  /// VectorStore::ClearExpedited), so the walk runs newest-to-oldest and
  /// stops at the first non-expedited entry.
  bool ClearExpedited(Seq seq) {
    for (uint64_t ord = tail_; ord != head_;) {
      --ord;
      if (Flag(dead_, ord)) continue;
      if (!Flag(expedited_, ord)) return false;
      if (entries_[Pos(ord)].seq == seq) {
        SetFlag(&expedited_, ord, false);
        return true;
      }
    }
    return false;
  }

  /// Batch probe fused with query evaluation (same shape as
  /// VectorStore::MatchBatch). Each probe sweeps only the buckets covering
  /// its key +- the widest radius of `queries`, on the packed-compare
  /// kernels when the direction has a SIMD mapping, else through the
  /// scalar predicate. kProbeIsLeft gives the predicate argument order.
  template <bool kProbeIsLeft, typename QPred, typename Probe, typename F>
  void MatchBatch(const QuerySet<QPred>& queries, const Stamped<Probe>* probes,
                  std::size_t k, F&& f) const {
    static_assert(std::is_same_v<QPred, Pred> && std::is_same_v<Probe, ProbeT>,
                  "BandStore probed with a foreign predicate or tuple type");
    static_assert(kProbeIsLeft == !kIsR, "an R store is probed by S tuples");
    if (size_ == 0) return;
    const int64_t radius = WidestRadius(queries);
    SimdMatchScratch scratch;
    for (std::size_t j = 0; j < k; ++j) {
      const Probe& probe = probes[j].value;
      ForEachBucketNear(ProbeKey(probe), radius, [&](const Bucket& bucket) {
        Sweep<kProbeIsLeft>(queries, probe, j, bucket, &scratch, f);
      });
    }
  }

  std::size_t size() const { return size_; }

  /// Highest query epoch ever inserted (monotone; see VectorStore).
  Epoch max_epoch() const { return max_epoch_; }

  /// Visits every live entry pushed under an epoch later than `e`,
  /// newest-first (strictly descending Seq, the order test_stores.cpp pins
  /// for every store): O(newer entries).
  template <typename F>
  void ForEachEpochAfter(Epoch e, F&& f) const {
    if (max_epoch_ <= e) return;
    for (uint64_t ord = tail_; ord != head_;) {
      --ord;
      if (Flag(dead_, ord)) continue;
      if (entries_[Pos(ord)].epoch <= e) break;
      f(Entry(ord));
    }
  }

  // -- introspection (tests) -------------------------------------------------

  /// Current bucket width W, as log2.
  int bucket_shift() const { return shift_; }
  std::size_t bucket_count() const { return live_buckets_; }

 private:
  static constexpr uint64_t kNone = std::numeric_limits<uint64_t>::max();
  static constexpr uint32_t kNil = std::numeric_limits<uint32_t>::max();
  /// Widest bucket: W = 2^62 puts every int64 key into one of four.
  static constexpr int kMaxShift = 62;
  static constexpr int64_t kMaxRadius = int64_t{1} << 60;
  /// Records per pool block: 8 for an equi type, whose W = 1 gives every
  /// distinct key a bucket and at least one block of its own, else 32, so
  /// a band probe walks few segments. A compile-time constant either way.
  static constexpr uint32_t kBlock = IsEquiKey<Pred, R, S>() ? 8 : 32;

  /// One bucket: its records, oldest first, fill the block chain
  /// first -> ... -> last from slot `head` of `first` on.
  struct Bucket {
    int64_t id = 0;
    uint32_t first = kNil;
    uint32_t last = kNil;
    uint32_t head = 0;
    uint32_t size = 0;
  };

  static int64_t OwnKey(const T& t) {
    if constexpr (kIsR) {
      return static_cast<int64_t>(Traits::KeyR(t));
    } else {
      return static_cast<int64_t>(Traits::KeyS(t));
    }
  }
  static int64_t ProbeKey(const ProbeT& p) {
    if constexpr (kIsR) {
      return static_cast<int64_t>(Traits::KeyS(p));
    } else {
      return static_cast<int64_t>(Traits::KeyR(p));
    }
  }

  /// The key radius of one query: the type constant when the traits
  /// declare one, else the instance's.
  static int64_t RadiusOf(const Pred& pred) {
    if constexpr (requires { Traits::kRadius; }) {
      return Traits::kRadius;
    } else {
      return static_cast<int64_t>(Traits::Radius(pred));
    }
  }

  /// Widest radius of a query set, clamped to [0, kMaxRadius] (a negative
  /// radius matches nothing).
  static int64_t WidestRadius(const QuerySet<Pred>& queries) {
    int64_t widest = 0;
    for (QueryId q = 0; q < queries.size(); ++q) {
      widest = std::max(widest, RadiusOf(queries.pred(q)));
    }
    return std::min(widest, kMaxRadius);
  }

  /// Smallest shift with 2^shift >= 2 * radius + 1.
  static int ShiftFor(int64_t radius) {
    int shift = 0;
    while (shift < kMaxShift && (int64_t{1} << shift) < 2 * radius + 1) {
      ++shift;
    }
    return shift;
  }

  int64_t BucketId(int64_t key) const { return key >> shift_; }

  static int64_t SaturatingAdd(int64_t a, int64_t b) {
    int64_t out;
    if (__builtin_add_overflow(a, b, &out)) {
      return b > 0 ? std::numeric_limits<int64_t>::max()
                   : std::numeric_limits<int64_t>::min();
    }
    return out;
  }

  /// Calls g(bucket) for every live bucket covering [key - radius,
  /// key + radius]: by id when that range spans fewer ids than there are
  /// live buckets, else by one pass over the live buckets.
  template <typename G>
  void ForEachBucketNear(int64_t key, int64_t radius, G&& g) const {
    const int64_t lo = BucketId(SaturatingAdd(key, -radius));
    const int64_t hi = BucketId(SaturatingAdd(key, radius));
    const uint64_t span = static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo);
    if (span < live_buckets_) {
      for (uint64_t i = 0; i <= span; ++i) {
        const int64_t id =
            static_cast<int64_t>(static_cast<uint64_t>(lo) + i);
        if (const uint32_t* index = index_.Find(id)) g(buckets_[*index]);
      }
      return;
    }
    for (const Bucket& bucket : buckets_) {
      if (bucket.size != 0 && bucket.id >= lo && bucket.id <= hi) g(bucket);
    }
  }

  /// Calls g(block, from, n) for each run of a bucket's records that is
  /// contiguous in one block, oldest first.
  template <typename G>
  void ForEachSegment(const Bucket& bucket, G&& g) const {
    uint32_t block = bucket.first;
    uint32_t from = bucket.head;
    for (uint32_t left = bucket.size; left > 0;) {
      const uint32_t n = std::min(left, kBlock - from);
      g(block, from, n);
      left -= n;
      from = 0;
      block = Next(block);
    }
  }

  /// One probe against one bucket.
  template <bool kProbeIsLeft, typename F>
  void Sweep(const QuerySet<Pred>& queries, const ProbeT& probe, std::size_t j,
             const Bucket& bucket, SimdMatchScratch* scratch, F& f) const {
    ForEachSegment(bucket, [&](uint32_t block, uint32_t from, uint32_t n) {
      const uint32_t* ords = Ord(block) + from;
      if constexpr (QuerySet<Pred>::template SimdCapable<ProbeT, T>() &&
                    !std::is_same_v<ProbeT, T>) {
        SimdLaneBlock lanes;
        lanes.k0 = K0(block) + from;
        if constexpr (kHasF32) lanes.k1 = K1(block) + from;
        for (QueryId q = 0; q < queries.size(); ++q) {
          queries.template Matches<T>(q, probe, lanes, n, scratch);
          ForEachSetBit(scratch->mask, n, [&](std::size_t i) {
            f(j, q, Entry(ords[i]));
          });
        }
      } else {
        (void)scratch;
        for (uint32_t i = 0; i < n; ++i) {
          const Stamped<T>& t = entries_[Pos(ords[i])];
          queries.template MatchOriented<kProbeIsLeft>(
              probe, t.value, [&](QueryId q) { f(j, q, Entry(ords[i])); });
        }
      }
    });
  }

  // -- ring ------------------------------------------------------------------

  std::size_t Pos(uint64_t ord) const {
    return static_cast<std::size_t>(ord) & mask_;
  }
  /// The entry of `ord` as the store concept hands it out: the tuple with
  /// its expedition flag (matches and epoch walks are rare, so the copy
  /// costs less than a flag padded into every ring slot).
  StoreEntry<T> Entry(uint64_t ord) const {
    return StoreEntry<T>{entries_[Pos(ord)], Flag(expedited_, ord)};
  }
  bool Flag(const std::vector<uint64_t>& bits, uint64_t ord) const {
    const std::size_t p = Pos(ord);
    return (bits[p >> 6] >> (p & 63)) & 1;
  }
  void SetFlag(std::vector<uint64_t>* bits, uint64_t ord, bool on) {
    const std::size_t p = Pos(ord);
    const uint64_t bit = uint64_t{1} << (p & 63);
    uint64_t& word = (*bits)[p >> 6];
    word = on ? word | bit : word & ~bit;
  }

  /// Ordinal of the live entry carrying `seq`, or kNone. Seqs ascend along
  /// the ring (dead slots keep theirs), so this is a binary search.
  uint64_t FindOrdinal(Seq seq) const {
    uint64_t lo = head_;
    uint64_t hi = tail_;
    while (lo < hi) {
      const uint64_t mid = lo + (hi - lo) / 2;
      if (entries_[Pos(mid)].seq < seq) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    if (lo == tail_ || Flag(dead_, lo) || entries_[Pos(lo)].seq != seq) {
      return kNone;
    }
    return lo;
  }

  /// Doubles the ring. Each ordinal keeps its identity (it moves to
  /// ord & new_mask), so the bucket lanes stay valid.
  void GrowRing() {
    const std::size_t cap = entries_.empty() ? 16 : entries_.size() * 2;
    std::vector<Stamped<T>> next(cap);
    std::vector<uint64_t> next_dead((cap + 63) / 64, 0);
    std::vector<uint64_t> next_expedited((cap + 63) / 64, 0);
    const std::size_t next_mask = cap - 1;
    for (uint64_t ord = head_; ord != tail_; ++ord) {
      const std::size_t p = static_cast<std::size_t>(ord) & next_mask;
      const uint64_t bit = uint64_t{1} << (p & 63);
      next[p] = entries_[Pos(ord)];
      if (Flag(dead_, ord)) next_dead[p >> 6] |= bit;
      if (Flag(expedited_, ord)) next_expedited[p >> 6] |= bit;
    }
    entries_ = std::move(next);
    dead_ = std::move(next_dead);
    expedited_ = std::move(next_expedited);
    mask_ = next_mask;
  }

  // -- block pool ------------------------------------------------------------

  /// Block `block` of a lane (const when the lane is).
  template <typename Lane>
  static auto* At(Lane& lane, uint32_t block) {
    return lane.data() + std::size_t{block} * kBlock;
  }
  uint32_t* Ord(uint32_t block) { return At(ord_lane_, block); }
  const uint32_t* Ord(uint32_t block) const { return At(ord_lane_, block); }
  int32_t* K0(uint32_t block) { return At(k0_lane_, block); }
  const int32_t* K0(uint32_t block) const { return At(k0_lane_, block); }
  float* K1(uint32_t block) { return At(k1_lane_, block); }
  const float* K1(uint32_t block) const { return At(k1_lane_, block); }
  uint32_t& Next(uint32_t block) { return next_[block]; }
  uint32_t Next(uint32_t block) const { return next_[block]; }

  uint32_t AllocBlock() {
    uint32_t block = free_block_;
    if (block != kNil) {
      free_block_ = Next(block);
    } else {
      if (blocks_used_ == next_.count()) GrowPool();
      block = blocks_used_++;
    }
    Next(block) = kNil;
    ++blocks_live_;
    return block;
  }

  void FreeBlock(uint32_t block) {
    Next(block) = free_block_;
    free_block_ = block;
    --blocks_live_;
  }

  /// Doubles the pool (at least 64 blocks). Slab pages are touched only
  /// as blocks are first used, so the resident size follows the blocks in
  /// use.
  void GrowPool() {
    const std::size_t blocks = std::max<std::size_t>(64, 2 * blocks_used_);
    const std::size_t records = std::size_t{blocks_used_} * kBlock;
    GrowLane(&ord_lane_, blocks * kBlock, records);
    if constexpr (kHasLanes) GrowLane(&k0_lane_, blocks * kBlock, records);
    if constexpr (kHasF32) GrowLane(&k1_lane_, blocks * kBlock, records);
    GrowLane(&next_, blocks, blocks_used_);
  }

  /// Moves a lane onto a slab of `count` elements, keeping the first `used`.
  template <typename V>
  static void GrowLane(SlabArray<V>* lane, std::size_t count,
                       std::size_t used) {
    SlabArray<V> next(count);
    if (used != 0) std::memcpy(next.data(), lane->data(), used * sizeof(V));
    *lane = std::move(next);
  }

  // -- buckets ---------------------------------------------------------------

  Bucket& FindBucket(int64_t key) {
    return buckets_[*index_.Find(BucketId(key))];
  }

  /// The bucket of `key`, created empty when absent.
  Bucket& BucketOf(int64_t key) {
    const int64_t id = BucketId(key);
    bool created = false;
    uint32_t& index = index_.GetOrInsert(id, &created);
    if (created) {
      if (free_.empty()) {
        index = static_cast<uint32_t>(buckets_.size());
        buckets_.emplace_back();
      } else {
        index = free_.back();
        free_.pop_back();
      }
      buckets_[index] = Bucket{};
      buckets_[index].id = id;
      ++live_buckets_;
    }
    return buckets_[index];
  }

  void Append(Bucket& bucket, uint64_t ord, const T& value) {
    const uint32_t slot = (bucket.head + bucket.size) % kBlock;
    if (bucket.size == 0) {
      bucket.first = bucket.last = AllocBlock();
      bucket.head = 0;
    } else if (slot == 0) {
      const uint32_t block = AllocBlock();
      Next(bucket.last) = block;
      bucket.last = block;
    }
    Ord(bucket.last)[slot] = static_cast<uint32_t>(ord);
    if constexpr (kHasLanes) {
      K0(bucket.last)[slot] = Lanes::K0(value);
      if constexpr (kHasF32) K1(bucket.last)[slot] = Lanes::K1(value);
    }
    ++bucket.size;
  }

  /// Removes the record of `ord`: the bucket's oldest in the FIFO case,
  /// else found by a sweep of its ordinal lane, with the newer records
  /// moved down one slot. Frees emptied blocks and, once empty, the bucket.
  void Remove(Bucket* bucket, uint64_t ord) {
    const uint32_t want = static_cast<uint32_t>(ord);
    uint32_t block = bucket->first;
    uint32_t slot = bucket->head;
    auto advance = [&](uint32_t* b, uint32_t* s) {
      if (++*s == kBlock) {
        *s = 0;
        *b = Next(*b);
      }
    };
    uint32_t i = 0;
    while (i < bucket->size && Ord(block)[slot] != want) {
      advance(&block, &slot);
      ++i;
    }
    if (i == bucket->size) {
      throw std::logic_error("BandStore: a stored entry is missing from its "
                             "key bucket");
    }
    if (i == 0) {
      if (++bucket->head == kBlock && bucket->size > 1) {
        const uint32_t old = bucket->first;
        bucket->first = Next(old);
        bucket->head = 0;
        FreeBlock(old);
      }
    } else {
      for (++i; i < bucket->size; ++i) {
        uint32_t src_block = block;
        uint32_t src_slot = slot;
        advance(&src_block, &src_slot);
        Ord(block)[slot] = Ord(src_block)[src_slot];
        if constexpr (kHasLanes) {
          K0(block)[slot] = K0(src_block)[src_slot];
          if constexpr (kHasF32) K1(block)[slot] = K1(src_block)[src_slot];
        }
        block = src_block;
        slot = src_slot;
      }
      // The newest slot is vacated; drop the last block if it emptied.
      if ((bucket->head + bucket->size - 1) % kBlock == 0) {
        uint32_t prev = bucket->first;
        while (Next(prev) != bucket->last) prev = Next(prev);
        FreeBlock(bucket->last);
        Next(prev) = kNil;
        bucket->last = prev;
      }
    }
    if (--bucket->size == 0) Release(bucket);
  }

  /// Returns an emptied bucket's block and its slot in buckets_.
  void Release(Bucket* bucket) {
    FreeBlock(bucket->first);
    index_.Erase(bucket->id);
    *bucket = Bucket{};
    free_.push_back(static_cast<uint32_t>(bucket - buckets_.data()));
    --live_buckets_;
  }

  /// Rebuilds every bucket at width 2^shift, in insertion order, reusing
  /// the pool from its first block.
  void Rebucket(int shift) {
    buckets_.clear();
    free_.clear();
    index_.Clear();
    live_buckets_ = 0;
    blocks_used_ = 0;
    blocks_live_ = 0;
    free_block_ = kNil;
    shift_ = shift;
    for (uint64_t ord = head_; ord != tail_; ++ord) {
      if (Flag(dead_, ord)) continue;
      const T& value = entries_[Pos(ord)].value;
      Append(BucketOf(OwnKey(value)), ord, value);
    }
  }

  int shift_;  ///< log2 of the bucket width

  // Insertion-order ring: ordinals [head_, tail_) at ord & mask_, with a
  // dead bit and an expedition bit per slot.
  std::vector<Stamped<T>> entries_;
  std::vector<uint64_t> dead_;
  std::vector<uint64_t> expedited_;
  std::size_t mask_ = 0;
  uint64_t head_ = 0;
  uint64_t tail_ = 0;
  std::size_t size_ = 0;
  Epoch max_epoch_ = 0;

  // The block pool: block b holds records [b * kBlock, (b + 1) * kBlock)
  // of each lane and its chain's next block in next_[b]. Blocks
  // [0, blocks_used_) have been handed out, blocks_live_ of them to
  // buckets; the free ones chain through next_ from free_block_.
  SlabArray<uint32_t> ord_lane_;
  SlabArray<int32_t> k0_lane_;
  SlabArray<float> k1_lane_;
  SlabArray<uint32_t> next_;
  uint32_t blocks_used_ = 0;
  std::size_t blocks_live_ = 0;
  uint32_t free_block_ = kNil;

  std::vector<Bucket> buckets_;
  std::vector<uint32_t> free_;       ///< released slots of buckets_
  FlatMap<int64_t, uint32_t> index_;  ///< bucket id -> slot in buckets_
  std::size_t live_buckets_ = 0;
  [[no_unique_address]] contracts::Monotone insert_order_;
};

}  // namespace sjoin
