// Node-local window stores for low-latency handshake join. In LLHJ every
// tuple rests on exactly one node (its home node), which is what makes
// local index structures possible (paper Sections 4.1 and 7.6).
//
// VectorStore is the order-preserving scan store for arbitrary predicates.
// It is backed by a contiguous ring buffer: inserts append at the tail,
// window expiries pop the head without any element movement (expiries
// arrive oldest-first per home node), and the probe scan walks at most two
// contiguous segments. A predicate type that declares JoinKeyTraits
// (common/schema.hpp) keeps its windows in the key-bucketed BandStore
// instead (llhj/band_store.hpp): the paper's equi-join hash index is its
// radius-0 case, one bucket per key.
//
// R-side stores additionally carry the *expedition flag* of Section 4.2.3:
// entries stay "expedited" until the tuple's expedition-end message returns
// to the home node; S arrivals match only non-expedited entries to avoid
// stored/stored double matches. Because insertions and expedition-ends both
// happen in sequence order, the flags are monotone over insertion order —
// cleared entries form a prefix and still-expedited entries a suffix.
// VectorStore::ClearExpedited exploits this: it scans newest-to-oldest and
// stops at the first non-expedited entry instead of walking the whole
// window. Every store implements the same concept:
//
//   void Insert(const Stamped<T>&, bool expedited);
//   bool EraseSeq(Seq);                 // window expiry
//   bool ClearExpedited(Seq);           // expedition-end
//   template <bool L, Pred, P, F> void MatchBatch(queries, probes, k, f);
//                                       // batch probe x query evaluation
//   template <F> void ForEachEpochAfter(Epoch, F&&) const;
//   std::size_t size() const;
//
// SIMD probe path (DESIGN.md Section 9): VectorStore keeps the hot
// predicate columns — the int32 band/equi key, the optional float band key,
// and the sequence number — in structure-of-arrays lanes that mirror the
// entry ring (same head/mask indexing, moved in tandem on every insert,
// erase and grow). MatchBatch sweeps those lanes with the packed-compare
// kernels of common/simd.hpp: one loaded block of entries is tested against
// k probes x N query predicates, the vector compares produce match bitmasks,
// and result emission walks the set bits. Types without a SimdEntryLanes
// mapping skip lane maintenance (except the always-present Seq lane) and
// scan through the generic scalar path — results are identical either way.
#pragma once

#include <algorithm>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "common/simd.hpp"
#include "common/types.hpp"
#include "runtime/mempolicy.hpp"
#include "stream/query_set.hpp"

namespace sjoin {

/// An entry of a node-local window.
template <typename T>
struct StoreEntry {
  Stamped<T> tuple;
  bool expedited = false;
};

/// Scan store: supports any predicate; ForEach visits every entry.
/// Contiguous ring buffer, oldest entry at the head, with the hot predicate
/// columns mirrored in SoA lanes for the SIMD probe path (see header).
template <typename T>
class VectorStore {
  using Lanes = SimdEntryLanes<T>;
  static constexpr bool kHasLanes = Lanes::kEnabled;

 public:
  void Insert(const Stamped<T>& t, bool expedited) {
    if (entries_.empty() || size_ == entries_.size()) Grow();
    const std::size_t pos = (head_ + size_) & mask_;
    entries_[pos] = StoreEntry<T>{t, expedited};
    lane_seq_[pos] = t.seq;
    if constexpr (kHasLanes) {
      lane_k0_[pos] = Lanes::K0(t.value);
      if constexpr (Lanes::kHasF32) lane_k1_[pos] = Lanes::K1(t.value);
    }
    if (t.epoch > max_epoch_) max_epoch_ = t.epoch;
    ++size_;
  }

  bool EraseSeq(Seq seq) { return TakeSeq(seq, nullptr); }

  /// EraseSeq that also hands out the erased tuple (the HSJ expiry chase
  /// needs the victim to keep it travelling as a dying arrival). `out` may
  /// be null.
  bool TakeSeq(Seq seq, Stamped<T>* out) {
    if (size_ == 0) return false;
    // Expiries arrive oldest-first per home node, so the head is the
    // overwhelmingly typical target: a pure index bump, no element moves.
    if (At(0).tuple.seq == seq) {
      if (out != nullptr) *out = At(0).tuple;
      head_ = (head_ + 1) & mask_;
      --size_;
      return true;
    }
    // Out-of-order erase (rare): locate via a packed sweep of the Seq lane,
    // then close the gap by shifting the shorter side of the ring.
    const std::size_t i = FindSeq(seq);
    if (i == kNpos) return false;
    if (out != nullptr) *out = At(i).tuple;
    EraseAt(i);
    return true;
  }

  bool ClearExpedited(Seq seq) {
    // Expedition-ends arrive in insertion order, so flags are monotone:
    // non-expedited prefix, expedited suffix. The target is the oldest
    // expedited entry — scan newest-to-oldest and bail out as soon as the
    // suffix ends instead of walking the non-expedited bulk of the window.
    for (std::size_t i = size_; i > 0; --i) {
      StoreEntry<T>& entry = At(i - 1);
      if (!entry.expedited) return false;
      if (entry.tuple.seq == seq) {
        entry.expedited = false;
        return true;
      }
    }
    return false;
  }

  /// Visits every entry (probe is ignored — scan store).
  template <typename Probe, typename F>
  void ForEach(const Probe& /*probe*/, F&& f) const {
    for (std::size_t i = 0; i < size_; ++i) f(At(i));
  }

  /// Batch probe fused with query evaluation — the SIMD scan hot path.
  /// Tests every entry against k probes x N registered queries and calls
  /// f(j, q, entry) for each matching (probe j, query q, entry) combination.
  /// When the (Pred, ProbeT, T) direction has a SIMD mapping, the window is
  /// swept in L1-resident blocks of key lanes: each block is loaded once,
  /// the packed-compare kernels produce one match bitmask per (probe,
  /// query), and emission walks the set bits. Otherwise this is the generic
  /// entry-major scalar scan. Both paths produce identical result sets
  /// (same arithmetic; see common/simd.hpp). kProbeIsLeft gives the
  /// predicate argument order: true => pred(probe, entry).
  template <bool kProbeIsLeft, typename Pred, typename ProbeT, typename F>
  void MatchBatch(const QuerySet<Pred>& queries, const Stamped<ProbeT>* probes,
                  std::size_t k, F&& f) const {
    // Self-joins (ProbeT == T) stay on the generic path: the SIMD traits
    // are keyed on (Pred, Probe, Entry) types only, so with equal types
    // both probe directions would resolve to ONE specialization and an
    // asymmetric predicate would be evaluated with its arguments swapped
    // in one of them. kProbeIsLeft orientation is always honored below.
    if constexpr (QuerySet<Pred>::template SimdCapable<ProbeT, T>() &&
                  !std::is_same_v<ProbeT, T>) {
      if (size_ == 0) return;
      SimdMatchScratch scratch;
      const std::size_t first = std::min(size_, entries_.size() - head_);
      SweepLanes(queries, probes, k, head_, 0, first, &scratch, f);
      SweepLanes(queries, probes, k, 0, first, size_ - first, &scratch, f);
    } else {
      for (std::size_t i = 0; i < size_; ++i) {
        const StoreEntry<T>& entry = At(i);
        for (std::size_t j = 0; j < k; ++j) {
          queries.template MatchOriented<kProbeIsLeft>(
              probes[j].value, entry.tuple.value,
              [&](QueryId q) { f(j, q, entry); });
        }
      }
    }
  }

  std::size_t size() const { return size_; }

  /// Highest query epoch ever inserted (monotone; erases do not lower it).
  /// `max_epoch() <= e` lets callers skip ForEachEpochAfter entirely — the
  /// steady-state fast path when no epoch change is in flight.
  Epoch max_epoch() const { return max_epoch_; }

  /// Visits every entry whose tuple was pushed under an epoch later than
  /// `e`. Entries are inserted in flow order and epochs are monotone in
  /// flow order, so these form a suffix of the ring: the walk starts at the
  /// newest entry and stops at the first old-epoch one — O(newer entries),
  /// not O(window).
  template <typename F>
  void ForEachEpochAfter(Epoch e, F&& f) const {
    if (max_epoch_ <= e) return;
    for (std::size_t i = size_; i > 0; --i) {
      const StoreEntry<T>& entry = At(i - 1);
      if (entry.tuple.epoch <= e) break;
      f(entry);
    }
  }

  std::size_t expedited_count() const {
    std::size_t n = 0;
    for (std::size_t i = 0; i < size_; ++i) n += At(i).expedited ? 1 : 0;
    return n;
  }

  // -- FIFO access (HSJ window segments ride on the same ring) ---------------

  const StoreEntry<T>& Front() const { return At(0); }
  const StoreEntry<T>& Back() const { return At(size_ - 1); }
  Seq FrontSeq() const { return lane_seq_[head_]; }
  Seq BackSeq() const { return lane_seq_[(head_ + size_ - 1) & mask_]; }

  void PopFront() {
    head_ = (head_ + 1) & mask_;
    --size_;
  }

 private:
  static constexpr std::size_t kNpos = static_cast<std::size_t>(-1);

  StoreEntry<T>& At(std::size_t i) { return entries_[(head_ + i) & mask_]; }
  const StoreEntry<T>& At(std::size_t i) const {
    return entries_[(head_ + i) & mask_];
  }

  /// One contiguous lane segment (physical offset `phys`, logical offset
  /// `base`, `len` entries), swept in kSimdBlock chunks: a chunk of both key
  /// lanes stays L1-resident while all k probes and all N queries test it.
  template <typename Pred, typename ProbeT, typename F>
  void SweepLanes(const QuerySet<Pred>& queries, const Stamped<ProbeT>* probes,
                  std::size_t k, std::size_t phys, std::size_t base,
                  std::size_t len, SimdMatchScratch* scratch, F&& f) const {
    for (std::size_t off = 0; off < len; off += kSimdBlock) {
      const std::size_t n = std::min(kSimdBlock, len - off);
      SimdLaneBlock lanes;
      lanes.k0 = lane_k0_.data() + phys + off;
      if constexpr (Lanes::kHasF32) lanes.k1 = lane_k1_.data() + phys + off;
      const std::size_t queries_n = queries.size();
      for (std::size_t q = 0; q < queries_n; ++q) {
        for (std::size_t j = 0; j < k; ++j) {
          queries.template Matches<T>(static_cast<QueryId>(q),
                                      probes[j].value, lanes, n, scratch);
          ForEachSetBit(scratch->mask, n, [&](std::size_t i) {
            f(j, static_cast<QueryId>(q), At(base + off + i));
          });
        }
      }
    }
  }

  /// Logical index of the entry carrying `seq` (packed sweep of the Seq
  /// lane), or kNpos.
  std::size_t FindSeq(Seq seq) const {
    if (size_ == 0) return kNpos;
    const std::size_t first = std::min(size_, entries_.size() - head_);
    const std::size_t i = FindSeqInSegment(head_, 0, first, seq);
    if (i != kNpos) return i;
    return FindSeqInSegment(0, first, size_ - first, seq);
  }

  std::size_t FindSeqInSegment(std::size_t phys, std::size_t base,
                               std::size_t len, Seq seq) const {
    const SimdKernels& kernels = ActiveKernels();
    uint64_t mask[kSimdBlockWords];
    for (std::size_t off = 0; off < len; off += kSimdBlock) {
      const std::size_t n = std::min(kSimdBlock, len - off);
      kernels.eq_u64(lane_seq_.data() + phys + off, n, seq, mask);
      for (std::size_t w = 0; w < SimdMaskWords(n); ++w) {
        if (mask[w] != 0) {
          return base + off + w * 64 +
                 static_cast<std::size_t>(__builtin_ctzll(mask[w]));
        }
      }
    }
    return kNpos;
  }

  /// Closes the gap at logical index i by shifting the shorter side of the
  /// ring; entry and lane slots move in tandem.
  void EraseAt(std::size_t i) {
    if (i == 0) {
      head_ = (head_ + 1) & mask_;
      --size_;
      return;
    }
    if (i < size_ - i) {
      for (std::size_t j = i; j > 0; --j) CopySlot(j, j - 1);
      head_ = (head_ + 1) & mask_;
    } else {
      for (std::size_t j = i; j + 1 < size_; ++j) CopySlot(j, j + 1);
    }
    --size_;
  }

  /// Copies logical slot src into logical slot dst across the entry ring
  /// and every lane.
  void CopySlot(std::size_t dst, std::size_t src) {
    const std::size_t d = (head_ + dst) & mask_;
    const std::size_t s = (head_ + src) & mask_;
    entries_[d] = entries_[s];
    lane_seq_[d] = lane_seq_[s];
    if constexpr (kHasLanes) {
      lane_k0_[d] = lane_k0_[s];
      if constexpr (Lanes::kHasF32) lane_k1_[d] = lane_k1_[s];
    }
  }

  void Grow() {
    const std::size_t new_cap = entries_.empty() ? 16 : entries_.size() * 2;
    std::vector<StoreEntry<T>> next(new_cap);
    SlabArray<Seq> next_seq(new_cap);
    for (std::size_t i = 0; i < size_; ++i) {
      const std::size_t from = (head_ + i) & mask_;
      next[i] = entries_[from];
      next_seq[i] = lane_seq_[from];
    }
    entries_ = std::move(next);
    lane_seq_ = std::move(next_seq);
    if constexpr (kHasLanes) {
      SlabArray<int32_t> next_k0(new_cap);
      SlabArray<float> next_k1;
      if constexpr (Lanes::kHasF32) next_k1.Reset(new_cap);
      for (std::size_t i = 0; i < size_; ++i) {
        const std::size_t from = (head_ + i) & mask_;
        next_k0[i] = lane_k0_[from];
        if constexpr (Lanes::kHasF32) next_k1[i] = lane_k1_[from];
      }
      lane_k0_ = std::move(next_k0);
      if constexpr (Lanes::kHasF32) lane_k1_ = std::move(next_k1);
    }
    mask_ = new_cap - 1;
    head_ = 0;
  }

  std::vector<StoreEntry<T>> entries_;
  // SoA key lanes mirroring the ring (same indexing as entries_): the Seq
  // lane always (packed expiry search), the predicate key lanes only for
  // types with a SimdEntryLanes mapping. Slab-backed so big windows
  // sit on transparent huge pages — fewer TLB misses on the block sweeps.
  SlabArray<Seq> lane_seq_;
  SlabArray<int32_t> lane_k0_;
  SlabArray<float> lane_k1_;
  std::size_t mask_ = 0;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
  Epoch max_epoch_ = 0;
};

}  // namespace sjoin
