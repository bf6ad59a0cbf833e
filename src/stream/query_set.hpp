// The set of predicates a join pipeline evaluates at every window crossing.
// Multi-query sharing (ROADMAP): one pipeline owns the windows, transport
// and driver; N registered queries of the same predicate *type* (band/equi
// predicates with different parameters) are evaluated against each crossing
// pair in a single store traversal, and every match is tagged with the
// QueryId that produced it.
//
// Since the live-lifecycle change (DESIGN.md Section 10) a pipeline no
// longer evaluates ONE frozen QuerySet forever: each *epoch* of a session
// freezes its own QuerySet (a QueryEpochSnapshot, which also maps the
// set's dense lane indices back to session-wide QueryIds), and nodes switch
// snapshots when the epoch-change punctuation passes them. Within an epoch
// the hot path is unchanged — a plain contiguous predicate vector read with
// no synchronization; the QueryEpochRegistry (mutexed, cold path only) is
// touched once per epoch switch.
//
// The keyed BandStore narrows the visited entries by a key shared by all
// queries: to the key range of the widest radius in the probing epoch's
// set, which at radius 0 is key equality.
#pragma once

#include <cstddef>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "common/contracts.hpp"
#include "common/simd.hpp"
#include "common/thread_annotations.hpp"
#include "common/types.hpp"

namespace sjoin {

template <typename Pred>
class QuerySet {
 public:
  QuerySet() = default;
  /// Single-query set.
  explicit QuerySet(Pred pred) { preds_.push_back(pred); }
  explicit QuerySet(std::vector<Pred> preds) : preds_(std::move(preds)) {}

  /// Registers one predicate; returns its dense id (registration order).
  QueryId Add(const Pred& pred) {
    preds_.push_back(pred);
    return static_cast<QueryId>(preds_.size() - 1);
  }

  std::size_t size() const { return preds_.size(); }
  bool empty() const { return preds_.empty(); }

  const Pred& pred(QueryId q) const { return preds_[q]; }

  /// Evaluates every registered predicate on (r, s); calls f(QueryId) for
  /// each query that matches. This is the per-crossing hot path: one pair
  /// load, N predicate evaluations.
  template <typename RV, typename SV, typename F>
  void Match(const RV& r, const SV& s, F&& f) const {
    for (QueryId q = 0; q < preds_.size(); ++q) {
      if (preds_[q](r, s)) f(q);
    }
  }

  /// Match with an explicit probe direction: the stores evaluate a probe
  /// tuple against a stored entry without knowing which of the two is the
  /// predicate's R argument. kProbeIsLeft=true means pred(probe, entry)
  /// (an R tuple probing the S window); false means pred(entry, probe).
  template <bool kProbeIsLeft, typename ProbeV, typename EntryV, typename F>
  void MatchOriented(const ProbeV& probe, const EntryV& entry, F&& f) const {
    if constexpr (kProbeIsLeft) {
      Match(probe, entry, static_cast<F&&>(f));
    } else {
      Match(entry, probe, static_cast<F&&>(f));
    }
  }

  /// True iff query set evaluation against EntryT entries probed by ProbeT
  /// tuples can run on the SIMD kernels (both the predicate decomposition
  /// and the entry lane mapping must be declared; see common/simd.hpp).
  template <typename ProbeT, typename EntryT>
  static constexpr bool SimdCapable() {
    return SimdProbeTraits<Pred, ProbeT, EntryT>::kEnabled &&
           SimdEntryLanes<EntryT>::kEnabled;
  }

  /// Vector compare of ONE registered query against one loaded block of
  /// entry key lanes (the block form of Match — the SIMD probe hot path).
  /// Fills scratch->mask with bit i <=> pred matches (probe, entry lane i),
  /// for lanes [0, n), n <= kSimdBlock; bits >= n are zero (masked-tail
  /// contract). The caller keeps the block loaded and sweeps it with every
  /// (probe, query) combination before moving on — one entry load, k x N
  /// vector compares. Kernel selection follows ActiveSimdLevel(); every
  /// level computes exactly the scalar predicate's arithmetic, so driving
  /// result emission off these bitmasks is bit-identical to Match.
  template <typename EntryT, typename ProbeT>
  void Matches(QueryId q, const ProbeT& probe, const SimdLaneBlock& lanes,
               std::size_t n, SimdMatchScratch* scratch) const {
    using Traits = SimdProbeTraits<Pred, ProbeT, EntryT>;
    static_assert(Traits::kEnabled, "no SIMD mapping for this direction");
    if constexpr (Traits::kShape != SimdPredShape::kEqui) {
      static_assert(!Traits::kUseF32 || SimdEntryLanes<EntryT>::kHasF32,
                    "predicate declares a float sweep (kUseF32) but the "
                    "entry type has no float lane (kHasF32)");
    }
    const SimdKernels& kernels = ActiveKernels();
    const Pred& pred = preds_[q];
    if constexpr (Traits::kShape == SimdPredShape::kEqui) {
      kernels.eq_i32(lanes.k0, n, Traits::Key(pred, probe), scratch->mask);
    } else if constexpr (Traits::kShape == SimdPredShape::kBandEntry) {
      const int64_t p0 = Traits::P0(probe);
      const int64_t band = Traits::Band0(pred);
      kernels.range_i32(lanes.k0, n, SaturateI32(p0 - band),
                        SaturateI32(p0 + band), scratch->mask);
      if constexpr (Traits::kUseF32) {
        kernels.band_entry_f32(lanes.k1, n, Traits::Band1(pred),
                               Traits::P1(probe), scratch->tmp);
        AndMask(scratch->mask, scratch->tmp, n);
      }
    } else {
      kernels.range_i32(lanes.k0, n, Traits::Lo0(pred, probe),
                        Traits::Hi0(pred, probe), scratch->mask);
      if constexpr (Traits::kUseF32) {
        kernels.range_f32(lanes.k1, n, Traits::Lo1(pred, probe),
                          Traits::Hi1(pred, probe), scratch->tmp);
        AndMask(scratch->mask, scratch->tmp, n);
      }
    }
  }

 private:
  std::vector<Pred> preds_;
};

/// One frozen epoch of a session's query set: the dense predicate set the
/// nodes sweep (QuerySet indices are *lane* indices local to this epoch)
/// plus the mapping from lane index back to the session-wide QueryId that
/// results must be tagged with. Immutable after construction; shared
/// read-only between the driver and every pipeline node.
template <typename Pred>
struct QueryEpochSnapshot {
  Epoch epoch = 0;
  QuerySet<Pred> set;
  std::vector<QueryId> global_ids;  ///< lane index -> session QueryId

  QueryId GlobalId(std::size_t lane) const { return global_ids[lane]; }
};

/// All epochs a pipeline has ever been told about, keyed by epoch number.
/// The driver installs new epochs (AddQuery/RemoveQuery on a live session)
/// *before* pushing the matching kEpochChange punctuation into the flows,
/// so a node that sees the punctuation — or an arrival stamped with a newer
/// epoch — always finds the snapshot here. Lookups are mutex-protected but
/// happen only on epoch switches (cold path); nodes cache the shared_ptr.
template <typename Pred>
class QueryEpochRegistry {
 public:
  using Snapshot = QueryEpochSnapshot<Pred>;

  QueryEpochRegistry() = default;

  /// Seeds epoch 0. `global_ids` empty means the identity mapping.
  explicit QueryEpochRegistry(QuerySet<Pred> initial,
                              std::vector<QueryId> global_ids = {}) {
    Install(std::move(initial), std::move(global_ids));
  }

  /// Registers the next epoch (numbered sequentially from 0) and returns
  /// its number. Must be called before any tuple or punctuation carrying
  /// that epoch enters a flow.
  Epoch Install(QuerySet<Pred> set, std::vector<QueryId> global_ids = {}) {
    auto snap = std::make_shared<Snapshot>();
    if (global_ids.empty()) {
      global_ids.resize(set.size());
      std::iota(global_ids.begin(), global_ids.end(), QueryId{0});
    }
    if (global_ids.size() != set.size()) {
      throw std::invalid_argument(
          "QueryEpochRegistry: global_ids size does not match set size");
    }
    snap->set = std::move(set);
    snap->global_ids = std::move(global_ids);
    MutexLock lock(&mu_);
    snap->epoch = static_cast<Epoch>(epochs_.size());
    // Contract (DESIGN.md Section 14): installed epochs advance strictly —
    // a regressing or repeated epoch number would let stale snapshots
    // shadow live ones at the nodes' MRU caches.
    install_order_.AssertAdvance(static_cast<long long>(snap->epoch),
                                 "QueryEpochRegistry", "installed epoch",
                                 /*strict=*/true);
    epochs_.push_back(snap);
    return snap->epoch;
  }

  /// Snapshot of epoch `e`, or null when `e` was never installed (a
  /// protocol bug — callers treat it as an anomaly).
  std::shared_ptr<const Snapshot> Get(Epoch e) const {
    MutexLock lock(&mu_);
    if (e >= epochs_.size()) return nullptr;
    return epochs_[e];
  }

  std::shared_ptr<const Snapshot> Latest() const {
    MutexLock lock(&mu_);
    return epochs_.empty() ? nullptr : epochs_.back();
  }

  std::size_t epoch_count() const {
    MutexLock lock(&mu_);
    return epochs_.size();
  }

 private:
  mutable AnnotatedMutex mu_;
  std::vector<std::shared_ptr<const Snapshot>> epochs_ SJOIN_GUARDED_BY(mu_);
  contracts::Monotone install_order_ SJOIN_GUARDED_BY(mu_);
};

/// A node-local MRU cache over a QueryEpochRegistry. During steady state
/// every lookup hits the front entry (one epoch compare); during an epoch
/// transition at most a handful of epochs are live at once. Entries older
/// than the node's fully-switched epoch are pruned on punctuation.
template <typename Pred>
class EpochSnapshotCache {
 public:
  using Snapshot = QueryEpochSnapshot<Pred>;

  EpochSnapshotCache() = default;
  explicit EpochSnapshotCache(const QueryEpochRegistry<Pred>* registry)
      : registry_(registry) {}

  /// Snapshot for epoch `e`; null only on a protocol violation (an epoch
  /// that was never installed).
  const Snapshot* Get(Epoch e) {
    for (std::size_t i = 0; i < cached_.size(); ++i) {
      if (cached_[i]->epoch == e) {
        if (i != 0) std::swap(cached_[0], cached_[i]);  // keep MRU first
        return cached_[0].get();
      }
    }
    if (registry_ == nullptr) return nullptr;
    std::shared_ptr<const Snapshot> snap = registry_->Get(e);
    if (snap == nullptr) return nullptr;
    cached_.insert(cached_.begin(), std::move(snap));
    return cached_[0].get();
  }

  /// Drops snapshots of epochs older than `min_live` (pruning on epoch
  /// switch keeps the cache bounded by the number of in-flight epochs).
  void PruneBelow(Epoch min_live) {
    for (std::size_t i = cached_.size(); i > 0; --i) {
      if (cached_[i - 1]->epoch < min_live) {
        cached_.erase(cached_.begin() + static_cast<std::ptrdiff_t>(i - 1));
      }
    }
  }

 private:
  const QueryEpochRegistry<Pred>* registry_ = nullptr;
  std::vector<std::shared_ptr<const Snapshot>> cached_;
};

}  // namespace sjoin
