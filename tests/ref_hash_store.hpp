// The seed's equi-join bucket store (std::unordered_map of per-key vectors),
// kept verbatim as the exact ordered-probe oracle the radius-0 BandStore is
// checked against (test_store_equivalence.cpp, test_simd_kernels.cpp).
// ForEach visits one key's entries in insertion order; MatchBatch and
// ForEachEpochAfter give it the store concept's probe and epoch walk, the
// first probe by probe through the scalar predicate, the second newest-first
// by sorting.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/types.hpp"
#include "llhj/store.hpp"
#include "stream/query_set.hpp"

namespace sjoin::test {

template <typename T, typename OwnKey, typename ProbeKey>
class RefHashStore {
 public:
  void Insert(const Stamped<T>& t, bool expedited) {
    const int64_t key = OwnKey{}(t.value);
    buckets_[key].push_back(StoreEntry<T>{t, expedited});
    seq_to_key_.emplace(t.seq, key);
    ++size_;
  }

  bool EraseSeq(Seq seq) {
    auto key_it = seq_to_key_.find(seq);
    if (key_it == seq_to_key_.end()) return false;
    auto bucket_it = buckets_.find(key_it->second);
    if (bucket_it != buckets_.end()) {
      auto& vec = bucket_it->second;
      for (auto it = vec.begin(); it != vec.end(); ++it) {
        if (it->tuple.seq == seq) {
          vec.erase(it);
          break;
        }
      }
      if (vec.empty()) buckets_.erase(bucket_it);
    }
    seq_to_key_.erase(key_it);
    --size_;
    return true;
  }

  bool ClearExpedited(Seq seq) {
    auto key_it = seq_to_key_.find(seq);
    if (key_it == seq_to_key_.end()) return false;
    auto bucket_it = buckets_.find(key_it->second);
    if (bucket_it == buckets_.end()) return false;
    for (auto& entry : bucket_it->second) {
      if (entry.tuple.seq == seq) {
        entry.expedited = false;
        return true;
      }
    }
    return false;
  }

  template <typename Probe, typename F>
  void ForEach(const Probe& probe, F&& f) const {
    auto it = buckets_.find(ProbeKey{}(probe));
    if (it == buckets_.end()) return;
    for (const auto& entry : it->second) f(entry);
  }

  /// Probe by probe: each probe's key bucket in insertion order, every
  /// entry through the scalar predicate of every query.
  template <bool kProbeIsLeft, typename Pred, typename ProbeT, typename F>
  void MatchBatch(const QuerySet<Pred>& queries, const Stamped<ProbeT>* probes,
                  std::size_t k, F&& f) const {
    for (std::size_t j = 0; j < k; ++j) {
      ForEach(probes[j].value, [&](const StoreEntry<T>& entry) {
        queries.template MatchOriented<kProbeIsLeft>(
            probes[j].value, entry.tuple.value,
            [&](QueryId q) { f(j, q, entry); });
      });
    }
  }

  /// Every entry pushed under an epoch later than `e`, newest-first.
  template <typename F>
  void ForEachEpochAfter(Epoch e, F&& f) const {
    std::vector<const StoreEntry<T>*> newer;
    for (const auto& [key, entries] : buckets_) {
      for (const auto& entry : entries) {
        if (entry.tuple.epoch > e) newer.push_back(&entry);
      }
    }
    std::sort(newer.begin(), newer.end(), [](const auto* a, const auto* b) {
      return a->tuple.seq > b->tuple.seq;
    });
    for (const auto* entry : newer) f(*entry);
  }

  std::size_t size() const { return size_; }

 private:
  std::unordered_map<int64_t, std::vector<StoreEntry<T>>> buckets_;
  std::unordered_map<Seq, int64_t> seq_to_key_;
  std::size_t size_ = 0;
};

}  // namespace sjoin::test
