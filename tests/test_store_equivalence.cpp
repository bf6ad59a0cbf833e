// Equivalence tests: the cache-friendly window stores (ring-buffer
// VectorStore, key-bucketed BandStore) must behave exactly like the seed
// implementations (std::deque scan store, unordered_map bucket store) on
// every operation sequence the LLHJ protocol can produce. The reference
// implementations are verbatim ports of the seed stores (the bucket store
// in ref_hash_store.hpp); the drivers generate protocol-conformant op
// streams — insertions in sequence order, expiries oldest-first (with
// occasional out-of-order erases, the tombstone-chase shape),
// expedition-ends in insertion order, lookups of absent seqs — the same
// shapes the schedule fuzzer produces through whole pipelines in
// test_schedules.cpp. The radius-0 BandStore (the equi-join index) runs
// lock-step against the seed bucket store, also under erase-heavy churn
// with batched-probe multiset and epoch-walk checks. The band BandStore
// runs lock-step against VectorStore, and band sessions that index their
// windows with it are held to the Kang reference.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "common/schema.hpp"
#include "core/join_session.hpp"
#include "llhj/band_store.hpp"
#include "llhj/store.hpp"
#include "stream/query_set.hpp"

#include "kang_join.hpp"
#include "ref_hash_store.hpp"
#include "test_util.hpp"

namespace sjoin {
namespace {

/// A band over the full int64 key difference, with no SIMD mapping: the
/// generic scan path of both stores, exact at keys near INT32_MIN and
/// INT32_MAX where the int32 band arithmetic of the SIMD mappings wraps.
struct WideBand {
  int64_t width = 0;
  bool operator()(const test::TR& r, const test::TS& s) const {
    const int64_t d = int64_t{r.key} - int64_t{s.key};
    return d >= -width && d <= width;
  }
};

}  // namespace

template <>
struct JoinKeyTraits<WideBand, test::TR, test::TS> {
  static constexpr bool kEnabled = true;
  static int64_t KeyR(const test::TR& r) { return r.key; }
  static int64_t KeyS(const test::TS& s) { return s.key; }
  static int64_t Radius(const WideBand& p) { return p.width; }
};

namespace {

using test::IndexedEq;
using test::MakeRandomTrace;
using test::RefHashStore;
using test::TR;
using test::TRKey;
using test::TS;
using test::TraceConfig;
using test::TSKey;

/// The radius-0 (equi) R-side BandStore under IndexedEq.
using EquiBand = BandStore<TR, TS, IndexedEq, StreamSide::kR>;
EquiBand MakeEquiBand() { return EquiBand(QuerySet<IndexedEq>{IndexedEq{}}); }

// -- Reference implementations (the seed's stores, verbatim) -----------------

template <typename T>
class RefVectorStore {
 public:
  void Insert(const Stamped<T>& t, bool expedited) {
    entries_.push_back(StoreEntry<T>{t, expedited});
  }

  bool EraseSeq(Seq seq) {
    if (!entries_.empty() && entries_.front().tuple.seq == seq) {
      entries_.pop_front();
      return true;
    }
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (it->tuple.seq == seq) {
        entries_.erase(it);
        return true;
      }
    }
    return false;
  }

  bool ClearExpedited(Seq seq) {
    for (auto& entry : entries_) {
      if (entry.tuple.seq == seq) {
        entry.expedited = false;
        return true;
      }
    }
    return false;
  }

  template <typename Probe, typename F>
  void ForEach(const Probe& /*probe*/, F&& f) const {
    for (const auto& entry : entries_) f(entry);
  }

  std::size_t size() const { return entries_.size(); }

 private:
  std::deque<StoreEntry<T>> entries_;
};

// -- Drivers -----------------------------------------------------------------

struct Observed {
  Seq seq;
  int32_t key;
  bool expedited;
  bool operator==(const Observed&) const = default;
};

template <typename Store>
std::vector<Observed> Snapshot(const Store& store, int32_t probe_key) {
  TS probe;
  probe.key = probe_key;
  std::vector<Observed> out;
  store.ForEach(probe, [&](const StoreEntry<TR>& e) {
    out.push_back(Observed{e.tuple.seq, e.tuple.value.key, e.expedited});
  });
  return out;
}

/// The entries a store matches for one S probe of key `probe_key` under
/// IndexedEq, in emission order (one key's insertion order).
template <typename Store>
std::vector<Observed> ProbeSnapshot(const Store& store, int32_t probe_key) {
  Stamped<TS> probe;
  probe.value.key = probe_key;
  std::vector<Observed> out;
  store.template MatchBatch<false>(
      QuerySet<IndexedEq>{IndexedEq{}}, &probe, 1,
      [&](std::size_t, QueryId, const StoreEntry<TR>& e) {
        out.push_back(Observed{e.tuple.seq, e.tuple.value.key, e.expedited});
      });
  return out;
}

Stamped<TR> MakeTuple(int32_t key, Seq seq) {
  Stamped<TR> t;
  t.value.key = key;
  t.value.id = static_cast<int32_t>(seq);
  t.seq = seq;
  t.ts = static_cast<Timestamp>(seq);
  return t;
}

// R-side shape: every insert expedited, expedition-ends clear in insertion
// order, expiries erase (mostly) oldest-first, plus absent-seq probes.
TEST(StoreEquivalence, RingStoreMatchesSeedVectorStoreOnRSideSequences) {
  for (uint64_t trial = 1; trial <= 8; ++trial) {
    Rng rng(trial * 1337);
    VectorStore<TR> ring;
    RefVectorStore<TR> ref;
    Seq next_seq = 0;
    std::deque<Seq> live;      // insertion order
    std::deque<Seq> to_clear;  // expedition-ends pending, insertion order
    for (int op = 0; op < 4000; ++op) {
      const double dice = rng.UniformDouble();
      if (live.empty() || dice < 0.45) {
        const int32_t key = static_cast<int32_t>(rng.UniformInt(1, 6));
        ring.Insert(MakeTuple(key, next_seq), /*expedited=*/true);
        ref.Insert(MakeTuple(key, next_seq), /*expedited=*/true);
        live.push_back(next_seq);
        to_clear.push_back(next_seq);
        ++next_seq;
      } else if (dice < 0.65 && !to_clear.empty()) {
        // Expedition-end for the oldest still-expedited seq. The tuple may
        // already have been erased (tombstone shape) — both stores must
        // then report a miss.
        const Seq seq = to_clear.front();
        to_clear.pop_front();
        ASSERT_EQ(ring.ClearExpedited(seq), ref.ClearExpedited(seq));
      } else if (dice < 0.95) {
        // Expiry: oldest-first (typical), occasionally out of order.
        const std::size_t pick =
            rng.Chance(0.85) ? 0
                             : static_cast<std::size_t>(rng.UniformInt(
                                   0, static_cast<int64_t>(live.size()) - 1));
        const Seq seq = live[pick];
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
        ASSERT_EQ(ring.EraseSeq(seq), ref.EraseSeq(seq));
      } else {
        // Absent seq (already expired or never stored).
        ASSERT_EQ(ring.EraseSeq(next_seq + 100), ref.EraseSeq(next_seq + 100));
      }
      ASSERT_EQ(ring.size(), ref.size()) << "trial " << trial << " op " << op;
      if (op % 64 == 0) {
        ASSERT_EQ(Snapshot(ring, 0), Snapshot(ref, 0))
            << "trial " << trial << " op " << op;
      }
    }
    EXPECT_EQ(Snapshot(ring, 0), Snapshot(ref, 0));
  }
}

// S-side shape: inserts never expedited, pure FIFO expiry.
TEST(StoreEquivalence, RingStoreMatchesSeedVectorStoreOnSSideSequences) {
  Rng rng(4242);
  VectorStore<TR> ring;
  RefVectorStore<TR> ref;
  Seq next_seq = 0;
  std::deque<Seq> live;
  for (int op = 0; op < 6000; ++op) {
    if (live.empty() || rng.Chance(0.55)) {
      const int32_t key = static_cast<int32_t>(rng.UniformInt(1, 4));
      ring.Insert(MakeTuple(key, next_seq), false);
      ref.Insert(MakeTuple(key, next_seq), false);
      live.push_back(next_seq++);
    } else {
      const Seq seq = live.front();
      live.pop_front();
      ASSERT_EQ(ring.EraseSeq(seq), ref.EraseSeq(seq));
    }
    ASSERT_EQ(ring.size(), ref.size());
  }
  EXPECT_EQ(Snapshot(ring, 0), Snapshot(ref, 0));
}

TEST(StoreEquivalence, RadiusZeroBandStoreMatchesSeedHashStore) {
  using Ref = RefHashStore<TR, TRKey, TSKey>;
  for (uint64_t trial = 1; trial <= 8; ++trial) {
    Rng rng(trial * 7717);
    EquiBand band = MakeEquiBand();
    Ref ref;
    Seq next_seq = 0;
    std::deque<Seq> live;
    std::deque<Seq> to_clear;
    constexpr int32_t kKeyDomain = 5;  // small: long per-key chains
    for (int op = 0; op < 4000; ++op) {
      const double dice = rng.UniformDouble();
      if (live.empty() || dice < 0.45) {
        const int32_t key = static_cast<int32_t>(rng.UniformInt(1, kKeyDomain));
        band.Insert(MakeTuple(key, next_seq), true);
        ref.Insert(MakeTuple(key, next_seq), true);
        live.push_back(next_seq);
        to_clear.push_back(next_seq);
        ++next_seq;
      } else if (dice < 0.65 && !to_clear.empty()) {
        const Seq seq = to_clear.front();
        to_clear.pop_front();
        ASSERT_EQ(band.ClearExpedited(seq), ref.ClearExpedited(seq));
      } else if (dice < 0.95) {
        const std::size_t pick =
            rng.Chance(0.85) ? 0
                             : static_cast<std::size_t>(rng.UniformInt(
                                   0, static_cast<int64_t>(live.size()) - 1));
        const Seq seq = live[pick];
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
        ASSERT_EQ(band.EraseSeq(seq), ref.EraseSeq(seq));
      } else {
        ASSERT_EQ(band.EraseSeq(next_seq + 100), ref.EraseSeq(next_seq + 100));
      }
      ASSERT_EQ(band.size(), ref.size()) << "trial " << trial << " op " << op;
      if (op % 64 == 0) {
        for (int32_t key = 1; key <= kKeyDomain; ++key) {
          ASSERT_EQ(ProbeSnapshot(band, key), ProbeSnapshot(ref, key))
              << "trial " << trial << " op " << op << " key " << key;
        }
      }
    }
    for (int32_t key = 1; key <= kKeyDomain; ++key) {
      EXPECT_EQ(ProbeSnapshot(band, key), ProbeSnapshot(ref, key))
          << "key " << key;
    }
  }
}

// -- Radius-0 band store vs the seed bucket store under churn ----------------

// The radius-0 BandStore against the seed bucket store, in lock-step across
// every operation the store concept exposes. The op mix is erase-heavy in
// bursts. Two key domains: the small one gives long per-key runs over many
// 8-record blocks, so middle erases move records across blocks; in the
// large one nearly every entry is a key of its own, so the fill rule widens
// the buckets (a rebuild) once the window turns over, and the probes then
// filter a shared bucket. Inserts carry rising epochs, so the epoch walk
// (newest-first) is compared too, after middle and absent-seq erases.
TEST(StoreEquivalence, RadiusZeroBandStoreMatchesSeedHashStoreUnderChurn) {
  using Crossing = std::tuple<std::size_t, QueryId, Seq>;
  constexpr Seq kSeqsPerEpoch = 97;
  auto epoch_walk = [](const auto& store, Epoch e) {
    std::vector<Seq> seqs;
    store.ForEachEpochAfter(e, [&](const StoreEntry<TR>& entry) {
      seqs.push_back(entry.tuple.seq);
    });
    return seqs;
  };
  for (const int32_t key_domain : {4, 4096}) {
    for (uint64_t trial = 1; trial <= 4; ++trial) {
      Rng rng(trial * 9001 + static_cast<uint64_t>(key_domain));
      EquiBand band = MakeEquiBand();
      RefHashStore<TR, TRKey, TSKey> ref;
      Seq next_seq = 0;
      std::deque<Seq> live;
      std::deque<Seq> to_clear;
      // Phases alternate: grow-heavy then erase-heavy (tombstone churn).
      for (int op = 0; op < 5000; ++op) {
        const bool grow_phase = (op / 500) % 2 == 0;
        const double insert_p = grow_phase ? 0.7 : 0.25;
        const double dice = rng.UniformDouble();
        if (live.empty() || dice < insert_p) {
          const int32_t key =
              static_cast<int32_t>(rng.UniformInt(1, key_domain));
          Stamped<TR> t = MakeTuple(key, next_seq);
          t.epoch = static_cast<Epoch>(1 + next_seq / kSeqsPerEpoch);
          band.Insert(t, true);
          ref.Insert(t, true);
          live.push_back(next_seq);
          to_clear.push_back(next_seq);
          ++next_seq;
        } else if (dice < insert_p + 0.15 && !to_clear.empty()) {
          const Seq seq = to_clear.front();
          to_clear.pop_front();
          ASSERT_EQ(band.ClearExpedited(seq), ref.ClearExpedited(seq));
        } else if (dice < 0.97) {
          const std::size_t pick =
              rng.Chance(0.85) ? 0
                               : static_cast<std::size_t>(rng.UniformInt(
                                     0, static_cast<int64_t>(live.size()) - 1));
          const Seq seq = live[pick];
          live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
          ASSERT_EQ(band.EraseSeq(seq), ref.EraseSeq(seq));
        } else {
          ASSERT_EQ(band.EraseSeq(next_seq + 7),
                    ref.EraseSeq(next_seq + 7));
        }
        ASSERT_EQ(band.size(), ref.size())
            << "domain " << key_domain << " trial " << trial << " op " << op;
        if (op % 128 == 0) {
          // Per-key insertion-order snapshots on a handful of keys...
          for (int32_t key = 1; key <= std::min(key_domain, 5); ++key) {
            ASSERT_EQ(ProbeSnapshot(band, key), ProbeSnapshot(ref, key))
                << "domain " << key_domain << " trial " << trial << " op "
                << op << " key " << key;
          }
          // ...and a batched probe sweep including absent keys.
          QuerySet<IndexedEq> queries{IndexedEq{}};
          std::vector<Stamped<TS>> probes;
          for (std::size_t j = 0; j < 12; ++j) {
            Stamped<TS> p;
            p.value.key =
                static_cast<int32_t>(rng.UniformInt(1, key_domain + 2));
            p.seq = j;
            probes.push_back(p);
          }
          std::multiset<Crossing> got, want;
          band.MatchBatch<false>(
              queries, probes.data(), probes.size(),
              [&](std::size_t j, QueryId q, const StoreEntry<TR>& e) {
                got.insert({j, q, e.tuple.seq});
              });
          ref.MatchBatch<false>(
              queries, probes.data(), probes.size(),
              [&](std::size_t j, QueryId q, const StoreEntry<TR>& e) {
                want.insert({j, q, e.tuple.seq});
              });
          ASSERT_EQ(got, want)
              << "domain " << key_domain << " trial " << trial << " op " << op;
          // Epoch walks from before the oldest epoch, mid-window and at the
          // newest epoch (empty).
          const Epoch newest = band.max_epoch();
          for (const Epoch e : {Epoch{0}, newest / 2, newest - 1, newest}) {
            ASSERT_EQ(epoch_walk(band, e), epoch_walk(ref, e))
                << "domain " << key_domain << " trial " << trial << " op "
                << op << " epoch " << e;
          }
        }
      }
      if (key_domain == 4096) {
        EXPECT_GT(band.bucket_shift(), 0)
            << "trial " << trial << ": sparse keys never widened the buckets";
      }
    }
  }
}

// -- Regression: ClearExpedited must not scan past the expedited suffix -----

// Expedition-ends arrive in insertion order, so a window is always a
// non-expedited (already cleared) prefix followed by an expedited suffix.
// The seed implementation walked the whole prefix for every clear — O(window)
// per expedition-end. The ring store scans newest-to-oldest and stops at
// the first non-expedited entry. This pins the early-exit semantics:
// a seq in the cleared prefix reports a miss instead of being re-found.
TEST(VectorStoreRegression, ClearExpeditedBailsOutAtExpeditedSuffix) {
  VectorStore<TR> store;
  for (Seq s = 0; s < 100; ++s) store.Insert(MakeTuple(1, s), true);
  // Clear the first 60 in insertion order (the protocol's only order).
  for (Seq s = 0; s < 60; ++s) EXPECT_TRUE(store.ClearExpedited(s));
  EXPECT_EQ(store.expedited_count(), 40u);
  // Re-clearing a prefix seq cannot happen in the protocol (one
  // expedition-end per tuple); the early exit reports it as a miss.
  EXPECT_FALSE(store.ClearExpedited(30));
  // The suffix stays reachable, in order.
  for (Seq s = 60; s < 100; ++s) EXPECT_TRUE(store.ClearExpedited(s));
  EXPECT_EQ(store.expedited_count(), 0u);
  EXPECT_FALSE(store.ClearExpedited(999));
}

// Erasures must preserve the bail-out invariant: holes punched by expiries
// (front or middle) never reorder entries, so flags stay monotone.
TEST(VectorStoreRegression, ClearExpeditedCorrectAfterErasures) {
  VectorStore<TR> store;
  for (Seq s = 0; s < 32; ++s) store.Insert(MakeTuple(1, s), true);
  for (Seq s = 0; s < 16; ++s) EXPECT_TRUE(store.ClearExpedited(s));
  EXPECT_TRUE(store.EraseSeq(0));   // front
  EXPECT_TRUE(store.EraseSeq(20));  // middle of the expedited suffix
  EXPECT_TRUE(store.EraseSeq(8));   // middle of the cleared prefix
  for (Seq s = 16; s < 32; ++s) {
    if (s == 20) {
      EXPECT_FALSE(store.ClearExpedited(s));  // erased: miss, like the seed
    } else {
      EXPECT_TRUE(store.ClearExpedited(s)) << "seq " << s;
    }
  }
  EXPECT_EQ(store.expedited_count(), 0u);
}

// -- BandStore vs VectorStore -------------------------------------------------

/// Drives a BandStore (`band`) and a VectorStore (`scan`) of the same side
/// in lock-step under FIFO churn: inserts in seq order, tuple epochs rising
/// through `sets` (sets[e] is epoch e's query set; sets[0] sized the
/// BandStore's buckets); expiries mostly oldest-first, some in the middle,
/// some of absent or already erased seqs; expedition-ends in insertion
/// order, some repeated. Every 64 ops, a batch of probes runs under every
/// epoch's set and the epoch walks are compared, order included.
/// `make_entry(op)` and `make_probe()` draw the tuples.
template <bool kProbeIsLeft, typename Entry, typename Probe, typename Pred,
          typename Band>
void RunBandLockstep(Band* band, const std::vector<QuerySet<Pred>>& sets,
                     const std::function<Entry(int)>& make_entry,
                     const std::function<Probe()>& make_probe, Rng* rng,
                     int ops, const std::string& label) {
  using Crossing = std::tuple<std::size_t, QueryId, Seq>;
  constexpr Seq kSeqsPerEpoch = 400;
  VectorStore<Entry> scan;
  auto walk = [](const auto& store, Epoch e) {
    std::vector<Seq> seqs;
    store.ForEachEpochAfter(e, [&](const StoreEntry<Entry>& entry) {
      seqs.push_back(entry.tuple.seq);
    });
    return seqs;
  };
  Seq next_seq = 0;
  std::deque<Seq> live;
  std::deque<Seq> to_clear;
  const Epoch last_epoch = static_cast<Epoch>(sets.size() - 1);
  for (int op = 0; op < ops; ++op) {
    const double dice = rng->UniformDouble();
    // Grow to a window of ~300, then hold it: about one expiry per insert.
    const double insert_p = live.size() < 300 ? 0.8 : 0.38;
    if (live.empty() || dice < insert_p) {
      Stamped<Entry> t;
      t.value = make_entry(op);
      t.seq = next_seq;
      t.epoch = std::min(static_cast<Epoch>(next_seq / kSeqsPerEpoch),
                         last_epoch);
      band->Insert(t, true);
      scan.Insert(t, true);
      live.push_back(next_seq);
      to_clear.push_back(next_seq);
      ++next_seq;
    } else if (dice < insert_p + 0.2 && !to_clear.empty()) {
      const Seq seq = to_clear.front();
      to_clear.pop_front();
      ASSERT_EQ(band->ClearExpedited(seq), scan.ClearExpedited(seq)) << label;
      if (rng->Chance(0.1)) {  // a repeated end finds the cleared prefix
        ASSERT_EQ(band->ClearExpedited(seq), scan.ClearExpedited(seq))
            << label << " repeated clear";
      }
    } else if (dice < 0.97) {
      const std::size_t pick =
          rng->Chance(0.9) ? 0
                           : static_cast<std::size_t>(rng->UniformInt(
                                 0, static_cast<int64_t>(live.size()) - 1));
      const Seq seq = live[pick];
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
      ASSERT_EQ(band->EraseSeq(seq), scan.EraseSeq(seq)) << label;
      ASSERT_FALSE(band->EraseSeq(seq)) << label << " repeated erase";
    } else {
      ASSERT_FALSE(band->EraseSeq(next_seq + 3)) << label << " absent seq";
      ASSERT_FALSE(scan.EraseSeq(next_seq + 3)) << label;
    }
    ASSERT_EQ(band->size(), scan.size()) << label << " op " << op;
    if (op % 64 != 0) continue;
    std::vector<Stamped<Probe>> probes(9);
    for (std::size_t j = 0; j < probes.size(); ++j) {
      probes[j].value = make_probe();
      probes[j].seq = j;
    }
    for (Epoch e = 0; e <= last_epoch; ++e) {
      std::multiset<Crossing> got, want;
      band->template MatchBatch<kProbeIsLeft>(
          sets[e], probes.data(), probes.size(),
          [&](std::size_t j, QueryId q, const StoreEntry<Entry>& entry) {
            got.insert({j, q, entry.tuple.seq});
          });
      scan.template MatchBatch<kProbeIsLeft>(
          sets[e], probes.data(), probes.size(),
          [&](std::size_t j, QueryId q, const StoreEntry<Entry>& entry) {
            want.insert({j, q, entry.tuple.seq});
          });
      ASSERT_EQ(got, want) << label << " op " << op << " epoch " << e;
      ASSERT_EQ(walk(*band, e), walk(scan, e))
          << label << " op " << op << " epoch " << e;
    }
  }
}

// Radius 0 sizes the buckets at W = 1 (the fill rule widens them a few
// times once the window of ~300 turns over); the later sets add radius 10
// and a radius of 100, far wider than W, so a probe spans dozens of buckets.
// Keys are negative as often as positive; the narrow key span fills each
// bucket past one lane block, so middle erases move records across blocks.
// Both sides: the R store under S probes (bounds on the probe) and the S
// store under R probes (bounds on the entry).
TEST(BandStoreEquivalence, MatchesScanStoreWithRadiiWiderThanBuckets) {
  std::vector<QuerySet<test::RangeBand>> sets(3);
  sets[0].Add(test::RangeBand{0});
  sets[1].Add(test::RangeBand{0});
  sets[1].Add(test::RangeBand{10});
  sets[2].Add(test::RangeBand{100});
  sets[2].Add(test::RangeBand{3});
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    Rng rng(seed);
    const int64_t span = seed <= 2 ? 60 : 3;
    auto key = [&] {
      return static_cast<int32_t>(rng.UniformInt(-span, span));
    };
    BandStore<test::TR, test::TS, test::RangeBand, StreamSide::kR> r_band(
        sets[0]);
    EXPECT_EQ(r_band.bucket_shift(), 0);
    RunBandLockstep<false, test::TR, test::TS>(
        &r_band, sets, [&](int) { return test::TR{key(), 0}; },
        [&] { return test::TS{key(), 0}; }, &rng, 3000,
        "R side seed " + std::to_string(seed));
    BandStore<test::TR, test::TS, test::RangeBand, StreamSide::kS> s_band(
        sets[0]);
    RunBandLockstep<true, test::TS, test::TR>(
        &s_band, sets, [&](int) { return test::TS{key(), 0}; },
        [&] { return test::TR{key(), 0}; }, &rng, 3000,
        "S side seed " + std::to_string(seed));
  }
}

// The paper's band predicate on the benchmark schema: the int and float
// key lanes both sweep, multi-query sets with different x_band straddle
// the epochs, and epoch 2's set is wider than epoch 0's buckets.
TEST(BandStoreEquivalence, PaperBandPredicateMultiQueryAcrossEpochs) {
  std::vector<QuerySet<BandPredicate>> sets(3);
  sets[0].Add(BandPredicate{10, 10.0f});
  sets[1].Add(BandPredicate{10, 10.0f});
  sets[1].Add(BandPredicate{2, 40.0f});
  sets[2].Add(BandPredicate{70, 3.0f});
  sets[2].Add(BandPredicate{0, 100.0f});
  for (uint64_t seed = 11; seed <= 13; ++seed) {
    Rng rng(seed);
    auto r = [&] {
      RTuple t;
      t.x = static_cast<int32_t>(rng.UniformInt(-400, 400));
      t.y = static_cast<float>(rng.UniformInt(0, 30));
      return t;
    };
    auto s = [&] {
      STuple t;
      t.a = static_cast<int32_t>(rng.UniformInt(-400, 400));
      t.b = static_cast<float>(rng.UniformInt(0, 30));
      return t;
    };
    BandStore<RTuple, STuple, BandPredicate, StreamSide::kR> r_band(sets[0]);
    EXPECT_EQ(r_band.bucket_shift(), 5);  // 2 * 10 + 1 = 21 -> W = 32
    RunBandLockstep<false, RTuple, STuple>(
        &r_band, sets, [&](int) { return r(); }, s, &rng, 3000,
        "R side seed " + std::to_string(seed));
    BandStore<RTuple, STuple, BandPredicate, StreamSide::kS> s_band(sets[0]);
    RunBandLockstep<true, STuple, RTuple>(
        &s_band, sets, [&](int) { return s(); }, r, &rng, 3000,
        "S side seed " + std::to_string(seed));
  }
}

// Keys at INT32_MIN/INT32_MAX and spread over the whole int32 range: the
// bucket bounds stay exact in int64, a radius of 2^31 covers every key,
// and sparse keys widen the buckets (the fill rule), which then stay wide
// through the dense last three quarters.
TEST(BandStoreEquivalence, ExtremeAndSparseKeysRebucketExactly) {
  constexpr int kOps = 8000;
  std::vector<QuerySet<WideBand>> sets(3);
  sets[0].Add(WideBand{10});
  sets[1].Add(WideBand{0});
  sets[1].Add(WideBand{10});
  sets[2].Add(WideBand{int64_t{1} << 31});
  constexpr int32_t kMin = std::numeric_limits<int32_t>::min();
  constexpr int32_t kMax = std::numeric_limits<int32_t>::max();
  Rng rng(21);
  // Dense keys sit in one bucket at each end of the int32 range.
  auto key = [&](bool sparse) {
    const double dice = rng.UniformDouble();
    if (sparse && dice < 0.5) {
      return static_cast<int32_t>(rng.UniformInt(kMin, kMax));
    }
    if (dice < 0.8) return static_cast<int32_t>(kMin + rng.UniformInt(0, 30));
    return static_cast<int32_t>(kMax - rng.UniformInt(0, 30));
  };
  auto probe_key = [&] {
    return rng.Chance(0.3) ? static_cast<int32_t>(rng.UniformInt(-30, 30))
                           : key(true);
  };
  BandStore<test::TR, test::TS, WideBand, StreamSide::kR> band(sets[0]);
  int widest = 0;
  RunBandLockstep<false, test::TR, test::TS>(
      &band, sets,
      [&](int op) {
        EXPECT_GE(band.bucket_shift(), widest) << "W narrowed at op " << op;
        widest = band.bucket_shift();
        return test::TR{key(op < kOps / 4), 0};
      },
      [&] { return test::TS{probe_key(), 0}; }, &rng, kOps, "extreme keys");
  EXPECT_GT(widest, 5) << "sparse keys never widened the buckets";
}

// -- Band sessions against the Kang reference --------------------------------

/// Expected (r_seq, s_seq, epoch) results of query `pred` registered at
/// trace position `from` (epoch `epoch`; 0 = before the first push):
/// every reference pair whose later input is pushed at or after `from`,
/// stamped with epoch 1 when it is at or after `add_pos`.
std::map<std::tuple<Seq, Seq, Epoch>, int> BandExpectation(
    const Trace<TR, TS>& trace, WindowSpec w, test::RangeBand pred,
    std::size_t from, std::size_t add_pos) {
  std::vector<std::size_t> pos[2];
  for (std::size_t i = 0; i < trace.size(); ++i) {
    pos[static_cast<int>(trace[i].side)].push_back(i);
  }
  std::map<std::tuple<Seq, Seq, Epoch>, int> out;
  for (const auto& m : ReferenceResults(trace, w, w, pred)) {
    const std::size_t later = std::max(pos[0][m.r_seq], pos[1][m.s_seq]);
    if (later < from) continue;
    out[{m.r_seq, m.s_seq, later >= add_pos ? Epoch{1} : Epoch{0}}]++;
  }
  return out;
}

// Band sessions whose predicate declares a key radius run LLHJ on
// BandStores: at 1, 2 and 4 nodes, threaded and sequential, a query added
// mid-stream with a band five times epoch 0's (wider than its buckets)
// matches the reference exactly from its install on, and the epoch-0 query
// keeps matching under both epochs.
TEST(BandStoreSession, MidStreamWiderQueryMatchesReference) {
  TraceConfig tc;
  tc.events = 900;
  tc.key_domain = 40;
  const auto trace = MakeRandomTrace(2024, tc);
  const WindowSpec w = WindowSpec::Time(80);
  const std::size_t add_pos = 450;
  const auto want0 = BandExpectation(trace, w, test::RangeBand{1}, 0, add_pos);
  const auto want1 =
      BandExpectation(trace, w, test::RangeBand{5}, add_pos, add_pos);
  for (const bool threaded : {false, true}) {
    for (const int nodes : {1, 2, 4}) {
      JoinConfig config;
      config.algorithm = Algorithm::kLowLatency;
      config.parallelism = nodes;
      config.window_r = w;
      config.window_s = w;
      config.threaded = threaded;
      JoinSession<TR, TS, test::RangeBand> session(config);
      CollectingHandler<TR, TS> h0;
      CollectingHandler<TR, TS> h1;
      session.AddQuery(test::RangeBand{1}, &h0);
      for (std::size_t i = 0; i < trace.size(); ++i) {
        if (i == add_pos) session.AddQuery(test::RangeBand{5}, &h1);
        if (trace[i].side == StreamSide::kR) {
          session.PushR(trace[i].r, trace[i].ts);
        } else {
          session.PushS(trace[i].s, trace[i].ts);
        }
      }
      session.FinishInput();
      session.Stop();
      const std::string label = std::string(threaded ? "threaded" : "seq") +
                                " nodes " + std::to_string(nodes);
      EXPECT_EQ(session.pipeline_anomalies(), 0u) << label;
      auto tally = [](const std::vector<ResultMsg<TR, TS>>& results) {
        std::map<std::tuple<Seq, Seq, Epoch>, int> out;
        for (const auto& m : results) out[{m.r_seq, m.s_seq, m.epoch}]++;
        return out;
      };
      EXPECT_EQ(tally(h0.results()), want0) << label << " query 0";
      EXPECT_EQ(tally(h1.results()), want1) << label << " query 1";
    }
  }
}

}  // namespace
}  // namespace sjoin
