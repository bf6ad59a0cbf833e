// Tests for the LLHJ node-local window stores (scan, and the key-bucketed
// index at a band radius and at radius 0, the equi-join index) and the
// home-node assignment policy.
#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "llhj/band_store.hpp"
#include "llhj/home_policy.hpp"
#include "llhj/store.hpp"

#include "test_util.hpp"

namespace sjoin {
namespace {

using test::TR;
using test::TS;

template <typename T>
Stamped<T> Make(int32_t key, Seq seq) {
  Stamped<T> t;
  t.value.key = key;
  t.value.id = static_cast<int32_t>(seq);
  t.seq = seq;
  t.ts = static_cast<Timestamp>(seq);
  return t;
}

template <typename Store>
std::vector<Seq> Collect(const Store& store, int32_t probe_key) {
  TS probe;
  probe.key = probe_key;
  std::vector<Seq> seqs;
  store.ForEach(probe, [&](const StoreEntry<TR>& e) {
    seqs.push_back(e.tuple.seq);
  });
  return seqs;
}

TEST(VectorStore, InsertAndScanAll) {
  VectorStore<TR> store;
  store.Insert(Make<TR>(1, 0), false);
  store.Insert(Make<TR>(2, 1), true);
  EXPECT_EQ(store.size(), 2u);
  auto seqs = Collect(store, 99);  // probe ignored: visits everything
  EXPECT_EQ(seqs.size(), 2u);
}

TEST(VectorStore, EraseFrontFastPath) {
  VectorStore<TR> store;
  store.Insert(Make<TR>(1, 0), false);
  store.Insert(Make<TR>(2, 1), false);
  EXPECT_TRUE(store.EraseSeq(0));
  EXPECT_EQ(store.size(), 1u);
  EXPECT_FALSE(store.EraseSeq(0));
}

TEST(VectorStore, EraseMiddle) {
  VectorStore<TR> store;
  for (Seq i = 0; i < 5; ++i) store.Insert(Make<TR>(1, i), false);
  EXPECT_TRUE(store.EraseSeq(2));
  EXPECT_EQ(store.size(), 4u);
  auto seqs = Collect(store, 1);
  EXPECT_EQ(std::set<Seq>(seqs.begin(), seqs.end()),
            (std::set<Seq>{0, 1, 3, 4}));
}

TEST(VectorStore, ExpeditionFlagLifecycle) {
  VectorStore<TR> store;
  store.Insert(Make<TR>(1, 7), true);
  EXPECT_EQ(store.expedited_count(), 1u);
  EXPECT_TRUE(store.ClearExpedited(7));
  EXPECT_EQ(store.expedited_count(), 0u);
  EXPECT_FALSE(store.ClearExpedited(8));  // unknown seq
}

TEST(VectorStore, ClearExpeditedOnErasedTupleIsNoop) {
  VectorStore<TR> store;
  store.Insert(Make<TR>(1, 7), true);
  EXPECT_TRUE(store.EraseSeq(7));
  EXPECT_FALSE(store.ClearExpedited(7));
}

using TRBand = BandStore<TR, TS, test::RangeBand, StreamSide::kR>;

/// An R-side band store whose epoch-0 query is |r.key - s.key| <= width.
TRBand MakeBandStore(int32_t width = 1) {
  return TRBand(QuerySet<test::RangeBand>(test::RangeBand{width}));
}

/// The entries a band store matches for one S probe of key `probe_key`
/// under the single query |r.key - s.key| <= width.
std::vector<StoreEntry<TR>> ProbeBand(const TRBand& store, int32_t probe_key,
                                      int32_t width = 1) {
  Stamped<TS> probe;
  probe.value.key = probe_key;
  std::vector<StoreEntry<TR>> out;
  store.MatchBatch</*kProbeIsLeft=*/false>(
      QuerySet<test::RangeBand>(test::RangeBand{width}), &probe, 1,
      [&](std::size_t, QueryId, const StoreEntry<TR>& e) { out.push_back(e); });
  return out;
}

std::vector<Seq> CollectBand(const TRBand& store, int32_t probe_key,
                             int32_t width = 1) {
  std::vector<Seq> seqs;
  for (const auto& e : ProbeBand(store, probe_key, width)) {
    seqs.push_back(e.tuple.seq);
  }
  return seqs;
}

using TREqui = BandStore<TR, TS, test::IndexedEq, StreamSide::kR>;

/// An R-side radius-0 store: the equi-join index of r.key == s.key.
TREqui MakeEquiStore() {
  return TREqui(QuerySet<test::IndexedEq>{test::IndexedEq{}});
}

/// The entries a radius-0 store matches for one S probe of key `probe_key`.
std::vector<StoreEntry<TR>> ProbeEqui(const TREqui& store, int32_t probe_key) {
  Stamped<TS> probe;
  probe.value.key = probe_key;
  std::vector<StoreEntry<TR>> out;
  store.MatchBatch</*kProbeIsLeft=*/false>(
      QuerySet<test::IndexedEq>{test::IndexedEq{}}, &probe, 1,
      [&](std::size_t, QueryId, const StoreEntry<TR>& e) { out.push_back(e); });
  return out;
}

std::vector<Seq> CollectEqui(const TREqui& store, int32_t probe_key) {
  std::vector<Seq> seqs;
  for (const auto& e : ProbeEqui(store, probe_key)) {
    seqs.push_back(e.tuple.seq);
  }
  return seqs;
}

TEST(BandStore, RadiusZeroProbeVisitsOnlyMatchingKey) {
  TREqui store = MakeEquiStore();
  EXPECT_EQ(store.bucket_shift(), 0);
  store.Insert(Make<TR>(1, 0), false);
  store.Insert(Make<TR>(2, 1), false);
  store.Insert(Make<TR>(1, 2), false);
  EXPECT_EQ(store.size(), 3u);
  EXPECT_EQ(store.bucket_count(), 2u);
  auto seqs = CollectEqui(store, 1);
  EXPECT_EQ(std::set<Seq>(seqs.begin(), seqs.end()), (std::set<Seq>{0, 2}));
  EXPECT_TRUE(CollectEqui(store, 3).empty());
}

TEST(BandStore, RadiusZeroEraseSeqUpdatesBuckets) {
  TREqui store = MakeEquiStore();
  store.Insert(Make<TR>(1, 0), false);
  store.Insert(Make<TR>(1, 1), false);
  EXPECT_TRUE(store.EraseSeq(0));
  EXPECT_EQ(store.size(), 1u);
  auto seqs = CollectEqui(store, 1);
  EXPECT_EQ(seqs, std::vector<Seq>{1});
  EXPECT_FALSE(store.EraseSeq(0));
  EXPECT_TRUE(store.EraseSeq(1));
  EXPECT_EQ(store.size(), 0u);
  EXPECT_EQ(store.bucket_count(), 0u);
  EXPECT_TRUE(CollectEqui(store, 1).empty());
}

#if defined(__linux__) && !defined(SJOIN_SANITIZE)

/// This process's resident set (VmRSS), in KiB; -1 when unreadable.
long ResidentKiB() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) return std::stol(line.substr(6));
  }
  return -1;
}

// A window under FIFO churn must hold its memory: one expiry of the oldest
// entry and one insert per op over 2,048 live entries, 1M ops. Expiries
// return blocks to the pool's free list and release emptied buckets, so
// neither the block pool nor the bucket index may grow with the churn.
// Growth is measured from the filled store and checked after the first
// 100K ops and at the end. (Compiled out under sanitizers, whose
// allocators keep freed memory in quarantine.)
TEST(BandStore, RadiusZeroFifoChurnHoldsResidentMemory) {
  constexpr Seq kLive = 2'048;
  constexpr int kOps = 1'000'000;
  constexpr int kCheckOps = 100'000;
  constexpr long kBoundKiB = 1'024;
  Rng rng(17);
  TREqui store = MakeEquiStore();
  auto next_tuple = [&](Seq seq) {
    return Make<TR>(static_cast<int32_t>(rng.UniformInt(1, 1'024)), seq);
  };
  Seq next = 0;
  for (; next < kLive; ++next) store.Insert(next_tuple(next), false);
  const long filled_kib = ResidentKiB();
  ASSERT_GT(filled_kib, 0) << "VmRSS unreadable";
  for (int op = 1; op <= kOps; ++op) {
    ASSERT_TRUE(store.EraseSeq(next - kLive));
    store.Insert(next_tuple(next), false);
    ++next;
    if (op == kCheckOps || op == kOps) {
      const long grown_kib = ResidentKiB() - filled_kib;
      EXPECT_LT(grown_kib, kBoundKiB)
          << "resident set grew " << grown_kib << " KiB in " << op << " ops";
    }
  }
  EXPECT_EQ(store.size(), static_cast<std::size_t>(kLive));
}

#endif  // __linux__ && !SJOIN_SANITIZE

TEST(BandStore, RadiusZeroClearExpedited) {
  TREqui store = MakeEquiStore();
  store.Insert(Make<TR>(5, 3), true);
  int expedited = 0;
  for (const auto& e : ProbeEqui(store, 5)) expedited += e.expedited ? 1 : 0;
  EXPECT_EQ(expedited, 1);
  EXPECT_TRUE(store.ClearExpedited(3));
  expedited = 0;
  for (const auto& e : ProbeEqui(store, 5)) expedited += e.expedited ? 1 : 0;
  EXPECT_EQ(expedited, 0);
  EXPECT_FALSE(store.ClearExpedited(99));
}

// At radius 0 each key has a bucket of its own (W = 1). A count window of
// 2,048 entries over 512 keys, about four per key, keeps that through its
// fill and 10 window turnovers. Each op inserts the arrival before the
// expiry of the oldest, so the ring doubles to 4,096 slots and the fill
// rule's budget is 8,192 records. With 8-record blocks the buckets stay
// within it; with 32-record blocks, 512 buckets would take 16,384 records
// and widen W at the first erase.
TEST(BandStore, RadiusZeroKeepsExactBucketsThroughChurn) {
  constexpr Seq kLive = 2'048;
  constexpr int32_t kKeys = 512;
  Rng rng(29);
  TREqui store = MakeEquiStore();
  std::vector<Seq> live_per_key(kKeys + 1, 0);
  std::vector<int32_t> key_of;  // by seq
  std::size_t distinct = 0;
  auto insert = [&](Seq seq) {
    const auto key = static_cast<int32_t>(rng.UniformInt(1, kKeys));
    key_of.push_back(key);
    if (live_per_key[static_cast<std::size_t>(key)]++ == 0) ++distinct;
    store.Insert(Make<TR>(key, seq), false);
  };
  auto check = [&](Seq seq) {
    ASSERT_EQ(store.bucket_shift(), 0) << "seq " << seq;
    ASSERT_EQ(store.bucket_count(), distinct) << "seq " << seq;
  };
  Seq next = 0;
  for (; next < kLive; ++next) {
    insert(next);
    check(next);
  }
  for (; next < 11 * kLive; ++next) {
    insert(next);
    const Seq oldest = next - kLive;
    ASSERT_TRUE(store.EraseSeq(oldest));
    const auto key = static_cast<std::size_t>(key_of[oldest]);
    if (--live_per_key[key] == 0) --distinct;
    check(next);
    if (next % 97 == 0) {
      const int32_t probe = key_of[next];
      for (const Seq seq : CollectEqui(store, probe)) {
        ASSERT_EQ(key_of[seq], probe) << "seq " << seq;
      }
      ASSERT_EQ(CollectEqui(store, probe).size(),
                live_per_key[static_cast<std::size_t>(probe)]);
    }
  }
  EXPECT_EQ(store.size(), static_cast<std::size_t>(kLive));
}

// -- Epoch-walk ordering contract --------------------------------------------

// ForEachEpochAfter visits exactly the live entries inserted under an epoch
// later than `e`, NEWEST-FIRST (strictly descending Seq), on every store
// type. The nodes tolerate any order (each entry is evaluated in
// isolation), but the contract is pinned so stores stay interchangeable —
// see llhj_node.hpp / hsj_node.hpp epoch re-sweep call sites.
template <typename T>
Stamped<T> MakeEpoch(int32_t key, Seq seq, Epoch epoch) {
  Stamped<T> t = Make<T>(key, seq);
  t.epoch = epoch;
  return t;
}

template <typename Store>
void CheckEpochWalkNewestFirst(Store& store) {
  // Epochs are monotone in flow order (the runtime's invariant): seqs
  // 0..29 under epoch 1, 30..59 under epoch 2, 60..89 under epoch 3.
  for (Seq s = 0; s < 90; ++s) {
    store.Insert(MakeEpoch<TR>(static_cast<int32_t>(s % 7), s, 1 + s / 30),
                 false);
  }
  // Churn: expire a prefix plus scattered newer entries.
  for (Seq s = 0; s < 10; ++s) ASSERT_TRUE(store.EraseSeq(s));
  for (Seq s : {Seq{35}, Seq{61}, Seq{88}}) ASSERT_TRUE(store.EraseSeq(s));
  EXPECT_EQ(store.max_epoch(), 3u);

  for (Epoch e = 0; e <= 3; ++e) {
    std::vector<Seq> visited;
    store.ForEachEpochAfter(e, [&](const StoreEntry<TR>& entry) {
      visited.push_back(entry.tuple.seq);
    });
    std::vector<Seq> expect;  // live entries with epoch > e, newest first
    for (Seq s = 90; s > 0; --s) {
      const Seq seq = s - 1;
      if (seq < 10 || seq == 35 || seq == 61 || seq == 88) continue;
      if (1 + seq / 30 > e) expect.push_back(seq);
    }
    EXPECT_EQ(visited, expect) << "epoch " << e;
  }
}

TEST(EpochWalk, VectorStoreVisitsNewestFirst) {
  VectorStore<TR> store;
  CheckEpochWalkNewestFirst(store);
}

TEST(EpochWalk, RadiusZeroBandStoreVisitsNewestFirst) {
  TREqui store = MakeEquiStore();
  CheckEpochWalkNewestFirst(store);
}

TEST(EpochWalk, BandStoreVisitsNewestFirst) {
  TRBand store = MakeBandStore();
  CheckEpochWalkNewestFirst(store);
}

TEST(BandStore, RangeProbeVisitsOnlyBand) {
  TRBand store = MakeBandStore();
  store.Insert(Make<TR>(1, 0), false);
  store.Insert(Make<TR>(3, 1), false);
  store.Insert(Make<TR>(5, 2), false);
  store.Insert(Make<TR>(4, 3), false);
  // Probe key 4 with band 1 -> keys 3..5 (key 1 shares a bucket with 3).
  auto seqs = CollectBand(store, 4);
  EXPECT_EQ(std::set<Seq>(seqs.begin(), seqs.end()),
            (std::set<Seq>{1, 2, 3}));
}

TEST(BandStore, DuplicateKeysAllVisited) {
  TRBand store = MakeBandStore();
  store.Insert(Make<TR>(7, 0), false);
  store.Insert(Make<TR>(7, 1), false);
  store.Insert(Make<TR>(7, 2), false);
  EXPECT_EQ(CollectBand(store, 7).size(), 3u);
}

TEST(BandStore, EraseSeqFromDuplicateBucket) {
  TRBand store = MakeBandStore();
  store.Insert(Make<TR>(7, 0), false);
  store.Insert(Make<TR>(7, 1), false);
  EXPECT_TRUE(store.EraseSeq(0));
  EXPECT_EQ(store.size(), 1u);
  auto seqs = CollectBand(store, 7);
  EXPECT_EQ(seqs, std::vector<Seq>{1});
  EXPECT_FALSE(store.EraseSeq(0));
}

TEST(BandStore, ExpeditionFlag) {
  TRBand store = MakeBandStore();
  store.Insert(Make<TR>(2, 5), true);
  auto matched = ProbeBand(store, 2);
  ASSERT_EQ(matched.size(), 1u);
  EXPECT_TRUE(matched[0].expedited);
  EXPECT_TRUE(store.ClearExpedited(5));
  EXPECT_FALSE(store.ClearExpedited(99));
  matched = ProbeBand(store, 2);
  ASSERT_EQ(matched.size(), 1u);
  EXPECT_FALSE(matched[0].expedited);
}

TEST(BandStore, EmptyRangeProbe) {
  TRBand store = MakeBandStore();
  store.Insert(Make<TR>(100, 0), false);
  EXPECT_TRUE(CollectBand(store, 50).empty());
}

// The bucket width is the smallest power of two of at least 2R + 1, R the
// widest radius of the epoch-0 set; a middle erase leaves the rest intact
// and an absent or repeated erase reports false.
TEST(BandStore, BucketWidthAndMiddleErase) {
  QuerySet<test::RangeBand> queries;
  queries.Add(test::RangeBand{3});
  queries.Add(test::RangeBand{10});
  TRBand store(queries);
  EXPECT_EQ(store.bucket_shift(), 5);  // 2 * 10 + 1 = 21 -> W = 32
  for (Seq s = 0; s < 6; ++s) {
    store.Insert(Make<TR>(static_cast<int32_t>(s) * 8, s), false);
  }
  EXPECT_EQ(store.bucket_count(), 2u);  // keys 0..24 and 32, 40
  EXPECT_TRUE(store.EraseSeq(2));
  EXPECT_FALSE(store.EraseSeq(2));
  EXPECT_FALSE(store.EraseSeq(17));
  EXPECT_EQ(store.size(), 5u);
  auto seqs = CollectBand(store, 40, 10);  // keys 32, 40
  EXPECT_EQ(std::set<Seq>(seqs.begin(), seqs.end()), (std::set<Seq>{4, 5}));
  for (Seq s : {Seq{0}, Seq{1}, Seq{3}, Seq{4}, Seq{5}}) {
    EXPECT_TRUE(store.EraseSeq(s));
  }
  EXPECT_EQ(store.size(), 0u);
  EXPECT_EQ(store.bucket_count(), 0u);
}

// The fill rule: buckets are judged at erases, so a store still filling
// keeps the epoch-0 width however sparse its keys. Dense keys (the Fig. 17
// band workload's share of 10,000 keys of 1..10,000 under band 10) stay
// at W = 32 through a full window of churn. Sparse keys widen W at the
// first erase until the blocks in use hold at most two records per ring
// slot: 1,000 entries ring at 1,024 slots, so at most 64 blocks, each
// live bucket holding one or more.
TEST(BandStore, WidensOnlyOverBudgetOnceFilled) {
  Rng rng(17);
  TRBand dense = MakeBandStore(10);
  constexpr Seq kDense = 10'000;
  auto dense_key = [&] {
    return static_cast<int32_t>(rng.UniformInt(1, 10'000));
  };
  for (Seq s = 0; s < kDense; ++s) {
    dense.Insert(Make<TR>(dense_key(), s), false);
  }
  EXPECT_EQ(dense.bucket_shift(), 5);
  for (Seq s = kDense; s < 3 * kDense; ++s) {
    ASSERT_TRUE(dense.EraseSeq(s - kDense));
    dense.Insert(Make<TR>(dense_key(), s), false);
  }
  EXPECT_EQ(dense.bucket_shift(), 5) << "dense keys widened the buckets";

  TRBand sparse = MakeBandStore(10);
  constexpr Seq kSparse = 1'000;
  auto sparse_key = [&] {
    return static_cast<int32_t>(rng.UniformInt(-(1 << 30), 1 << 30));
  };
  for (Seq s = 0; s < kSparse; ++s) {
    sparse.Insert(Make<TR>(sparse_key(), s), false);
  }
  EXPECT_EQ(sparse.bucket_shift(), 5) << "judged while filling";
  ASSERT_TRUE(sparse.EraseSeq(0));
  const int widened = sparse.bucket_shift();
  EXPECT_GT(widened, 5);
  EXPECT_LE(sparse.bucket_count(), 64u);
  for (Seq s = kSparse; s < 3 * kSparse; ++s) {
    ASSERT_TRUE(sparse.EraseSeq(s - kSparse + 1));
    sparse.Insert(Make<TR>(sparse_key(), s), false);
    ASSERT_LE(sparse.bucket_count(), 64u) << "op " << s;
    ASSERT_GE(sparse.bucket_shift(), widened) << "W narrowed";
  }
}

TEST(HomeAssigner, RoundRobinCyclesAllNodes) {
  HomeAssigner h(4);
  for (Seq seq = 0; seq < 16; ++seq) {
    EXPECT_EQ(h.Of(seq), static_cast<NodeId>(seq % 4));
  }
}

TEST(HomeAssigner, SingleNodeAlwaysZero) {
  HomeAssigner h(1);
  for (Seq seq = 0; seq < 20; ++seq) EXPECT_EQ(h.Of(seq), 0);
}

}  // namespace
}  // namespace sjoin
