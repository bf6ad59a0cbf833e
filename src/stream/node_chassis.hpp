// The engine-independent half of a pipeline node (DESIGN.md Section 1).
// Both engines run the same two-flow pipeline: R tuples enter the leftmost
// node and flow right, S tuples enter the rightmost node and flow left, and
// a tuple is probed against the opposite window at every node it reaches.
// Handshake join (hsj/hsj_node.hpp) rests a tuple in a segment and
// relocates it as new input pushes it along; low-latency handshake join
// (llhj/llhj_node.hpp) expedites it and stores it once at its home node.
//
// The chassis holds what the two share: the flow channels, the result
// sink, the node's windows and in-flight S buffer (IWS), the Step skeleton
// (drain outputs, consume one burst per input, drain again), the
// epoch-grouped window sweeps with result emission, the epoch punctuation
// markers and the re-emission of loss punctuations. An engine derives from
// NodeChassis<Engine, ...> and differs at three points, each a static call
// into the engine (no virtual call per message or per result):
//  1. its arrival and control handlers of both flows (HandleLeftArrivals,
//     HandleLeft, HandleRightArrivals, HandleRight);
//  2. AfterBursts, run after each step's bursts (HSJ: relocation, segment
//     size publication and the release of held epoch punctuations);
//  3. Admits, the filter on every emitted pair (HSJ: expiry horizons).
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "common/seq_ring.hpp"
#include "common/types.hpp"
#include "llhj/store.hpp"
#include "runtime/executor.hpp"
#include "runtime/spsc_queue.hpp"
#include "runtime/staged_channel.hpp"
#include "stream/message.hpp"
#include "stream/query_set.hpp"

namespace sjoin {

/// Free slots an outbound channel needs before an arrival is consumed: the
/// forward, an acknowledgement or expedition end, and headroom for a
/// chasing expiry.
inline constexpr std::size_t kArrivalSlack = 4;

/// A node's diagnostic counters; a field its engine has no use for stays 0.
struct NodeCounters {
  uint64_t tombstoned = 0;   ///< LLHJ: expiries that overtook their tuple
  uint64_t relocated_r = 0;  ///< HSJ: tuples passed on by relocation
  uint64_t relocated_s = 0;
  uint64_t anomalies = 0;  ///< must stay 0; checked by tests
};

/// What a pipeline reads of a node, whatever its engine.
class PipelineNode : public Steppable {
 public:
  /// Messages consumed so far; safe to read from other threads (used for
  /// distributed quiescence detection).
  uint64_t processed_count() const {
    return processed_.load(std::memory_order_relaxed);
  }

  const NodeCounters& counters() const { return counters_; }

 protected:
  NodeCounters counters_;
  std::atomic<uint64_t> processed_{0};
};

template <typename Engine, typename R, typename S, typename Pred,
          typename Sink, typename RStore, typename SStore>
class NodeChassis : public PipelineNode {
 public:
  /// Placement hook (runs on this node's pinned thread, before any
  /// production anywhere — see ThreadedExecutor's start barrier): write
  /// the input rings' pages and the owner-local staging buffers first from
  /// here, so they land on this node's NUMA node instead of the
  /// pipeline-building thread's.
  void OnThreadStart() override {
    left_in_->PrefaultByConsumer();
    right_in_->PrefaultByConsumer();
    right_out_.Prewarm(kStagePrewarm);
    left_out_.Prewarm(kStagePrewarm);
    if constexpr (requires(Sink* s) { s->Prewarm(kStagePrewarm); }) {
      sink_->Prewarm(kStagePrewarm);
    }
    own_thread_ = true;
  }

  bool Step() override {
    bool progress = right_out_.Drain() | left_out_.Drain();
    if constexpr (requires(Sink* s) { s->Drain(); }) {
      progress |= sink_->Drain();
    }
    // Each side consumes up to kMsgsPerStep messages per step as a burst:
    // the messages are processed in place off PeekBurst spans and retired
    // with a single ConsumeBurst index update, instead of one
    // acquire/release pair per message. Per-channel FIFO order and the
    // arrival backpressure gate are untouched — a blocked arrival ends the
    // burst with everything before it consumed and everything from it on
    // still queued.
    const std::size_t consumed = ProcessLeftBurst() + ProcessRightBurst();
    if (consumed > 0) {
      progress = true;
      processed_.fetch_add(consumed, std::memory_order_relaxed);
    }
    progress |= engine().AfterBursts();
    progress |= right_out_.Drain() | left_out_.Drain();
    return progress;
  }

  const RStore& r_store() const { return wr_; }
  const SStore& s_store() const { return ws_; }
  std::size_t inflight_s() const { return iws_.size(); }

 protected:
  using Snapshot = QueryEpochSnapshot<Pred>;

  /// `registry` holds one frozen QuerySet per epoch (epoch 0 = the set the
  /// pipeline started with). Within an epoch the hot path reads an
  /// immutable snapshot with no synchronization; the registry mutex is
  /// touched only when an epoch punctuation switches the active snapshot.
  /// A store type constructible from a QuerySet (BandStore) is built from
  /// the epoch-0 set. A null output channel ends its flow here.
  NodeChassis(NodeId id, int nodes, const QueryEpochRegistry<Pred>* registry,
              Sink* sink, SpscQueue<FlowMsg<R>>* left_in,
              SpscQueue<FlowMsg<R>>* right_out,
              SpscQueue<FlowMsg<S>>* right_in,
              SpscQueue<FlowMsg<S>>* left_out)
      : id_(id),
        nodes_(nodes),
        snaps_(registry),
        sink_(sink),
        left_in_(left_in),
        right_in_(right_in),
        right_out_(right_out),
        left_out_(left_out),
        wr_(MakeStore<RStore>(registry)),
        ws_(MakeStore<SStore>(registry)) {}

  bool IsLeftmost() const { return id_ == 0; }
  bool IsRightmost() const { return id_ == nodes_ - 1; }

  // -- Engine hooks: the defaults; an engine that differs declares its own.

  /// Work after each step's bursts; true when it made progress.
  bool AfterBursts() { return false; }

  /// Whether a crossing pair may emit its results here.
  static bool Admits(const Stamped<R>& /*r*/, const Stamped<S>& /*s*/) {
    return true;
  }

  // -- Arrival runs ------------------------------------------------------------

  /// How many arrivals of a run of `run` the node consumes now, on the flow
  /// that `out` forwards (`end`: this node ends the flow). Bounded result
  /// staging (DESIGN.md Section 6): while results wait behind the full
  /// result ring, arrivals are deferred (0), so the stage holds at most one
  /// batch's results; control messages are still consumed. Backpressure
  /// gates only the forward direction: the control outputs stage locally.
  /// Gating both would close a wait-for cycle between neighbours (deadlock
  /// at small channel capacities); this way every wait chain between nodes
  /// ends at a flow's end node, which waits on no flow channel.
  template <typename T>
  std::size_t ArrivalBudget(std::size_t run, bool end,
                            StagedChannel<FlowMsg<T>>& out) {
    if (ResultsBacklogged(end)) return 0;
    return end ? run : std::min(run, out.ArrivalBudget(kArrivalSlack));
  }

  /// The first `k` messages of an arrival run as probes, in `probes`
  /// (scratch reused across steps).
  template <typename T>
  static void StampProbes(const FlowMsg<T>* msgs, std::size_t k,
                          std::vector<Stamped<T>>* probes) {
    probes->clear();
    for (std::size_t j = 0; j < k; ++j) {
      probes->push_back(Stamped<T>{msgs[j].payload, msgs[j].seq, msgs[j].ts,
                                   msgs[j].arrival_wall_ns, msgs[j].epoch});
    }
  }

  /// Acknowledges a run of S arrivals to the right-hand sender as one burst
  /// (the rightmost node received them from the driver: nothing to ack).
  void AckS(const Stamped<S>* ss, std::size_t k) {
    if (IsRightmost()) return;
    ack_buf_.clear();
    for (std::size_t j = 0; j < k; ++j) {
      FlowMsg<R> ack;
      ack.kind = MsgKind::kAck;
      ack.ref_side = StreamSide::kS;
      ack.seq = ss[j].seq;
      ack_buf_.push_back(ack);
    }
    right_out_.PushBurst(std::span<const FlowMsg<R>>(ack_buf_));
  }

  /// Republishes a shed-at-ingest loss bound (DESIGN.md Section 12) into
  /// the result queue at this in-band position, exactly once: the
  /// punctuation does not cascade. The shed tuples never entered the
  /// pipeline, so no window holds them and nothing waits for them.
  template <typename T>
  void EmitLossMark(const FlowMsg<T>& msg) {
    sink_->Emit(
        MakeLossMark<R, S>(msg.ref_side, msg.seq, LossPunctCount(msg), id_));
  }

  // -- Matching ----------------------------------------------------------------
  //
  // Every crossing pair is evaluated under the query-set snapshot of
  // max(probe epoch, entry epoch) — the epoch the later-pushed input
  // belongs to. The common case (no epoch change in flight) degenerates to
  // one epoch compare per batch plus one per emitted match.

  /// Snapshot for epoch `e`; a null return means an epoch that was never
  /// installed reached the node — a protocol bug counted as an anomaly.
  const Snapshot* SnapshotFor(Epoch e) {
    const Snapshot* snap = snaps_.Get(e);
    if (snap == nullptr) ++counters_.anomalies;
    return snap;
  }

  /// Emits one result tagged with the session-wide query id that matched
  /// (the result's epoch is max of the pair's push epochs, via MakeResult).
  void EmitResult(const Stamped<R>& r, const Stamped<S>& s, QueryId q) {
    if (!engine().Admits(r, s)) return;
    ResultMsg<R, S> m = MakeResult(r, s, id_);
    m.query = q;
    sink_->Emit(m);
  }

  /// Evaluates the pair's epoch snapshot on the crossing pair, emitting one
  /// tagged result per matching query.
  void EmitMatches(const Stamped<R>& r, const Stamped<S>& s) {
    const Snapshot* snap = SnapshotFor(r.epoch > s.epoch ? r.epoch : s.epoch);
    if (snap == nullptr) return;
    snap->set.Match(r.value, s.value, [&](QueryId lane) {
      EmitResult(r, s, snap->GlobalId(lane));
    });
  }

  /// One pass over the local S window and the in-flight S buffer for a run
  /// of R probes (entry-major: each entry is loaded once and tested against
  /// the whole run and every query — on the packed-compare kernels when the
  /// schema has a SIMD mapping, store.hpp MatchBatch). An HSJ run can
  /// straddle an epoch boundary (relocations), so the run is split into
  /// same-epoch groups first; outside an install that is one group and one
  /// compare.
  void ScanBatchAgainstS(const Stamped<R>* rs, std::size_t k) {
    ForEachEpochGroup(rs, k, [&](const Stamped<R>* g, std::size_t n) {
      ScanGroupAgainstS(g, n);
    });
  }

  void ScanGroupAgainstS(const Stamped<R>* rs, std::size_t k) {
    const Epoch pe = rs[0].epoch;
    const Snapshot* snap = SnapshotFor(pe);
    // Entries pushed under a LATER epoch than the probe are skipped here
    // (the per-match epoch check) and re-swept below under their own
    // snapshot.
    if (snap != nullptr) {
      ws_.template MatchBatch<true>(
          snap->set, rs, k,
          [&](std::size_t j, QueryId lane, const StoreEntry<S>& entry) {
            if (entry.tuple.epoch > pe) return;
            EmitResult(rs[j], entry.tuple, snap->GlobalId(lane));
          });
    }
    // Rare (only while an install is in flight): entries stored under a
    // later epoch than a probe that lingered in the channels. Scalar sweep
    // under the entry's snapshot; the store's max_epoch early-out makes
    // this free in steady state. Every store visits newest-first
    // (descending Seq — pinned by test_stores.cpp); emission here is
    // order-independent regardless, as each entry is evaluated against all
    // k probes in isolation and result ordering is restored downstream.
    ws_.ForEachEpochAfter(pe, [&](const StoreEntry<S>& entry) {
      const Snapshot* es = SnapshotFor(entry.tuple.epoch);
      if (es == nullptr) return;
      for (std::size_t j = 0; j < k; ++j) {
        es->set.Match(rs[j].value, entry.tuple.value, [&](QueryId lane) {
          EmitResult(rs[j], entry.tuple, es->GlobalId(lane));
        });
      }
    });
    // Forwarded-but-unacked S tuples are virtually still here: the "while
    // travelling" evaluations (a handful of entries — scalar evaluation,
    // per-pair epoch).
    iws_.ForEach([&](const Stamped<S>& s) {
      for (std::size_t j = 0; j < k; ++j) EmitMatches(rs[j], s);
    });
  }

  void ScanBatchAgainstR(const Stamped<S>* ss, std::size_t k) {
    ForEachEpochGroup(ss, k, [&](const Stamped<S>* g, std::size_t n) {
      ScanGroupAgainstR(g, n);
    });
  }

  void ScanGroupAgainstR(const Stamped<S>* ss, std::size_t k) {
    const Epoch pe = ss[0].epoch;
    const Snapshot* snap = SnapshotFor(pe);
    // Expedited entries (LLHJ's stored/stored dedup; HSJ stores none) are
    // skipped at emission: matches are rare, so the flag (and epoch) check
    // costs per match, not per evaluation.
    if (snap != nullptr) {
      wr_.template MatchBatch<false>(
          snap->set, ss, k,
          [&](std::size_t j, QueryId lane, const StoreEntry<R>& entry) {
            if (entry.expedited || entry.tuple.epoch > pe) return;
            EmitResult(entry.tuple, ss[j], snap->GlobalId(lane));
          });
    }
    // Newest-first per the store epoch-walk contract; order-independent
    // here (see the ws_ sweep above).
    wr_.ForEachEpochAfter(pe, [&](const StoreEntry<R>& entry) {
      if (entry.expedited) return;
      const Snapshot* es = SnapshotFor(entry.tuple.epoch);
      if (es == nullptr) return;
      for (std::size_t j = 0; j < k; ++j) {
        es->set.Match(entry.tuple.value, ss[j].value, [&](QueryId lane) {
          EmitResult(entry.tuple, ss[j], es->GlobalId(lane));
        });
      }
    });
  }

  /// Splits a probe run into maximal same-epoch groups (epochs are
  /// monotone in flow order).
  template <typename T, typename F>
  static void ForEachEpochGroup(const Stamped<T>* probes, std::size_t k,
                                F&& f) {
    std::size_t i = 0;
    while (i < k) {
      std::size_t run = 1;
      while (i + run < k && probes[i + run].epoch == probes[i].epoch) ++run;
      f(probes + i, run);
      i += run;
    }
  }

  // -- Epoch punctuations ------------------------------------------------------

  /// Records that the punctuation of `epoch` arrived on one flow. Once both
  /// flows have seen epoch E, the upstream neighbours (or the driver) have
  /// promised no further probe of an earlier epoch here in either
  /// direction, so no result of an epoch < E can be emitted again: publish
  /// the epoch marker into the result queue — the in-band signal the
  /// collector aggregates for retired-epoch draining.
  void OnEpochPunctuation(bool left_flow, Epoch epoch) {
    Epoch& side = left_flow ? left_epoch_ : right_epoch_;
    if (epoch > side) side = epoch;
    const Epoch both = std::min(left_epoch_, right_epoch_);
    while (marker_epoch_ < both) {
      ++marker_epoch_;
      ResultMsg<R, S> mark;
      mark.query = kEpochMarkQuery;
      mark.epoch = marker_epoch_;
      mark.origin = id_;
      sink_->Emit(mark);
    }
    // Every future probe here carries an epoch >= `both`, and the
    // max(probe, entry) rule then never selects an older snapshot, so
    // pruning the cache is safe (the registry keeps every epoch; this only
    // trims the MRU list).
    snaps_.PruneBelow(both);
  }

  const NodeId id_;
  const int nodes_;
  EpochSnapshotCache<Pred> snaps_;
  Sink* sink_;

  SpscQueue<FlowMsg<R>>* left_in_;
  SpscQueue<FlowMsg<S>>* right_in_;
  StagedChannel<FlowMsg<R>> right_out_;  // disconnected on rightmost node
  StagedChannel<FlowMsg<S>> left_out_;   // disconnected on leftmost node

  RStore wr_;                // node-local R window
  SStore ws_;                // node-local S window
  SeqRing<Stamped<S>> iws_;  // S passed on to the left, not yet acked

  // Scratch buffers of the batch arrival paths (reused across steps).
  std::vector<Stamped<R>> probe_r_;
  std::vector<Stamped<S>> probe_s_;

 private:
  Engine& engine() { return static_cast<Engine&>(*this); }

  /// True while results wait behind the full result ring. An end node
  /// (`end`: no forward channel for this flow) defers only on its own
  /// executor thread. Under a sequential driver it consumes
  /// unconditionally and never waits on the collector.
  bool ResultsBacklogged(bool end) {
    if constexpr (requires(Sink* s) { s->DeferArrivals(); }) {
      return (!end || own_thread_) && sink_->DeferArrivals();
    }
    return false;
  }

  /// Consumes up to kMsgsPerStep left-input messages as bursts. Runs of
  /// consecutive arrivals are probed against the window in a single pass
  /// (batch-aware matching); control messages are handled one by one.
  /// Stops early at a backpressure-capped arrival run.
  std::size_t ProcessLeftBurst() {
    return DrainBurstBudgetBatched(
        left_in_, kMsgsPerStep, IsArrival<R>,
        [this](FlowMsg<R>* msgs, std::size_t run) {
          return engine().HandleLeftArrivals(msgs, run);
        },
        [this](FlowMsg<R>* msg) { return engine().HandleLeft(msg); });
  }

  /// Consumes up to kMsgsPerStep right-input messages as bursts.
  std::size_t ProcessRightBurst() {
    return DrainBurstBudgetBatched(
        right_in_, kMsgsPerStep, IsArrival<S>,
        [this](FlowMsg<S>* msgs, std::size_t run) {
          return engine().HandleRightArrivals(msgs, run);
        },
        [this](FlowMsg<S>* msg) { return engine().HandleRight(msg); });
  }

  template <typename Store>
  static Store MakeStore(const QueryEpochRegistry<Pred>* registry) {
    if constexpr (std::is_constructible_v<Store, const QuerySet<Pred>&>) {
      return Store(registry->Get(0)->set);
    } else {
      return Store();
    }
  }

  // Epoch punctuation bookkeeping: highest epoch arrived per input flow and
  // the highest marker already published (see OnEpochPunctuation).
  Epoch left_epoch_ = 0;
  Epoch right_epoch_ = 0;
  Epoch marker_epoch_ = 0;

  std::vector<FlowMsg<R>> ack_buf_;

  // Set by OnThreadStart: this node runs on its own executor thread, so its
  // end-of-flow arrivals may wait on the collector (ResultsBacklogged).
  bool own_thread_ = false;
};

}  // namespace sjoin
