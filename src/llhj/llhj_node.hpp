// One processing node of the low-latency handshake join — the paper's
// primary contribution (Section 4, Figures 12-14). Instead of queueing
// tuples along the distributed windows (the source of handshake join's
// O(window) latency), every tuple is *expedited*: forwarded to the next
// neighbour immediately on arrival, stored exactly once at its pre-assigned
// home node, and discarded when it falls off the far end.
//
// Matching follows Table 1 exactly:
//
//   state of (r, s) at crossing      evaluated where
//   -----------------------------    ------------------------------------
//   fresh/fresh                      while travelling (r scans IWS)
//   fresh r / stored s               at h_s (r scans the S store there)
//   stored r / fresh s               while travelling (r scans IWS)
//   stored/stored                    at h_s; s skips r's copy at h_r
//                                    because r's expedition flag is set
//   never met, r after s             at h_s (r scans the stored copy)
//   never met, s after r             at h_r (flag already cleared)
//
// Mechanisms:
//  * IWS  — fresh S tuples are held in the receiver's in-flight buffer
//    until the left neighbour acknowledges them (Section 4.2.2); R arrivals
//    scan it, which implements every "while travelling" row.
//  * Expedition flags + expedition-end messages (Section 4.2.3) — r's home
//    copy stays "expedited" until the end-of-pipeline marker for r returns;
//    S arrivals match only non-expedited entries. The marker is injected
//    into the S flow *at the moment r leaves the rightmost node* (processed
//    synchronously there), which pins it to exactly the right position in
//    the S-flow total order — see DESIGN.md, correctness refinement 1.
//  * Expiry tombstones — homes are a pure function of the sequence number,
//    so an expiry that overtakes its still-travelling tuple leaves a
//    tombstone at the home node and the arrival is then not stored
//    (refinement 2).
//  * High-water marks — the end nodes publish the timestamp of every tuple
//    completing its expedition, feeding punctuation generation (Section 6).
//  * Multi-query sharing — the node evaluates a whole QuerySet per window
//    crossing (one store traversal, N predicates, results tagged with the
//    matching QueryId), amortizing transport and window maintenance across
//    concurrent queries.
//  * Batch-aware matching — runs of consecutive arrivals are forwarded as
//    one channel burst and probed against the local store in a single pass
//    (entry-major for scan stores: each entry is loaded once and tested
//    against every probe of the run).
//  * Epoch-tagged query sets (DESIGN.md Section 10) — live AddQuery/
//    RemoveQuery installs a new epoch; the kEpochChange punctuation cascades
//    through both flows and every tuple carries its push epoch. A crossing
//    is evaluated under the snapshot of max(probe epoch, entry epoch) — the
//    epoch the later input was pushed under — which is deterministic under
//    any thread interleaving. Because LLHJ probes are always fresh arrivals
//    in driver-flow order, a node that has processed the punctuation of
//    epoch E on both flows can never emit a result of an earlier epoch
//    again; it publishes an epoch marker into its result queue at exactly
//    that point (retired-epoch draining).
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>

#include <span>
#include <type_traits>
#include <vector>

#include "common/flat_hash.hpp"
#include "common/seq_ring.hpp"
#include "common/types.hpp"
#include "llhj/home_policy.hpp"
#include "llhj/store.hpp"
#include "runtime/executor.hpp"
#include "runtime/spsc_queue.hpp"
#include "runtime/staged_channel.hpp"
#include "stream/hwm.hpp"
#include "stream/message.hpp"
#include "stream/query_set.hpp"
#include "stream/sink.hpp"

namespace sjoin {

/// Outbound slack required before consuming an arrival (forward + ack or
/// expedition-end + headroom).
inline constexpr std::size_t kLlhjArrivalSlack = 4;

template <typename R, typename S, typename Pred, typename Sink,
          typename RStore = VectorStore<R>, typename SStore = VectorStore<S>>
class LlhjNode : public Steppable {
 public:
  struct Config {
    NodeId id = 0;
    int nodes = 1;
    HomeAssigner home;  ///< the same map for R and S tuples
  };

  struct Counters {
    uint64_t r_processed = 0;
    uint64_t s_processed = 0;
    uint64_t tombstoned = 0;
    uint64_t anomalies = 0;  ///< must stay 0; checked by tests
  };

  /// `registry` holds one frozen QuerySet per epoch (epoch 0 = the set the
  /// pipeline started with). Within an epoch the hot path reads an
  /// immutable snapshot with no synchronization; the registry mutex is
  /// touched only when an epoch punctuation switches the active snapshot.
  /// A store type constructible from a QuerySet (BandStore) is built from
  /// the epoch-0 set.
  LlhjNode(const Config& config, const QueryEpochRegistry<Pred>* registry,
           Sink* sink,
           SpscQueue<FlowMsg<R>>* left_in, SpscQueue<FlowMsg<R>>* right_out,
           SpscQueue<FlowMsg<S>>* right_in, SpscQueue<FlowMsg<S>>* left_out,
           HighWaterMarks* hwm = nullptr)
      : config_(config),
        snaps_(registry),
        sink_(sink),
        left_in_(left_in),
        right_in_(right_in),
        right_out_(right_out),
        left_out_(left_out),
        hwm_(hwm),
        wr_(MakeStore<RStore>(registry)),
        ws_(MakeStore<SStore>(registry)) {}

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
    progress |= right_out_.Drain() | left_out_.Drain();
    return progress;
  }

  /// Messages consumed so far; safe to read from other threads (used for
  /// distributed quiescence detection).
  uint64_t processed_count() const {
    return processed_.load(std::memory_order_relaxed);
  }

  const Counters& counters() const { return counters_; }
  const RStore& r_store() const { return wr_; }
  const SStore& s_store() const { return ws_; }
  std::size_t inflight_s() const { return iws_.size(); }

 private:
  bool IsLeftmost() const { return config_.id == 0; }
  bool IsRightmost() const { return config_.id == config_.nodes - 1; }

  /// Bounded result staging (DESIGN.md Section 6): while results wait
  /// behind the full result ring, arrivals are deferred, so the stage holds
  /// at most one batch's results; control messages are still consumed. An
  /// end node (`end`: no forward channel for this flow) defers only on its
  /// own executor thread. Under a sequential driver it consumes
  /// unconditionally and never waits on the collector.
  bool ResultsBacklogged(bool end) {
    if constexpr (requires(Sink* s) { s->DeferArrivals(); }) {
      return (!end || own_thread_) && sink_->DeferArrivals();
    }
    return false;
  }

  /// Consumes up to kMsgsPerStep left-input messages as bursts. Runs of
  /// consecutive arrivals are probed against the store in a single pass
  /// (batch-aware matching); control messages are handled one by one.
  /// Stops early at a backpressure-capped arrival run.
  std::size_t ProcessLeftBurst() {
    return DrainBurstBudgetBatched(
        left_in_, kMsgsPerStep,
        IsArrival<R>,
        [this](FlowMsg<R>* msgs, std::size_t run) {
          return HandleLeftArrivals(msgs, run);
        },
        [this](FlowMsg<R>* msg) { return HandleLeft(msg); });
  }

  /// Consumes up to kMsgsPerStep right-input messages as bursts.
  std::size_t ProcessRightBurst() {
    return DrainBurstBudgetBatched(
        right_in_, kMsgsPerStep,
        IsArrival<S>,
        [this](FlowMsg<S>* msgs, std::size_t run) {
          return HandleRightArrivals(msgs, run);
        },
        [this](FlowMsg<S>* msg) { return HandleRight(msg); });
  }

  // -- Left input (Figure 13): R arrivals, acks of S, expiries of S. ---------

  /// Consumes a run of left-input R arrivals as one batch: one store
  /// traversal for all k probes (and all registered queries), a
  /// burst-forward, then per-tuple home bookkeeping in flow order. Returns the number
  /// consumed; less than `run` (possibly 0) when outbound backpressure caps
  /// the batch — the rest stays at the channel front.
  //
  // Backpressure gates only the *forward* direction; control outputs
  // (expedition-ends) stage locally. Gating both directions would close a
  // wait-for cycle between neighbours (deadlock at small channel
  // capacities); this way every wait chain between nodes ends at the
  // rightmost node, which waits on no flow channel (at most on the
  // collector, see ResultsBacklogged).
  std::size_t HandleLeftArrivals(FlowMsg<R>* msgs, std::size_t run) {
    if (ResultsBacklogged(IsRightmost())) return 0;
    std::size_t k = run;
    if (!IsRightmost()) {
      k = std::min(run, right_out_.ArrivalBudget(kLlhjArrivalSlack));
      if (k == 0) return 0;
    }
    // Fig 13 lines 5-6: the leftmost node assigns the home nodes.
    if (IsLeftmost()) {
      for (std::size_t j = 0; j < k; ++j) {
        msgs[j].home = config_.home.Of(msgs[j].seq);
      }
    }
    // Fig 13 line 8: match against stored copies and in-flight S — one
    // traversal for the whole batch. The probe runs before the expedition
    // (line 7) so that a completed expedition promises every result of the
    // tuple is queued (punctuations, DESIGN.md Section 4).
    probe_r_.clear();
    for (std::size_t j = 0; j < k; ++j) {
      probe_r_.push_back(Stamped<R>{msgs[j].payload, msgs[j].seq, msgs[j].ts,
                                    msgs[j].arrival_wall_ns, msgs[j].epoch});
    }
    ScanBatchAgainstS(probe_r_.data(), k);
    // Fig 13 line 7: expedite the whole run as one burst.
    if (!IsRightmost()) {
      right_out_.PushBurst(std::span<const FlowMsg<R>>(msgs, k));
    }
    // Fig 13 lines 9-12 per tuple, in flow order: store at the home node
    // (flagged expedited), then end the expedition at the rightmost node —
    // the marker is injected at exactly this position of the S flow.
    for (std::size_t j = 0; j < k; ++j) {
      const NodeId home = msgs[j].home;
      const Stamped<R>& r = probe_r_[j];
      if (home == config_.id) {
        if (!ConsumeTombstone(&tombstones_r_, r.seq)) {
          wr_.Insert(r, /*expedited=*/true);
        }
      }
      if (IsRightmost()) {
        if (home == config_.id) {
          wr_.ClearExpedited(r.seq);
        } else {
          FlowMsg<S> end;
          end.kind = MsgKind::kExpeditionEnd;
          end.seq = r.seq;
          end.home = home;
          left_out_.Push(end);
        }
      }
    }
    if (IsRightmost() && hwm_ != nullptr) {
      // Expeditions complete in FIFO order; publishing the last tuple of
      // the batch covers every earlier one.
      hwm_->Publish(StreamSide::kR, probe_r_[k - 1].ts, probe_r_[k - 1].seq);
    }
    counters_.r_processed += k;
    return k;
  }

  /// Processes one left-input *control* message in place (arrivals go
  /// through HandleLeftArrivals). Returns false iff deferred.
  bool HandleLeft(FlowMsg<R>* msg) {
    switch (msg->kind) {
      case MsgKind::kAck: {  // Fig 13 lines 13-14
        EraseIws(msg->seq);
        return true;
      }
      case MsgKind::kExpiry: {  // of an S tuple, travelling toward h_s
        Seq seq = msg->seq;
        NodeId home = msg->home;
        if (IsLeftmost()) home = config_.home.Of(seq);
        if (home == config_.id) {
          if (!ws_.EraseSeq(seq)) {
            tombstones_s_.Insert(seq);
            ++counters_.tombstoned;
          }
        } else {
          FlowMsg<R> fwd = *msg;
          fwd.home = home;
          fwd.hops = static_cast<uint16_t>(msg->hops + 1);
          right_out_.Push(fwd);
        }
        return true;
      }
      case MsgKind::kFlush: {
        // LLHJ matching is entirely arrival-driven; nothing is pending.
        return true;
      }
      case MsgKind::kEpochChange: {
        // Every pre-boundary R probe precedes this punctuation in the left
        // flow, so it can cascade immediately (contrast HsjNode, which must
        // hold it back for relocations).
        OnEpochPunctuation(/*left_flow=*/true, msg->epoch);
        if (!IsRightmost()) right_out_.Push(*msg);
        return true;
      }
      case MsgKind::kLossPunctuation: {
        // Shed-at-ingest loss bound (DESIGN.md Section 12): the shed tuples
        // never entered the pipeline, so nothing here references them —
        // republish the bound into the result queue at this in-band
        // position (exactly once: no cascade) and move on.
        sink_->Emit(MakeLossMark<R, S>(msg->ref_side, msg->seq,
                                       LossPunctCount(*msg), config_.id));
        return true;
      }
      // No default: the switch is deliberately exhaustive so adding a
      // MsgKind fails -Wswitch (enforced by tools/lint/sjoin_lint.py) —
      // kinds a control handler must never see are anomalies, not silently
      // swallowed.
      case MsgKind::kArrival:
      case MsgKind::kExpeditionEnd:
        ++counters_.anomalies;
        return true;
    }
    ++counters_.anomalies;  // out-of-range kind (corrupted message)
    return true;
  }

  // -- Right input (Figure 14): S arrivals, expedition-ends, expiries of R. --

  /// Consumes a run of right-input S arrivals as one batch; mirrors
  /// HandleLeftArrivals. Only the forward direction is gated; the
  /// acknowledgements stage if their channel is momentarily full.
  std::size_t HandleRightArrivals(FlowMsg<S>* msgs, std::size_t run) {
    if (ResultsBacklogged(IsLeftmost())) return 0;
    std::size_t k = run;
    if (!IsLeftmost()) {
      k = std::min(run, left_out_.ArrivalBudget(kLlhjArrivalSlack));
      if (k == 0) return 0;
    }
    // Fig 14 lines 5-6: the rightmost node assigns the home nodes.
    if (IsRightmost()) {
      for (std::size_t j = 0; j < k; ++j) {
        msgs[j].home = config_.home.Of(msgs[j].seq);
      }
    }
    // Fig 14 line 8: one traversal of the R store for the whole batch;
    // only non-expedited entries participate (stored/stored dedup). Probed
    // before the expedition, as in HandleLeftArrivals.
    probe_s_.clear();
    for (std::size_t j = 0; j < k; ++j) {
      probe_s_.push_back(Stamped<S>{msgs[j].payload, msgs[j].seq, msgs[j].ts,
                                    msgs[j].arrival_wall_ns, msgs[j].epoch});
    }
    ScanBatchAgainstR(probe_s_.data(), k);
    // Fig 14 line 7: expedite the whole run as one burst.
    if (!IsLeftmost()) {
      left_out_.PushBurst(std::span<const FlowMsg<S>>(msgs, k));
    }
    ack_buf_.clear();
    for (std::size_t j = 0; j < k; ++j) {
      const NodeId home = msgs[j].home;
      const Stamped<S>& s = probe_s_[j];
      // Fig 14 lines 9-10: fresh tuples stay virtually present until the
      // receiver acknowledges them (avoids stored/fresh misses). The
      // leftmost node has no receiver, so nothing to track there.
      if (config_.id > home && !IsLeftmost()) iws_.PushBack(s);

      // Fig 14 lines 11-12: store at the home node.
      if (home == config_.id) {
        if (!ConsumeTombstone(&tombstones_s_, s.seq)) {
          ws_.Insert(s, /*expedited=*/false);
        }
      }

      // Fig 14 line 13: acknowledge to the right-hand sender (the
      // rightmost node received s from the driver — nothing to ack).
      if (!IsRightmost()) {
        FlowMsg<R> ack;
        ack.kind = MsgKind::kAck;
        ack.ref_side = StreamSide::kS;
        ack.seq = s.seq;
        ack_buf_.push_back(ack);
      }
    }
    if (!ack_buf_.empty()) {
      right_out_.PushBurst(std::span<const FlowMsg<R>>(ack_buf_));
    }
    if (IsLeftmost() && hwm_ != nullptr) {
      hwm_->Publish(StreamSide::kS, probe_s_[k - 1].ts, probe_s_[k - 1].seq);
    }
    counters_.s_processed += k;
    return k;
  }

  /// Processes one right-input *control* message in place; see HandleLeft.
  bool HandleRight(FlowMsg<S>* msg) {
    switch (msg->kind) {
      case MsgKind::kExpeditionEnd: {  // Fig 14 lines 14-19
        if (msg->home == config_.id) {
          wr_.ClearExpedited(msg->seq);  // no-op if expired/tombstoned
        } else {
          left_out_.Push(*msg);
        }
        return true;
      }
      case MsgKind::kExpiry: {  // of an R tuple, travelling toward h_r
        Seq seq = msg->seq;
        NodeId home = msg->home;
        if (IsRightmost()) home = config_.home.Of(seq);
        if (home == config_.id) {
          if (!wr_.EraseSeq(seq)) {
            tombstones_r_.Insert(seq);
            ++counters_.tombstoned;
          }
        } else {
          FlowMsg<S> fwd = *msg;
          fwd.home = home;
          fwd.hops = static_cast<uint16_t>(msg->hops + 1);
          left_out_.Push(fwd);
        }
        return true;
      }
      case MsgKind::kFlush: {
        return true;
      }
      case MsgKind::kEpochChange: {
        OnEpochPunctuation(/*left_flow=*/false, msg->epoch);
        if (!IsLeftmost()) left_out_.Push(*msg);
        return true;
      }
      case MsgKind::kLossPunctuation: {
        // See HandleLeft: republish the bound, exactly once, no cascade.
        sink_->Emit(MakeLossMark<R, S>(msg->ref_side, msg->seq,
                                       LossPunctCount(*msg), config_.id));
        return true;
      }
      // No default (see HandleLeft): exhaustive so -Wswitch flags new kinds.
      case MsgKind::kArrival:
      case MsgKind::kAck:
        ++counters_.anomalies;
        return true;
    }
    ++counters_.anomalies;  // out-of-range kind (corrupted message)
    return true;
  }

  // -- Matching ----------------------------------------------------------------
  //
  // Every crossing pair is evaluated under the query-set snapshot of
  // max(probe epoch, entry epoch) — the epoch the later-pushed input
  // belongs to. The common case (no epoch change in flight) degenerates to
  // one epoch compare per batch plus one per emitted match.

  using Snapshot = QueryEpochSnapshot<Pred>;

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
    ResultMsg<R, S> m = MakeResult(r, s, config_.id);
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

  void ScanBatchAgainstS(const Stamped<R>* rs, std::size_t k) {
    // Probes of one run share their flow position but may straddle an
    // epoch boundary only in theory for LLHJ (the punctuation breaks runs);
    // the grouping loop costs one compare per batch and keeps the store
    // sweep single-epoch either way.
    ForEachEpochGroup(rs, k, [&](const Stamped<R>* g, std::size_t n) {
      ScanGroupAgainstS(g, n);
    });
  }

  void ScanGroupAgainstS(const Stamped<R>* rs, std::size_t k) {
    const Epoch pe = rs[0].epoch;
    const Snapshot* snap = SnapshotFor(pe);
    // Stored copies: each S tuple rests on exactly one node, so across the
    // whole pipeline each (pair, query) combination is evaluated once (at
    // h_s) — one store traversal covers all k probes and all queries, and
    // on scan stores with a SIMD mapping the sweep runs on the packed
    // compare kernels (store.hpp MatchBatch). Entries pushed under a LATER
    // epoch than the probe are skipped here (the per-match epoch check) and
    // re-swept below under their own snapshot.
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
    // In-flight fresh S tuples: the "while travelling" evaluations (the
    // IWS is a handful of entries — scalar evaluation, per-pair epoch).
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
    // Expedited entries are skipped at emission: matches are rare, so the
    // flag (and epoch) check costs per match, not per evaluation.
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
  /// monotone in flow order; outside an install this is one group and one
  /// compare).
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

  /// Records that the punctuation of `epoch` passed this node on one flow.
  /// Once BOTH flows have seen epoch E, every future probe here carries an
  /// epoch >= E (probes are flow-ordered), so no result of an epoch < E can
  /// be emitted again: publish the epoch marker into the result queue —
  /// the in-band signal the collector aggregates for retired-epoch
  /// draining.
  void OnEpochPunctuation(bool left_flow, Epoch epoch) {
    Epoch& side = left_flow ? left_epoch_ : right_epoch_;
    if (epoch > side) side = epoch;
    const Epoch both = std::min(left_epoch_, right_epoch_);
    while (marker_epoch_ < both) {
      ++marker_epoch_;
      ResultMsg<R, S> mark;
      mark.query = kEpochMarkQuery;
      mark.epoch = marker_epoch_;
      mark.origin = config_.id;
      sink_->Emit(mark);
    }
    // Snapshots below `both` can still be needed for max(probe, entry)
    // lookups only via probes >= both, so pruning the cache is safe (the
    // registry keeps every epoch; this only trims the MRU list).
    snaps_.PruneBelow(both);
  }

  // -- Helpers -----------------------------------------------------------------

  template <typename Store>
  static Store MakeStore(const QueryEpochRegistry<Pred>* registry) {
    if constexpr (std::is_constructible_v<Store, const QuerySet<Pred>&>) {
      return Store(registry->Get(0)->set);
    } else {
      return Store();
    }
  }

  static bool ConsumeTombstone(FlatSet<Seq>* tombs, Seq seq) {
    return tombs->Erase(seq);
  }

  bool EraseIws(Seq seq) { return iws_.Erase(seq); }

  Config config_;
  EpochSnapshotCache<Pred> snaps_;
  Sink* sink_;

  SpscQueue<FlowMsg<R>>* left_in_;
  SpscQueue<FlowMsg<S>>* right_in_;
  StagedChannel<FlowMsg<R>> right_out_;  // disconnected on rightmost node
  StagedChannel<FlowMsg<S>> left_out_;   // disconnected on leftmost node

  // Epoch punctuation bookkeeping: highest epoch seen per input flow and
  // the highest marker already published (see OnEpochPunctuation).
  Epoch left_epoch_ = 0;
  Epoch right_epoch_ = 0;
  Epoch marker_epoch_ = 0;

  HighWaterMarks* hwm_;

  RStore wr_;               // node-local R window (with expedition flags)
  SStore ws_;               // node-local S window
  SeqRing<Stamped<S>> iws_;  // fresh S received, not yet acked from left

  FlatSet<Seq> tombstones_r_;
  FlatSet<Seq> tombstones_s_;

  // Scratch buffers of the batch arrival paths (reused across steps).
  std::vector<Stamped<R>> probe_r_;
  std::vector<Stamped<S>> probe_s_;
  std::vector<FlowMsg<R>> ack_buf_;

  Counters counters_;
  // Set by OnThreadStart: this node runs on its own executor thread, so its
  // end-of-flow arrivals may wait on the collector (ResultsBacklogged).
  bool own_thread_ = false;
  std::atomic<uint64_t> processed_{0};
};

}  // namespace sjoin
