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

#include <cstdint>
#include <span>

#include "common/flat_hash.hpp"
#include "common/types.hpp"
#include "llhj/home_policy.hpp"
#include "llhj/store.hpp"
#include "runtime/spsc_queue.hpp"
#include "stream/hwm.hpp"
#include "stream/message.hpp"
#include "stream/node_chassis.hpp"
#include "stream/query_set.hpp"

namespace sjoin {

template <typename R, typename S, typename Pred, typename Sink,
          typename RStore = VectorStore<R>, typename SStore = VectorStore<S>>
class LlhjNode
    : public NodeChassis<LlhjNode<R, S, Pred, Sink, RStore, SStore>, R, S,
                         Pred, Sink, RStore, SStore> {
  using Chassis = NodeChassis<LlhjNode, R, S, Pred, Sink, RStore, SStore>;
  friend Chassis;

 public:
  struct Config {
    NodeId id = 0;
    int nodes = 1;
    HomeAssigner home;  ///< the same map for R and S tuples
  };

  /// See NodeChassis for `registry` and the channels. `hwm` receives the
  /// completed expeditions of the end nodes (may be null).
  LlhjNode(const Config& config, const QueryEpochRegistry<Pred>* registry,
           Sink* sink,
           SpscQueue<FlowMsg<R>>* left_in, SpscQueue<FlowMsg<R>>* right_out,
           SpscQueue<FlowMsg<S>>* right_in, SpscQueue<FlowMsg<S>>* left_out,
           HighWaterMarks* hwm = nullptr)
      : Chassis(config.id, config.nodes, registry, sink, left_in, right_out,
                right_in, left_out),
        home_(config.home),
        hwm_(hwm) {}

 private:
  using Chassis::id_, Chassis::counters_, Chassis::right_out_,
      Chassis::left_out_, Chassis::wr_, Chassis::ws_, Chassis::iws_,
      Chassis::probe_r_, Chassis::probe_s_, Chassis::IsLeftmost,
      Chassis::IsRightmost;

  // -- Left input (Figure 13): R arrivals, acks of S, expiries of S. ---------

  /// Consumes a run of left-input R arrivals as one batch: one store
  /// traversal for all k probes (and all registered queries), a
  /// burst-forward, then per-tuple home bookkeeping in flow order. Returns
  /// the number consumed; less than `run` (possibly 0) when backpressure
  /// caps the batch — the rest stays at the channel front.
  std::size_t HandleLeftArrivals(FlowMsg<R>* msgs, std::size_t run) {
    const std::size_t k = this->ArrivalBudget(run, IsRightmost(), right_out_);
    if (k == 0) return 0;
    // Fig 13 lines 5-6: the leftmost node assigns the home nodes.
    if (IsLeftmost()) {
      for (std::size_t j = 0; j < k; ++j) {
        msgs[j].home = home_.Of(msgs[j].seq);
      }
    }
    // Fig 13 line 8: match against stored copies and in-flight S — one
    // traversal for the whole batch. The probe runs before the expedition
    // (line 7) so that a completed expedition promises every result of the
    // tuple is queued (punctuations, DESIGN.md Section 4). Each S tuple
    // rests on exactly one node, so across the pipeline each (pair, query)
    // combination is evaluated once (at h_s).
    this->StampProbes(msgs, k, &probe_r_);
    this->ScanBatchAgainstS(probe_r_.data(), k);
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
      if (home == id_) {
        if (!tombstones_r_.Erase(r.seq)) wr_.Insert(r, /*expedited=*/true);
      }
      if (IsRightmost()) {
        if (home == id_) {
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
    return k;
  }

  /// Processes one left-input *control* message in place (arrivals go
  /// through HandleLeftArrivals). Returns false iff deferred.
  bool HandleLeft(FlowMsg<R>* msg) {
    switch (msg->kind) {
      case MsgKind::kAck: {  // Fig 13 lines 13-14
        iws_.Erase(msg->seq);
        return true;
      }
      case MsgKind::kExpiry: {  // of an S tuple, travelling toward h_s
        Expire(msg, IsLeftmost(), &ws_, &tombstones_s_, right_out_);
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
        this->OnEpochPunctuation(/*left_flow=*/true, msg->epoch);
        if (!IsRightmost()) right_out_.Push(*msg);
        return true;
      }
      case MsgKind::kLossPunctuation: {
        this->EmitLossMark(*msg);
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
  /// HandleLeftArrivals. The acknowledgements stage if their channel is
  /// momentarily full.
  std::size_t HandleRightArrivals(FlowMsg<S>* msgs, std::size_t run) {
    const std::size_t k = this->ArrivalBudget(run, IsLeftmost(), left_out_);
    if (k == 0) return 0;
    // Fig 14 lines 5-6: the rightmost node assigns the home nodes.
    if (IsRightmost()) {
      for (std::size_t j = 0; j < k; ++j) {
        msgs[j].home = home_.Of(msgs[j].seq);
      }
    }
    // Fig 14 line 8: one traversal of the R store for the whole batch;
    // only non-expedited entries participate (stored/stored dedup). Probed
    // before the expedition, as in HandleLeftArrivals.
    this->StampProbes(msgs, k, &probe_s_);
    this->ScanBatchAgainstR(probe_s_.data(), k);
    // Fig 14 line 7: expedite the whole run as one burst.
    if (!IsLeftmost()) {
      left_out_.PushBurst(std::span<const FlowMsg<S>>(msgs, k));
    }
    for (std::size_t j = 0; j < k; ++j) {
      const NodeId home = msgs[j].home;
      const Stamped<S>& s = probe_s_[j];
      // Fig 14 lines 9-10: fresh tuples stay virtually present until the
      // receiver acknowledges them (avoids stored/fresh misses). The
      // leftmost node has no receiver, so nothing to track there.
      if (id_ > home && !IsLeftmost()) iws_.PushBack(s);

      // Fig 14 lines 11-12: store at the home node.
      if (home == id_) {
        if (!tombstones_s_.Erase(s.seq)) ws_.Insert(s, /*expedited=*/false);
      }
    }
    // Fig 14 line 13: acknowledge to the right-hand sender.
    this->AckS(probe_s_.data(), k);
    if (IsLeftmost() && hwm_ != nullptr) {
      hwm_->Publish(StreamSide::kS, probe_s_[k - 1].ts, probe_s_[k - 1].seq);
    }
    return k;
  }

  /// Processes one right-input *control* message in place; see HandleLeft.
  bool HandleRight(FlowMsg<S>* msg) {
    switch (msg->kind) {
      case MsgKind::kExpeditionEnd: {  // Fig 14 lines 14-19
        if (msg->home == id_) {
          wr_.ClearExpedited(msg->seq);  // no-op if expired/tombstoned
        } else {
          left_out_.Push(*msg);
        }
        return true;
      }
      case MsgKind::kExpiry: {  // of an R tuple, travelling toward h_r
        Expire(msg, IsRightmost(), &wr_, &tombstones_r_, left_out_);
        return true;
      }
      case MsgKind::kFlush: {
        return true;
      }
      case MsgKind::kEpochChange: {
        this->OnEpochPunctuation(/*left_flow=*/false, msg->epoch);
        if (!IsLeftmost()) left_out_.Push(*msg);
        return true;
      }
      case MsgKind::kLossPunctuation: {
        this->EmitLossMark(*msg);
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

  /// An expiry travelling toward its tuple's home. The flow's entry node
  /// (`entry`) assigns the home; at the home the stored copy is erased, or
  /// a tombstone is left when the expiry overtook its still-travelling
  /// tuple (refinement 2); elsewhere it is passed on through `out`.
  template <typename T, typename Store>
  void Expire(const FlowMsg<T>* msg, bool entry, Store* store,
              FlatSet<Seq>* tombstones, StagedChannel<FlowMsg<T>>& out) {
    const Seq seq = msg->seq;
    const NodeId home = entry ? home_.Of(seq) : msg->home;
    if (home == id_) {
      if (!store->EraseSeq(seq)) {
        tombstones->Insert(seq);
        ++counters_.tombstoned;
      }
    } else {
      FlowMsg<T> fwd = *msg;
      fwd.home = home;
      fwd.hops = static_cast<uint16_t>(msg->hops + 1);
      out.Push(fwd);
    }
  }

  HomeAssigner home_;
  HighWaterMarks* hwm_;

  FlatSet<Seq> tombstones_r_;
  FlatSet<Seq> tombstones_s_;
};

}  // namespace sjoin
