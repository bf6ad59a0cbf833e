// One processing node of the *original* handshake join (Teubner & Mueller,
// SIGMOD 2011 — paper [20], summarized in Section 2.3). Each node owns a
// segment of both windows; R tuples enter on the left and relocate rightward
// when the local segment exceeds its share, S tuples mirror that leftward.
// A tuple scans the local opposite segment on every arrival (fresh or
// relocated); since both streams move monotonically in opposite directions,
// every window-compatible pair crosses — and is evaluated — exactly once.
// Latency is the price: a tuple reaches distant segments only as new input
// pushes it along, so pairs wait O(window) before meeting (Section 3).
//
// Protocol details implemented here:
//  * One-sided acknowledgements (Section 4.2.2): a forwarded S tuple stays
//    in the sender's in-flight buffer IWS until the receiver acknowledges
//    it; R arrivals scan IWS in addition to WS, which catches pairs that
//    cross "in flight" between two neighbours.
//  * Expiry messages enter at the stream's old end and hunt the resident
//    copy. If the copy is relocating concurrently, the expiry *chases* it:
//    each side's tuples pass every node in seq order, so comparing the
//    target seq with the highest seq this node received and passed on
//    tells which direction the tuple went; FIFO channel order guarantees
//    the chase terminates (DESIGN.md, correctness refinement 2).
//  * Expiry horizons: an expiry carries the opposite stream's next seq at
//    the moment the driver issued it. A node the expiry passes without
//    finding its tuple remembers (seq, horizon): no pair of the tuple with
//    a partner at or above the horizon — pushed after the expiry — is
//    emitted here, a tuple still to come through does not rest here, and
//    an in-flight IWS copy keeps meeting older partners until its ack
//    (DESIGN.md Section 4, "HSJ expiry horizon").
//  * Flush messages (end-of-stream support for finite traces): force all
//    resident tuples to relocate to the pipeline end so pairs still
//    separated inside the pipeline meet. Flushes cascade in FIFO order.
//  * Backpressure discipline: arrivals are consumed only when the outbound
//    channels have slack and no results wait behind a full result ring;
//    control messages are always consumed and their outputs stage locally
//    (see runtime/staged_channel.hpp and DESIGN.md Section 6).
//  * Epoch-tagged query sets (DESIGN.md Section 10): crossings are
//    evaluated under the snapshot of max(probe epoch, entry epoch). Unlike
//    LLHJ, old-epoch tuples keep arriving as *relocations* long after the
//    kEpochChange punctuation was pushed, so a node must HOLD the
//    punctuation until its own segment has no pre-boundary tuple left
//    (relocations leave oldest-first, so the punctuation then trails every
//    old tuple on the channel — FIFO guarantees the downstream node sees no
//    old probe after it). A node's own epoch marker is emitted when the
//    punctuation has ARRIVED on both flows: at that point the upstream
//    neighbours have promised no further old probes, so no result of an
//    earlier epoch can be produced here again. Retired-epoch drain latency
//    is therefore O(window) for HSJ — the same latency its results have.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "llhj/store.hpp"
#include "runtime/cacheline.hpp"
#include "runtime/spsc_queue.hpp"
#include "stream/message.hpp"
#include "stream/node_chassis.hpp"
#include "stream/query_set.hpp"

namespace sjoin {

template <typename R, typename S, typename Pred, typename Sink>
class HsjNode : public NodeChassis<HsjNode<R, S, Pred, Sink>, R, S, Pred,
                                   Sink, VectorStore<R>, VectorStore<S>> {
  using Chassis =
      NodeChassis<HsjNode, R, S, Pred, Sink, VectorStore<R>, VectorStore<S>>;
  friend Chassis;

 public:
  struct Config {
    NodeId id = 0;
    int nodes = 1;
    /// Relocation policy. 0 (default) = *self-balancing*, the original
    /// algorithm's behaviour: a node forwards its oldest tuple whenever its
    /// segment exceeds the next neighbour's by more than one, so segments
    /// track the live window dynamically and tuple position stays
    /// proportional to age (a tuple reaches the far end just as it
    /// expires, which is what guarantees every pair crosses in time).
    /// A positive value switches to a static per-segment capacity; it must
    /// then be <= live-window/nodes or latent pairs expire unmet.
    /// The end node of each stream never relocates.
    int64_t segment_capacity_r = 0;
    int64_t segment_capacity_s = 0;
  };

  /// See NodeChassis for `registry` and the channels; the segments ride on
  /// the same ring store as the LLHJ windows (SoA key lanes included), so
  /// HSJ scans share the SIMD probe path.
  HsjNode(const Config& config, const QueryEpochRegistry<Pred>* registry,
          Sink* sink,
          SpscQueue<FlowMsg<R>>* left_in, SpscQueue<FlowMsg<R>>* right_out,
          SpscQueue<FlowMsg<S>>* right_in, SpscQueue<FlowMsg<S>>* left_out)
      : Chassis(config.id, config.nodes, registry, sink, left_in, right_out,
                right_in, left_out),
        capacity_r_(config.segment_capacity_r),
        capacity_s_(config.segment_capacity_s) {}

  std::size_t resident_r() const { return wr_.size(); }
  std::size_t resident_s() const { return ws_.size(); }

  /// Published segment sizes for neighbour self-balancing (thread-safe).
  const std::atomic<std::size_t>& published_r_size() const {
    return r_size_pub_.value;
  }
  const std::atomic<std::size_t>& published_s_size() const {
    return s_size_pub_.value;
  }

  /// Wires the neighbour segment sizes the balancing rule compares against
  /// (right neighbour's R segment, left neighbour's S segment). Called by
  /// the pipeline after all nodes are constructed.
  void SetNeighborSizes(const std::atomic<std::size_t>* right_r,
                        const std::atomic<std::size_t>* left_s) {
    neighbor_r_size_ = right_r;
    neighbor_s_size_ = left_s;
  }

 private:
  using Chassis::counters_, Chassis::right_out_, Chassis::left_out_,
      Chassis::wr_, Chassis::ws_, Chassis::iws_, Chassis::probe_r_,
      Chassis::probe_s_, Chassis::IsLeftmost, Chassis::IsRightmost;

  /// Step after the bursts: retry relocations deferred by a momentarily
  /// full channel, and any rebalancing triggered by neighbour size changes;
  /// then release epoch punctuations held back for pre-boundary residents
  /// (residents relocated or expired above).
  bool AfterBursts() {
    bool progress = RelocateROverflow();
    progress |= RelocateSOverflow();
    PublishSizes();
    progress |= ReleaseEpochPuncts();
    return progress;
  }

  // -- Left input: R arrivals/relocations, acks of S, expiries, R flushes. --

  /// Consumes a run of left-input R arrivals (fresh, relocated or dying) as
  /// one batch: one scan of the local S segment (and in-flight buffer) for
  /// all k probes, then the per-tuple rest/forward bookkeeping in flow
  /// order. Returns the number consumed; fewer than `run` when
  /// backpressure caps the batch.
  std::size_t HandleLeftArrivals(FlowMsg<R>* msgs, std::size_t run) {
    const std::size_t k = this->ArrivalBudget(run, IsRightmost(), right_out_);
    if (k == 0) return 0;  // backpressure: retry once downstream drains
    this->StampProbes(msgs, k, &probe_r_);
    this->ScanBatchAgainstS(probe_r_.data(), k);
    for (std::size_t j = 0; j < k; ++j) {
      const Seq seq = probe_r_[j].seq;
      next_r_in_ = std::max(next_r_in_, seq + 1);
      Kill* kill = FindKill(StreamSide::kR, seq);
      const bool dying = (msgs[j].flags & kMsgDying) != 0;
      if (dying || kill != nullptr) {
        // Expired mid-traversal (or its expiry already passed here): keep
        // travelling (scanning) but never rest again; discarded at the
        // rightmost node.
        if (!IsRightmost()) {
          FlowMsg<R> fwd = MakeArrival(probe_r_[j]);
          fwd.flags |= kMsgRelocated | kMsgDying;
          ForwardR(fwd);
        }
        if (kill != nullptr && dying) {
          EraseKill(StreamSide::kR, seq);  // its expiry ended the chase
        } else if (kill != nullptr) {
          kill->landed = true;  // its expiry is still chasing: wait for it
          kill->acked = true;   // R keeps no in-flight copy
        }
      } else {
        wr_.Insert(probe_r_[j], /*expedited=*/false);
      }
      PrunePendingKills(StreamSide::kR, seq);
    }
    RelocateROverflow();
    return k;
  }

  /// Processes one left-input *control* message in place (arrivals go
  /// through HandleLeftArrivals). Returns false iff deferred.
  bool HandleLeft(FlowMsg<R>* msg) {
    switch (msg->kind) {
      case MsgKind::kAck: {
        iws_.Erase(msg->seq);
        if (Kill* kill = FindKill(StreamSide::kS, msg->seq)) {
          kill->acked = true;
          if (kill->chased) EraseKill(StreamSide::kS, msg->seq);
        }
        return true;
      }
      case MsgKind::kExpiry: {
        HandleExpiry(*msg);
        return true;
      }
      case MsgKind::kFlush: {
        FlushR();
        return true;
      }
      case MsgKind::kEpochChange: {
        // Arrival on the left flow: upstream promises no more pre-boundary
        // R probes. Cascade is deferred until our own R segment holds no
        // pre-boundary tuple (see ReleaseEpochPuncts).
        this->OnEpochPunctuation(/*left_flow=*/true, msg->epoch);
        if (!IsRightmost()) pending_epoch_r_.push_back(msg->epoch);
        ReleaseEpochPuncts();
        return true;
      }
      case MsgKind::kLossPunctuation: {
        // Unlike kEpochChange there is nothing to hold the punctuation for:
        // no segment holds a shed tuple and no expiry chases one.
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

  // -- Right input: S arrivals/relocations, expiries, S flushes. ------------

  /// Consumes a run of right-input S arrivals as one batch; mirrors
  /// HandleLeftArrivals. Acknowledgements stage when their channel is
  /// momentarily full.
  std::size_t HandleRightArrivals(FlowMsg<S>* msgs, std::size_t run) {
    const std::size_t k = this->ArrivalBudget(run, IsLeftmost(), left_out_);
    if (k == 0) return 0;
    this->StampProbes(msgs, k, &probe_s_);
    this->ScanBatchAgainstR(probe_s_.data(), k);
    bool rested = false;
    for (std::size_t j = 0; j < k; ++j) {
      const Stamped<S>& s = probe_s_[j];
      next_s_in_ = std::max(next_s_in_, s.seq + 1);
      Kill* kill = FindKill(StreamSide::kS, s.seq);
      const bool dying = (msgs[j].flags & kMsgDying) != 0;
      if (dying || kill != nullptr) {
        if (!IsLeftmost()) {
          FlowMsg<S> fwd = MakeArrival(s);
          fwd.flags |= kMsgRelocated | kMsgDying;
          ForwardS(fwd);
          // Ack protocol still applies: the dying tuple stays virtually
          // present until the receiver confirms, so in-flight crossings
          // with R arrivals are detected.
          iws_.PushBack(s);
        }
        if (kill != nullptr) {
          // The horizon must keep filtering the in-flight copy until the
          // ack; a dying traveller's expiry has already ended its chase.
          kill->landed = true;
          kill->chased |= dying;
          kill->acked = IsLeftmost();
          if (kill->chased && kill->acked) EraseKill(StreamSide::kS, s.seq);
        }
      } else {
        ws_.Insert(s, /*expedited=*/false);
        rested = true;
      }
    }
    this->AckS(probe_s_.data(), k);
    PrunePendingKills(StreamSide::kS, probe_s_[k - 1].seq);
    if (rested) RelocateSOverflow();
    return k;
  }

  /// Processes one right-input *control* message in place; see HandleLeft.
  bool HandleRight(FlowMsg<S>* msg) {
    switch (msg->kind) {
      case MsgKind::kExpiry: {
        HandleExpiry(*msg);
        return true;
      }
      case MsgKind::kFlush: {
        FlushS();
        return true;
      }
      case MsgKind::kEpochChange: {
        this->OnEpochPunctuation(/*left_flow=*/false, msg->epoch);
        if (!IsLeftmost()) pending_epoch_s_.push_back(msg->epoch);
        ReleaseEpochPuncts();
        return true;
      }
      case MsgKind::kLossPunctuation: {
        this->EmitLossMark(*msg);
        return true;
      }
      // No default (see HandleLeft): exhaustive so -Wswitch flags new kinds.
      case MsgKind::kArrival:
      case MsgKind::kAck:
      case MsgKind::kExpeditionEnd:
        ++counters_.anomalies;
        return true;
    }
    ++counters_.anomalies;  // out-of-range kind (corrupted message)
    return true;
  }

  /// The emission filter (NodeChassis::EmitResult): no pair whose one tuple
  /// expired before the other was pushed.
  bool Admits(const Stamped<R>& r, const Stamped<S>& s) const {
    return (kills_r_.empty() && kills_s_.empty()) || !CrossedAfterExpiry(r, s);
  }

  // -- Epoch punctuations ------------------------------------------------------

  /// Cascades held punctuations onward once the local segment holds no
  /// pre-boundary tuple of that stream. Relocations leave oldest-first and
  /// segment epochs are monotone (front = oldest), so checking the FRONT
  /// entry suffices; once released, the punctuation trails every old tuple
  /// on the channel and the FIFO order extends the no-old-probes promise to
  /// the downstream neighbour. Old tuples leave by relocation, expiry or
  /// flush, so with a live stream the release lag is O(window) — exactly
  /// HSJ's result latency.
  bool ReleaseEpochPuncts() {
    bool progress = false;
    while (!pending_epoch_r_.empty() &&
           (wr_.size() == 0 ||
            wr_.Front().tuple.epoch >= pending_epoch_r_.front())) {
      FlowMsg<R> punct;
      punct.kind = MsgKind::kEpochChange;
      punct.epoch = pending_epoch_r_.front();
      right_out_.Push(punct);
      pending_epoch_r_.erase(pending_epoch_r_.begin());
      progress = true;
    }
    while (!pending_epoch_s_.empty() &&
           (ws_.size() == 0 ||
            ws_.Front().tuple.epoch >= pending_epoch_s_.front())) {
      FlowMsg<S> punct;
      punct.kind = MsgKind::kEpochChange;
      punct.epoch = pending_epoch_s_.front();
      left_out_.Push(punct);
      pending_epoch_s_.erase(pending_epoch_s_.begin());
      progress = true;
    }
    return progress;
  }

  // -- Relocation (the "handshake" movement) ---------------------------------

  /// True when a segment of `size` tuples passes its oldest on: above its
  /// static `capacity`, or (self-balancing, capacity 0) more than one tuple
  /// above the next neighbour's segment.
  static bool Overfull(std::size_t size, int64_t capacity,
                       const std::atomic<std::size_t>* neighbor) {
    if (capacity > 0) return static_cast<int64_t>(size) > capacity;
    const std::size_t next =
        neighbor == nullptr ? 0 : neighbor->load(std::memory_order_relaxed);
    return size > next + 1;
  }

  bool RelocateROverflow() {
    if (IsRightmost()) return false;
    bool progress = false;
    while (wr_.size() > 0 && Overfull(wr_.size(), capacity_r_, neighbor_r_size_) &&
           right_out_.Available(1)) {
      ForwardOldestR();
      progress = true;
    }
    PublishSizes();
    return progress;
  }

  void ForwardOldestR() {
    FlowMsg<R> msg = MakeArrival(wr_.Front().tuple);
    msg.flags |= kMsgRelocated;
    ForwardR(msg);
    wr_.PopFront();
    ++counters_.relocated_r;
  }

  bool RelocateSOverflow() {
    if (IsLeftmost()) return false;
    bool progress = false;
    while (ws_.size() > 0 && Overfull(ws_.size(), capacity_s_, neighbor_s_size_) &&
           left_out_.Available(1)) {
      ForwardOldestS();
      progress = true;
    }
    PublishSizes();
    return progress;
  }

  void PublishSizes() {
    r_size_pub_.value.store(wr_.size(), std::memory_order_relaxed);
    s_size_pub_.value.store(ws_.size(), std::memory_order_relaxed);
  }

  void ForwardOldestS() {
    const Stamped<S> oldest = ws_.Front().tuple;
    FlowMsg<S> msg = MakeArrival(oldest);
    msg.flags |= kMsgRelocated;
    ForwardS(msg);
    // The tuple stays virtually present (IWS) until the receiver acks.
    iws_.PushBack(oldest);
    ws_.PopFront();
    ++counters_.relocated_s;
  }

  // -- Flush ------------------------------------------------------------------

  void FlushR() {
    if (IsRightmost()) return;  // resident tuples here crossed everything
    while (wr_.size() > 0) ForwardOldestR();
    FlowMsg<R> flush;
    flush.kind = MsgKind::kFlush;
    right_out_.Push(flush);
  }

  void FlushS() {
    if (IsLeftmost()) return;
    while (ws_.size() > 0) ForwardOldestS();
    FlowMsg<S> flush;
    flush.kind = MsgKind::kFlush;
    left_out_.Push(flush);
  }

  // -- Expiries with chase ----------------------------------------------------

  template <typename T>
  void HandleExpiry(const FlowMsg<T>& msg) {
    const StreamSide side = msg.ref_side;
    const Seq seq = msg.seq;
    const Seq horizon = ExpiryHorizon(msg);
    if (Kill* kill = FindKill(side, seq); kill != nullptr && kill->landed) {
      // The tuple came through here after this expiry passed and left as a
      // dying traveller: the chase is over.
      kill->chased = true;
      if (kill->acked) EraseKill(side, seq);
      return;
    }
    if (side == StreamSide::kS) {
      Stamped<S> victim;
      if (ws_.TakeSeq(seq, &victim)) {
        // Caught before finishing its traversal: continue as a dying
        // traveller so partners that arrived before this expiry (resting
        // further down the pipeline) are still met exactly once.
        if (!IsLeftmost()) {
          FlowMsg<S> fwd = MakeArrival(victim);
          fwd.flags |= kMsgRelocated | kMsgDying;
          ForwardS(fwd);
          iws_.PushBack(victim);
          NoteInFlightKill(seq, horizon);
        }
        return;
      }
      // An in-flight copy stays until its ack: R arrivals pushed before
      // this expiry may still cross it, while the horizon keeps those
      // pushed after it from matching. The resident copy will materialize
      // at the neighbour.
      if (iws_.Contains(seq)) NoteInFlightKill(seq, horizon);
      ForwardExpiry(msg, ChaseDirection(side, seq), horizon);
      return;
    }
    Stamped<R> victim;
    if (wr_.TakeSeq(seq, &victim)) {
      if (!IsRightmost()) {
        FlowMsg<R> fwd = MakeArrival(victim);
        fwd.flags |= kMsgRelocated | kMsgDying;
        ForwardR(fwd);
      }
      return;
    }
    ForwardExpiry(msg, ChaseDirection(side, seq), horizon);
  }

  /// Direction of a tuple that is not resident here: -1 = left, +1 =
  /// right, 0 = gone (DESIGN.md Section 4). Each side's tuples reach and
  /// leave every node in seq order (R rightward, S leftward), so a tuple
  /// at or below the highest seq passed on is downstream, one above the
  /// highest seq received is still upstream, and anything between was
  /// expired here already.
  int ChaseDirection(StreamSide side, Seq seq) const {
    if (side == StreamSide::kR) {
      if (seq < next_r_out_) return +1;
      return seq < next_r_in_ ? 0 : -1;
    }
    if (seq < next_s_out_) return -1;
    return seq < next_s_in_ ? 0 : +1;
  }

  /// Passes an R tuple (relocated or dying) on to the right neighbour.
  void ForwardR(const FlowMsg<R>& msg) {
    next_r_out_ = std::max(next_r_out_, msg.seq + 1);
    right_out_.Push(msg);
  }

  /// Passes an S tuple (relocated or dying) on to the left neighbour.
  void ForwardS(const FlowMsg<S>& msg) {
    next_s_out_ = std::max(next_s_out_, msg.seq + 1);
    left_out_.Push(msg);
  }

  /// Sends a chasing expiry on toward `dir` (0: the tuple is already gone).
  /// When the tuple is still upstream it has to come through this node, so
  /// the expiry is remembered here.
  template <typename T>
  void ForwardExpiry(const FlowMsg<T>& expiry, int dir, Seq horizon) {
    if (dir == 0) return;
    // Hop budget of a chase before it is declared an anomaly.
    if (expiry.hops >= 16 * this->nodes_ + 64) {
      ++counters_.anomalies;
      return;
    }
    if ((dir > 0 && IsRightmost()) || (dir < 0 && IsLeftmost())) {
      // Nothing beyond the pipeline end; the FIFO argument makes this
      // unreachable.
      ++counters_.anomalies;
      return;
    }
    const bool upstream =
        expiry.ref_side == StreamSide::kR ? dir < 0 : dir > 0;
    if (upstream) NoteKill(expiry.ref_side, Kill{expiry.seq, horizon});
    if (dir > 0) {
      right_out_.Push(ChaseMsg<R>(expiry, horizon));
    } else {
      left_out_.Push(ChaseMsg<S>(expiry, horizon));
    }
  }

  template <typename To, typename From>
  static FlowMsg<To> ChaseMsg(const FlowMsg<From>& expiry, Seq horizon) {
    FlowMsg<To> msg;
    msg.kind = MsgKind::kExpiry;
    msg.ref_side = expiry.ref_side;
    msg.seq = expiry.seq;
    msg.ts = expiry.ts;
    msg.hops = static_cast<uint16_t>(expiry.hops + 1);
    if (horizon != kNoExpiryHorizon) SetExpiryHorizon(&msg, horizon);
    return msg;
  }

  // -- Expiry horizons (DESIGN.md Section 4) ---------------------------------

  /// An expiry that passed this node without finding its tuple.
  struct Kill {
    Seq seq = 0;
    Seq horizon = kNoExpiryHorizon;  ///< first opposite seq pushed after it
    bool landed = false;  ///< the tuple came through here since
    bool chased = false;  ///< the expiry's chase has ended
    bool acked = false;   ///< no in-flight copy of the tuple remains here
  };

  std::vector<Kill>& Kills(StreamSide side) {
    return side == StreamSide::kR ? kills_r_ : kills_s_;
  }

  Kill* FindKill(StreamSide side, Seq seq) {
    for (Kill& kill : Kills(side)) {
      if (kill.seq == seq) return &kill;
    }
    return nullptr;
  }

  /// Remembers an expiry until its tuple has come through and its chase
  /// and in-flight copy are done. No entry is ever dropped early: a
  /// forgotten entry would let the tuple meet partners pushed after its
  /// expiry. The lists stay short without a cap, since an entry waits only
  /// for a tuple that is still upstream (in a channel or an upstream
  /// segment) or for one ack.
  void NoteKill(StreamSide side, const Kill& kill) {
    if (FindKill(side, kill.seq) != nullptr) return;  // a bounce revisiting
    Kills(side).push_back(kill);
  }

  /// S only: the expired tuple's in-flight (IWS) copy is still here while
  /// the chase moves on; the entry retires with the copy's ack.
  void NoteInFlightKill(Seq seq, Seq horizon) {
    NoteKill(StreamSide::kS, Kill{seq, horizon, /*landed=*/true,
                                  /*chased=*/true});
  }

  void EraseKill(StreamSide side, Seq seq) {
    std::vector<Kill>& kills = Kills(side);
    for (std::size_t i = 0; i < kills.size(); ++i) {
      if (kills[i].seq == seq) {
        kills.erase(kills.begin() + static_cast<std::ptrdiff_t>(i));
        return;
      }
    }
  }

  /// A side's tuples reach a node in seq order, so once `seq` came through
  /// no older tuple can still arrive: its pending entries are moot.
  void PrunePendingKills(StreamSide side, Seq seq) {
    std::vector<Kill>& kills = Kills(side);
    std::erase_if(kills,
                  [&](const Kill& k) { return !k.landed && k.seq < seq; });
  }

  /// True when one tuple of the pair expired before the other was pushed.
  bool CrossedAfterExpiry(const Stamped<R>& r, const Stamped<S>& s) const {
    for (const Kill& kill : kills_r_) {
      if (kill.seq == r.seq) return s.seq >= kill.horizon;
    }
    for (const Kill& kill : kills_s_) {
      if (kill.seq == s.seq) return r.seq >= kill.horizon;
    }
    return false;
  }

  const int64_t capacity_r_;  // static segment capacities (0: balancing)
  const int64_t capacity_s_;

  // Punctuations held until the local segment clears of pre-boundary
  // tuples (see ReleaseEpochPuncts).
  std::vector<Epoch> pending_epoch_r_;
  std::vector<Epoch> pending_epoch_s_;

  std::vector<Kill> kills_r_;  // expiries that passed without their tuple
  std::vector<Kill> kills_s_;
  // One past the highest seq received / passed on per side (ChaseDirection).
  Seq next_r_in_ = 0;
  Seq next_r_out_ = 0;
  Seq next_s_in_ = 0;
  Seq next_s_out_ = 0;

  // Published segment sizes (self-balancing); neighbours hold pointers.
  CachePadded<std::atomic<std::size_t>> r_size_pub_;
  CachePadded<std::atomic<std::size_t>> s_size_pub_;
  const std::atomic<std::size_t>* neighbor_r_size_ = nullptr;
  const std::atomic<std::size_t>* neighbor_s_size_ = nullptr;
};

}  // namespace sjoin
