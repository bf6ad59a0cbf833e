// The driver threads of the paper (Figure 15) rolled into one Steppable
// feeder: it pulls driver events from a WorkloadSource, routes them to the
// correct pipeline end, and reproduces the prototype's batching behaviour —
// tuples are accumulated into fixed-size batches before being pushed into
// the pipeline (Section 7.3: batch size 64 by default, 4 for the
// reduced-batching experiment of Figure 20). Batching delay is therefore
// part of measured latency, exactly as in the paper.
//
// Two operation modes:
//  * max-rate: events are released as fast as the pipeline accepts them
//    (throughput experiments — "maximum throughput the system could sustain
//    without dropping any data": bounded queues provide the backpressure).
//  * paced: event timestamps are mapped onto the wall clock
//    (wall = start + ts), and tuples are released only once due
//    (latency experiments at a fixed input rate).
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/clock.hpp"
#include "common/contracts.hpp"
#include "common/vec_deque.hpp"
#include "common/types.hpp"
#include "runtime/backoff.hpp"
#include "runtime/executor.hpp"
#include "stream/admission.hpp"
#include "stream/hwm.hpp"
#include "stream/message.hpp"
#include "stream/ports.hpp"
#include "stream/source.hpp"

namespace sjoin {

template <typename R, typename S>
class Feeder : public Steppable {
 public:
  struct Options {
    int batch_size = 64;   ///< per-side batch before pushing (paper: 64)
    bool paced = false;    ///< honor event timestamps against wall clock
    int max_events_per_step = 512;
    /// Stop generating events while either side's undelivered backlog
    /// exceeds this bound (0 = derive from batch size). This couples the
    /// two flows: if one pipeline end exerts backpressure, the driver stops
    /// advancing the *other* flow too, so the streams can never skew by
    /// more than outbox + channel capacity — the bounded-lag precondition
    /// of the handshake-join protocols (DESIGN.md).
    std::size_t max_outbox = 0;
    /// When set (LLHJ), an expiry message is released into its flow only
    /// after the expiring tuple has *completed its expedition* (end nodes
    /// publish completion through the high-water marks). This preserves
    /// exactness even when the driver runs far ahead of the pipeline: no
    /// tuple can be met in flight by an opposite tuple that entered behind
    /// its expiry. Messages queued behind a gated expiry wait with it, so
    /// flow order is preserved. In the paper's regime (windows of seconds,
    /// expeditions of microseconds) the gate never throttles.
    const HighWaterMarks* expiry_gate = nullptr;
    /// Overload control (DESIGN.md Section 12): when set and enabled,
    /// arrivals that project past their latency budget are shed HERE, at
    /// ingest — they consume their sequence number but never reach a
    /// channel, and expiry events referencing them are suppressed (the
    /// windows never held them). Every shed run is announced in-band as a
    /// kLossPunctuation on the flow the arrivals would have taken.
    AdmissionController* admission = nullptr;
    /// Optional whole-pipeline backlog probe for the admission projection
    /// (e.g. Pipeline::ApproxChannelBacklog). Without it the feeder only
    /// sees the ENTRY channels, and backpressure must cascade backward
    /// through every internal ring before ingest notices saturation — the
    /// probe removes that admit-burst lag.
    std::function<std::size_t()> backlog_probe;
  };

  Feeder(PipelinePorts<R, S> ports, WorkloadSource<R, S>* source,
         const Options& options)
      : ports_(ports), source_(source), options_(options) {
    if (options_.max_outbox == 0) {
      options_.max_outbox = std::max<std::size_t>(
          16, 2 * static_cast<std::size_t>(options_.batch_size));
    }
  }

  bool Step() override {
    const bool progress = StepImpl();
    // Publish the drained state once per step: finished() is polled from
    // other threads, so it must not inspect the feeder's working state.
    finished_.store((exhausted_ ||
                     stop_requested_.load(std::memory_order_acquire)) &&
                        left_pending_.empty() && right_pending_.empty() &&
                        left_outbox_.empty() && right_outbox_.empty(),
                    std::memory_order_release);
    return progress;
  }

  /// Stop producing new events; pending batches are still flushed.
  void RequestStop() { stop_requested_.store(true, std::memory_order_release); }

  /// True once the source is exhausted (or a stop was requested) AND every
  /// pending/outbox message has been delivered. Thread-safe: reflects the
  /// state as of the feeder's last completed Step.
  bool finished() const { return finished_.load(std::memory_order_acquire); }

 private:
  bool StepImpl() {
    std::size_t delivered = 0;
    delivered += PushOutbox(&left_outbox_, ports_.left);
    delivered += PushOutbox(&right_outbox_, ports_.right);
    bool progress = delivered > 0;

    if (stop_requested_.load(std::memory_order_acquire)) {
      FlushPending();
      delivered += PushOutbox(&left_outbox_, ports_.left);
      delivered += PushOutbox(&right_outbox_, ports_.right);
      NoteDelivered(delivered);
      return progress || delivered > 0;
    }

    if (!started_) {
      start_wall_ns_ = NowNs();
      started_ = true;
    }

    int produced = 0;
    const int64_t now = NowNs();
    while (produced < options_.max_events_per_step) {
      if (exhausted_) break;
      if (left_outbox_.size() >= options_.max_outbox ||
          right_outbox_.size() >= options_.max_outbox) {
        break;  // downstream backpressure: hold *both* flows back
      }
      if (!have_next_ && !source_->Next(&next_event_)) {
        exhausted_ = true;
        break;
      }
      have_next_ = true;
      if (options_.paced) {
        const int64_t due = start_wall_ns_ + next_event_.ts * 1000;
        if (due > now) break;  // not yet due
      }
      Route(next_event_);
      have_next_ = false;
      ++produced;
      progress = true;
    }

    if (exhausted_ && !have_next_) FlushPending();

    // If an expiry is gate-blocked, the tuple it waits for may still sit in
    // the opposite pending batch; flush so the pipeline can complete it.
    if (GateBlocked(left_outbox_) || GateBlocked(right_outbox_)) {
      FlushPending();
    }

    const std::size_t pushed = PushOutbox(&left_outbox_, ports_.left) +
                               PushOutbox(&right_outbox_, ports_.right);
    delivered += pushed;
    progress |= pushed > 0;
    NoteDelivered(delivered);

    // Saturation backoff: at the backpressure point the consumer usually
    // drains a trickle every step, so Step() keeps returning true and the
    // executor's own idle backoff (which only engages on false) never
    // fires — the feeder thread pegs a core re-scanning a full outbox. Key
    // the pause on the state that actually gates production: an outbox
    // still at/over the bound after the final push means the next step
    // cannot produce either, so yielding costs no throughput.
    if (left_outbox_.size() >= options_.max_outbox ||
        right_outbox_.size() >= options_.max_outbox) {
      backoff_.Pause();
    } else {
      backoff_.Reset();
    }
    return progress;
  }

 public:
  uint64_t arrivals_pushed(StreamSide side) const {
    return side == StreamSide::kR
               ? r_pushed_.load(std::memory_order_relaxed)
               : s_pushed_.load(std::memory_order_relaxed);
  }

  int64_t start_wall_ns() const { return start_wall_ns_; }

 private:
  void Route(const DriverEvent<R, S>& event) {
    const int64_t wall =
        options_.paced ? start_wall_ns_ + event.ts * 1000 : NowNs();
    switch (event.op) {
      case DriverOp::kArriveR: {
        r_arrival_order_.AssertAdvance(static_cast<long long>(event.seq),
                                       "Feeder", "R arrival seq",
                                       /*strict=*/true);
        next_seq_r_ = event.seq + 1;
        if (ShedsArrival(StreamSide::kR, event.seq, wall, &left_pending_)) {
          break;  // consumed its seq, never reaches a channel
        }
        FlushGaps(StreamSide::kR);  // punctuate ahead of the admitted tuple
        FlowMsg<R> msg;
        msg.kind = MsgKind::kArrival;
        msg.seq = event.seq;
        msg.ts = event.ts;
        msg.arrival_wall_ns = wall;
        msg.payload = event.r;
        left_pending_.push_back(msg);
        r_pushed_.fetch_add(1, std::memory_order_relaxed);
        break;
      }
      case DriverOp::kArriveS: {
        s_arrival_order_.AssertAdvance(static_cast<long long>(event.seq),
                                       "Feeder", "S arrival seq",
                                       /*strict=*/true);
        next_seq_s_ = event.seq + 1;
        if (ShedsArrival(StreamSide::kS, event.seq, wall, &right_pending_)) {
          break;
        }
        FlushGaps(StreamSide::kS);
        FlowMsg<S> msg;
        msg.kind = MsgKind::kArrival;
        msg.seq = event.seq;
        msg.ts = event.ts;
        msg.arrival_wall_ns = wall;
        msg.payload = event.s;
        right_pending_.push_back(msg);
        s_pushed_.fetch_add(1, std::memory_order_relaxed);
        break;
      }
      case DriverOp::kExpireR: {
        r_expiry_order_.AssertAdvance(static_cast<long long>(event.seq),
                                      "Feeder", "R expiry seq",
                                      /*strict=*/true);
        if (ExpiryShed(StreamSide::kR, event.seq)) break;  // window never held it
        // R expiries enter at the right end and travel right-to-left.
        FlowMsg<S> msg;
        msg.kind = MsgKind::kExpiry;
        msg.ref_side = StreamSide::kR;
        msg.seq = event.seq;
        msg.ts = event.ts;
        SetExpiryHorizon(&msg, next_seq_s_);
        right_pending_.push_back(msg);
        break;
      }
      case DriverOp::kExpireS: {
        s_expiry_order_.AssertAdvance(static_cast<long long>(event.seq),
                                      "Feeder", "S expiry seq",
                                      /*strict=*/true);
        if (ExpiryShed(StreamSide::kS, event.seq)) break;
        FlowMsg<R> msg;
        msg.kind = MsgKind::kExpiry;
        msg.ref_side = StreamSide::kS;
        msg.seq = event.seq;
        msg.ts = event.ts;
        SetExpiryHorizon(&msg, next_seq_r_);
        left_pending_.push_back(msg);
        break;
      }
      case DriverOp::kFlushR: {
        FlowMsg<R> msg;
        msg.kind = MsgKind::kFlush;
        left_pending_.push_back(msg);
        break;
      }
      case DriverOp::kFlushS: {
        FlowMsg<S> msg;
        msg.kind = MsgKind::kFlush;
        right_pending_.push_back(msg);
        break;
      }
    }
    if (static_cast<int>(left_pending_.size()) >= options_.batch_size) {
      MoveToOutbox(&left_pending_, &left_outbox_);
    }
    if (static_cast<int>(right_pending_.size()) >= options_.batch_size) {
      MoveToOutbox(&right_pending_, &right_outbox_);
    }
  }

  void FlushPending() {
    // Close out any still-open loss gaps first: at end of stream (or a
    // gate-forced flush) there is no "next admitted arrival" to carry them.
    FlushGaps(StreamSide::kR);
    FlushGaps(StreamSide::kS);
    if (!left_pending_.empty()) MoveToOutbox(&left_pending_, &left_outbox_);
    if (!right_pending_.empty()) MoveToOutbox(&right_pending_, &right_outbox_);
  }

  // -- Overload control (DESIGN.md Section 12) -------------------------------

  /// Admission decision for one incoming arrival. Returns true when the
  /// incoming tuple is shed. Under kDropOldest the victim is the oldest
  /// same-side arrival still waiting in the pending batch (anything already
  /// in the outbox/channel is on its way and no longer at ingest) and the
  /// incoming tuple is admitted in its place; with no waiting victim the
  /// policy degrades to dropping the incoming tuple.
  template <typename T>
  bool ShedsArrival(StreamSide side, Seq seq, int64_t wall,
                    std::vector<FlowMsg<T>>* pending) {
    AdmissionController* adm = options_.admission;
    if (adm == nullptr) return false;
    if (!adm->ShouldShed(side, seq, NowNs(), wall, IngestBacklog())) {
      return false;
    }
    if (adm->policy() == OverloadPolicy::kDropOldest &&
        !adm->has_force_shed()) {
      for (auto it = pending->begin(); it != pending->end(); ++it) {
        if (it->kind == MsgKind::kArrival) {
          adm->RecordShed(side, it->seq);
          NoteShedSeq(side, it->seq);
          pending->erase(it);
          (side == StreamSide::kR ? r_pushed_ : s_pushed_)
              .fetch_sub(1, std::memory_order_relaxed);
          return false;  // incoming admitted in the victim's place
        }
      }
    }
    adm->RecordShed(side, seq);
    NoteShedSeq(side, seq);
    return true;
  }

  /// Drains recorded gaps of `side` into in-band loss punctuations on the
  /// flow the shed arrivals would have taken (R -> left/l2r, S -> right/r2l).
  void FlushGaps(StreamSide side) {
    AdmissionController* adm = options_.admission;
    if (adm == nullptr || !adm->HasGap(side)) return;
    LossBound gap;
    while (adm->TakeGap(side, &gap)) {
      if (side == StreamSide::kR) {
        left_pending_.push_back(
            MakeLossPunct<R>(side, gap.first_seq, gap.count));
      } else {
        right_pending_.push_back(
            MakeLossPunct<S>(side, gap.first_seq, gap.count));
      }
    }
  }

  /// Shed seqs per side, coalesced into ranges consumed front-to-back by
  /// ExpiryShed. Both are seq-monotone per side: sheds because every shed
  /// seq (victim or incoming) exceeds all earlier sheds of its side, and
  /// expiries because the windows are FIFO per side.
  void NoteShedSeq(StreamSide side, Seq seq) {
    auto& ranges = side == StreamSide::kR ? shed_r_ranges_ : shed_s_ranges_;
    // Contract: sheds are recorded in strictly advancing seq order — an
    // out-of-order shed would corrupt the coalesced ranges and let its
    // expiry slip past ExpiryShed into windows that never held the tuple.
    (side == StreamSide::kR ? r_shed_order_ : s_shed_order_)
        .AssertAdvance(static_cast<long long>(seq), "Feeder", "shed seq",
                       /*strict=*/true);
    if (!ranges.empty() && ranges.back().second + 1 == seq) {
      ranges.back().second = seq;
    } else {
      ranges.emplace_back(seq, seq);
    }
  }

  /// True when the expiry references a tuple that was shed at ingest: the
  /// windows never held it, so the expiry must not enter the pipeline
  /// (an expiry for an absent tuple would tombstone-leak in LLHJ and, worse,
  /// deadlock the expiry gate, which waits for a completion that can never
  /// be published).
  bool ExpiryShed(StreamSide side, Seq seq) {
    if (options_.admission == nullptr) return false;
    auto& ranges = side == StreamSide::kR ? shed_r_ranges_ : shed_s_ranges_;
    while (!ranges.empty() && ranges.front().second < seq) ranges.pop_front();
    return !ranges.empty() && ranges.front().first <= seq;
  }

  /// Service-rate sensing for the admission projection: what this feeder
  /// handed to the channels this step is what the pipeline drained (modulo
  /// the bounded ring capacity), so it is the honest per-message service
  /// signal — see AdmissionController::ObserveDelivered.
  void NoteDelivered(std::size_t delivered) {
    if (options_.admission != nullptr && delivered > 0) {
      options_.admission->ObserveDelivered(delivered, NowNs());
    }
  }

  /// Driver-visible backlog for the admission projection: batches not yet
  /// handed to the channels plus the occupancy of the entry channels — the
  /// latter is the instantaneous saturation signal (a full entry ring means
  /// the pipeline is behind RIGHT NOW, long before the latency EWMA, which
  /// trails by one end-to-end delay, can report it). When the high-water
  /// marks are wired, the arrivals still in flight inside the pipeline are
  /// folded in too; the measures overlap, so take the max, not the sum.
  std::size_t IngestBacklog() const {
    std::size_t n = left_pending_.size() + right_pending_.size() +
                    left_outbox_.size() + right_outbox_.size();
    n += options_.backlog_probe
             ? options_.backlog_probe()
             : ports_.left->SizeApprox() + ports_.right->SizeApprox();
    if (options_.expiry_gate != nullptr) {
      const int64_t in_flight =
          static_cast<int64_t>(r_pushed_.load(std::memory_order_relaxed) +
                               s_pushed_.load(std::memory_order_relaxed)) -
          (options_.expiry_gate->CompletedSeq(StreamSide::kR) + 1) -
          (options_.expiry_gate->CompletedSeq(StreamSide::kS) + 1);
      if (in_flight > static_cast<int64_t>(n)) {
        n = static_cast<std::size_t>(in_flight);
      }
    }
    return n;
  }

  /// FIFO delivery buffer consumed from a head cursor; keeping it a
  /// contiguous vector lets PushOutbox hand whole batches to
  /// SpscQueue::TryPushBurst (one atomic update per batch, not per tuple).
  template <typename T>
  struct Outbox {
    std::vector<FlowMsg<T>> buf;
    std::size_t head = 0;

    std::size_t size() const { return buf.size() - head; }
    bool empty() const { return head == buf.size(); }
    const FlowMsg<T>& front() const { return buf[head]; }
    void Compact() {
      if (head == buf.size()) {
        buf.clear();
        head = 0;
      } else if (head >= 1024) {
        // Under sustained backpressure the outbox may never fully empty;
        // reclaim the delivered prefix so memory stays proportional to the
        // (bounded) undelivered backlog, not to total traffic.
        buf.erase(buf.begin(), buf.begin() + static_cast<std::ptrdiff_t>(head));
        head = 0;
      }
    }
  };

  template <typename T>
  static void MoveToOutbox(std::vector<FlowMsg<T>>* pending,
                           Outbox<T>* outbox) {
    outbox->buf.insert(outbox->buf.end(), pending->begin(), pending->end());
    pending->clear();
  }

  template <typename T>
  bool GateBlocked(const Outbox<T>& outbox) const {
    if (outbox.empty() || options_.expiry_gate == nullptr) return false;
    const FlowMsg<T>& front = outbox.front();
    return front.kind == MsgKind::kExpiry &&
           options_.expiry_gate->CompletedSeq(front.ref_side) <
               static_cast<int64_t>(front.seq);
  }

  /// Returns the number of messages delivered to the channel.
  template <typename T>
  std::size_t PushOutbox(Outbox<T>* outbox, SpscQueue<FlowMsg<T>>* q) {
    std::size_t delivered = 0;
    while (!outbox->empty()) {
      const FlowMsg<T>* msgs = outbox->buf.data() + outbox->head;
      const std::size_t avail = outbox->size();
      // Longest deliverable prefix: everything up to the first expiry whose
      // tuple has not completed its expedition yet (flow order preserved —
      // messages behind a gated expiry wait with it).
      std::size_t run = avail;
      if (options_.expiry_gate != nullptr) {
        run = 0;
        while (run < avail) {
          const FlowMsg<T>& m = msgs[run];
          if (m.kind == MsgKind::kExpiry &&
              options_.expiry_gate->CompletedSeq(m.ref_side) <
                  static_cast<int64_t>(m.seq)) {
            break;
          }
          ++run;
        }
      }
      if (run == 0) break;  // front expiry still gated
      const std::size_t pushed = q->TryPushBurst(msgs, run);
      outbox->head += pushed;
      delivered += pushed;
      if (pushed < run || run < avail) break;  // channel full or gated
    }
    outbox->Compact();
    return delivered;
  }

  PipelinePorts<R, S> ports_;
  WorkloadSource<R, S>* source_;
  Options options_;

  std::vector<FlowMsg<R>> left_pending_;
  std::vector<FlowMsg<S>> right_pending_;
  Outbox<R> left_outbox_;
  Outbox<S> right_outbox_;

  DriverEvent<R, S> next_event_{};
  bool have_next_ = false;
  bool exhausted_ = false;
  bool started_ = false;
  int64_t start_wall_ns_ = 0;

  Backoff backoff_;  // saturation backoff (see StepImpl)
  VecDeque<std::pair<Seq, Seq>> shed_r_ranges_;  // [first, last], monotone
  VecDeque<std::pair<Seq, Seq>> shed_s_ranges_;

  // Checked-contracts state (DESIGN.md Section 14): per-side driver-order
  // protocol — arrival and expiry seqs strictly advance, and shed ranges
  // are recorded in strictly advancing order, which together make the
  // shed-range consumption in ExpiryShed sound (front-to-back popping
  // never discards a range a later expiry still needs).
  [[no_unique_address]] contracts::Monotone r_arrival_order_;
  [[no_unique_address]] contracts::Monotone s_arrival_order_;
  [[no_unique_address]] contracts::Monotone r_expiry_order_;
  [[no_unique_address]] contracts::Monotone s_expiry_order_;
  [[no_unique_address]] contracts::Monotone r_shed_order_;
  [[no_unique_address]] contracts::Monotone s_shed_order_;

  // One past the last arrival seq routed per side: the expiry horizons.
  Seq next_seq_r_ = 0;
  Seq next_seq_s_ = 0;

  std::atomic<bool> stop_requested_{false};
  std::atomic<bool> finished_{false};
  std::atomic<uint64_t> r_pushed_{0};
  std::atomic<uint64_t> s_pushed_{0};
};

}  // namespace sjoin
