// Result collector (paper Section 5, Figure 15/16). Every pipeline node
// owns a dedicated result queue; the collector periodically vacuums all of
// them into the single physical output stream. With punctuation enabled it
// implements the Section 6.1.3 protocol:
//
//   1. read both high-water marks, t_p = min(t_max,R, t_max,S)
//   2. vacuum all result queues, forwarding result tuples
//   3. emit the punctuation <t_p> (if it advanced)
//
// Reading the marks *before* vacuuming is what makes the punctuation safe:
// every result produced after step 1 is driven by a tuple that had not yet
// finished its expedition, whose timestamp is therefore >= t_p. Results a
// node staged behind its full result ring are not in any queue yet, so
// step 1 also reads the pipeline's ResultStageCount, after the marks, and
// holds the punctuation back while any node reports staged results.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "runtime/executor.hpp"
#include "runtime/spsc_queue.hpp"
#include "stream/handlers.hpp"
#include "stream/hwm.hpp"
#include "stream/message.hpp"
#include "stream/sink.hpp"

namespace sjoin {

template <typename R, typename S>
class Collector : public Steppable {
 public:
  /// `hwm` may be null; punctuations are emitted only when punctuate=true
  /// and a HighWaterMarks instance is supplied. `stages` (may be null) is
  /// the count of the producing nodes holding staged results.
  Collector(std::vector<SpscQueue<ResultMsg<R, S>>*> queues,
            OutputHandler<R, S>* handler, HighWaterMarks* hwm = nullptr,
            bool punctuate = false, const ResultStageCount* stages = nullptr)
      : queues_(std::move(queues)),
        handler_(handler),
        hwm_(hwm),
        stages_(stages),
        punctuate_(punctuate && hwm != nullptr) {}

  /// One vacuum round. Returns the number of results forwarded. Queues are
  /// drained in bursts (one consumer-index update per run, not per result),
  /// mirroring the burst transport of the pipeline channels, and the results
  /// between markers reach the handler as OnResultBurst runs in FIFO order.
  /// Epoch markers
  /// (kEpochMarkQuery, see stream/message.hpp) are aggregated instead of
  /// forwarded: once every queue has yielded the marker of epoch E, FIFO
  /// order guarantees no result of an epoch < E is still queued, and the
  /// handler is told via OnEpochDrained(E).
  std::size_t VacuumOnce() {
    Timestamp tp = kMinTimestamp;
    if (punctuate_) {
      tp = hwm_->SafeMin();  // step 1: read marks first
      if (stages_ != nullptr && stages_->Get() != 0) tp = kMinTimestamp;
    }

    std::size_t drained = 0;
    for (auto* queue : queues_) {  // step 2: vacuum
      for (;;) {
        ResultMsg<R, S>* run = nullptr;
        const std::size_t n = queue->PeekBurst(&run);
        if (n == 0) break;
        std::size_t results = 0;  // start of the pending result run
        for (std::size_t i = 0; i < n; ++i) {
          const bool epoch_mark = IsEpochMark(run[i]);
          if (!epoch_mark && !IsLossMark(run[i])) continue;
          // A marker ends the pending run: deliver it first (FIFO).
          drained += Deliver(run + results, i - results);
          results = i + 1;
          if (epoch_mark) {
            OnEpochMark(run[i].epoch);
          } else {
            // Overload-control loss bound (exactly one per shed gap, from
            // the pipeline entry node): translate, don't forward.
            const LossBound bound = DecodeLossMark(run[i]);
            (bound.side == StreamSide::kR ? lost_r_ : lost_s_) += bound.count;
            ++loss_bounds_;
            handler_->OnLoss(bound.side, bound.first_seq, bound.count);
          }
        }
        drained += Deliver(run + results, n - results);
        queue->ConsumeBurst(n);
      }
    }
    total_ += drained;

    if (punctuate_ && tp != kMinTimestamp && tp > last_punctuation_) {
      handler_->OnPunctuation(tp);  // step 3
      last_punctuation_ = tp;
      ++punctuations_emitted_;
    }
    return drained;
  }

  bool Step() override { return VacuumOnce() > 0; }

  /// Placement hook: writes every result ring's pages from the calling
  /// (consumer) thread, so they are first touched on its NUMA node. Runs
  /// automatically via OnThreadStart when the collector lives on an
  /// executor thread; owners that vacuum from their own thread
  /// (JoinSession, benches) call it once before the pipeline starts
  /// producing.
  void PrefaultQueues() {
    for (auto* queue : queues_) queue->PrefaultByConsumer();
  }

  void OnThreadStart() override { PrefaultQueues(); }

  uint64_t total_collected() const { return total_; }
  uint64_t punctuations_emitted() const { return punctuations_emitted_; }
  /// Overload-control accounting: tuples reported lost per side and the
  /// number of distinct loss bounds translated.
  uint64_t lost(StreamSide side) const {
    return side == StreamSide::kR ? lost_r_ : lost_s_;
  }
  uint64_t loss_bounds() const { return loss_bounds_; }
  Timestamp last_punctuation() const { return last_punctuation_; }
  /// Highest epoch whose marker arrived from every node (all results of
  /// older epochs have been forwarded to the handler).
  Epoch drained_epoch() const { return drained_epoch_; }

 private:
  std::size_t Deliver(const ResultMsg<R, S>* run, std::size_t n) {
    if (n != 0) handler_->OnResultBurst(run, n);
    return n;
  }

  /// Counts the per-node epoch markers. Nodes emit markers in increasing
  /// epoch order into FIFO queues, so completion is monotone: when the
  /// count for E reaches the queue count, every result of an epoch < E has
  /// already been forwarded above.
  void OnEpochMark(Epoch epoch) {
    if (epoch_marks_.size() < static_cast<std::size_t>(epoch) + 1) {
      epoch_marks_.resize(static_cast<std::size_t>(epoch) + 1, 0);
    }
    if (++epoch_marks_[epoch] == queues_.size() && epoch > drained_epoch_) {
      drained_epoch_ = epoch;
      handler_->OnEpochDrained(epoch);
    }
  }

  std::vector<SpscQueue<ResultMsg<R, S>>*> queues_;
  OutputHandler<R, S>* handler_;
  HighWaterMarks* hwm_;
  const ResultStageCount* stages_;
  bool punctuate_;
  Timestamp last_punctuation_ = kMinTimestamp;
  uint64_t total_ = 0;
  uint64_t punctuations_emitted_ = 0;
  uint64_t lost_r_ = 0;
  uint64_t lost_s_ = 0;
  uint64_t loss_bounds_ = 0;
  std::vector<std::size_t> epoch_marks_;  // per-epoch marker count
  Epoch drained_epoch_ = 0;
};

}  // namespace sjoin
