// High-water marks for punctuation generation (paper Section 6.1.1). The
// pipeline end nodes publish the timestamp of every tuple that completes
// its traversal; because tuples finish in FIFO order, the published value
// is the maximum finished timestamp of that stream. The collector reads
// both marks *before* vacuuming the result queues, making
// min(t_max,R, t_max,S) a safe punctuation.
#pragma once

#include <atomic>

#include "common/contracts.hpp"
#include "common/types.hpp"
#include "runtime/cacheline.hpp"

namespace sjoin {

class HighWaterMarks {
 public:
  /// Called by the pipeline end node when a tuple of `side` completes its
  /// expedition/traversal. Timestamps and sequence numbers arrive in FIFO
  /// order per side, so both marks are monotone.
  void Publish(StreamSide side, Timestamp ts, Seq seq) {
    auto& mark = side == StreamSide::kR ? r_ : s_;
    auto& done = side == StreamSide::kR ? r_seq_ : s_seq_;
    // Contract (DESIGN.md Section 14): tuples finish in FIFO order per
    // side, so a regressing mark or completed-seq means an end node
    // published out of order — downstream punctuations would go unsafe.
    if (side == StreamSide::kR) {
      r_ts_order_.AssertAdvance(ts, "HighWaterMarks", "R mark");
      r_seq_order_.AssertAdvance(static_cast<long long>(seq),
                                 "HighWaterMarks", "R completed seq",
                                 /*strict=*/true);
    } else {
      s_ts_order_.AssertAdvance(ts, "HighWaterMarks", "S mark");
      s_seq_order_.AssertAdvance(static_cast<long long>(seq),
                                 "HighWaterMarks", "S completed seq",
                                 /*strict=*/true);
    }
    mark->store(ts, std::memory_order_release);
    done->store(static_cast<int64_t>(seq), std::memory_order_release);
  }

  Timestamp Get(StreamSide side) const {
    const auto& mark = side == StreamSide::kR ? r_ : s_;
    return mark->load(std::memory_order_acquire);
  }

  /// Highest sequence number of `side` that has completed its traversal,
  /// or -1 if none has. Because tuples finish in FIFO order, seq <= this
  /// value means that tuple is no longer travelling — the condition the
  /// session driver gates LLHJ expiry delivery on (JoinShard::DeliverFlow).
  int64_t CompletedSeq(StreamSide side) const {
    const auto& done = side == StreamSide::kR ? r_seq_ : s_seq_;
    return done->load(std::memory_order_acquire);
  }

  /// The safe punctuation value min(t_max,R, t_max,S); kMinTimestamp until
  /// both streams have completed at least one tuple.
  Timestamp SafeMin() const {
    const Timestamp r = r_->load(std::memory_order_acquire);
    const Timestamp s = s_->load(std::memory_order_acquire);
    return r < s ? r : s;
  }

 private:
  CachePadded<std::atomic<Timestamp>> r_{{kMinTimestamp}};
  CachePadded<std::atomic<Timestamp>> s_{{kMinTimestamp}};
  CachePadded<std::atomic<int64_t>> r_seq_{{-1}};
  CachePadded<std::atomic<int64_t>> s_seq_{{-1}};
  // Checked-contracts state: per-side publish order (each side has a single
  // publishing end node, so plain members are safe under the contract the
  // SpscQueue roles already pin down).
  [[no_unique_address]] contracts::Monotone r_ts_order_;
  [[no_unique_address]] contracts::Monotone s_ts_order_;
  [[no_unique_address]] contracts::Monotone r_seq_order_;
  [[no_unique_address]] contracts::Monotone s_seq_order_;
};

}  // namespace sjoin
