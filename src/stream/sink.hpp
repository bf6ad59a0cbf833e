// Result sink: where pipeline nodes emit join matches. Nodes are templated
// on the sink so the hot emit path has no virtual dispatch.
// StagedQueueSink is a per-node SPSC result ring drained by the collector,
// with a bounded local overflow stage (the pipelines' sink, paper
// Figure 15).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "common/types.hpp"
#include "runtime/cacheline.hpp"
#include "runtime/spsc_queue.hpp"
#include "runtime/staged_channel.hpp"
#include "stream/message.hpp"

namespace sjoin {

/// Default result ring size of a pipeline node, in results (JoinConfig,
/// LlhjPipeline::Options and HsjPipeline::Options). A full ring is a
/// normal state: the node stages one batch's results and defers arrivals
/// until the collector has made room (see JoinConfig::result_capacity).
inline constexpr std::size_t kDefaultResultCapacity = 4096;

/// Number of a pipeline's nodes whose results are staged behind a full
/// result ring. Shared by the nodes' StagedQueueSinks, the collector and
/// the driver. A sink raises it when its stage fills, which is before its
/// node passes on the arrivals those results belong to, and lowers it once
/// the stage has drained into the ring. So a collector that reads 0 after
/// the high-water marks knows every result of every completed tuple is in
/// a ring (punctuation safety, DESIGN.md Section 4), and a quiescence check
/// sees results that no ring holds yet (Section 6).
class ResultStageCount {
 public:
  void Raise() { count_->fetch_add(1, std::memory_order_acq_rel); }
  /// Release: the staged results are in the ring before the count drops.
  void Lower() { count_->fetch_sub(1, std::memory_order_acq_rel); }
  std::size_t Get() const { return count_->load(std::memory_order_acquire); }

 private:
  CachePadded<std::atomic<std::size_t>> count_{{0}};
};

/// Non-blocking emit into a bounded SPSC result ring with a local overflow
/// stage. Pipeline nodes must never block mid-step (a blocked node cannot
/// drain its own inputs, and in single-threaded execution it would starve
/// the collector), so results beyond the ring's free space stage locally
/// and drain on subsequent steps. The stage stays bounded because the
/// owning node defers arrivals while it is non-empty (DeferArrivals): it
/// holds at most one arrival batch's results plus control-message markers.
template <typename R, typename S>
class StagedQueueSink {
 public:
  /// `stages` is the pipeline's count of nodes with staged results.
  StagedQueueSink(SpscQueue<ResultMsg<R, S>>* queue, ResultStageCount* stages)
      : channel_(queue), stages_(stages) {}

  void Emit(const ResultMsg<R, S>& result) {
    channel_.Push(result);
    ++emitted_;
    if (!raised_ && channel_.staged() != 0) {
      raised_ = true;
      stalled_ = false;
      stages_->Raise();
    }
  }

  /// Moves staged results into the ring; called from the node's Step.
  bool Drain() {
    const bool progress = channel_.Drain();
    if (raised_ && channel_.staged() == 0) {
      raised_ = false;
      stages_->Lower();
    }
    return progress;
  }

  /// True while results wait behind a full ring: the node must then defer
  /// arrivals (control messages are still consumed). The first deferral of
  /// each fill counts as one stall.
  bool DeferArrivals() {
    if (!raised_) return false;
    if (!stalled_) {
      stalled_ = true;
      // Single writer (the owning node): no read-modify-write needed.
      stalls_.store(stalls_.load(std::memory_order_relaxed) + 1,
                    std::memory_order_relaxed);
    }
    return true;
  }

  /// Placement hook: reserve the stage from the owning node's thread (see
  /// StagedChannel::Prewarm).
  void Prewarm(std::size_t slots) { channel_.Prewarm(slots); }

  uint64_t emitted() const { return emitted_; }
  std::size_t staged() const { return channel_.staged(); }
  /// Times the node deferred arrivals on a full result ring, one per fill;
  /// safe to read from any thread.
  uint64_t stalls() const { return stalls_.load(std::memory_order_relaxed); }

 private:
  StagedChannel<ResultMsg<R, S>> channel_;
  ResultStageCount* stages_;
  uint64_t emitted_ = 0;
  bool raised_ = false;   ///< stage non-empty, counted in stages_
  bool stalled_ = false;  ///< this fill already counted as a stall
  std::atomic<uint64_t> stalls_{0};
};

}  // namespace sjoin
