// Outbound channel wrapper with a local overflow stage. Pipeline nodes must
// never block while holding an unconsumed input message, or neighbouring
// nodes can deadlock waiting on each other's queues. The discipline used by
// both join pipelines is:
//
//  * tuple *arrivals* are consumed only when the outbound channel has a few
//    free slots (Available) — this provides end-to-end backpressure;
//  * *control* messages (acks, expiries, expedition-ends, flushes) are
//    always consumed, and their outputs go through Push, which stages
//    locally if the channel is momentarily full.
//
// Control traffic per consumed arrival is bounded, so the stage stays tiny;
// the two pipeline end nodes wait on no flow channel, which makes every
// wait-for chain between nodes terminate (DESIGN.md Section 6). A null
// queue represents a pipeline end: pushes are discarded (the tuple "falls
// off" the pipeline).
//
// The stage is a contiguous vector consumed from a head cursor (not a
// deque): Drain hands the whole backlog to SpscQueue::TryPushBurst in one
// call, so clearing an n-message stage costs one atomic update instead of n.
#pragma once

#include <cstddef>
#include <limits>
#include <span>
#include <vector>

#include "common/contracts.hpp"
#include "runtime/spsc_queue.hpp"

namespace sjoin {

/// Default Prewarm size for node staging buffers — matches the partial-drain
/// compaction threshold, so a prewarmed stage never reallocates below it.
inline constexpr std::size_t kStagePrewarm = 256;

template <typename M>
class StagedChannel {
 public:
  explicit StagedChannel(SpscQueue<M>* queue = nullptr) : queue_(queue) {}

  bool connected() const { return queue_ != nullptr; }

  /// True when an arrival may be consumed: nothing staged and at least
  /// `slack` free slots for its downstream messages.
  bool Available(std::size_t slack) const {
    if (queue_ == nullptr) return true;
    return staged() == 0 && queue_->FreeApprox() >= slack;
  }

  /// How many arrivals may be consumed back to back before the channel
  /// risks blocking: each arrival forwards at most one message downstream,
  /// so a run of k arrivals needs `slack` free slots for the first plus one
  /// more per additional arrival. 0 while anything is staged (same deferral
  /// rule as Available); unbounded on a disconnected pipeline end.
  std::size_t ArrivalBudget(std::size_t slack) const {
    if (queue_ == nullptr) return std::numeric_limits<std::size_t>::max();
    if (staged() != 0) return 0;
    const std::size_t free = queue_->FreeApprox();
    return free >= slack ? free - slack + 1 : 0;
  }

  /// Enqueues, staging locally when the channel is full. Order-preserving.
  void Push(const M& msg) {
    if (queue_ == nullptr) return;  // pipeline end: discard
    owner_role_.AssertHeld("StagedChannel", "owner");
    if (staged() == 0 && queue_->TryPush(msg)) return;
    stage_.push_back(msg);
  }

  /// Enqueues a burst, staging whatever does not fit. Order-preserving.
  void PushBurst(std::span<const M> msgs) {
    if (queue_ == nullptr || msgs.empty()) return;
    owner_role_.AssertHeld("StagedChannel", "owner");
    std::size_t pushed = 0;
    if (staged() == 0) pushed = queue_->PushBurst(msgs);
    stage_.insert(stage_.end(), msgs.begin() + static_cast<std::ptrdiff_t>(pushed),
                  msgs.end());
  }

  /// Moves staged messages into the channel in one burst. Returns true on
  /// progress.
  bool Drain() {
    if (queue_ == nullptr || staged() == 0) return false;
    owner_role_.AssertHeld("StagedChannel", "owner");
    const std::size_t pushed =
        queue_->TryPushBurst(stage_.data() + head_, stage_.size() - head_);
    head_ += pushed;
    if (head_ == stage_.size()) {
      stage_.clear();
      head_ = 0;
    } else if (head_ >= 256) {
      // Partial drains under sustained backpressure must not let the sent
      // prefix accumulate; the live backlog itself is bounded by the
      // control-per-arrival discipline.
      stage_.erase(stage_.begin(), stage_.begin() + static_cast<std::ptrdiff_t>(head_));
      head_ = 0;
    }
    return pushed > 0;
  }

  std::size_t staged() const { return stage_.size() - head_; }

  /// Placement hook. The stage is owner-local scratch (only the node that
  /// pushes through this channel ever touches it); reserving it from the
  /// owning thread — ThreadedExecutor calls the owner's OnThreadStart after
  /// pinning — first-touches the backing store on that thread's NUMA node
  /// instead of wherever the pipeline happened to be constructed, and
  /// removes the first few growth reallocations from the hot path.
  void Prewarm(std::size_t slots) {
    if (stage_.capacity() < slots) stage_.reserve(slots);
  }

 private:
  SpscQueue<M>* queue_;
  std::vector<M> stage_;
  std::size_t head_ = 0;  ///< first unsent element of stage_
  // Checked-contracts state (DESIGN.md Section 14): the stage is
  // owner-local scratch, so every mutating call must come from the one
  // thread owning this node within an executor generation.
  [[no_unique_address]] contracts::ThreadRole owner_role_;
};

}  // namespace sjoin
