// FIFO buffer of in-flight tuples with O(1) erase-by-sequence-number.
//
// Both join engines keep an "in-flight window" (IWS): tuples forwarded to a
// neighbour that stay virtually present until acknowledged (paper Section
// 4.2.2). The access pattern is append at the tail, erase by seq (in
// near-FIFO order, because acknowledgements return in forwarding order),
// and a full scan on every opposite-stream arrival. A deque with linear
// erase makes the ack path O(n); this ring keeps the elements contiguous
// for the scan and maintains a seq -> slot index so an ack is one hash
// lookup plus a flag store.
//
// Erased slots in the middle (out-of-order acks, expiry purges) are marked
// dead and skipped by ForEach; the dead prefix/suffix is trimmed eagerly,
// so transient holes cannot accumulate.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/flat_hash.hpp"
#include "common/types.hpp"

namespace sjoin {

/// T must expose a `.seq` member (the engines store Stamped<Tuple>).
template <typename T>
class SeqRing {
 public:
  std::size_t size() const { return live_; }
  bool empty() const { return live_ == 0; }

  /// Appends; seq values must be unique among live entries.
  void PushBack(const T& item) {
    if (slots_.empty() || tail_pos_ - head_pos_ == slots_.size()) Grow();
    Slot& slot = slots_[static_cast<std::size_t>(tail_pos_) & mask_];
    slot.item = item;
    slot.live = true;
    index_.Insert(item.seq, tail_pos_);
    ++tail_pos_;
    ++live_;
  }

  /// Removes the entry with sequence number `seq`; true when present.
  bool Erase(Seq seq) {
    uint64_t* pos = index_.Find(seq);
    if (pos == nullptr) return false;
    slots_[static_cast<std::size_t>(*pos) & mask_].live = false;
    index_.Erase(seq);
    --live_;
    while (head_pos_ < tail_pos_ &&
           !slots_[static_cast<std::size_t>(head_pos_) & mask_].live) {
      ++head_pos_;
    }
    while (tail_pos_ > head_pos_ &&
           !slots_[static_cast<std::size_t>(tail_pos_ - 1) & mask_].live) {
      --tail_pos_;
    }
    return true;
  }

  /// True when an entry with sequence number `seq` is live.
  bool Contains(Seq seq) { return index_.Find(seq) != nullptr; }

  /// Visits live entries in insertion order.
  template <typename F>
  void ForEach(F&& f) const {
    for (uint64_t pos = head_pos_; pos < tail_pos_; ++pos) {
      const Slot& slot = slots_[static_cast<std::size_t>(pos) & mask_];
      if (slot.live) f(slot.item);
    }
  }

 private:
  struct Slot {
    T item{};
    bool live = false;
  };

  /// Doubles capacity, compacting live entries to the front (absolute
  /// positions restart, so the index is rebuilt). Rare and amortized.
  void Grow() {
    const std::size_t new_cap = slots_.empty() ? 16 : slots_.size() * 2;
    std::vector<Slot> next(new_cap);
    uint64_t n = 0;
    for (uint64_t pos = head_pos_; pos < tail_pos_; ++pos) {
      const Slot& slot = slots_[static_cast<std::size_t>(pos) & mask_];
      if (slot.live) next[static_cast<std::size_t>(n++)] = slot;
    }
    slots_ = std::move(next);
    mask_ = new_cap - 1;
    head_pos_ = 0;
    tail_pos_ = n;
    index_.Clear();
    for (uint64_t pos = 0; pos < n; ++pos) {
      index_.Insert(slots_[static_cast<std::size_t>(pos)].item.seq, pos);
    }
  }

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  uint64_t head_pos_ = 0;  ///< absolute position of the oldest occupied slot
  uint64_t tail_pos_ = 0;  ///< absolute position one past the newest
  std::size_t live_ = 0;
  FlatMap<Seq, uint64_t> index_;
};

}  // namespace sjoin
