// Contiguous FIFO for hot-path queues of POD-ish records. std::deque is
// banned in the hot-path dirs (tools/lint/sjoin_lint.py): its node-chunked
// layout defeats the prefetcher and every libstdc++ chunk is a separate
// allocation. VecDeque keeps elements in one std::vector with a consumed
// head cursor and compacts the consumed prefix only when it dominates the
// buffer, so steady-state push_back/pop_front is amortized O(1) with zero
// per-element allocation.
#pragma once

#include <cassert>
#include <cstddef>
#include <utility>
#include <vector>

namespace sjoin {

template <typename T>
class VecDeque {
 public:
  bool empty() const { return head_ == buf_.size(); }
  std::size_t size() const { return buf_.size() - head_; }

  T& front() {
    assert(!empty());
    return buf_[head_];
  }
  const T& front() const {
    assert(!empty());
    return buf_[head_];
  }
  T& back() {
    assert(!empty());
    return buf_.back();
  }
  const T& back() const {
    assert(!empty());
    return buf_.back();
  }

  void push_back(const T& v) { buf_.push_back(v); }
  void push_back(T&& v) { buf_.push_back(std::move(v)); }

  template <typename... Args>
  T& emplace_back(Args&&... args) {
    return buf_.emplace_back(std::forward<Args>(args)...);
  }

  void pop_front() {
    assert(!empty());
    ++head_;
    MaybeCompact();
  }

  void clear() {
    buf_.clear();
    head_ = 0;
  }

  // Live range iteration (front to back).
  T* begin() { return buf_.data() + head_; }
  T* end() { return buf_.data() + buf_.size(); }
  const T* begin() const { return buf_.data() + head_; }
  const T* end() const { return buf_.data() + buf_.size(); }

 private:
  void MaybeCompact() {
    // Reclaim only when the consumed prefix is both large and the majority
    // of the buffer — keeps the amortized cost of the memmove at O(1).
    if (head_ >= kCompactMin && head_ * 2 >= buf_.size()) {
      buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(head_));
      head_ = 0;
    }
  }

  static constexpr std::size_t kCompactMin = 64;

  std::vector<T> buf_;
  std::size_t head_ = 0;
};

}  // namespace sjoin
