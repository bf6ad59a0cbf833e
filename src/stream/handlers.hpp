// Output handlers consumed by the collector: the downstream side of the
// operator. Handlers receive the merged result stream plus punctuations and
// can be chained (Tee) — e.g. latency recording feeding a sorting operator.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "common/types.hpp"
#include "stream/message.hpp"

namespace sjoin {

/// Interface for consumers of the collected output stream.
template <typename R, typename S>
class OutputHandler {
 public:
  virtual ~OutputHandler() = default;
  virtual void OnResult(const ResultMsg<R, S>& result) = 0;

  /// Delivers `n` consecutive results of the stream, in stream order
  /// (DESIGN.md Section 16). The collector hands over whole runs between
  /// markers; a handler may override this to pay per-burst costs (a clock
  /// read, a virtual hop) once per run. An override must behave exactly as
  /// OnResult on each element in order would — callers may split the stream
  /// into runs anywhere. `run` is valid only for the duration of the call.
  /// Default: OnResult on each element.
  virtual void OnResultBurst(const ResultMsg<R, S>* run, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) OnResult(run[i]);
  }
  virtual void OnPunctuation(Timestamp /*tp*/) {}

  /// Every result of a query epoch below the argument has been delivered
  /// (the collector saw the epoch marker of every pipeline node). Default
  /// no-op; the QueryRouter uses it to retire removed queries.
  virtual void OnEpochDrained(Epoch /*epoch*/) {}

  /// Final punctuation of a removed query: its last result has been
  /// delivered and no further OnResult call will ever carry this query id.
  virtual void OnQueryRetired(QueryId /*query*/) {}

  /// Exact loss bound from overload control (DESIGN.md Section 12): the
  /// `count` consecutive arrivals of `side` with sequence numbers
  /// [first_seq, first_seq + count) were shed AT INGEST — they never
  /// entered a window, so no delivered result references them, and every
  /// gap in the arrival sequence is covered by exactly one such call.
  /// Delivered at the bound's in-band stream position. Default no-op.
  virtual void OnLoss(StreamSide /*side*/, Seq /*first_seq*/,
                      uint64_t /*count*/) {}
};

/// Stores everything (tests, examples).
template <typename R, typename S>
class CollectingHandler : public OutputHandler<R, S> {
 public:
  void OnResult(const ResultMsg<R, S>& result) override {
    results_.push_back(result);
  }
  void OnPunctuation(Timestamp tp) override { punctuations_.push_back(tp); }
  void OnQueryRetired(QueryId query) override { retired_.push_back(query); }
  void OnLoss(StreamSide side, Seq first_seq, uint64_t count) override {
    losses_.push_back(LossBound{side, first_seq, count});
  }

  const std::vector<ResultMsg<R, S>>& results() const { return results_; }
  const std::vector<Timestamp>& punctuations() const { return punctuations_; }
  /// Queries whose final (retirement) punctuation has been delivered.
  const std::vector<QueryId>& retired_queries() const { return retired_; }
  /// Loss bounds in delivery order (overload-control accounting).
  const std::vector<LossBound>& losses() const { return losses_; }
  uint64_t lost(StreamSide side) const {
    uint64_t n = 0;
    for (const LossBound& b : losses_) {
      if (b.side == side) n += b.count;
    }
    return n;
  }

 private:
  std::vector<ResultMsg<R, S>> results_;
  std::vector<Timestamp> punctuations_;
  std::vector<QueryId> retired_;
  std::vector<LossBound> losses_;
};

/// Counts results; the count is safe to read from other threads.
template <typename R, typename S>
class CountingHandler : public OutputHandler<R, S> {
 public:
  void OnResult(const ResultMsg<R, S>&) override {
    count_.store(count_.load(std::memory_order_relaxed) + 1,
                 std::memory_order_relaxed);
  }
  uint64_t count() const { return count_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> count_{0};
};

/// Demultiplexes the merged result stream of a multi-query session onto the
/// per-query sinks: results are routed by their QueryId tag, punctuations
/// (a property of the shared windows, not of any one query) are broadcast
/// once per registered *handler* — a handler registered for several queries
/// receives each punctuation exactly once (deduped by (epoch, punctuation
/// seq)). A null handler is allowed — that query's results are counted but
/// dropped (count-only queries).
///
/// Live query lifecycle (DESIGN.md Section 10): the router keeps one
/// membership table per query epoch. A result is routed only when its
/// `query` was a member of its `epoch` — anything else counts as misrouted
/// (a pipeline bug). Queries removed at an epoch install stay registered
/// until that epoch is *drained* (OnEpochDrained, driven by the collector's
/// per-node epoch markers, or synchronously for the baseline engines); at
/// that point the removed query's handler receives its final punctuation
/// (OnQueryRetired) and is guaranteed to never see a result of that query
/// again.
template <typename R, typename S>
class QueryRouter : public OutputHandler<R, S> {
 public:
  /// Registers the sink of the next query; returns its dense QueryId.
  /// Ids are never reused, so a handler may appear under several ids.
  QueryId Register(OutputHandler<R, S>* handler) {
    handlers_.push_back(handler);
    counts_.push_back(0);
    retired_.push_back(0);
    return static_cast<QueryId>(handlers_.size() - 1);
  }

  /// Declares epoch `epoch` (must be sequential from 0): `members` are the
  /// QueryIds live in it, `removed` the ids removed at this install (await
  /// retirement once every older epoch has drained). A router that never
  /// sees BeginEpoch routes by id alone (single-epoch legacy mode).
  void BeginEpoch(Epoch epoch, const std::vector<QueryId>& members,
                  std::vector<QueryId> removed = {}) {
    if (epoch != epochs_.size()) {
      throw std::logic_error("QueryRouter: epochs must begin sequentially");
    }
    EpochInfo info;
    info.member.assign(handlers_.size(), 0);
    for (QueryId q : members) info.member[q] = 1;
    info.removed = std::move(removed);
    epochs_.push_back(std::move(info));
  }

  void OnResult(const ResultMsg<R, S>& result) override {
    if (!Routable(result)) {
      ++misrouted_;
      return;
    }
    ++counts_[result.query];
    ++total_;
    OutputHandler<R, S>* handler = handlers_[result.query];
    if (handler != nullptr) handler->OnResult(result);
  }

  /// Membership is checked per result; each maximal run of routable
  /// results of one query goes to its handler as one burst.
  void OnResultBurst(const ResultMsg<R, S>* run, std::size_t n) override {
    std::size_t i = 0;
    while (i < n) {
      if (!Routable(run[i])) {
        ++misrouted_;
        ++i;
        continue;
      }
      const QueryId q = run[i].query;
      std::size_t end = i + 1;
      while (end < n && run[end].query == q && Routable(run[end])) ++end;
      counts_[q] += end - i;
      total_ += end - i;
      OutputHandler<R, S>* handler = handlers_[q];
      if (handler != nullptr) handler->OnResultBurst(run + i, end - i);
      i = end;
    }
  }

  /// Broadcast with exactly-once-per-handler delivery: each OnPunctuation
  /// call is one (epoch, punctuation-seq) key, and within it every distinct
  /// handler that still owns a live (non-retired) query receives the value
  /// once, however many queries it is registered for — the per-call seen_
  /// list IS the (epoch, seq) dedupe, since a new call is a new key.
  void OnPunctuation(Timestamp tp) override {
    seen_.clear();
    for (QueryId q = 0; q < handlers_.size(); ++q) {
      OutputHandler<R, S>* handler = handlers_[q];
      if (handler == nullptr || retired_[q] != 0) continue;
      bool duplicate = false;
      for (OutputHandler<R, S>* s : seen_) duplicate |= (s == handler);
      if (duplicate) continue;  // already delivered under this (epoch, seq)
      seen_.push_back(handler);
      handler->OnPunctuation(tp);
    }
  }

  /// Loss bounds broadcast like punctuations: a property of the shared
  /// ingest, not of any one query, delivered exactly once per distinct
  /// live handler (same per-call dedupe as OnPunctuation). The router also
  /// keeps per-side totals — the session-level accounting the oracle tests
  /// check against the admission controller's ground truth.
  void OnLoss(StreamSide side, Seq first_seq, uint64_t count) override {
    (side == StreamSide::kR ? lost_r_ : lost_s_) += count;
    ++loss_bounds_;
    seen_.clear();
    for (QueryId q = 0; q < handlers_.size(); ++q) {
      OutputHandler<R, S>* handler = handlers_[q];
      if (handler == nullptr || retired_[q] != 0) continue;
      bool duplicate = false;
      for (OutputHandler<R, S>* s : seen_) duplicate |= (s == handler);
      if (duplicate) continue;
      seen_.push_back(handler);
      handler->OnLoss(side, first_seq, count);
    }
  }

  /// Every result of an epoch below `epoch` has been delivered: retire the
  /// queries removed at installs up to and including `epoch` (their last
  /// possible result carries an epoch below their removal boundary).
  void OnEpochDrained(Epoch epoch) override {
    if (epoch > drained_epoch_) drained_epoch_ = epoch;
    const Epoch limit =
        std::min<Epoch>(epoch, static_cast<Epoch>(epochs_.size()) - 1);
    while (!epochs_.empty() && next_retire_ <= limit) {
      for (QueryId q : epochs_[next_retire_].removed) Retire(q);
      ++next_retire_;
    }
  }

  std::size_t query_count() const { return handlers_.size(); }
  uint64_t collected(QueryId q) const {
    return q < counts_.size() ? counts_[q] : 0;
  }
  uint64_t total_collected() const { return total_; }
  uint64_t misrouted() const { return misrouted_; }
  /// Total tuples reported lost on `side` (sum of broadcast loss bounds).
  uint64_t lost(StreamSide side) const {
    return side == StreamSide::kR ? lost_r_ : lost_s_;
  }
  /// Number of distinct loss bounds delivered.
  uint64_t loss_bounds() const { return loss_bounds_; }
  /// Highest epoch known fully drained (all older results delivered).
  Epoch drained_epoch() const { return drained_epoch_; }
  bool retired(QueryId q) const {
    return q < retired_.size() && retired_[q] != 0;
  }

 private:
  struct EpochInfo {
    std::vector<uint8_t> member;   ///< by QueryId: live in this epoch?
    std::vector<QueryId> removed;  ///< removed at this epoch's install
  };

  /// Query registered, epoch declared, query a member of that epoch.
  /// Anything else is misrouted (a pipeline bug).
  bool Routable(const ResultMsg<R, S>& result) const {
    if (result.query >= handlers_.size()) return false;
    if (epochs_.empty()) return true;
    return result.epoch < epochs_.size() &&
           result.query < epochs_[result.epoch].member.size() &&
           epochs_[result.epoch].member[result.query] != 0;
  }

  void Retire(QueryId q) {
    if (q >= handlers_.size() || retired_[q] != 0) return;
    retired_[q] = 1;
    if (handlers_[q] != nullptr) handlers_[q]->OnQueryRetired(q);
  }

  std::vector<OutputHandler<R, S>*> handlers_;
  std::vector<uint64_t> counts_;
  std::vector<uint8_t> retired_;
  std::vector<EpochInfo> epochs_;
  std::vector<OutputHandler<R, S>*> seen_;  // per-broadcast dedupe scratch
  Epoch drained_epoch_ = 0;
  Epoch next_retire_ = 0;
  uint64_t total_ = 0;
  uint64_t misrouted_ = 0;
  uint64_t lost_r_ = 0;
  uint64_t lost_s_ = 0;
  uint64_t loss_bounds_ = 0;
};

/// Fans one stream out to two handlers.
template <typename R, typename S>
class TeeHandler : public OutputHandler<R, S> {
 public:
  TeeHandler(OutputHandler<R, S>* a, OutputHandler<R, S>* b) : a_(a), b_(b) {}

  void OnResult(const ResultMsg<R, S>& result) override {
    a_->OnResult(result);
    b_->OnResult(result);
  }
  void OnPunctuation(Timestamp tp) override {
    a_->OnPunctuation(tp);
    b_->OnPunctuation(tp);
  }
  void OnLoss(StreamSide side, Seq first_seq, uint64_t count) override {
    a_->OnLoss(side, first_seq, count);
    b_->OnLoss(side, first_seq, count);
  }

 private:
  OutputHandler<R, S>* a_;
  OutputHandler<R, S>* b_;
};

}  // namespace sjoin
