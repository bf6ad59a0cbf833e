// Kang's three-step procedure (paper Section 2.1, Kang et al. [10]): the
// sequential sliding-window join. For every arriving tuple the opposite
// window is scanned, expired tuples are removed, and the tuple is inserted
// into its own window. Latency-optimal but single-threaded.
//
// This is the tests' one reference (DESIGN.md Section 3). KangJoin consumes
// a driver script, as the raw pipelines do; KangReference takes a session's
// pushes. Either output defines correctness for the engine under test.
#pragma once

#include <algorithm>
#include <deque>
#include <functional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/clock.hpp"
#include "common/types.hpp"
#include "stream/handlers.hpp"
#include "stream/message.hpp"
#include "stream/script.hpp"
#include "stream/trace.hpp"
#include "stream/window.hpp"

namespace sjoin {

/// Unbounded result buffer; single-threaded use only.
template <typename R, typename S>
class VectorSink {
 public:
  void Emit(const ResultMsg<R, S>& result) { results_.push_back(result); }

  const std::vector<ResultMsg<R, S>>& results() const { return results_; }

 private:
  std::vector<ResultMsg<R, S>> results_;
};

template <typename R, typename S, typename Pred,
          typename Sink = VectorSink<R, S>>
class KangJoin {
 public:
  explicit KangJoin(Sink* sink, Pred pred = Pred{})
      : sink_(sink), pred_(pred) {}

  /// Applies one driver event (arrival or expiry; flushes are no-ops —
  /// Kang's matching is purely arrival-driven).
  void OnEvent(const DriverEvent<R, S>& event) {
    switch (event.op) {
      case DriverOp::kArriveR: {
        Stamped<R> r{event.r, event.seq, event.ts, NowNs()};
        for (const auto& s : ws_) {                      // step 1: scan
          if (pred_(r.value, s.value)) {
            sink_->Emit(MakeResult(r, s, kNoNode));
          }
        }
        wr_.push_back(r);                                // step 3: insert
        break;
      }
      case DriverOp::kArriveS: {
        Stamped<S> s{event.s, event.seq, event.ts, NowNs()};
        for (const auto& r : wr_) {
          if (pred_(r.value, s.value)) {
            sink_->Emit(MakeResult(r, s, kNoNode));
          }
        }
        ws_.push_back(s);
        break;
      }
      case DriverOp::kExpireR:                           // step 2: invalidate
        Erase(wr_, event.seq);
        break;
      case DriverOp::kExpireS:
        Erase(ws_, event.seq);
        break;
      case DriverOp::kFlushR:
      case DriverOp::kFlushS:
        break;
    }
  }

  void RunScript(const DriverScript<R, S>& script) {
    for (const auto& event : script.events) OnEvent(event);
  }

  std::size_t window_size(StreamSide side) const {
    return side == StreamSide::kR ? wr_.size() : ws_.size();
  }

 private:
  template <typename T>
  static void Erase(std::deque<Stamped<T>>& window, Seq seq) {
    // The driver expires oldest-first, so the front is the common case.
    if (!window.empty() && window.front().seq == seq) {
      window.pop_front();
      return;
    }
    for (auto it = window.begin(); it != window.end(); ++it) {
      if (it->seq == seq) {
        window.erase(it);
        return;
      }
    }
    throw std::logic_error("KangJoin: expiry for unknown tuple seq " +
                           std::to_string(seq));
  }

  Sink* sink_;
  Pred pred_;
  std::deque<Stamped<R>> wr_;
  std::deque<Stamped<S>> ws_;
};

/// Convenience oracle: runs a script through KangJoin, returns all results.
template <typename R, typename S, typename Pred>
std::vector<ResultMsg<R, S>> RunKangOracle(const DriverScript<R, S>& script,
                                           Pred pred = Pred{}) {
  VectorSink<R, S> sink;
  KangJoin<R, S, Pred> join(&sink, pred);
  join.RunScript(script);
  return sink.results();
}

/// KangJoin behind JoinSession's driver (core/join_session.hpp): the same
/// per-side seq numbering, timestamp clamp and ExpiryTracker, so a stream
/// pushed here and into a session of one query yields the same
/// (r_seq, s_seq) pairs. An arrival that `shed` names consumes its seq but
/// never enters a window, as a tuple shed at ingest. Results reach `out`
/// during the push of the pair's later input.
template <typename R, typename S, typename Pred>
class KangReference {
 public:
  using ShedFn = std::function<bool(StreamSide, Seq)>;

  KangReference(WindowSpec wr, WindowSpec ws, Pred pred,
                OutputHandler<R, S>* out, ShedFn shed = {})
      : sink_{out}, join_(&sink_, pred), tracker_(wr, ws),
        shed_(std::move(shed)) {}

  void PushR(const R& r, Timestamp ts) {
    DriverEvent<R, S> event;
    event.op = DriverOp::kArriveR;
    event.r = r;
    Push(StreamSide::kR, event, ts);
  }

  void PushS(const S& s, Timestamp ts) {
    DriverEvent<R, S> event;
    event.op = DriverOp::kArriveS;
    event.s = s;
    Push(StreamSide::kS, event, ts);
  }

  void PushR(std::span<const R> rs, std::span<const Timestamp> tss) {
    for (std::size_t i = 0; i < rs.size(); ++i) PushR(rs[i], tss[i]);
  }

  void PushS(std::span<const S> ss, std::span<const Timestamp> tss) {
    for (std::size_t i = 0; i < ss.size(); ++i) PushS(ss[i], tss[i]);
  }

 private:
  struct HandlerSink {
    OutputHandler<R, S>* out;
    void Emit(const ResultMsg<R, S>& m) { out->OnResult(m); }
  };

  void Push(StreamSide side, DriverEvent<R, S>& arrival, Timestamp ts) {
    ts = std::max(ts, last_ts_);
    last_ts_ = ts;
    StreamSide expired_side;
    Seq expired_seq;
    Timestamp expired_ts;
    while (tracker_.PopTimeExpiry(ts, &expired_side, &expired_seq,
                                  &expired_ts)) {
      Expire(expired_side, expired_seq);
    }
    const Seq seq = next_seq_[static_cast<int>(side)]++;
    if (shed_ && shed_(side, seq)) return;
    arrival.seq = seq;
    arrival.ts = ts;
    join_.OnEvent(arrival);
    if (tracker_.OnArrival(side, seq, ts, &expired_seq, &expired_ts)) {
      Expire(side, expired_seq);
    }
  }

  void Expire(StreamSide side, Seq seq) {
    DriverEvent<R, S> event;
    event.op =
        side == StreamSide::kR ? DriverOp::kExpireR : DriverOp::kExpireS;
    event.seq = seq;
    join_.OnEvent(event);
  }

  HandlerSink sink_;
  KangJoin<R, S, Pred, HandlerSink> join_;
  ExpiryTracker tracker_;
  ShedFn shed_;
  Seq next_seq_[2] = {0, 0};
  Timestamp last_ts_ = kMinTimestamp;
};

/// The reference result multiset of `trace` pushed tuple by tuple.
template <typename R, typename S, typename Pred>
std::vector<ResultMsg<R, S>> ReferenceResults(const Trace<R, S>& trace,
                                              WindowSpec wr, WindowSpec ws,
                                              Pred pred) {
  CollectingHandler<R, S> handler;
  KangReference<R, S, Pred> reference(wr, ws, pred, &handler);
  for (const auto& e : trace) {
    if (e.side == StreamSide::kR) {
      reference.PushR(e.r, e.ts);
    } else {
      reference.PushS(e.s, e.ts);
    }
  }
  return handler.results();
}

}  // namespace sjoin
