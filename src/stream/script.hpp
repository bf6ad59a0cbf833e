// The external driver of the paper (Section 4.2.4): it alone knows the
// window specification and translates a trace of arrivals into an explicit
// sequence of arrivals and expiries — the "driver script". Both engines
// (HSJ, LLHJ) and the tests' Kang reference consume the same script, which
// is what makes exact oracle comparisons possible: the script fixes the
// per-flow total orders that define the result set.
//
// Expiry rules:
//  * time window W:  a tuple with timestamp t_v expires strictly when the
//    driver processes an arrival with t > t_v + W (so t - t_v <= W still
//    matches — the inclusive boundary all engines share).
//  * count window k: after an arrival pushes its own stream past k live
//    tuples, the oldest tuple of that stream expires immediately.
//
// Flush events (kFlushR/kFlushS) are appended on request. They force the
// original handshake join to relocate all resident tuples so that pairs
// still separated inside the pipeline meet; LLHJ and the Kang reference
// ignore them (their matching is driven entirely by arrivals). See DESIGN.md.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "common/vec_deque.hpp"
#include "stream/trace.hpp"
#include "stream/window.hpp"

namespace sjoin {

enum class DriverOp : uint8_t {
  kArriveR,
  kArriveS,
  kExpireR,
  kExpireS,
  kFlushR,
  kFlushS,
};

constexpr bool IsArrival(DriverOp op) {
  return op == DriverOp::kArriveR || op == DriverOp::kArriveS;
}
constexpr bool IsExpiry(DriverOp op) {
  return op == DriverOp::kExpireR || op == DriverOp::kExpireS;
}

/// One driver action. For arrivals the matching payload field is set; for
/// expiries only `seq`/`ts` of the expiring tuple are meaningful.
template <typename R, typename S>
struct DriverEvent {
  DriverOp op = DriverOp::kArriveR;
  Seq seq = 0;
  Timestamp ts = 0;
  R r{};
  S s{};
};

template <typename R, typename S>
struct DriverScript {
  std::vector<DriverEvent<R, S>> events;
  Seq r_count = 0;  ///< number of R arrivals (seqs 0..r_count-1)
  Seq s_count = 0;
};

/// Incremental arrival -> arrivals+expiries translator. Used both by
/// BuildDriverScript (offline) and by the online feeders.
class ExpiryTracker {
 public:
  ExpiryTracker(WindowSpec wr, WindowSpec ws) : wr_(wr), ws_(ws) {}

  /// Expiries (side, seq) that must be emitted *before* an arrival with
  /// timestamp `t` (time-window rule). Call repeatedly until false.
  bool PopTimeExpiry(Timestamp t, StreamSide* side, Seq* seq,
                     Timestamp* expired_ts) {
    // Oldest-first across both streams so expiry order is deterministic.
    const bool r_due = wr_.is_time() && !live_r_.empty() &&
                       live_r_.front().ts + wr_.size < t;
    const bool s_due = ws_.is_time() && !live_s_.empty() &&
                       live_s_.front().ts + ws_.size < t;
    if (!r_due && !s_due) return false;
    bool take_r = r_due;
    if (r_due && s_due) take_r = live_r_.front().ts <= live_s_.front().ts;
    auto& q = take_r ? live_r_ : live_s_;
    *side = take_r ? StreamSide::kR : StreamSide::kS;
    *seq = q.front().seq;
    *expired_ts = q.front().ts;
    q.pop_front();
    return true;
  }

  /// Registers an arrival; returns (via out params) whether a count-window
  /// expiry of the same side must be emitted right after it.
  bool OnArrival(StreamSide side, Seq seq, Timestamp ts, Seq* expired_seq,
                 Timestamp* expired_ts) {
    auto& q = side == StreamSide::kR ? live_r_ : live_s_;
    const WindowSpec& spec = side == StreamSide::kR ? wr_ : ws_;
    q.push_back(Live{seq, ts});
    if (spec.is_count() && static_cast<int64_t>(q.size()) > spec.size) {
      *expired_seq = q.front().seq;
      *expired_ts = q.front().ts;
      q.pop_front();
      return true;
    }
    return false;
  }

  std::size_t live_count(StreamSide side) const {
    return side == StreamSide::kR ? live_r_.size() : live_s_.size();
  }

 private:
  struct Live {
    Seq seq;
    Timestamp ts;
  };

  WindowSpec wr_, ws_;
  // Live windows are pure FIFOs (push_back on arrival, pop_front on
  // expiry); VecDeque keeps them contiguous — the online feeders walk this
  // on every arrival, and std::deque is banned from hot-path dirs.
  VecDeque<Live> live_r_, live_s_;
};

/// Translates a trace into the full driver script.
template <typename R, typename S>
DriverScript<R, S> BuildDriverScript(const Trace<R, S>& trace, WindowSpec wr,
                                     WindowSpec ws, bool flush_at_end = true) {
  DriverScript<R, S> script;
  script.events.reserve(trace.size() * 2);
  ExpiryTracker tracker(wr, ws);

  for (const auto& event : trace) {
    StreamSide exp_side;
    Seq exp_seq;
    Timestamp exp_ts;
    while (tracker.PopTimeExpiry(event.ts, &exp_side, &exp_seq, &exp_ts)) {
      DriverEvent<R, S> e;
      e.op = exp_side == StreamSide::kR ? DriverOp::kExpireR
                                        : DriverOp::kExpireS;
      e.seq = exp_seq;
      e.ts = exp_ts;
      script.events.push_back(e);
    }

    DriverEvent<R, S> arrive;
    arrive.ts = event.ts;
    if (event.side == StreamSide::kR) {
      arrive.op = DriverOp::kArriveR;
      arrive.seq = script.r_count++;
      arrive.r = event.r;
    } else {
      arrive.op = DriverOp::kArriveS;
      arrive.seq = script.s_count++;
      arrive.s = event.s;
    }
    script.events.push_back(arrive);

    if (tracker.OnArrival(event.side, arrive.seq, arrive.ts, &exp_seq,
                          &exp_ts)) {
      DriverEvent<R, S> e;
      e.op = event.side == StreamSide::kR ? DriverOp::kExpireR
                                          : DriverOp::kExpireS;
      e.seq = exp_seq;
      e.ts = exp_ts;
      script.events.push_back(e);
    }
  }

  if (flush_at_end) {
    DriverEvent<R, S> flush_r;
    flush_r.op = DriverOp::kFlushR;
    DriverEvent<R, S> flush_s;
    flush_s.op = DriverOp::kFlushS;
    script.events.push_back(flush_r);
    script.events.push_back(flush_s);
  }
  return script;
}

}  // namespace sjoin
