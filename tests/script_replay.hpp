// Replays a DriverScript into a raw pipeline's two ports: the driver of the
// suites that build a pipeline by hand (explicit store types, segment
// capacities, adversarial schedules). A Steppable, so a SequentialExecutor,
// the schedule fuzzer or a test thread beside a threaded pipeline runs it.
//
//  * R arrivals and S expiries take the left flow, S arrivals and R
//    expiries the right one; an expiry carries the opposite side's horizon
//    (SetExpiryHorizon). Flushes ride their own flow.
//  * Each flow releases its messages in batches of `batch`. While part of
//    a released batch waits on a full channel, both flows stall.
//  * With `expiry_gate` (LLHJ), an expiry enters only once its tuple has
//    completed. A gated expiry at the head of one flow flushes the other
//    flow's open batch, where the tuple it waits for may sit.
//  * With `admission`, a shed arrival consumes its seq, its gap becomes a
//    loss punctuation ahead of the side's next admitted arrival (or at the
//    end), and its expiry is dropped.
#pragma once

#include <set>
#include <vector>

#include "common/clock.hpp"
#include "runtime/executor.hpp"
#include "stream/admission.hpp"
#include "stream/hwm.hpp"
#include "stream/ports.hpp"
#include "stream/script.hpp"

namespace sjoin::test {

template <typename R, typename S>
class ScriptReplay : public Steppable {
 public:
  struct Options {
    std::size_t batch = 1;
    int events_per_step = 512;  ///< 1: one driver event per schedule round
    const HighWaterMarks* expiry_gate = nullptr;
    AdmissionController* admission = nullptr;
  };

  ScriptReplay(PipelinePorts<R, S> ports, const DriverScript<R, S>& script,
               Options options)
      : script_(script), o_(options), left_(ports.left), right_(ports.right) {}

  bool Step() override {
    bool progress = Push();
    const std::size_t end = script_.events.size();
    for (int n = 0; n < o_.events_per_step && next_ < end &&
                    !left_.stalled() && !right_.stalled();
         ++n, progress = true) {
      Route(script_.events[next_++]);
      if (next_ == end) {  // end of script: close the gaps, release all
        FlushGaps(StreamSide::kR);
        FlushGaps(StreamSide::kS);
        left_.ready = left_.buf.size();
        right_.ready = right_.buf.size();
      }
      Push();
    }
    return progress;
  }

  /// True once every message of the script has entered the channels.
  bool finished() const {
    return next_ == script_.events.size() && left_.buf.empty() &&
           right_.buf.empty();
  }

 private:
  template <typename T>
  struct Flow {
    explicit Flow(SpscQueue<FlowMsg<T>>* p) : port(p) {}
    SpscQueue<FlowMsg<T>>* port;
    std::vector<FlowMsg<T>> buf;  // [head, ready) released, then open
    std::size_t head = 0;
    std::size_t ready = 0;

    bool stalled() const { return head < ready; }
    void Add(const FlowMsg<T>& m, std::size_t batch) {
      buf.push_back(m);
      if (buf.size() - ready >= batch) ready = buf.size();
    }
    /// Pushes the released prefix up to the first expiry whose tuple has
    /// not completed; returns true when such an expiry heads the flow.
    bool Push(const HighWaterMarks* gate, bool* pushed) {
      std::size_t run = 0;
      for (; head + run < ready; ++run) {
        const FlowMsg<T>& m = buf[head + run];
        if (gate != nullptr && m.kind == MsgKind::kExpiry &&
            gate->CompletedSeq(m.ref_side) < static_cast<int64_t>(m.seq)) {
          break;
        }
      }
      const std::size_t n =
          run == 0 ? 0 : port->TryPushBurst(buf.data() + head, run);
      head += n;
      *pushed |= n > 0;
      if (head == buf.size()) {
        buf.clear();
        head = ready = 0;
      }
      return n == run && head < ready;
    }
  };

  bool Push() {
    bool pushed = false;
    if (left_.Push(o_.expiry_gate, &pushed) |
        right_.Push(o_.expiry_gate, &pushed)) {
      left_.ready = left_.buf.size();
      right_.ready = right_.buf.size();
      left_.Push(o_.expiry_gate, &pushed);
      right_.Push(o_.expiry_gate, &pushed);
    }
    return pushed;
  }

  void FlushGaps(StreamSide side) {
    LossBound g;
    while (o_.admission != nullptr && o_.admission->TakeGap(side, &g)) {
      if (side == StreamSide::kR) {
        left_.Add(MakeLossPunct<R>(side, g.first_seq, g.count), o_.batch);
      } else {
        right_.Add(MakeLossPunct<S>(side, g.first_seq, g.count), o_.batch);
      }
    }
  }

  template <typename T, typename P>
  void Arrive(Flow<T>* flow, StreamSide side, const DriverEvent<R, S>& e,
              const P& payload) {
    (side == StreamSide::kR ? next_r_ : next_s_) = e.seq + 1;
    const int64_t now = NowNs();
    if (o_.admission != nullptr &&
        o_.admission->ShouldShed(side, e.seq, now, now, 0)) {
      o_.admission->RecordShed(side, e.seq);
      shed_[static_cast<int>(side)].insert(e.seq);
      return;
    }
    FlushGaps(side);
    FlowMsg<T> m;
    m.kind = MsgKind::kArrival;
    m.seq = e.seq;
    m.ts = e.ts;
    m.arrival_wall_ns = now;
    m.payload = payload;
    flow->Add(m, o_.batch);
  }

  template <typename T>
  void Expire(Flow<T>* flow, StreamSide side, const DriverEvent<R, S>& e,
              Seq horizon) {
    if (shed_[static_cast<int>(side)].erase(e.seq) > 0) return;  // never held
    FlowMsg<T> m;
    m.kind = MsgKind::kExpiry;
    m.ref_side = side;
    m.seq = e.seq;
    m.ts = e.ts;
    SetExpiryHorizon(&m, horizon);
    flow->Add(m, o_.batch);
  }

  void Route(const DriverEvent<R, S>& e) {
    constexpr StreamSide kR = StreamSide::kR, kS = StreamSide::kS;
    FlowMsg<R> flush_r;
    FlowMsg<S> flush_s;
    flush_r.kind = flush_s.kind = MsgKind::kFlush;
    switch (e.op) {
      case DriverOp::kArriveR: return Arrive(&left_, kR, e, e.r);
      case DriverOp::kArriveS: return Arrive(&right_, kS, e, e.s);
      case DriverOp::kExpireR: return Expire(&right_, kR, e, next_s_);
      case DriverOp::kExpireS: return Expire(&left_, kS, e, next_r_);
      case DriverOp::kFlushR: return left_.Add(flush_r, o_.batch);
      case DriverOp::kFlushS: return right_.Add(flush_s, o_.batch);
    }
  }

  const DriverScript<R, S>& script_;
  Options o_;
  Flow<R> left_;
  Flow<S> right_;
  std::size_t next_ = 0;  // next script event
  Seq next_r_ = 0;  // one past the last arrival seq routed: expiry horizons
  Seq next_s_ = 0;
  std::set<Seq> shed_[2];  // shed arrival seqs per side, until their expiry
};

}  // namespace sjoin::test
