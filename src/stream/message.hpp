// Wire format of the pipeline channels. Both handshake-join variants send
// exactly these message kinds between neighbouring nodes:
//
//   left-to-right flow (FlowMsg<R>):  R arrivals, acknowledgements of
//     forwarded S tuples, expiry messages for S tuples, flush (R side).
//   right-to-left flow (FlowMsg<S>):  S arrivals, expiry messages for R
//     tuples, expedition-end messages for R tuples (LLHJ only, paper
//     Section 4.2.3), flush (S side).
//
// Messages are PODs so the SPSC channels stay trivially copyable.
#pragma once

#include <cstdint>

#include "common/types.hpp"

namespace sjoin {

enum class MsgKind : uint8_t {
  kArrival = 0,        ///< new or relocated tuple (payload valid)
  kAck = 1,            ///< acknowledgement of a forwarded opposite-stream tuple
  kExpiry = 2,         ///< window expiry of an opposite-stream tuple
  kExpeditionEnd = 3,  ///< LLHJ: tuple `seq` of R finished its expedition
  kFlush = 4,          ///< HSJ: force relocation of all resident tuples
  /// Query-epoch punctuation: the driver installed query epoch `epoch` at
  /// exactly this flow position. Injected into BOTH flows at the same
  /// driver-order boundary and cascaded node to node, so every node
  /// switches query sets at the same stream position per flow. A node that
  /// has seen the punctuation on both flows can no longer emit results of
  /// earlier epochs and publishes an epoch marker into its result queue
  /// (retired-epoch draining; see DESIGN.md Section 10).
  kEpochChange = 5,
  /// Loss punctuation: overload control shed a contiguous run of arrivals
  /// of stream `ref_side` AT INGEST (the shed tuples never entered the
  /// pipeline — no store ever held them, no expiry will ever reference
  /// them). The message rides the same flow the shed arrivals would have
  /// taken, so the loss bound is delivered in-band at its exact stream
  /// position. Field reuse (kept POD, no layout change): `seq` is the
  /// first shed sequence number and `ts` carries the run length
  /// (see MakeLossPunct / LossPunctCount). The pipeline entry node
  /// translates it into a result-queue loss marker (kLossMarkQuery) and
  /// does NOT cascade it — exactly-once accounting per gap.
  kLossPunctuation = 6,
};

/// FlowMsg flag bits.
inline constexpr uint8_t kMsgRelocated = 0x1;  ///< HSJ: relocation, not fresh
/// HSJ: the tuple's expiry caught it before it finished traversing the
/// pipeline. It continues as a non-resident "dying" traveller: it still
/// scans the remaining opposite segments (meeting partners that arrived
/// before its expiry) but is never stored again and self-discards at the
/// pipeline end. This realizes the idealized algorithm's "a tuple exits the
/// far end exactly when it expires" under discrete relocation.
inline constexpr uint8_t kMsgDying = 0x2;

/// A message travelling through one pipeline direction. T is the tuple type
/// of the stream that flows in this direction (payload is only meaningful
/// for kArrival; kAck/kExpiry reference an *opposite*-stream tuple by seq).
template <typename T>
struct FlowMsg {
  MsgKind kind = MsgKind::kArrival;
  uint8_t flags = 0;
  /// Which stream the referenced tuple belongs to. Meaningful for kExpiry:
  /// an expiry normally travels opposite to its tuple's flow, but while
  /// *chasing* a relocating tuple (HSJ, see DESIGN.md) it may ride either
  /// flow, so the side must be explicit.
  StreamSide ref_side = StreamSide::kR;
  uint16_t hops = 0;    ///< diagnostic hop counter (expiry chase guard)
  /// kArrival: the query epoch the tuple was pushed under (travels with the
  /// tuple through stores and relocations). kEpochChange: the epoch being
  /// installed at this flow position.
  Epoch epoch = 0;
  NodeId home = kNoNode;
  Seq seq = 0;
  Timestamp ts = 0;
  int64_t arrival_wall_ns = 0;
  T payload{};
};

/// True for tuple-arrival messages — the batchable kind of both pipeline
/// protocols (runs of arrivals are probed against the window stores in one
/// pass; control messages are handled one by one).
template <typename T>
constexpr bool IsArrival(const FlowMsg<T>& m) {
  return m.kind == MsgKind::kArrival;
}

/// Builds an arrival message from a stamped tuple.
template <typename T>
FlowMsg<T> MakeArrival(const Stamped<T>& t) {
  FlowMsg<T> msg;
  msg.kind = MsgKind::kArrival;
  msg.seq = t.seq;
  msg.ts = t.ts;
  msg.epoch = t.epoch;
  msg.arrival_wall_ns = t.arrival_wall_ns;
  msg.payload = t.value;
  return msg;
}

/// Builds the in-band loss punctuation for a shed run of `side` arrivals
/// beginning at sequence `first_seq`, `count` tuples long. T is the tuple
/// type of the flow the message rides (R-side losses ride the left flow,
/// S-side losses the right flow — the direction their arrivals would have
/// travelled).
/// Expiry horizon of an HSJ expiry (field reuse, kExpiry only): every
/// opposite-stream tuple with a sequence number at or above the horizon
/// was pushed after the expiry, so it must never match the expired tuple
/// (DESIGN.md Section 4, "HSJ expiry horizon"). `arrival_wall_ns`, unused
/// by expiries, carries horizon + 1; 0 means unknown (no filtering).
inline constexpr Seq kNoExpiryHorizon = ~Seq{0};

template <typename T>
void SetExpiryHorizon(FlowMsg<T>* msg, Seq next_opposite_seq) {
  msg->arrival_wall_ns = static_cast<int64_t>(next_opposite_seq) + 1;
}

template <typename T>
constexpr Seq ExpiryHorizon(const FlowMsg<T>& m) {
  return m.arrival_wall_ns > 0 ? static_cast<Seq>(m.arrival_wall_ns - 1)
                               : kNoExpiryHorizon;
}

template <typename T>
FlowMsg<T> MakeLossPunct(StreamSide side, Seq first_seq, uint64_t count) {
  FlowMsg<T> msg;
  msg.kind = MsgKind::kLossPunctuation;
  msg.ref_side = side;
  msg.seq = first_seq;
  msg.ts = static_cast<Timestamp>(count);
  return msg;
}

/// Run length of a loss punctuation (the documented `ts` field reuse).
template <typename T>
constexpr uint64_t LossPunctCount(const FlowMsg<T>& m) {
  return static_cast<uint64_t>(m.ts);
}

/// An exact loss bound as delivered to OutputHandler::OnLoss: `count`
/// consecutive arrivals of `side`, sequence numbers
/// [first_seq, first_seq + count), were shed at ingest by overload control.
struct LossBound {
  StreamSide side = StreamSide::kR;
  Seq first_seq = 0;
  uint64_t count = 0;
};

/// Sentinel QueryId of an epoch marker in a result queue: a node that has
/// seen the kEpochChange punctuation for epoch E on both of its input flows
/// emits {query = kEpochMarkQuery, epoch = E} into its result queue. FIFO
/// queue order then guarantees that once the collector has vacuumed the
/// marker for E from every node's queue, no result of an epoch < E is still
/// undelivered — the trigger for retiring removed queries.
inline constexpr QueryId kEpochMarkQuery = static_cast<QueryId>(-1);

/// A join result as produced inside the pipeline. `ts` is the result
/// timestamp max(t_r, t_s) (paper Section 6.1.2); `ready_wall_ns` is the
/// wall-clock arrival of the later input tuple, the latency reference point.
template <typename R, typename S>
struct ResultMsg {
  R r{};
  S s{};
  Seq r_seq = 0;
  Seq s_seq = 0;
  Timestamp ts = 0;
  int64_t ready_wall_ns = 0;
  NodeId origin = kNoNode;  ///< node that evaluated the predicate
  QueryId query = 0;        ///< which registered query this pair satisfied
  /// Query epoch whose set produced this result: max of the two input
  /// tuples' push epochs — i.e. the epoch the later input was pushed under.
  Epoch epoch = 0;
};

/// True iff `m` is an epoch marker, not a join result.
template <typename R, typename S>
constexpr bool IsEpochMark(const ResultMsg<R, S>& m) {
  return m.query == kEpochMarkQuery;
}

/// Sentinel QueryId of a loss marker in a result queue: the pipeline entry
/// node that consumes a kLossPunctuation republishes the bound into its
/// result queue under this id (field reuse: r_seq = first shed seq,
/// s_seq = run length, ts = shed side as 0/1). FIFO queue order delivers
/// the bound to the collector at its in-band position; the collector
/// translates it into OutputHandler::OnLoss instead of forwarding it.
inline constexpr QueryId kLossMarkQuery = static_cast<QueryId>(-2);

/// True iff `m` is a loss marker, not a join result.
template <typename R, typename S>
constexpr bool IsLossMark(const ResultMsg<R, S>& m) {
  return m.query == kLossMarkQuery;
}

template <typename R, typename S>
ResultMsg<R, S> MakeLossMark(StreamSide side, Seq first_seq, uint64_t count,
                             NodeId origin) {
  ResultMsg<R, S> mark;
  mark.query = kLossMarkQuery;
  mark.r_seq = first_seq;
  mark.s_seq = count;
  mark.ts = side == StreamSide::kR ? 0 : 1;
  mark.origin = origin;
  return mark;
}

/// Decodes a kLossMarkQuery result back into the exact bound.
template <typename R, typename S>
constexpr LossBound DecodeLossMark(const ResultMsg<R, S>& m) {
  return LossBound{m.ts == 0 ? StreamSide::kR : StreamSide::kS, m.r_seq,
                   m.s_seq};
}

template <typename R, typename S>
ResultMsg<R, S> MakeResult(const Stamped<R>& r, const Stamped<S>& s,
                           NodeId origin) {
  ResultMsg<R, S> out;
  out.r = r.value;
  out.s = s.value;
  out.r_seq = r.seq;
  out.s_seq = s.seq;
  out.ts = r.ts > s.ts ? r.ts : s.ts;
  out.ready_wall_ns = r.arrival_wall_ns > s.arrival_wall_ns
                          ? r.arrival_wall_ns
                          : s.arrival_wall_ns;
  out.origin = origin;
  out.epoch = r.epoch > s.epoch ? r.epoch : s.epoch;
  return out;
}

}  // namespace sjoin
