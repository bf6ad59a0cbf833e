// Multi-query, batch-first session API — the public operator of this
// library. One JoinSession owns the complete operator state: the external
// driver (window bookkeeping, expiry generation), the join engine, the
// transport channels and the result collector. N queries (predicates of one
// type, e.g. band predicates with different bounds) share all of it:
//
//   JoinConfig config;
//   config.algorithm = Algorithm::kLowLatency;
//   config.window_r = WindowSpec::Time(5'000'000);
//   config.window_s = WindowSpec::Time(5'000'000);
//   JoinSession<RTuple, STuple, BandPredicate> session(config);
//   auto q0 = session.AddQuery(BandPredicate{10, 10.f}, &tight_handler);
//   auto q1 = session.AddQuery(BandPredicate{50, 50.f}, &wide_handler);
//   session.PushR(r, ts);                  // per-tuple ingestion
//   session.PushR(std::span(rs), std::span(tss));  // batch-first ingestion
//   session.Poll();
//   session.FinishInput();
//
// Every window crossing evaluates all registered predicates in a single
// store traversal; each result is tagged with the QueryId that produced it
// and routed to that query's handler (punctuations broadcast to all).
// Transport and window maintenance — the dominant hot-path costs (paper
// Section 7) — are therefore paid once per tuple, not once per query.
//
// Live query lifecycle (DESIGN.md Section 10): AddQuery/RemoveQuery also
// work on a RUNNING session. Each mutation installs a new query *epoch* at
// the current driver-order boundary: an in-band kEpochChange punctuation
// flows through the same channels as the tuples, so every pipeline node
// switches sets at the same stream position, deterministically. Results are
// attributed to the epoch of the later-pushed input of the pair (the
// `ResultMsg::epoch` tag); an added query starts matching pairs whose later
// input is pushed after the install, a removed query stops at exactly that
// boundary and its handler receives a final punctuation (OnQueryRetired)
// once its last result has drained — never a post-removal result.
//
// Rules:
//  * At least one query must be live before the first Push.
//  * Timestamps must be non-decreasing across both Push sides (stream
//    order); batch pushes are equivalent to the per-tuple loop over their
//    span, and a batch is ordered internally by span index.
//  * Baseline engines (Kang, CellJoin) support multi-query through a union
//    predicate plus per-match fan-out at the sink — same semantics, no
//    shared-traversal speedup (they exist as oracles, not deployments).
//    Being synchronous, their epoch installs take effect (and drain)
//    immediately at the call.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "baseline/cell_join.hpp"
#include "baseline/kang_join.hpp"
#include "common/clock.hpp"
#include "common/contracts.hpp"
#include "common/types.hpp"
#include "hsj/hsj_pipeline.hpp"
#include "llhj/home_policy.hpp"
#include "llhj/llhj_pipeline.hpp"
#include "runtime/backoff.hpp"
#include "runtime/executor.hpp"
#include "runtime/placement.hpp"
#include "runtime/topology.hpp"
#include "stream/admission.hpp"
#include "stream/collector.hpp"
#include "stream/handlers.hpp"
#include "stream/message.hpp"
#include "stream/ports.hpp"
#include "stream/query_set.hpp"
#include "stream/script.hpp"
#include "stream/window.hpp"

namespace sjoin {

/// The four join engines of this library.
enum class Algorithm : uint8_t {
  kKang,        ///< sequential three-step procedure (Section 2.1)
  kCellJoin,    ///< parallel window scan (Section 2.2.1)
  kHandshake,   ///< original handshake join (Section 2.3)
  kLowLatency,  ///< low-latency handshake join (Section 4)
};

constexpr const char* ToString(Algorithm a) {
  switch (a) {
    case Algorithm::kKang:
      return "kang";
    case Algorithm::kCellJoin:
      return "celljoin";
    case Algorithm::kHandshake:
      return "handshake";
    case Algorithm::kLowLatency:
      return "llhj";
  }
  return "?";
}

struct JoinConfig {
  Algorithm algorithm = Algorithm::kLowLatency;

  /// Pipeline nodes (HSJ/LLHJ) or scan threads (CellJoin: parallelism - 1
  /// workers next to the caller thread). Must be >= 1.
  int parallelism = 4;

  WindowSpec window_r = WindowSpec::Count(1024);
  WindowSpec window_s = WindowSpec::Count(1024);

  /// Pipeline tuning. Capacities must be non-zero. Channels need to hold
  /// about one driver batch plus a consumer's wake-up (DESIGN.md Sections
  /// 5 and 16); deeper channels only add queueing delay once the pipeline
  /// is the bottleneck.
  std::size_t channel_capacity = 128;
  std::size_t result_capacity = 1 << 16;
  int msgs_per_step = 8;
  HomePolicy home_policy = HomePolicy::kRoundRobin;

  /// Emit punctuations into the output stream (LLHJ only, Section 6).
  bool punctuate = false;

  /// Run pipeline nodes on their own pinned threads. When false, the
  /// pipeline advances inside Push/Poll on the caller's thread
  /// (deterministic; useful for tests and small workloads).
  bool threaded = true;

  /// Hardware placement policy for threaded pipelines (see
  /// runtime/placement.hpp): where node threads are pinned and which NUMA
  /// node each channel ring is homed on (always the consumer's). kAuto
  /// degrades to flat sibling-order pinning on single-socket hosts;
  /// kNone pins and binds nothing. Ignored when threaded == false.
  PlacementPolicy placement = PlacementPolicy::kAuto;

  /// Hardware model to place over. Null = detect once at session start
  /// (the detected topology is cached and reused for the session's whole
  /// lifetime). Tests inject synthetic shapes here; deployments on
  /// restricted cpusets can pass a pre-filtered topology.
  std::shared_ptr<const Topology> topology;

  /// HSJ only: expected window size in tuples used to derive the per-node
  /// segment capacity. Required (> 0) when either window is time-based —
  /// it must be a *lower* estimate of the live window (smaller segments
  /// mean more relocation, which is always correct; larger ones strand
  /// tuples). Ignored for count windows.
  int64_t hsj_window_tuples_hint = 0;

  /// Overload control (DESIGN.md Section 12). When a latency budget is set
  /// (> 0, microseconds) together with a shedding policy, tuples whose
  /// projected end-to-end latency exceeds the budget are shed AT INGEST —
  /// never mid-window — and every gap is announced in-band to the handlers
  /// via OutputHandler::OnLoss with exact per-side (first_seq, count)
  /// bounds. 0 + kNone (the default) disables admission entirely; bounded
  /// queues then provide lossless backpressure as before.
  int64_t latency_budget_us = 0;
  OverloadPolicy overload_policy = OverloadPolicy::kNone;
};

/// Rejects configurations that would misbehave silently. Throws
/// std::invalid_argument with a message naming the offending field AND the
/// offending value (a validation error should be self-diagnosing).
inline void ValidateJoinConfig(const JoinConfig& config) {
  if (config.parallelism < 1) {
    throw std::invalid_argument(
        "JoinConfig: parallelism must be >= 1, got " +
        std::to_string(config.parallelism));
  }
  if (config.channel_capacity == 0) {
    throw std::invalid_argument(
        "JoinConfig: channel_capacity must be > 0, got " +
        std::to_string(config.channel_capacity) +
        " (bounded channels provide the backpressure; zero would make every "
        "push undeliverable)");
  }
  if (config.result_capacity == 0) {
    throw std::invalid_argument("JoinConfig: result_capacity must be > 0, "
                                "got " +
                                std::to_string(config.result_capacity));
  }
  if (config.msgs_per_step < 1) {
    throw std::invalid_argument(
        "JoinConfig: msgs_per_step must be >= 1, got " +
        std::to_string(config.msgs_per_step));
  }
  if (static_cast<uint8_t>(config.placement) >
      static_cast<uint8_t>(PlacementPolicy::kNone)) {
    throw std::invalid_argument(
        "JoinConfig: placement must be auto|compact|scatter|none, got enum "
        "value " +
        std::to_string(static_cast<int>(config.placement)));
  }
  if (config.hsj_window_tuples_hint < 0) {
    // When given at all (non-zero), the hint must be a usable window size.
    throw std::invalid_argument(
        "JoinConfig: hsj_window_tuples_hint must be >= 1 when given, got " +
        std::to_string(config.hsj_window_tuples_hint));
  }
  if (config.algorithm == Algorithm::kHandshake &&
      (config.window_r.is_time() || config.window_s.is_time()) &&
      config.hsj_window_tuples_hint <= 0) {
    throw std::invalid_argument(
        "JoinConfig: a handshake join over time windows requires "
        "hsj_window_tuples_hint (> 0), a lower estimate of the live window "
        "in tuples, to size the per-node segments; got " +
        std::to_string(config.hsj_window_tuples_hint));
  }
  if (config.latency_budget_us < 0) {
    throw std::invalid_argument(
        "JoinConfig: latency_budget_us must be >= 0 (0 disables admission), "
        "got " +
        std::to_string(config.latency_budget_us));
  }
  if (config.overload_policy != OverloadPolicy::kNone &&
      config.latency_budget_us == 0) {
    throw std::invalid_argument(
        std::string("JoinConfig: overload_policy \"") +
        ToString(config.overload_policy) +
        "\" requires a latency budget to shed against; got "
        "latency_budget_us = 0 (set a positive budget, or use policy "
        "\"none\")");
  }
}

template <typename R, typename S, typename Pred>
class JoinSession {
 public:
  /// Identifies a registered query; results of query `id` are routed to the
  /// handler passed to the AddQuery call that returned this handle.
  struct QueryHandle {
    QueryId id = 0;
  };

  explicit JoinSession(const JoinConfig& config)
      : config_(config), tracker_(config.window_r, config.window_s) {
    ValidateJoinConfig(config_);
  }

  ~JoinSession() { Stop(); }

  JoinSession(const JoinSession&) = delete;
  JoinSession& operator=(const JoinSession&) = delete;

  /// Registers a query: `pred` is evaluated at every window crossing,
  /// matches are delivered to `handler` (null = count only). May be called
  /// before the first Push (part of epoch 0) or on a live session — then a
  /// new epoch is staged and installed at the current driver-order
  /// boundary, and the query matches every pair whose later input is pushed
  /// from here on.
  QueryHandle AddQuery(Pred pred, OutputHandler<R, S>* handler) {
    const QueryId id = static_cast<QueryId>(preds_.size());
    preds_.push_back(pred);
    live_.push_back(1);
    const QueryId routed = router_.Register(handler);
    if (routed != id) {
      throw std::logic_error("JoinSession: query id/router id diverged");
    }
    if (started_) InstallEpoch({});
    return QueryHandle{id};
  }

  /// Removes a live query at the current driver-order boundary: it matches
  /// no pair whose later input is pushed after this call. Its handler stays
  /// registered until every in-flight result of older epochs has drained,
  /// then receives the final punctuation (OnQueryRetired). Returns false
  /// when the handle is unknown or already removed.
  bool RemoveQuery(QueryHandle handle) {
    const QueryId id = handle.id;
    if (id >= live_.size() || live_[id] == 0) return false;
    live_[id] = 0;
    if (started_) {
      InstallEpoch({id});
    } else {
      pre_start_removed_.push_back(id);  // retired at start (never ran)
    }
    return true;
  }

  /// Number of live (registered and not removed) queries.
  std::size_t query_count() const { return LiveCount(); }

  /// True while `id` is registered and not removed.
  bool query_live(QueryId id) const {
    return id < live_.size() && live_[id] != 0;
  }

  // -- Per-tuple ingestion ---------------------------------------------------

  void PushR(const R& r, Timestamp ts) {
    BindDriver(DriverMode::kInternal, "PushR");
    EnsureStarted();
    ts = Monotonic(ts);
    EmitTimeExpiries(ts);
    const Seq seq = r_seq_++;
    if (ShedAtIngest(StreamSide::kR, seq)) return;  // tracker never sees it
    EmitPendingLoss(StreamSide::kR);
    DriverEvent<R, S> event;
    event.op = DriverOp::kArriveR;
    event.seq = seq;
    event.ts = ts;
    event.r = r;
    Dispatch(event);
    EmitCountExpiry(StreamSide::kR, event.seq, ts);
    DrainIfSynchronous();
  }

  void PushS(const S& s, Timestamp ts) {
    BindDriver(DriverMode::kInternal, "PushS");
    EnsureStarted();
    ts = Monotonic(ts);
    EmitTimeExpiries(ts);
    const Seq seq = s_seq_++;
    if (ShedAtIngest(StreamSide::kS, seq)) return;
    EmitPendingLoss(StreamSide::kS);
    DriverEvent<R, S> event;
    event.op = DriverOp::kArriveS;
    event.seq = seq;
    event.ts = ts;
    event.s = s;
    Dispatch(event);
    EmitCountExpiry(StreamSide::kS, event.seq, ts);
    DrainIfSynchronous();
  }

  // -- Batch-first ingestion -------------------------------------------------
  //
  // Semantically identical to the per-tuple loop over the spans, but whole
  // arrival runs are staged as FlowMsgs and handed to the pipeline's burst
  // transport in one blocking burst push — one channel index update per
  // run instead of per tuple, and the nodes' batch-aware matching then
  // probes the run against each window store in a single pass. Window
  // expiries triggered inside the span are staged *into* the same flow at
  // their exact position, so flow order (the correctness anchor of both
  // handshake protocols) is preserved.

  void PushR(std::span<const R> rs, std::span<const Timestamp> tss) {
    if (rs.size() != tss.size()) {
      throw std::invalid_argument(
          "JoinSession::PushR: tuple and timestamp spans differ in size");
    }
    BindDriver(DriverMode::kInternal, "PushR");
    EnsureStarted();
    if (!Pipelined()) {  // baseline engines: synchronous, nothing to batch
      for (std::size_t i = 0; i < rs.size(); ++i) PushR(rs[i], tss[i]);
      return;
    }
    batch_side_ = StreamSide::kR;
    for (std::size_t i = 0; i < rs.size(); ++i) {
      const Timestamp ts = Monotonic(tss[i]);
      StageTimeExpiries(ts);
      const Seq seq = r_seq_++;
      if (ShedAtIngest(StreamSide::kR, seq)) continue;
      StagePendingLoss(StreamSide::kR);
      FlowMsg<R> msg;
      msg.kind = MsgKind::kArrival;
      msg.seq = seq;
      msg.ts = ts;
      msg.epoch = current_epoch_;
      msg.arrival_wall_ns = NowNs();
      msg.payload = rs[i];
      left_stage_.push_back(msg);
      NoteArrival(StreamSide::kR, seq);
      StageCountExpiry(StreamSide::kR, msg.seq, ts);
    }
    FlushStages();
    DrainIfSynchronous();
  }

  void PushS(std::span<const S> ss, std::span<const Timestamp> tss) {
    if (ss.size() != tss.size()) {
      throw std::invalid_argument(
          "JoinSession::PushS: tuple and timestamp spans differ in size");
    }
    BindDriver(DriverMode::kInternal, "PushS");
    EnsureStarted();
    if (!Pipelined()) {
      for (std::size_t i = 0; i < ss.size(); ++i) PushS(ss[i], tss[i]);
      return;
    }
    batch_side_ = StreamSide::kS;
    for (std::size_t i = 0; i < ss.size(); ++i) {
      const Timestamp ts = Monotonic(tss[i]);
      StageTimeExpiries(ts);
      const Seq seq = s_seq_++;
      if (ShedAtIngest(StreamSide::kS, seq)) continue;
      StagePendingLoss(StreamSide::kS);
      FlowMsg<S> msg;
      msg.kind = MsgKind::kArrival;
      msg.seq = seq;
      msg.ts = ts;
      msg.epoch = current_epoch_;
      msg.arrival_wall_ns = NowNs();
      msg.payload = ss[i];
      right_stage_.push_back(msg);
      NoteArrival(StreamSide::kS, seq);
      StageCountExpiry(StreamSide::kS, msg.seq, ts);
    }
    FlushStages();
    DrainIfSynchronous();
  }

  // -- External-driver ingestion (sharding) ----------------------------------
  //
  // A ShardedJoinSession (core/sharded_session.hpp) owns ONE global driver —
  // window bookkeeping, sequence numbering, monotonic timestamps, admission —
  // and feeds N member sessions pre-driven events: arrivals with their
  // already-assigned global seq, explicit expiries, and in-band loss bounds.
  // These entry points therefore bypass this session's tracker, seq counters
  // and admission entirely; they exist for that owner, and mixing them with
  // the internal PushR/PushS driver on one session is a programming error
  // (two drivers would double-book windows) — rejected by BindDriver.

  /// Builds the engine without pushing anything: a sharded owner needs all
  /// member sessions live before the first tuple is partitioned.
  void Start() { EnsureStarted(); }

  /// Delivers one R arrival carrying an externally assigned sequence number
  /// and an already-monotonic timestamp.
  void PushRAt(const R& r, Timestamp ts, Seq seq) {
    BindDriver(DriverMode::kExternal, "PushRAt");
    ext_r_arrival_order_.AssertAdvance(static_cast<long long>(seq),
                                       "JoinSession", "external R arrival seq",
                                       /*strict=*/true);
    EnsureStarted();
    DriverEvent<R, S> event;
    event.op = DriverOp::kArriveR;
    event.seq = seq;
    event.ts = ts;
    event.r = r;
    Dispatch(event);
    DrainIfSynchronous();
  }

  /// Delivers one S arrival (see PushRAt).
  void PushSAt(const S& s, Timestamp ts, Seq seq) {
    BindDriver(DriverMode::kExternal, "PushSAt");
    ext_s_arrival_order_.AssertAdvance(static_cast<long long>(seq),
                                       "JoinSession", "external S arrival seq",
                                       /*strict=*/true);
    EnsureStarted();
    DriverEvent<R, S> event;
    event.op = DriverOp::kArriveS;
    event.seq = seq;
    event.ts = ts;
    event.s = s;
    Dispatch(event);
    DrainIfSynchronous();
  }

  /// Delivers the window expiry of tuple `seq` of `expired_side`, which must
  /// have been delivered to THIS session earlier (an expiry for a tuple the
  /// session never saw would tombstone-leak in LLHJ and stall its
  /// completion gate).
  void PushExpiry(StreamSide expired_side, Seq seq, Timestamp ts) {
    BindDriver(DriverMode::kExternal, "PushExpiry");
    (expired_side == StreamSide::kR ? ext_r_expiry_order_
                                    : ext_s_expiry_order_)
        .AssertAdvance(static_cast<long long>(seq), "JoinSession",
                       "external expiry seq", /*strict=*/true);
    EnsureStarted();
    // HSJ has no per-tuple completion notion to gate an expiry on (cf.
    // WaitTupleCompleted for LLHJ). The internal driver relies on the
    // bounded-lag regime: a count-window expiry trails its tuple's arrival
    // by a full window of pushes, far more than the lag budget. An
    // external (sharding) driver thins each stream and may push the next
    // arrival right behind the expiry, so two races open up that the lag
    // budget cannot close: (a) the expiry overtaking its tuple's arrival
    // mid-channel, and (b) a trailing opposite-side arrival crossing the
    // victim while the expiry chase is bounced off a concurrent segment
    // relocation. Close (a) by draining the channels before the expiry
    // enters (every prior arrival stored), and (b) by letting the pipeline
    // settle afterwards, so the chase has fully resolved before any later
    // message enters.
    const bool hsj_threaded = hsj_ != nullptr && config_.threaded;
    if (hsj_threaded) {
      Backoff backoff;
      while (hsj_->ApproxChannelBacklog() > 0) backoff.Pause();
    }
    DriverEvent<R, S> event;
    event.op = expired_side == StreamSide::kR ? DriverOp::kExpireR
                                              : DriverOp::kExpireS;
    event.seq = seq;
    event.ts = ts;
    Dispatch(event);
    if (hsj_threaded) AwaitHsjSettled();
    DrainIfSynchronous();
  }

  /// Delivers an externally accounted loss bound at the current stream
  /// position: in-band on the flow the shed arrivals would have taken
  /// (pipelined engines), or straight to the router (synchronous
  /// baselines). The sharded owner injects each gap into exactly one
  /// member session — exactly-once accounting per gap.
  void InjectLoss(StreamSide side, Seq first_seq, uint64_t count) {
    BindDriver(DriverMode::kExternal, "InjectLoss");
    EnsureStarted();
    if (Pipelined()) {
      PipelinePorts<R, S> ports =
          hsj_ != nullptr ? hsj_->ports() : llhj_->ports();
      if (side == StreamSide::kR) {
        PushBlocking(ports.left, MakeLossPunct<R>(side, first_seq, count));
      } else {
        PushBlocking(ports.right, MakeLossPunct<S>(side, first_seq, count));
      }
      DrainIfSynchronous();
      return;
    }
    router_.OnLoss(side, first_seq, count);
  }

  /// Driver-visible backlog (messages queued in the pipeline's channels;
  /// result queues excluded). The sharded owner sums this across member
  /// sessions to feed its own admission projection.
  std::size_t ingest_backlog() const { return ApproxIngestBacklog(); }

  // -- Output ----------------------------------------------------------------

  /// Delivers pending results (and punctuations) to the per-query handlers.
  /// For non-threaded pipelines this also advances the pipeline.
  void Poll() {
    if (collector_ == nullptr) return;  // Kang/Cell deliver synchronously
    if (!config_.threaded) sequential_.RunUntilQuiescent();
    collector_->VacuumOnce();
  }

  /// Ends the input: flushes the handshake-join pipeline (so pairs still
  /// separated inside it meet) and drains everything to the handlers.
  void FinishInput() {
    if (!started_ || finished_) return;
    finished_ = true;
    // Close out any still-open loss gaps: there is no next admitted tuple
    // to carry them, and the accounting must be complete before the drain.
    EmitPendingLoss(StreamSide::kR);
    EmitPendingLoss(StreamSide::kS);
    if (hsj_ != nullptr) {
      DriverEvent<R, S> flush_r;
      flush_r.op = DriverOp::kFlushR;
      Dispatch(flush_r);
      DriverEvent<R, S> flush_s;
      flush_s.op = DriverOp::kFlushS;
      Dispatch(flush_s);
    }
    if (collector_ == nullptr) return;
    if (!config_.threaded) {
      sequential_.RunUntilQuiescent();
      collector_->VacuumOnce();
      return;
    }
    WaitQuiescentThreaded();
  }

  void Stop() {
    if (executor_ != nullptr) executor_->Stop();
    if (collector_ != nullptr) collector_->VacuumOnce();
  }

  // -- Introspection ---------------------------------------------------------

  uint64_t results_collected() const {
    return collector_ != nullptr ? collector_->total_collected()
                                 : router_.total_collected();
  }

  /// Results routed to query `q` so far (any engine).
  uint64_t results_collected(QueryId q) const { return router_.collected(q); }

  Algorithm algorithm() const { return config_.algorithm; }
  const JoinConfig& config() const { return config_; }
  /// Placement plan the pipeline threads were pinned with (empty until a
  /// threaded session starts).
  const PlacementPlan& placement() const { return plan_; }
  bool started() const { return started_; }

  /// Epoch of the query set currently being installed into pushes: results
  /// of pairs whose later input is pushed now carry this epoch.
  Epoch current_epoch() const { return current_epoch_; }

  /// Highest epoch known fully drained: every result of an older epoch has
  /// been delivered, and queries removed at or before that boundary have
  /// received their final punctuation. Advanced by Poll/FinishInput as the
  /// per-node epoch markers arrive (baseline engines drain synchronously).
  Epoch drained_epoch() const { return router_.drained_epoch(); }

  /// Diagnostics for tests: anomaly counters (and misrouted results) must
  /// stay zero.
  uint64_t pipeline_anomalies() const {
    uint64_t n = router_.misrouted();
    if (hsj_ != nullptr) n += hsj_->total_anomalies();
    if (llhj_ != nullptr) n += llhj_->total_anomalies();
    return n;
  }

  /// Overload-control introspection. `admission()` is mutable so tests can
  /// install the deterministic force-shed hook before the first Push.
  AdmissionController& admission() { return admission_; }
  const AdmissionController& admission() const { return admission_; }

  /// Ground truth: tuples shed at ingest per side.
  uint64_t tuples_shed(StreamSide side) const {
    return admission_.shed_count(side);
  }

  /// Tuples reported lost to the handlers so far (sum of all delivered
  /// OnLoss bounds). Equals tuples_shed once the stream has drained — the
  /// exact-accounting invariant.
  uint64_t tuples_lost_reported(StreamSide side) const {
    return router_.lost(side);
  }

 private:
  using Snapshot = QueryEpochSnapshot<Pred>;

  /// Baseline engines evaluate the union of the ACTIVE epoch's predicates
  /// while scanning; the sink then fans each match out to the queries that
  /// actually satisfied it (per-query re-evaluation only on the hit path).
  /// Both read the session's active snapshot at call time, so a live epoch
  /// install (which swaps the snapshot between driver events) takes effect
  /// at exactly the next event.
  struct UnionPred {
    const JoinSession* session = nullptr;
    bool operator()(const R& r, const S& s) const {
      return session->active_snap_->set.AnyMatch(r, s);
    }
  };

  struct FanOutSink {
    JoinSession* session = nullptr;
    void Emit(const ResultMsg<R, S>& m) {
      const Snapshot& snap = *session->active_snap_;
      snap.set.Match(m.r, m.s, [&](QueryId lane) {
        ResultMsg<R, S> tagged = m;
        tagged.query = snap.GlobalId(lane);
        // Baselines evaluate at the later input's push; the active epoch
        // IS that input's epoch.
        tagged.epoch = snap.epoch;
        session->router_.OnResult(tagged);
      });
    }
  };

  /// Sits between the collector and the query router so the session can
  /// observe every result's end-to-end latency (feeding the admission
  /// EWMA) without the router or the handlers knowing about it. Only an
  /// enabled controller reads the EWMA (OverBudget), so with admission off
  /// the observer neither reads the clock nor updates it; with admission
  /// on it reads the clock once per burst.
  struct ResultObserver : OutputHandler<R, S> {
    JoinSession* session = nullptr;
    void OnResult(const ResultMsg<R, S>& m) override { OnResultBurst(&m, 1); }
    void OnResultBurst(const ResultMsg<R, S>* run, std::size_t n) override {
      AdmissionController& admission = session->admission_;
      if (admission.enabled()) {
        const int64_t now = NowNs();
        for (std::size_t i = 0; i < n; ++i) {
          if (run[i].ready_wall_ns > 0) {
            admission.ObserveResult(now - run[i].ready_wall_ns, now);
          }
        }
      }
      session->router_.OnResultBurst(run, n);
    }
    void OnPunctuation(Timestamp tp) override {
      session->router_.OnPunctuation(tp);
    }
    void OnLoss(StreamSide side, Seq first_seq, uint64_t count) override {
      session->router_.OnLoss(side, first_seq, count);
    }
    void OnEpochDrained(Epoch epoch) override {
      session->router_.OnEpochDrained(epoch);
    }
    void OnQueryRetired(QueryId query) override {
      session->router_.OnQueryRetired(query);
    }
  };

  bool Pipelined() const { return hsj_ != nullptr || llhj_ != nullptr; }

  /// Which driver owns this session's windows: the internal one (PushR/
  /// PushS run tracker, seq counters and admission) or an external sharding
  /// driver (PushRAt/PushSAt/PushExpiry/InjectLoss deliver pre-driven
  /// events). The first ingestion call binds the mode; mixing modes would
  /// double-book the windows and is rejected as a programming error.
  enum class DriverMode : uint8_t { kUnset, kInternal, kExternal };

  void BindDriver(DriverMode mode, const char* method) {
    driver_role_.AssertHeld("JoinSession", "driver");
    if (driver_mode_ == DriverMode::kUnset) driver_mode_ = mode;
    if (driver_mode_ != mode) {
      throw std::logic_error(
          std::string("JoinSession::") + method +
          ": cannot mix internal (PushR/PushS) and external (PushRAt/"
          "PushSAt/PushExpiry/InjectLoss) driver modes on one session; "
          "this session is already driven " +
          (driver_mode_ == DriverMode::kInternal ? "internally"
                                                 : "externally"));
    }
  }

  std::size_t LiveCount() const {
    std::size_t n = 0;
    for (uint8_t alive : live_) n += alive;
    return n;
  }

  std::vector<QueryId> LiveIds() const {
    std::vector<QueryId> ids;
    for (QueryId q = 0; q < live_.size(); ++q) {
      if (live_[q] != 0) ids.push_back(q);
    }
    return ids;
  }

  QuerySet<Pred> LiveSet() const {
    std::vector<Pred> preds;
    for (QueryId q = 0; q < live_.size(); ++q) {
      if (live_[q] != 0) preds.push_back(preds_[q]);
    }
    return QuerySet<Pred>(std::move(preds));
  }

  /// Builds the engine on the first Push; the live set becomes epoch 0.
  void EnsureStarted() {
    if (started_) return;
    if (LiveCount() == 0) {
      // Self-diagnosing like ValidateJoinConfig: name the state observed.
      throw std::logic_error(
          "JoinSession: cannot start ingestion with 0 live queries "
          "(session state: not started, " + std::to_string(preds_.size()) +
          " registered, " + std::to_string(pre_start_removed_.size()) +
          " removed before start); register at least one query via "
          "AddQuery before the first Push");
    }
    started_ = true;
    {
      AdmissionController::Options adm;
      adm.budget_ns = config_.latency_budget_us * 1000;
      adm.policy = config_.overload_policy;
      admission_.Configure(adm);  // preserves a pre-installed force hook
    }
    observer_.session = this;
    QuerySet<Pred> initial = LiveSet();
    std::vector<QueryId> ids = LiveIds();
    router_.BeginEpoch(0, ids, pre_start_removed_);
    switch (config_.algorithm) {
      case Algorithm::kKang:
        SetUpBaselineEpoch(std::move(initial), std::move(ids));
        fan_out_ = FanOutSink{this};
        kang_ = std::make_unique<KangJoin<R, S, UnionPred, FanOutSink>>(
            &fan_out_, UnionPred{this});
        break;
      case Algorithm::kCellJoin: {
        SetUpBaselineEpoch(std::move(initial), std::move(ids));
        fan_out_ = FanOutSink{this};
        typename CellJoin<R, S, UnionPred, FanOutSink>::Options options;
        options.workers = config_.parallelism - 1;
        cell_ = std::make_unique<CellJoin<R, S, UnionPred, FanOutSink>>(
            &fan_out_, UnionPred{this}, options);
        break;
      }
      case Algorithm::kHandshake: {
        typename HsjPipeline<R, S, Pred>::Options options;
        options.nodes = config_.parallelism;
        options.result_capacity = config_.result_capacity;
        options.msgs_per_step = config_.msgs_per_step;
        const int64_t window_tuples = HsjWindowTuples();
        // Segments self-balance (capacity 0), adapting to the live window.
        // HSJ correctness requires the driver's lead over the pipeline to
        // stay well below the window (DESIGN.md, bounded-lag regime): cap
        // the entry channels, and additionally gate pushes on the total
        // pipeline backlog (see Dispatch) since thread starvation can build
        // backlog in interior channels too.
        options.channel_capacity = std::min<std::size_t>(
            config_.channel_capacity,
            std::max<std::size_t>(
                8, static_cast<std::size_t>(window_tuples / 4)));
        hsj_lag_budget_ = std::max<std::size_t>(
            16, static_cast<std::size_t>(window_tuples / 2));
        options.placement = SessionPlacement();
        hsj_ = std::make_unique<HsjPipeline<R, S, Pred>>(options, initial,
                                                         std::move(ids));
        registry_ = hsj_->registry();
        collector_ = hsj_->MakeCollector(&observer_);
        SetUpExecutor(hsj_->nodes());
        break;
      }
      case Algorithm::kLowLatency: {
        typename LlhjPipeline<R, S, Pred>::Options options;
        options.nodes = config_.parallelism;
        options.channel_capacity = config_.channel_capacity;
        options.result_capacity = config_.result_capacity;
        options.msgs_per_step = config_.msgs_per_step;
        options.home_policy = config_.home_policy;
        options.punctuate = config_.punctuate;
        options.placement = SessionPlacement();
        llhj_ = std::make_unique<LlhjPipeline<R, S, Pred>>(options, initial,
                                                           std::move(ids));
        registry_ = llhj_->registry();
        collector_ = llhj_->MakeCollector(&observer_);
        SetUpExecutor(llhj_->nodes());
        break;
      }
    }
    // Nothing precedes epoch 0, so it is drained by definition — this also
    // retires queries that were removed before the session ever started.
    router_.OnEpochDrained(0);
  }

  /// Baselines keep their epochs in a session-owned registry (no pipeline
  /// to own one); active_snap_ is the one the union predicate reads.
  void SetUpBaselineEpoch(QuerySet<Pred> set, std::vector<QueryId> ids) {
    own_registry_ = std::make_unique<QueryEpochRegistry<Pred>>();
    registry_ = own_registry_.get();
    registry_->Install(std::move(set), std::move(ids));
    active_snap_ = registry_->Get(0);
  }

  /// Installs the current live membership as a new epoch at this
  /// driver-order boundary. Pipelined engines get the in-band kEpochChange
  /// punctuation on both flows; synchronous baselines switch (and drain)
  /// immediately.
  void InstallEpoch(std::vector<QueryId> removed) {
    std::vector<QueryId> ids = LiveIds();
    const Epoch e = registry_->Install(LiveSet(), ids);
    router_.BeginEpoch(e, ids, std::move(removed));
    current_epoch_ = e;
    if (Pipelined()) {
      PipelinePorts<R, S> ports =
          hsj_ != nullptr ? hsj_->ports() : llhj_->ports();
      FlowMsg<R> left;
      left.kind = MsgKind::kEpochChange;
      left.epoch = e;
      PushBlocking(ports.left, left);
      FlowMsg<S> right;
      right.kind = MsgKind::kEpochChange;
      right.epoch = e;
      PushBlocking(ports.right, right);
      DrainIfSynchronous();
    } else {
      active_snap_ = registry_->Get(e);
      // Synchronous engines have already delivered every pre-boundary
      // result; the install point is a drained boundary by construction.
      router_.OnEpochDrained(e);
    }
  }

  int64_t HsjWindowTuples() const {
    // Count windows state their size directly; time windows require the
    // caller's hint (enforced by ValidateJoinConfig).
    if (config_.window_r.is_count() && config_.window_s.is_count()) {
      return std::max<int64_t>(config_.window_r.size, config_.window_s.size);
    }
    return config_.hsj_window_tuples_hint;
  }

  /// The session's placement plan, built once from the configured (or
  /// once-detected, then cached) topology and reused for the session's
  /// whole lifetime — the pipeline homes its channel memory with the SAME
  /// plan the executor pins the node threads with.
  const PlacementPlan& SessionPlacement() {
    if (!placement_built_) {
      placement_built_ = true;
      if (config_.threaded) {
        if (config_.topology == nullptr) {
          config_.topology = std::make_shared<const Topology>(
              Topology::Detect());
        }
        plan_ = PlacementPlan::Build(*config_.topology, config_.placement,
                                     config_.parallelism, kHelperCount);
      }
      // Non-threaded sessions keep the empty plan: everything runs on the
      // caller's thread, so there is nothing to pin or bind.
    }
    return plan_;
  }

  void SetUpExecutor(std::vector<Steppable*> nodes) {
    // The session driver thread is the feeder and the polling thread the
    // collector; both stay unpinned, but the result rings were homed on
    // the plan's collector node — pull them to the actual polling thread
    // now (before the node threads can produce).
    collector_->PrefaultQueues();
    if (config_.threaded) {
      executor_ = std::make_unique<ThreadedExecutor>(SessionPlacement());
      for (Steppable* node : nodes) executor_->Add(node);
      executor_->Start();
    } else {
      for (Steppable* node : nodes) sequential_.Add(node);
    }
  }

  Timestamp Monotonic(Timestamp ts) {
    if (ts < last_ts_) ts = last_ts_;
    last_ts_ = ts;
    return ts;
  }

  // -- Scalar driver path (identical to the classic StreamJoiner) -----------

  void EmitTimeExpiries(Timestamp ts) {
    StreamSide side;
    Seq seq;
    Timestamp expired_ts;
    while (tracker_.PopTimeExpiry(ts, &side, &seq, &expired_ts)) {
      DriverEvent<R, S> event;
      event.op = side == StreamSide::kR ? DriverOp::kExpireR
                                        : DriverOp::kExpireS;
      event.seq = seq;
      event.ts = expired_ts;
      Dispatch(event);
    }
  }

  void EmitCountExpiry(StreamSide side, Seq seq, Timestamp ts) {
    Seq expired_seq;
    Timestamp expired_ts;
    if (tracker_.OnArrival(side, seq, ts, &expired_seq, &expired_ts)) {
      DriverEvent<R, S> event;
      event.op = side == StreamSide::kR ? DriverOp::kExpireR
                                        : DriverOp::kExpireS;
      event.seq = expired_seq;
      event.ts = expired_ts;
      Dispatch(event);
    }
  }

  void Dispatch(const DriverEvent<R, S>& event) {
    if (kang_ != nullptr) {
      kang_->OnEvent(event);
      return;
    }
    if (cell_ != nullptr) {
      cell_->OnEvent(event);
      return;
    }
    // Bounded-lag enforcement for the handshake join: do not let the driver
    // run more than ~half a window ahead of the pipeline, wherever the
    // backlog sits (entry or interior channels). Result queues are
    // excluded — their occupancy is the application's polling cadence.
    if (hsj_ != nullptr && config_.threaded) {
      Backoff backoff;
      while (hsj_->ApproxChannelBacklog() > hsj_lag_budget_) backoff.Pause();
    }
    PipelinePorts<R, S> ports =
        hsj_ != nullptr ? hsj_->ports() : llhj_->ports();
    switch (event.op) {
      case DriverOp::kArriveR: {
        FlowMsg<R> msg;
        msg.kind = MsgKind::kArrival;
        msg.seq = event.seq;
        msg.ts = event.ts;
        msg.epoch = current_epoch_;
        msg.arrival_wall_ns = NowNs();
        msg.payload = event.r;
        NoteArrival(StreamSide::kR, event.seq);
        PushBlocking(ports.left, msg);
        break;
      }
      case DriverOp::kArriveS: {
        FlowMsg<S> msg;
        msg.kind = MsgKind::kArrival;
        msg.seq = event.seq;
        msg.ts = event.ts;
        msg.epoch = current_epoch_;
        msg.arrival_wall_ns = NowNs();
        msg.payload = event.s;
        NoteArrival(StreamSide::kS, event.seq);
        PushBlocking(ports.right, msg);
        break;
      }
      case DriverOp::kExpireR: {
        WaitTupleCompleted(StreamSide::kR, event.seq);
        FlowMsg<S> msg;
        msg.kind = MsgKind::kExpiry;
        msg.ref_side = StreamSide::kR;
        msg.seq = event.seq;
        msg.ts = event.ts;
        SetExpiryHorizon(&msg, next_seq_s_);
        PushBlocking(ports.right, msg);
        break;
      }
      case DriverOp::kExpireS: {
        WaitTupleCompleted(StreamSide::kS, event.seq);
        FlowMsg<R> msg;
        msg.kind = MsgKind::kExpiry;
        msg.ref_side = StreamSide::kS;
        msg.seq = event.seq;
        msg.ts = event.ts;
        SetExpiryHorizon(&msg, next_seq_r_);
        PushBlocking(ports.left, msg);
        break;
      }
      case DriverOp::kFlushR: {
        FlowMsg<R> msg;
        msg.kind = MsgKind::kFlush;
        PushBlocking(ports.left, msg);
        break;
      }
      case DriverOp::kFlushS: {
        FlowMsg<S> msg;
        msg.kind = MsgKind::kFlush;
        PushBlocking(ports.right, msg);
        break;
      }
    }
  }

  // -- Batch driver path -----------------------------------------------------

  void StageTimeExpiries(Timestamp ts) {
    StreamSide side;
    Seq seq;
    Timestamp expired_ts;
    while (tracker_.PopTimeExpiry(ts, &side, &seq, &expired_ts)) {
      StageExpiry(side, seq, expired_ts);
    }
  }

  void StageCountExpiry(StreamSide side, Seq seq, Timestamp ts) {
    Seq expired_seq;
    Timestamp expired_ts;
    if (tracker_.OnArrival(side, seq, ts, &expired_seq, &expired_ts)) {
      StageExpiry(side, expired_seq, expired_ts);
    }
  }

  /// LLHJ: expiries join the staged flow at their exact position — the
  /// driver-side completion gate (see DeliverStage) replaces the scalar
  /// WaitTupleCompleted. HSJ has no completion notion, so staged arrivals
  /// are flushed first and the expiry takes the scalar bounded-lag path.
  void StageExpiry(StreamSide expired_side, Seq seq, Timestamp ts) {
    if (llhj_ != nullptr) {
      if (expired_side == StreamSide::kR) {
        FlowMsg<S> msg;
        msg.kind = MsgKind::kExpiry;
        msg.ref_side = StreamSide::kR;
        msg.seq = seq;
        msg.ts = ts;
        right_stage_.push_back(msg);
      } else {
        FlowMsg<R> msg;
        msg.kind = MsgKind::kExpiry;
        msg.ref_side = StreamSide::kS;
        msg.seq = seq;
        msg.ts = ts;
        left_stage_.push_back(msg);
      }
      return;
    }
    FlushStages();
    DriverEvent<R, S> event;
    event.op = expired_side == StreamSide::kR ? DriverOp::kExpireR
                                              : DriverOp::kExpireS;
    event.seq = seq;
    event.ts = ts;
    Dispatch(event);
    // Non-threaded HSJ exactness holds for ANY window size only because the
    // scalar path drains after every push — the driver never runs ahead of
    // the pipeline when an expiry enters. Batch staging defers that drain,
    // and the entry channels are floored at 8 slots, so a count window
    // smaller than the floor would let the driver lead by a full window.
    // Restore the scalar invariant at each expiry boundary.
    DrainIfSynchronous();
  }

  /// Delivers both staged flows, arrival side first: an expiry staged in
  /// the opposite flow may be gated on the completion of an arrival from
  /// this very batch, so the arrivals must reach the pipeline first.
  void FlushStages() {
    PipelinePorts<R, S> ports =
        hsj_ != nullptr ? hsj_->ports() : llhj_->ports();
    if (batch_side_ == StreamSide::kR) {
      DeliverStage(&left_stage_, ports.left);
      DeliverStage(&right_stage_, ports.right);
    } else {
      DeliverStage(&right_stage_, ports.right);
      DeliverStage(&left_stage_, ports.left);
    }
  }

  /// Blocking burst delivery of one staged flow, preserving order. The
  /// longest prefix up to the first gated expiry is handed to
  /// SpscQueue::TryPushBurst; while the channel is full or the front expiry
  /// is gated, the pipeline is advanced (threaded: it advances itself).
  template <typename T>
  void DeliverStage(std::vector<FlowMsg<T>>* stage,
                    SpscQueue<FlowMsg<T>>* port) {
    if (stage->empty()) return;
    std::size_t head = 0;
    Backoff backoff;
    while (head < stage->size()) {
      if (hsj_ != nullptr && config_.threaded) {
        while (hsj_->ApproxChannelBacklog() > hsj_lag_budget_) {
          backoff.Pause();
        }
      }
      std::size_t run = stage->size() - head;
      if (llhj_ != nullptr) {
        // Longest deliverable prefix: stop at the first expiry whose tuple
        // has not completed its expedition yet (messages behind a gated
        // expiry wait with it — flow order preserved).
        const HighWaterMarks& hwm = llhj_->hwm();
        run = 0;
        while (head + run < stage->size()) {
          const FlowMsg<T>& m = (*stage)[head + run];
          if (m.kind == MsgKind::kExpiry &&
              hwm.CompletedSeq(m.ref_side) < static_cast<int64_t>(m.seq)) {
            break;
          }
          ++run;
        }
      }
      if (run == 0) {
        AdvancePipeline(&backoff, "expiry gate");
        continue;
      }
      const std::size_t pushed = port->TryPushBurst(stage->data() + head, run);
      head += pushed;
      if (pushed > 0) backoff.Reset();  // progress: restart the spin ladder
      if (pushed < run) AdvancePipeline(&backoff, "full channel");
    }
    stage->clear();
  }

  /// Records an arrival handed to the pipeline: expiries dispatched from
  /// now on carry the per-side horizon past it (ExpiryHorizon).
  void NoteArrival(StreamSide side, Seq seq) {
    Seq& next = side == StreamSide::kR ? next_seq_r_ : next_seq_s_;
    next = std::max(next, seq + 1);
  }

  /// Makes progress while batch delivery is blocked: threaded pipelines
  /// advance on their own (back off); non-threaded ones are stepped here.
  void AdvancePipeline(Backoff* backoff, const char* why) {
    if (config_.threaded) {
      backoff->Pause();
      return;
    }
    if (!sequential_.StepOnce()) {
      throw std::runtime_error(
          std::string("pipeline stalled during batch ingestion (") + why +
          ")");
    }
    if (collector_ != nullptr) collector_->VacuumOnce();
  }

  // -- Overload control (DESIGN.md Section 12) -------------------------------

  /// Admission decision for one arrival whose seq is already consumed.
  /// Returns true when the tuple is shed: the caller must then skip BOTH
  /// the dispatch and the expiry-tracker update — a shed tuple never
  /// reaches a window store, so no expiry may ever reference it (an expiry
  /// for an absent tuple would tombstone-leak in LLHJ and stall the
  /// completion gate forever). The session has no ingest-side holding
  /// buffer (every admitted push is delivered immediately), so kDropOldest
  /// has no victim to displace here and degrades to dropping the incoming
  /// tuple; the Feeder path implements the full victim semantics.
  bool ShedAtIngest(StreamSide side, Seq seq) {
    if (!admission_.enabled() && !admission_.has_force_shed()) return false;
    const int64_t now = NowNs();
    // The push call IS the arrival (waited = 0); overload pressure shows up
    // through the latency EWMA and the channel backlog instead.
    if (!admission_.ShouldShed(side, seq, now, now, ApproxIngestBacklog())) {
      return false;
    }
    admission_.RecordShed(side, seq);
    return true;
  }

  /// Delivers recorded loss gaps of `side` at the current stream position:
  /// in-band on the flow the shed arrivals would have taken (pipelined
  /// engines), or straight to the router (synchronous baselines, which have
  /// no in-flight results to order against).
  void EmitPendingLoss(StreamSide side) {
    if (!admission_.HasGap(side)) return;
    LossBound gap;
    if (Pipelined()) {
      PipelinePorts<R, S> ports =
          hsj_ != nullptr ? hsj_->ports() : llhj_->ports();
      while (admission_.TakeGap(side, &gap)) {
        if (side == StreamSide::kR) {
          PushBlocking(ports.left,
                       MakeLossPunct<R>(side, gap.first_seq, gap.count));
        } else {
          PushBlocking(ports.right,
                       MakeLossPunct<S>(side, gap.first_seq, gap.count));
        }
      }
      return;
    }
    while (admission_.TakeGap(side, &gap)) {
      router_.OnLoss(gap.side, gap.first_seq, gap.count);
    }
  }

  /// Batch-path variant: the loss punctuation joins the staged flow at its
  /// exact position (only ever called on pipelined engines — baselines take
  /// the scalar loop).
  void StagePendingLoss(StreamSide side) {
    if (!admission_.HasGap(side)) return;
    LossBound gap;
    while (admission_.TakeGap(side, &gap)) {
      if (side == StreamSide::kR) {
        left_stage_.push_back(MakeLossPunct<R>(side, gap.first_seq, gap.count));
      } else {
        right_stage_.push_back(
            MakeLossPunct<S>(side, gap.first_seq, gap.count));
      }
    }
  }

  /// Driver-visible backlog for the admission projection: messages queued
  /// in the pipeline's channels (result queues excluded — their occupancy
  /// is the application's polling cadence, not pipeline pressure).
  std::size_t ApproxIngestBacklog() const {
    if (hsj_ != nullptr) return hsj_->ApproxChannelBacklog();
    if (llhj_ != nullptr) return llhj_->ApproxChannelBacklog();
    return 0;  // baselines are synchronous: nothing queues
  }

  // -- Shared driver helpers -------------------------------------------------

  /// Keeps the single-threaded pipeline fully drained between pushes so
  /// the driver never runs ahead of it (exactness for any window size).
  void DrainIfSynchronous() {
    if (collector_ != nullptr && !config_.threaded) {
      sequential_.RunUntilQuiescent();
    }
  }

  /// LLHJ expiry gate (see Feeder::Options::expiry_gate): an expiry enters
  /// the pipeline only after its tuple finished travelling.
  void WaitTupleCompleted(StreamSide side, Seq seq) {
    if (llhj_ == nullptr) return;
    Backoff backoff;
    while (llhj_->hwm().CompletedSeq(side) < static_cast<int64_t>(seq)) {
      if (config_.threaded) {
        backoff.Pause();
      } else if (!sequential_.StepOnce()) {
        throw std::runtime_error("pipeline stalled before tuple completion");
      }
    }
  }

  template <typename T>
  void PushBlocking(SpscQueue<FlowMsg<T>>* queue, const FlowMsg<T>& msg) {
    if (config_.threaded) {
      Backoff backoff;
      while (!queue->TryPush(msg)) backoff.Pause();
      return;
    }
    while (!queue->TryPush(msg)) {
      if (!sequential_.StepOnce()) {
        throw std::runtime_error("pipeline stalled with full input queue");
      }
      if (collector_ != nullptr) collector_->VacuumOnce();
    }
  }

  void AwaitHsjSettled() {
    // Lightweight settle for externally driven HSJ expiries: the chase is
    // resolved once the channels are empty and the node progress counters
    // hold still across a few spaced reads (a node may briefly hold a
    // forwarded expiry in its out-buffer between consuming and draining,
    // which a single instantaneous backlog read could miss).
    uint64_t last_processed = hsj_->TotalProcessed();
    int stable_rounds = 0;
    while (stable_rounds < 3) {
      std::this_thread::sleep_for(std::chrono::microseconds(20));
      const bool empty = hsj_->ApproxChannelBacklog() == 0;
      const uint64_t processed = hsj_->TotalProcessed();
      if (empty && processed == last_processed) {
        ++stable_rounds;
      } else {
        stable_rounds = 0;
        last_processed = processed;
      }
    }
  }

  void WaitQuiescentThreaded() {
    // Distributed quiescence: channel backlog empty, node progress counters
    // stable, and nothing newly collected — several times in a row.
    uint64_t last_processed = 0;
    uint64_t last_collected = 0;
    int stable_rounds = 0;
    while (stable_rounds < 5) {
      collector_->VacuumOnce();
      const std::size_t backlog =
          hsj_ != nullptr ? hsj_->ApproxBacklog() : llhj_->ApproxBacklog();
      const uint64_t processed = hsj_ != nullptr ? hsj_->TotalProcessed()
                                                 : llhj_->TotalProcessed();
      const uint64_t collected = collector_->total_collected();
      if (backlog == 0 && processed == last_processed &&
          collected == last_collected) {
        ++stable_rounds;
      } else {
        stable_rounds = 0;
        last_processed = processed;
        last_collected = collected;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }

  JoinConfig config_;
  // Hardware placement, built once per session (SessionPlacement) and
  // reused across the session's lifetime.
  PlacementPlan plan_;
  bool placement_built_ = false;
  ExpiryTracker tracker_;
  QueryRouter<R, S> router_;
  FanOutSink fan_out_;
  AdmissionController admission_;
  ResultObserver observer_;

  // Query lifecycle state: predicates by session-wide id (never reused),
  // the live membership, and the epoch machinery. `registry_` points at
  // the pipeline's registry (or `own_registry_` for baselines) once the
  // session has started.
  std::vector<Pred> preds_;
  std::vector<uint8_t> live_;
  std::vector<QueryId> pre_start_removed_;
  Epoch current_epoch_ = 0;
  QueryEpochRegistry<Pred>* registry_ = nullptr;
  std::unique_ptr<QueryEpochRegistry<Pred>> own_registry_;
  std::shared_ptr<const Snapshot> active_snap_;  // baselines only

  Seq r_seq_ = 0;
  Seq s_seq_ = 0;
  // One past the highest arrival seq handed to the pipeline, per side (the
  // expiry horizons; also correct for externally driven shards, which see
  // a subset of the global seqs).
  Seq next_seq_r_ = 0;
  Seq next_seq_s_ = 0;
  Timestamp last_ts_ = kMinTimestamp;
  DriverMode driver_mode_ = DriverMode::kUnset;
  // Checked-contracts state (DESIGN.md Section 14): every ingestion entry
  // point must come from the one driver thread of this session (within an
  // executor generation), and an external driver must deliver per-side
  // arrival/expiry seqs in strictly advancing order — the same protocol
  // the internal driver gets for free from its own seq counters.
  [[no_unique_address]] contracts::ThreadRole driver_role_;
  [[no_unique_address]] contracts::Monotone ext_r_arrival_order_;
  [[no_unique_address]] contracts::Monotone ext_s_arrival_order_;
  [[no_unique_address]] contracts::Monotone ext_r_expiry_order_;
  [[no_unique_address]] contracts::Monotone ext_s_expiry_order_;
  bool started_ = false;
  bool finished_ = false;
  std::size_t hsj_lag_budget_ = 1 << 20;
  StreamSide batch_side_ = StreamSide::kR;

  // Staged flows of the batch-first ingestion path (reused across calls;
  // always empty between calls).
  std::vector<FlowMsg<R>> left_stage_;
  std::vector<FlowMsg<S>> right_stage_;

  std::unique_ptr<KangJoin<R, S, UnionPred, FanOutSink>> kang_;
  std::unique_ptr<CellJoin<R, S, UnionPred, FanOutSink>> cell_;
  std::unique_ptr<HsjPipeline<R, S, Pred>> hsj_;
  std::unique_ptr<LlhjPipeline<R, S, Pred>> llhj_;
  std::unique_ptr<Collector<R, S>> collector_;
  std::unique_ptr<ThreadedExecutor> executor_;
  SequentialExecutor sequential_;
};

}  // namespace sjoin
