// Multi-query, batch-first session API — the public operator of this
// library. One JoinSession is ONE driver over N >= 1 engine-only shards
// (DESIGN.md Sections 8 and 13):
//
//   driver — everything that exists once per session: sequence numbering,
//     monotonic timestamps, window bookkeeping (one ExpiryTracker over the
//     global arrival order), admission and its loss gaps, query ids and
//     epochs, one QueryRouter, the partitioner and the expiry routes.
//   shards — a JoinShard owns only its engine, channels, collector and
//     executor; it takes the driver's messages as staged flows.
//
//   JoinConfig config;
//   config.algorithm = Algorithm::kLowLatency;
//   config.window_r = WindowSpec::Time(5'000'000);
//   config.window_s = WindowSpec::Time(5'000'000);
//   JoinSession<RTuple, STuple, BandPredicate> session(config);  // N = 1
//   auto q0 = session.AddQuery(BandPredicate{10, 10.f}, &tight_handler);
//   auto q1 = session.AddQuery(BandPredicate{50, 50.f}, &wide_handler);
//   session.PushR(r, ts);                          // a span of one
//   session.PushR(std::span(rs), std::span(tss));  // batch-first ingestion
//   session.Poll();
//   session.FinishInput();
//
// A ShardedJoinConfig{shard, shards, partition} builds N shards behind the
// same API. Every arrival is routed by the resolved PartitionPolicy
// (stream/partitioner.hpp): equi-joins hash both sides on the join key;
// band/range predicates replicate one side and split the other. Expiries
// follow their tuple to exactly the shards that received it. Restricting
// the global driver order to one shard's subset preserves relative order,
// so the result multiset is exactly the single-shard one (proven per engine
// by tests/test_sharded.cpp).
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
// once its last result has drained on every shard — never a post-removal
// result.
//
// Rules:
//  * At least one query must be live before the first Push.
//  * Timestamps must be non-decreasing across both Push sides (stream
//    order); a span push is equivalent to the per-tuple loop over its span.
//  * Every shard runs one of the paper's two pipelined engines, the
//    original handshake join (HSJ) or low-latency handshake join (LLHJ);
//    the tests hold both to one Kang reference (tests/kang_join.hpp).
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/clock.hpp"
#include "common/contracts.hpp"
#include "common/types.hpp"
#include "common/vec_deque.hpp"
#include "hsj/hsj_pipeline.hpp"
#include "llhj/llhj_pipeline.hpp"
#include "runtime/backoff.hpp"
#include "runtime/executor.hpp"
#include "runtime/placement.hpp"
#include "runtime/topology.hpp"
#include "stream/admission.hpp"
#include "stream/collector.hpp"
#include "stream/handlers.hpp"
#include "stream/message.hpp"
#include "stream/partitioner.hpp"
#include "stream/ports.hpp"
#include "stream/query_set.hpp"
#include "stream/script.hpp"
#include "stream/stats.hpp"
#include "stream/window.hpp"

namespace sjoin {

/// The two join engines of this library.
enum class Algorithm : uint8_t {
  kHandshake,   ///< original handshake join (Section 2.3)
  kLowLatency,  ///< low-latency handshake join (Section 4)
};

constexpr const char* ToString(Algorithm a) {
  switch (a) {
    case Algorithm::kHandshake:
      return "handshake";
    case Algorithm::kLowLatency:
      return "llhj";
  }
  return "?";
}

struct JoinConfig {
  Algorithm algorithm = Algorithm::kLowLatency;

  /// Pipeline nodes per shard. Must be >= 1.
  int parallelism = 4;

  WindowSpec window_r = WindowSpec::Count(1024);
  WindowSpec window_s = WindowSpec::Count(1024);

  /// Pipeline tuning. Capacities must be non-zero. Channels need to hold
  /// about one driver batch plus a consumer's wake-up (DESIGN.md Sections
  /// 5 and 16); deeper channels only add queueing delay once the pipeline
  /// is the bottleneck. A result ring of 4,096 slots per node is about 8x
  /// the results a closed loop collects per Poll on perfbench's
  /// equi_sharded. A burst beyond it is not lost: the node stages one
  /// batch's results and defers arrivals until the collector has made
  /// room, which every Poll and driver wait does (DESIGN.md Section 17).
  std::size_t channel_capacity = 128;
  std::size_t result_capacity = kDefaultResultCapacity;

  /// Emit punctuations into the output stream (LLHJ only, Section 6).
  bool punctuate = false;

  /// Run pipeline nodes on their own pinned threads. When false, the
  /// pipeline advances inside Push/Poll on the caller's thread
  /// (deterministic; useful for tests and small workloads).
  bool threaded = true;

  /// Hardware placement policy for threaded pipelines (see
  /// runtime/placement.hpp): where node threads are pinned. Channel rings
  /// need no policy: each ring's consumer writes its pages first, so they
  /// land on the consumer's NUMA node. kAuto degrades to flat
  /// sibling-order pinning on single-socket hosts; kNone pins nothing.
  /// Ignored when threaded == false.
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
  /// queues then provide lossless backpressure as before. One budget
  /// governs the whole session, however many shards it has.
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
  if (static_cast<uint8_t>(config.algorithm) >
      static_cast<uint8_t>(Algorithm::kLowLatency)) {
    throw std::invalid_argument(
        "JoinConfig: algorithm must be handshake|llhj, got enum value " +
        std::to_string(static_cast<int>(config.algorithm)));
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

/// The N >= 1 form of a session's configuration. A JoinConfig builds the
/// same session with shards = 1.
struct ShardedJoinConfig {
  /// Per-shard engine configuration (engine, windows, parallelism,
  /// threading, placement, admission...). `shard.topology` is the machine
  /// model the shards are spread over: shard k is placed on the k-th NUMA
  /// node (round-robin) via Topology::OnNode.
  JoinConfig shard;

  /// Number of independent pipeline shards. Must be >= 1.
  int shards = 2;

  /// How the two input streams are split (stream/partitioner.hpp). kAuto
  /// resolves from the predicate type's metadata.
  PartitionPolicy partition = PartitionPolicy::kAuto;
};

/// Rejects shard counts and policies the predicate set cannot support.
/// Throws std::invalid_argument naming the offending field AND value.
template <typename R, typename S, typename Pred>
void ValidateShardedJoinConfig(const ShardedJoinConfig& config) {
  ValidateJoinConfig(config.shard);
  if (config.shards < 1) {
    throw std::invalid_argument(
        "ShardedJoinConfig: shards must be >= 1, got " +
        std::to_string(config.shards));
  }
  // Resolution throws when the requested policy is infeasible for the
  // predicate type (kHashKey without an equi JoinKeyTraits).
  const PartitionPolicy resolved =
      ResolvePartitionPolicy<Pred, R, S>(config.partition);
  // Chase-convergence envelope for the handshake join: HSJ's expiry chase
  // (hsj_node.hpp) converges only while each shard's live window stays
  // comfortably above the pipeline length — with near-empty segments the
  // chase flip-flops against self-balancing relocations until it exhausts
  // its hop budget and leaks the tuple. Partitioning thins a side's stream
  // by the shard count, so the PER-SHARD window is what must clear the
  // floor. Reject configs below it instead of racing.
  if (config.shard.algorithm == Algorithm::kHandshake && config.shards > 1) {
    const int64_t floor = std::max<int64_t>(
        8, 2 * static_cast<int64_t>(config.shard.parallelism));
    auto check_side = [&](const char* side, const WindowSpec& w) {
      const int64_t global_tuples =
          w.is_count() ? w.size : config.shard.hsj_window_tuples_hint;
      const int64_t per_shard = global_tuples / config.shards;
      if (per_shard < floor) {
        throw std::invalid_argument(
            std::string("ShardedJoinConfig: handshake join needs a per-shard "
                        "live window of at least ") +
            std::to_string(floor) + " tuples (max(8, 2 * parallelism " +
            std::to_string(config.shard.parallelism) + ")) on every " +
            "partitioned side for its expiry chase to converge; side " + side +
            " has " + std::to_string(global_tuples) + " / " +
            std::to_string(config.shards) + " shards = " +
            std::to_string(per_shard) +
            ". Use fewer shards, a larger window, or another engine.");
      }
    };
    if (SidePartitioned(resolved, StreamSide::kR)) {
      check_side("R", config.shard.window_r);
    }
    if (SidePartitioned(resolved, StreamSide::kS)) {
      check_side("S", config.shard.window_s);
    }
  }
}

/// One engine-only shard of a session: the join engine, its channels,
/// collector and executor. The session's driver hands it messages in driver
/// order (StageArrival/StageExpiry/StageLoss/StageEpoch/StageFlush) and
/// stages them into the engine's two flows until Deliver. An LLHJ
/// shard keeps its windows in key-bucketed band stores when the predicate
/// declares JoinKeyTraits, else in scan stores. Everything the engine
/// delivers — results, punctuations, loss bounds, epoch drains — goes to
/// the one OutputHandler given at construction.
template <typename R, typename S, typename Pred>
class JoinShard {
 public:
  template <StreamSide kSide>
  using Tuple = std::conditional_t<kSide == StreamSide::kR, R, S>;

  JoinShard(const JoinConfig& config, OutputHandler<R, S>* out)
      : config_(config), out_(out) {}

  ~JoinShard() { Stop(); }

  JoinShard(const JoinShard&) = delete;
  JoinShard& operator=(const JoinShard&) = delete;

  /// Builds the engine with `set` (session ids `ids`) as epoch 0.
  void Start(QuerySet<Pred> set, std::vector<QueryId> ids) {
    switch (config_.algorithm) {
      case Algorithm::kHandshake: {
        typename HsjPipeline<R, S, Pred>::Options options;
        options.nodes = config_.parallelism;
        options.result_capacity = config_.result_capacity;
        const int64_t window_tuples = HsjWindowTuples();
        // Segments self-balance (capacity 0), adapting to the live window.
        // HSJ correctness requires the driver's lead over the pipeline to
        // stay well below the window (DESIGN.md, bounded-lag regime): cap
        // the entry channels, and additionally gate deliveries on the total
        // pipeline backlog (see DeliverFlow) since thread starvation can
        // build backlog in interior channels too.
        options.channel_capacity = std::min<std::size_t>(
            config_.channel_capacity,
            std::max<std::size_t>(
                8, static_cast<std::size_t>(window_tuples / 4)));
        hsj_lag_budget_ = std::max<std::size_t>(
            16, static_cast<std::size_t>(window_tuples / 2));
        engine_ = std::make_unique<HsjPipeline<R, S, Pred>>(options, set,
                                                            std::move(ids));
        break;
      }
      case Algorithm::kLowLatency: {
        typename Llhj::Options options;
        options.nodes = config_.parallelism;
        options.channel_capacity = config_.channel_capacity;
        options.result_capacity = config_.result_capacity;
        options.punctuate = config_.punctuate;
        engine_ = std::make_unique<Llhj>(options, set, std::move(ids));
        break;
      }
    }
    collector_ = engine_->MakeCollector(out_);
    SetUpExecutor(engine_->nodes());
  }

  // -- Staging (driver order) ------------------------------------------------
  //
  // Per-side seqs reach a shard in strictly advancing order, arrivals and
  // expiries alike: the driver numbers them, and routing only thins the
  // sequence. A regression here is a routing bug (checked-contracts builds
  // abort naming it).

  /// Stages one arrival of `kSide`, pushed under query epoch `epoch` by
  /// the push call that started at wall time `arrival_wall_ns`.
  template <StreamSide kSide>
  void StageArrival(const Tuple<kSide>& tuple, Seq seq, Timestamp ts,
                    Epoch epoch, int64_t arrival_wall_ns) {
    constexpr bool kIsR = kSide == StreamSide::kR;
    (kIsR ? r_arrival_order_ : s_arrival_order_)
        .AssertAdvance(static_cast<long long>(seq), "JoinShard",
                       kIsR ? "R arrival seq" : "S arrival seq",
                       /*strict=*/true);
    FlowMsg<Tuple<kSide>> msg;
    msg.kind = MsgKind::kArrival;
    msg.seq = seq;
    msg.ts = ts;
    msg.epoch = epoch;
    msg.arrival_wall_ns = arrival_wall_ns;
    msg.payload = tuple;
    if constexpr (kIsR) {
      left_.push_back(msg);
      next_seq_r_ = std::max(next_seq_r_, seq + 1);
    } else {
      right_.push_back(msg);
      next_seq_s_ = std::max(next_seq_s_, seq + 1);
    }
    Seq& first = first_staged_[static_cast<int>(kSide)];
    first = std::min(first, seq);
    staged_side_ = kSide;
  }

  /// Stages the window expiry of tuple `seq` of `side`, which this shard
  /// received earlier. `thinned`: this shard sees only part of the side's
  /// stream (N > 1, partitioned side).
  void StageExpiry(StreamSide side, Seq seq, Timestamp ts, bool thinned) {
    (side == StreamSide::kR ? r_expiry_order_ : s_expiry_order_)
        .AssertAdvance(static_cast<long long>(seq), "JoinShard",
                       side == StreamSide::kR ? "R expiry seq"
                                              : "S expiry seq",
                       /*strict=*/true);
    // HSJ has no per-tuple completion notion to gate an expiry on (cf. the
    // LLHJ gate in DeliverFlow), so the staged messages enter first and the
    // expiry is delivered alone. On a whole stream (N = 1, or a replicated
    // side) the bounded-lag regime covers it: a count-window expiry trails
    // its tuple's arrival by a full window of pushes. A thinned stream may
    // put the next arrival right behind the expiry, which opens two races
    // the lag budget cannot close: (a) the expiry overtaking its tuple's
    // arrival mid-channel, and (b) a trailing opposite-side arrival crossing
    // the victim while the expiry chase is bounced off a concurrent segment
    // relocation. Close (a) by draining the channels before the expiry
    // enters, and (b) by letting the pipeline settle afterwards.
    const bool hsj = IsHandshake();
    const bool hsj_guard = hsj && thinned && config_.threaded;
    if (hsj) {
      Deliver();
      Backoff backoff;
      while (hsj_guard && engine_->ApproxChannelBacklog() > 0) {
        AwaitProgress(&backoff);
      }
    }
    if (side == StreamSide::kR) {
      right_.push_back(MakeExpiry<S>(side, seq, ts, next_seq_s_));
    } else {
      left_.push_back(MakeExpiry<R>(side, seq, ts, next_seq_r_));
    }
    if (seq >= first_staged_[static_cast<int>(side)]) gated_ = true;
    if (hsj) {
      Deliver();
      if (hsj_guard) AwaitHsjSettled();
    }
  }

  /// Stages a loss bound at the current stream position, in-band on the
  /// flow the shed arrivals would have taken.
  void StageLoss(StreamSide side, Seq first_seq, uint64_t count) {
    if (side == StreamSide::kR) {
      left_.push_back(MakeLossPunct<R>(side, first_seq, count));
    } else {
      right_.push_back(MakeLossPunct<S>(side, first_seq, count));
    }
  }

  /// Installs the next query epoch at the current stream position: the
  /// in-band kEpochChange punctuation goes on both flows.
  void StageEpoch(QuerySet<Pred> set, std::vector<QueryId> ids) {
    const Epoch e =
        engine_->registry()->Install(std::move(set), std::move(ids));
    FlowMsg<R> left;
    left.kind = MsgKind::kEpochChange;
    left.epoch = e;
    left_.push_back(left);
    FlowMsg<S> right;
    right.kind = MsgKind::kEpochChange;
    right.epoch = e;
    right_.push_back(right);
  }

  /// End of input: the handshake join flushes its pipeline so pairs still
  /// separated inside it meet.
  void StageFlush() {
    if (!IsHandshake()) return;
    FlowMsg<R> left;
    left.kind = MsgKind::kFlush;
    left_.push_back(left);
    FlowMsg<S> right;
    right.kind = MsgKind::kFlush;
    right_.push_back(right);
  }

  /// Delivers the staged run, if any. The opposite flow of the staged
  /// arrivals goes first — the per-tuple wake order, expiries before the
  /// arrival — unless it holds an expiry gated on an arrival that is still
  /// staged; then the arrival flow goes first (DESIGN.md Section 8). On a
  /// threaded pipeline the pushes ring only the entry nodes: a downstream
  /// node is still in its hot window, or is woken by the forwarded push
  /// (DESIGN.md Section 16). A non-threaded pipeline is run, collector
  /// included, until quiescent, so the driver never runs ahead of it and
  /// every result has reached the output. With nothing staged it is
  /// quiescent already.
  void Deliver() {
    if (left_.empty() && right_.empty()) return;
    delivered_ += left_.size() + right_.size();
    const PipelinePorts<R, S> ports = engine_->ports();
    if (gated_ == (staged_side_ == StreamSide::kR)) {
      DeliverFlow(&left_, ports.left);
      DeliverFlow(&right_, ports.right);
    } else {
      DeliverFlow(&right_, ports.right);
      DeliverFlow(&left_, ports.left);
    }
    first_staged_[0] = first_staged_[1] = kNoSeq;
    gated_ = false;
    if (!config_.threaded) sequential_.RunUntilQuiescent();
  }

  // -- Output ----------------------------------------------------------------

  /// Delivers pending results to the output; non-threaded pipelines are
  /// advanced with their collector until quiescent.
  void Poll() {
    if (collector_ == nullptr) return;  // not started
    if (config_.threaded) {
      collector_->VacuumOnce();
    } else {
      sequential_.RunUntilQuiescent();
    }
  }

  /// Drains everything delivered so far to the output (end of input):
  /// returns once every result, staged ones included, reached the handler.
  void Finish() {
    if (config_.threaded) {
      WaitQuiescentThreaded();
    } else {
      sequential_.RunUntilQuiescent();
    }
  }

  void Stop() {
    if (executor_ != nullptr) executor_->Stop();
    if (collector_ != nullptr) collector_->VacuumOnce();
  }

  // -- Introspection ---------------------------------------------------------

  /// Messages delivered into the channels since the last call.
  std::size_t TakeDelivered() { return std::exchange(delivered_, 0); }

  /// Messages queued in the pipeline's channels (result queues excluded —
  /// their occupancy is the application's polling cadence, not pipeline
  /// pressure).
  std::size_t backlog() const {
    return engine_ != nullptr ? engine_->ApproxChannelBacklog() : 0;
  }

  uint64_t anomalies() const {
    return engine_ != nullptr ? engine_->total_anomalies() : 0;
  }

  /// Times a node of this shard deferred arrivals on its full result ring
  /// (one per fill; thread-safe).
  uint64_t result_ring_stalls() const {
    return engine_ != nullptr ? engine_->ResultRingStalls() : 0;
  }

  /// Placement plan the pipeline threads were pinned with (empty until a
  /// threaded shard starts).
  const PlacementPlan& placement() const { return plan_; }

  /// Times a node thread was woken from its doorbell, times one parked on
  /// it, and times one found work after a park no push ended
  /// (ThreadedExecutor::wakes/parks/missed_wakes); 0 when not threaded.
  uint64_t engine_wakes() const {
    return executor_ != nullptr ? executor_->wakes() : 0;
  }
  uint64_t engine_parks() const {
    return executor_ != nullptr ? executor_->parks() : 0;
  }
  uint64_t engine_missed_wakes() const {
    return executor_ != nullptr ? executor_->missed_wakes() : 0;
  }

 private:
  static constexpr Seq kNoSeq = std::numeric_limits<Seq>::max();

  /// The LLHJ engine: a predicate that declares a join key (matching
  /// pairs have keys at most its radius apart) gets the key-bucketed index,
  /// at radius 0 the node-local hash index of paper Section 7.6; any other
  /// the scan store.
  using Llhj = std::conditional_t<JoinKeyTraits<Pred, R, S>::kEnabled,
                                  BandLlhjPipeline<R, S, Pred>,
                                  LlhjPipeline<R, S, Pred>>;

  template <typename T>
  static FlowMsg<T> MakeExpiry(StreamSide side, Seq seq, Timestamp ts,
                               Seq horizon) {
    FlowMsg<T> msg;
    msg.kind = MsgKind::kExpiry;
    msg.ref_side = side;
    msg.seq = seq;
    msg.ts = ts;
    SetExpiryHorizon(&msg, horizon);
    return msg;
  }

  bool IsHandshake() const {
    return config_.algorithm == Algorithm::kHandshake;
  }

  int64_t HsjWindowTuples() const {
    // Count windows state their size directly; time windows require the
    // caller's hint (enforced by ValidateJoinConfig).
    if (config_.window_r.is_count() && config_.window_s.is_count()) {
      return std::max<int64_t>(config_.window_r.size, config_.window_s.size);
    }
    return config_.hsj_window_tuples_hint;
  }

  void SetUpExecutor(std::vector<Steppable*> nodes) {
    // The session's caller polls the result rings: it writes their pages
    // first, before any node thread can produce.
    collector_->PrefaultQueues();
    if (config_.threaded) {
      // The plan only pins the node threads; each thread writes its own
      // input rings' pages under the executor's start barrier.
      if (config_.topology == nullptr) {
        config_.topology =
            std::make_shared<const Topology>(Topology::Detect());
      }
      plan_ = PlacementPlan::Build(*config_.topology, config_.placement,
                                   config_.parallelism);
      executor_ = std::make_unique<ThreadedExecutor>(plan_);
      for (Steppable* node : nodes) executor_->Add(node);
      executor_->Start();
    } else {
      // Every sequential pass vacuums too: a node whose results are staged
      // behind its full ring resumes in the next pass.
      for (Steppable* node : nodes) sequential_.Add(node);
      sequential_.Add(collector_.get());
    }
  }

  /// Blocking burst delivery of one staged flow, preserving order. The
  /// longest prefix up to the first gated expiry is handed to
  /// SpscQueue::TryPushBurst; while the channel is full or the front expiry
  /// is gated, the pipeline is advanced (threaded: it advances itself).
  template <typename T>
  void DeliverFlow(std::vector<FlowMsg<T>>* stage,
                   SpscQueue<FlowMsg<T>>* port) {
    if (stage->empty()) return;
    std::size_t head = 0;
    Backoff backoff;
    while (head < stage->size()) {
      // Bounded-lag enforcement for the handshake join: do not let the
      // driver run more than ~half a window ahead of the pipeline, wherever
      // the backlog sits (entry or interior channels).
      if (IsHandshake() && config_.threaded) {
        while (engine_->ApproxChannelBacklog() > hsj_lag_budget_) {
          AwaitProgress(&backoff);
        }
      }
      std::size_t run = stage->size() - head;
      if (!IsHandshake()) {
        // LLHJ expiry gate: an expiry enters the pipeline only after its
        // tuple finished travelling (end nodes publish completion through
        // the high-water marks), so no opposite tuple pushed behind the
        // expiry can meet the tuple in flight. Longest deliverable prefix:
        // stop at the first expiry whose tuple has not completed its
        // expedition yet (messages behind a gated expiry wait with it —
        // flow order preserved).
        const HighWaterMarks& hwm = engine_->hwm();
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

  /// Makes progress while delivery is blocked: threaded pipelines advance
  /// on their own, non-threaded ones (collector included) are stepped here.
  void AdvancePipeline(Backoff* backoff, const char* why) {
    if (config_.threaded) {
      AwaitProgress(backoff);
      return;
    }
    if (!sequential_.StepOnce()) {
      throw std::runtime_error(
          std::string("pipeline stalled during delivery (") + why + ")");
    }
  }

  /// One round of a driver wait on a threaded shard: serves nodes waiting
  /// for result-ring room, else backs off.
  void AwaitProgress(Backoff* backoff) {
    if (ServeStagedNodes()) {
      backoff->Reset();  // progress: restart the spin ladder
    } else {
      backoff->Pause();
    }
  }

  /// The driver thread is a threaded shard's collector. A node whose
  /// results are staged behind its full ring waits for it, so every driver
  /// wait vacuums while any node reports staged results: the wait-for
  /// chain node -> collector ends here (DESIGN.md Section 6). Otherwise
  /// the rings are left to the next Poll, which keeps the waits off the
  /// rings' cache lines. Returns true when results were delivered.
  bool ServeStagedNodes() {
    return engine_->StagedResultNodes() != 0 && collector_->VacuumOnce() > 0;
  }

  void AwaitHsjSettled() {
    // Lightweight settle after a thinned-stream HSJ expiry: the chase is
    // resolved once the channels are empty and the node progress counters
    // hold still across a few spaced reads (a node may briefly hold a
    // forwarded expiry in its out-buffer between consuming and draining,
    // which a single instantaneous backlog read could miss). A caller-side
    // wait, not engine idling.
    constexpr auto kPause = std::chrono::microseconds(20);
    uint64_t last_processed = engine_->TotalProcessed();
    int stable_rounds = 0;
    while (stable_rounds < 3) {
      std::this_thread::sleep_for(kPause);  // NOLINT(hot-path-sleep)
      ServeStagedNodes();
      const bool empty = engine_->ApproxChannelBacklog() == 0;
      const uint64_t processed = engine_->TotalProcessed();
      if (empty && processed == last_processed) {
        ++stable_rounds;
      } else {
        stable_rounds = 0;
        last_processed = processed;
      }
    }
  }

  void WaitQuiescentThreaded() {
    // Distributed quiescence at end of input: channels, result rings and
    // node result stages empty, node progress counters stable, and nothing
    // newly collected — several times in a row. A caller-side wait, not
    // engine idling.
    constexpr auto kPause = std::chrono::milliseconds(2);
    uint64_t last_processed = 0;
    uint64_t last_collected = 0;
    int stable_rounds = 0;
    while (stable_rounds < 5) {
      const bool delivered = collector_->VacuumOnce() > 0;
      const std::size_t backlog = engine_->ApproxBacklog();
      const uint64_t processed = engine_->TotalProcessed();
      const uint64_t collected = collector_->total_collected();
      if (backlog == 0 && processed == last_processed &&
          collected == last_collected) {
        ++stable_rounds;
      } else {
        stable_rounds = 0;
        last_processed = processed;
        last_collected = collected;
      }
      // While results flow, a node may be waiting for ring room: vacuum
      // again at once.
      if (!delivered) {
        std::this_thread::sleep_for(kPause);  // NOLINT(hot-path-sleep)
      }
    }
  }

  JoinConfig config_;
  OutputHandler<R, S>* out_;
  PlacementPlan plan_;

  // The staged run: both flows in driver order, the lowest arrival seq
  // staged per side (kNoSeq: none), the side of the staged arrivals, and
  // whether an expiry waits on one of them.
  std::vector<FlowMsg<R>> left_;
  std::vector<FlowMsg<S>> right_;
  Seq first_staged_[2] = {kNoSeq, kNoSeq};
  StreamSide staged_side_ = StreamSide::kR;
  bool gated_ = false;
  std::size_t delivered_ = 0;  // messages delivered, for TakeDelivered
  // One past the highest arrival seq staged, per side (the HSJ expiry
  // horizons, ExpiryHorizon).
  Seq next_seq_r_ = 0;
  Seq next_seq_s_ = 0;
  std::size_t hsj_lag_budget_ = 1 << 20;
  [[no_unique_address]] contracts::Monotone r_arrival_order_;
  [[no_unique_address]] contracts::Monotone s_arrival_order_;
  [[no_unique_address]] contracts::Monotone r_expiry_order_;
  [[no_unique_address]] contracts::Monotone s_expiry_order_;

  std::unique_ptr<Pipeline<R, S, Pred>> engine_;  // HSJ or LLHJ
  std::unique_ptr<Collector<R, S>> collector_;
  std::unique_ptr<ThreadedExecutor> executor_;
  SequentialExecutor sequential_;
};

template <typename R, typename S, typename Pred>
class JoinSession {
 public:
  /// Identifies a registered query; results of query `id` are routed to the
  /// handler passed to the AddQuery call that returned this handle.
  struct QueryHandle {
    QueryId id = 0;
  };

  explicit JoinSession(const JoinConfig& config)
      : JoinSession(ShardedJoinConfig{config, 1, PartitionPolicy::kAuto}) {}

  explicit JoinSession(const ShardedJoinConfig& config)
      : config_(config),
        resolved_(ResolvePartitionPolicy<Pred, R, S>(config.partition)),
        tracker_(config.shard.window_r, config.shard.window_s) {
    ValidateShardedJoinConfig<R, S, Pred>(config_);
    BuildShards();
  }

  ~JoinSession() { Stop(); }

  JoinSession(const JoinSession&) = delete;
  JoinSession& operator=(const JoinSession&) = delete;

  /// Registers a query: `pred` is evaluated at every window crossing,
  /// matches are delivered to `handler` (null = count only). May be called
  /// before the first Push (part of epoch 0) or on a live session — then a
  /// new epoch is installed on every shard at the current driver-order
  /// boundary, and the query matches every pair whose later input is pushed
  /// from here on.
  QueryHandle AddQuery(Pred pred, OutputHandler<R, S>* handler) {
    const QueryId id = router_.Register(handler);
    preds_.push_back(pred);
    live_.push_back(1);
    if (started_) InstallEpoch({});
    return QueryHandle{id};
  }

  /// Removes a live query at the current driver-order boundary: it matches
  /// no pair whose later input is pushed after this call. Its handler stays
  /// registered until every in-flight result of older epochs has drained on
  /// every shard, then receives the final punctuation (OnQueryRetired)
  /// exactly once. Returns false when the handle is unknown or already
  /// removed.
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
  std::size_t query_count() const { return LiveIds().size(); }

  /// True while `id` is registered and not removed.
  bool query_live(QueryId id) const {
    return id < live_.size() && live_[id] != 0;
  }

  // -- Ingestion -------------------------------------------------------------
  //
  // One path for every push: a single tuple is a span of one. Each tuple
  // and every window expiry or loss gap it triggers is staged into the
  // flows of the shard it is routed to, at its exact driver-order position,
  // so flow order (the correctness anchor of both handshake protocols) is
  // preserved; whole runs then reach the pipeline as channel bursts, and
  // the nodes' batch-aware matching probes a run against each window store
  // in a single pass. When the call returns, every shard with a staged run
  // delivers it, at every shard count (DESIGN.md Section 8).

  void PushR(const R& r, Timestamp ts) {
    Ingest<StreamSide::kR>(std::span<const R>(&r, 1),
                           std::span<const Timestamp>(&ts, 1), "PushR");
  }

  void PushS(const S& s, Timestamp ts) {
    Ingest<StreamSide::kS>(std::span<const S>(&s, 1),
                           std::span<const Timestamp>(&ts, 1), "PushS");
  }

  void PushR(std::span<const R> rs, std::span<const Timestamp> tss) {
    Ingest<StreamSide::kR>(rs, tss, "PushR");
  }

  void PushS(std::span<const S> ss, std::span<const Timestamp> tss) {
    Ingest<StreamSide::kS>(ss, tss, "PushS");
  }

  /// Builds the engines without pushing anything (otherwise the first push
  /// does).
  void Start() { EnsureStarted(); }

  /// Driver-visible backlog: messages queued in the shards' channels
  /// (result queues excluded).
  std::size_t ingest_backlog() const {
    std::size_t n = 0;
    for (const auto& shard : shards_) n += shard->backlog();
    return n;
  }

  // -- Output ----------------------------------------------------------------

  /// Delivers pending results (and punctuations) to the per-query handlers.
  /// For non-threaded pipelines this also advances the pipelines.
  void Poll() {
    for (auto& shard : shards_) shard->Poll();
  }

  /// Ends the input: flushes the handshake-join pipelines (so pairs still
  /// separated inside them meet) and drains everything to the handlers.
  void FinishInput() {
    if (!started_ || finished_) return;
    finished_ = true;
    // Close out any still-open loss gaps: there is no next admitted tuple
    // to carry them, and the accounting must be complete before the drain.
    StagePendingLoss(StreamSide::kR);
    StagePendingLoss(StreamSide::kS);
    for (auto& shard : shards_) shard->StageFlush();
    DeliverStaged();
    for (auto& shard : shards_) shard->Finish();
  }

  void Stop() {
    for (auto& shard : shards_) shard->Stop();
  }

  // -- Introspection ---------------------------------------------------------

  uint64_t results_collected() const { return router_.total_collected(); }

  /// Results routed to query `q` so far (any engine).
  uint64_t results_collected(QueryId q) const { return router_.collected(q); }

  const ShardedJoinConfig& config() const { return config_; }
  bool started() const { return started_; }
  int shard_count() const { return static_cast<int>(shards_.size()); }
  /// The resolved (never kAuto) partitioning in effect.
  PartitionPolicy partition() const { return resolved_; }

  /// Placement plan shard `shard`'s pipeline threads were pinned with
  /// (empty until a threaded session starts).
  const PlacementPlan& shard_placement(int shard) const {
    return shards_[static_cast<std::size_t>(shard)]->placement();
  }

  /// Epoch of the query set currently being installed into pushes: results
  /// of pairs whose later input is pushed now carry this epoch.
  Epoch current_epoch() const { return current_epoch_; }

  /// Highest epoch known fully drained on every shard: every result of an
  /// older epoch has been delivered, and queries removed at or before that
  /// boundary have received their final punctuation. Advanced by Poll/
  /// FinishInput as the per-node epoch markers arrive.
  Epoch drained_epoch() const { return router_.drained_epoch(); }

  /// Times a pipeline node deferred arrivals because its result ring was
  /// full, summed over every node of every shard (one per fill). Non-zero
  /// means the rings filled between Polls; results were still delivered
  /// exactly.
  uint64_t result_ring_stalls() const {
    uint64_t n = 0;
    for (const auto& shard : shards_) n += shard->result_ring_stalls();
    return n;
  }

  /// Times an engine thread was woken from its doorbell, and times one
  /// parked on it, summed over every shard's nodes; 0 for a non-threaded
  /// session. Thread-safe; the counts only grow.
  uint64_t engine_wakes() const {
    uint64_t n = 0;
    for (const auto& shard : shards_) n += shard->engine_wakes();
    return n;
  }
  uint64_t engine_parks() const {
    uint64_t n = 0;
    for (const auto& shard : shards_) n += shard->engine_parks();
    return n;
  }

  /// Times an engine thread found work after a park that no push ended
  /// (work that appeared without a ring waited for the timed fallback),
  /// summed over every shard's nodes; 0 for a non-threaded session.
  uint64_t engine_missed_wakes() const {
    uint64_t n = 0;
    for (const auto& shard : shards_) n += shard->engine_missed_wakes();
    return n;
  }

  /// Diagnostics for tests: anomaly counters of every shard plus misrouted
  /// results must stay zero.
  uint64_t pipeline_anomalies() const {
    uint64_t n = router_.misrouted();
    for (const auto& shard : shards_) n += shard->anomalies();
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

  /// Pushed timestamps that ran behind the session's last one and were
  /// raised to it (event time is monotonic across both sides).
  uint64_t timestamps_clamped() const { return timestamps_clamped_; }

  /// Tuples reported lost to the handlers so far (sum of all delivered
  /// OnLoss bounds). Equals tuples_shed once the stream has drained — the
  /// exact-accounting invariant.
  uint64_t tuples_lost_reported(StreamSide side) const {
    return router_.lost(side);
  }

  /// End-to-end latency distribution merged across all shards
  /// (LatencyHistogram::Merge: exact, order-independent).
  LatencyHistogram merged_latency_histogram() const {
    LatencyHistogram merged;
    for (const ShardOutput& out : outputs_) merged.Merge(out.latency);
    return merged;
  }

  /// Per-shard results delivered so far (load-balance introspection).
  uint64_t shard_results(int shard) const {
    return outputs_[static_cast<std::size_t>(shard)].latency.count();
  }

 private:
  using Shard = JoinShard<R, S, Pred>;

  /// Per-shard output adapter: every shard delivers its results,
  /// punctuations, loss bounds and epoch drains here, and the adapter feeds
  /// the one router. It keeps the shard's latency histogram and the
  /// admission EWMA; punctuations and epoch drains are merged as the min
  /// over shards, so a handler never hears about a timestamp or an epoch
  /// some other shard is still behind on. One clock read per burst, and
  /// one histogram add per run of equal `ready_wall_ns`: the results of one
  /// span push share its stamp.
  struct ShardOutput : OutputHandler<R, S> {
    ShardOutput() = default;
    ShardOutput(const ShardOutput&) = delete;  // its shard holds its address
    ShardOutput& operator=(const ShardOutput&) = delete;

    JoinSession* session = nullptr;
    LatencyHistogram latency;
    Timestamp punctuation = kMinTimestamp;
    Epoch drained = 0;

    void OnResult(const ResultMsg<R, S>& m) override { OnResultBurst(&m, 1); }
    void OnResultBurst(const ResultMsg<R, S>* run, std::size_t n) override {
      AdmissionController& admission = session->admission_;
      int64_t now = 0;
      std::size_t i = 0;
      while (i < n) {
        const int64_t ready = run[i].ready_wall_ns;
        std::size_t end = i + 1;
        while (end < n && run[end].ready_wall_ns == ready) ++end;
        if (ready > 0) {
          if (now == 0) now = NowNs();  // NOLINT(hot-path-clock): per burst
          const int64_t latency_ns = now - ready;
          latency.Add(latency_ns, end - i);
          if (admission.enabled()) {
            for (std::size_t k = i; k < end; ++k) {
              admission.ObserveResult(latency_ns, now);
            }
          }
        }
        i = end;
      }
      session->router_.OnResultBurst(run, n);
    }
    void OnPunctuation(Timestamp tp) override {
      punctuation = std::max(punctuation, tp);
      Timestamp merged = punctuation;
      for (const ShardOutput& o : session->outputs_) {
        merged = std::min(merged, o.punctuation);
      }
      if (merged > session->last_punctuation_) {
        session->last_punctuation_ = merged;
        session->router_.OnPunctuation(merged);
      }
    }
    void OnLoss(StreamSide side, Seq first_seq, uint64_t count) override {
      session->router_.OnLoss(side, first_seq, count);
    }
    void OnEpochDrained(Epoch epoch) override {
      drained = std::max(drained, epoch);
      Epoch merged = drained;
      for (const ShardOutput& o : session->outputs_) {
        merged = std::min(merged, o.drained);
      }
      session->router_.OnEpochDrained(merged);
    }
  };

  struct Route {
    Seq seq = 0;
    int shard = 0;
  };

  /// Builds the shards, spreading threaded ones over the NUMA nodes of the
  /// configured (or detected) topology round-robin: shard k runs on node
  /// k mod nodes, so its PlacementPlan pins the pipeline's threads onto
  /// that node alone. Shards sharing a node split its cores
  /// between them (Topology::OnNode's slice form) instead of each taking
  /// the whole node, where every shard's position 0 would land on the
  /// node's first CPU. A single shard keeps the caller's topology.
  void BuildShards() {
    std::shared_ptr<const Topology> topo = config_.shard.topology;
    std::vector<int> nodes;
    if (config_.shard.threaded && config_.shards > 1) {
      if (topo == nullptr) {
        topo = std::make_shared<const Topology>(Topology::Detect());
      }
      for (const TopoCpu& c : topo->entries()) {
        if (std::find(nodes.begin(), nodes.end(), c.node) == nodes.end()) {
          nodes.push_back(c.node);
        }
      }
    }
    // Sized once: shards keep pointers to their adapters.
    outputs_ =
        std::vector<ShardOutput>(static_cast<std::size_t>(config_.shards));
    const int node_count = static_cast<int>(nodes.size());
    for (int k = 0; k < config_.shards; ++k) {
      JoinConfig shard_config = config_.shard;
      if (!nodes.empty()) {
        // Shards k, k + nodes, k + 2 * nodes, ... share node k mod nodes.
        const int home = k % node_count;
        const int sharing =
            (config_.shards - home + node_count - 1) / node_count;
        Topology sub = topo->OnNode(nodes[static_cast<std::size_t>(home)],
                                    k / node_count, sharing);
        shard_config.topology =
            sub.cpu_count() > 0
                ? std::make_shared<const Topology>(std::move(sub))
                : topo;
      }
      ShardOutput& out = outputs_[static_cast<std::size_t>(k)];
      out.session = this;
      shards_.push_back(std::make_unique<Shard>(shard_config, &out));
    }
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

  /// Builds the engines on the first Push; the live set becomes epoch 0.
  void EnsureStarted() {
    if (started_) return;
    const std::vector<QueryId> ids = LiveIds();
    if (ids.empty()) {
      // Self-diagnosing like ValidateJoinConfig: name the state observed.
      throw std::logic_error(
          "JoinSession: cannot start ingestion with 0 live queries "
          "(session state: not started, " + std::to_string(preds_.size()) +
          " registered, " + std::to_string(pre_start_removed_.size()) +
          " removed before start); register at least one query via "
          "AddQuery before the first Push");
    }
    started_ = true;
    AdmissionController::Options adm;
    adm.budget_ns = config_.shard.latency_budget_us * 1000;
    adm.policy = config_.shard.overload_policy;
    admission_.Configure(adm);  // preserves a pre-installed force hook
    router_.BeginEpoch(0, ids, pre_start_removed_);
    for (auto& shard : shards_) shard->Start(LiveSet(), ids);
    // Nothing precedes epoch 0, so it is drained by definition — this also
    // retires queries that were removed before the session ever started.
    router_.OnEpochDrained(0);
  }

  /// Installs the current live membership as a new epoch on every shard at
  /// this driver-order boundary. The router learns the epoch first, so a
  /// shard that drains it within this call (a non-threaded one) retires
  /// the removed queries.
  void InstallEpoch(std::vector<QueryId> removed) {
    const std::vector<QueryId> ids = LiveIds();
    ++current_epoch_;
    router_.BeginEpoch(current_epoch_, ids, std::move(removed));
    for (auto& shard : shards_) shard->StageEpoch(LiveSet(), ids);
    DeliverStaged();
  }

  template <StreamSide kSide>
  void Ingest(std::span<const typename Shard::template Tuple<kSide>> tuples,
              std::span<const Timestamp> tss, const char* method) {
    if (tuples.size() != tss.size()) {
      throw std::invalid_argument(
          std::string("JoinSession::") + method +
          ": tuple and timestamp spans differ in size");
    }
    driver_role_.AssertHeld("JoinSession", "driver");
    EnsureStarted();
    // The push call is the arrival: every tuple of the span carries the
    // call's one wall stamp, for latency and admission alike.
    const int64_t now = NowNs();  // NOLINT(hot-path-clock): once per call
    Seq& next_seq = kSide == StreamSide::kR ? r_seq_ : s_seq_;
    for (std::size_t i = 0; i < tuples.size(); ++i) {
      const Timestamp ts = Monotonic(tss[i]);
      StageTimeExpiries(ts);
      const Seq seq = next_seq++;
      if (ShedAtIngest(kSide, seq, now)) continue;  // the tracker never sees it
      StagePendingLoss(kSide);
      if (!Thinned(kSide)) {
        for (auto& shard : shards_) {
          shard->template StageArrival<kSide>(tuples[i], seq, ts,
                                              current_epoch_, now);
        }
      } else {
        const int target = TargetShard<kSide>(tuples[i], seq);
        shards_[static_cast<std::size_t>(target)]
            ->template StageArrival<kSide>(tuples[i], seq, ts,
                                           current_epoch_, now);
        (kSide == StreamSide::kR ? route_r_ : route_s_)
            .push_back(Route{seq, target});
      }
      Seq expired_seq;
      Timestamp expired_ts;
      if (tracker_.OnArrival(kSide, seq, ts, &expired_seq, &expired_ts)) {
        RouteExpiry(kSide, expired_seq, expired_ts);
      }
    }
    DeliverStaged();
  }

  /// The call returns: every shard delivers its staged run, one run per
  /// shard and call. Staging itself never delivers (the handshake join's
  /// expiry guard aside, JoinShard::StageExpiry), so a shard's channels
  /// take one burst per push however the driver interleaves the shards.
  /// With admission enabled, the call's delivered message count feeds the
  /// controller's delivery-spacing (service) sensor, which turns the
  /// channel backlog into the queueing term of its projection.
  void DeliverStaged() {
    std::size_t delivered = 0;
    for (auto& shard : shards_) {
      shard->Deliver();
      delivered += shard->TakeDelivered();
    }
    if (admission_.enabled()) {
      const int64_t now = NowNs();  // NOLINT(hot-path-clock): once per call
      admission_.ObserveDelivered(delivered, now);
    }
  }

  // -- Partitioning ----------------------------------------------------------

  /// True when each shard sees only part of `side`'s stream: arrivals enter
  /// exactly one shard, and expiries follow the recorded route. False when
  /// the side is replicated (expiries broadcast) — always so at N = 1.
  bool Thinned(StreamSide side) const {
    return shards_.size() > 1 && SidePartitioned(resolved_, side);
  }

  /// Shard owning an arrival of a partitioned side: by join key under
  /// kHashKey, by sequence number when the other side is replicated.
  template <StreamSide kSide>
  int TargetShard(const typename Shard::template Tuple<kSide>& tuple,
                  Seq seq) const {
    if constexpr (IsEquiKey<Pred, R, S>()) {
      if (resolved_ == PartitionPolicy::kHashKey) {
        using Traits = JoinKeyTraits<Pred, R, S>;
        if constexpr (kSide == StreamSide::kR) {
          return ShardOfKey(static_cast<uint64_t>(Traits::KeyR(tuple)),
                            shard_count());
        } else {
          return ShardOfKey(static_cast<uint64_t>(Traits::KeyS(tuple)),
                            shard_count());
        }
      }
    }
    return static_cast<int>(seq % static_cast<Seq>(shards_.size()));
  }

  // -- Window bookkeeping over the global arrival order ----------------------

  /// Event time never runs backwards: a timestamp below the last one is
  /// raised to it, and counted (timestamps_clamped()).
  Timestamp Monotonic(Timestamp ts) {
    if (ts < last_ts_) {
      ts = last_ts_;
      ++timestamps_clamped_;
    }
    last_ts_ = ts;
    return ts;
  }

  void StageTimeExpiries(Timestamp ts) {
    StreamSide side;
    Seq seq;
    Timestamp expired_ts;
    while (tracker_.PopTimeExpiry(ts, &side, &seq, &expired_ts)) {
      RouteExpiry(side, seq, expired_ts);
    }
  }

  /// Sends the expiry of tuple `seq` to exactly the shards that hold it.
  /// Per-side expiries leave the tracker in FIFO arrival order — the same
  /// order the route records were pushed — so the front record must match.
  void RouteExpiry(StreamSide side, Seq seq, Timestamp ts) {
    if (!Thinned(side)) {
      for (auto& shard : shards_) {
        shard->StageExpiry(side, seq, ts, /*thinned=*/false);
      }
      return;
    }
    VecDeque<Route>& route = side == StreamSide::kR ? route_r_ : route_s_;
    if (route.empty() || route.front().seq != seq) {
      throw std::logic_error(
          "JoinSession: expiry routing desynchronized (side " +
          std::string(side == StreamSide::kR ? "R" : "S") + ", expiry seq " +
          std::to_string(seq) +
          (route.empty() ? ", no route recorded"
                         : ", front route seq " +
                               std::to_string(route.front().seq)) +
          ")");
    }
    const int shard = route.front().shard;
    route.pop_front();
    shards_[static_cast<std::size_t>(shard)]->StageExpiry(side, seq, ts,
                                                          /*thinned=*/true);
  }

  // -- Overload control (DESIGN.md Section 12) -------------------------------

  /// Admission decision for one arrival whose seq is already consumed.
  /// Returns true when the tuple is shed: the caller must then skip BOTH
  /// the staging and the expiry-tracker update — a shed tuple never
  /// reaches a window store, so no expiry may ever reference it (an expiry
  /// for an absent tuple would tombstone-leak in LLHJ and stall the
  /// completion gate forever).
  bool ShedAtIngest(StreamSide side, Seq seq, int64_t now) {
    if (!admission_.enabled() && !admission_.has_force_shed()) return false;
    // The push call IS the arrival (waited = 0): `now` is the call's one
    // stamp. Overload pressure shows up through the latency EWMA and the
    // channel backlog instead.
    if (!admission_.ShouldShed(side, seq, now, now, ingest_backlog())) {
      return false;
    }
    admission_.RecordShed(side, seq);
    return true;
  }

  /// Stages every closed gap of `side` at the current stream position, in
  /// flow order, into exactly ONE shard (the first): the router broadcasts
  /// each bound once per handler, so delivering it through a single shard
  /// keeps the accounting exactly-once.
  void StagePendingLoss(StreamSide side) {
    LossBound gap;
    while (admission_.TakeGap(side, &gap)) {
      shards_.front()->StageLoss(gap.side, gap.first_seq, gap.count);
    }
  }

  ShardedJoinConfig config_;
  PartitionPolicy resolved_;
  ExpiryTracker tracker_;
  QueryRouter<R, S> router_;
  AdmissionController admission_;

  // Query lifecycle state: predicates by session-wide id (never reused),
  // the live membership, and the epoch counter.
  std::vector<Pred> preds_;
  std::vector<uint8_t> live_;
  std::vector<QueryId> pre_start_removed_;
  Epoch current_epoch_ = 0;

  Seq r_seq_ = 0;
  Seq s_seq_ = 0;
  Timestamp last_ts_ = kMinTimestamp;
  uint64_t timestamps_clamped_ = 0;
  Timestamp last_punctuation_ = kMinTimestamp;
  bool started_ = false;
  bool finished_ = false;
  // Checked-contracts state (DESIGN.md Section 14): every ingestion call
  // must come from the one driver thread of this session (within an
  // executor generation).
  [[no_unique_address]] contracts::ThreadRole driver_role_;

  // Partitioned-side expiry routing: FIFO of (seq, shard) per side.
  VecDeque<Route> route_r_;
  VecDeque<Route> route_s_;

  // Shards are declared after their adapters, so they are destroyed first.
  std::vector<ShardOutput> outputs_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

/// The N >= 1 form of the session is the session. The alias (and
/// core/sharded_session.hpp) remains only for the repo benchmark under
/// perfbench/, which names it; everything else says JoinSession.
template <typename R, typename S, typename Pred>
using ShardedJoinSession = JoinSession<R, S, Pred>;

}  // namespace sjoin
