// Sharded multi-pipeline scale-out (DESIGN.md Section 13). A
// ShardedJoinSession runs N independent JoinSession pipelines ("shards"),
// each placed on its own NUMA node, behind the SAME single-session API and
// OutputHandler contract:
//
//   partitioning driver — ONE global driver owns sequence numbering,
//     monotonic timestamps, window bookkeeping (a single ExpiryTracker over
//     the global arrival order) and admission. Every arrival is routed by
//     the resolved PartitionPolicy (stream/partitioner.hpp): equi-joins
//     hash both sides on the join key; band/range predicates replicate one
//     side and round-robin the other. Expiries are routed to exactly the
//     shards that received the tuple (a per-side FIFO of partitioned-side
//     routes — global expiry order is per-side FIFO, so the front always
//     matches).
//   merging collector — per-shard output handlers feed one merge-level
//     QueryRouter, so per-query attribution, epoch retirement
//     (OnEpochDrained = min over shard drained epochs), punctuations
//     (min over shard punctuations), loss accounting (OnLoss aggregated
//     across shards) and latency histograms (LatencyHistogram::Merge) look
//     exactly like a single session to the registered handlers.
//
// Correctness: restricting the global driver-event sequence to one shard's
// subset preserves relative order, so a pair (r, s) is live-overlapping on
// its shard iff it is live-overlapping globally; hash partitioning puts
// every matching pair on one shard (ShardKeyTraits contract), replication
// puts every candidate pair on exactly one shard. The result multiset is
// therefore EXACTLY the single-shard oracle's — proven per engine by
// tests/test_sharded.cpp and re-proven on every PR by the CI
// sharded-equivalence leg.
//
// Overload control runs at the sharding driver only (per-shard admission is
// rejected by validation): one latency budget governs the whole session,
// sheds are recorded against global sequence numbers, and each loss gap is
// injected in-band into exactly one shard — the merge router then reports
// it exactly once per handler, keeping the PR 6 invariant
// tuples_lost_reported == tuples_shed after drain.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/clock.hpp"
#include "common/types.hpp"
#include "core/join_session.hpp"
#include "runtime/topology.hpp"
#include "stream/admission.hpp"
#include "stream/handlers.hpp"
#include "stream/message.hpp"
#include "stream/partitioner.hpp"
#include "stream/script.hpp"
#include "stream/stats.hpp"

namespace sjoin {

struct ShardedJoinConfig {
  /// Per-shard engine configuration (engine, windows, parallelism,
  /// threading, placement...). `shard.topology` is the machine model the
  /// shards are spread over: shard k is placed on the k-th NUMA node
  /// (round-robin) via Topology::OnNode. Per-shard overload fields must
  /// stay disabled — admission runs at the sharding driver (below).
  JoinConfig shard;

  /// Number of independent pipeline shards. Must be >= 1; 1 degenerates to
  /// a plain JoinSession behind the same API.
  int shards = 2;

  /// How the two input streams are split (stream/partitioner.hpp). kAuto
  /// resolves from the predicate type's metadata.
  PartitionPolicy partition = PartitionPolicy::kAuto;

  /// Sharding-level overload control (DESIGN.md Section 12): one budget and
  /// policy for the whole session, applied at the partitioning driver
  /// against the summed shard backlog and the merged latency EWMA.
  int64_t latency_budget_us = 0;
  OverloadPolicy overload_policy = OverloadPolicy::kNone;
};

/// Rejects shard counts and policies the predicate set cannot support.
/// Throws std::invalid_argument naming the offending field AND value.
template <typename R, typename S, typename Pred>
void ValidateShardedJoinConfig(const ShardedJoinConfig& config) {
  if (config.shards < 1) {
    throw std::invalid_argument(
        "ShardedJoinConfig: shards must be >= 1, got " +
        std::to_string(config.shards));
  }
  if (config.shard.latency_budget_us != 0 ||
      config.shard.overload_policy != OverloadPolicy::kNone) {
    throw std::invalid_argument(
        std::string("ShardedJoinConfig: per-shard overload control must stay "
                    "disabled (got shard.latency_budget_us = ") +
        std::to_string(config.shard.latency_budget_us) +
        ", shard.overload_policy = \"" + ToString(config.shard.overload_policy) +
        "\"); admission runs at the sharding driver, which alone sees the "
        "global sequence numbers the loss accounting is expressed in — set "
        "ShardedJoinConfig::latency_budget_us / overload_policy instead");
  }
  if (config.latency_budget_us < 0) {
    throw std::invalid_argument(
        "ShardedJoinConfig: latency_budget_us must be >= 0 (0 disables "
        "admission), got " +
        std::to_string(config.latency_budget_us));
  }
  if (config.overload_policy != OverloadPolicy::kNone &&
      config.latency_budget_us == 0) {
    throw std::invalid_argument(
        std::string("ShardedJoinConfig: overload_policy \"") +
        ToString(config.overload_policy) +
        "\" requires a latency budget to shed against; got "
        "latency_budget_us = 0 (set a positive budget, or use policy "
        "\"none\")");
  }
  // Resolution throws when the requested policy is infeasible for the
  // predicate type (kHashKey without ShardKeyTraits).
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
    const int64_t floor =
        std::max<int64_t>(8, 2 * static_cast<int64_t>(config.shard.parallelism));
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
    const bool r_thinned = resolved == PartitionPolicy::kHashKey ||
                           resolved == PartitionPolicy::kReplicateS;
    const bool s_thinned = resolved == PartitionPolicy::kHashKey ||
                           resolved == PartitionPolicy::kReplicateR;
    if (r_thinned) check_side("R", config.shard.window_r);
    if (s_thinned) check_side("S", config.shard.window_s);
  }
  ValidateJoinConfig(config.shard);
}

template <typename R, typename S, typename Pred>
class ShardedJoinSession {
 public:
  using Shard = JoinSession<R, S, Pred>;
  using QueryHandle = typename Shard::QueryHandle;

  explicit ShardedJoinSession(const ShardedJoinConfig& config)
      : config_(config),
        resolved_(ResolvePartitionPolicy<Pred, R, S>(config.partition)),
        tracker_(config.shard.window_r, config.shard.window_s) {
    ValidateShardedJoinConfig<R, S, Pred>(config_);
    BuildShards();
  }

  ~ShardedJoinSession() { Stop(); }

  ShardedJoinSession(const ShardedJoinSession&) = delete;
  ShardedJoinSession& operator=(const ShardedJoinSession&) = delete;

  // -- Query lifecycle (mirrors JoinSession) ---------------------------------

  /// Registers a query on every shard under one merge-level id; results
  /// from any shard are routed to `handler` by that id. Works before the
  /// first Push and on a running session (a new epoch is installed on
  /// every shard at the same global ingest boundary).
  QueryHandle AddQuery(Pred pred, OutputHandler<R, S>* handler) {
    const QueryId id = merge_router_.Register(handler);
    live_.push_back(1);
    if (started_) {
      ++current_epoch_;
      merge_router_.BeginEpoch(current_epoch_, LiveIds(), {});
    }
    for (std::size_t k = 0; k < shards_.size(); ++k) {
      const QueryHandle h = shards_[k]->AddQuery(pred, outputs_[k].get());
      if (h.id != id) {
        throw std::logic_error(
            "ShardedJoinSession: shard/merge query id diverged");
      }
    }
    if (started_) MergeEpochDrain();
    return QueryHandle{id};
  }

  /// Removes a live query on every shard at the same global boundary; its
  /// handler receives OnQueryRetired exactly once, after every shard has
  /// drained the removal epoch. Returns false when the handle is unknown or
  /// already removed.
  bool RemoveQuery(QueryHandle handle) {
    const QueryId id = handle.id;
    if (id >= live_.size() || live_[id] == 0) return false;
    live_[id] = 0;
    if (started_) {
      ++current_epoch_;
      merge_router_.BeginEpoch(current_epoch_, LiveIds(), {id});
    } else {
      pre_start_removed_.push_back(id);
    }
    for (auto& shard : shards_) {
      if (!shard->RemoveQuery(handle)) {
        throw std::logic_error(
            "ShardedJoinSession: shard rejected RemoveQuery the merge layer "
            "accepted (id " + std::to_string(id) + ")");
      }
    }
    if (started_) MergeEpochDrain();
    return true;
  }

  std::size_t query_count() const { return LiveCount(); }
  bool query_live(QueryId id) const {
    return id < live_.size() && live_[id] != 0;
  }

  // -- Ingestion (the global partitioning driver) ----------------------------

  void PushR(const R& r, Timestamp ts) {
    EnsureStarted();
    ts = Monotonic(ts);
    EmitTimeExpiries(ts);
    const Seq seq = r_seq_++;
    if (ShedAtIngest(StreamSide::kR, seq)) return;  // tracker never sees it
    EmitPendingLoss(StreamSide::kR);
    const int target = TargetShardR(r, seq);
    if (target < 0) {
      for (auto& shard : shards_) shard->PushRAt(r, ts, seq);
    } else {
      shards_[static_cast<std::size_t>(target)]->PushRAt(r, ts, seq);
      route_r_.push_back(Route{seq, target});
    }
    EmitCountExpiry(StreamSide::kR, seq, ts);
  }

  void PushS(const S& s, Timestamp ts) {
    EnsureStarted();
    ts = Monotonic(ts);
    EmitTimeExpiries(ts);
    const Seq seq = s_seq_++;
    if (ShedAtIngest(StreamSide::kS, seq)) return;
    EmitPendingLoss(StreamSide::kS);
    const int target = TargetShardS(s, seq);
    if (target < 0) {
      for (auto& shard : shards_) shard->PushSAt(s, ts, seq);
    } else {
      shards_[static_cast<std::size_t>(target)]->PushSAt(s, ts, seq);
      route_s_.push_back(Route{seq, target});
    }
    EmitCountExpiry(StreamSide::kS, seq, ts);
  }

  /// Span convenience (semantically the per-tuple loop; the partitioning
  /// driver routes tuple by tuple, so there is no cross-shard batch to
  /// stage).
  void PushR(std::span<const R> rs, std::span<const Timestamp> tss) {
    if (rs.size() != tss.size()) {
      throw std::invalid_argument(
          "ShardedJoinSession::PushR: tuple and timestamp spans differ in "
          "size");
    }
    for (std::size_t i = 0; i < rs.size(); ++i) PushR(rs[i], tss[i]);
  }

  void PushS(std::span<const S> ss, std::span<const Timestamp> tss) {
    if (ss.size() != tss.size()) {
      throw std::invalid_argument(
          "ShardedJoinSession::PushS: tuple and timestamp spans differ in "
          "size");
    }
    for (std::size_t i = 0; i < ss.size(); ++i) PushS(ss[i], tss[i]);
  }

  // -- Output ----------------------------------------------------------------

  /// Polls every shard and advances the merged epoch-drain watermark.
  void Poll() {
    for (auto& shard : shards_) shard->Poll();
    MergeEpochDrain();
  }

  /// Ends the input on every shard and drains everything to the handlers.
  void FinishInput() {
    if (!started_ || finished_) return;
    finished_ = true;
    EmitPendingLoss(StreamSide::kR);
    EmitPendingLoss(StreamSide::kS);
    for (auto& shard : shards_) shard->FinishInput();
    for (auto& shard : shards_) shard->Poll();
    MergeEpochDrain();
  }

  void Stop() {
    for (auto& shard : shards_) shard->Stop();
    MergeEpochDrain();
  }

  // -- Introspection ---------------------------------------------------------

  uint64_t results_collected() const { return merge_router_.total_collected(); }
  uint64_t results_collected(QueryId q) const {
    return merge_router_.collected(q);
  }

  int shard_count() const { return static_cast<int>(shards_.size()); }
  /// The resolved (never kAuto) partitioning in effect.
  PartitionPolicy partition() const { return resolved_; }
  const ShardedJoinConfig& config() const { return config_; }
  bool started() const { return started_; }

  Epoch current_epoch() const { return current_epoch_; }
  Epoch drained_epoch() const { return merge_router_.drained_epoch(); }

  /// Anomaly counters across all shards plus merge-level misroutes; must
  /// stay zero.
  uint64_t pipeline_anomalies() const {
    uint64_t n = merge_router_.misrouted();
    for (const auto& shard : shards_) n += shard->pipeline_anomalies();
    return n;
  }

  /// Sharding-level admission (mutable so tests can install the
  /// deterministic force-shed hook before the first Push).
  AdmissionController& admission() { return admission_; }
  const AdmissionController& admission() const { return admission_; }

  uint64_t tuples_shed(StreamSide side) const {
    return admission_.shed_count(side);
  }
  uint64_t tuples_lost_reported(StreamSide side) const {
    return merge_router_.lost(side);
  }

  /// End-to-end latency distribution merged across all shards
  /// (LatencyHistogram::Merge — the merging-collector contract).
  LatencyHistogram merged_latency_histogram() const {
    LatencyHistogram merged;
    for (const LatencyHistogram& h : shard_hists_) merged.Merge(h);
    return merged;
  }

  /// Placement plan shard `shard`'s pipeline threads were pinned with.
  const PlacementPlan& shard_placement(int shard) const {
    return shards_[static_cast<std::size_t>(shard)]->placement();
  }

  /// Per-shard results delivered so far (load-balance introspection).
  uint64_t shard_results(int shard) const {
    return shard_hists_[static_cast<std::size_t>(shard)].count();
  }

 private:
  /// Per-shard output adapter: every shard delivers its results,
  /// punctuations and loss bounds here; the owner merges them into the
  /// single-session handler contract. Shard-level epoch drains and
  /// retirements are intentionally ignored — the merge layer re-derives
  /// both from the min over shard drained epochs, so a handler never hears
  /// about an epoch some other shard is still draining.
  struct ShardOutput : OutputHandler<R, S> {
    ShardedJoinSession* owner = nullptr;
    int shard = 0;
    void OnResult(const ResultMsg<R, S>& m) override {
      owner->OnShardResults(shard, &m, 1);
    }
    void OnResultBurst(const ResultMsg<R, S>* run, std::size_t n) override {
      owner->OnShardResults(shard, run, n);
    }
    void OnPunctuation(Timestamp tp) override {
      owner->OnShardPunctuation(shard, tp);
    }
    void OnLoss(StreamSide side, Seq first_seq, uint64_t count) override {
      owner->merge_router_.OnLoss(side, first_seq, count);
    }
    void OnEpochDrained(Epoch /*epoch*/) override {}
    void OnQueryRetired(QueryId /*query*/) override {}
  };

  struct Route {
    Seq seq = 0;
    int shard = 0;
  };

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

  /// Builds the member sessions, spreading threaded shards over the NUMA
  /// nodes of the configured (or detected) topology round-robin: shard k
  /// runs on node k mod nodes, so its PlacementPlan pins pipeline, helpers
  /// and channel memory onto that node alone. Shards sharing a node split
  /// its cores between them (Topology::OnNode's slice form) instead of each
  /// taking the whole node, where every shard's position 0 would land on
  /// the node's first CPU. A single shard keeps the caller's topology
  /// untouched (exact degeneration to the plain session).
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
    shard_hists_.resize(static_cast<std::size_t>(config_.shards));
    shard_punct_.assign(static_cast<std::size_t>(config_.shards),
                        kMinTimestamp);
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
      auto output = std::make_unique<ShardOutput>();
      output->owner = this;
      output->shard = k;
      outputs_.push_back(std::move(output));
      shards_.push_back(std::make_unique<Shard>(shard_config));
    }
  }

  void EnsureStarted() {
    if (started_) return;
    if (LiveCount() == 0) {
      throw std::logic_error(
          "ShardedJoinSession: cannot start ingestion with 0 live queries "
          "(session state: not started, " + std::to_string(live_.size()) +
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
    merge_router_.BeginEpoch(0, LiveIds(), pre_start_removed_);
    // Nothing precedes epoch 0: drained by definition (also retires
    // queries removed before the session ever started).
    merge_router_.OnEpochDrained(0);
    for (auto& shard : shards_) shard->Start();
  }

  // -- Partitioning ----------------------------------------------------------

  /// Shard owning an R arrival, or -1 to replicate it to every shard.
  int TargetShardR(const R& r, Seq seq) const {
    switch (resolved_) {
      case PartitionPolicy::kHashKey:
        if constexpr (ShardKeyTraits<Pred, R, S>::kEnabled) {
          return ShardOfKey(ShardKeyTraits<Pred, R, S>::KeyR(r),
                            shard_count());
        }
        return 0;  // unreachable: kHashKey is rejected without traits
      case PartitionPolicy::kReplicateR:
        return -1;
      case PartitionPolicy::kReplicateS:
        return static_cast<int>(seq % static_cast<Seq>(shards_.size()));
      case PartitionPolicy::kAuto:
        break;  // unreachable: resolved_ is never kAuto
    }
    return 0;
  }

  int TargetShardS(const S& s, Seq seq) const {
    switch (resolved_) {
      case PartitionPolicy::kHashKey:
        if constexpr (ShardKeyTraits<Pred, R, S>::kEnabled) {
          return ShardOfKey(ShardKeyTraits<Pred, R, S>::KeyS(s),
                            shard_count());
        }
        return 0;
      case PartitionPolicy::kReplicateS:
        return -1;
      case PartitionPolicy::kReplicateR:
        return static_cast<int>(seq % static_cast<Seq>(shards_.size()));
      case PartitionPolicy::kAuto:
        break;
    }
    return 0;
  }

  /// True when arrivals of `side` enter exactly one shard (and expiries
  /// must follow the recorded route); false when the side is replicated
  /// (expiries broadcast).
  bool SidePartitioned(StreamSide side) const {
    if (resolved_ == PartitionPolicy::kHashKey) return true;
    return side == StreamSide::kR
               ? resolved_ == PartitionPolicy::kReplicateS
               : resolved_ == PartitionPolicy::kReplicateR;
  }

  // -- Global driver (window bookkeeping over the global arrival order) ------

  Timestamp Monotonic(Timestamp ts) {
    if (ts < last_ts_) ts = last_ts_;
    last_ts_ = ts;
    return ts;
  }

  void EmitTimeExpiries(Timestamp ts) {
    StreamSide side;
    Seq seq;
    Timestamp expired_ts;
    while (tracker_.PopTimeExpiry(ts, &side, &seq, &expired_ts)) {
      RouteExpiry(side, seq, expired_ts);
    }
  }

  void EmitCountExpiry(StreamSide side, Seq seq, Timestamp ts) {
    Seq expired_seq;
    Timestamp expired_ts;
    if (tracker_.OnArrival(side, seq, ts, &expired_seq, &expired_ts)) {
      RouteExpiry(side, expired_seq, expired_ts);
    }
  }

  /// Sends the expiry of tuple `seq` to exactly the shards that hold it.
  /// Per-side expiries leave the tracker in FIFO arrival order — the same
  /// order the route records were pushed — so the front record must match.
  void RouteExpiry(StreamSide side, Seq seq, Timestamp ts) {
    if (!SidePartitioned(side)) {
      for (auto& shard : shards_) shard->PushExpiry(side, seq, ts);
      return;
    }
    auto& route = side == StreamSide::kR ? route_r_ : route_s_;
    if (route.empty() || route.front().seq != seq) {
      throw std::logic_error(
          "ShardedJoinSession: expiry routing desynchronized (side " +
          std::string(side == StreamSide::kR ? "R" : "S") + ", expiry seq " +
          std::to_string(seq) +
          (route.empty() ? ", no route recorded"
                         : ", front route seq " +
                               std::to_string(route.front().seq)) +
          ")");
    }
    const int shard = route.front().shard;
    route.pop_front();
    shards_[static_cast<std::size_t>(shard)]->PushExpiry(side, seq, ts);
  }

  // -- Overload control (sharding-level; DESIGN.md Sections 12 + 13) ---------

  bool ShedAtIngest(StreamSide side, Seq seq) {
    if (!admission_.enabled() && !admission_.has_force_shed()) return false;
    const int64_t now = NowNs();
    if (!admission_.ShouldShed(side, seq, now, now, TotalBacklog())) {
      return false;
    }
    admission_.RecordShed(side, seq);
    return true;
  }

  /// Injects every closed gap of `side` into exactly ONE shard (the first):
  /// the merge router broadcasts each bound once per handler, so delivering
  /// it through a single shard keeps the accounting exactly-once while
  /// staying in-band with that shard's result stream.
  void EmitPendingLoss(StreamSide side) {
    LossBound gap;
    while (admission_.TakeGap(side, &gap)) {
      shards_.front()->InjectLoss(gap.side, gap.first_seq, gap.count);
    }
  }

  std::size_t TotalBacklog() const {
    std::size_t n = 0;
    for (const auto& shard : shards_) n += shard->ingest_backlog();
    return n;
  }

  // -- Merging collector -----------------------------------------------------

  /// One clock read per burst: every result of the run is stamped with the
  /// time its burst reached the merge layer.
  void OnShardResults(int shard, const ResultMsg<R, S>* run, std::size_t n) {
    const int64_t now = NowNs();
    LatencyHistogram& hist = shard_hists_[static_cast<std::size_t>(shard)];
    const bool observe = admission_.enabled();
    for (std::size_t i = 0; i < n; ++i) {
      if (run[i].ready_wall_ns <= 0) continue;
      const int64_t latency = now - run[i].ready_wall_ns;
      hist.Add(latency);
      if (observe) admission_.ObserveResult(latency, now);
    }
    merge_router_.OnResultBurst(run, n);
  }

  /// Punctuation merging: a timestamp is safe for the whole session only
  /// once EVERY shard has punctuated it (a shard that lags may still emit
  /// results below its own mark). The merged mark is the min over the
  /// shards' latest marks, forwarded whenever it advances.
  void OnShardPunctuation(int shard, Timestamp tp) {
    auto& mark = shard_punct_[static_cast<std::size_t>(shard)];
    mark = std::max(mark, tp);
    Timestamp merged = shard_punct_.front();
    for (Timestamp t : shard_punct_) merged = std::min(merged, t);
    if (merged > last_merged_punct_) {
      last_merged_punct_ = merged;
      merge_router_.OnPunctuation(merged);
    }
  }

  /// Epoch-drain merging: an epoch is drained session-wide once every
  /// shard has drained it. The merge router then retires removed queries
  /// and fires OnEpochDrained/OnQueryRetired exactly once.
  void MergeEpochDrain() {
    if (!started_ || shards_.empty()) return;
    Epoch merged = shards_.front()->drained_epoch();
    for (const auto& shard : shards_) {
      merged = std::min(merged, shard->drained_epoch());
    }
    merge_router_.OnEpochDrained(merged);
  }

  ShardedJoinConfig config_;
  PartitionPolicy resolved_;
  ExpiryTracker tracker_;
  QueryRouter<R, S> merge_router_;
  AdmissionController admission_;

  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<std::unique_ptr<ShardOutput>> outputs_;
  std::vector<LatencyHistogram> shard_hists_;
  std::vector<Timestamp> shard_punct_;
  Timestamp last_merged_punct_ = kMinTimestamp;

  // Partitioned-side expiry routing: FIFO of (seq, shard) per side.
  std::deque<Route> route_r_;
  std::deque<Route> route_s_;

  // Query lifecycle state (mirrors JoinSession).
  std::vector<uint8_t> live_;
  std::vector<QueryId> pre_start_removed_;
  Epoch current_epoch_ = 0;

  Seq r_seq_ = 0;
  Seq s_seq_ = 0;
  Timestamp last_ts_ = kMinTimestamp;
  bool started_ = false;
  bool finished_ = false;
};

}  // namespace sjoin
