// Assembly of an original handshake join pipeline (paper [20], Section
// 2.3): n nodes, neighbour channels, per-node result queues, collector
// factory. Segment capacities determine when tuples relocate; the harness
// derives them from the window size (window / nodes, the "fair share").
#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <vector>

#include "common/types.hpp"
#include "hsj/hsj_node.hpp"
#include "runtime/executor.hpp"
#include "runtime/spsc_queue.hpp"
#include "stream/collector.hpp"
#include "stream/message.hpp"
#include "stream/ports.hpp"
#include "stream/query_set.hpp"
#include "stream/sink.hpp"

namespace sjoin {

template <typename R, typename S, typename Pred>
class HsjPipeline {
 public:
  using Sink = StagedQueueSink<R, S>;
  using Node = HsjNode<R, S, Pred, Sink>;

  struct Options {
    int nodes = 4;
    /// 0 (default) = self-balancing segments (the original algorithm's
    /// load-exchange between neighbours); positive = static per-node
    /// capacity, which must be <= live-window/nodes (see HsjNode::Config).
    int64_t segment_capacity_r = 0;
    int64_t segment_capacity_s = 0;
    std::size_t channel_capacity = 1024;
    std::size_t result_capacity = kDefaultResultCapacity;
  };

  /// Fair-share segment capacity for a window of `window_tuples`.
  static int64_t SegmentCapacityFor(int64_t window_tuples, int nodes) {
    if (nodes < 1) return window_tuples;
    return (window_tuples + nodes - 1) / nodes;
  }

  explicit HsjPipeline(const Options& options, Pred pred = Pred{})
      : HsjPipeline(options, QuerySet<Pred>(pred)) {}

  /// Multi-query pipeline: every window crossing evaluates all predicates
  /// of `queries` in one segment scan; results carry the QueryId.
  /// `queries` becomes epoch 0 of the pipeline's epoch registry;
  /// `query_ids` maps its dense indices to session-wide QueryIds (empty =
  /// identity). Live sessions install later epochs through `registry()`.
  HsjPipeline(const Options& options, const QuerySet<Pred>& queries,
              std::vector<QueryId> query_ids = {})
      : options_(options),
        registry_(queries, std::move(query_ids)),
        epoch0_(registry_.Get(0)) {
    const int n = options_.nodes;
    if (n < 1) throw std::invalid_argument("pipeline needs >= 1 node");
    if (epoch0_->set.empty()) {
      throw std::invalid_argument("pipeline needs >= 1 registered query");
    }

    for (int k = 0; k < n; ++k) {
      // Both input rings of node k are consumed (and first written) by
      // node k's thread; the result ring by the collector's.
      l2r_.push_back(
          std::make_unique<SpscQueue<FlowMsg<R>>>(options_.channel_capacity));
      r2l_.push_back(
          std::make_unique<SpscQueue<FlowMsg<S>>>(options_.channel_capacity));
      result_queues_.push_back(std::make_unique<SpscQueue<ResultMsg<R, S>>>(
          options_.result_capacity));
      sinks_.push_back(std::make_unique<Sink>(result_queues_.back().get(),
                                              &result_stages_));
    }

    for (int k = 0; k < n; ++k) {
      typename Node::Config config;
      config.id = k;
      config.nodes = n;
      config.segment_capacity_r = options_.segment_capacity_r;
      config.segment_capacity_s = options_.segment_capacity_s;
      nodes_.push_back(std::make_unique<Node>(
          config, &registry_, sinks_[static_cast<std::size_t>(k)].get(),
          /*left_in=*/l2r_[static_cast<std::size_t>(k)].get(),
          /*right_out=*/k + 1 < n ? l2r_[static_cast<std::size_t>(k) + 1].get()
                                  : nullptr,
          /*right_in=*/r2l_[static_cast<std::size_t>(k)].get(),
          /*left_out=*/k > 0 ? r2l_[static_cast<std::size_t>(k) - 1].get()
                             : nullptr));
    }

    // Wire the neighbour segment sizes used by self-balancing.
    for (int k = 0; k < n; ++k) {
      const auto* right_r =
          k + 1 < n
              ? &nodes_[static_cast<std::size_t>(k) + 1]->published_r_size()
              : nullptr;
      const auto* left_s =
          k > 0 ? &nodes_[static_cast<std::size_t>(k) - 1]->published_s_size()
                : nullptr;
      nodes_[static_cast<std::size_t>(k)]->SetNeighborSizes(right_r, left_s);
    }
  }

  PipelinePorts<R, S> ports() {
    return PipelinePorts<R, S>{l2r_.front().get(), r2l_.back().get()};
  }

  std::vector<Steppable*> nodes() {
    std::vector<Steppable*> out;
    out.reserve(nodes_.size());
    for (auto& node : nodes_) out.push_back(node.get());
    return out;
  }

  std::unique_ptr<Collector<R, S>> MakeCollector(OutputHandler<R, S>* handler) {
    std::vector<SpscQueue<ResultMsg<R, S>>*> queues;
    queues.reserve(result_queues_.size());
    for (auto& q : result_queues_) queues.push_back(q.get());
    return std::make_unique<Collector<R, S>>(std::move(queues), handler,
                                             nullptr, false);
  }

  const Options& options() const { return options_; }
  /// The epoch-0 set (what the pipeline started with).
  const QuerySet<Pred>& queries() const { return epoch0_->set; }
  /// Epoch registry shared with every node; a live session installs new
  /// epochs here before pushing the matching kEpochChange punctuation.
  QueryEpochRegistry<Pred>* registry() { return &registry_; }
  const Node& node(int k) const { return *nodes_[static_cast<std::size_t>(k)]; }

  uint64_t total_anomalies() const {
    uint64_t n = 0;
    for (const auto& node : nodes_) n += node->counters().anomalies;
    return n;
  }

  uint64_t total_relocations() const {
    uint64_t n = 0;
    for (const auto& node : nodes_) {
      n += node->counters().relocated_r + node->counters().relocated_s;
    }
    return n;
  }

  /// Approximate number of messages sitting in channels and result queues,
  /// plus one per node holding staged results (atomically readable from any
  /// thread; used for quiescence detection).
  std::size_t ApproxBacklog() const {
    std::size_t n = ApproxChannelBacklog() + StagedResultNodes();
    for (const auto& q : result_queues_) n += q->SizeApprox();
    return n;
  }

  /// Nodes whose results are staged behind their full result ring
  /// (thread-safe).
  std::size_t StagedResultNodes() const { return result_stages_.Get(); }

  /// Times a node deferred arrivals on its full result ring, summed over
  /// the nodes (one per fill; thread-safe).
  uint64_t ResultRingStalls() const {
    uint64_t n = 0;
    for (const auto& sink : sinks_) n += sink->stalls();
    return n;
  }

  /// Channel-only backlog — excludes result queues, whose occupancy depends
  /// on how often the application polls the collector. This is the measure
  /// for driver lag (bounded-lag gating).
  std::size_t ApproxChannelBacklog() const {
    std::size_t n = 0;
    for (const auto& q : l2r_) n += q->SizeApprox();
    for (const auto& q : r2l_) n += q->SizeApprox();
    return n;
  }

  /// Total messages consumed by all nodes (thread-safe, monotonic).
  uint64_t TotalProcessed() const {
    uint64_t n = 0;
    for (const auto& node : nodes_) n += node->processed_count();
    return n;
  }

  std::size_t resident_tuples() const {
    std::size_t n = 0;
    for (const auto& node : nodes_) {
      n += node->resident_r() + node->resident_s();
    }
    return n;
  }

 private:
  Options options_;
  QueryEpochRegistry<Pred> registry_;
  std::shared_ptr<const QueryEpochSnapshot<Pred>> epoch0_;
  std::vector<std::unique_ptr<SpscQueue<FlowMsg<R>>>> l2r_;
  std::vector<std::unique_ptr<SpscQueue<FlowMsg<S>>>> r2l_;
  std::vector<std::unique_ptr<SpscQueue<ResultMsg<R, S>>>> result_queues_;
  ResultStageCount result_stages_;
  std::vector<std::unique_ptr<Sink>> sinks_;
  std::vector<std::unique_ptr<Node>> nodes_;
};

}  // namespace sjoin
