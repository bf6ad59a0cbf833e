// Assembly of a join pipeline, the same for both engines: n nodes wired
// with neighbour FIFO channels, one result ring and staged sink per node,
// the epoch registry, high-water marks and a collector factory.
// LlhjPipeline (llhj/llhj_pipeline.hpp) and HsjPipeline
// (hsj/hsj_pipeline.hpp) derive from it and add their nodes; the only
// engine-specific wiring is the high-water marks for LLHJ and the
// neighbour segment sizes for HSJ. The pipeline is executor-agnostic —
// register `nodes()` and the collector with a SequentialExecutor for
// deterministic runs or a ThreadedExecutor for deployment.
#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <vector>

#include "common/types.hpp"
#include "runtime/executor.hpp"
#include "runtime/spsc_queue.hpp"
#include "stream/collector.hpp"
#include "stream/hwm.hpp"
#include "stream/message.hpp"
#include "stream/node_chassis.hpp"
#include "stream/ports.hpp"
#include "stream/query_set.hpp"
#include "stream/sink.hpp"

namespace sjoin {

template <typename R, typename S, typename Pred>
class Pipeline {
 public:
  using Sink = StagedQueueSink<R, S>;

  struct Options {
    int nodes = 4;
    std::size_t channel_capacity = 1024;
    std::size_t result_capacity = kDefaultResultCapacity;
  };

  virtual ~Pipeline() = default;
  Pipeline(const Pipeline&) = delete;
  Pipeline& operator=(const Pipeline&) = delete;

  /// Driver-facing input queues.
  PipelinePorts<R, S> ports() {
    return PipelinePorts<R, S>{l2r_.front().get(), r2l_.back().get()};
  }

  /// Pipeline nodes in left-to-right order (register with an executor).
  std::vector<Steppable*> nodes() {
    std::vector<Steppable*> out;
    out.reserve(nodes_.size());
    for (auto& node : nodes_) out.push_back(node.get());
    return out;
  }

  /// Builds the collector for this pipeline (caller owns it). It emits
  /// punctuations when the pipeline was built to (LLHJ's
  /// Options::punctuate).
  std::unique_ptr<Collector<R, S>> MakeCollector(OutputHandler<R, S>* handler) {
    std::vector<SpscQueue<ResultMsg<R, S>>*> queues;
    queues.reserve(result_queues_.size());
    for (auto& q : result_queues_) queues.push_back(q.get());
    return std::make_unique<Collector<R, S>>(std::move(queues), handler,
                                             &hwm_, punctuate_,
                                             &result_stages_);
  }

  /// Completed expeditions of the end nodes (LLHJ; HSJ leaves them unset).
  const HighWaterMarks& hwm() const { return hwm_; }
  /// Epoch registry shared with every node; a live session installs new
  /// epochs here before pushing the matching kEpochChange punctuation.
  QueryEpochRegistry<Pred>* registry() { return &registry_; }

  /// Sum of anomaly counters across nodes — tests require 0.
  uint64_t total_anomalies() const {
    uint64_t n = 0;
    for (const auto& node : nodes_) n += node->counters().anomalies;
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

 protected:
  /// Builds the channels, result rings and sinks; the derived engine
  /// pipeline then adds its nodes (AddNode). `queries` becomes epoch 0 of
  /// the registry; `query_ids` maps its dense indices to session-wide
  /// QueryIds (empty = identity).
  Pipeline(const Options& options, bool punctuate,
           const QuerySet<Pred>& queries, std::vector<QueryId> query_ids)
      : registry_(queries, std::move(query_ids)), punctuate_(punctuate) {
    const int n = options.nodes;
    if (n < 1) throw std::invalid_argument("pipeline needs >= 1 node");
    if (registry_.Get(0)->set.empty()) {
      throw std::invalid_argument("pipeline needs >= 1 registered query");
    }
    l2r_.reserve(static_cast<std::size_t>(n));
    r2l_.reserve(static_cast<std::size_t>(n));
    for (int k = 0; k < n; ++k) {
      // Both input rings of node k are consumed (and first written) by
      // node k's thread; the result ring by the collector's.
      l2r_.push_back(
          std::make_unique<SpscQueue<FlowMsg<R>>>(options.channel_capacity));
      r2l_.push_back(
          std::make_unique<SpscQueue<FlowMsg<S>>>(options.channel_capacity));
      result_queues_.push_back(std::make_unique<SpscQueue<ResultMsg<R, S>>>(
          options.result_capacity));
      sinks_.push_back(std::make_unique<Sink>(result_queues_.back().get(),
                                              &result_stages_));
    }
  }

  /// Adds the next node, left to right, on its channels: input from the
  /// left neighbour's R ring and its own S ring, output to the neighbours
  /// (none past either end). `extra` follows the channels in Node's
  /// constructor.
  template <typename Node, typename... Extra>
  void AddNode(const typename Node::Config& config, Extra... extra) {
    const std::size_t k = nodes_.size();
    const std::size_t n = l2r_.size();
    nodes_.push_back(std::make_unique<Node>(
        config, &registry_, sinks_[k].get(),
        /*left_in=*/l2r_[k].get(),
        /*right_out=*/k + 1 < n ? l2r_[k + 1].get() : nullptr,
        /*right_in=*/r2l_[k].get(),
        /*left_out=*/k > 0 ? r2l_[k - 1].get() : nullptr, extra...));
  }

  /// Node `k`, as the engine's node type it was added as.
  template <typename Node>
  Node& NodeAs(int k) {
    return static_cast<Node&>(*nodes_[static_cast<std::size_t>(k)]);
  }
  template <typename Node>
  const Node& NodeAs(int k) const {
    return static_cast<const Node&>(*nodes_[static_cast<std::size_t>(k)]);
  }
  int node_count() const { return static_cast<int>(nodes_.size()); }

  HighWaterMarks hwm_;

 private:
  QueryEpochRegistry<Pred> registry_;
  const bool punctuate_;
  std::vector<std::unique_ptr<SpscQueue<FlowMsg<R>>>> l2r_;
  std::vector<std::unique_ptr<SpscQueue<FlowMsg<S>>>> r2l_;
  std::vector<std::unique_ptr<SpscQueue<ResultMsg<R, S>>>> result_queues_;
  ResultStageCount result_stages_;
  std::vector<std::unique_ptr<Sink>> sinks_;
  std::vector<std::unique_ptr<PipelineNode>> nodes_;
};

}  // namespace sjoin
