// An original handshake join pipeline (paper [20], Section 2.3): the shared
// assembly (stream/pipeline.hpp) with HsjNodes, each wired to its
// neighbours' published segment sizes for self-balancing relocation.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "hsj/hsj_node.hpp"
#include "stream/pipeline.hpp"
#include "stream/query_set.hpp"

namespace sjoin {

template <typename R, typename S, typename Pred>
class HsjPipeline : public Pipeline<R, S, Pred> {
  using Base = Pipeline<R, S, Pred>;

 public:
  using Sink = typename Base::Sink;
  using Node = HsjNode<R, S, Pred, Sink>;

  struct Options : Base::Options {
    /// 0 (default) = self-balancing segments (the original algorithm's
    /// load-exchange between neighbours); positive = static per-node
    /// capacity, which must be <= live-window/nodes (see HsjNode::Config).
    int64_t segment_capacity_r = 0;
    int64_t segment_capacity_s = 0;
  };

  explicit HsjPipeline(const Options& options, Pred pred = Pred{})
      : HsjPipeline(options, QuerySet<Pred>(pred)) {}

  /// Multi-query pipeline: every window crossing evaluates all predicates
  /// of `queries` in one segment scan; results carry the QueryId.
  /// `queries` becomes epoch 0 of the pipeline's epoch registry;
  /// `query_ids` maps its dense indices to session-wide QueryIds (empty =
  /// identity). Live sessions install later epochs through `registry()`.
  HsjPipeline(const Options& options, const QuerySet<Pred>& queries,
              std::vector<QueryId> query_ids = {})
      : Base(options, /*punctuate=*/false, queries, std::move(query_ids)) {
    const int n = options.nodes;
    for (int k = 0; k < n; ++k) {
      typename Node::Config config;
      config.id = k;
      config.nodes = n;
      config.segment_capacity_r = options.segment_capacity_r;
      config.segment_capacity_s = options.segment_capacity_s;
      this->template AddNode<Node>(config);
    }
    // Wire the neighbour segment sizes used by self-balancing.
    for (int k = 0; k < n; ++k) {
      this->template NodeAs<Node>(k).SetNeighborSizes(
          k + 1 < n ? &node(k + 1).published_r_size() : nullptr,
          k > 0 ? &node(k - 1).published_s_size() : nullptr);
    }
  }

  const Node& node(int k) const { return this->template NodeAs<Node>(k); }

  uint64_t total_relocations() const {
    uint64_t n = 0;
    for (int k = 0; k < this->node_count(); ++k) {
      n += node(k).counters().relocated_r + node(k).counters().relocated_s;
    }
    return n;
  }

  std::size_t resident_tuples() const {
    std::size_t n = 0;
    for (int k = 0; k < this->node_count(); ++k) {
      n += node(k).resident_r() + node(k).resident_s();
    }
    return n;
  }
};

}  // namespace sjoin
