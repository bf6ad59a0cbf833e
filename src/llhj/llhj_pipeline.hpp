// A complete low-latency handshake join pipeline: the shared assembly
// (stream/pipeline.hpp) with LlhjNodes, wired to the high-water marks the
// collector's punctuations and the driver's expiry gate read.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "llhj/band_store.hpp"
#include "llhj/home_policy.hpp"
#include "llhj/llhj_node.hpp"
#include "llhj/store.hpp"
#include "stream/pipeline.hpp"
#include "stream/query_set.hpp"

namespace sjoin {

template <typename R, typename S, typename Pred,
          typename RStore = VectorStore<R>, typename SStore = VectorStore<S>>
class LlhjPipeline : public Pipeline<R, S, Pred> {
  using Base = Pipeline<R, S, Pred>;

 public:
  using Sink = typename Base::Sink;
  using Node = LlhjNode<R, S, Pred, Sink, RStore, SStore>;

  struct Options : Base::Options {
    bool punctuate = false;  ///< the collector emits punctuations
  };

  explicit LlhjPipeline(const Options& options, Pred pred = Pred{})
      : LlhjPipeline(options, QuerySet<Pred>(pred)) {}

  /// Multi-query pipeline: every window crossing evaluates all predicates
  /// of `queries` in one store traversal; results carry the QueryId.
  /// `queries` becomes epoch 0 of the pipeline's epoch registry;
  /// `query_ids` maps its dense indices to session-wide QueryIds (empty =
  /// identity). Live sessions install later epochs through `registry()`.
  LlhjPipeline(const Options& options, const QuerySet<Pred>& queries,
               std::vector<QueryId> query_ids = {})
      : Base(options, options.punctuate, queries, std::move(query_ids)) {
    for (int k = 0; k < options.nodes; ++k) {
      typename Node::Config config;
      config.id = k;
      config.nodes = options.nodes;
      config.home = HomeAssigner(options.nodes);
      this->template AddNode<Node>(config, &this->hwm_);
    }
  }

  const Node& node(int k) const { return this->template NodeAs<Node>(k); }

  /// Total tuples resident in node-local windows (diagnostics).
  std::size_t resident_tuples() const {
    std::size_t n = 0;
    for (int k = 0; k < this->node_count(); ++k) {
      n += node(k).r_store().size() + node(k).s_store().size();
    }
    return n;
  }
};

/// LLHJ with key-bucketed node stores for joins whose predicate declares
/// JoinKeyTraits (common/schema.hpp): the band index, and at radius 0 the
/// equi-join index of paper Section 7.6.
template <typename R, typename S, typename Pred>
using BandLlhjPipeline =
    LlhjPipeline<R, S, Pred, BandStore<R, S, Pred, StreamSide::kR>,
                 BandStore<R, S, Pred, StreamSide::kS>>;

}  // namespace sjoin
