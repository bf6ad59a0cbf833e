// Home-node assignment for low-latency handshake join. Every tuple is
// assigned a home node when it enters the pipeline (paper Section 4.1,
// step 1), round-robin "to ensure even load balancing" (Section 4.3). The
// home must be a pure function of the sequence number: expiry messages are
// tagged with the home independently of the arrival, so both must agree
// (DESIGN.md, correctness refinement 2).
#pragma once

#include <cstdint>

#include "common/types.hpp"

namespace sjoin {

/// Deterministic seq -> home-node map: seq % nodes.
class HomeAssigner {
 public:
  HomeAssigner() = default;
  explicit HomeAssigner(int nodes) : nodes_(nodes) {}

  NodeId Of(Seq seq) const {
    return static_cast<NodeId>(seq % static_cast<uint64_t>(nodes_));
  }

  int nodes() const { return nodes_; }

 private:
  int nodes_ = 1;
};

}  // namespace sjoin
