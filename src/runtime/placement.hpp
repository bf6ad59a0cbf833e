// Pluggable placement plans: how pipeline positions are laid over a
// Topology. This is the paper's Magny Cours layout generalized —
// neighbouring pipeline nodes land on neighbouring cores of the same NUMA
// node so every SPSC channel is a short point-to-point link. A plan only
// pins threads; channel memory follows the threads, because each ring's
// consumer writes its pages first (SpscQueue::PrefaultByConsumer).
//
// Policies:
//   kAuto     — kCompact today; the indirection point for future
//               workload-aware plans. On single-socket hosts this degrades
//               to the historical flat sibling-order pinning.
//   kCompact  — fill cores in placement order (one pipeline position per
//               physical core first, same-node cores adjacent, SMT siblings
//               only after every core has one position).
//   kScatter  — round-robin positions across NUMA nodes (deliberately
//               locality-hostile; the ablation baseline).
//   kNone     — pin nothing (the scheduler decides).
//
// Invariants (asserted by tests/test_runtime.cpp):
//   * no two planned threads share a CPU;
//   * under kCompact, the NUMA node sequence along pipeline positions is
//     contiguous — neighbours are co-located before a remote node is used.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "runtime/topology.hpp"

namespace sjoin {

enum class PlacementPolicy : uint8_t {
  kAuto = 0,
  kCompact = 1,
  kScatter = 2,
  kNone = 3,
};

constexpr const char* ToString(PlacementPolicy policy) {
  switch (policy) {
    case PlacementPolicy::kAuto:
      return "auto";
    case PlacementPolicy::kCompact:
      return "compact";
    case PlacementPolicy::kScatter:
      return "scatter";
    case PlacementPolicy::kNone:
      return "none";
  }
  return "?";
}

/// Parses a policy name; throws std::invalid_argument naming the offending
/// value (the JoinConfig validation discipline).
PlacementPolicy ParsePlacementPolicy(const std::string& name);

/// An immutable mapping of pipeline positions to CPUs. A
/// default-constructed plan is "unplaced": every lookup returns -1 (no
/// pinning) — the non-threaded and policy-none configuration.
class PlacementPlan {
 public:
  PlacementPlan() = default;

  /// Lays `pipeline_positions` positions over `topology` under `policy`.
  /// Positions beyond the CPU supply are unpinned (-1).
  static PlacementPlan Build(const Topology& topology, PlacementPolicy policy,
                             int pipeline_positions);

  PlacementPolicy policy() const { return policy_; }
  bool empty() const { return position_cpus_.empty(); }

  int positions() const { return static_cast<int>(position_cpus_.size()); }

  /// CPU for pipeline position `pos`; -1 = leave unpinned.
  int CpuForPosition(int pos) const {
    return pos >= 0 && pos < positions()
               ? position_cpus_[static_cast<std::size_t>(pos)]
               : -1;
  }

 private:
  PlacementPolicy policy_ = PlacementPolicy::kNone;
  std::vector<int> position_cpus_;
};

}  // namespace sjoin
