#include "runtime/placement.hpp"

#include <algorithm>
#include <stdexcept>

namespace sjoin {

PlacementPolicy ParsePlacementPolicy(const std::string& name) {
  if (name == "auto") return PlacementPolicy::kAuto;
  if (name == "compact") return PlacementPolicy::kCompact;
  if (name == "scatter") return PlacementPolicy::kScatter;
  if (name == "none") return PlacementPolicy::kNone;
  throw std::invalid_argument(
      "placement policy must be auto|compact|scatter|none, got \"" + name +
      "\"");
}

PlacementPlan PlacementPlan::Build(const Topology& topology,
                                   PlacementPolicy policy,
                                   int pipeline_positions) {
  if (pipeline_positions < 0) pipeline_positions = 0;

  PlacementPlan plan;
  plan.policy_ = policy;
  plan.position_cpus_.assign(static_cast<std::size_t>(pipeline_positions), -1);
  if (policy == PlacementPolicy::kNone) return plan;

  const std::vector<TopoCpu>& all = topology.entries();
  if (all.empty()) return plan;

  if (policy == PlacementPolicy::kScatter) {
    // Deliberately locality-hostile: position i goes to node (i % nodes),
    // so every neighbouring channel crosses a node boundary when it can.
    std::vector<int> nodes;
    for (const TopoCpu& c : all) nodes.push_back(c.node);
    std::sort(nodes.begin(), nodes.end());
    nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());
    std::vector<char> used(all.size(), 0);
    for (int pos = 0; pos < pipeline_positions; ++pos) {
      const int want = nodes[static_cast<std::size_t>(pos) % nodes.size()];
      // Next unused CPU on the wanted node, else next unused anywhere
      // (placement order keeps both deterministic).
      std::size_t pick = all.size();
      for (std::size_t i = 0; i < all.size(); ++i) {
        if (used[i]) continue;
        if (all[i].node == want) {
          pick = i;
          break;
        }
        if (pick == all.size()) pick = i;
      }
      if (pick == all.size()) break;  // supply exhausted: rest unpinned
      used[pick] = 1;
      plan.position_cpus_[static_cast<std::size_t>(pos)] = all[pick].cpu;
    }
  } else {
    // kAuto / kCompact: placement order IS the plan — one position per
    // entry, neighbours land on neighbouring hardware.
    for (int pos = 0;
         pos < pipeline_positions && static_cast<std::size_t>(pos) < all.size();
         ++pos) {
      plan.position_cpus_[static_cast<std::size_t>(pos)] =
          all[static_cast<std::size_t>(pos)].cpu;
    }
  }
  return plan;
}

}  // namespace sjoin
