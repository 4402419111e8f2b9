#include "net/cost_model.hpp"

#include "common/assert.hpp"

namespace realtor::net {

CostModel::CostModel(const Topology& topology, CostMode mode,
                     std::optional<double> fixed_unicast_cost,
                     FloodMode flood_mode)
    : topology_(topology),
      mode_(mode),
      fixed_unicast_cost_(fixed_unicast_cost),
      flood_mode_(flood_mode),
      paths_(topology) {
  if (fixed_unicast_cost_) {
    REALTOR_ASSERT(*fixed_unicast_cost_ > 0.0);
  }
}

double CostModel::flood_cost() const {
  switch (flood_mode_) {
    case FloodMode::kLinks:
      return static_cast<double>(topology_.alive_link_count());
    case FloodMode::kSpanningTree: {
      const std::size_t alive = topology_.alive_count();
      return alive > 0 ? static_cast<double>(alive - 1) : 0.0;
    }
  }
  return 0.0;
}

double CostModel::unicast_cost(NodeId from, NodeId to) const {
  REALTOR_ASSERT(from < topology_.num_nodes());
  REALTOR_ASSERT(to < topology_.num_nodes());
  switch (mode_) {
    case CostMode::kPaperAverage:
      // With a pinned cost (the paper's mesh convention) no path data is
      // touched at all — the common case is a constant load.
      return fixed_unicast_cost_ ? *fixed_unicast_cost_
                                 : paths_.average_path_length();
    case CostMode::kExactHops: {
      const std::uint32_t d = paths_.hops(from, to);
      // A message into a partition dies at the partition edge; charge the
      // average so accounting stays finite (rare under the experiments'
      // attack levels, and consistent with the paper's averaging).
      if (d == kUnreachable) return paths_.average_path_length();
      return static_cast<double>(d);
    }
  }
  return 0.0;
}

}  // namespace realtor::net
