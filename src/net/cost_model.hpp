// Message-cost model in the paper's accounting units.
//
// Two modes:
//   * kPaperAverage — the §5 convention: a flood costs the number of
//     (alive) links; a unicast costs the topology-wide average shortest
//     path length. The paper uses 4 for the 5x5 mesh; set
//     `fixed_unicast_cost` to pin that value.
//   * kExactHops — a unicast costs the exact hop distance between the two
//     endpoints (used by ablations to check the averaging assumption,
//     which the paper asserts "does not affect the performance
//     comparison").
//
// The model owns the simulation's one ShortestPaths oracle: the transport
// reads hop distances and partition checks through paths(), so pricing a
// unicast and scheduling it share the same cached BFS rows.
#pragma once

#include <optional>

#include "net/shortest_paths.hpp"
#include "net/topology.hpp"

namespace realtor::net {

enum class CostMode { kPaperAverage, kExactHops };

/// How a flood is charged: the paper counts "the number of links"; a
/// spanning-tree dissemination (each node forwards once) costs N-1
/// messages instead. §5 asserts the choice "does not affect the
/// performance comparison" — the cost-model ablation verifies that.
enum class FloodMode { kLinks, kSpanningTree };

class CostModel {
 public:
  CostModel(const Topology& topology, CostMode mode,
            std::optional<double> fixed_unicast_cost = std::nullopt,
            FloodMode flood_mode = FloodMode::kLinks);

  /// Cost of flooding the overlay from an alive origin (HELP / PUSH advert).
  double flood_cost() const;

  /// Cost of a unicast reply or request between two alive nodes.
  double unicast_cost(NodeId from, NodeId to) const;

  CostMode mode() const { return mode_; }
  FloodMode flood_mode() const { return flood_mode_; }

  /// The hop-distance oracle over this model's topology. Resyncs with
  /// liveness changes on every query.
  const ShortestPaths& paths() const { return paths_; }

 private:
  const Topology& topology_;
  CostMode mode_;
  std::optional<double> fixed_unicast_cost_;
  FloodMode flood_mode_;
  ShortestPaths paths_;
};

}  // namespace realtor::net
