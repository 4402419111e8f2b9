// Hop distances over the alive subgraph, computed lazily.
//
// Nothing is computed until asked: hops()/row() run one BFS per queried
// source and cache the row keyed by Topology::version(); connected() is a
// single BFS; average_path_length() streams every alive source's BFS row
// only when the cost model actually asks for it. Any topology change
// simply invalidates the caches on the next query.
//
// One instance serves a whole simulation (CostModel owns it and the
// transport reads through CostModel::paths()), so pricing a unicast and
// scheduling its delivery share the same cached rows. hops() answers from
// whichever endpoint's row is cached: the PLEDGEs answering one HELP come
// from many senders but all go to one requester, so they cost one BFS
// between them, not one each.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "net/topology.hpp"

namespace realtor::net {

inline constexpr std::uint32_t kUnreachable = ~std::uint32_t{0};

class ShortestPaths {
 public:
  /// Binds to `topology` without computing anything; distances materialize
  /// on first query and track liveness changes automatically.
  explicit ShortestPaths(const Topology& topology);

  /// Hop count between alive nodes; kUnreachable if disconnected or if
  /// either endpoint is dead. Symmetric: answered from `from`'s row when
  /// it is cached, otherwise from (a possibly new) row rooted at `to`.
  std::uint32_t hops(NodeId from, NodeId to) const;

  /// Distance row for `src` (indexable by destination, num_nodes wide).
  /// Computed by one BFS and cached; the pointer is valid until the next
  /// topology change or cache eviction — consume it before issuing other
  /// queries. Lets flood loops resolve N-1 destinations with one lookup.
  const std::uint32_t* row(NodeId src) const;

  bool reachable(NodeId from, NodeId to) const {
    return hops(from, to) != kUnreachable;
  }

  /// Mean hop count over all ordered pairs of distinct, mutually reachable
  /// alive nodes. On the paper's 5x5 mesh this is ~3.33; the paper rounds
  /// the per-PLEDGE cost to 4.
  double average_path_length() const;

  /// True when every pair of alive nodes is mutually reachable. One BFS.
  bool connected() const;

 private:
  /// Invalidates caches if the topology moved on; updates version_.
  void sync() const;
  /// BFS from `src` into `dist` (resized/reset inside).
  void bfs(NodeId src, std::vector<std::uint32_t>& dist) const;
  /// Returns the cached row for `src`, computing it if absent.
  const std::vector<std::uint32_t>& row_for(NodeId src) const;
  /// Moves every cached row into the spare pool.
  void drop_rows() const;
  /// A row vector to BFS into: recycled from the spare pool if possible.
  std::vector<std::uint32_t> take_spare() const;

  /// Row-cache capacity: enough for every concurrent flood origin in a
  /// burst without approaching all-pairs memory at N=10k.
  static constexpr std::size_t kMaxCachedRows = 64;

  const Topology& topology_;
  mutable std::uint64_t version_ = 0;

  mutable std::unordered_map<NodeId, std::vector<std::uint32_t>> rows_;
  mutable std::vector<std::vector<std::uint32_t>> spare_rows_;

  mutable bool average_valid_ = false;
  mutable double average_path_length_ = 0.0;

  mutable bool connected_valid_ = false;
  mutable bool connected_ = false;

  // Scratch for BFS frontiers; reused across queries.
  mutable std::vector<NodeId> frontier_;
  mutable std::vector<NodeId> next_frontier_;
};

}  // namespace realtor::net
