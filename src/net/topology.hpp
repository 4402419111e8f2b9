// Overlay network topology.
//
// The paper simulates a 5x5 mesh (25 nodes, 40 links, Fig. 4) that doubles
// as the neighbor scope for all five discovery protocols. Nodes can be
// marked dead to model external attacks; dead nodes neither originate nor
// receive messages and their links carry no traffic.
//
// Storage: links are the ground truth; adjacency is kept flattened in CSR
// form (one offsets array, one neighbors array) rebuilt lazily after a
// batch of add_link calls, so neighbor iteration — the inner loop of every
// BFS and every gossip peer selection — walks one contiguous array instead
// of chasing a vector-of-vectors. The alive-link count is maintained
// incrementally on set_alive (O(degree)), making the paper's flood-cost
// base an O(1) read even on 10k-node topologies. There is no per-link
// lookup structure: has_link scans one CSR row, and duplicate links are
// rejected once per rebuild rather than on every add_link.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.hpp"

namespace realtor::net {

struct Link {
  NodeId a = kInvalidNode;
  NodeId b = kInvalidNode;
};

/// Contiguous, read-only view of a node's neighbors inside the CSR
/// neighbor array. Cheap to copy; invalidated by the next add_link.
class NeighborSpan {
 public:
  NeighborSpan() = default;
  NeighborSpan(const NodeId* data, std::size_t size)
      : data_(data), size_(size) {}

  const NodeId* begin() const { return data_; }
  const NodeId* end() const { return data_ + size_; }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  NodeId operator[](std::size_t i) const { return data_[i]; }

 private:
  const NodeId* data_ = nullptr;
  std::size_t size_ = 0;
};

class Topology {
 public:
  explicit Topology(NodeId num_nodes);

  /// Adds an undirected link. Self links are rejected at once, duplicate
  /// links when the adjacency is next rebuilt (the first neighbor query).
  void add_link(NodeId a, NodeId b);

  NodeId num_nodes() const { return num_nodes_; }
  std::size_t num_links() const { return links_.size(); }
  const std::vector<Link>& links() const { return links_; }
  /// Neighbors in link-insertion order (CSR row). The span is invalidated
  /// by the next add_link.
  NeighborSpan neighbors(NodeId node) const {
    ensure_csr();
    const std::uint32_t begin = csr_offsets_[node];
    return NeighborSpan(csr_neighbors_.data() + begin,
                        csr_offsets_[node + 1] - begin);
  }
  /// O(degree of a): scans a's CSR row.
  bool has_link(NodeId a, NodeId b) const;

  /// Liveness (attack) state. Nodes start alive.
  bool alive(NodeId node) const { return alive_[node] != 0; }
  void set_alive(NodeId node, bool alive);
  std::size_t alive_count() const { return alive_count_; }
  std::vector<NodeId> alive_nodes() const;

  /// Links whose both endpoints are alive — the flood cost base in the
  /// paper's accounting. Maintained incrementally; O(1).
  std::size_t alive_link_count() const { return alive_link_count_; }

  /// Alive neighbors of an alive node. Allocates; hot paths should prefer
  /// for_each_alive_neighbor.
  std::vector<NodeId> alive_neighbors(NodeId node) const;

  /// Allocation-free iteration over the alive neighbors of `node`, in
  /// link-insertion order.
  template <typename F>
  void for_each_alive_neighbor(NodeId node, F&& f) const {
    for (const NodeId n : neighbors(node)) {
      if (alive_[n]) f(n);
    }
  }

  /// Allocation-free iteration over alive nodes in ascending id order.
  template <typename F>
  void for_each_alive_node(F&& f) const {
    for (NodeId n = 0; n < num_nodes_; ++n) {
      if (alive_[n]) f(n);
    }
  }

  /// Monotone counter bumped on every liveness change; cheap cache
  /// invalidation for derived structures (shortest paths, cost model).
  std::uint64_t version() const { return version_; }

 private:
  /// Cheap staleness test inlined into every neighbors() call; the
  /// rebuild itself is out of line.
  void ensure_csr() const {
    if (csr_links_ != links_.size() || csr_offsets_.empty()) rebuild_csr();
  }
  /// Rebuilds the CSR arrays from links_ in O(N + E) and asserts that no
  /// link was added twice.
  void rebuild_csr() const;

  NodeId num_nodes_;
  std::vector<Link> links_;
  std::vector<char> alive_;
  std::size_t alive_count_;
  std::size_t alive_link_count_ = 0;
  std::uint64_t version_ = 0;

  // CSR adjacency, rebuilt lazily: neighbors of node n live in
  // csr_neighbors_[csr_offsets_[n] .. csr_offsets_[n+1]).
  mutable std::vector<std::uint32_t> csr_offsets_;
  mutable std::vector<NodeId> csr_neighbors_;
  mutable std::size_t csr_links_ = 0;  // links_.size() the CSR was built at
};

/// w x h grid; interior nodes have 4 neighbors. mesh(5,5) reproduces the
/// paper's 25-node / 40-link topology.
Topology make_mesh(NodeId width, NodeId height);

/// Grid with wraparound links in both dimensions.
Topology make_torus(NodeId width, NodeId height);

/// Cycle of n nodes.
Topology make_ring(NodeId n);

/// Hub node 0 connected to all others.
Topology make_star(NodeId n);

/// All pairs connected.
Topology make_complete(NodeId n);

/// Connected Erdos-Renyi-style graph: a random spanning tree plus extra
/// random links until `target_links` is reached. Deterministic given seed.
Topology make_random_connected(NodeId n, std::size_t target_links,
                               std::uint64_t seed);

}  // namespace realtor::net
