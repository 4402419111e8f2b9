#include "net/topology.hpp"

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <unordered_set>
#include <utility>

#include "common/assert.hpp"
#include "common/rng.hpp"

namespace realtor::net {

Topology::Topology(NodeId num_nodes)
    : num_nodes_(num_nodes),
      alive_(num_nodes, 1),
      alive_count_(num_nodes) {
  REALTOR_ASSERT(num_nodes > 0);
}

void Topology::add_link(NodeId a, NodeId b) {
  REALTOR_ASSERT(a < num_nodes_ && b < num_nodes_);
  REALTOR_ASSERT_MSG(a != b, "self links are not allowed");
  links_.push_back(Link{std::min(a, b), std::max(a, b)});
  if (alive_[a] && alive_[b]) ++alive_link_count_;
  ++version_;
}

bool Topology::has_link(NodeId a, NodeId b) const {
  REALTOR_ASSERT(a < num_nodes_ && b < num_nodes_);
  const NeighborSpan row = neighbors(a);
  return std::find(row.begin(), row.end(), b) != row.end();
}

void Topology::set_alive(NodeId node, bool value) {
  REALTOR_ASSERT(node < num_nodes_);
  if ((alive_[node] != 0) == value) return;
  // Links to alive neighbors flip usability together with this node.
  std::size_t alive_degree = 0;
  for (const NodeId n : neighbors(node)) {
    if (alive_[n]) ++alive_degree;
  }
  if (value) {
    alive_link_count_ += alive_degree;
  } else {
    alive_link_count_ -= alive_degree;
  }
  alive_[node] = value ? 1 : 0;
  alive_count_ += value ? 1u : static_cast<std::size_t>(-1);
  ++version_;
}

std::vector<NodeId> Topology::alive_nodes() const {
  std::vector<NodeId> out;
  out.reserve(alive_count_);
  for (NodeId n = 0; n < num_nodes_; ++n) {
    if (alive_[n]) out.push_back(n);
  }
  return out;
}

std::vector<NodeId> Topology::alive_neighbors(NodeId node) const {
  std::vector<NodeId> out;
  for (const NodeId n : neighbors(node)) {
    if (alive_[n]) out.push_back(n);
  }
  return out;
}

void Topology::rebuild_csr() const {
  csr_offsets_.assign(num_nodes_ + 1, 0);
  for (const Link& link : links_) {
    ++csr_offsets_[link.a + 1];
    ++csr_offsets_[link.b + 1];
  }
  for (NodeId n = 0; n < num_nodes_; ++n) {
    csr_offsets_[n + 1] += csr_offsets_[n];
  }
  csr_neighbors_.resize(links_.size() * 2);
  // Second pass appends in link-insertion order, reproducing the neighbor
  // order the old vector-of-vectors adjacency produced (each add_link
  // appended to both endpoints' lists); cursor starts as a copy of the
  // row offsets.
  std::vector<std::uint32_t> cursor(csr_offsets_.begin(),
                                    csr_offsets_.end() - 1);
  for (const Link& link : links_) {
    csr_neighbors_[cursor[link.a]++] = link.b;
    csr_neighbors_[cursor[link.b]++] = link.a;
  }
  // Duplicate check, reusing cursor as "last row that listed this node":
  // a row naming the same neighbor twice means a link was added twice.
  std::fill(cursor.begin(), cursor.end(), kInvalidNode);
  for (NodeId n = 0; n < num_nodes_; ++n) {
    for (std::uint32_t i = csr_offsets_[n]; i < csr_offsets_[n + 1]; ++i) {
      const NodeId neighbor = csr_neighbors_[i];
      REALTOR_ASSERT_MSG(cursor[neighbor] != n, "duplicate link");
      cursor[neighbor] = n;
    }
  }
  csr_links_ = links_.size();
}

Topology make_mesh(NodeId width, NodeId height) {
  REALTOR_ASSERT(width > 0 && height > 0);
  Topology topo(width * height);
  const auto id = [width](NodeId x, NodeId y) { return y * width + x; };
  for (NodeId y = 0; y < height; ++y) {
    for (NodeId x = 0; x < width; ++x) {
      if (x + 1 < width) topo.add_link(id(x, y), id(x + 1, y));
      if (y + 1 < height) topo.add_link(id(x, y), id(x, y + 1));
    }
  }
  return topo;
}

Topology make_torus(NodeId width, NodeId height) {
  REALTOR_ASSERT(width > 2 && height > 2);
  Topology topo(width * height);
  const auto id = [width](NodeId x, NodeId y) { return y * width + x; };
  for (NodeId y = 0; y < height; ++y) {
    for (NodeId x = 0; x < width; ++x) {
      topo.add_link(id(x, y), id((x + 1) % width, y));
      topo.add_link(id(x, y), id(x, (y + 1) % height));
    }
  }
  return topo;
}

Topology make_ring(NodeId n) {
  REALTOR_ASSERT(n >= 3);
  Topology topo(n);
  for (NodeId i = 0; i < n; ++i) {
    topo.add_link(i, (i + 1) % n);
  }
  return topo;
}

Topology make_star(NodeId n) {
  REALTOR_ASSERT(n >= 2);
  Topology topo(n);
  for (NodeId i = 1; i < n; ++i) {
    topo.add_link(0, i);
  }
  return topo;
}

Topology make_complete(NodeId n) {
  REALTOR_ASSERT(n >= 2);
  Topology topo(n);
  for (NodeId a = 0; a < n; ++a) {
    for (NodeId b = a + 1; b < n; ++b) {
      topo.add_link(a, b);
    }
  }
  return topo;
}

Topology make_random_connected(NodeId n, std::size_t target_links,
                               std::uint64_t seed) {
  REALTOR_ASSERT(n >= 2);
  const std::size_t max_links =
      static_cast<std::size_t>(n) * (n - 1) / 2;
  REALTOR_ASSERT_MSG(target_links >= n - 1, "too few links to connect");
  REALTOR_ASSERT_MSG(target_links <= max_links, "more links than pairs");

  RngStream rng(seed, "random-topology");
  Topology topo(n);
  // Links drawn so far, keyed (min << 32 | max): has_link() would rebuild
  // the adjacency after every add_link.
  std::unordered_set<std::uint64_t> drawn;
  const auto draw = [&](NodeId a, NodeId b) {
    if (a > b) std::swap(a, b);
    return drawn.insert((static_cast<std::uint64_t>(a) << 32) | b).second;
  };

  // Random spanning tree: attach each node (in a random order) to a random
  // already-attached node.
  std::vector<NodeId> order(n);
  std::iota(order.begin(), order.end(), NodeId{0});
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.uniform_index(i)]);
  }
  for (std::size_t i = 1; i < order.size(); ++i) {
    const NodeId parent = order[rng.uniform_index(i)];
    draw(order[i], parent);
    topo.add_link(order[i], parent);
  }

  while (topo.num_links() < target_links) {
    const NodeId a = static_cast<NodeId>(rng.uniform_index(n));
    const NodeId b = static_cast<NodeId>(rng.uniform_index(n));
    if (a == b || !draw(a, b)) continue;
    topo.add_link(a, b);
  }
  return topo;
}

}  // namespace realtor::net
