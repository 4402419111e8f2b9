#include "net/topology.hpp"

#include <gtest/gtest.h>

#include <algorithm>

namespace realtor::net {
namespace {

TEST(Topology, PaperMeshHas25Nodes40Links) {
  // Fig. 4 of the paper: 25 nodes, 40 links.
  const Topology mesh = make_mesh(5, 5);
  EXPECT_EQ(mesh.num_nodes(), 25u);
  EXPECT_EQ(mesh.num_links(), 40u);
}

TEST(Topology, MeshDegreesAreCorrect) {
  const Topology mesh = make_mesh(5, 5);
  // Corners: 2; edges: 3; interior: 4.
  EXPECT_EQ(mesh.neighbors(0).size(), 2u);    // corner
  EXPECT_EQ(mesh.neighbors(2).size(), 3u);    // top edge
  EXPECT_EQ(mesh.neighbors(12).size(), 4u);   // center
  EXPECT_EQ(mesh.neighbors(24).size(), 2u);   // corner
}

TEST(Topology, HasLinkIsSymmetric) {
  const Topology mesh = make_mesh(3, 3);
  EXPECT_TRUE(mesh.has_link(0, 1));
  EXPECT_TRUE(mesh.has_link(1, 0));
  EXPECT_FALSE(mesh.has_link(0, 4));
}

// Duplicates are caught by the adjacency rebuild, not by add_link.
TEST(TopologyDeathTest, DuplicateLinkIsRejectedAtFirstNeighborQuery) {
  Topology topo(3);
  topo.add_link(0, 1);
  topo.add_link(2, 1);
  topo.add_link(1, 0);
  EXPECT_DEATH(topo.neighbors(2), "duplicate link");
}

TEST(Topology, TorusIsRegular) {
  const Topology torus = make_torus(4, 4);
  EXPECT_EQ(torus.num_links(), 32u);
  for (NodeId n = 0; n < torus.num_nodes(); ++n) {
    EXPECT_EQ(torus.neighbors(n).size(), 4u);
  }
}

TEST(Topology, RingStarComplete) {
  const Topology ring = make_ring(6);
  EXPECT_EQ(ring.num_links(), 6u);
  const Topology star = make_star(6);
  EXPECT_EQ(star.num_links(), 5u);
  EXPECT_EQ(star.neighbors(0).size(), 5u);
  const Topology complete = make_complete(6);
  EXPECT_EQ(complete.num_links(), 15u);
}

TEST(Topology, RandomConnectedHasRequestedLinks) {
  const Topology t = make_random_connected(20, 35, 9);
  EXPECT_EQ(t.num_nodes(), 20u);
  EXPECT_EQ(t.num_links(), 35u);
}

TEST(Topology, RandomConnectedIsDeterministic) {
  const Topology a = make_random_connected(20, 35, 9);
  const Topology b = make_random_connected(20, 35, 9);
  for (std::size_t i = 0; i < a.links().size(); ++i) {
    EXPECT_EQ(a.links()[i].a, b.links()[i].a);
    EXPECT_EQ(a.links()[i].b, b.links()[i].b);
  }
}

TEST(Topology, LivenessAccounting) {
  Topology mesh = make_mesh(5, 5);
  EXPECT_EQ(mesh.alive_count(), 25u);
  EXPECT_EQ(mesh.alive_link_count(), 40u);
  mesh.set_alive(12, false);  // center node carries 4 links
  EXPECT_EQ(mesh.alive_count(), 24u);
  EXPECT_EQ(mesh.alive_link_count(), 36u);
  EXPECT_FALSE(mesh.alive(12));
  mesh.set_alive(12, true);
  EXPECT_EQ(mesh.alive_link_count(), 40u);
}

TEST(Topology, SetAliveIsIdempotentAndBumpsVersionOnlyOnChange) {
  Topology mesh = make_mesh(3, 3);
  const auto v0 = mesh.version();
  mesh.set_alive(0, true);  // already alive
  EXPECT_EQ(mesh.version(), v0);
  mesh.set_alive(0, false);
  EXPECT_GT(mesh.version(), v0);
  const auto v1 = mesh.version();
  mesh.set_alive(0, false);
  EXPECT_EQ(mesh.version(), v1);
}

TEST(Topology, AliveNeighborsFilterDeadPeers) {
  Topology mesh = make_mesh(3, 3);
  mesh.set_alive(1, false);
  const auto neighbors = mesh.alive_neighbors(0);
  EXPECT_EQ(neighbors.size(), 1u);
  EXPECT_EQ(neighbors[0], 3u);
}

TEST(Topology, AliveNodesLists) {
  Topology mesh = make_mesh(2, 2);
  mesh.set_alive(2, false);
  const auto alive = mesh.alive_nodes();
  EXPECT_EQ(alive, (std::vector<NodeId>{0, 1, 3}));
}

TEST(Topology, NeighborSpanMatchesAdjacency) {
  Topology mesh = make_mesh(3, 3);
  // Node 4 is the center: neighbors in link-insertion order.
  const NeighborSpan center = mesh.neighbors(4);
  EXPECT_EQ(center.size(), 4u);
  EXPECT_FALSE(center.empty());
  std::vector<NodeId> collected(center.begin(), center.end());
  std::sort(collected.begin(), collected.end());
  EXPECT_EQ(collected, (std::vector<NodeId>{1, 3, 5, 7}));
  EXPECT_EQ(center[0], *center.begin());
  // Spans stay valid and correct after a liveness flip (CSR structure is
  // keyed to links, not liveness).
  mesh.set_alive(1, false);
  EXPECT_EQ(mesh.neighbors(4).size(), 4u);
}

TEST(Topology, ForEachAliveNeighborSkipsDead) {
  Topology mesh = make_mesh(3, 3);
  mesh.set_alive(1, false);
  mesh.set_alive(5, false);
  std::vector<NodeId> seen;
  mesh.for_each_alive_neighbor(4, [&](NodeId n) { seen.push_back(n); });
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(seen, (std::vector<NodeId>{3, 7}));
}

TEST(Topology, ForEachAliveNodeMatchesAliveNodes) {
  Topology mesh = make_mesh(4, 4);
  mesh.set_alive(0, false);
  mesh.set_alive(9, false);
  std::vector<NodeId> streamed;
  mesh.for_each_alive_node([&](NodeId n) { streamed.push_back(n); });
  EXPECT_EQ(streamed, mesh.alive_nodes());
  EXPECT_EQ(streamed.size(), mesh.alive_count());
}

TEST(Topology, CsrSurvivesLinkAdditionAfterQuery) {
  Topology topo(4);
  topo.add_link(0, 1);
  EXPECT_EQ(topo.neighbors(0).size(), 1u);  // builds the CSR
  topo.add_link(0, 2);                      // invalidates it
  topo.add_link(2, 3);
  const NeighborSpan n0 = topo.neighbors(0);
  std::vector<NodeId> collected(n0.begin(), n0.end());
  std::sort(collected.begin(), collected.end());
  EXPECT_EQ(collected, (std::vector<NodeId>{1, 2}));
  EXPECT_EQ(topo.neighbors(3).size(), 1u);
  EXPECT_TRUE(topo.neighbors(1).size() == 1u);
}

class MeshSizeTest
    : public ::testing::TestWithParam<std::pair<NodeId, NodeId>> {};

TEST_P(MeshSizeTest, LinkCountFormula) {
  const auto [w, h] = GetParam();
  const Topology mesh = make_mesh(w, h);
  // w*h nodes; h*(w-1) horizontal + w*(h-1) vertical links.
  EXPECT_EQ(mesh.num_nodes(), w * h);
  EXPECT_EQ(mesh.num_links(),
            static_cast<std::size_t>(h * (w - 1) + w * (h - 1)));
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, MeshSizeTest,
    ::testing::Values(std::pair<NodeId, NodeId>{1, 1},
                      std::pair<NodeId, NodeId>{2, 3},
                      std::pair<NodeId, NodeId>{5, 5},
                      std::pair<NodeId, NodeId>{10, 10},
                      std::pair<NodeId, NodeId>{3, 7}));

}  // namespace
}  // namespace realtor::net
