#include "net/shortest_paths.hpp"

#include <algorithm>
#include <gtest/gtest.h>

#include "common/rng.hpp"

namespace realtor::net {
namespace {

/// Longest finite shortest path over all ordered pairs, from hops().
std::uint32_t longest_pair(const Topology& t, const ShortestPaths& sp) {
  std::uint32_t longest = 0;
  for (NodeId a = 0; a < t.num_nodes(); ++a) {
    for (NodeId b = 0; b < t.num_nodes(); ++b) {
      const std::uint32_t d = sp.hops(a, b);
      if (d != kUnreachable) longest = std::max(longest, d);
    }
  }
  return longest;
}

TEST(ShortestPaths, MeshHopDistances) {
  const Topology mesh = make_mesh(5, 5);
  const ShortestPaths sp(mesh);
  EXPECT_EQ(sp.hops(0, 0), 0u);
  EXPECT_EQ(sp.hops(0, 1), 1u);
  EXPECT_EQ(sp.hops(0, 24), 8u);  // opposite corners: 4 + 4
  EXPECT_EQ(sp.hops(0, 12), 4u);  // corner to center
  EXPECT_EQ(longest_pair(mesh, sp), 8u);
  EXPECT_TRUE(sp.connected());
}

TEST(ShortestPaths, MeshAveragePathLengthMatchesManhattanExpectation) {
  // On a 5x5 grid the mean Manhattan distance between distinct nodes is
  // 2*E|dx| where E over the joint; computed exactly: 10/3.
  const Topology mesh = make_mesh(5, 5);
  const ShortestPaths sp(mesh);
  EXPECT_NEAR(sp.average_path_length(), 10.0 / 3.0, 1e-9);
}

TEST(ShortestPaths, SymmetricDistances) {
  const Topology t = make_random_connected(15, 25, 4);
  const ShortestPaths sp(t);
  for (NodeId a = 0; a < t.num_nodes(); ++a) {
    for (NodeId b = 0; b < t.num_nodes(); ++b) {
      EXPECT_EQ(sp.hops(a, b), sp.hops(b, a));
    }
  }
}

TEST(ShortestPaths, TriangleInequality) {
  const Topology t = make_random_connected(12, 20, 8);
  const ShortestPaths sp(t);
  for (NodeId a = 0; a < t.num_nodes(); ++a) {
    for (NodeId b = 0; b < t.num_nodes(); ++b) {
      for (NodeId c = 0; c < t.num_nodes(); ++c) {
        ASSERT_LE(sp.hops(a, c), sp.hops(a, b) + sp.hops(b, c));
      }
    }
  }
}

TEST(ShortestPaths, DeadNodeUnreachableAndReroutes) {
  Topology mesh = make_mesh(3, 3);
  // Kill the center: corner-to-corner paths must route around it.
  mesh.set_alive(4, false);
  ShortestPaths sp(mesh);
  EXPECT_EQ(sp.hops(0, 4), kUnreachable);
  EXPECT_EQ(sp.hops(4, 0), kUnreachable);
  EXPECT_EQ(sp.hops(0, 8), 4u);  // still 4 around the edge
  EXPECT_EQ(sp.hops(3, 5), 4u);  // direct path through center gone: 2 -> 4
  EXPECT_TRUE(sp.connected());   // remaining alive nodes still connected
}

TEST(ShortestPaths, PartitionDetected) {
  Topology ring = make_ring(6);
  ring.set_alive(0, false);
  ring.set_alive(3, false);  // cuts the ring into {1,2} and {4,5}
  ShortestPaths sp(ring);
  EXPECT_FALSE(sp.connected());
  EXPECT_EQ(sp.hops(1, 4), kUnreachable);
  EXPECT_EQ(sp.hops(1, 2), 1u);
}

TEST(ShortestPaths, RefreshTracksTopologyVersion) {
  // Cached rows are keyed by Topology::version(): the next query after a
  // liveness change resyncs on its own, with no explicit refresh step.
  Topology mesh = make_mesh(3, 3);
  const ShortestPaths sp(mesh);
  EXPECT_EQ(sp.hops(0, 4), 2u);
  EXPECT_EQ(sp.hops(3, 5), 2u);
  EXPECT_TRUE(sp.connected());
  mesh.set_alive(4, false);
  EXPECT_EQ(sp.hops(0, 4), kUnreachable);
  EXPECT_EQ(sp.hops(4, 0), kUnreachable);
  EXPECT_EQ(sp.hops(3, 5), 4u);
  mesh.set_alive(1, false);
  mesh.set_alive(7, false);  // cuts {0,3,6} from {2,5,8}
  EXPECT_FALSE(sp.connected());
  EXPECT_EQ(sp.hops(3, 5), kUnreachable);
  mesh.set_alive(4, true);
  EXPECT_TRUE(sp.connected());
  EXPECT_EQ(sp.hops(3, 5), 2u);
}

TEST(ShortestPaths, RowMatchesPerPairHops) {
  Topology mesh = make_mesh(4, 4);
  mesh.set_alive(5, false);
  const ShortestPaths sp(mesh);
  const std::uint32_t* row = sp.row(0);
  ASSERT_NE(row, nullptr);
  for (NodeId dest = 0; dest < mesh.num_nodes(); ++dest) {
    EXPECT_EQ(row[dest], sp.hops(0, dest)) << "dest " << dest;
  }
  EXPECT_EQ(row[0], 0u);
  EXPECT_EQ(row[5], kUnreachable);
}

TEST(ShortestPaths, RowCacheEvictionKeepsAnswersCorrect) {
  // More sources than the 64-row cache: every row must still be right
  // after the cache wraps (eviction clears, rows rebuild on demand).
  const Topology mesh = make_mesh(10, 10);
  const ShortestPaths sp(mesh);
  for (NodeId src = 0; src < 100; ++src) {
    EXPECT_EQ(sp.hops(src, src), 0u);
    EXPECT_EQ(sp.hops(src, 99), (9 - src % 10) + (9 - src / 10));
  }
  // Re-query the first source after the cache cycled.
  EXPECT_EQ(sp.hops(0, 99), 18u);
  EXPECT_EQ(sp.row(0)[99], 18u);
}

TEST(ShortestPaths, SymmetricLookupMatchesFreshRowsUnderKills) {
  // hops(a, b) may answer from b's row; on every pair it must equal a's
  // own row from a fresh oracle, whatever the long-lived oracle's cache
  // holds and whichever endpoints are dead. Rows for arbitrary other
  // sources are primed first so lookups hit a mix of cached and new rows.
  struct Case {
    Topology topology;
    std::vector<NodeId> cut;  // killed before the random kill sets
  };
  std::vector<Case> cases;
  cases.push_back({make_random_connected(30, 45, 3), {}});
  cases.push_back({make_random_connected(90, 120, 11), {}});  // > 64 rows
  cases.push_back({make_ring(16), {0, 5, 11}});  // three partitions
  RngStream rng(17, "shortest-paths-symmetry");
  for (Case& c : cases) {
    Topology& t = c.topology;
    const NodeId n = t.num_nodes();
    for (const NodeId v : c.cut) t.set_alive(v, false);
    const ShortestPaths live(t);
    for (int round = 0; round < 4; ++round) {
      std::vector<NodeId> killed;
      for (NodeId k = 0; k < n / 5; ++k) {
        const auto v = static_cast<NodeId>(rng.uniform_index(n));
        if (!t.alive(v)) continue;
        t.set_alive(v, false);
        killed.push_back(v);
      }
      for (int p = 0; p < 8; ++p) {
        live.row(static_cast<NodeId>(rng.uniform_index(n)));
      }
      for (NodeId a = 0; a < n; ++a) {
        const ShortestPaths fresh(t);
        const std::uint32_t* expected = fresh.row(a);
        for (NodeId b = 0; b < n; ++b) {
          ASSERT_EQ(live.hops(a, b), expected[b])
              << "n=" << n << " round " << round << " pair " << a << "->"
              << b << (t.alive(a) ? "" : " (a dead)")
              << (t.alive(b) ? "" : " (b dead)");
        }
      }
      for (const NodeId v : killed) t.set_alive(v, true);
    }
  }
}

TEST(ShortestPaths, CompleteGraphAllOnes) {
  const Topology c = make_complete(8);
  const ShortestPaths sp(c);
  EXPECT_DOUBLE_EQ(sp.average_path_length(), 1.0);
  EXPECT_EQ(longest_pair(c, sp), 1u);
}

TEST(ShortestPaths, StarIsTwoHopsBetweenLeaves) {
  const Topology s = make_star(10);
  const ShortestPaths sp(s);
  EXPECT_EQ(sp.hops(1, 2), 2u);
  EXPECT_EQ(sp.hops(0, 5), 1u);
  EXPECT_EQ(longest_pair(s, sp), 2u);
}

}  // namespace
}  // namespace realtor::net
