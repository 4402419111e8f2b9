#include "net/shortest_paths.hpp"

#include <utility>

#include "common/assert.hpp"
#include "common/profile.hpp"

namespace realtor::net {

ShortestPaths::ShortestPaths(const Topology& topology)
    : topology_(topology), version_(topology.version()) {}

void ShortestPaths::drop_rows() const {
  for (auto& [src, dist] : rows_) {
    spare_rows_.push_back(std::move(dist));
  }
  rows_.clear();
}

std::vector<std::uint32_t> ShortestPaths::take_spare() const {
  std::vector<std::uint32_t> dist;
  if (!spare_rows_.empty()) {
    dist = std::move(spare_rows_.back());
    spare_rows_.pop_back();
  }
  return dist;
}

void ShortestPaths::sync() const {
  if (version_ == topology_.version()) return;
  drop_rows();
  average_valid_ = false;
  connected_valid_ = false;
  version_ = topology_.version();
}

void ShortestPaths::bfs(NodeId src, std::vector<std::uint32_t>& dist) const {
  obs::ProfileScope scope("net/shortest_paths_bfs");
  const NodeId n = topology_.num_nodes();
  dist.assign(n, kUnreachable);
  if (!topology_.alive(src)) return;
  dist[src] = 0;
  frontier_.clear();
  frontier_.push_back(src);
  std::uint32_t depth = 0;
  while (!frontier_.empty()) {
    ++depth;
    next_frontier_.clear();
    for (const NodeId u : frontier_) {
      for (const NodeId v : topology_.neighbors(u)) {
        if (!topology_.alive(v) || dist[v] != kUnreachable) continue;
        dist[v] = depth;
        next_frontier_.push_back(v);
      }
    }
    frontier_.swap(next_frontier_);
  }
}

const std::vector<std::uint32_t>& ShortestPaths::row_for(NodeId src) const {
  REALTOR_ASSERT(src < topology_.num_nodes());
  sync();
  const auto it = rows_.find(src);
  if (it != rows_.end()) return it->second;
  // Sources rotate; a full reset is simpler than LRU bookkeeping and just
  // as effective at this cache size.
  if (rows_.size() >= kMaxCachedRows) drop_rows();
  std::vector<std::uint32_t> dist = take_spare();
  bfs(src, dist);
  return rows_.emplace(src, std::move(dist)).first->second;
}

std::uint32_t ShortestPaths::hops(NodeId from, NodeId to) const {
  REALTOR_ASSERT(from < topology_.num_nodes());
  REALTOR_ASSERT(to < topology_.num_nodes());
  sync();
  // The alive subgraph is undirected, so dist(from, to) == dist(to, from)
  // and a row rooted at either endpoint answers. Prefer a cached `from`
  // row; otherwise root at `to`, which is the endpoint many queries share
  // (every PLEDGE answering a HELP goes to the same requester). A dead
  // endpoint reads kUnreachable from either row: bfs() returns an
  // all-unreachable row for a dead source and never enters a dead node.
  const auto it = rows_.find(from);
  if (it != rows_.end()) return it->second[to];
  return row_for(to)[from];
}

const std::uint32_t* ShortestPaths::row(NodeId src) const {
  return row_for(src).data();
}

bool ShortestPaths::connected() const {
  sync();
  if (connected_valid_) return connected_;
  const NodeId n = topology_.num_nodes();
  connected_ = true;
  for (NodeId src = 0; src < n; ++src) {
    if (!topology_.alive(src)) continue;
    // One BFS: the alive subgraph is connected iff it reaches every alive
    // node from any single alive source.
    const std::vector<std::uint32_t>& dist = row_for(src);
    std::size_t reached = 0;
    for (NodeId v = 0; v < n; ++v) {
      if (dist[v] != kUnreachable) ++reached;
    }
    connected_ = reached == topology_.alive_count();
    break;
  }
  connected_valid_ = true;
  return connected_;
}

double ShortestPaths::average_path_length() const {
  sync();
  if (average_valid_) return average_path_length_;
  // Streams one BFS per alive source through a single scratch row rather
  // than filling the row cache with N rows.
  const NodeId n = topology_.num_nodes();
  double sum = 0.0;
  std::uint64_t pairs = 0;
  std::vector<std::uint32_t> dist = take_spare();
  for (NodeId src = 0; src < n; ++src) {
    if (!topology_.alive(src)) continue;
    bfs(src, dist);
    for (NodeId v = 0; v < n; ++v) {
      if (v == src || !topology_.alive(v)) continue;
      const std::uint32_t d = dist[v];
      if (d == kUnreachable) continue;
      sum += d;
      ++pairs;
    }
  }
  spare_rows_.push_back(std::move(dist));
  average_path_length_ = pairs > 0 ? sum / static_cast<double>(pairs) : 0.0;
  average_valid_ = true;
  return average_path_length_;
}

}  // namespace realtor::net
