#include "proto/availability_table.hpp"

#include <algorithm>

namespace realtor::proto {

AvailabilityTable::AvailabilityTable(NodeId self, double availability_floor,
                                     AdvertBoard* board)
    : self_(self), floor_(availability_floor), board_(board) {}

void AvailabilityTable::debit(NodeId node, double fraction) {
  const AdvertRecord* current = find(node);
  if (current == nullptr) return;  // never-heard peers are not candidates
  AdvertRecord entry = *current;
  entry.stamp = next_stamp();
  entry.availability -= fraction;
  if (entry.availability < 0.0) entry.availability = 0.0;
  own_[node] = entry;
}

void AvailabilityTable::invalidate(NodeId node) {
  const AdvertRecord* current = find(node);
  AdvertRecord entry = current != nullptr ? *current : AdvertRecord{};
  entry.stamp = next_stamp();
  entry.availability = 0.0;
  own_[node] = entry;
}

std::size_t AvailabilityTable::size() const {
  std::size_t count = own_.size();
  if (board_ != nullptr && join_stamp_ != kNotJoined) {
    for (NodeId node = 0; node < board_->num_nodes(); ++node) {
      if (visible(node) != nullptr && own(node) == nullptr) ++count;
    }
  }
  return count;
}

void AvailabilityTable::leave() {
  own_.clear();
  join_stamp_ = kNotJoined;
}

void AvailabilityTable::join() {
  if (join_stamp_ != kNotJoined) return;  // never left: nothing to forget
  join_stamp_ = board_ != nullptr ? board_->next_stamp() : 0;
}

std::vector<NodeId> AvailabilityTable::candidates(
    const std::vector<NodeId>& peers, RngStream& rng, double min_availability,
    std::uint8_t min_security) const {
  struct Ranked {
    NodeId node;
    double availability;
    std::uint64_t tie;
  };
  std::vector<Ranked> ranked;
  ranked.reserve(peers.size());
  for (const NodeId peer : peers) {
    if (peer == self_) continue;
    const AdvertRecord* entry = find(peer);
    if (entry == nullptr) continue;  // never heard: not a candidate
    if (entry->availability <= floor_) continue;
    if (entry->availability < min_availability) continue;
    if (entry->security_level < min_security) continue;
    ranked.push_back(Ranked{peer, entry->availability, rng.next_u64()});
  }
  std::sort(ranked.begin(), ranked.end(), [](const Ranked& a, const Ranked& b) {
    if (a.availability != b.availability) return a.availability > b.availability;
    return a.tie < b.tie;
  });
  std::vector<NodeId> out;
  out.reserve(ranked.size());
  for (const Ranked& r : ranked) out.push_back(r.node);
  return out;
}

}  // namespace realtor::proto
