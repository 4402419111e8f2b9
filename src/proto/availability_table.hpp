// Last-heard availability state of the PUSH baselines.
//
// Unlike the pull-side PledgeList, entries never expire: under PUSH the
// absence of a new advertisement means "no status change", so the last
// value stays authoritative. A peer we have never heard from is *not* a
// candidate — the schemes only know what was actually advertised. (The
// no-expiry property is also the push schemes' weakness under attack: a
// dead host stops advertising and keeps its stale, possibly rosy entry —
// the survivability ablation exercises exactly that.)
//
// Storage is advertiser-major. A zero-delay flood over the whole overlay
// reaches every alive node at one instant with the same value, so the
// harness publishes it once to a shared AdvertBoard (one record per
// origin) instead of writing it into N-1 per-receiver tables. Each
// receiver's AvailabilityTable is a view over
//   - the board, seen through the receiver's join stamp: a board record
//     is visible iff it is not the receiver's own, the receiver is joined
//     (alive), and the record was published after the receiver joined;
//   - sparse own records: individually delivered adverts (hop-accurate or
//     group-scoped floods, the Agile runtime), and the local corrections
//     debit() and invalidate().
// Every write takes a stamp from the board's one monotone counter, so the
// newer of a node's own record and its visible board record is exactly
// the value the old per-receiver table would hold after the same writes:
// a debit overrides the board until the advertiser's next publish, and a
// node that was dead at publish time (or died since) never sees it.
// Without a board (nullptr) the table runs on own records only.
#pragma once

#include <cstdint>
#include <limits>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"

namespace realtor::proto {

/// One advertised availability value and the write stamp ordering it.
struct AdvertRecord {
  double availability = 1.0;
  SimTime updated = 0.0;
  /// Position in the board's write order; 0 = never written.
  std::uint64_t stamp = 0;
  std::uint8_t security_level = 255;
};

/// Latest overlay-wide advertisement per origin, shared by every
/// receiver of one simulation.
class AdvertBoard {
 public:
  explicit AdvertBoard(NodeId nodes) : records_(nodes) {}

  /// Next value of the monotone write counter (starts at 1).
  std::uint64_t next_stamp() { return ++stamp_; }

  /// Records `origin`'s advertisement as seen by every receiver alive now.
  void publish(NodeId origin, double availability, SimTime now,
               std::uint8_t security_level) {
    records_[origin] =
        AdvertRecord{availability, now, next_stamp(), security_level};
  }

  const AdvertRecord& record(NodeId origin) const { return records_[origin]; }
  NodeId num_nodes() const { return static_cast<NodeId>(records_.size()); }

 private:
  std::vector<AdvertRecord> records_;  // indexed by origin
  std::uint64_t stamp_ = 0;
};

class AvailabilityTable {
 public:
  /// `self`: this node, excluded from candidates. `availability_floor`:
  /// entries at or below this are not candidates. `board`: the shared
  /// advertisement board (borrowed; nullptr = own records only).
  AvailabilityTable(NodeId self, double availability_floor,
                    AdvertBoard* board = nullptr);

  /// Records an individually delivered advertisement.
  void update(NodeId node, double availability, SimTime now,
              std::uint8_t security_level = 255) {
    own_[node] =
        AdvertRecord{availability, now, next_stamp(), security_level};
  }

  /// Locally debits availability after migrating work to `node`.
  void debit(NodeId node, double fraction);

  /// Drops to zero availability (failed negotiation showed the entry is
  /// wrong); recovers at the peer's next advertisement.
  void invalidate(NodeId node);

  /// Availability of `node`: last advertised, or 0.0 if never heard from.
  double availability(NodeId node) const {
    const AdvertRecord* entry = find(node);
    return entry != nullptr ? entry->availability : 0.0;
  }

  bool heard_from(NodeId node) const { return find(node) != nullptr; }

  /// Entries currently visible (push-side sampler probe). Exact, O(N)
  /// with a board.
  std::size_t size() const;

  /// This node was killed: forget everything and stop seeing the board.
  void leave();
  /// This node came back: see board records published from now on. A
  /// no-op unless leave() came first.
  void join();

  /// Candidates among `peers` matching the requirements, best
  /// availability first, random tie-break. Security of never-heard peers
  /// is unknown, and they are not candidates anyway.
  std::vector<NodeId> candidates(const std::vector<NodeId>& peers,
                                 RngStream& rng, double min_availability = 0.0,
                                 std::uint8_t min_security = 0) const;

 private:
  static constexpr std::uint64_t kNotJoined =
      std::numeric_limits<std::uint64_t>::max();

  std::uint64_t next_stamp() {
    return board_ != nullptr ? board_->next_stamp() : 0;
  }
  /// The board's record for `node` if this receiver can see it.
  const AdvertRecord* visible(NodeId node) const {
    if (board_ == nullptr || node == self_ || node >= board_->num_nodes()) {
      return nullptr;
    }
    const AdvertRecord& record = board_->record(node);
    return record.stamp > join_stamp_ ? &record : nullptr;
  }
  const AdvertRecord* own(NodeId node) const {
    if (own_.empty()) return nullptr;
    const auto it = own_.find(node);
    return it != own_.end() ? &it->second : nullptr;
  }
  /// Newest of the own record and the visible board record; nullptr when
  /// never heard from.
  const AdvertRecord* find(NodeId node) const {
    const AdvertRecord* mine = own(node);
    const AdvertRecord* shared = visible(node);
    if (shared != nullptr && (mine == nullptr || shared->stamp > mine->stamp)) {
      return shared;
    }
    return mine;
  }

  NodeId self_;
  double floor_;
  AdvertBoard* board_;
  std::uint64_t join_stamp_ = 0;
  std::unordered_map<NodeId, AdvertRecord> own_;
};

}  // namespace realtor::proto
