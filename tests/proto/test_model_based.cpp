// Model-based randomized testing of the soft-state containers: a naive
// reference implementation processes the same random operation sequence
// and the observable behaviour must match exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "common/rng.hpp"
#include "proto/availability_table.hpp"
#include "proto/community.hpp"
#include "proto/pledge_list.hpp"

namespace realtor::proto {
namespace {

// ---------------------------------------------------------- PledgeList

struct RefPledgeEntry {
  double availability;
  SimTime updated;
  std::uint8_t security;
};

class PledgeListModel : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PledgeListModel, MatchesReferenceUnderRandomOps) {
  constexpr double kTtl = 50.0;
  constexpr double kFloor = 0.1;
  PledgeList list(kTtl, kFloor);
  std::map<NodeId, RefPledgeEntry> reference;
  RngStream rng(GetParam(), "pledge-model");
  SimTime now = 0.0;

  for (int step = 0; step < 2000; ++step) {
    now += rng.exponential(1.0);
    const NodeId node = static_cast<NodeId>(rng.uniform_index(12));
    switch (rng.uniform_index(5)) {
      case 0: {  // update
        const double avail = rng.uniform01();
        const auto security =
            static_cast<std::uint8_t>(rng.uniform_index(4));
        list.update(node, avail, 1.0, now, security);
        reference[node] = RefPledgeEntry{avail, now, security};
        break;
      }
      case 1: {  // debit
        const double fraction = rng.uniform01();
        list.debit(node, fraction);
        const auto it = reference.find(node);
        if (it != reference.end()) {
          it->second.availability =
              std::max(0.0, it->second.availability - fraction);
        }
        break;
      }
      case 2:  // remove
        list.remove(node);
        reference.erase(node);
        break;
      case 3: {  // expire sweep
        list.expire(now);
        for (auto it = reference.begin(); it != reference.end();) {
          if (now - it->second.updated > kTtl) {
            it = reference.erase(it);
          } else {
            ++it;
          }
        }
        break;
      }
      default: {  // observe candidates
        const auto min_security =
            static_cast<std::uint8_t>(rng.uniform_index(4));
        PledgeQuery query;
        query.min_security = min_security;
        auto got = list.candidates(now, rng, query);
        std::sort(got.begin(), got.end());
        std::vector<NodeId> expected;
        for (const auto& [id, entry] : reference) {
          if (now - entry.updated <= kTtl && entry.availability > kFloor &&
              entry.security >= min_security) {
            expected.push_back(id);
          }
        }
        ASSERT_EQ(got, expected) << "step " << step;
        break;
      }
    }
    // Invariant: live size always matches the reference view.
    std::size_t live = 0;
    for (const auto& [id, entry] : reference) {
      if (now - entry.updated <= kTtl) ++live;
    }
    ASSERT_EQ(list.size(now), live) << "step " << step;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PledgeListModel,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

// ------------------------------------------------------ CommunityMembership

class MembershipModel : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MembershipModel, CapAndTtlMatchReference) {
  constexpr double kTtl = 30.0;
  constexpr std::uint32_t kCap = 3;
  CommunityMembership membership(kTtl, kCap);
  std::map<NodeId, SimTime> reference;  // organizer -> last refresh
  RngStream rng(GetParam(), "membership-model");
  SimTime now = 0.0;

  const auto prune_reference = [&] {
    for (auto it = reference.begin(); it != reference.end();) {
      if (now - it->second > kTtl) {
        it = reference.erase(it);
      } else {
        ++it;
      }
    }
  };

  for (int step = 0; step < 1500; ++step) {
    now += rng.exponential(2.0);
    const NodeId organizer = static_cast<NodeId>(rng.uniform_index(8));
    if (rng.bernoulli(0.7)) {  // answer a HELP
      membership.note_refresh_answered(organizer, now);
      prune_reference();
      const auto it = reference.find(organizer);
      if (it != reference.end()) {
        it->second = now;
      } else {
        if (reference.size() >= kCap) {
          // Evict the stalest incumbent.
          auto stalest = reference.begin();
          for (auto cur = reference.begin(); cur != reference.end(); ++cur) {
            if (cur->second < stalest->second) stalest = cur;
          }
          reference.erase(stalest);
        }
        reference.emplace(organizer, now);
      }
    } else {  // observe
      prune_reference();
      auto got = membership.active_organizers(now);
      std::sort(got.begin(), got.end());
      std::vector<NodeId> expected;
      for (const auto& [id, stamp] : reference) expected.push_back(id);
      ASSERT_EQ(got, expected) << "step " << step;
      ASSERT_LE(got.size(), kCap);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MembershipModel,
                         ::testing::Values(11u, 12u, 13u, 14u, 15u));

// -------------------------------------------------------- AvailabilityTable

class AvailabilityModel : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AvailabilityModel, MatchesReferenceUnderRandomOps) {
  constexpr double kFloor = 0.1;
  AvailabilityTable table(/*self=*/0, kFloor);
  std::map<NodeId, double> reference;  // node -> availability
  RngStream rng(GetParam(), "table-model");
  std::vector<NodeId> peers;
  for (NodeId n = 1; n < 10; ++n) peers.push_back(n);

  for (int step = 0; step < 2000; ++step) {
    const NodeId node = static_cast<NodeId>(1 + rng.uniform_index(9));
    switch (rng.uniform_index(4)) {
      case 0: {
        const double avail = rng.uniform01();
        table.update(node, avail, 0.0);
        reference[node] = avail;
        break;
      }
      case 1: {
        const double fraction = rng.uniform01();
        table.debit(node, fraction);
        const auto it = reference.find(node);
        if (it != reference.end()) {
          it->second = std::max(0.0, it->second - fraction);
        }
        break;
      }
      case 2:
        table.invalidate(node);
        reference[node] = 0.0;  // invalidate materializes the entry
        break;
      default: {
        auto got = table.candidates(peers, rng);
        std::sort(got.begin(), got.end());
        std::vector<NodeId> expected;
        for (const auto& [id, avail] : reference) {
          if (avail > kFloor) expected.push_back(id);
        }
        ASSERT_EQ(got, expected) << "step " << step;
        break;
      }
    }
    for (const NodeId peer : peers) {
      const auto it = reference.find(peer);
      const double expected = it == reference.end() ? 0.0 : it->second;
      ASSERT_DOUBLE_EQ(table.availability(peer), expected);
    }
  }
}

// Board-backed tables against the old per-receiver semantics: a publish
// is a delivery to every joined receiver except the origin, leave() empties
// the receiver's table and join() adds nothing. Two receivers share one
// board so their join stamps interleave.
TEST_P(AvailabilityModel, BoardBackedMatchesReferenceUnderRandomOps) {
  constexpr double kFloor = 0.1;
  constexpr NodeId kNodes = 10;
  AdvertBoard board(kNodes);
  const NodeId selves[2] = {0, 5};
  AvailabilityTable tables[2] = {AvailabilityTable(selves[0], kFloor, &board),
                                 AvailabilityTable(selves[1], kFloor, &board)};
  std::map<NodeId, double> reference[2];
  bool joined[2] = {true, true};
  RngStream rng(GetParam(), "board-model");
  std::vector<NodeId> all;
  for (NodeId n = 0; n < kNodes; ++n) all.push_back(n);

  for (int step = 0; step < 3000; ++step) {
    const int r = static_cast<int>(rng.uniform_index(2));
    const NodeId node = static_cast<NodeId>(rng.uniform_index(kNodes));
    switch (rng.uniform_index(8)) {
      case 0: {  // individual delivery
        const double avail = rng.uniform01();
        tables[r].update(node, avail, 0.0);
        reference[r][node] = avail;
        break;
      }
      case 1:
      case 2: {  // whole-overlay flood from `node`
        const double avail = rng.uniform01();
        board.publish(node, avail, 0.0, 255);
        for (int k = 0; k < 2; ++k) {
          if (joined[k] && node != selves[k]) reference[k][node] = avail;
        }
        break;
      }
      case 3: {
        const double fraction = rng.uniform01();
        tables[r].debit(node, fraction);
        const auto it = reference[r].find(node);
        if (it != reference[r].end()) {
          it->second = std::max(0.0, it->second - fraction);
        }
        break;
      }
      case 4:
        tables[r].invalidate(node);
        reference[r][node] = 0.0;
        break;
      case 5:
        if (rng.bernoulli(0.5)) {
          tables[r].leave();
          reference[r].clear();
          joined[r] = false;
        } else {
          tables[r].join();  // a no-op while still joined
          joined[r] = true;
        }
        break;
      default: {
        auto got = tables[r].candidates(all, rng);
        std::sort(got.begin(), got.end());
        std::vector<NodeId> expected;
        for (const auto& [id, avail] : reference[r]) {
          if (id != selves[r] && avail > kFloor) expected.push_back(id);
        }
        ASSERT_EQ(got, expected) << "step " << step;
        break;
      }
    }
    for (int k = 0; k < 2; ++k) {
      ASSERT_EQ(tables[k].size(), reference[k].size()) << "step " << step;
      for (const NodeId peer : all) {
        const auto it = reference[k].find(peer);
        ASSERT_EQ(tables[k].heard_from(peer), it != reference[k].end())
            << "step " << step << " receiver " << selves[k] << " peer " << peer;
        const double expected = it == reference[k].end() ? 0.0 : it->second;
        ASSERT_DOUBLE_EQ(tables[k].availability(peer), expected);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AvailabilityModel,
                         ::testing::Values(21u, 22u, 23u, 24u, 25u));

}  // namespace
}  // namespace realtor::proto
