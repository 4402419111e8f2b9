#include "proto/availability_table.hpp"

#include <gtest/gtest.h>

namespace realtor::proto {
namespace {

RngStream make_rng() { return RngStream(2, "table-ties"); }

TEST(AvailabilityTable, UnknownPeersAreNotCandidates) {
  AvailabilityTable table(0, 0.1);
  EXPECT_DOUBLE_EQ(table.availability(5), 0.0);
  EXPECT_FALSE(table.heard_from(5));
  auto rng = make_rng();
  EXPECT_TRUE(table.candidates({1, 2, 3}, rng).empty());
}

TEST(AvailabilityTable, UpdateMakesCandidate) {
  AvailabilityTable table(0, 0.1);
  table.update(1, 0.7, 0.0);
  table.update(2, 0.05, 0.0);  // advertised unavailable
  auto rng = make_rng();
  const auto c = table.candidates({1, 2, 3}, rng);
  EXPECT_EQ(c, (std::vector<NodeId>{1}));
}

TEST(AvailabilityTable, SelfNeverCandidate) {
  AvailabilityTable table(1, 0.1);
  table.update(1, 1.0, 0.0);
  auto rng = make_rng();
  EXPECT_TRUE(table.candidates({1}, rng).empty());
}

TEST(AvailabilityTable, SortedByAvailability) {
  AvailabilityTable table(0, 0.1);
  table.update(1, 0.2, 0.0);
  table.update(2, 0.9, 0.0);
  table.update(3, 0.5, 0.0);
  auto rng = make_rng();
  EXPECT_EQ(table.candidates({1, 2, 3}, rng),
            (std::vector<NodeId>{2, 3, 1}));
}

TEST(AvailabilityTable, LastAdvertisementWins) {
  AvailabilityTable table(0, 0.1);
  table.update(1, 0.9, 0.0);
  table.update(1, 0.2, 5.0);
  EXPECT_DOUBLE_EQ(table.availability(1), 0.2);
}

TEST(AvailabilityTable, DebitAndInvalidate) {
  AvailabilityTable table(0, 0.1);
  table.update(1, 0.6, 0.0);
  table.debit(1, 0.2);
  EXPECT_DOUBLE_EQ(table.availability(1), 0.4);
  table.debit(1, 1.0);
  EXPECT_DOUBLE_EQ(table.availability(1), 0.0);
  table.update(1, 0.8, 1.0);
  table.invalidate(1);
  EXPECT_DOUBLE_EQ(table.availability(1), 0.0);
  // Debit of a never-heard peer is a no-op, not a materialization.
  table.debit(9, 0.5);
  EXPECT_FALSE(table.heard_from(9));
}

TEST(AvailabilityTable, CandidatesOnlyFromGivenPeerSet) {
  AvailabilityTable table(0, 0.1);
  table.update(1, 0.9, 0.0);
  table.update(2, 0.9, 0.0);
  auto rng = make_rng();
  // Peer 2 is not in the peer set (e.g. currently dead): excluded.
  EXPECT_EQ(table.candidates({1, 3}, rng), (std::vector<NodeId>{1}));
}

// --- board-backed tables ---------------------------------------------------

TEST(AdvertBoardTable, PublishIsVisibleToEveryJoinedReceiver) {
  AdvertBoard board(4);
  AvailabilityTable a(0, 0.1, &board);
  AvailabilityTable b(1, 0.1, &board);
  board.publish(2, 0.7, 3.0, 4);
  EXPECT_DOUBLE_EQ(a.availability(2), 0.7);
  EXPECT_DOUBLE_EQ(b.availability(2), 0.7);
  EXPECT_EQ(a.size(), 1u);
  auto rng = make_rng();
  EXPECT_EQ(a.candidates({1, 2, 3}, rng, 0.0, 4), (std::vector<NodeId>{2}));
  EXPECT_TRUE(a.candidates({1, 2, 3}, rng, 0.0, 5).empty());
}

TEST(AdvertBoardTable, DeadAtPublishDoesNotSeeRecordAfterRestore) {
  AdvertBoard board(4);
  AvailabilityTable table(1, 0.1, &board);
  table.leave();                    // killed
  board.publish(2, 0.9, 1.0, 255);  // flood while dead
  table.join();                     // restored
  EXPECT_FALSE(table.heard_from(2));
  EXPECT_EQ(table.size(), 0u);
  board.publish(2, 0.8, 2.0, 255);  // next flood reaches it
  EXPECT_DOUBLE_EQ(table.availability(2), 0.8);
}

TEST(AdvertBoardTable, KillDropsWhatWasSeenBefore) {
  AdvertBoard board(4);
  AvailabilityTable table(1, 0.1, &board);
  board.publish(2, 0.9, 1.0, 255);
  table.update(3, 0.5, 1.0);
  table.leave();
  EXPECT_FALSE(table.heard_from(2));
  EXPECT_FALSE(table.heard_from(3));
  table.join();
  EXPECT_FALSE(table.heard_from(2));  // restarts cold
  EXPECT_EQ(table.size(), 0u);
}

TEST(AdvertBoardTable, DebitAndInvalidateOverrideBoardUntilNextPublish) {
  AdvertBoard board(4);
  AvailabilityTable table(0, 0.1, &board);
  AvailabilityTable other(1, 0.1, &board);
  board.publish(2, 0.6, 1.0, 255);
  table.debit(2, 0.2);
  EXPECT_DOUBLE_EQ(table.availability(2), 0.4);
  EXPECT_DOUBLE_EQ(other.availability(2), 0.6);  // corrections stay local
  table.debit(2, 0.1);
  EXPECT_DOUBLE_EQ(table.availability(2), 0.3);
  EXPECT_EQ(table.size(), 1u);
  board.publish(2, 0.9, 2.0, 255);
  EXPECT_DOUBLE_EQ(table.availability(2), 0.9);

  board.publish(3, 0.8, 2.0, 255);
  table.invalidate(3);
  EXPECT_DOUBLE_EQ(table.availability(3), 0.0);
  auto rng = make_rng();
  EXPECT_EQ(table.candidates({1, 2, 3}, rng), (std::vector<NodeId>{2}));
  board.publish(3, 0.5, 3.0, 255);
  EXPECT_DOUBLE_EQ(table.availability(3), 0.5);
  EXPECT_EQ(table.size(), 2u);
}

TEST(AdvertBoardTable, IndividualDeliveryNewerThanBoardWins) {
  AdvertBoard board(4);
  AvailabilityTable table(0, 0.1, &board);
  board.publish(2, 0.6, 1.0, 255);
  table.update(2, 0.3, 2.0);
  EXPECT_DOUBLE_EQ(table.availability(2), 0.3);
  board.publish(2, 0.7, 3.0, 255);
  EXPECT_DOUBLE_EQ(table.availability(2), 0.7);
  EXPECT_EQ(table.size(), 1u);
}

TEST(AdvertBoardTable, SelfIsNeverVisible) {
  AdvertBoard board(4);
  AvailabilityTable table(1, 0.1, &board);
  board.publish(1, 0.9, 1.0, 255);
  EXPECT_FALSE(table.heard_from(1));
  EXPECT_EQ(table.size(), 0u);
  auto rng = make_rng();
  EXPECT_TRUE(table.candidates({0, 1, 2, 3}, rng).empty());
}

}  // namespace
}  // namespace realtor::proto
