// Zero-copy fan-out data path: proof of equivalence between batched and
// per-destination delivery scheduling, the one-allocation-per-flood
// payload guarantee, record-and-drop accounting for unicasts across a
// partition of the alive subgraph, and the shortest-path work one HELP
// round costs under exact-hop pricing.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "common/profile.hpp"
#include "experiment/sim_transport.hpp"
#include "experiment/simulation.hpp"
#include "proto/availability_table.hpp"
#include "proto/factory.hpp"

namespace realtor::experiment {
namespace {

struct Delivery {
  NodeId to;
  NodeId from;
  SimTime at;

  bool operator==(const Delivery& o) const {
    return to == o.to && from == o.from && at == o.at;
  }
};

class TransportFanoutTest : public ::testing::Test {
 protected:
  TransportFanoutTest()
      : topo_(net::make_mesh(5, 5)),
        cost_(topo_, net::CostMode::kPaperAverage, 4.0) {}

  SimTransport make(SimTime delay) {
    return SimTransport(engine_, topo_, cost_, ledger_, delay,
                        [this](NodeId to, NodeId from, const proto::Message&) {
                          deliveries_.push_back(
                              Delivery{to, from, engine_.now()});
                        });
  }

  sim::Engine engine_;
  net::Topology topo_;
  net::CostModel cost_;
  net::MessageLedger ledger_;
  std::vector<Delivery> deliveries_;
};

// The proof-of-equivalence check: the same flood + liveness script runs
// once with per-destination events and once batched; under the engine's
// time-then-FIFO ordering the delivery sequences must be element-for-
// element identical, including a kill landing between two floods.
TEST_F(TransportFanoutTest, BatchedMatchesPerDestinationDeliverySequence) {
  const proto::Message msg{proto::HelpMsg{3, 0, 0.5}};
  std::vector<Delivery> reference;
  for (const SimTransport::DeliveryMode mode :
       {SimTransport::DeliveryMode::kPerDestination,
        SimTransport::DeliveryMode::kBatched}) {
    sim::Engine engine;
    net::Topology topo = net::make_mesh(5, 5);
    net::CostModel cost(topo, net::CostMode::kPaperAverage, 4.0);
    net::MessageLedger ledger;
    std::vector<Delivery> deliveries;
    SimTransport transport(
        engine, topo, cost, ledger, 0.0,
        [&deliveries, &engine](NodeId to, NodeId from, const proto::Message&) {
          deliveries.push_back(Delivery{to, from, engine.now()});
        });
    transport.set_delivery_mode(mode);
    engine.schedule_at(1.0, [&] { transport.flood(3, msg); });
    engine.schedule_at(1.0, [&] { topo.set_alive(7, false); });
    engine.schedule_at(2.0, [&] { transport.flood(12, msg); });
    engine.schedule_at(3.0, [&] { topo.set_alive(7, true); });
    engine.schedule_at(4.0, [&] { transport.flood(7, msg); });
    engine.run();
    if (mode == SimTransport::DeliveryMode::kPerDestination) {
      reference = deliveries;
      // Node 7 misses the first flood too: the kill fires at the same
      // timestamp as the flood but before its zero-delay deliveries, and
      // liveness is checked at delivery time. 23 + 23 + 24.
      ASSERT_EQ(reference.size(), 70u);
    } else {
      EXPECT_EQ(deliveries, reference);
    }
  }
}

// Positive-delay floods stay hop-accurate and per-destination even when
// batching is requested; the schedule must match the per-destination one.
TEST_F(TransportFanoutTest, DelayedFloodIsHopAccurateUnderBothModes) {
  std::vector<Delivery> reference;
  for (const SimTransport::DeliveryMode mode :
       {SimTransport::DeliveryMode::kPerDestination,
        SimTransport::DeliveryMode::kBatched}) {
    sim::Engine engine;
    net::Topology topo = net::make_mesh(5, 5);
    net::CostModel cost(topo, net::CostMode::kPaperAverage, 4.0);
    net::MessageLedger ledger;
    std::vector<Delivery> deliveries;
    SimTransport transport(
        engine, topo, cost, ledger, 0.5,
        [&deliveries, &engine](NodeId to, NodeId from, const proto::Message&) {
          deliveries.push_back(Delivery{to, from, engine.now()});
        });
    transport.set_delivery_mode(mode);
    transport.flood(0, proto::Message{proto::HelpMsg{0, 0, 0.5}});
    engine.run();
    ASSERT_EQ(deliveries.size(), 24u);
    // Hop-accurate: the far corner hears last, one leg per hop.
    EXPECT_DOUBLE_EQ(deliveries.front().at, 0.5);   // a 1-hop neighbor
    EXPECT_DOUBLE_EQ(deliveries.back().at, 4.0);    // node 24, 8 hops
    if (mode == SimTransport::DeliveryMode::kPerDestination) {
      reference = deliveries;
    } else {
      EXPECT_EQ(deliveries, reference);
    }
  }
}

// One ref-counted envelope per flood regardless of destination count or
// scheduling mode — the allocation-counting hook of the acceptance
// criteria.
TEST_F(TransportFanoutTest, FloodAllocatesExactlyOnePayload) {
  auto transport = make(0.0);
  EXPECT_EQ(transport.payload_allocations(), 0u);
  transport.flood(0, proto::Message{proto::HelpMsg{0, 0, 0.5}});
  engine_.run();
  EXPECT_EQ(deliveries_.size(), 24u);
  EXPECT_EQ(transport.payload_allocations(), 1u);

  transport.set_delivery_mode(SimTransport::DeliveryMode::kPerDestination);
  transport.flood(12, proto::Message{proto::HelpMsg{12, 1, 0.5}});
  engine_.run();
  EXPECT_EQ(deliveries_.size(), 48u);
  EXPECT_EQ(transport.payload_allocations(), 2u);
}

TEST_F(TransportFanoutTest, EscalateAllocatesExactlyOnePayload) {
  auto transport = make(0.0);
  const federation::GroupMap groups =
      federation::GroupMap::mesh_blocks(5, 5, 5, 1);  // 5 groups of 5
  transport.set_group_map(&groups);
  transport.escalate(0, 2, proto::Message{proto::HelpMsg{0, 0, 0.9}});
  engine_.run();
  EXPECT_EQ(deliveries_.size(), 5u);  // whole row 2, origin not a member
  EXPECT_EQ(transport.payload_allocations(), 1u);
}

// Push adverts on the batched whole-overlay path go to the advert board,
// per-destination ones into each receiver's own records. Driven through
// the same flood + liveness script (including a kill at a flood's
// timestamp, which lands before the batch), every receiver's table must
// read the same in both modes, and the transport must count the same
// deliveries.
TEST_F(TransportFanoutTest, BoardPublishMatchesPerDestinationTables) {
  constexpr NodeId kNodes = 25;
  const auto advert = [](NodeId origin, double availability) {
    proto::PushAdvertMsg msg;
    msg.origin = origin;
    msg.availability = availability;
    msg.security_level = static_cast<std::uint8_t>(origin);
    return proto::Message{msg};
  };
  std::vector<std::vector<double>> reference;
  std::uint64_t reference_deliveries = 0;
  for (const SimTransport::DeliveryMode mode :
       {SimTransport::DeliveryMode::kPerDestination,
        SimTransport::DeliveryMode::kBatched}) {
    sim::Engine engine;
    net::Topology topo = net::make_mesh(5, 5);
    net::CostModel cost(topo, net::CostMode::kPaperAverage, 4.0);
    net::MessageLedger ledger;
    proto::AdvertBoard board(kNodes);
    std::vector<proto::AvailabilityTable> tables;
    for (NodeId id = 0; id < kNodes; ++id) tables.emplace_back(id, 0.1, &board);
    std::size_t handed_over = 0;
    SimTransport transport(
        engine, topo, cost, ledger, 0.0,
        [&](NodeId to, NodeId, const proto::Message& msg) {
          const auto& a = std::get<proto::PushAdvertMsg>(msg);
          tables[to].update(a.origin, a.availability, engine.now(),
                            a.security_level);
          ++handed_over;
        });
    transport.set_delivery_mode(mode);
    transport.set_advert_board(&board);
    const auto kill = [&](NodeId id) {
      topo.set_alive(id, false);
      tables[id].leave();
    };
    const auto restore = [&](NodeId id) {
      topo.set_alive(id, true);
      tables[id].join();
    };
    engine.schedule_at(1.0, [&] { transport.flood(3, advert(3, 0.9)); });
    engine.schedule_at(1.0, [&] { kill(7); });  // lands before the batch
    engine.schedule_at(2.0, [&] { transport.flood(12, advert(12, 0.8)); });
    engine.schedule_at(2.5, [&] { tables[4].debit(12, 0.3); });
    engine.schedule_at(2.5, [&] { tables[5].invalidate(3); });
    engine.schedule_at(3.0, [&] { restore(7); });
    engine.schedule_at(4.0, [&] { transport.flood(7, advert(7, 0.7)); });
    engine.schedule_at(4.0, [&] { kill(9); });
    engine.schedule_at(5.0, [&] { transport.flood(3, advert(3, 0.6)); });
    engine.schedule_at(6.0, [&] { restore(9); });
    engine.run();

    std::vector<std::vector<double>> seen(kNodes);
    for (NodeId r = 0; r < kNodes; ++r) {
      for (NodeId o = 0; o < kNodes; ++o) {
        seen[r].push_back(tables[r].heard_from(o) ? tables[r].availability(o)
                                                  : -1.0);
      }
      seen[r].push_back(static_cast<double>(tables[r].size()));
    }
    // Node 7 was dead at the first flood and never sees it; node 9 died
    // after the floods from 3, 7 and 12 and restarted cold.
    EXPECT_FALSE(tables[7].heard_from(12));
    EXPECT_DOUBLE_EQ(tables[7].availability(3), 0.6);
    EXPECT_EQ(tables[9].size(), 0u);
    EXPECT_DOUBLE_EQ(tables[4].availability(12), 0.5);
    EXPECT_DOUBLE_EQ(tables[5].availability(3), 0.6);  // next publish wins
    if (mode == SimTransport::DeliveryMode::kPerDestination) {
      reference = seen;
      reference_deliveries = transport.deliveries();
      EXPECT_EQ(handed_over, transport.deliveries());
    } else {
      EXPECT_EQ(seen, reference);
      EXPECT_EQ(transport.deliveries(), reference_deliveries);
      EXPECT_EQ(handed_over, 0u);  // the board replaced every hand-over
    }
  }
}

// A full simulation (attacks, migrations, periodic or threshold floods)
// must produce identical metrics under forced per-destination and forced
// batched scheduling — the end-to-end half of the equivalence argument.
// Flat Push-1 and Push-.9 runs read the advert board when batched and
// own records when per-destination; the federated run's group floods use
// own records in both modes.
TEST(TransportEquivalence, FullRunMetricsIdenticalAcrossDeliveryModes) {
  ScenarioConfig push;
  push.protocol_kind = proto::ProtocolKind::kPurePush;
  push.duration = 120.0;
  push.lambda = 9.0;  // queues fill up, so adverts steer migrations
  push.seed = 7;
  AttackWave wave;
  wave.time = 60.0;
  wave.grace = 5.0;  // victims evacuate through their tables first
  wave.count = 3;
  wave.outage = 15.0;
  push.attacks.push_back(wave);
  ScenarioConfig adaptive = push;
  adaptive.protocol_kind = proto::ProtocolKind::kAdaptivePush;
  ScenarioConfig federated = push;
  federated.topology.width = 10;
  federated.topology.height = 10;
  federated.fixed_unicast_cost.reset();
  federated.lambda = 36.0;
  federated.federation.enabled = true;
  federated.federation.block_width = 5;
  federated.federation.block_height = 5;

  for (const ScenarioConfig& config : {push, adaptive, federated}) {
    SCOPED_TRACE(proto::paper_label(config.protocol_kind) +
                 std::string(config.federation.enabled ? " federated" : ""));
    net::LedgerSnapshot ledgers[2];
    std::uint64_t generated[2], migrated[2], completed[2], lost[2];
    std::uint64_t evacuating[2], evacuated[2], attempts[2], deliveries[2];
    int i = 0;
    for (const SimTransport::DeliveryMode mode :
         {SimTransport::DeliveryMode::kPerDestination,
          SimTransport::DeliveryMode::kBatched}) {
      Simulation sim(config);
      sim.transport().set_delivery_mode(mode);
      const RunMetrics& m = sim.run();
      ledgers[i] = m.ledger.snapshot();
      generated[i] = m.generated;
      migrated[i] = m.admitted_migrated;
      completed[i] = m.completed;
      lost[i] = m.lost_to_attack;
      evacuating[i] = m.evacuation_candidates;
      evacuated[i] = m.evacuated;
      attempts[i] = m.migration_attempts;
      deliveries[i] = sim.transport().deliveries();
      ++i;
    }
    EXPECT_GT(migrated[0], 0u);
    EXPECT_GT(evacuating[0], 0u);
    EXPECT_EQ(generated[0], generated[1]);
    EXPECT_EQ(migrated[0], migrated[1]);
    EXPECT_EQ(completed[0], completed[1]);
    EXPECT_EQ(lost[0], lost[1]);
    EXPECT_EQ(evacuating[0], evacuating[1]);
    EXPECT_EQ(evacuated[0], evacuated[1]);
    EXPECT_EQ(attempts[0], attempts[1]);
    EXPECT_EQ(deliveries[0], deliveries[1]);
    EXPECT_EQ(ledgers[0].total_sends, ledgers[1].total_sends);
    EXPECT_DOUBLE_EQ(ledgers[0].total_cost, ledgers[1].total_cost);
    EXPECT_DOUBLE_EQ(ledgers[0].overhead_cost, ledgers[1].overhead_cost);
  }
}

// Record-and-drop: a unicast between alive endpoints in different
// partitions is charged to the ledger but never delivered; a unicast
// inside one partition still flows.
TEST(TransportPartition, UnreachableUnicastIsRecordedAndDropped) {
  sim::Engine engine;
  net::Topology ring = net::make_ring(6);
  net::CostModel cost(ring, net::CostMode::kPaperAverage, 4.0);
  net::MessageLedger ledger;
  std::vector<Delivery> deliveries;
  SimTransport transport(
      engine, ring, cost, ledger, 0.0,
      [&](NodeId to, NodeId from, const proto::Message&) {
        deliveries.push_back(Delivery{to, from, engine.now()});
      });

  ring.set_alive(0, false);
  ring.set_alive(3, false);  // {1,2} | {4,5}

  const proto::Message pledge{proto::PledgeMsg{1, 0.5, 0, 1.0}};
  transport.unicast(1, 4, pledge);  // across the partition
  engine.run();
  EXPECT_TRUE(deliveries.empty());
  EXPECT_EQ(transport.dropped_unreachable(), 1u);
  // The send attempt is still accounted at the cost-model price.
  EXPECT_EQ(ledger.sends(net::MessageKind::kPledge), 1u);
  EXPECT_DOUBLE_EQ(ledger.cost(net::MessageKind::kPledge), 4.0);

  transport.unicast(1, 2, pledge);  // same partition: delivered
  engine.run();
  ASSERT_EQ(deliveries.size(), 1u);
  EXPECT_EQ(deliveries[0].to, 2u);
  EXPECT_EQ(transport.dropped_unreachable(), 1u);
  EXPECT_EQ(ledger.sends(net::MessageKind::kPledge), 2u);

  // A unicast to a dead node keeps the old semantics: charged, silently
  // dropped at delivery time, and NOT counted as a partition drop.
  transport.unicast(1, 0, pledge);
  engine.run();
  EXPECT_EQ(deliveries.size(), 1u);
  EXPECT_EQ(transport.dropped_unreachable(), 1u);
  EXPECT_EQ(ledger.sends(net::MessageKind::kPledge), 3u);
}

// Exact-hop pricing charges each PLEDGE its hop count. The pledges that
// answer a HELP come from every other node but all go to the requester,
// so a HELP round must cost O(requesters) BFS rows, not one per pledge.
// A positive delay makes delivery hop-accurate, so the flood and every
// pledge's schedule read the same oracle as the pricing does.
TEST(ExactCostRound, BfsRowsScaleWithRequestersNotPledges) {
  sim::Engine engine;
  const net::Topology mesh = net::make_mesh(10, 10);
  const net::CostModel cost(mesh, net::CostMode::kExactHops);
  net::MessageLedger ledger;
  std::vector<std::unique_ptr<proto::DiscoveryProtocol>> protocols;
  SimTransport transport(
      engine, mesh, cost, ledger, 0.01,
      [&protocols](NodeId to, NodeId from, const proto::Message& msg) {
        protocols[to]->on_message(from, msg);
      });
  const std::vector<NodeId> requesters = {0, 45, 99};
  const proto::ProtocolConfig config;
  for (NodeId id = 0; id < mesh.num_nodes(); ++id) {
    const bool busy =
        std::find(requesters.begin(), requesters.end(), id) != requesters.end();
    proto::ProtocolEnv env;
    env.engine = &engine;
    env.topology = &mesh;
    env.transport = &transport;
    env.local_occupancy = [busy] { return busy ? 0.99 : 0.1; };
    env.seed = 7;
    protocols.push_back(
        proto::make_protocol(proto::ProtocolKind::kRealtor, id, config, env));
  }

  obs::Profiler& profiler = obs::Profiler::instance();
  profiler.reset();
  profiler.set_enabled(true);
  for (const NodeId r : requesters) protocols[r]->solicit();
  engine.run_until(1.0);
  profiler.set_enabled(false);
  std::uint64_t bfs_runs = 0;
  for (const obs::ProfileEntry& entry : profiler.snapshot()) {
    if (entry.path.ends_with("net/shortest_paths_bfs")) {
      bfs_runs += entry.calls;
    }
  }
  profiler.reset();

  // Every idle node answered every HELP.
  const std::size_t pledgers = mesh.num_nodes() - requesters.size();
  EXPECT_EQ(ledger.sends(net::MessageKind::kPledge),
            requesters.size() * pledgers);
  // One row per requester; the connected() check may root one more.
  EXPECT_LE(bfs_runs, requesters.size() + 1);
}

}  // namespace
}  // namespace realtor::experiment
