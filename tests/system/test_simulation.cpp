#include "experiment/simulation.hpp"

#include <gtest/gtest.h>

#include <iomanip>
#include <sstream>
#include <string>

#include "proto/factory.hpp"

namespace realtor::experiment {
namespace {

ScenarioConfig small_config(proto::ProtocolKind kind, double lambda,
                            SimTime duration = 100.0) {
  ScenarioConfig c;
  c.protocol_kind = kind;
  c.lambda = lambda;
  c.duration = duration;
  c.seed = 11;
  return c;
}

class SimulationConservation
    : public ::testing::TestWithParam<proto::ProtocolKind> {};

TEST_P(SimulationConservation, TaskAccountingBalances) {
  Simulation sim(small_config(GetParam(), 8.0, 150.0));
  const RunMetrics& m = sim.run();
  EXPECT_GT(m.generated, 0u);
  EXPECT_EQ(m.generated, m.admitted_local + m.admitted_migrated + m.rejected +
                             m.arrivals_at_dead_nodes);
  EXPECT_EQ(m.arrivals_at_dead_nodes, 0u);  // no attacks configured
  // Admitted work is either completed or still queued; completion count
  // can never exceed admissions.
  EXPECT_LE(m.completed, m.admitted_total());
}

TEST_P(SimulationConservation, LightLoadAdmitsEverythingSilently) {
  Simulation sim(small_config(GetParam(), 1.0));
  const RunMetrics& m = sim.run();
  EXPECT_EQ(m.rejected, 0u);
  EXPECT_DOUBLE_EQ(m.admission_probability(), 1.0);
  EXPECT_EQ(m.admitted_migrated, 0u);  // nothing ever fills at lambda=1
}

TEST_P(SimulationConservation, OverloadRejectsSome) {
  Simulation sim(small_config(GetParam(), 12.0, 300.0));
  const RunMetrics& m = sim.run();
  EXPECT_GT(m.rejected, 0u);
  EXPECT_LT(m.admission_probability(), 1.0);
  EXPECT_GT(m.admission_probability(), 0.3);
}

INSTANTIATE_TEST_SUITE_P(AllProtocols, SimulationConservation,
                         ::testing::ValuesIn(proto::kAllProtocolKinds),
                         [](const auto& tpi) {
                           std::string name = proto::to_string(tpi.param);
                           std::replace(name.begin(), name.end(), '-', '_');
                           return name;
                         });

TEST(Simulation, DeterministicGivenSeed) {
  const auto config = small_config(proto::ProtocolKind::kRealtor, 7.0);
  Simulation a(config), b(config);
  const RunMetrics& ma = a.run();
  const RunMetrics& mb = b.run();
  EXPECT_EQ(ma.generated, mb.generated);
  EXPECT_EQ(ma.admitted_local, mb.admitted_local);
  EXPECT_EQ(ma.admitted_migrated, mb.admitted_migrated);
  EXPECT_EQ(ma.rejected, mb.rejected);
  EXPECT_DOUBLE_EQ(ma.ledger.total_cost(), mb.ledger.total_cost());
}

TEST(Simulation, SeedChangesWorkload) {
  auto config = small_config(proto::ProtocolKind::kRealtor, 7.0);
  Simulation a(config);
  config.seed = 12;
  Simulation b(config);
  EXPECT_NE(a.run().generated, b.run().generated);
}

TEST(Simulation, WorkloadIdenticalAcrossProtocols) {
  // Common random numbers: the generated task stream must not depend on
  // the protocol under test.
  std::vector<std::uint64_t> generated;
  for (const auto kind : proto::kAllProtocolKinds) {
    Simulation sim(small_config(kind, 6.0));
    generated.push_back(sim.run().generated);
  }
  for (const auto g : generated) {
    EXPECT_EQ(g, generated.front());
  }
}

TEST(Simulation, PurePushMessageCostMatchesClosedForm) {
  // With 25 nodes advertising every second for T seconds on a 40-link
  // mesh, the flood cost is exactly 25 * floor(T) * 40 when no nodes die.
  auto config = small_config(proto::ProtocolKind::kPurePush, 0.1, 100.0);
  Simulation sim(config);
  const RunMetrics& m = sim.run();
  EXPECT_DOUBLE_EQ(m.ledger.cost(net::MessageKind::kPushAdvert),
                   25.0 * 100.0 * 40.0);
  EXPECT_EQ(m.ledger.sends(net::MessageKind::kPushAdvert), 2500u);
}

TEST(Simulation, PullSendsNothingBelowThreshold) {
  auto config = small_config(proto::ProtocolKind::kPurePull, 0.5, 100.0);
  Simulation sim(config);
  const RunMetrics& m = sim.run();
  EXPECT_DOUBLE_EQ(m.ledger.total_cost(), 0.0);
}

TEST(Simulation, MigratedTasksCompleteSomewhere) {
  auto config = small_config(proto::ProtocolKind::kRealtor, 9.0, 200.0);
  Simulation sim(config);
  const RunMetrics& m = sim.run();
  EXPECT_GT(m.admitted_migrated, 0u);
  // Migration cost recorded for every successful migration.
  EXPECT_EQ(m.ledger.sends(net::MessageKind::kMigration), m.admitted_migrated);
}

TEST(Simulation, WarmupResetsCounters) {
  auto with_warmup = small_config(proto::ProtocolKind::kRealtor, 5.0, 100.0);
  with_warmup.warmup = 50.0;
  Simulation a(with_warmup);
  const RunMetrics& mw = a.run();

  auto without = small_config(proto::ProtocolKind::kRealtor, 5.0, 100.0);
  Simulation b(without);
  const RunMetrics& mf = b.run();

  EXPECT_LT(mw.generated, mf.generated);
  EXPECT_GT(mw.generated, 0u);
}

TEST(Simulation, MeanOccupancyRisesWithLoad) {
  Simulation light(small_config(proto::ProtocolKind::kRealtor, 1.0, 200.0));
  Simulation heavy(small_config(proto::ProtocolKind::kRealtor, 9.0, 200.0));
  const double occ_light = light.run().mean_occupancy;
  const double occ_heavy = heavy.run().mean_occupancy;
  EXPECT_LT(occ_light, occ_heavy);
  EXPECT_GT(occ_heavy, 0.5);
}

TEST(Simulation, ResponseTimeRecordedForCompletions) {
  Simulation sim(small_config(proto::ProtocolKind::kRealtor, 4.0, 200.0));
  const RunMetrics& m = sim.run();
  EXPECT_EQ(m.response_time.count(), m.completed);
  EXPECT_GT(m.response_time.mean(), 0.0);
}

TEST(Simulation, AlternativeTopologiesRun) {
  for (const TopologyKind kind :
       {TopologyKind::kTorus, TopologyKind::kRing, TopologyKind::kStar,
        TopologyKind::kComplete, TopologyKind::kRandom}) {
    ScenarioConfig config = small_config(proto::ProtocolKind::kRealtor, 5.0,
                                         50.0);
    config.topology.kind = kind;
    config.topology.width = 4;
    config.topology.height = 4;
    config.topology.nodes = 16;
    config.topology.links = 24;
    config.fixed_unicast_cost.reset();  // use computed average path length
    Simulation sim(config);
    const RunMetrics& m = sim.run();
    EXPECT_GT(m.generated, 0u);
    EXPECT_EQ(m.generated,
              m.admitted_local + m.admitted_migrated + m.rejected);
  }
}

TEST(Simulation, NetworkDelayModeStillConserves) {
  auto config = small_config(proto::ProtocolKind::kRealtor, 8.0, 150.0);
  config.network_delay = 0.05;
  Simulation sim(config);
  const RunMetrics& m = sim.run();
  EXPECT_EQ(m.generated, m.admitted_local + m.admitted_migrated + m.rejected);
}

TEST(SimulationMultiResource, ConservationStillHolds) {
  auto config = small_config(proto::ProtocolKind::kRealtor, 8.0, 200.0);
  config.multi_resource.enabled = true;
  Simulation sim(config);
  const RunMetrics& m = sim.run();
  EXPECT_EQ(m.generated, m.admitted_local + m.admitted_migrated + m.rejected);
  EXPECT_GT(m.generated, 0u);
}

TEST(SimulationMultiResource, SecureTasksMigrateToClearedHosts) {
  // At light CPU load, rejections can only come from the security / NIC
  // dimensions; REALTOR must still find cleared hosts for most tasks.
  auto config = small_config(proto::ProtocolKind::kRealtor, 3.0, 300.0);
  config.multi_resource.enabled = true;
  config.multi_resource.secure_task_fraction = 0.5;
  Simulation sim(config);
  const RunMetrics& m = sim.run();
  // Security refusals at the origin force migrations even though queues
  // have room.
  EXPECT_GT(m.admitted_migrated, 0u);
  EXPECT_GT(m.admission_probability(), 0.7);
}

TEST(SimulationMultiResource, FootnoteThreeSimilarResults) {
  // §5 footnote 3: "More general resource scenarios ... would give
  // similar results." With light extra demands the admission curve must
  // stay close to the CPU-only run on the same workload.
  auto cpu_only = small_config(proto::ProtocolKind::kRealtor, 7.0, 300.0);
  auto multi = cpu_only;
  multi.multi_resource.enabled = true;
  multi.multi_resource.mean_bandwidth_share = 0.02;
  multi.multi_resource.secure_task_fraction = 0.1;
  Simulation a(cpu_only), b(multi);
  const double p_cpu = a.run().admission_probability();
  const double p_multi = b.run().admission_probability();
  EXPECT_NEAR(p_cpu, p_multi, 0.05);
}

TEST(SimulationMultiResource, TighterResourcesLowerAdmission) {
  auto loose = small_config(proto::ProtocolKind::kRealtor, 7.0, 300.0);
  loose.multi_resource.enabled = true;
  loose.multi_resource.mean_bandwidth_share = 0.02;
  auto tight = loose;
  tight.multi_resource.mean_bandwidth_share = 0.25;  // NIC becomes binding
  Simulation a(loose), b(tight);
  EXPECT_GT(a.run().admission_probability(),
            b.run().admission_probability());
}

TEST(SimulationElusiveness, RelocationsHappenAndConserve) {
  auto config = small_config(proto::ProtocolKind::kRealtor, 6.0, 300.0);
  config.elusiveness.enabled = true;
  config.elusiveness.period = 10.0;
  Simulation sim(config);
  const RunMetrics& m = sim.run();
  EXPECT_GT(m.elusive_moves, 0u);
  // Conservation of arrivals is untouched by the extra hops.
  EXPECT_EQ(m.generated, m.admitted_local + m.admitted_migrated + m.rejected);
  // Everything admitted still completes or remains queued — no task is
  // lost in a relocation.
  EXPECT_LE(m.completed, m.admitted_total());
}

TEST(SimulationElusiveness, HotPotatoCostsOverheadNotAdmission) {
  auto base = small_config(proto::ProtocolKind::kRealtor, 6.0, 300.0);
  auto elusive = base;
  elusive.elusiveness.enabled = true;
  elusive.elusiveness.period = 5.0;
  Simulation a(base), b(elusive);
  const RunMetrics& mb = a.run();
  const RunMetrics& me = b.run();
  EXPECT_GT(me.ledger.cost(net::MessageKind::kMigration),
            mb.ledger.cost(net::MessageKind::kMigration));
  EXPECT_NEAR(me.admission_probability(), mb.admission_probability(), 0.03);
}

TEST(SimulationElusiveness, MovedComponentsCarryHopCounts) {
  auto config = small_config(proto::ProtocolKind::kRealtor, 6.0, 200.0);
  config.elusiveness.enabled = true;
  config.elusiveness.period = 5.0;
  Simulation sim(config);
  const RunMetrics& m = sim.run();
  // Each elusive move is a real migration through admission control.
  EXPECT_EQ(m.ledger.sends(net::MessageKind::kMigration),
            m.admitted_migrated + m.elusive_moves);
}

TEST(Simulation, ExactHopCostModeChargesLessThanPinnedAverage) {
  // On the 5x5 mesh the pinned paper cost (4) exceeds the true mean
  // (10/3), so exact-hop accounting must come out lower for the same run.
  auto paper = small_config(proto::ProtocolKind::kPurePull, 9.0, 200.0);
  auto exact = paper;
  exact.cost_mode = net::CostMode::kExactHops;
  exact.fixed_unicast_cost.reset();
  const double paper_cost = Simulation(paper).run().ledger.total_cost();
  const double exact_cost = Simulation(exact).run().ledger.total_cost();
  EXPECT_GT(paper_cost, 0.0);
  EXPECT_LT(exact_cost, paper_cost);
}

/// Every counter and accumulator a run produces, rendered exactly.
std::string fingerprint(const RunMetrics& m) {
  std::ostringstream os;
  os << std::setprecision(17);
  os << m.generated << '|' << m.admitted_local << '|' << m.admitted_migrated
     << '|' << m.rejected << '|' << m.arrivals_at_dead_nodes << '|'
     << m.completed << '|' << m.evacuation_candidates << '|' << m.evacuated
     << '|' << m.lost_to_attack << '|' << m.migration_attempts << '|'
     << m.migration_aborts << '|' << m.response_time.count() << '|'
     << m.response_time.mean() << '|' << m.response_time.variance() << '|'
     << m.ledger.total_sends() << '|' << m.ledger.total_cost() << '|'
     << m.ledger.overhead_cost() << '|' << m.mean_occupancy << '|'
     << m.mean_utilization;
  return os.str();
}

TEST(Simulation, PhasedRunMatchesOneShotRun) {
  // Phase-wise callers stop the world just before the first attack wave
  // (its solicitations and evacuations still pending) and then resume;
  // the split must not move a single event.
  ScenarioConfig config = small_config(proto::ProtocolKind::kRealtor, 4.0,
                                       40.0);
  config.seed = 9;
  AttackWave wave;
  wave.time = 30.0;
  wave.count = 4;
  wave.grace = 1.0;
  wave.outage = 5.0;
  config.attacks = {wave};

  Simulation oneshot(config);
  const std::string expected = fingerprint(oneshot.run());
  EXPECT_GT(oneshot.metrics().evacuation_candidates, 0u);

  Simulation phased(config);
  phased.begin_run();
  phased.run_prefix(wave.time);
  EXPECT_DOUBLE_EQ(phased.engine().now(), wave.time);
  EXPECT_EQ(phased.metrics().evacuation_candidates, 0u);
  EXPECT_EQ(fingerprint(phased.finish_run()), expected);
  EXPECT_EQ(phased.engine().events_processed(),
            oneshot.engine().events_processed());
}

}  // namespace
}  // namespace realtor::experiment
