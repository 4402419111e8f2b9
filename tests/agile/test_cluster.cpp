// End-to-end tests of the threaded Agile Objects runtime. Time-compressed
// so each cluster run takes well under a second of wall time.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>

#include "agile/cluster.hpp"

namespace realtor::agile {
namespace {

ClusterConfig small_config(double lambda) {
  ClusterConfig c;
  c.num_hosts = 4;
  c.queue_capacity = 20.0;
  c.lambda = lambda;
  c.mean_task_size = 2.0;
  c.model_duration = 30.0;
  c.time_compression = 0.003;
  c.seed = 17;
  return c;
}

TEST(HostRuntime, AdmissionRpcBooksWork) {
  ClusterConfig config = small_config(1.0);
  Cluster cluster(config);
  HostRuntime& host = cluster.host(0);
  // A host that is not running refuses the negotiation outright.
  EXPECT_FALSE(host.request_admission(5.0).has_value());
  host.start();
  const auto r1 = host.request_admission(5.0);
  ASSERT_TRUE(r1.has_value());
  const auto r2 = host.request_admission(15.0);  // exactly fills 20s
  ASSERT_TRUE(r2.has_value());
  EXPECT_GT(r2->completion_time, r1->completion_time);
  EXPECT_FALSE(host.request_admission(0.5).has_value());  // full
  EXPECT_NEAR(host.occupancy(), 1.0, 0.05);
  host.stop();
}

TEST(HostRuntime, CusDeadlineMatchesFifoCompletion) {
  // With server utilization 1, the CUS deadline coincides with the FIFO
  // completion instant for back-to-back requests.
  ClusterConfig config = small_config(1.0);
  Cluster cluster(config);
  HostRuntime& host = cluster.host(1);
  host.start();
  const auto r = host.request_admission(4.0);
  ASSERT_TRUE(r.has_value());
  EXPECT_NEAR(r->deadline, r->completion_time, 1e-6);
  host.stop();
}

TEST(ClusterRun, LightLoadAdmitsEverything) {
  Cluster cluster(small_config(0.5));
  const ClusterMetrics m = cluster.run();
  EXPECT_GT(m.generated, 0u);
  EXPECT_EQ(m.arrivals_processed, m.generated);
  EXPECT_EQ(m.rejected, 0u);
  EXPECT_DOUBLE_EQ(m.admission_probability(), 1.0);
  EXPECT_EQ(m.deadline_misses, 0u);
  EXPECT_GT(m.completions, 0u);
}

TEST(ClusterRun, ArrivalAccountingBalances) {
  Cluster cluster(small_config(4.0));  // overload: 4 hosts x mean 2s
  const ClusterMetrics m = cluster.run();
  EXPECT_EQ(m.arrivals_processed, m.generated);
  EXPECT_EQ(m.arrivals_processed,
            m.admitted_local + m.admitted_migrated + m.rejected);
}

TEST(ClusterRun, OverloadTriggersMigrationAndRejection) {
  ClusterConfig config = small_config(6.0);  // 300% load
  config.model_duration = 60.0;
  Cluster cluster(config);
  const ClusterMetrics m = cluster.run();
  EXPECT_GT(m.rejected, 0u);
  EXPECT_GT(m.helps, 0u);
  EXPECT_GT(m.pledges, 0u);
  EXPECT_LT(m.admission_probability(), 1.0);
  // Every inbound transfer corresponds to a migrated admission.
  EXPECT_EQ(m.transfers, m.admitted_migrated);
}

TEST(ClusterRun, NamingTracksMigrations) {
  ClusterConfig config = small_config(6.0);
  config.model_duration = 60.0;
  Cluster cluster(config);
  const ClusterMetrics m = cluster.run();
  // Every migration rebinds its component in the naming service.
  EXPECT_GE(m.naming_updates, m.admitted_migrated);
}

class ClusterLossSweep : public ::testing::TestWithParam<double> {};

TEST_P(ClusterLossSweep, AccountingHoldsAtEveryLossRate) {
  ClusterConfig config = small_config(5.0);
  config.model_duration = 40.0;
  config.loss_probability = GetParam();
  Cluster cluster(config);
  const ClusterMetrics m = cluster.run();
  EXPECT_EQ(m.arrivals_processed,
            m.admitted_local + m.admitted_migrated + m.rejected);
  if (GetParam() > 0.0) {
    EXPECT_GT(m.datagrams_dropped, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(LossRates, ClusterLossSweep,
                         ::testing::Values(0.0, 0.05, 0.25, 0.5));

TEST(ClusterRun, SurvivesDatagramLoss) {
  ClusterConfig config = small_config(6.0);
  config.model_duration = 60.0;
  config.loss_probability = 0.2;
  Cluster cluster(config);
  const ClusterMetrics m = cluster.run();
  EXPECT_GT(m.datagrams_dropped, 0u);
  // Loss degrades discovery but never breaks accounting (idempotent
  // soft-state protocol).
  EXPECT_EQ(m.arrivals_processed,
            m.admitted_local + m.admitted_migrated + m.rejected);
}

TEST(ClusterRun, NoDeadlineMissesUnderCusAdmission) {
  ClusterConfig config = small_config(5.0);
  config.model_duration = 60.0;
  Cluster cluster(config);
  const ClusterMetrics m = cluster.run();
  // Admission control never over-books the server, so every admitted
  // timer expires by its CUS deadline.
  EXPECT_EQ(m.deadline_misses, 0u);
}

TEST(ClusterRun, SpeculativeMigrationConserves) {
  ClusterConfig config = small_config(6.0);
  config.model_duration = 60.0;
  config.speculative_migration = true;
  Cluster cluster(config);
  const ClusterMetrics m = cluster.run();
  EXPECT_EQ(m.arrivals_processed,
            m.admitted_local + m.admitted_migrated + m.rejected);
  EXPECT_GT(m.speculative_accepted + m.speculative_rejected, 0u);
  EXPECT_EQ(m.speculative_accepted, m.admitted_migrated);
}

TEST(ClusterRun, NetworkDelayStillConserves) {
  ClusterConfig config = small_config(6.0);
  config.model_duration = 60.0;
  config.network_delay = 0.2;  // model seconds
  Cluster cluster(config);
  const ClusterMetrics m = cluster.run();
  EXPECT_EQ(m.arrivals_processed,
            m.admitted_local + m.admitted_migrated + m.rejected);
}

TEST(ClusterRun, SpeculativeMigrationCutsLatency) {
  // §3: speculation overlaps the state transfer with the negotiation. With
  // a one-way delay d the sequential path costs ~3d (request + reply +
  // transfer) while the speculative path costs ~d.
  ClusterConfig base = small_config(6.0);
  base.model_duration = 90.0;
  base.network_delay = 0.5;
  base.time_compression = 0.01;  // keep wall delays well above jitter

  Cluster sequential(base);
  const ClusterMetrics ms = sequential.run();

  ClusterConfig spec_config = base;
  spec_config.speculative_migration = true;
  Cluster speculative(spec_config);
  const ClusterMetrics mp = speculative.run();

  ASSERT_GT(ms.migration_latency_samples, 0u);
  ASSERT_GT(mp.migration_latency_samples, 0u);
  EXPECT_GT(ms.mean_migration_latency(), 2.0 * base.network_delay);
  EXPECT_LT(mp.mean_migration_latency(), 2.0 * base.network_delay);
  EXPECT_LT(mp.mean_migration_latency(), ms.mean_migration_latency());
}

TEST(ClusterRun, KilledHostDropsTrafficAndClusterSurvives) {
  ClusterConfig config = small_config(3.0);
  config.model_duration = 40.0;
  ClusterConfig::Attack attack;
  attack.time = 10.0;
  attack.victim = 2;
  attack.outage = 0.0;  // never comes back
  config.attacks = {attack};
  Cluster cluster(config);
  const ClusterMetrics m = cluster.run();
  EXPECT_EQ(m.hosts_killed, 1u);
  EXPECT_EQ(m.hosts_restored, 0u);
  // Arrivals addressed to the dead host after t=10 bounce off its closed
  // inbox; everything that *was* processed still balances.
  EXPECT_GT(m.datagrams_dropped, 0u);
  EXPECT_LT(m.arrivals_processed, m.generated);
  EXPECT_EQ(m.arrivals_processed,
            m.admitted_local + m.admitted_migrated + m.rejected);
}

TEST(ClusterRun, RestartedHostRejoinsCold) {
  ClusterConfig config = small_config(3.0);
  config.model_duration = 60.0;
  ClusterConfig::Attack attack;
  attack.time = 15.0;
  attack.victim = 1;
  attack.outage = 15.0;  // back at t=30
  config.attacks = {attack};
  Cluster cluster(config);
  const ClusterMetrics m = cluster.run();
  EXPECT_EQ(m.hosts_killed, 1u);
  EXPECT_EQ(m.hosts_restored, 1u);
  EXPECT_EQ(m.arrivals_processed,
            m.admitted_local + m.admitted_migrated + m.rejected);
  // The restored reactor processes arrivals again: with 1/4 of hosts down
  // for only a quarter of the run, most arrivals are still processed.
  EXPECT_GT(static_cast<double>(m.arrivals_processed) /
                static_cast<double>(m.generated),
            0.85);
}

class ClusterDiscoveryModes
    : public ::testing::TestWithParam<proto::ProtocolKind> {};

TEST_P(ClusterDiscoveryModes, EveryModeConservesUnderOverload) {
  ClusterConfig config = small_config(6.0);
  config.model_duration = 60.0;
  config.discovery = GetParam();
  Cluster cluster(config);
  const ClusterMetrics m = cluster.run();
  EXPECT_EQ(m.arrivals_processed, m.generated);
  EXPECT_EQ(m.arrivals_processed,
            m.admitted_local + m.admitted_migrated + m.rejected);
  EXPECT_GT(m.admitted_migrated, 0u) << "discovery mode found no targets";
}

TEST_P(ClusterDiscoveryModes, TrafficMatchesTheScheme) {
  ClusterConfig config = small_config(6.0);
  config.model_duration = 60.0;
  config.discovery = GetParam();
  Cluster cluster(config);
  const ClusterMetrics m = cluster.run();
  const bool pull = GetParam() == proto::ProtocolKind::kRealtor ||
                    GetParam() == proto::ProtocolKind::kAdaptivePull ||
                    GetParam() == proto::ProtocolKind::kPurePull;
  if (pull) {
    EXPECT_GT(m.helps, 0u);
  } else {
    EXPECT_EQ(m.helps, 0u);  // PUSH-based schemes never solicit
    EXPECT_GT(m.pledges, 0u);  // adverts counted on the same channel stat
  }
}

INSTANTIATE_TEST_SUITE_P(AllModes, ClusterDiscoveryModes,
                         ::testing::ValuesIn(proto::kAllProtocolKinds),
                         [](const auto& tpi) {
                           std::string name = proto::to_string(tpi.param);
                           std::replace(name.begin(), name.end(), '-', '_');
                           return name;
                         });

TEST(ClusterRun, TwentyHostPaperScaleRuns) {
  ClusterConfig config;
  config.num_hosts = 20;       // paper's cluster size
  config.queue_capacity = 50;  // Fig. 9 queue_size
  config.lambda = 5.0;
  config.model_duration = 30.0;
  config.time_compression = 0.003;
  config.seed = 3;
  Cluster cluster(config);
  const ClusterMetrics m = cluster.run();
  EXPECT_EQ(m.arrivals_processed, m.generated);
  EXPECT_GT(m.admission_probability(), 0.8);
}

// The wall-clock live monitor on its sampler thread: ticks land while the
// reactors run, and stop() takes one final sample tagged as such.
TEST(ClusterRun, LiveMonitorSamplesOnItsThread) {
  ClusterConfig config = small_config(2.0);
  config.live = LiveMonitorConfig{};  // empty out: history only
  Cluster cluster(config);
  ASSERT_NE(cluster.live(), nullptr);
  ASSERT_TRUE(cluster.live()->ok()) << cluster.live()->error();
  cluster.run();

  const LiveMonitor& live = *cluster.live();
  EXPECT_GT(live.snapshots(), 0u);
  const std::string text = live.exposition();
  const std::size_t last = text.rfind("# realtor_live snapshot ");
  ASSERT_NE(last, std::string::npos);
  const std::string header = text.substr(last, text.find('\n', last) - last);
  EXPECT_NE(header.find(" plane=agile final"), std::string::npos) << header;
  EXPECT_NE(text.find("realtor_live_nodes_total 4\n", last),
            std::string::npos);
}

// The monitor's accessors are safe to call while the sampler thread runs
// (the TSan job holds this test to it): a reader polls them throughout
// the run.
TEST(ClusterRun, LiveMonitorReadsRaceFreeDuringARun) {
  ClusterConfig config = small_config(2.0);
  config.live = LiveMonitorConfig{};
  Cluster cluster(config);
  ASSERT_NE(cluster.live(), nullptr);
  std::atomic<bool> done{false};
  std::thread reader([&] {
    const LiveMonitor& live = *cluster.live();
    while (!done.load()) {
      static_cast<void>(live.snapshots() + live.alerts_fired());
      static_cast<void>(live.alert_firing("admission_low"));
      static_cast<void>(live.exposition());
      std::this_thread::yield();
    }
  });
  cluster.run();
  done.store(true);
  reader.join();
  EXPECT_GT(cluster.live()->snapshots(), 0u);
}

}  // namespace
}  // namespace realtor::agile
