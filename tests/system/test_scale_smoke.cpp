// Scale smoke: a 50x50 torus (2500 nodes) run must stay inside tight
// wall-clock and memory envelopes — the regression tripwire for the
// zero-copy fan-out + lazy-shortest-paths data path — and a sweep over it
// must be byte-identical between the serial and multi-worker executors.
// A 100x100 Push-1 advert round bounds the push path's memory.
#include <gtest/gtest.h>
#include <sys/resource.h>

#include <chrono>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/profile.hpp"
#include "experiment/simulation.hpp"
#include "experiment/sweep.hpp"

namespace realtor::experiment {
namespace {

ScenarioConfig torus_config() {
  ScenarioConfig config;
  config.topology.kind = TopologyKind::kTorus;
  config.topology.width = 50;
  config.topology.height = 50;
  config.fixed_unicast_cost.reset();  // 4 is mesh-5x5-specific
  config.protocol_kind = proto::ProtocolKind::kPurePush;
  config.duration = 5.0;  // ~12 push floods of 2500 nodes each
  config.lambda = 100.0;
  config.seed = 11;
  return config;
}

long max_rss_kib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;  // KiB on Linux
}

TEST(ScaleSmoke, TorusFiftyByFiftyRunsFastAndLean) {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  // Sanitizer shadow memory and instrumentation blow both envelopes by
  // design; the bounds below are only meaningful for uninstrumented builds.
  GTEST_SKIP() << "wall-clock and RSS bounds do not apply under sanitizers";
#endif
  const auto start = std::chrono::steady_clock::now();
  Simulation sim(torus_config());
  const RunMetrics& metrics = sim.run();
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  EXPECT_GT(metrics.generated, 0u);
  EXPECT_GT(metrics.ledger.total_sends(), 0u);
  // Pre-change this configuration took tens of seconds (per-destination
  // events + eager all-pairs BFS on every liveness change). The envelope
  // is ~20x the observed post-change time (~0.15 s) to stay CI-safe while
  // still catching an accidental return to the quadratic path.
  EXPECT_LT(elapsed, 4.0) << "2500-node run regressed to " << elapsed << " s";
  // Peak RSS stays small: CSR adjacency + a bounded BFS row cache are a
  // few MiB at N=2500; the old dense all-pairs matrix alone was ~25 MiB.
  // Generous bound (includes gtest + allocator slack).
  EXPECT_LT(max_rss_kib(), 512L * 1024L) << "peak RSS " << max_rss_kib()
                                         << " KiB";
}

// The push path at N=10000: one Push-1 advert round floods every node's
// availability to every other node (~10^8 deliveries). Per-receiver
// tables made that 10^8 table entries (~3 GB); the shared advert board
// holds one record per advertiser.
TEST(ScaleSmoke, PushAdvertRoundOnHundredByHundredStaysLean) {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "RSS bounds do not apply under sanitizers";
#endif
  ScenarioConfig config;
  config.topology.width = 100;
  config.topology.height = 100;
  config.fixed_unicast_cost = 4.0;  // isolate the fan-out path
  config.protocol_kind = proto::ProtocolKind::kPurePush;
  config.protocol.push_interval = 1.0;
  config.duration = 1.02;  // one advert round, at t=1
  config.lambda = 5000.0;
  config.seed = 11;
  Simulation sim(config);
  const RunMetrics& metrics = sim.run();

  constexpr std::uint64_t kNodes = 10000;
  EXPECT_EQ(metrics.ledger.sends(net::MessageKind::kPushAdvert), kNodes);
  EXPECT_EQ(sim.transport().deliveries(), kNodes * (kNodes - 1));
  EXPECT_LT(max_rss_kib(), 128L * 1024L) << "peak RSS " << max_rss_kib()
                                         << " KiB";
}

// ~Simulation drops every pending event in one sweep before the hosts
// and protocols go. Cancelling them one by one instead (a Push-1 advert
// timer per node) trips the engine's dead-entry compaction three times on
// this 4,900-node cell, rebuilding a heap that is about to be freed.
TEST(ScaleSmoke, PushTeardownMakesNoHeapCompactions) {
  ScenarioConfig config;
  config.topology.width = 70;
  config.topology.height = 70;
  config.fixed_unicast_cost = 4.0;
  config.protocol_kind = proto::ProtocolKind::kPurePush;
  config.protocol.push_interval = 1.0;
  config.duration = 1.02;  // one advert round, at t=1
  config.lambda = 2450.0;
  config.seed = 11;
  // The scale-matrix cell's churn: two waves of N/50 kills, each restored
  // after a fifth of the run.
  for (const double at : {0.3, 0.6}) {
    AttackWave wave;
    wave.time = at * config.duration;
    wave.count = 98;
    wave.outage = 0.2 * config.duration;
    config.attacks.push_back(wave);
  }
  // Tear down a world that is set up but not run: an advert timer per
  // node, the first arrival and the attack events pending.
  auto sim = std::make_unique<Simulation>(config);
  sim->begin_run();
  EXPECT_GE(sim->engine().pending_count(), 4900u);

  obs::Profiler& profiler = obs::Profiler::instance();
  profiler.reset();
  profiler.set_enabled(true);
  sim.reset();
  profiler.set_enabled(false);
  std::uint64_t compactions = 0;
  for (const obs::ProfileEntry& entry : profiler.snapshot()) {
    if (entry.path.ends_with("sim/heap_compact")) compactions += entry.calls;
  }
  profiler.reset();
  EXPECT_EQ(compactions, 0u);
}

std::string sweep_fingerprint(const std::vector<SweepCell>& cells) {
  std::ostringstream out;
  out.precision(17);
  for (const SweepCell& cell : cells) {
    out << static_cast<int>(cell.kind) << ':' << cell.lambda << ':'
        << cell.summed.generated << ':' << cell.summed.completed << ':'
        << cell.summed.admitted_migrated << ':' << cell.summed.rejected << ':'
        << cell.summed.ledger.total_sends() << ':'
        << cell.summed.ledger.total_cost() << ':'
        << cell.admission_probability.mean() << ':'
        << cell.total_messages.mean() << '\n';
  }
  return out.str();
}

TEST(ScaleSmoke, SweepIsByteIdenticalAcrossJobCounts) {
  ScenarioConfig base = torus_config();
  base.duration = 3.0;

  SweepOptions options;
  options.lambdas = {50.0, 100.0};
  options.protocols = {proto::ProtocolKind::kPurePush,
                       proto::ProtocolKind::kRealtor};
  options.replications = 2;

  options.jobs = 1;
  const std::string serial = sweep_fingerprint(run_sweep(base, options));
  options.jobs = 4;
  const std::string parallel = sweep_fingerprint(run_sweep(base, options));
  EXPECT_EQ(serial, parallel);
  EXPECT_FALSE(serial.empty());
}

}  // namespace
}  // namespace realtor::experiment
