// Scale smoke: a 50x50 torus (2500 nodes) run must stay inside tight
// wall-clock and memory envelopes — the regression tripwire for the
// zero-copy fan-out + lazy-shortest-paths data path — and a sweep over it
// must be byte-identical between the serial and multi-worker executors.
#include <gtest/gtest.h>
#include <sys/resource.h>

#include <chrono>
#include <sstream>
#include <string>
#include <vector>

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
