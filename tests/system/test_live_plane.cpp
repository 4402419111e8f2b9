// The live telemetry plane end-to-end: the headline guarantee is that a
// fixed seed produces byte-identical alert firings and exposition
// snapshots no matter how the sweep executes — serially or on worker
// threads.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/format.hpp"
#include "experiment/simulation.hpp"
#include "experiment/sweep.hpp"
#include "obs/live/live_plane.hpp"
#include "obs/trace.hpp"

namespace realtor::experiment {
namespace {

using obs::EventKind;
using obs::MemorySink;
using obs::TraceEvent;
using obs::live::LiveConfig;
using obs::live::LivePlane;

// Overloaded 5x5 mesh losing half its nodes for good at t=60: admission
// probability over the trailing 50 decisions dips below the default 0.9
// floor shortly after the wave, so the stock admission_low rule fires.
ScenarioConfig alert_scenario() {
  ScenarioConfig config;
  config.lambda = 12.0;
  config.duration = 120.0;
  config.seed = 7;
  config.live_cadence = 10.0;
  config.attacks.push_back(AttackWave{60.0, 12, 1.0, 0.0});
  return config;
}

const TraceEvent* find_alert(const MemorySink& sink, EventKind kind) {
  for (const TraceEvent& event : sink.events()) {
    if (event.kind == kind) return &event;
  }
  return nullptr;
}

std::string field_string(const TraceEvent& event, const char* key) {
  for (std::uint32_t i = 0; i < event.field_count; ++i) {
    if (std::strcmp(event.fields[i].key, key) == 0) {
      return event.fields[i].s;
    }
  }
  return {};
}

TEST(LivePlane, GoldenAlertFiresAtTheExpectedTick) {
  MemorySink events;
  LiveConfig live;
  live.node_count = 25;
  LivePlane plane(std::move(live));
  ASSERT_TRUE(plane.ok()) << plane.error();
  plane.set_downstream(&events);

  Simulation sim(alert_scenario());
  sim.set_trace_sink(&plane);
  sim.run();

  // 120 s at one tick per 10 s; the t=120 tick doubles as the final one.
  EXPECT_EQ(plane.snapshots(), 12u);
  EXPECT_EQ(plane.alerts_fired(), 1u);
  EXPECT_TRUE(plane.alert_firing("admission_low"));
  EXPECT_FALSE(plane.alert_firing("help_storm"));

  // The firing is an ordinary trace event in the downstream sink, pinned
  // to the first evaluation tick after the post-attack admission window
  // degrades: t=70 for this seed, forever.
  const TraceEvent* firing = find_alert(events, EventKind::kAlertFiring);
  ASSERT_NE(firing, nullptr);
  EXPECT_DOUBLE_EQ(firing->time, 70.0);
  EXPECT_EQ(field_string(*firing, "rule"), "admission_low");
  EXPECT_EQ(field_string(*firing, "signal"), "admission_probability");

  // And the buffered exposition reports the same state.
  EXPECT_NE(plane.exposition().find(
                "realtor_live_alert{rule=\"admission_low\"} 1"),
            std::string::npos);
  EXPECT_NE(plane.exposition().find("realtor_live_alerts_fired_total 1"),
            std::string::npos);
}

TEST(LivePlane, AttachingThePlaneDoesNotPerturbTheRun) {
  const ScenarioConfig config = alert_scenario();
  Simulation bare(config);
  const RunMetrics base = bare.run();

  LivePlane plane(LiveConfig{});
  Simulation observed(config);
  observed.set_trace_sink(&plane);
  const RunMetrics traced = observed.run();

  EXPECT_EQ(base.generated, traced.generated);
  EXPECT_EQ(base.admitted_local, traced.admitted_local);
  EXPECT_EQ(base.admitted_migrated, traced.admitted_migrated);
  EXPECT_EQ(base.rejected, traced.rejected);
  EXPECT_EQ(base.completed, traced.completed);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// Runs the alert scenario as a two-replication sweep on `jobs` workers
// and returns the bytes of every per-run exposition file.
std::vector<std::string> sweep_expositions(const std::string& prefix,
                                           unsigned jobs) {
  ScenarioConfig base = alert_scenario();
  SweepOptions options;
  options.lambdas = {12.0};
  options.protocols = {proto::ProtocolKind::kRealtor};
  options.replications = 2;
  options.jobs = jobs;

  RunSinkOptions sinks;
  sinks.live_prefix = prefix;
  sinks.live_nodes = 25;
  options.make_trace_sink = make_run_sink_factory(sinks);
  run_sweep(base, options);

  std::vector<std::string> expositions;
  for (std::uint32_t rep = 0; rep < options.replications; ++rep) {
    const std::string path = prefix + ".realtor.lambda" +
                             format_double(12.0, 3) + ".rep" +
                             std::to_string(rep) + ".prom";
    std::string text = read_file(path);
    EXPECT_FALSE(text.empty()) << path;
    expositions.push_back(std::move(text));
    std::remove(path.c_str());
  }
  return expositions;
}

TEST(LivePlane, ExpositionIsByteIdenticalAcrossJobsAndExec) {
  const std::string dir = ::testing::TempDir();
  const auto serial = sweep_expositions(dir + "live_serial", 1);
  const auto threaded = sweep_expositions(dir + "live_jobs4", 4);
  ASSERT_EQ(serial.size(), threaded.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i], threaded[i]) << "rep " << i << " diverged";
  }
  // The snapshot history must contain the golden firing, not just match.
  EXPECT_NE(serial[0].find("realtor_live_alert{rule=\"admission_low\"} 1"),
            std::string::npos);
}

}  // namespace
}  // namespace realtor::experiment
