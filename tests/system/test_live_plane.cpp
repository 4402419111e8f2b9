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

// The complete buffered exposition of one seeded attack run, byte for
// byte: every gauge, window, per-kind event total and rule line of every
// snapshot. A shorter run at a coarser cadence than alert_scenario() keeps
// the golden readable; admission_low still fires at the t=80 tick.
TEST(LivePlane, GoldenExpositionOfASeededAttackRun) {
  ScenarioConfig config = alert_scenario();
  config.duration = 80.0;
  config.live_cadence = 20.0;
  LiveConfig live;
  live.node_count = 25;
  LivePlane plane(std::move(live));
  ASSERT_TRUE(plane.ok()) << plane.error();
  Simulation sim(config);
  sim.set_trace_sink(&plane);
  sim.run();

  const std::string expected = R"(
# realtor_live snapshot 1 t=20
realtor_live_time 20
realtor_live_nodes_alive 25
realtor_live_nodes_total 25
realtor_live_open_episodes 0
realtor_live_decisions_total 235
realtor_live_admission_probability 1
realtor_live_help_rate 0
realtor_live_message_rate 0
realtor_live_rejection_rate 0
realtor_live_episode_latency_p50 0
realtor_live_episode_latency_p99 0
realtor_live_events_total{kind="task_arrival"} 235
realtor_live_events_total{kind="task_admit_local"} 235
realtor_live_events_total{kind="task_completed"} 96
realtor_live_events_total{kind="live_tick"} 1
realtor_live_alerts_fired_total 0
realtor_live_alert{rule="admission_low"} 0
realtor_live_alert_value{rule="admission_low"} 1
realtor_live_alert{rule="help_storm"} 0
realtor_live_alert_value{rule="help_storm"} 0

# realtor_live snapshot 2 t=40
realtor_live_time 40
realtor_live_nodes_alive 25
realtor_live_nodes_total 25
realtor_live_open_episodes 2
realtor_live_decisions_total 447
realtor_live_admission_probability 1
realtor_live_help_rate 0.06666666666666667
realtor_live_message_rate 1.7333333333333334
realtor_live_rejection_rate 0.03333333333333333
realtor_live_episode_latency_p50 0
realtor_live_episode_latency_p99 0
realtor_live_events_total{kind="help_sent"} 2
realtor_live_events_total{kind="help_received"} 48
realtor_live_events_total{kind="pledge_sent"} 50
realtor_live_events_total{kind="pledge_received"} 50
realtor_live_events_total{kind="help_interval"} 2
realtor_live_events_total{kind="threshold_crossing"} 3
realtor_live_events_total{kind="community_join"} 48
realtor_live_events_total{kind="task_arrival"} 447
realtor_live_events_total{kind="task_admit_local"} 446
realtor_live_events_total{kind="task_rejected"} 1
realtor_live_events_total{kind="task_completed"} 203
realtor_live_events_total{kind="live_tick"} 2
realtor_live_alerts_fired_total 0
realtor_live_alert{rule="admission_low"} 0
realtor_live_alert_value{rule="admission_low"} 1
realtor_live_alert{rule="help_storm"} 0
realtor_live_alert_value{rule="help_storm"} 0.06666666666666667

# realtor_live snapshot 3 t=60
realtor_live_time 60
realtor_live_nodes_alive 25
realtor_live_nodes_total 25
realtor_live_open_episodes 36
realtor_live_decisions_total 683
realtor_live_admission_probability 0.98
realtor_live_help_rate 1.7333333333333334
realtor_live_message_rate 29.3
realtor_live_rejection_rate 0.06666666666666667
realtor_live_episode_latency_p50 2.0253233544325298
realtor_live_episode_latency_p99 4.749862971969806
realtor_live_events_total{kind="help_sent"} 52
realtor_live_events_total{kind="help_received"} 960
realtor_live_events_total{kind="pledge_sent"} 815
realtor_live_events_total{kind="pledge_received"} 815
realtor_live_events_total{kind="help_interval"} 52
realtor_live_events_total{kind="threshold_crossing"} 13
realtor_live_events_total{kind="community_join"} 282
realtor_live_events_total{kind="solicit"} 12
realtor_live_events_total{kind="task_arrival"} 683
realtor_live_events_total{kind="task_admit_local"} 665
realtor_live_events_total{kind="task_admit_migrated"} 16
realtor_live_events_total{kind="task_rejected"} 2
realtor_live_events_total{kind="task_completed"} 307
realtor_live_events_total{kind="migration_attempt"} 16
realtor_live_events_total{kind="migration_success"} 16
realtor_live_events_total{kind="live_tick"} 3
realtor_live_alerts_fired_total 0
realtor_live_alert{rule="admission_low"} 0
realtor_live_alert_value{rule="admission_low"} 0.98
realtor_live_alert{rule="help_storm"} 0
realtor_live_alert_value{rule="help_storm"} 1.7333333333333334

# realtor_live snapshot 4 t=80
realtor_live_time 80
realtor_live_nodes_alive 13
realtor_live_nodes_total 25
realtor_live_open_episodes 53
realtor_live_decisions_total 816
realtor_live_admission_probability 0.76
realtor_live_help_rate 2.2666666666666666
realtor_live_message_rate 29.333333333333332
realtor_live_rejection_rate 0.8666666666666667
realtor_live_episode_latency_p50 1.8868191152028757
realtor_live_episode_latency_p99 8.181629510830023
realtor_live_events_total{kind="help_sent"} 92
realtor_live_events_total{kind="help_received"} 1764
realtor_live_events_total{kind="pledge_sent"} 1341
realtor_live_events_total{kind="pledge_received"} 1247
realtor_live_events_total{kind="help_interval"} 266
realtor_live_events_total{kind="threshold_crossing"} 43
realtor_live_events_total{kind="community_join"} 510
realtor_live_events_total{kind="solicit"} 12
realtor_live_events_total{kind="task_arrival"} 816
realtor_live_events_total{kind="task_admit_local"} 762
realtor_live_events_total{kind="task_admit_migrated"} 27
realtor_live_events_total{kind="task_rejected"} 27
realtor_live_events_total{kind="task_completed"} 352
realtor_live_events_total{kind="migration_attempt"} 268
realtor_live_events_total{kind="migration_abort"} 75
realtor_live_events_total{kind="migration_success"} 193
realtor_live_events_total{kind="node_killed"} 12
realtor_live_events_total{kind="evacuation"} 12
realtor_live_events_total{kind="unreachable_drop"} 85
realtor_live_events_total{kind="live_tick"} 4
realtor_live_alerts_fired_total 1
realtor_live_alert{rule="admission_low"} 1
realtor_live_alert_value{rule="admission_low"} 0.76
realtor_live_alert{rule="help_storm"} 0
realtor_live_alert_value{rule="help_storm"} 2.2666666666666666

)";
  EXPECT_EQ(plane.exposition(), expected.substr(1));
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
