// Survivability scorecard: determinism of the rendered JSON (the property
// CI artifacts depend on), attack attribution sanity on a seeded attack
// run, and agreement between the JSONL and flight-recorder pipelines.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "experiment/simulation.hpp"
#include "experiment/sweep.hpp"
#include "obs/event_store.hpp"
#include "obs/flight_reader.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/invariants.hpp"
#include "obs/jsonl_sink.hpp"
#include "obs/scorecard.hpp"

namespace realtor::obs {
namespace {

// Overloaded 5x5 mesh with one partial attack and a grace warning — the
// shape whose recovery arc the scorecard is built to narrate.
experiment::ScenarioConfig attack_scenario() {
  experiment::ScenarioConfig config;
  config.lambda = 12.0;
  config.duration = 120.0;
  config.seed = 7;
  config.sample_interval = 20.0;
  config.attacks.push_back(experiment::AttackWave{60.0, 3, 2.0, 30.0});
  return config;
}

/// A temp path unique to the running test: ctest runs every case as its
/// own concurrent process, so a fixed name lets one case delete the file
/// another case is still writing.
std::string per_test_path(const std::string& stem) {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  return ::testing::TempDir() + info->test_suite_name() + '.' + info->name() +
         '.' + stem;
}

EventStore traced_run() {
  const std::string path = per_test_path("scorecard_run.jsonl");
  {
    experiment::Simulation sim(attack_scenario());
    JsonlSink sink(path);
    sim.set_trace_sink(&sink);
    sim.run();
    sink.flush();
  }
  EventStore events;
  IngestStats stats;
  std::string error;
  const bool loaded = load_trace_store(path, events, stats, &error);
  std::remove(path.c_str());
  if (!loaded) ADD_FAILURE() << error;
  if (stats.malformed != 0) ADD_FAILURE() << stats.first_error;
  return events;
}

/// Loads a flight dump; adds a test failure when it does not load.
EventStore load_dump(const std::string& path) {
  EventStore events;
  FlightStoreInfo info;
  IngestStats stats;
  std::string error;
  if (!load_flight_file(path, events, info, stats, &error)) {
    ADD_FAILURE() << path << ": " << error;
  }
  return events;
}

TEST(Scorecard, AttributesTheAttackWave) {
  const EventStore events = traced_run();
  const Scorecard card = build_scorecard(events);

  EXPECT_EQ(card.records, events.size());
  EXPECT_GT(card.episodes, 0u);
  ASSERT_EQ(card.attacks.size(), 1u);
  const AttackReport& wave = card.attacks[0];
  EXPECT_EQ(wave.victims.size(), 3u);
  // The 2-second grace means the warning solicitation precedes the kill.
  EXPECT_LT(wave.warn_time, wave.kill_time);
  EXPECT_NEAR(wave.kill_time, 62.0, 0.5);  // warn at 60 + 2 s grace
  // Recovery happened: migrations were attributed, so MTTR is defined
  // and counts from the warning.
  ASSERT_TRUE(wave.has_mttr());
  EXPECT_GT(wave.mttr, 0.0);
  EXPECT_GT(wave.migrations, 0u);
  // The overloaded mesh exercises the full latency arc.
  EXPECT_GT(card.help_to_pledge.stats().count(), 0u);
  EXPECT_GT(card.help_to_migration.stats().count(), 0u);
}

TEST(Scorecard, JsonIsByteIdenticalAcrossRepeatedRuns) {
  const EventStore first = traced_run();
  const EventStore second = traced_run();
  const std::string json_a = render_scorecard_json(build_scorecard(first));
  const std::string json_b = render_scorecard_json(build_scorecard(second));
  EXPECT_EQ(json_a, json_b);
  // Sanity: the render is substantial, not a trivially-equal stub.
  EXPECT_GT(json_a.size(), 200u);
  EXPECT_NE(json_a.find("\"attacks\""), std::string::npos);
}

TEST(Scorecard, FlightDumpAndJsonlAgree) {
  const EventStore jsonl_events = traced_run();

  const std::string path = ::testing::TempDir() + "scorecard_flight.bin";
  FlightRecorder recorder(1 << 20);
  {
    experiment::Simulation sim(attack_scenario());
    sim.set_trace_sink(&recorder.ring(0));
    sim.run();
    ASSERT_TRUE(recorder.dump(path));
  }
  const EventStore dump = load_dump(path);
  std::remove(path.c_str());

  EXPECT_EQ(render_scorecard_json(build_scorecard(jsonl_events)),
            render_scorecard_json(build_scorecard(dump)));
}

TEST(Scorecard, ByteIdenticalAcrossSweepJobCounts) {
  // A sweep traced through per-run flight dumps must yield the same
  // scorecards whether the runs execute serially or on worker threads.
  const auto scorecards_with_jobs = [&](unsigned jobs) {
    std::vector<std::string> paths;
    experiment::SweepOptions options;
    options.protocols = {proto::ProtocolKind::kRealtor};
    options.lambdas = {12.0};
    options.replications = 2;
    options.jobs = jobs;
    std::mutex mu;
    options.make_trace_sink =
        [&](const experiment::RunId& id) -> std::unique_ptr<TraceSink> {
      const std::string path = ::testing::TempDir() + "scorecard_jobs" +
                               std::to_string(jobs) + "_rep" +
                               std::to_string(id.rep) + ".bin";
      {
        const std::scoped_lock lock(mu);
        paths.push_back(path);
      }
      return std::make_unique<FlightDumpSink>(path, 1 << 20);
    };
    experiment::run_sweep(attack_scenario(), options);

    std::sort(paths.begin(), paths.end());
    std::vector<std::string> rendered;
    for (const std::string& path : paths) {
      rendered.push_back(
          render_scorecard_json(build_scorecard(load_dump(path))));
      std::remove(path.c_str());
    }
    return rendered;
  };

  const std::vector<std::string> serial = scorecards_with_jobs(1);
  const std::vector<std::string> parallel = scorecards_with_jobs(4);
  ASSERT_EQ(serial.size(), 2u);
  EXPECT_EQ(serial, parallel);
}

TEST(Scorecard, FlightDumpPassesTheInvariantChecker) {
  const std::string path = ::testing::TempDir() + "scorecard_check.bin";
  FlightRecorder recorder(1 << 20);
  {
    experiment::Simulation sim(attack_scenario());
    sim.set_trace_sink(&recorder.ring(0));
    sim.run();
    ASSERT_TRUE(recorder.dump(path));
  }
  const EventStore dump = load_dump(path);
  std::remove(path.c_str());
  ASSERT_FALSE(dump.empty());

  const std::vector<Violation> violations = check_invariants(dump);
  EXPECT_TRUE(violations.empty())
      << violations.size() << " violations, first: "
      << (violations.empty() ? "" : violations[0].detail);
}

}  // namespace
}  // namespace realtor::obs
