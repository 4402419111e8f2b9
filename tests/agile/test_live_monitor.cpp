// Golden tests of the wall-clock live monitor's counter-delta adapter:
// a fixed sequence of cumulative samples, fed through observe() without a
// sampler thread, must produce a fixed exposition and a fixed list of
// alert transitions. The sequence exercises every piece of evidence the
// monitor derives from deltas rather than events:
//
//   - admitted-first decisions: the t=100 interval admits 5 and rejects
//     10, so the trailing-50 window reads 25/35 and admission_low fires;
//     the t=140 interval's 50 admissions push every rejection out and
//     clear it;
//   - interval-mean latency: three closures worth 3.0 s in total enter
//     the latency window as three 1.0 s observations;
//   - the open-episode bound: issued minus (closed + rejected), clamped
//     at zero when decisions outrun issues (t=140);
//   - the baseline-relative help_storm rule (help_rate > 3x the run's
//     cumulative rate): a 90-HELP burst at t=100 beats 3 x 96/100 over
//     the 30 s window, then a quiet interval clears it.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "agile/live_monitor.hpp"
#include "common/format.hpp"

namespace realtor::agile {
namespace {

LiveMonitor::Sample sample(SimTime now, std::uint64_t admitted,
                           std::uint64_t rejected, std::uint64_t helps,
                           std::uint64_t messages, std::uint64_t closed,
                           double latency_sum, std::int64_t alive,
                           std::uint64_t issued) {
  LiveMonitor::Sample s;
  s.now = now;
  s.admitted = admitted;
  s.rejected = rejected;
  s.helps = helps;
  s.messages = messages;
  s.episodes_closed = closed;
  s.latency_sum = latency_sum;
  s.nodes_alive = alive;
  s.episodes_issued = issued;
  return s;
}

TEST(LiveMonitor, GoldenCounterSequence) {
  // Default configuration: the stock admission_low and help_storm rules,
  // 30 s windows in 6 buckets, a 50-decision tail.
  LiveMonitor monitor{LiveMonitorConfig{}};
  ASSERT_TRUE(monitor.ok()) << monitor.error();

  std::vector<std::string> transitions;
  monitor.set_alert_listener([&transitions](const obs::live::AlertRule& rule,
                                            bool firing, SimTime time,
                                            double value) {
    std::string line = rule.name;
    line += firing ? " firing t=" : " cleared t=";
    append_double_shortest(line, time);
    line += " value=";
    append_double_shortest(line, value);
    transitions.push_back(std::move(line));
  });

  monitor.observe(sample(60.0, 20, 0, 6, 18, 2, 1.0, 4, 5));
  monitor.observe(sample(100.0, 25, 10, 96, 300, 5, 4.0, 3, 20));
  monitor.observe(sample(140.0, 75, 10, 96, 310, 6, 6.0, 4, 15));

  EXPECT_EQ(monitor.snapshots(), 3u);
  EXPECT_EQ(monitor.alerts_fired(), 2u);
  EXPECT_FALSE(monitor.alert_firing("admission_low"));
  EXPECT_FALSE(monitor.alert_firing("help_storm"));
  EXPECT_FALSE(monitor.alert_firing("no_such_rule"));

  const std::vector<std::string> expected_transitions = {
      "admission_low firing t=100 value=0.7142857142857143",
      "help_storm firing t=100 value=3",
      "admission_low cleared t=140 value=1",
      "help_storm cleared t=140 value=0",
  };
  EXPECT_EQ(transitions, expected_transitions);

  const std::string expected = R"(
# realtor_live snapshot 1 t=60 plane=agile
realtor_live_time 60
realtor_live_nodes_alive 4
realtor_live_nodes_total 0
realtor_live_open_episodes 3
realtor_live_decisions_total 20
realtor_live_admission_probability 1
realtor_live_help_rate 0.2
realtor_live_message_rate 0.6
realtor_live_rejection_rate 0
realtor_live_episode_latency_p50 0.5
realtor_live_episode_latency_p99 0.5
realtor_live_alerts_fired_total 0
realtor_live_alert{rule="admission_low"} 0
realtor_live_alert_value{rule="admission_low"} 1
realtor_live_alert{rule="help_storm"} 0
realtor_live_alert_value{rule="help_storm"} 0.2

# realtor_live snapshot 2 t=100 plane=agile
realtor_live_time 100
realtor_live_nodes_alive 3
realtor_live_nodes_total 0
realtor_live_open_episodes 5
realtor_live_decisions_total 35
realtor_live_admission_probability 0.7142857142857143
realtor_live_help_rate 3
realtor_live_message_rate 9.4
realtor_live_rejection_rate 0.3333333333333333
realtor_live_episode_latency_p50 1
realtor_live_episode_latency_p99 1
realtor_live_alerts_fired_total 2
realtor_live_alert{rule="admission_low"} 1
realtor_live_alert_value{rule="admission_low"} 0.7142857142857143
realtor_live_alert{rule="help_storm"} 1
realtor_live_alert_value{rule="help_storm"} 3

# realtor_live snapshot 3 t=140 plane=agile
realtor_live_time 140
realtor_live_nodes_alive 4
realtor_live_nodes_total 0
realtor_live_open_episodes 0
realtor_live_decisions_total 85
realtor_live_admission_probability 1
realtor_live_help_rate 0
realtor_live_message_rate 0.3333333333333333
realtor_live_rejection_rate 0
realtor_live_episode_latency_p50 2
realtor_live_episode_latency_p99 2
realtor_live_alerts_fired_total 2
realtor_live_alert{rule="admission_low"} 0
realtor_live_alert_value{rule="admission_low"} 1
realtor_live_alert{rule="help_storm"} 0
realtor_live_alert_value{rule="help_storm"} 0

)";
  EXPECT_EQ(monitor.exposition(), expected.substr(1));
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// `out` and `write_through` mean what they mean on the simulation plane:
// write-through rewrites the file with each snapshot and keeps no history;
// buffered keeps the history and writes all of it when stop() ends the
// run.
TEST(LiveMonitor, FileTargetWritesThroughOrBuffersLikeThePlane) {
  const Clock clock(0.001);  // 1000x: one model second per wall ms
  std::uint64_t admitted = 0;
  const LiveMonitor::Sampler sampler = [&admitted] {
    LiveMonitor::Sample s;
    s.admitted = ++admitted;
    return s;
  };
  for (const bool write_through : {true, false}) {
    LiveMonitorConfig config;
    config.out = ::testing::TempDir() + "live_monitor_target.prom";
    config.write_through = write_through;
    LiveMonitor monitor{config};
    ASSERT_TRUE(monitor.ok()) << monitor.error();
    monitor.observe(sampler());  // a first snapshot before the thread
    monitor.start(clock, sampler);
    monitor.stop();
    ASSERT_TRUE(monitor.ok()) << monitor.error();
    ASSERT_GE(monitor.snapshots(), 2u);

    const std::string file = read_file(config.out);
    std::remove(config.out.c_str());
    const std::size_t last = file.rfind("# realtor_live snapshot ");
    ASSERT_NE(last, std::string::npos);
    EXPECT_NE(file.find(" plane=agile final\n", last), std::string::npos);
    if (write_through) {
      EXPECT_EQ(last, 0u) << "only the latest snapshot stays in the file";
      EXPECT_EQ(monitor.exposition(), "");
    } else {
      EXPECT_EQ(file.find("# realtor_live snapshot 1 "), 0u);
      EXPECT_EQ(file, monitor.exposition());
    }
  }
}

}  // namespace
}  // namespace realtor::agile
