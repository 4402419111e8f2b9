// Determinism contract of the parallel sweep executor: for every jobs
// value, run_sweep must produce byte-identical aggregates, tables and
// callback sequences — parallelism may only change wall-clock time.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include <map>

#include "common/parallel.hpp"
#include "experiment/figures.hpp"
#include "experiment/sweep.hpp"
#include "net/message_ledger.hpp"
#include "obs/jsonl_sink.hpp"
#include "obs/trace.hpp"

namespace realtor::experiment {
namespace {

ScenarioConfig fast_base() {
  ScenarioConfig c;
  c.duration = 60.0;
  c.seed = 11;
  return c;
}

SweepOptions grid_options(unsigned jobs) {
  SweepOptions options;
  options.lambdas = {2.0, 6.0, 10.0};
  options.protocols = {proto::ProtocolKind::kRealtor,
                       proto::ProtocolKind::kPurePush};
  options.replications = 3;
  options.jobs = jobs;
  return options;
}

void expect_stats_identical(const OnlineStats& a, const OnlineStats& b) {
  EXPECT_EQ(a.count(), b.count());
  EXPECT_EQ(a.mean(), b.mean());          // exact: merge order is fixed
  EXPECT_EQ(a.variance(), b.variance());
  EXPECT_EQ(a.min(), b.min());
  EXPECT_EQ(a.max(), b.max());
  EXPECT_EQ(a.ci95_halfwidth(), b.ci95_halfwidth());
}

void expect_cells_identical(const std::vector<SweepCell>& a,
                            const std::vector<SweepCell>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE("cell " + std::to_string(i));
    EXPECT_EQ(a[i].kind, b[i].kind);
    EXPECT_EQ(a[i].lambda, b[i].lambda);
    EXPECT_EQ(a[i].attack_set, b[i].attack_set);
    expect_stats_identical(a[i].admission_probability,
                           b[i].admission_probability);
    expect_stats_identical(a[i].total_messages, b[i].total_messages);
    expect_stats_identical(a[i].messages_per_admitted,
                           b[i].messages_per_admitted);
    expect_stats_identical(a[i].migration_rate, b[i].migration_rate);
    expect_stats_identical(a[i].mean_occupancy, b[i].mean_occupancy);
    expect_stats_identical(a[i].evacuation_success, b[i].evacuation_success);
    EXPECT_EQ(a[i].summed.generated, b[i].summed.generated);
    EXPECT_EQ(a[i].summed.admitted_local, b[i].summed.admitted_local);
    EXPECT_EQ(a[i].summed.admitted_migrated, b[i].summed.admitted_migrated);
    EXPECT_EQ(a[i].summed.rejected, b[i].summed.rejected);
    EXPECT_EQ(a[i].summed.completed, b[i].summed.completed);
    EXPECT_EQ(a[i].summed.migration_attempts, b[i].summed.migration_attempts);
    EXPECT_EQ(a[i].summed.evacuation_candidates,
              b[i].summed.evacuation_candidates);
    EXPECT_EQ(a[i].summed.evacuated, b[i].summed.evacuated);
    EXPECT_EQ(a[i].summed.lost_to_attack, b[i].summed.lost_to_attack);
    const net::LedgerSnapshot la = a[i].summed.ledger.snapshot();
    const net::LedgerSnapshot lb = b[i].summed.ledger.snapshot();
    EXPECT_EQ(la.total_sends, lb.total_sends);
    EXPECT_EQ(la.total_cost, lb.total_cost);
    EXPECT_EQ(la.overhead_cost, lb.overhead_cost);
  }
}

/// The report surface the user actually sees, rendered to one string.
std::string render_tables(const std::vector<SweepCell>& cells) {
  std::ostringstream os;
  for (const Table& table : {fig5_admission_probability(cells),
                             fig6_message_overhead(cells),
                             fig7_cost_per_admitted(cells),
                             fig8_migration_rate(cells)}) {
    table.print(os);
    table.print_csv(os);
  }
  return os.str();
}

/// The plain grid plus an attack-parameter sweep over it: three single-wave
/// sets of growing severity, all sharing each (lambda, rep) workload.
SweepOptions attack_grid_options(unsigned jobs) {
  SweepOptions options = grid_options(jobs);
  AttackWave wave;
  wave.time = 45.0;
  wave.grace = 1.0;
  wave.outage = 8.0;
  for (const std::size_t victims :
       {std::size_t{2}, std::size_t{4}, std::size_t{6}}) {
    wave.count = victims;
    options.attack_sets.push_back({wave});
  }
  return options;
}

TEST(ParallelSweep, ParallelAggregatesByteIdenticalToSerial) {
  for (const bool attacks : {false, true}) {
    SCOPED_TRACE(attacks ? "attack sets" : "plain grid");
    const auto options = attacks ? attack_grid_options : grid_options;
    const auto serial = run_sweep(fast_base(), options(1));
    const auto parallel = run_sweep(fast_base(), options(4));
    expect_cells_identical(serial, parallel);
    EXPECT_EQ(render_tables(serial), render_tables(parallel));
    if (attacks) {
      ASSERT_EQ(serial.size(), 2u * 3u * 3u);
      // The waves must actually evacuate tasks, or the sets would not
      // diverge and the comparison would prove nothing about them.
      std::uint64_t evacuated = 0;
      for (const SweepCell& cell : serial) evacuated += cell.summed.evacuated;
      EXPECT_GT(evacuated, 0u);
    }
  }
}

TEST(ParallelSweep, DefaultJobsMatchesSerial) {
  const auto serial = run_sweep(fast_base(), grid_options(1));
  const auto hardware = run_sweep(fast_base(), grid_options(0));
  expect_cells_identical(serial, hardware);
}

TEST(ParallelSweep, OnRunFiresInSerialOrderUnderParallelism) {
  using Key = std::tuple<int, double, std::uint32_t>;
  const auto record_runs = [](unsigned jobs) {
    std::vector<Key> sequence;
    SweepOptions options = grid_options(jobs);
    options.on_run = [&sequence](const SweepCell& cell, std::uint32_t rep) {
      sequence.emplace_back(static_cast<int>(cell.kind), cell.lambda, rep);
    };
    run_sweep(fast_base(), options);
    return sequence;
  };
  const auto serial_seq = record_runs(1);
  const auto parallel_seq = record_runs(4);
  EXPECT_EQ(serial_seq.size(), 2u * 3u * 3u);
  EXPECT_EQ(serial_seq, parallel_seq);
}

/// Sink that records which run it belongs to; creation happens on worker
/// threads, so bookkeeping is mutex-guarded.
struct SinkLog {
  std::mutex mu;
  std::set<std::tuple<int, double, std::uint32_t>> runs;
  std::atomic<int> created{0};
};

class LoggingSink final : public obs::TraceSink {
 public:
  explicit LoggingSink(std::atomic<int>& events) : events_(events) {}
  void on_event(const obs::TraceEvent&) override { ++events_; }

 private:
  std::atomic<int>& events_;
};

TEST(ParallelSweep, TraceSinkFactoryCalledOncePerRun) {
  SinkLog log;
  std::atomic<int> events{0};
  SweepOptions options = grid_options(4);
  options.make_trace_sink =
      [&](const RunId& id) -> std::unique_ptr<obs::TraceSink> {
    const std::scoped_lock lock(log.mu);
    log.runs.emplace(static_cast<int>(id.kind), id.lambda, id.rep);
    ++log.created;
    return std::make_unique<LoggingSink>(events);
  };
  run_sweep(fast_base(), options);
  EXPECT_EQ(log.created.load(), 2 * 3 * 3);
  // Every (protocol, lambda, rep) combination got its own sink.
  EXPECT_EQ(log.runs.size(), 2u * 3u * 3u);
  EXPECT_GT(events.load(), 0);
}

/// Sink that renders every record to its JSONL line in arrival order —
/// the full byte-level trace of one run, episode ids, lineage ids and
/// causes included.
class RecordingSink final : public obs::TraceSink {
 public:
  void on_event(const obs::TraceEvent& event) override {
    text_ += obs::format_jsonl(event);
    text_ += '\n';
  }
  const std::string& text() const { return text_; }

 private:
  std::string text_;
};

TEST(ParallelSweep, EpisodeAndLineageIdsByteIdenticalAcrossJobs) {
  using Key = std::tuple<int, double, std::uint32_t>;
  // Each run writes into its own sink; the map is only read after
  // run_sweep returns, and distinct runs never share a sink, so the
  // worker threads touch disjoint entries.
  const auto record_traces = [](unsigned jobs) {
    std::map<Key, std::shared_ptr<RecordingSink>> sinks;
    std::mutex mu;
    SweepOptions options = grid_options(jobs);
    std::vector<std::shared_ptr<RecordingSink>> keep_alive;
    options.make_trace_sink =
        [&](const RunId& id) -> std::unique_ptr<obs::TraceSink> {
      auto sink = std::make_shared<RecordingSink>();
      {
        const std::scoped_lock lock(mu);
        sinks[Key{static_cast<int>(id.kind), id.lambda, id.rep}] = sink;
        keep_alive.push_back(sink);
      }
      // The sweep owns a forwarding wrapper; the shared_ptr keeps the
      // recorded text alive after the run's sink is destroyed.
      class Forward final : public obs::TraceSink {
       public:
        explicit Forward(std::shared_ptr<RecordingSink> to)
            : to_(std::move(to)) {}
        void on_event(const obs::TraceEvent& event) override {
          to_->on_event(event);
        }

       private:
        std::shared_ptr<RecordingSink> to_;
      };
      return std::make_unique<Forward>(std::move(sink));
    };
    run_sweep(fast_base(), options);
    std::map<Key, std::string> out;
    for (const auto& [key, sink] : sinks) out[key] = sink->text();
    return out;
  };

  const auto serial = record_traces(1);
  const auto parallel = record_traces(4);
  ASSERT_EQ(serial.size(), 2u * 3u * 3u);
  ASSERT_EQ(parallel.size(), serial.size());
  std::size_t with_lineage = 0;
  for (const auto& [key, text] : serial) {
    const auto it = parallel.find(key);
    ASSERT_NE(it, parallel.end());
    // Byte-identical JSONL per (protocol, lambda, rep): episode ids and
    // lineage id/cause fields must not depend on worker scheduling.
    EXPECT_EQ(text, it->second)
        << "protocol " << std::get<0>(key) << " lambda "
        << std::get<1>(key) << " rep " << std::get<2>(key);
    if (text.find("\"id\"") != std::string::npos &&
        text.find("\"cause\"") != std::string::npos) {
      ++with_lineage;
    }
  }
  // Underloaded cells never solicit help and carry no lineage; the
  // overloaded cells must, or the comparison above proves nothing.
  EXPECT_GT(with_lineage, 0u);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  std::vector<std::atomic<int>> hits(257);
  parallel_for(hits.size(), 4, [&](std::size_t i) { ++hits[i]; });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelFor, SerialWhenOneJob) {
  // jobs=1 must run inline on the calling thread, in index order.
  std::vector<std::size_t> order;
  parallel_for(5, 1, [&](std::size_t i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(ParallelFor, PropagatesFirstException) {
  EXPECT_THROW(
      parallel_for(64, 4,
                   [](std::size_t i) {
                     if (i == 13) throw std::runtime_error("boom");
                   }),
      std::runtime_error);
}

TEST(ResolveJobs, ExplicitValuesPassThrough) {
  EXPECT_EQ(resolve_jobs(1), 1u);
  EXPECT_EQ(resolve_jobs(7), 7u);
  EXPECT_GE(resolve_jobs(0), 1u);  // hardware default, always usable
}

}  // namespace
}  // namespace realtor::experiment
