// The four benchmark workloads, their timed jobs, the traced pass that
// fills the per-layer metrics, and the output checks.
//
// Every workload is a closed batch: one process, no arrival schedule, the
// next job starts when the previous one ends. The sweep and the sharded
// trace parse use kJobs threads (capped by the hardware); every other
// stage runs on one thread.
#include <algorithm>
#include <array>
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "experiment/figures.hpp"
#include "experiment/sweep.hpp"
#include "obs/critical_path.hpp"
#include "obs/event_store.hpp"
#include "obs/invariants.hpp"
#include "obs/jsonl_sink.hpp"
#include "obs/scorecard.hpp"
#include "obs/span.hpp"

namespace perfbench {

namespace {

// --- sizes -------------------------------------------------------------------

/// Worker count of the sweep and of the sharded trace parse.
constexpr unsigned kJobs = 4;
/// paper_grid: replications per (scheme, lambda) cell.
constexpr std::uint32_t kGridReps = 20;
/// scale_push: mesh side and simulated seconds (one advert round at t=1).
constexpr NodeId kScaleSide = 70;
constexpr double kScaleDuration = 1.02;
/// survive_exact / trace_analysis: mesh side and simulated seconds.
constexpr NodeId kSurviveSide = 30;
constexpr double kSurviveDuration = 10.0;
/// trace_analysis: trace generations per run (setup_s is their median).
constexpr int kTraceSetups = 5;
/// Simulation workloads: set-ups per run (setup_s is their median); the
/// repetitions' own set-ups count, extra ones are made after them.
constexpr std::size_t kSetupSamples = 50;
/// Records the counting sink keeps for the JSONL encoding probe.
constexpr std::size_t kKeptRecords = 50000;

unsigned jobs() {
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  return std::min(kJobs, hw);
}

constexpr net::MessageKind kKinds[] = {
    net::MessageKind::kHelp,        net::MessageKind::kPledge,
    net::MessageKind::kPushAdvert,  net::MessageKind::kGossip,
    net::MessageKind::kNegotiation, net::MessageKind::kMigration,
};

// --- scenario configs ----------------------------------------------------------

experiment::SweepOptions grid_options() {
  experiment::SweepOptions options = experiment::paper_sweep_options(
      {1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, kGridReps);
  options.jobs = jobs();
  return options;
}

experiment::ScenarioConfig scale_push_config(std::uint64_t seed) {
  experiment::ScenarioConfig c;
  c.topology.kind = experiment::TopologyKind::kMesh;
  c.topology.width = kScaleSide;
  c.topology.height = kScaleSide;
  const NodeId n = kScaleSide * kScaleSide;
  c.protocol_kind = proto::ProtocolKind::kPurePush;
  c.protocol.push_interval = 1.0;
  c.lambda = 0.5 * static_cast<double>(n);
  c.duration = kScaleDuration;
  c.seed = seed;
  c.fixed_unicast_cost = 4.0;
  // The scale-matrix cell's churn: two waves of N/50 kills, each restored
  // after a fifth of the run.
  for (const double at : {0.3, 0.6}) {
    experiment::AttackWave wave;
    wave.time = at * c.duration;
    wave.count = n / 50;
    wave.outage = 0.2 * c.duration;
    c.attacks.push_back(wave);
  }
  return c;
}

experiment::ScenarioConfig survive_config(std::uint64_t seed, bool exact) {
  experiment::ScenarioConfig c;
  c.topology.kind = experiment::TopologyKind::kMesh;
  c.topology.width = kSurviveSide;
  c.topology.height = kSurviveSide;
  const NodeId n = kSurviveSide * kSurviveSide;
  c.protocol_kind = proto::ProtocolKind::kRealtor;
  // Per-node load rho = lambda * mean_task_size / N = 1.
  c.lambda = static_cast<double>(n) / c.mean_task_size;
  c.queue_capacity = 20.0;
  c.duration = kSurviveDuration;
  c.seed = seed;
  c.fixed_unicast_cost.reset();
  if (exact) c.cost_mode = net::CostMode::kExactHops;
  experiment::AttackWave wave;
  wave.time = 0.5 * c.duration;
  wave.count = n / 50;
  wave.grace = 2.0;
  wave.outage = 0.25 * c.duration;
  c.attacks.push_back(wave);
  return c;
}

/// The run whose trace the obs layer writes and reads back in the traced
/// pass of each workload.
experiment::ScenarioConfig trace_config(Workload workload,
                                        std::uint64_t seed) {
  switch (workload) {
    case Workload::kPaperGrid: {
      experiment::ScenarioConfig c = paper_config(seed);
      c.protocol_kind = proto::ProtocolKind::kRealtor;
      const experiment::SweepOptions options = grid_options();
      // The grid's REALTOR lambda=10 rep=0 point.
      std::vector<experiment::ScenarioConfig> points =
          experiment::sweep_point_configs(c, options);
      const std::vector<experiment::RunId> ids =
          experiment::sweep_run_ids(options);
      for (std::size_t i = 0; i < ids.size(); ++i) {
        if (ids[i].kind == proto::ProtocolKind::kRealtor &&
            ids[i].lambda == 10.0 && ids[i].rep == 0) {
          return points[i];
        }
      }
      return c;
    }
    case Workload::kScalePush:
      return scale_push_config(seed);
    case Workload::kSurviveExact:
    case Workload::kTraceAnalysis:
      // Averaged unicast costs: the same trace as the exact-cost run
      // without its shortest-path work.
      return survive_config(seed, /*exact=*/false);
  }
  return paper_config(seed);
}

/// Liveness changes of `config` strictly inside the run, ascending.
std::vector<realtor::SimTime> liveness_changes(
    const experiment::ScenarioConfig& config) {
  std::vector<realtor::SimTime> times;
  for (const experiment::AttackWave& wave : config.attacks) {
    const realtor::SimTime kill = wave.time + wave.grace;
    times.push_back(kill);
    if (wave.outage > 0.0) times.push_back(kill + wave.outage);
  }
  std::erase_if(times, [&](realtor::SimTime t) {
    return t <= 0.0 || t >= config.duration;
  });
  std::sort(times.begin(), times.end());
  times.erase(std::unique(times.begin(), times.end()), times.end());
  return times;
}

// --- counters --------------------------------------------------------------------

/// The integer counters run_sweep sums per cell, plus per-kind sends.
struct Counters {
  static constexpr std::size_t kFields = 11 + std::size(kKinds);
  std::array<std::uint64_t, kFields> v{};
};

Counters counters_of(const experiment::RunMetrics& m) {
  Counters c;
  c.v = {m.generated,          m.admitted_local,
         m.admitted_migrated,  m.rejected,
         m.arrivals_at_dead_nodes, m.completed,
         m.evacuation_candidates, m.evacuated,
         m.lost_to_attack,     m.migration_attempts,
         m.migration_aborts};
  for (std::size_t k = 0; k < std::size(kKinds); ++k) {
    c.v[11 + k] = m.ledger.sends(kKinds[k]);
  }
  return c;
}

Counters minus(const Counters& a, const Counters& b) {
  Counters d;
  for (std::size_t i = 0; i < Counters::kFields; ++i) d.v[i] = a.v[i] - b.v[i];
  return d;
}

std::string format_counters(const Counters& c) {
  static constexpr const char* kNames[] = {
      "gen", "local", "migr", "rej", "dead", "comp", "evac_cand", "evac",
      "lost", "attempts", "aborts", "help", "pledge", "advert", "gossip",
      "negot", "move"};
  static_assert(std::size(kNames) == Counters::kFields);
  std::ostringstream os;
  for (std::size_t i = 0; i < Counters::kFields; ++i) {
    os << (i > 0 ? ";" : "") << kNames[i] << '=' << c.v[i];
  }
  return os.str();
}

/// Deliveries implied by cumulative sends when every node stays alive.
std::uint64_t kill_free_deliveries(const experiment::RunMetrics& m,
                                   NodeId nodes) {
  const std::uint64_t floods = m.ledger.sends(net::MessageKind::kHelp) +
                               m.ledger.sends(net::MessageKind::kPushAdvert);
  return floods * (nodes - 1) + m.ledger.sends(net::MessageKind::kPledge);
}

// --- the paper grid --------------------------------------------------------------

struct GridResult {
  Cost cost;
  std::uint64_t deliveries = 0;
  std::uint64_t runs = 0;
  std::string tables;
  std::vector<std::string> run_lines;  // "<label> <counters>" per run
};

GridResult run_grid(std::uint64_t seed) {
  const experiment::ScenarioConfig base = paper_config(seed);
  experiment::SweepOptions options = grid_options();
  const std::vector<experiment::RunId> ids = experiment::sweep_run_ids(options);
  GridResult result;
  Counters previous;
  // on_run fires in serial grid order with the cell's running sums; the
  // difference from the previous call is one run's counters.
  options.on_run = [&](const experiment::SweepCell& cell, std::uint32_t rep) {
    if (rep == 0) previous = Counters{};
    const Counters now = counters_of(cell.summed);
    const std::size_t index = result.run_lines.size();
    result.run_lines.push_back(experiment::run_label(ids.at(index)) + ' ' +
                               format_counters(minus(now, previous)));
    previous = now;
  };
  const Usage before = usage_now();
  const std::vector<experiment::SweepCell> cells =
      experiment::run_sweep(base, options);
  result.cost = cost_between(before, usage_now());

  std::ostringstream tables;
  const std::pair<const char*, realtor::Table> figures[] = {
      {"fig5 admission probability", experiment::fig5_admission_probability(cells)},
      {"fig6 message overhead", experiment::fig6_message_overhead(cells)},
      {"fig7 cost per admitted task", experiment::fig7_cost_per_admitted(cells)},
      {"fig8 migration rate", experiment::fig8_migration_rate(cells)},
  };
  for (const auto& [title, table] : figures) {
    tables << "== " << title << '\n';
    table.print(tables);
  }
  result.tables = tables.str();
  experiment::RunMetrics total;
  for (const experiment::SweepCell& cell : cells) {
    total.ledger.merge(cell.summed.ledger);
  }
  result.deliveries =
      kill_free_deliveries(total, base.topology.node_count());
  result.runs = ids.size();
  return result;
}

std::string runs_fingerprint(const std::vector<std::string>& run_lines) {
  std::string out;
  for (const std::string& line : run_lines) out += line + '\n';
  return out;
}

/// Set-up of every grid point (constructor + begin_run), serially.
double grid_setup_seconds(std::uint64_t seed) {
  const std::vector<experiment::ScenarioConfig> points =
      experiment::sweep_point_configs(paper_config(seed), grid_options());
  double total = 0.0;
  for (const experiment::ScenarioConfig& point : points) {
    const Clock::time_point start = Clock::now();
    experiment::Simulation simulation(point);
    simulation.begin_run();
    total += seconds_since(start);
  }
  return total;
}

// --- trace analysis ----------------------------------------------------------------

struct Analysis {
  Cost cost;
  double ingest_s = 0.0;
  double scorecard_s = 0.0;
  double invariants_s = 0.0;
  double critical_path_s = 0.0;
  std::uint64_t bytes = 0;
  std::size_t violations = 0;
  std::size_t path_failures = 0;
  std::string fingerprint;
};

/// What `realtor_trace --scorecard --check --critical-path` computes:
/// ingest, scorecard, invariant catalog, critical paths. Stage spans are
/// recorded only when `spans` is set.
Analysis analyze_trace(const std::string& path, bool spans) {
  Analysis a;
  const Usage before = usage_now();
  Clock::time_point mark = Clock::now();
  const auto lap = [&](double& into) {
    if (!spans) return;
    into = seconds_since(mark);
    mark = Clock::now();
  };

  obs::EventStore store;
  obs::IngestStats stats;
  std::string error;
  if (!obs::load_trace_store(path, store, stats, &error, jobs())) {
    throw std::runtime_error("cannot load trace " + path + ": " + error);
  }
  lap(a.ingest_s);
  const std::string scorecard =
      obs::render_scorecard_json(obs::build_scorecard(store));
  lap(a.scorecard_s);
  const std::vector<obs::SpanEvent> events = obs::normalize_events(store);
  const std::vector<obs::Violation> violations = obs::check_invariants(events);
  lap(a.invariants_s);
  const obs::CriticalPathAnalysis paths = obs::analyze_critical_paths(events);
  const std::string table = obs::render_critical_path(paths);
  const std::vector<std::string> path_failures =
      obs::check_critical_paths(paths);
  lap(a.critical_path_s);
  a.cost = cost_between(before, usage_now());

  std::ostringstream os;
  os << "== scorecard\n" << scorecard << "== violations " << violations.size()
     << '\n';
  for (const obs::Violation& v : violations) {
    os << v.invariant << " t=" << std::setprecision(17) << v.time
       << " node=" << v.node << ' ' << v.detail << '\n';
  }
  os << "== malformed " << stats.malformed << '\n'
     << "== critical paths\n" << table << "== path check "
     << path_failures.size() << '\n';
  for (const std::string& f : path_failures) os << f << '\n';
  a.fingerprint = os.str();
  a.bytes = stats.bytes;
  a.violations = violations.size();
  a.path_failures = path_failures.size();
  return a;
}

/// Writes the JSONL trace of `config` to `path`; returns the run.
SimRun write_trace(const experiment::ScenarioConfig& config,
                   const std::string& path) {
  obs::JsonlSink sink(path, 4096);
  if (!sink.ok()) throw std::runtime_error("cannot write trace " + path);
  return run_simulation(config, [&](experiment::Simulation& s) {
    s.set_trace_sink(&sink);
  });
}

// --- output check -------------------------------------------------------------------

/// Collects the run's operation count, failures and notes.
class Checker {
 public:
  Checker(RunReport& report, const RunOptions& options)
      : report_(report), options_(options) {}

  /// One operation (a simulation run or an analysis) and whether its
  /// output passed.
  void op(bool ok, std::uint64_t count = 1) {
    report_.attempted += count;
    if (!ok) report_.failed += count;
  }

  void expect(bool ok, const std::string& what) {
    if (!ok) {
      report_.correct = false;
      report_.notes.push_back("CHECK FAILED: " + what);
    }
  }

  /// Prints a fingerprint's digest, so two commits can be compared at
  /// any seed, and compares the fingerprint with the checked-in reference
  /// at the reference seed (or writes it there under write_reference).
  bool reference(const std::string& part, const std::string& fingerprint) {
    report_.notes.push_back("fingerprint " + part + " " + digest(fingerprint));
    const std::string path = options_.reference_dir + "/" +
                             workload_name(options_.workload) + "." + part +
                             ".txt";
    if (options_.write_reference) {
      std::ofstream(path) << fingerprint;
      return true;
    }
    if (options_.seed != kReferenceSeed) return true;
    std::string why;
    const bool ok = matches_reference(path, fingerprint, why);
    expect(ok, "reference " + part + ": " + why);
    return ok;
  }

  void note(const std::string& line) { report_.notes.push_back(line); }

 private:
  RunReport& report_;
  const RunOptions& options_;
};

std::string format_value(double value) {
  std::ostringstream os;
  os << std::setprecision(17) << value;
  return os.str();
}

// --- tracing-off runs ----------------------------------------------------------------

/// One timed job and what it produced.
struct Sample {
  double setup_s = 0.0;
  Cost cost;
  std::uint64_t deliveries = 0;
  std::uint64_t ops = 1;
  std::vector<std::pair<std::string, std::string>> fingerprints;  // part, text
  /// The job's own consistency checks passed (trace_analysis: identical
  /// trace generations, no invariant violations, sound critical paths).
  bool consistent = true;
  double trace_mb = 0.0;  // trace_analysis: MB analysed
};

class Job {
 public:
  virtual ~Job() = default;
  virtual Sample once() = 0;
  /// One set-up without the job behind it, in seconds.
  virtual double setup_once() = 0;
  /// Set-ups a run makes in total (setup_s is their median).
  virtual std::size_t setup_samples() const { return kSetupSamples; }
};

class GridJob final : public Job {
 public:
  explicit GridJob(std::uint64_t seed) : seed_(seed) {}
  Sample once() override {
    Sample s;
    s.setup_s = grid_setup_seconds(seed_);
    GridResult g = run_grid(seed_);
    s.cost = g.cost;
    s.deliveries = g.deliveries;
    s.ops = g.runs;
    s.fingerprints = {{"tables", g.tables},
                      {"runs", runs_fingerprint(g.run_lines)}};
    return s;
  }
  double setup_once() override { return grid_setup_seconds(seed_); }

 private:
  std::uint64_t seed_;
};

class SimJob final : public Job {
 public:
  explicit SimJob(experiment::ScenarioConfig config)
      : config_(std::move(config)) {}
  Sample once() override {
    SimRun run = run_simulation(config_);
    Sample s;
    s.setup_s = run.setup_s;
    s.cost = run.cost;
    s.deliveries = run.deliveries;
    s.fingerprints = {{"run", run.fingerprint}};
    return s;
  }
  double setup_once() override {
    const Clock::time_point start = Clock::now();
    experiment::Simulation simulation(config_);
    simulation.begin_run();
    return seconds_since(start);
  }

 private:
  experiment::ScenarioConfig config_;
};

/// Analyses the trace its set-up writes; every set-up is a full
/// generation run and must write the same run.
class AnalysisJob final : public Job {
 public:
  AnalysisJob(experiment::ScenarioConfig config, std::string path)
      : config_(std::move(config)), path_(std::move(path)) {}
  Sample once() override {
    const Analysis a = analyze_trace(path_, /*spans=*/false);
    Sample s;
    s.cost = a.cost;
    s.deliveries = deliveries_;
    s.trace_mb = static_cast<double>(a.bytes) / 1e6;
    s.fingerprints = {{"run", generation_}, {"analysis", a.fingerprint}};
    s.consistent = generations_agree_ && a.violations == 0 &&
                   a.path_failures == 0;
    return s;
  }
  double setup_once() override {
    const Clock::time_point start = Clock::now();
    const SimRun run = write_trace(config_, path_);
    const double seconds = seconds_since(start);
    if (generation_.empty()) {
      generation_ = run.fingerprint;
      deliveries_ = run.deliveries;
    }
    generations_agree_ = generations_agree_ && run.fingerprint == generation_;
    return seconds;
  }
  std::size_t setup_samples() const override { return kTraceSetups; }

 private:
  experiment::ScenarioConfig config_;
  std::string path_;
  std::string generation_;  // run fingerprint of the first generation
  std::uint64_t deliveries_ = 0;
  bool generations_agree_ = true;
};

std::string trace_path(const RunOptions& options) {
  return options.work_dir + "/" + workload_name(options.workload) + ".jsonl";
}

RunReport run_untraced(const RunOptions& options) {
  RunReport report;
  report.metrics = std::make_unique<MetricSet>(end_to_end_catalog());
  Checker check(report, options);

  std::unique_ptr<Job> job;
  switch (options.workload) {
    case Workload::kPaperGrid:
      job = std::make_unique<GridJob>(options.seed);
      break;
    case Workload::kScalePush:
      job = std::make_unique<SimJob>(scale_push_config(options.seed));
      break;
    case Workload::kSurviveExact:
      job = std::make_unique<SimJob>(survive_config(options.seed, true));
      break;
    case Workload::kTraceAnalysis:
      job = std::make_unique<AnalysisJob>(
          trace_config(options.workload, options.seed), trace_path(options));
      break;
  }

  // trace_analysis reads what its set-ups write, so they come first; the
  // simulation jobs time their own set-up in every repetition.
  const bool setup_first = options.workload == Workload::kTraceAnalysis;
  std::vector<double> setups;
  while (setup_first && setups.size() < job->setup_samples()) {
    setups.push_back(job->setup_once());
  }
  std::vector<Sample> samples;
  const Clock::time_point start = Clock::now();
  do {
    samples.push_back(job->once());
    if (!setup_first) setups.push_back(samples.back().setup_s);
  } while (seconds_since(start) < options.seconds);
  while (setups.size() < job->setup_samples()) {
    setups.push_back(job->setup_once());
  }

  // Output check: every repetition must reproduce the first, and the
  // first must match the reference at the reference seed.
  const Sample& first = samples.front();
  bool reference_ok = true;
  for (const auto& [part, text] : first.fingerprints) {
    reference_ok = check.reference(part, text) && reference_ok;
  }
  for (const Sample& s : samples) {
    const bool same = s.fingerprints == first.fingerprints;
    check.op(same && reference_ok && s.consistent, s.ops);
    check.expect(same, "a repetition changed the output");
    check.expect(s.consistent, "a set-up or analysis self-check failed");
  }

  std::vector<double> wall, cpu, rate, trace_rate;
  for (const Sample& s : samples) {
    wall.push_back(s.cost.wall_s);
    cpu.push_back(s.cost.cpu_s);
    rate.push_back(static_cast<double>(s.deliveries) / s.cost.wall_s);
    trace_rate.push_back(s.trace_mb / s.cost.wall_s);
  }
  MetricSet& m = *report.metrics;
  m.set("wall_s", median(wall));
  m.set("setup_s", median(setups));
  m.set("cpu_s", median(cpu));
  m.set("peak_rss_mb", peak_rss_mb());
  // Allocator state carried between repetitions decides how many pages a
  // later one faults in; the first repetition pays what a fresh process
  // pays.
  m.set("minflt", first.cost.minflt);
  m.set("deliveries_per_s", median(rate));
  check.note("repetitions = " + std::to_string(samples.size()) +
             ", set-ups = " + std::to_string(setups.size()));
  std::string walls = "repetition wall_s:";
  for (const double w : wall) walls += " " + format_value(w).substr(0, 6);
  check.note(walls);
  if (options.workload == Workload::kTraceAnalysis) {
    check.note("trace_mb_per_s = " + format_value(median(trace_rate)) +
               " MB/s");
  }
  return report;
}

// --- traced runs ----------------------------------------------------------------------

/// Copies the counting sink's tallies into the layer metrics.
void add_sink_counts(MetricSet& m, const CountingSink& sink) {
  m.add("obs.records", static_cast<double>(sink.records()));
  m.add("admission.no_candidate", static_cast<double>(sink.no_candidate()));
  for (const MetricDef& def : layer_catalog()) {
    const std::string name = def.name;
    const std::string prefix = "obs.records.";
    if (name.rfind(prefix, 0) != 0) continue;
    obs::EventKind kind;
    if (obs::parse_event_kind(name.substr(prefix.size()), kind)) {
      m.add(name, static_cast<double>(sink.count(kind)));
    }
  }
}

/// Layer counters of one finished run.
void add_run_counts(MetricSet& m, const SimRun& run,
                    experiment::Simulation& simulation) {
  const experiment::RunMetrics& r = run.metrics;
  m.add("experiment.floods",
        static_cast<double>(simulation.transport().payload_allocations()));
  m.add("experiment.deliveries", static_cast<double>(run.deliveries));
  m.add("experiment.unreachable_drops",
        static_cast<double>(simulation.transport().dropped_unreachable()));
  m.add("sim.events",
        static_cast<double>(simulation.engine().events_processed()));
  m.add("node.admitted_local", static_cast<double>(r.admitted_local));
  m.add("node.completed", static_cast<double>(r.completed));
  m.add("node.rejected", static_cast<double>(r.rejected));
  m.add("proto.help_sends",
        static_cast<double>(r.ledger.sends(net::MessageKind::kHelp)));
  m.add("proto.pledge_sends",
        static_cast<double>(r.ledger.sends(net::MessageKind::kPledge)));
  m.add("proto.advert_sends",
        static_cast<double>(r.ledger.sends(net::MessageKind::kPushAdvert)));
  const realtor::SimTime end = simulation.config().duration;
  for (NodeId id = 0; id < simulation.topology().num_nodes(); ++id) {
    m.add("proto.table_entries",
          static_cast<double>(simulation.protocol(id).probe(end).table_size));
  }
  if (simulation.config().cost_mode == net::CostMode::kExactHops) {
    // Every unicast charge looks up a hop distance: PLEDGE sends, one
    // negotiation per attempt and one transfer per migration.
    m.add("net.hop_queries",
          static_cast<double>(r.ledger.sends(net::MessageKind::kPledge) +
                              r.ledger.sends(net::MessageKind::kNegotiation) +
                              r.ledger.sends(net::MessageKind::kMigration)));
  }
  m.add("admission.attempts", static_cast<double>(r.migration_attempts));
  m.add("admission.aborts", static_cast<double>(r.migration_aborts));
  m.add("admission.migrations",
        static_cast<double>(r.ledger.sends(net::MessageKind::kMigration)));
  m.add("admission.evacuated", static_cast<double>(r.evacuated));
  m.add("admission.lost", static_cast<double>(r.lost_to_attack));
}

/// Cross-checks a traced run against its own counters: per-kind send
/// records equal the ledger's sends, and the deliveries the sink
/// reconstructs equal the phase-counted ones.
void check_sink(Checker& check, const CountingSink& sink, const SimRun& run,
                const std::string& what) {
  const auto& ledger = run.metrics.ledger;
  const bool sends_ok =
      sink.count(obs::EventKind::kHelpSent) ==
          ledger.sends(net::MessageKind::kHelp) &&
      sink.count(obs::EventKind::kPledgeSent) ==
          ledger.sends(net::MessageKind::kPledge) &&
      sink.count(obs::EventKind::kAdvertSent) ==
          ledger.sends(net::MessageKind::kPushAdvert);
  check.expect(sends_ok, what + ": send records differ from ledger sends");
  check.expect(sink.deliveries() == run.deliveries,
               what + ": sink deliveries " + std::to_string(sink.deliveries()) +
                   " != counted " + std::to_string(run.deliveries));
}

/// Runs `config` with the counting sink attached and a per-event engine
/// observer tracking the pending depth.
struct TracedRun {
  SimRun run;
  std::unique_ptr<CountingSink> sink;
  std::unique_ptr<experiment::Simulation> simulation;
  std::size_t peak_pending = 0;
};

TracedRun run_traced(const experiment::ScenarioConfig& config,
                     std::size_t keep_records) {
  TracedRun t;
  t.sink = std::make_unique<CountingSink>(config.topology.node_count(),
                                          nullptr, keep_records);
  // Shared with the observer, which the kept simulation still holds.
  auto peak = std::make_shared<std::size_t>(0);
  t.run = run_simulation(
      config,
      [&](experiment::Simulation& s) {
        s.set_trace_sink(t.sink.get());
        s.engine().set_observer(
            1, [peak](realtor::SimTime, std::uint64_t, std::size_t pending) {
              *peak = std::max(*peak, pending);
            });
      },
      &t.simulation);
  t.peak_pending = *peak;
  return t;
}

/// The obs pass: the workload's trace run untraced and into JSONL
/// (their difference is obs.write_s), then the analysis of that trace
/// with stage spans.
void obs_pass(MetricSet& m, Checker& check, const RunOptions& options) {
  const experiment::ScenarioConfig config =
      trace_config(options.workload, options.seed);
  const std::string path = trace_path(options);
  // ABBA order: the first of two back-to-back runs is measurably slower.
  double plain_s = 0.0;
  double written_s = 0.0;
  std::string fingerprint;
  for (const bool write : {false, true, true, false}) {
    const Clock::time_point start = Clock::now();
    const SimRun run =
        write ? write_trace(config, path) : run_simulation(config);
    (write ? written_s : plain_s) += seconds_since(start);
    if (fingerprint.empty()) fingerprint = run.fingerprint;
    check.expect(run.fingerprint == fingerprint,
                 "writing the trace changed the run");
  }
  m.set("obs.write_s", 0.5 * (written_s - plain_s));

  const Analysis a = analyze_trace(path, /*spans=*/true);
  m.set("obs.ingest_s", a.ingest_s);
  m.set("obs.scorecard_s", a.scorecard_s);
  m.set("obs.invariants_s", a.invariants_s);
  m.set("obs.critical_path_s", a.critical_path_s);
  m.set("obs.ingest_mb_per_s", static_cast<double>(a.bytes) / 1e6 / a.ingest_s);
  check.expect(a.violations == 0 && a.path_failures == 0,
               "trace analysis found violations");
}

/// Probes shaped like the workload: engine at its peak pending depth,
/// shortest paths and flood fan-out on its topology, candidate queries
/// on its finished simulation, JSONL encoding of its records.
void probes(MetricSet& m, const experiment::ScenarioConfig& config,
            experiment::Simulation& finished, const CountingSink& sink,
            std::size_t peak_pending, std::uint64_t seed) {
  m.set("sim.schedule_fire_ns", probe_schedule_fire_ns(peak_pending, seed));
  m.set("sim.cancel_ns", probe_cancel_ns(peak_pending, seed));
  m.set("net.hops_cold_ns", probe_hops_cold_ns(config.topology));
  m.set("net.hops_warm_ns", probe_hops_warm_ns(config.topology, seed));
  m.set("experiment.flood_ns_per_delivery",
        probe_flood_ns_per_delivery(config.topology));
  m.set("proto.candidates_us", probe_candidates_us(finished));
  m.set("obs.jsonl_ns_per_record", probe_jsonl_ns(sink.kept()));
  m.set("net.est_s",
        m.get("net.hop_queries") * m.get("net.hops_cold_ns") * 1e-9);
}

void finish_layers(MetricSet& m, const std::vector<double>& run_seconds,
                   std::size_t peak_pending) {
  m.set("experiment.run_p50_ms", 1e3 * median(run_seconds));
  m.set("experiment.run_max_ms",
        1e3 * *std::max_element(run_seconds.begin(), run_seconds.end()));
  m.set("sim.peak_pending", static_cast<double>(peak_pending));
  const double run_s = m.get("experiment.run_s");
  m.set("sim.events_per_s", m.get("sim.events") / run_s);
  const double attempts = m.get("admission.attempts");
  m.set("admission.success_ratio",
        attempts > 0 ? m.get("admission.migrations") / attempts : 0.0);
}

RunReport traced_grid(const RunOptions& options) {
  RunReport report;
  report.metrics = std::make_unique<MetricSet>(layer_catalog());
  MetricSet& m = *report.metrics;
  Checker check(report, options);

  // Untraced references: the parallel sweep (parallel efficiency, the
  // reference fingerprint) and the same points run one by one.
  const GridResult grid = run_grid(options.seed);
  check.reference("tables", grid.tables);
  check.op(check.reference("runs", runs_fingerprint(grid.run_lines)),
           grid.runs);
  m.set("experiment.parallel_eff",
        grid.cost.cpu_s / (jobs() * grid.cost.wall_s));

  const experiment::ScenarioConfig base = paper_config(options.seed);
  const experiment::SweepOptions sweep = grid_options();
  const std::vector<experiment::ScenarioConfig> points =
      experiment::sweep_point_configs(base, sweep);
  const std::vector<experiment::RunId> ids = experiment::sweep_run_ids(sweep);
  double untraced_s = 0.0;
  for (const experiment::ScenarioConfig& point : points) {
    const SimRun run = run_simulation(point);
    untraced_s += run.setup_s + run.cost.wall_s;
  }

  // Traced pass: one span per run. The probes run on the last Push-1
  // point at the highest lambda, where the push table is fullest.
  std::vector<double> run_seconds;
  std::vector<std::string> traced_lines;
  std::size_t peak_pending = 0;
  TracedRun probe_run;
  double traced_s = 0.0;
  for (std::size_t i = 0; i < points.size(); ++i) {
    const bool probe_point = ids[i].kind == proto::ProtocolKind::kPurePush &&
                             ids[i].lambda == 10.0 &&
                             ids[i].rep + 1 == sweep.replications;
    TracedRun t = run_traced(points[i], probe_point ? kKeptRecords : 0);
    traced_s += t.run.setup_s + t.run.cost.wall_s;
    m.add("experiment.setup_s", t.run.setup_s);
    m.add("experiment.run_s", t.run.cost.wall_s);
    run_seconds.push_back(t.run.cost.wall_s);
    peak_pending = std::max(peak_pending, t.peak_pending);
    add_run_counts(m, t.run, *t.simulation);
    add_sink_counts(m, *t.sink);
    check_sink(check, *t.sink, t.run, experiment::run_label(ids[i]));
    traced_lines.push_back(experiment::run_label(ids[i]) + ' ' +
                           counters_fingerprint(t.run.metrics));
    if (probe_point) probe_run = std::move(t);
  }
  const bool same = traced_lines == grid.run_lines;
  check.op(same, points.size());
  check.expect(same, "traced runs differ from the untraced sweep");
  m.set("trace_overhead", traced_s / untraced_s - 1.0);
  finish_layers(m, run_seconds, peak_pending);
  probes(m, base, *probe_run.simulation, *probe_run.sink, peak_pending,
         options.seed);
  obs_pass(m, check, options);
  return report;
}

RunReport traced_single(const RunOptions& options) {
  RunReport report;
  report.metrics = std::make_unique<MetricSet>(layer_catalog());
  MetricSet& m = *report.metrics;
  Checker check(report, options);

  const bool analysis = options.workload == Workload::kTraceAnalysis;
  const experiment::ScenarioConfig config =
      options.workload == Workload::kScalePush
          ? scale_push_config(options.seed)
          : survive_config(options.seed, /*exact=*/!analysis);

  const SimRun untraced = run_simulation(config);
  check.op(check.reference("run", untraced.fingerprint));
  TracedRun t = run_traced(config, kKeptRecords);
  const bool same = t.run.fingerprint == untraced.fingerprint;
  check.op(same);
  check.expect(same, "the traced run differs from the untraced run");
  check_sink(check, *t.sink, t.run, "traced run");

  m.set("experiment.setup_s", t.run.setup_s);
  m.set("experiment.run_s", t.run.cost.wall_s);
  add_run_counts(m, t.run, *t.simulation);
  add_sink_counts(m, *t.sink);
  finish_layers(m, {t.run.cost.wall_s}, t.peak_pending);
  probes(m, config, *t.simulation, *t.sink, t.peak_pending, options.seed);

  if (analysis) {
    // The timed job is the analysis: traced (stage spans) against
    // untraced, on the trace the obs pass writes.
    obs_pass(m, check, options);
    // Spans cost four clock reads. The first analysis of a back-to-back
    // pair runs measurably slower, so the order alternates (ABBA) and
    // medians are compared.
    std::vector<double> plain_s, spanned_s, eff;
    for (int pair = 0; pair < 4; ++pair) {
      const bool spanned_first = pair % 2 == 1;
      const Analysis first = analyze_trace(trace_path(options), spanned_first);
      const Analysis second =
          analyze_trace(trace_path(options), !spanned_first);
      const Analysis& plain = spanned_first ? second : first;
      const Analysis& spanned = spanned_first ? first : second;
      if (pair == 0) check.op(check.reference("analysis", plain.fingerprint));
      check.expect(spanned.fingerprint == plain.fingerprint,
                   "spans changed the analysis");
      plain_s.push_back(plain.cost.wall_s);
      spanned_s.push_back(spanned.cost.wall_s);
      eff.push_back(plain.cost.cpu_s / (jobs() * plain.cost.wall_s));
    }
    m.set("experiment.parallel_eff", median(eff));
    m.set("trace_overhead", median(spanned_s) / median(plain_s) - 1.0);
  } else {
    m.set("experiment.parallel_eff",
          untraced.cost.cpu_s / untraced.cost.wall_s);
    m.set("trace_overhead",
          (t.run.setup_s + t.run.cost.wall_s) /
                  (untraced.setup_s + untraced.cost.wall_s) -
              1.0);
    t.simulation.reset();
    obs_pass(m, check, options);
  }
  return report;
}

}  // namespace

// --- exported ------------------------------------------------------------------------

bool parse_workload(const std::string& name, Workload& out) {
  for (const Workload w : {Workload::kPaperGrid, Workload::kScalePush,
                           Workload::kSurviveExact, Workload::kTraceAnalysis}) {
    if (name == workload_name(w)) {
      out = w;
      return true;
    }
  }
  return false;
}

const char* workload_name(Workload workload) {
  switch (workload) {
    case Workload::kPaperGrid:
      return "paper_grid";
    case Workload::kScalePush:
      return "scale_push";
    case Workload::kSurviveExact:
      return "survive_exact";
    case Workload::kTraceAnalysis:
      return "trace_analysis";
  }
  return "?";
}

experiment::ScenarioConfig paper_config(std::uint64_t seed) {
  experiment::ScenarioConfig c;  // defaults are the paper's §5 set-up
  c.duration = 600.0;
  c.seed = seed;
  return c;
}

std::string counters_fingerprint(const experiment::RunMetrics& m) {
  return format_counters(counters_of(m));
}

std::string run_fingerprint(const experiment::RunMetrics& m) {
  std::ostringstream os;
  os << counters_fingerprint(m) << std::setprecision(17)
     << ";cost=" << m.ledger.total_cost()
     << ";overhead=" << m.ledger.overhead_cost() << '\n';
  return os.str();
}

SimRun run_simulation(const experiment::ScenarioConfig& config,
                      const SimHook& before_begin,
                      std::unique_ptr<experiment::Simulation>* keep) {
  SimRun out;
  const Clock::time_point start = Clock::now();
  auto simulation = std::make_unique<experiment::Simulation>(config);
  if (before_begin) before_begin(*simulation);
  simulation->begin_run();
  out.setup_s = seconds_since(start);

  // Within a phase the alive population is constant, and a zero-delay
  // flood is delivered in the phase it was sent, so it reaches that
  // phase's alive nodes except its origin.
  const experiment::SimTransport& transport = simulation->transport();
  const auto close_phase = [&] {
    const std::uint64_t floods = transport.payload_allocations();
    const std::size_t alive = simulation->topology().alive_count();
    out.deliveries += (floods - out.floods) * (alive > 0 ? alive - 1 : 0);
    out.floods = floods;
  };
  const Usage before = usage_now();
  for (const realtor::SimTime t : liveness_changes(config)) {
    simulation->run_prefix(t);
    close_phase();
  }
  out.metrics = simulation->finish_run();
  close_phase();
  out.cost = cost_between(before, usage_now());

  out.deliveries += out.metrics.ledger.sends(net::MessageKind::kPledge);
  out.fingerprint = run_fingerprint(out.metrics);
  if (keep != nullptr) *keep = std::move(simulation);
  return out;
}

bool matches_reference(const std::string& path, const std::string& fingerprint,
                       std::string& why) {
  std::ifstream in(path);
  if (!in) {
    why = "missing " + path;
    return false;
  }
  std::ostringstream text;
  text << in.rdbuf();
  const std::string expected = text.str();
  if (expected == fingerprint) return true;
  std::istringstream a(expected), b(fingerprint);
  std::string la, lb;
  for (std::size_t line = 1;; ++line) {
    const bool ga = static_cast<bool>(std::getline(a, la));
    const bool gb = static_cast<bool>(std::getline(b, lb));
    if (!ga && !gb) break;
    if (!ga || !gb || la != lb) {
      why = path + " line " + std::to_string(line) + ": expected '" +
            (ga ? la : "<end>") + "', got '" + (gb ? lb : "<end>") + "'";
      return false;
    }
  }
  why = path + ": differs";
  return false;
}

RunReport run_workload(const RunOptions& options) {
  RunReport report = !options.trace ? run_untraced(options)
                     : options.workload == Workload::kPaperGrid
                         ? traced_grid(options)
                         : traced_single(options);
  std::remove(trace_path(options).c_str());
  return report;
}

}  // namespace perfbench
