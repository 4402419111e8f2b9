// Replicated parameter sweeps with common random numbers.
//
// The paper overlays five protocol curves at identical arrival rates; the
// sweep gives each (lambda, replication) cell one workload seed shared by
// every protocol, so curve differences are protocol differences.
//
// Execution model: every (protocol, lambda, attack set, replication) run
// is an independent simulation with a seed derived from (base seed,
// lambda, rep) alone, so the grid fans out across `jobs` worker threads
// and the per-run metrics are merged back in the fixed serial order
// (protocol-major, lambda, attack set, then replication). Aggregates,
// confidence intervals and report tables are byte-identical for every
// jobs value — parallelism changes wall-clock time only.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "experiment/metrics.hpp"
#include "experiment/scenario.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/trace.hpp"

namespace realtor::experiment {

/// Identity of one sweep run in the grid. attack_set indexes
/// SweepOptions::attack_sets (always 0 when no sets are configured).
struct RunId {
  proto::ProtocolKind kind = proto::ProtocolKind::kRealtor;
  double lambda = 0.0;
  std::size_t attack_set = 0;
  std::uint32_t rep = 0;
};

/// Aggregated results of one (protocol, lambda, attack set) cell across
/// replications.
struct SweepCell {
  proto::ProtocolKind kind = proto::ProtocolKind::kRealtor;
  double lambda = 0.0;
  std::size_t attack_set = 0;
  OnlineStats admission_probability;
  OnlineStats total_messages;
  OnlineStats messages_per_admitted;
  OnlineStats migration_rate;
  OnlineStats mean_occupancy;
  OnlineStats evacuation_success;
  RunMetrics summed;  // raw counters summed across replications
};

struct SweepOptions {
  std::vector<double> lambdas;
  std::vector<proto::ProtocolKind> protocols;
  std::uint32_t replications = 10;

  /// Attack schedules to sweep over. Empty (the default) keeps the base
  /// config's attack list untouched; otherwise each set replaces
  /// base.attacks for its slice of the grid. The run seed does not depend
  /// on the set, so all sets of a (lambda, rep) cell share one workload.
  std::vector<std::vector<AttackWave>> attack_sets;

  /// Worker threads for the run fan-out: 0 (the default) uses one per
  /// hardware thread, 1 runs the serial reference path on the calling
  /// thread. Results are identical for every value.
  unsigned jobs = 0;

  /// Optional per-run trace-sink factory, called once per run before its
  /// simulation starts; return nullptr to leave that run untraced. With
  /// jobs > 1 the factory runs on worker threads, so every run must get
  /// its *own* sink with a run-unique path (e.g. one suffixed JSONL file
  /// per run).
  std::function<std::unique_ptr<obs::TraceSink>(const RunId& id)>
      make_trace_sink;

  /// Called after each completed run (progress reporting); may be empty.
  /// Invocation order is always the serial cell order. With jobs > 1 the
  /// callbacks fire during the deterministic merge after the execution
  /// phase, so they report completion, not live progress.
  std::function<void(const SweepCell&, std::uint32_t rep)> on_run;
};

/// The sweep grid in serial order (protocol-major, lambda, attack set,
/// then replication). run_sweep executes exactly this sequence.
std::vector<RunId> sweep_run_ids(const SweepOptions& options);

/// Fully resolved per-run configs, aligned with sweep_run_ids(): exactly
/// what run_sweep simulates for each point.
std::vector<ScenarioConfig> sweep_point_configs(const ScenarioConfig& base,
                                                const SweepOptions& options);

/// "realtor lambda=6 set=2 rep=0" — human label for one run.
std::string run_label(const RunId& id);

/// Runs `base` across the grid. Cells are ordered protocol-major, lambda,
/// then attack set. An exception thrown by one run is rethrown here after
/// the in-flight runs finish.
std::vector<SweepCell> run_sweep(const ScenarioConfig& base,
                                 const SweepOptions& options);

/// Convenience: sweep all five paper protocols at the given lambdas.
SweepOptions paper_sweep_options(std::vector<double> lambdas,
                                 std::uint32_t replications);

/// Shape of SweepOptions::make_trace_sink, exposed so the shared factory
/// below can be passed around by the CLI and the benches.
using RunSinkFactory =
    std::function<std::unique_ptr<obs::TraceSink>(const RunId& id)>;

/// What make_run_sink_factory() should build per run. At most one of the
/// prefixes may be non-empty (a run gets one sink).
struct RunSinkOptions {
  /// JSONL: one file per run named prefix.<proto>.lambda<L>.rep<R>.jsonl.
  std::string jsonl_prefix;
  /// JsonlSink batching (0 = write-through; see JsonlSink's guarantee).
  std::size_t jsonl_flush_every = 0;
  /// Flight recorder: one binary ring per run, dumped to
  /// prefix.<proto>.lambda<L>.rep<R>.bin when the run flushes the sink.
  std::string flight_prefix;
  /// Ring capacity in records for flight sinks.
  std::size_t flight_capacity = obs::kDefaultFlightCapacity;
  /// Attack-parameter sweeps set this so names gain an .att<K> infix
  /// (prefix.<proto>.lambda<L>.att<K>.rep<R>.*) — without it two attack
  /// sets of the same cell would clobber one file. Single-schedule sweeps
  /// leave it off and keep the legacy names.
  bool attack_suffix = false;
  /// Live telemetry plane: non-empty wraps each run's sink in an
  /// obs::live::LivePlane whose buffered exposition history is written to
  /// prefix.<proto>.lambda<L>[.att<K>].rep<R>.prom when the run flushes.
  /// The plane owns the run's JSONL/flight sink (when one is configured)
  /// as its downstream, so alert_firing/alert_cleared events land in the
  /// trace files too; it also composes with no downstream (exposition
  /// only). Requires ScenarioConfig::live_cadence > 0 for the ticks that
  /// drive snapshots.
  std::string live_prefix;
  /// Alert-rule specs for live runs (empty = the default rule set).
  std::vector<std::string> live_rules;
  /// LiveConfig window defaults for live runs.
  double live_window = 30.0;
  /// Topology size hint for the nodes_alive gauge in live runs.
  std::uint64_t live_nodes = 0;
};

/// The per-run sink factory shared by realtor_sim --sweep and the bench
/// harness: builds a JsonlSink or FlightDumpSink per run, suffix-named so
/// parallel workers never share a file. Both
/// prefixes empty -> an empty function (sweep runs untraced). A file that
/// cannot be opened is reported to stderr and that run is untraced.
RunSinkFactory make_run_sink_factory(RunSinkOptions options);

}  // namespace realtor::experiment
