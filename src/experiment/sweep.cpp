#include "experiment/sweep.hpp"

#include <iostream>
#include <sstream>
#include <utility>

#include "common/assert.hpp"
#include "common/parallel.hpp"
#include "common/table.hpp"
#include "experiment/simulation.hpp"
#include "obs/jsonl_sink.hpp"
#include "obs/live/live_plane.hpp"
#include "proto/factory.hpp"

namespace realtor::experiment {

namespace {

std::size_t set_count(const SweepOptions& options) {
  return options.attack_sets.empty() ? 1 : options.attack_sets.size();
}

ScenarioConfig config_for(const ScenarioConfig& base,
                          const SweepOptions& options, const RunId& id) {
  ScenarioConfig config = base;
  config.protocol_kind = id.kind;
  config.lambda = id.lambda;
  // Workload seed depends on (base seed, lambda, rep) only — not on the
  // protocol or attack set — giving common random numbers across the five
  // curves and a shared pre-attack prefix across the attack sets.
  config.seed = base.seed + 1000003ULL * id.rep +
                static_cast<std::uint64_t>(id.lambda * 1e6);
  if (!options.attack_sets.empty()) {
    config.attacks = options.attack_sets[id.attack_set];
  }
  return config;
}

void accumulate(SweepCell& cell, const RunMetrics& m) {
  cell.admission_probability.add(m.admission_probability());
  cell.total_messages.add(m.total_messages());
  cell.messages_per_admitted.add(m.messages_per_admitted());
  cell.migration_rate.add(m.migration_rate());
  cell.mean_occupancy.add(m.mean_occupancy);
  cell.evacuation_success.add(m.evacuation_success_rate());
  cell.summed.generated += m.generated;
  cell.summed.admitted_local += m.admitted_local;
  cell.summed.admitted_migrated += m.admitted_migrated;
  cell.summed.rejected += m.rejected;
  cell.summed.arrivals_at_dead_nodes += m.arrivals_at_dead_nodes;
  cell.summed.completed += m.completed;
  cell.summed.evacuation_candidates += m.evacuation_candidates;
  cell.summed.evacuated += m.evacuated;
  cell.summed.lost_to_attack += m.lost_to_attack;
  cell.summed.migration_attempts += m.migration_attempts;
  cell.summed.migration_aborts += m.migration_aborts;
  cell.summed.ledger.merge(m.ledger);
}

/// Runs one sweep point with its own trace sink (when the factory makes
/// one), flushed before the metrics are handed back.
RunMetrics run_point(const ScenarioConfig& config, const RunId& id,
                     const SweepOptions& options) {
  std::unique_ptr<obs::TraceSink> sink;
  if (options.make_trace_sink) sink = options.make_trace_sink(id);
  Simulation simulation(config);
  if (sink) simulation.set_trace_sink(sink.get());
  RunMetrics metrics = simulation.run();
  if (sink) sink->flush();
  return metrics;
}

}  // namespace

std::vector<RunId> sweep_run_ids(const SweepOptions& options) {
  const std::size_t sets = set_count(options);
  std::vector<RunId> ids;
  ids.reserve(options.protocols.size() * options.lambdas.size() * sets *
              options.replications);
  for (const proto::ProtocolKind kind : options.protocols) {
    for (const double lambda : options.lambdas) {
      for (std::size_t set = 0; set < sets; ++set) {
        for (std::uint32_t rep = 0; rep < options.replications; ++rep) {
          ids.push_back(RunId{kind, lambda, set, rep});
        }
      }
    }
  }
  return ids;
}

std::vector<ScenarioConfig> sweep_point_configs(const ScenarioConfig& base,
                                                const SweepOptions& options) {
  std::vector<ScenarioConfig> configs;
  const std::vector<RunId> ids = sweep_run_ids(options);
  configs.reserve(ids.size());
  for (const RunId& id : ids) {
    configs.push_back(config_for(base, options, id));
  }
  return configs;
}

std::string run_label(const RunId& id) {
  std::ostringstream os;
  os << proto::to_string(id.kind) << " lambda=" << format_double(id.lambda, 3)
     << " set=" << id.attack_set << " rep=" << id.rep;
  return os.str();
}

std::vector<SweepCell> run_sweep(const ScenarioConfig& base,
                                 const SweepOptions& options) {
  REALTOR_ASSERT(!options.lambdas.empty());
  REALTOR_ASSERT(!options.protocols.empty());
  REALTOR_ASSERT(options.replications >= 1);

  const std::vector<RunId> ids = sweep_run_ids(options);
  const std::vector<ScenarioConfig> configs = sweep_point_configs(base,
                                                                  options);
  // jobs > 1 fans the independent runs out across worker threads first;
  // jobs = 1 is the serial reference path, which runs each point inside
  // the merge loop below so on_run reports live progress. Either way the
  // per-run metrics are merged in exactly the serial order: OnlineStats
  // accumulation and ledger merging see the same values in the same
  // sequence, so the aggregates are byte-identical for every jobs value.
  const unsigned jobs = resolve_jobs(options.jobs);
  std::vector<RunMetrics> fanned;
  if (jobs > 1) {
    fanned.resize(configs.size());
    parallel_for(configs.size(), jobs, [&](std::size_t i) {
      fanned[i] = run_point(configs[i], ids[i], options);
    });
  }

  const std::size_t sets = set_count(options);
  std::vector<SweepCell> cells;
  cells.reserve(options.lambdas.size() * options.protocols.size() * sets);
  std::size_t index = 0;
  for (const proto::ProtocolKind kind : options.protocols) {
    for (const double lambda : options.lambdas) {
      for (std::size_t set = 0; set < sets; ++set) {
        SweepCell cell;
        cell.kind = kind;
        cell.lambda = lambda;
        cell.attack_set = set;
        for (std::uint32_t rep = 0; rep < options.replications; ++rep) {
          if (fanned.empty()) {
            accumulate(cell, run_point(configs[index], ids[index], options));
          } else {
            accumulate(cell, fanned[index]);
          }
          if (options.on_run) options.on_run(cell, rep);
          ++index;
        }
        cells.push_back(std::move(cell));
      }
    }
  }
  return cells;
}

SweepOptions paper_sweep_options(std::vector<double> lambdas,
                                 std::uint32_t replications) {
  SweepOptions options;
  options.lambdas = std::move(lambdas);
  options.protocols = {
      proto::ProtocolKind::kPurePull, proto::ProtocolKind::kPurePush,
      proto::ProtocolKind::kAdaptivePush, proto::ProtocolKind::kAdaptivePull,
      proto::ProtocolKind::kRealtor};
  options.replications = replications;
  return options;
}

RunSinkFactory make_run_sink_factory(RunSinkOptions options) {
  REALTOR_ASSERT_MSG(
      options.jsonl_prefix.empty() || options.flight_prefix.empty(),
      "a sweep run gets one sink: JSONL or flight recorder, not both");
  if (options.jsonl_prefix.empty() && options.flight_prefix.empty() &&
      options.live_prefix.empty()) {
    return {};
  }
  return [options = std::move(options)](
             const RunId& id) -> std::unique_ptr<obs::TraceSink> {
    const auto run_name = [&](const std::string& prefix,
                              const char* extension) {
      std::ostringstream name;
      name << prefix << '.' << proto::to_string(id.kind) << ".lambda"
           << format_double(id.lambda, 3);
      if (options.attack_suffix) name << ".att" << id.attack_set;
      name << ".rep" << id.rep << extension;
      return name.str();
    };
    const bool flight = !options.flight_prefix.empty();
    std::unique_ptr<obs::TraceSink> sink;
    if (flight) {
      // Dumps on flush (the run flushes after completion) or destruction.
      sink = std::make_unique<obs::FlightDumpSink>(
          run_name(options.flight_prefix, ".bin"), options.flight_capacity);
    } else if (!options.jsonl_prefix.empty()) {
      const std::string name = run_name(options.jsonl_prefix, ".jsonl");
      auto jsonl =
          std::make_unique<obs::JsonlSink>(name, options.jsonl_flush_every);
      if (!jsonl->ok()) {
        std::cerr << "cannot write " << name << '\n';
      } else {
        sink = std::move(jsonl);
      }
    }
    if (options.live_prefix.empty()) return sink;
    // Buffered exposition: each run accumulates its own snapshot history
    // in memory and writes it at flush, so parallel workers never share a
    // file and the bytes match the serial path.
    obs::live::LiveConfig live;
    live.out = run_name(options.live_prefix, ".prom");
    live.rules = options.live_rules;
    live.window = options.live_window;
    live.node_count = options.live_nodes;
    auto plane = std::make_unique<obs::live::LivePlane>(std::move(live));
    if (!plane->ok()) {
      std::cerr << plane->error() << '\n';
      return sink;
    }
    plane->set_owned_downstream(std::move(sink));
    return plane;
  };
}

}  // namespace realtor::experiment
