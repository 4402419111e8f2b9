// Shared flag plumbing for the figure-reproduction binaries.
//
// Every binary accepts:
//   --lambdas=1,2,...   arrival-rate sweep (tasks/s system-wide)
//   --reps=N            replications per cell (default 5)
//   --duration=T        simulated seconds per run (default 600)
//   --seed=S            base seed (default 42)
//   --topology=mesh|torus|ring|star|complete|random  overlay shape
//                       (default mesh; non-mesh shapes unpin the paper's
//                       fixed unicast cost of 4 and use the computed
//                       average path length)
//   --width=W           mesh/torus width in nodes (default 5)
//   --height=H          mesh/torus height in nodes (default 5)
//   --nodes=N           node count for ring/star/complete/random
//   --links=L           link count for random topologies
//   --topo-seed=S       random-topology construction seed (default 1)
//   --approx-paths      sampled average-path/diameter estimation on
//                       topologies >= ~2500 alive nodes (exact otherwise)
//   --queue=Q           per-node queue capacity, seconds of work (default 100)
//   --task-size=S       mean task size, seconds (default 5)
//   --help-threshold=V  Algorithm P solicitation threshold
//   --pledge-threshold=V  availability-pledge threshold
//   --alpha=V --beta=V  Algorithm H interval adaptation gains
//   --upper-limit=V     HELP-interval upper limit / window
//   --help-timeout=T    HELP retransmission timeout (seconds)
//   --push-interval=T   PUSH advertisement period (seconds)
//   --ttl=T             soft-state availability TTL (seconds)
//   --max-communities=N community membership cap
//   --reward=migration|pledge  Algorithm H reward policy (default
//                       migration; pledge rewards the first useful pledge)
//   --tries=N           migration negotiation attempts (default 1)
//   --jobs=N            sweep worker threads; 0 (default) = one per
//                       hardware thread, 1 = serial reference path.
//                       Results are byte-identical for every value.
//   --csv=PATH          also write the table as CSV
//   --ci                print 95% confidence half-widths
//   --trace=PREFIX      JSONL trace per sweep run, named
//                       PREFIX.<proto>.lambda<L>.rep<R>.jsonl
//   --trace-flush-every=K  batch JSONL writes, K lines per flush
//   --flight-recorder[=N]  binary flight ring per sweep run (N records),
//                       dumped to <flight-out>.<proto>.lambda<L>.rep<R>.bin
//   --flight-out=PREFIX flight dump prefix (default "flight")
#pragma once

#include <string>
#include <vector>

#include "common/flags.hpp"
#include "experiment/cli_config.hpp"
#include "experiment/scenario.hpp"
#include "experiment/sweep.hpp"

namespace realtor::benchutil {

inline std::vector<double> default_lambdas() {
  return {1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0};
}

inline experiment::ScenarioConfig base_config(const Flags& flags) {
  experiment::ScenarioConfig config;
  // Same topology pass-through as the CLI (mesh 5x5 when unspecified), so
  // the scale matrix is runnable straight from any bench binary.
  experiment::apply_topology_flags(flags, config);
  config.duration = flags.get_double("duration", 600.0);
  config.seed = static_cast<std::uint64_t>(flags.get_int("seed", 42));
  config.queue_capacity = flags.get_double("queue", 100.0);
  config.mean_task_size = flags.get_double("task-size", 5.0);

  proto::ProtocolConfig& p = config.protocol;
  p.help_threshold = flags.get_double("help-threshold", p.help_threshold);
  p.pledge_threshold = flags.get_double("pledge-threshold", p.pledge_threshold);
  p.alpha = flags.get_double("alpha", p.alpha);
  p.beta = flags.get_double("beta", p.beta);
  p.help_upper_limit = flags.get_double("upper-limit", p.help_upper_limit);
  p.help_timeout = flags.get_double("help-timeout", p.help_timeout);
  p.push_interval = flags.get_double("push-interval", p.push_interval);
  p.soft_state_ttl = flags.get_double("ttl", p.soft_state_ttl);
  p.max_communities = static_cast<std::uint32_t>(
      flags.get_int("max-communities", p.max_communities));
  if (flags.get_string("reward", "migration") == "pledge") {
    p.reward_policy = proto::HelpRewardPolicy::kOnFirstUsefulPledge;
  }
  config.migration.max_tries =
      static_cast<std::uint32_t>(flags.get_int("tries", 1));
  return config;
}

inline experiment::SweepOptions sweep_options(const Flags& flags) {
  experiment::SweepOptions options = experiment::paper_sweep_options(
      flags.get_double_list("lambdas", default_lambdas()),
      static_cast<std::uint32_t>(flags.get_int("reps", 5)));
  options.jobs = static_cast<unsigned>(flags.get_int("jobs", 0));
  // Same per-run tracing the CLI sweep offers (one suffixed file per run,
  // never shared across workers); tracing does not change any measured
  // metric, only wall-clock time.
  experiment::RunSinkOptions sinks;
  sinks.jsonl_prefix = flags.get_string("trace", "");
  sinks.jsonl_flush_every =
      static_cast<std::size_t>(flags.get_int("trace-flush-every", 0));
  if (flags.has("flight-recorder")) {
    sinks.flight_prefix = flags.get_string("flight-out", "flight");
    const std::int64_t n = flags.get_int(
        "flight-recorder",
        static_cast<std::int64_t>(obs::kDefaultFlightCapacity));
    sinks.flight_capacity = n > 0 ? static_cast<std::size_t>(n)
                                  : obs::kDefaultFlightCapacity;
    sinks.jsonl_prefix.clear();  // flight wins if both were passed
  }
  options.make_trace_sink =
      experiment::make_run_sink_factory(std::move(sinks));
  return options;
}

}  // namespace realtor::benchutil
