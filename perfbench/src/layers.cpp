// Per-layer instruments: the counting trace sink, the metric catalogs and
// the probes that time one module's public hot function in isolation.
#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <streambuf>

#include "bench.hpp"
#include "common/rng.hpp"
#include "experiment/sim_transport.hpp"
#include "net/cost_model.hpp"
#include "net/message_ledger.hpp"
#include "net/shortest_paths.hpp"
#include "obs/jsonl_sink.hpp"
#include "sim/engine.hpp"

namespace perfbench {

namespace {

const obs::TraceField* find_field(const obs::TraceEvent& event,
                                  const char* key) {
  for (std::uint32_t i = 0; i < event.field_count; ++i) {
    if (std::strcmp(event.fields[i].key, key) == 0) return &event.fields[i];
  }
  return nullptr;
}

/// Discards everything written to it (the JSONL probe measures encoding,
/// not the disk).
class NullBuffer final : public std::streambuf {
 protected:
  int_type overflow(int_type c) override { return traits_type::not_eof(c); }
  std::streamsize xsputn(const char*, std::streamsize n) override { return n; }
};

/// Stores a probe's checksum where the optimizer must assume it is read,
/// so the timed queries cannot be elided.
void keep(std::uint64_t value) {
  static volatile std::uint64_t observed = 0;
  observed = observed + value;
}

/// Hold-model event: every firing schedules its successor a uniform
/// [0, 2) s later, so the pending depth stays constant.
struct HoldEvent {
  realtor::sim::Engine* engine;
  realtor::RngStream* rng;
  void operator()() const {
    engine->schedule_in(rng->uniform(0.0, 2.0), HoldEvent{engine, rng});
  }
};

/// A SimTransport on a fresh copy of a workload topology whose deliver
/// callback only counts.
struct CountingTransport {
  explicit CountingTransport(const experiment::TopologySpec& spec)
      : topology(experiment::build_topology(spec)),
        cost(topology, net::CostMode::kPaperAverage, 4.0),
        transport(engine, topology, cost, ledger, 0.0,
                  [this](NodeId, NodeId, const proto::Message&) {
                    ++delivered;
                  }) {}
  CountingTransport(const CountingTransport&) = delete;
  CountingTransport& operator=(const CountingTransport&) = delete;

  realtor::sim::Engine engine;
  net::Topology topology;
  net::CostModel cost;
  net::MessageLedger ledger;
  std::uint64_t delivered = 0;
  experiment::SimTransport transport;
};

}  // namespace

// --- CountingSink ------------------------------------------------------------

CountingSink::CountingSink(NodeId nodes, obs::TraceSink* downstream,
                           std::size_t keep, bool record_sends)
    : downstream_(downstream),
      keep_(keep),
      record_sends_(record_sends),
      alive_(nodes, 1),
      alive_count_(nodes),
      counts_(static_cast<std::size_t>(obs::EventKind::kCount), 0) {}

void CountingSink::on_event(const obs::TraceEvent& event) {
  ++records_;
  if (event.kind < obs::EventKind::kCount) {
    ++counts_[static_cast<std::size_t>(event.kind)];
  }
  if (kept_.size() < keep_) kept_.push_back(event);
  switch (event.kind) {
    case obs::EventKind::kHelpSent:
    case obs::EventKind::kAdvertSent: {
      const bool origin_alive =
          event.node < alive_.size() && alive_[event.node] != 0;
      deliveries_ += alive_count_ - (origin_alive ? 1 : 0);
      if (record_sends_) sends_.push_back(Send{event.node, 0, true});
      break;
    }
    case obs::EventKind::kPledgeSent: {
      ++deliveries_;
      if (record_sends_) {
        const obs::TraceField* to = find_field(event, "organizer");
        sends_.push_back(Send{event.node,
                              to != nullptr ? static_cast<NodeId>(to->u) : 0,
                              false});
      }
      break;
    }
    case obs::EventKind::kNodeKilled:
      if (event.node < alive_.size() && alive_[event.node] != 0) {
        alive_[event.node] = 0;
        --alive_count_;
      }
      break;
    case obs::EventKind::kNodeRestored:
      if (event.node < alive_.size() && alive_[event.node] == 0) {
        alive_[event.node] = 1;
        ++alive_count_;
      }
      break;
    case obs::EventKind::kTaskRejected: {
      const obs::TraceField* attempts = find_field(event, "attempts");
      if (attempts != nullptr && attempts->u == 0) ++no_candidate_;
      break;
    }
    default:
      break;
  }
  if (downstream_ != nullptr) downstream_->on_event(event);
}

void CountingSink::flush() {
  if (downstream_ != nullptr) downstream_->flush();
}

// --- catalogs ----------------------------------------------------------------

const std::vector<MetricDef>& end_to_end_catalog() {
  static const std::vector<MetricDef> catalog = {
      {"wall_s", "s"},      {"setup_s", "s"},
      {"cpu_s", "s"},       {"peak_rss_mb", "MB"},
      {"minflt", "count"},  {"deliveries_per_s", "1/s"},
  };
  return catalog;
}

const std::vector<MetricDef>& layer_catalog() {
  static const std::vector<MetricDef> catalog = {
      {"experiment.setup_s", "s"},
      {"experiment.run_s", "s"},
      {"experiment.run_p50_ms", "ms"},
      {"experiment.run_max_ms", "ms"},
      {"experiment.parallel_eff", "ratio"},
      {"experiment.floods", "count"},
      {"experiment.deliveries", "count"},
      {"experiment.unreachable_drops", "count"},
      {"experiment.flood_ns_per_delivery", "ns"},
      {"sim.events", "count"},
      {"sim.peak_pending", "count"},
      {"sim.events_per_s", "1/s"},
      {"sim.schedule_fire_ns", "ns"},
      {"sim.cancel_ns", "ns"},
      {"node.admitted_local", "count"},
      {"node.completed", "count"},
      {"node.rejected", "count"},
      {"proto.help_sends", "count"},
      {"proto.pledge_sends", "count"},
      {"proto.advert_sends", "count"},
      {"proto.table_entries", "count"},
      {"proto.candidates_us", "us"},
      {"net.hop_queries", "count"},
      {"net.hops_cold_ns", "ns"},
      {"net.hops_warm_ns", "ns"},
      {"net.est_s", "s"},
      {"admission.attempts", "count"},
      {"admission.aborts", "count"},
      {"admission.no_candidate", "count"},
      {"admission.migrations", "count"},
      {"admission.success_ratio", "ratio"},
      {"admission.evacuated", "count"},
      {"admission.lost", "count"},
      {"obs.ingest_s", "s"},
      {"obs.scorecard_s", "s"},
      {"obs.invariants_s", "s"},
      {"obs.critical_path_s", "s"},
      {"obs.ingest_mb_per_s", "MB/s"},
      {"obs.write_s", "s"},
      {"obs.jsonl_ns_per_record", "ns"},
      {"obs.records", "count"},
      {"obs.records.help_sent", "count"},
      {"obs.records.help_received", "count"},
      {"obs.records.pledge_sent", "count"},
      {"obs.records.pledge_received", "count"},
      {"obs.records.advert_sent", "count"},
      {"obs.records.help_interval", "count"},
      {"obs.records.threshold_crossing", "count"},
      {"obs.records.community_join", "count"},
      {"obs.records.community_expire", "count"},
      {"obs.records.task_arrival", "count"},
      {"obs.records.task_admit_local", "count"},
      {"obs.records.task_admit_migrated", "count"},
      {"obs.records.task_rejected", "count"},
      {"obs.records.task_completed", "count"},
      {"obs.records.migration_attempt", "count"},
      {"obs.records.migration_abort", "count"},
      {"obs.records.migration_success", "count"},
      {"obs.records.node_killed", "count"},
      {"obs.records.node_restored", "count"},
      {"obs.records.evacuation", "count"},
      {"trace_overhead", "ratio"},
  };
  return catalog;
}

MetricSet::MetricSet(const std::vector<MetricDef>& catalog)
    : catalog_(catalog), values_(catalog.size(), 0.0) {}

std::size_t MetricSet::index_of(const std::string& name) const {
  for (std::size_t i = 0; i < catalog_.size(); ++i) {
    if (name == catalog_[i].name) return i;
  }
  std::cerr << "perfbench: unknown metric " << name << '\n';
  std::abort();
}

void MetricSet::set(const std::string& name, double value) {
  values_[index_of(name)] = value;
}

void MetricSet::add(const std::string& name, double value) {
  values_[index_of(name)] += value;
}

double MetricSet::get(const std::string& name) const {
  return values_[index_of(name)];
}

// --- probes ------------------------------------------------------------------

double probe_schedule_fire_ns(std::size_t depth, std::uint64_t seed) {
  depth = std::max<std::size_t>(depth, 1);
  realtor::sim::Engine engine;
  realtor::RngStream rng(seed, "perfbench-hold");
  for (std::size_t i = 0; i < depth; ++i) {
    engine.schedule_at(rng.uniform(0.0, 2.0), HoldEvent{&engine, &rng});
  }
  // Each pending event fires about once per simulated second.
  constexpr double kEvents = 1e6;
  const Clock::time_point start = Clock::now();
  engine.run_until(kEvents / static_cast<double>(depth));
  const double seconds = seconds_since(start);
  const auto fired = static_cast<double>(engine.events_processed());
  return fired > 0.0 ? seconds * 1e9 / fired : 0.0;
}

double probe_cancel_ns(std::size_t depth, std::uint64_t seed) {
  depth = std::max<std::size_t>(depth, 1);
  realtor::sim::Engine engine;
  realtor::RngStream rng(seed, "perfbench-cancel");
  for (std::size_t i = 0; i < depth; ++i) {
    engine.schedule_at(rng.uniform(0.0, 2.0), [] {});
  }
  constexpr int kPairs = 500000;
  const Clock::time_point start = Clock::now();
  for (int i = 0; i < kPairs; ++i) {
    engine.cancel(engine.schedule_in(rng.uniform(0.0, 2.0), [] {}));
  }
  return seconds_since(start) * 1e9 / kPairs;
}

double probe_hops_cold_ns(const experiment::TopologySpec& spec) {
  const net::Topology topology = experiment::build_topology(spec);
  const NodeId n = topology.num_nodes();
  const std::size_t queries = std::clamp<std::size_t>(
      20000000 / std::max<NodeId>(n, 1), 512, 20000);
  // Sources rotate so every query misses the 64-row cache; a topology
  // that fits in the cache gets a fresh ShortestPaths per rotation.
  const bool fits = n <= 64;
  std::unique_ptr<net::ShortestPaths> paths;
  std::uint64_t sink = 0;
  const Clock::time_point start = Clock::now();
  for (std::size_t q = 0; q < queries; ++q) {
    const NodeId src = static_cast<NodeId>(q % n);
    if (!paths || (fits && src == 0)) {
      paths = std::make_unique<net::ShortestPaths>(topology);
    }
    sink += paths->hops(src, static_cast<NodeId>((q * 7919) % n));
  }
  const double seconds = seconds_since(start);
  keep(sink);
  return seconds * 1e9 / static_cast<double>(queries);
}

double probe_hops_warm_ns(const experiment::TopologySpec& spec,
                          std::uint64_t seed) {
  const net::Topology topology = experiment::build_topology(spec);
  const net::ShortestPaths paths(topology);
  realtor::RngStream rng(seed, "perfbench-hops");
  const NodeId n = topology.num_nodes();
  const NodeId src = static_cast<NodeId>(rng.uniform_index(n));
  constexpr int kQueries = 1000000;
  std::uint64_t sink = paths.hops(src, 0);  // the one BFS, untimed
  const Clock::time_point start = Clock::now();
  for (int q = 0; q < kQueries; ++q) {
    sink += paths.hops(src, static_cast<NodeId>(rng.uniform_index(n)));
  }
  const double seconds = seconds_since(start);
  keep(sink);
  return seconds * 1e9 / kQueries;
}

double probe_flood_ns_per_delivery(const experiment::TopologySpec& spec) {
  CountingTransport probe(spec);
  const NodeId n = probe.topology.num_nodes();
  const std::size_t floods =
      std::max<std::size_t>(64, 4000000 / std::max<NodeId>(n, 1));
  proto::PushAdvertMsg advert;
  advert.availability = 0.5;
  const Clock::time_point start = Clock::now();
  for (std::size_t f = 0; f < floods; ++f) {
    advert.origin = static_cast<NodeId>(f % n);
    probe.transport.flood(advert.origin, proto::Message{advert});
    probe.engine.run();
  }
  const double seconds = seconds_since(start);
  return probe.delivered > 0
             ? seconds * 1e9 / static_cast<double>(probe.delivered)
             : 0.0;
}

double probe_candidates_us(experiment::Simulation& simulation) {
  const net::Topology& topology = simulation.topology();
  std::size_t calls = 0;
  std::size_t sink = 0;
  const Clock::time_point start = Clock::now();
  for (NodeId id = 0; id < topology.num_nodes(); ++id) {
    if (!topology.alive(id)) continue;
    sink += simulation.protocol(id).migration_candidates().size();
    ++calls;
  }
  const double seconds = seconds_since(start);
  keep(sink);
  return calls > 0 ? seconds * 1e6 / static_cast<double>(calls) : 0.0;
}

double probe_jsonl_ns(const std::vector<obs::TraceEvent>& events) {
  if (events.empty()) return 0.0;
  NullBuffer buffer;
  std::ostream out(&buffer);
  obs::JsonlSink sink(out, 4096);
  constexpr std::size_t kRecords = 200000;
  std::size_t written = 0;
  const Clock::time_point start = Clock::now();
  while (written < kRecords) {
    for (const obs::TraceEvent& event : events) sink.on_event(event);
    written += events.size();
  }
  sink.flush();
  return seconds_since(start) * 1e9 / static_cast<double>(written);
}

std::uint64_t replay_deliveries(const experiment::TopologySpec& spec,
                                const std::vector<CountingSink::Send>& sends) {
  CountingTransport probe(spec);
  for (const CountingSink::Send& send : sends) {
    if (send.flood) {
      proto::HelpMsg help;
      help.origin = send.origin;
      probe.transport.flood(send.origin, proto::Message{help});
    } else {
      probe.transport.unicast(send.origin, send.to,
                              proto::Message{proto::PledgeMsg{}});
    }
  }
  probe.engine.run();
  return probe.delivered;
}

}  // namespace perfbench
