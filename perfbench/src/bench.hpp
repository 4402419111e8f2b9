// Shared declarations of the repository benchmark.
//
// The benchmark drives the simulator only through its public API: it
// builds scenario configs from the workload seed, times the calls it makes
// into each module, reads counters through public accessors and a
// benchmark-owned trace sink, and checks every output against reference
// fingerprints. Nothing here is compiled into the simulator itself.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "experiment/metrics.hpp"
#include "experiment/scenario.hpp"
#include "experiment/simulation.hpp"
#include "obs/trace.hpp"

namespace perfbench {

using realtor::NodeId;
namespace experiment = realtor::experiment;
namespace obs = realtor::obs;
namespace net = realtor::net;
namespace proto = realtor::proto;

// --- measure.cpp -----------------------------------------------------------

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start);

/// Process resource counters at one instant (getrusage + steady clock).
struct Usage {
  double wall = 0.0;
  double cpu = 0.0;     // user + sys of every thread of the process
  double minflt = 0.0;  // minor page faults
};
Usage usage_now();

/// Resource cost of one timed job.
struct Cost {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double minflt = 0.0;
};
Cost cost_between(const Usage& before, const Usage& after);

/// Peak resident set of this process so far, in MB.
double peak_rss_mb();

double median(std::vector<double> values);

/// 64-bit FNV-1a digest, printed in hex so two commits' outputs can be
/// compared without shipping the full fingerprint text.
std::string digest(const std::string& text);

/// "nproc=4 governor=performance build=RelWithDebInfo".
std::string host_header();

// --- layers.cpp ------------------------------------------------------------

/// Benchmark-owned trace sink: counts records per kind and reconstructs
/// message deliveries from send and liveness records. A flood reaches
/// every alive node but its origin; a unicast (PLEDGE) is one delivery.
/// Optionally forwards every record to a downstream sink and keeps the
/// first `keep` records for the JSONL encoding probe.
class CountingSink final : public obs::TraceSink {
 public:
  /// One protocol send, recorded only when record_sends is set.
  struct Send {
    NodeId origin = 0;
    NodeId to = 0;  // unicast destination; unused for floods
    bool flood = false;
  };

  CountingSink(NodeId nodes, obs::TraceSink* downstream = nullptr,
               std::size_t keep = 0, bool record_sends = false);

  void on_event(const obs::TraceEvent& event) override;
  void flush() override;

  std::uint64_t count(obs::EventKind kind) const {
    return counts_[static_cast<std::size_t>(kind)];
  }
  std::uint64_t records() const { return records_; }
  std::uint64_t deliveries() const { return deliveries_; }
  /// Arrivals rejected without a single migration attempt.
  std::uint64_t no_candidate() const { return no_candidate_; }
  const std::vector<obs::TraceEvent>& kept() const { return kept_; }
  const std::vector<Send>& sends() const { return sends_; }

 private:
  obs::TraceSink* downstream_;
  std::size_t keep_;
  bool record_sends_;
  std::vector<char> alive_;
  std::size_t alive_count_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t records_ = 0;
  std::uint64_t deliveries_ = 0;
  std::uint64_t no_candidate_ = 0;
  std::vector<obs::TraceEvent> kept_;
  std::vector<Send> sends_;
};

/// The per-layer metric catalog, in output order, with units. A traced
/// run reports exactly these names.
struct MetricDef {
  const char* name;
  const char* unit;
};
const std::vector<MetricDef>& layer_catalog();

/// End-to-end metric catalog (tracing off), in output order.
const std::vector<MetricDef>& end_to_end_catalog();

/// Named metric values restricted to one catalog; every name starts at 0
/// and unknown names abort, so a run always reports the full set.
class MetricSet {
 public:
  explicit MetricSet(const std::vector<MetricDef>& catalog);
  void set(const std::string& name, double value);
  void add(const std::string& name, double value);
  double get(const std::string& name) const;
  const std::vector<MetricDef>& catalog() const { return catalog_; }

 private:
  std::size_t index_of(const std::string& name) const;
  const std::vector<MetricDef>& catalog_;
  std::vector<double> values_;
};

/// Per-layer probes: each times one module's public hot function on
/// inputs shaped like the workload.
double probe_schedule_fire_ns(std::size_t depth, std::uint64_t seed);
double probe_cancel_ns(std::size_t depth, std::uint64_t seed);
double probe_hops_cold_ns(const experiment::TopologySpec& spec);
double probe_hops_warm_ns(const experiment::TopologySpec& spec,
                          std::uint64_t seed);
/// Times SimTransport::flood on the topology with a counting deliver
/// callback; returns ns per delivery.
double probe_flood_ns_per_delivery(const experiment::TopologySpec& spec);
/// Calls migration_candidates() on every alive node; returns us per call.
double probe_candidates_us(experiment::Simulation& simulation);
/// JSONL encoding cost of `events` through obs::JsonlSink into a
/// discarding stream; ns per record.
double probe_jsonl_ns(const std::vector<obs::TraceEvent>& events);

/// Replays recorded sends through a SimTransport on a fresh copy of the
/// topology and returns the deliveries its callback counted.
std::uint64_t replay_deliveries(const experiment::TopologySpec& spec,
                                const std::vector<CountingSink::Send>& sends);

// --- workloads.cpp ---------------------------------------------------------

enum class Workload { kPaperGrid, kScalePush, kSurviveExact, kTraceAnalysis };

bool parse_workload(const std::string& name, Workload& out);
const char* workload_name(Workload workload);

struct RunOptions {
  Workload workload = Workload::kPaperGrid;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string reference_dir;  // holds <workload>.<part>.txt
  std::string work_dir;       // scratch files (the generated trace)
  /// Writes the fingerprints into reference_dir instead of comparing.
  bool write_reference = false;
};

/// What one benchmark run produced: metrics plus the output check.
struct RunReport {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  std::vector<std::string> notes;  // printed above the result line
  std::unique_ptr<MetricSet> metrics;
};

RunReport run_workload(const RunOptions& options);

/// Compares `fingerprint` with the reference file; on mismatch sets `why`
/// to the first differing line. A missing reference file is a mismatch.
bool matches_reference(const std::string& path, const std::string& fingerprint,
                       std::string& why);

/// The seed whose fingerprints are checked into reference/.
inline constexpr std::uint64_t kReferenceSeed = 1;

// --- simulation helpers shared by workloads.cpp and selftest.cpp ------------

/// Counter fingerprint of one run: every integer RunMetrics counter and
/// per-kind send count (exact across reruns and tracing).
std::string counters_fingerprint(const experiment::RunMetrics& m);
/// counters_fingerprint plus the ledger's costs at full precision.
std::string run_fingerprint(const experiment::RunMetrics& m);

/// One simulation run, timed in two parts: set-up (constructor +
/// begin_run) and the run itself. Deliveries are counted phase by phase
/// between the configured liveness changes, where the alive population
/// is constant.
struct SimRun {
  double setup_s = 0.0;
  Cost cost;
  std::uint64_t deliveries = 0;
  std::uint64_t floods = 0;
  std::string fingerprint;
  experiment::RunMetrics metrics;
};

/// Hook run after construction and before begin_run (engine observer,
/// trace sink).
using SimHook = std::function<void(experiment::Simulation&)>;

SimRun run_simulation(const experiment::ScenarioConfig& config,
                      const SimHook& before_begin = {},
                      std::unique_ptr<experiment::Simulation>* keep = nullptr);

/// The paper's §5 configuration at `seed` (5x5 mesh, 600 s, 100 s queues,
/// unicast cost pinned at 4).
experiment::ScenarioConfig paper_config(std::uint64_t seed);

// --- selftest.cpp ----------------------------------------------------------

/// Benchmark self-tests; prints one line per check, returns failures.
int run_self_tests(const std::string& work_dir);

}  // namespace perfbench
