// Wall-clock live telemetry for the threaded agile runtime.
//
// The simulation's live plane (obs/live/live_plane.hpp) is tick-driven by
// trace events and therefore deterministic. The agile testbed has no such
// luxury: twenty reactor threads bump atomic counters in real time. The
// LiveMonitor closes the gap by sampling those counters from its own
// wall-clock thread at a model-time cadence. It is the live-alert core's
// (obs/live/live_core.hpp) second adapter, next to the plane: the core
// owns the windows, rules, evaluation and exposition; the monitor keeps
// only the sampler thread, Clock::wall_at pacing, the mutex, the
// counter-delta adapter and the `plane=agile` header tag. Alert semantics
// match the simulation plane; only the evidence differs — counter deltas
// per sampling interval instead of individual trace events, so:
//
//   - admission decisions within one interval enter the decision window
//     admitted-first (their true interleaving is unobservable);
//   - episode latency quantiles are fed the interval's mean migration
//     latency (HostStats keeps a sum, not per-episode values);
//   - open_episodes is issued minus decided, an upper bound.
//
// Firings are wall-clock sampled and therefore advisory, not replayable —
// the determinism guarantee belongs to the simulation plane alone.
#pragma once

#include <cstdint>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <string>
#include <thread>

#include "agile/clock.hpp"
#include "common/types.hpp"
#include "obs/live/live_core.hpp"

namespace realtor::agile {

/// The shared live configuration plus the sampling cadence. `out` and
/// `write_through` mean what they mean on the simulation plane: write
/// each snapshot through (a file is rewritten in place, "-" and "fd:<n>"
/// append), or buffer the history and write it once stop() ends the run.
struct LiveMonitorConfig : obs::live::LiveConfig {
  /// Model seconds between samples (converted to wall time by the
  /// cluster's Clock).
  double cadence = 1.0;
};

/// Samples the cluster's atomics on a wall-clock thread and evaluates the
/// shared live-alert rule set. One monitor per Cluster::run().
class LiveMonitor {
 public:
  /// Cumulative counters at one sampling instant (the monitor diffs
  /// consecutive samples itself).
  struct Sample {
    SimTime now = 0.0;  // model time; stamped by the monitor in thread mode
    std::uint64_t admitted = 0;
    std::uint64_t rejected = 0;
    std::uint64_t helps = 0;
    /// All protocol sends: helps + pledges + negotiation calls.
    std::uint64_t messages = 0;
    /// Closed discovery episodes (migration latency samples).
    std::uint64_t episodes_closed = 0;
    /// Total migration latency over the closed episodes, model seconds.
    double latency_sum = 0.0;
    std::int64_t nodes_alive = 0;
    std::uint64_t episodes_issued = 0;
  };
  using Sampler = std::function<Sample()>;

  explicit LiveMonitor(LiveMonitorConfig config);
  ~LiveMonitor();
  LiveMonitor(const LiveMonitor&) = delete;
  LiveMonitor& operator=(const LiveMonitor&) = delete;

  /// False when a rule failed to parse or the exposition target could not
  /// be written; error() lists every failure.
  bool ok() const;
  std::string error() const;

  /// The listener runs on the sampling thread (or the observe()/stop()
  /// caller) under the monitor's lock, so it must not call back into the
  /// monitor.
  void set_alert_listener(obs::live::AlertListener listener);

  /// Spawns the sampling thread: every `cadence` model seconds it calls
  /// `sampler`, evaluates rules, and writes a snapshot. `clock` must
  /// outlive the monitor.
  void start(const Clock& clock, Sampler sampler);
  /// Takes one final sample, writes the final snapshot (and, buffered, the
  /// whole history), joins the thread. Idempotent; also called by the
  /// destructor.
  void stop();

  /// Direct-drive mode for tests: feed one cumulative sample (no thread).
  void observe(const Sample& sample);

  // Introspection (thread-safe after stop(); racy but safe during a run).
  std::uint64_t snapshots() const;
  std::uint64_t alerts_fired() const;
  bool alert_firing(const std::string& name) const;
  /// Snapshot history accumulated so far (buffered mode or no target
  /// only; empty while writing through to a target).
  std::string exposition() const;

 private:
  void ingest_locked(const Sample& sample, bool final_sample);
  void run_loop(const Clock* clock);

  const double cadence_;
  mutable std::mutex mutex_;  // guards everything below but thread_
  std::condition_variable cv_;
  bool stop_requested_ = false;
  bool stopped_ = true;
  Sampler sampler_;
  obs::live::AlertListener listener_;

  obs::live::LiveCore core_;
  Sample prev_;

  std::thread thread_;  // last: it runs on every member above
};

}  // namespace realtor::agile
