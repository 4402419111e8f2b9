// The live telemetry plane: a TraceSink that tees the event stream into
// the live-alert core (live_core.hpp) — sliding windows, alert rules,
// Prometheus-text exposition snapshots — while forwarding every event to
// an optional downstream sink (JSONL, flight ring, ...). The plane is the
// core's trace-event adapter: it keeps the ingest() switch over event
// kinds, the open-episode map and the alive gauge, the alert_firing /
// alert_cleared events it emits downstream, and the events_total lines.
//
// Determinism contract. The plane holds no clock of its own: windows
// advance and rules evaluate only on live_tick trace events, which the
// simulation engine emits at ScenarioConfig::live_cadence boundaries.
// Every number in a snapshot and every alert transition is therefore a
// pure function of the trace-event stream — and the stream is already
// byte-identical across --jobs values. Fixed seed in, identical
// exposition file and identical alert_firing events out, regardless of
// parallelism.
//
// Overhead contract: same as Tracer — nothing is attached when live
// telemetry is off, so untraced/not-live runs pay only the existing
// active() pointer test. When on, ingest is a switch plus a few window
// pushes per event; the perf_regression obs matrix gates the paired
// overhead at the flight recorder's <=5% budget.
//
// Not thread-safe: one plane per single-threaded simulation run. The
// threaded agile runtime uses agile::LiveMonitor, the core's other
// adapter, which samples atomics on a wall-clock thread.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "obs/live/live_core.hpp"
#include "obs/trace.hpp"

namespace realtor::obs::live {

class LivePlane final : public TraceSink {
 public:
  /// `downstream` is borrowed (may be nullptr); set_owned_downstream()
  /// hands the plane ownership instead (sweep factory composition).
  explicit LivePlane(LiveConfig config, TraceSink* downstream = nullptr);

  /// False when a rule spec failed to parse or the exposition target
  /// could not be opened; error() explains.
  bool ok() const { return core_.ok(); }
  const std::string& error() const { return core_.error(); }

  void set_owned_downstream(std::unique_ptr<TraceSink> downstream);
  /// Borrowed downstream (must outlive the plane); nullptr detaches.
  void set_downstream(TraceSink* downstream) { downstream_ = downstream; }
  void set_alert_listener(AlertListener listener) {
    alert_listener_ = std::move(listener);
  }

  void on_event(const TraceEvent& event) override;
  /// Writes the buffered exposition (buffered mode) and flushes the
  /// downstream sink.
  void flush() override;

  // Introspection (tests, tools).
  std::uint64_t snapshots() const { return core_.snapshots(); }
  std::uint64_t alerts_fired() const { return core_.alerts_fired(); }
  std::uint64_t events_seen() const { return events_seen_; }
  /// Exposition text accumulated so far (buffered mode only).
  const std::string& exposition() const { return core_.exposition(); }
  /// Current firing state of rule `name`; false for unknown rules.
  bool alert_firing(const std::string& name) const {
    return core_.alert_firing(name);
  }

 private:
  void ingest(const TraceEvent& event);
  void on_decision(SimTime now, bool admitted, std::uint64_t episode);
  void tick(SimTime now, bool final_tick);

  LiveCore core_;
  TraceSink* downstream_ = nullptr;
  std::unique_ptr<TraceSink> owned_downstream_;
  AlertListener alert_listener_;

  // Gauges derived from the stream.
  std::int64_t alive_ = 0;
  std::map<std::uint64_t, SimTime> open_;  // episode id -> open time
  std::array<std::uint64_t, static_cast<std::size_t>(EventKind::kCount)>
      kind_totals_{};
  std::uint64_t events_seen_ = 0;
};

}  // namespace realtor::obs::live
