// The live-alert core: everything both live planes share, whatever the
// evidence — rules and their windows, the default exposition windows, the
// cumulative totals `x` rules compare against, evaluation and transition
// detection, snapshot rendering and the one exposition writer (file
// rewrite, "-", "fd:<n>", or a history written on flush()). Its adapters,
// obs::live::LivePlane (trace events) and agile::LiveMonitor (sampled
// counter deltas), feed it evidence and gauges and call tick().
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/live/rules.hpp"
#include "obs/live/window.hpp"

namespace realtor::obs::live {

struct LiveConfig {
  /// Exposition destination: a file path, "fd:<n>" (an inherited file
  /// descriptor), "-" (stdout), or empty (no exposition — rules still
  /// evaluate and alert events still flow downstream).
  std::string out;
  /// Default time-window span (sim seconds) for rate/latency signals.
  double window = 30.0;
  /// Ring buckets per time window.
  std::size_t buckets = 6;
  /// Default count window (decisions) for admission signals.
  std::size_t decision_window = 50;
  /// Per-bucket quantile reservoir for the episode-latency window.
  std::size_t latency_reservoir = 256;
  /// Rule specs (rules.hpp grammar). Empty = default_alert_rules().
  std::vector<std::string> rules;
  /// Topology size hint for the nodes_alive gauge (0 = unknown, gauge
  /// reports kills/restores relative to 0).
  std::uint64_t node_count = 0;
  /// true: write each snapshot to `out` as it is produced (single-run
  /// operator mode). File targets are rewritten in place so the file
  /// always holds the latest scrapeable snapshot; fd/stdout targets
  /// append. false: buffer the whole snapshot history in memory and
  /// write it on flush() — what sweep runs use, so runs on parallel
  /// worker threads each write their own complete file once, with the
  /// same bytes as the serial path.
  bool write_through = false;
};

/// Called on every alert transition (realtor_sim uses it for
/// dump-on-alert into the flight recorder).
using AlertListener = std::function<void(
    const AlertRule& rule, bool firing, SimTime time, double value)>;

class LiveCore {
 public:
  /// Gauges the adapter derives from its own evidence.
  struct Gauges {
    std::int64_t nodes_alive = 0;
    std::uint64_t open_episodes = 0;
  };

  /// `header_tag` lands in each snapshot header after t=<now> (the agile
  /// monitor's " plane=agile").
  LiveCore(LiveConfig config, const char* header_tag);

  /// False when a rule spec failed to parse or the exposition target
  /// could not be opened or written; error() lists every failure.
  bool ok() const { return ok_; }
  const std::string& error() const { return error_; }
  const LiveConfig& config() const { return config_; }

  // Evidence. Each call feeds the default window and every rule window
  // that reads the same signal.
  /// One admission decision.
  void decision(bool admitted) {
    ++decisions_total_;
    const double outcome = admitted ? 1.0 : 0.0;
    decisions_.observe(outcome);
    for (RuleState& state : rules_) {
      if (state.tail.has_value()) state.tail->observe(outcome);
    }
  }
  /// One occurrence of a rated signal (help, message or rejection).
  void occurrence(RuleSignal rated, SimTime now) {
    Rated& signal = rated_[rated_index(rated)];
    ++signal.total;
    signal.window.count(now);
    for (RuleState& state : rules_) {
      if (state.rule.signal == rated && state.sliding.has_value()) {
        state.sliding->count(now);
      }
    }
  }
  /// One closed episode's open-to-decision latency.
  void latency(SimTime now, double seconds) {
    episode_latency_.observe(now, seconds);
    for (RuleState& state : rules_) {
      if (state.sliding.has_value() && !signal_rated(state.rule.signal)) {
        state.sliding->observe(now, seconds);
      }
    }
  }

  /// One evaluation tick at `now`: rotates the default windows, evaluates
  /// every rule against `gauges`, reports each transition to
  /// `on_transition(rule, firing, value, bound)`, and renders and
  /// publishes one snapshot. `render_extra(out)` appends the adapter's own
  /// lines ahead of the alert block.
  template <class OnTransition, class RenderExtra>
  void tick(SimTime now, bool final_tick, Gauges gauges,
            OnTransition&& on_transition, RenderExtra&& render_extra) {
    gauges_ = gauges;
    advance(now);
    for (RuleState& state : rules_) {
      double bound = 0.0;
      const double value = evaluate(state, now, &bound);
      state.last_value = value;
      const bool holds = compare(state.rule.op, value, bound);
      if (holds == state.firing) continue;
      state.firing = holds;
      if (holds) ++alerts_fired_;
      on_transition(state.rule, holds, value, bound);
    }
    ++snapshots_;
    const std::size_t start = history_.size();
    render_head(history_, now, final_tick);
    render_extra(history_);
    render_alerts(history_);
    publish(start);
  }

  /// Writes the buffered history to a file target (buffered mode only).
  void flush();

  std::uint64_t snapshots() const { return snapshots_; }
  std::uint64_t alerts_fired() const { return alerts_fired_; }
  /// Snapshot history: everything rendered so far when buffering or
  /// without a target; empty while writing through to a target.
  const std::string& exposition() const { return history_; }
  /// Current firing state of rule `name`; false for unknown rules.
  bool alert_firing(const std::string& name) const;

 private:
  struct RuleState {
    AlertRule rule;
    bool firing = false;
    double last_value = 0.0;
    /// Count-windowed signals own a tail window; rate/latency signals own
    /// a sliding window; gauges own neither.
    std::optional<TailWindow> tail;
    std::optional<SlidingWindow> sliding;
  };
  /// A rated signal's default window and cumulative total.
  struct Rated {
    SlidingWindow window;
    std::uint64_t total = 0;
  };

  static std::size_t rated_index(RuleSignal rated) {
    return static_cast<std::size_t>(rated) -
           static_cast<std::size_t>(RuleSignal::kHelpRate);
  }
  void fail(const std::string& message);
  void advance(SimTime now);
  double evaluate(RuleState& state, SimTime now, double* effective_bound);
  void render_head(std::string& out, SimTime now, bool final_tick) const;
  void render_alerts(std::string& out) const;
  void publish(std::size_t start);
  void write(std::string_view text);

  LiveConfig config_;
  const char* header_tag_;
  bool ok_ = true;
  std::string error_;

  std::vector<RuleState> rules_;

  // Default exposition windows; rated_ is indexed help, message, rejection.
  TailWindow decisions_;
  std::array<Rated, 3> rated_;
  SlidingWindow episode_latency_;
  std::uint64_t decisions_total_ = 0;
  Gauges gauges_;

  std::uint64_t snapshots_ = 0;
  std::uint64_t alerts_fired_ = 0;

  // Exposition output.
  bool has_output_ = false;
  std::string history_;
  int fd_ = -1;  // "fd:<n>" target
  bool to_stdout_ = false;
};

}  // namespace realtor::obs::live
