// Declarative, deterministic alert rules over live windows.
//
// Grammar (one rule per spec string):
//
//   <name>:<signal>[@<param>]<op><bound>[x][/<window>]
//
//   name    — label carried by alert_firing/alert_cleared trace events.
//   signal  — one of the catalog below.
//   @param  — signal parameter (only admission_burn takes one: the SLO
//             target, e.g. admission_burn@0.95).
//   op      — < <= > >= over the evaluated signal value.
//   bound   — threshold. A trailing `x` turns the rule into a
//             rate-of-change comparison: the windowed rate is compared
//             against bound × the run's cumulative baseline rate.
//   /window — window size. Count-based signals (admission_probability,
//             admission_burn) read it as "last N decisions"; time-based
//             signals read simulated seconds. Omitted = plane defaults.
//
// Signal catalog:
//   admission_probability  admitted / decided over the last N decisions
//                          (1.0 while no decision landed yet)
//   admission_burn@S       SLO burn rate: (1 - window admission) / (1 - S)
//   help_rate              help_sent per sim second over the window
//   message_rate           protocol messages per sim second (HELP, PLEDGE,
//                          adverts, gossip, solicit, escalation)
//   rejection_rate         task_rejected per sim second over the window
//   episode_p50/p90/p99    episode open->decision latency quantile (sim s)
//   nodes_alive            current alive-node count (window ignored)
//   open_episodes          episodes opened but not yet decided
//
// Examples (the ISSUE's three):
//   admission_low:admission_probability<0.9/50
//   help_storm:help_rate>3x/30
//   p99_deadline:episode_p99>5/60
//
// Evaluation is tick-driven (live_tick trace events): a rule transitions
// to firing when its condition holds at a tick and was not holding at the
// previous one, emitting an alert_firing event; the reverse transition
// emits alert_cleared. Everything a rule reads is a pure function of the
// trace-event stream, so firings are byte-identical across --jobs values
// for a fixed seed.
#pragma once

#include <string>
#include <vector>

namespace realtor::obs::live {

enum class RuleOp { kLt, kLe, kGt, kGe };

enum class RuleSignal {
  kAdmissionProbability,
  kAdmissionBurn,
  kHelpRate,
  kMessageRate,
  kRejectionRate,
  kEpisodeP50,
  kEpisodeP90,
  kEpisodeP99,
  kNodesAlive,
  kOpenEpisodes,
};

/// True for signals whose /window counts decisions, not seconds.
bool signal_count_windowed(RuleSignal signal);
/// True for signals a trailing `x` (baseline-relative bound) makes sense
/// for — the per-second rate signals.
bool signal_rated(RuleSignal signal);
const char* to_string(RuleSignal signal);

struct AlertRule {
  std::string name;
  RuleSignal signal = RuleSignal::kAdmissionProbability;
  RuleOp op = RuleOp::kLt;
  double bound = 0.0;
  /// Bound is a multiple of the cumulative baseline rate (`x` suffix).
  bool relative = false;
  /// admission_burn's SLO target (@param).
  double param = 0.0;
  /// Window size: decisions for count-windowed signals, sim seconds
  /// otherwise; 0 = the plane's default.
  double window = 0.0;
};

/// Parses one spec; false (with `error` set) on malformed input.
bool parse_alert_rule(const std::string& spec, AlertRule& out,
                      std::string* error);

/// The default rule set --live-metrics arms when no --alert was given:
/// the ISSUE's admission-probability floor and HELP-storm ratio.
std::vector<std::string> default_alert_rules();

/// Canonical one-line rendering (diagnostics, DESIGN examples).
std::string to_string(const AlertRule& rule);

bool compare(RuleOp op, double value, double bound);
const char* to_string(RuleOp op);

}  // namespace realtor::obs::live
