#include "obs/live/rules.hpp"

#include <cmath>
#include <cstdlib>

#include "common/format.hpp"

namespace realtor::obs::live {

namespace {

struct SignalName {
  const char* name;
  RuleSignal signal;
};

constexpr SignalName kSignals[] = {
    {"admission_probability", RuleSignal::kAdmissionProbability},
    {"admission_burn", RuleSignal::kAdmissionBurn},
    {"help_rate", RuleSignal::kHelpRate},
    {"message_rate", RuleSignal::kMessageRate},
    {"rejection_rate", RuleSignal::kRejectionRate},
    {"episode_p50", RuleSignal::kEpisodeP50},
    {"episode_p90", RuleSignal::kEpisodeP90},
    {"episode_p99", RuleSignal::kEpisodeP99},
    {"nodes_alive", RuleSignal::kNodesAlive},
    {"open_episodes", RuleSignal::kOpenEpisodes},
};

/// Finite numbers only: NaN and infinity do not survive to_string() as the
/// same rule, and a NaN bound never compares true.
bool parse_double(const std::string& text, double& out) {
  if (text.empty()) return false;
  char* end = nullptr;
  out = std::strtod(text.c_str(), &end);
  return end == text.c_str() + text.size() && std::isfinite(out);
}

bool fail(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
  return false;
}

}  // namespace

bool signal_count_windowed(RuleSignal signal) {
  return signal == RuleSignal::kAdmissionProbability ||
         signal == RuleSignal::kAdmissionBurn;
}

bool signal_rated(RuleSignal signal) {
  return signal == RuleSignal::kHelpRate ||
         signal == RuleSignal::kMessageRate ||
         signal == RuleSignal::kRejectionRate;
}

const char* to_string(RuleSignal signal) {
  for (const SignalName& entry : kSignals) {
    if (entry.signal == signal) return entry.name;
  }
  return "?";
}

const char* to_string(RuleOp op) {
  switch (op) {
    case RuleOp::kLt:
      return "<";
    case RuleOp::kLe:
      return "<=";
    case RuleOp::kGt:
      return ">";
    case RuleOp::kGe:
      return ">=";
  }
  return "?";
}

bool compare(RuleOp op, double value, double bound) {
  switch (op) {
    case RuleOp::kLt:
      return value < bound;
    case RuleOp::kLe:
      return value <= bound;
    case RuleOp::kGt:
      return value > bound;
    case RuleOp::kGe:
      return value >= bound;
  }
  return false;
}

bool parse_alert_rule(const std::string& spec, AlertRule& out,
                      std::string* error) {
  const std::size_t colon = spec.find(':');
  if (colon == std::string::npos || colon == 0) {
    return fail(error, "alert rule '" + spec + "': expected <name>:<expr>");
  }
  out = AlertRule{};
  out.name = spec.substr(0, colon);
  std::string expr = spec.substr(colon + 1);

  // Split the optional /window off the right first — windows are plain
  // numbers, so the remaining expr is signal[@param]<op>bound[x].
  const std::size_t slash = expr.rfind('/');
  if (slash != std::string::npos) {
    if (!parse_double(expr.substr(slash + 1), out.window) ||
        out.window <= 0.0) {
      return fail(error,
                  "alert rule '" + out.name + "': bad window '" +
                      expr.substr(slash + 1) + "'");
    }
    expr.resize(slash);
  }

  const std::size_t op_pos = expr.find_first_of("<>");
  if (op_pos == std::string::npos || op_pos == 0) {
    return fail(error, "alert rule '" + out.name +
                           "': expected <signal><op><bound>");
  }
  std::size_t bound_pos = op_pos + 1;
  if (expr[op_pos] == '<') {
    out.op = RuleOp::kLt;
  } else {
    out.op = RuleOp::kGt;
  }
  if (bound_pos < expr.size() && expr[bound_pos] == '=') {
    out.op = out.op == RuleOp::kLt ? RuleOp::kLe : RuleOp::kGe;
    ++bound_pos;
  }

  std::string signal_text = expr.substr(0, op_pos);
  const std::size_t at = signal_text.find('@');
  if (at != std::string::npos) {
    if (!parse_double(signal_text.substr(at + 1), out.param)) {
      return fail(error, "alert rule '" + out.name + "': bad @param '" +
                             signal_text.substr(at + 1) + "'");
    }
    signal_text.resize(at);
  }
  bool found = false;
  for (const SignalName& entry : kSignals) {
    if (signal_text == entry.name) {
      out.signal = entry.signal;
      found = true;
      break;
    }
  }
  if (!found) {
    return fail(error, "alert rule '" + out.name + "': unknown signal '" +
                           signal_text + "'");
  }
  if (at != std::string::npos && out.signal != RuleSignal::kAdmissionBurn) {
    return fail(error, "alert rule '" + out.name +
                           "': only admission_burn takes an @param");
  }
  if (signal_count_windowed(out.signal) && out.window > 1e6) {
    return fail(error, "alert rule '" + out.name +
                           "': count windows hold at most 1e6 decisions");
  }

  std::string bound_text = expr.substr(bound_pos);
  if (!bound_text.empty() && bound_text.back() == 'x') {
    out.relative = true;
    bound_text.pop_back();
    if (!signal_rated(out.signal)) {
      return fail(error, "alert rule '" + out.name +
                             "': baseline-relative bounds (trailing x) only "
                             "apply to rate signals");
    }
  }
  if (!parse_double(bound_text, out.bound)) {
    return fail(error, "alert rule '" + out.name + "': bad bound '" +
                           bound_text + "'");
  }
  if (out.signal == RuleSignal::kAdmissionBurn &&
      (out.param <= 0.0 || out.param >= 1.0)) {
    return fail(error, "alert rule '" + out.name +
                           "': admission_burn needs @slo in (0, 1)");
  }
  return true;
}

std::vector<std::string> default_alert_rules() {
  return {"admission_low:admission_probability<0.9/50",
          "help_storm:help_rate>3x/30"};
}

std::string to_string(const AlertRule& rule) {
  std::string out = rule.name;
  out += ':';
  out += to_string(rule.signal);
  if (rule.signal == RuleSignal::kAdmissionBurn) {
    out += '@';
    append_double_shortest(out, rule.param);
  }
  out += to_string(rule.op);
  append_double_shortest(out, rule.bound);
  if (rule.relative) out += 'x';
  if (rule.window > 0.0) {
    out += '/';
    append_double_shortest(out, rule.window);
  }
  return out;
}

}  // namespace realtor::obs::live
