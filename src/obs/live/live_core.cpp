#include "obs/live/live_core.hpp"

#include <cstdio>
#include <cstdlib>
#include <fstream>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "common/format.hpp"

namespace realtor::obs::live {

namespace {

using S = RuleSignal;  // rated_ holds help, message, rejection in order
static_assert(int(S::kMessageRate) == int(S::kHelpRate) + 1 &&
              int(S::kRejectionRate) == int(S::kHelpRate) + 2);

/// One exposition line: `name value`.
void append_metric(std::string& out, const char* name, double value) {
  out += name;
  out += ' ';
  append_double_shortest(out, value);
  out += '\n';
}

void append_metric(std::string& out, const char* name, std::uint64_t value) {
  out += name;
  out += ' ';
  append_u64(out, value);
  out += '\n';
}

/// `metric{rule="<name>"} `, with the label value escaped the Prometheus
/// way (backslash, quote, newline).
void append_rule_label(std::string& out, const char* metric,
                       const std::string& name) {
  out += metric;
  out += "{rule=\"";
  for (const char c : name) {
    if (c == '\\' || c == '"') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  out += "\"} ";
}

}  // namespace

LiveCore::LiveCore(LiveConfig config, const char* header_tag)
    : config_(std::move(config)),
      header_tag_(header_tag),
      decisions_(config_.decision_window),
      rated_{{{SlidingWindow(config_.window, config_.buckets)},
              {SlidingWindow(config_.window, config_.buckets)},
              {SlidingWindow(config_.window, config_.buckets)}}},
      episode_latency_(config_.window, config_.buckets,
                       config_.latency_reservoir) {
  const std::vector<std::string> specs =
      config_.rules.empty() ? default_alert_rules() : config_.rules;
  for (const std::string& spec : specs) {
    RuleState state;
    std::string parse_error;
    if (!parse_alert_rule(spec, state.rule, &parse_error)) {
      fail(parse_error);
      continue;
    }
    if (signal_count_windowed(state.rule.signal)) {
      const std::size_t n = state.rule.window > 0.0
                                ? static_cast<std::size_t>(state.rule.window)
                                : config_.decision_window;
      state.tail.emplace(n);
    } else if (state.rule.signal != RuleSignal::kNodesAlive &&
               state.rule.signal != RuleSignal::kOpenEpisodes) {
      const double span =
          state.rule.window > 0.0 ? state.rule.window : config_.window;
      const bool quantile = !signal_rated(state.rule.signal);
      state.sliding.emplace(span, config_.buckets,
                            quantile ? config_.latency_reservoir : 0);
    }
    rules_.push_back(std::move(state));
  }

  if (!config_.out.empty()) {
    has_output_ = true;
    if (config_.out == "-") {
      to_stdout_ = true;
      config_.write_through = true;
    } else if (config_.out.rfind("fd:", 0) == 0) {
      char* end = nullptr;
      const long fd = std::strtol(config_.out.c_str() + 3, &end, 10);
      if (end == nullptr || *end != '\0' || fd < 0) {
        fail("--live-metrics: bad file descriptor '" + config_.out + "'");
        has_output_ = false;
      } else {
        fd_ = static_cast<int>(fd);
        config_.write_through = true;
      }
    }
  }
}

void LiveCore::fail(const std::string& message) {
  ok_ = false;
  if (!error_.empty()) error_ += "; ";
  error_ += message;
}

bool LiveCore::alert_firing(const std::string& name) const {
  for (const RuleState& state : rules_) {
    if (state.rule.name == name) return state.firing;
  }
  return false;
}

void LiveCore::advance(SimTime now) {
  // Rotate the default windows even through quiet stretches.
  for (Rated& signal : rated_) signal.window.advance(now);
  episode_latency_.advance(now);
}

double LiveCore::evaluate(RuleState& state, SimTime now,
                          double* effective_bound) {
  const AlertRule& rule = state.rule;
  *effective_bound = rule.bound;
  switch (rule.signal) {
    case RuleSignal::kAdmissionProbability: {
      const WindowSnapshot snap = state.tail->snapshot();
      return snap.count > 0 ? snap.mean() : 1.0;
    }
    case RuleSignal::kAdmissionBurn: {
      const WindowSnapshot snap = state.tail->snapshot();
      const double admission = snap.count > 0 ? snap.mean() : 1.0;
      return (1.0 - admission) / (1.0 - rule.param);
    }
    case RuleSignal::kHelpRate:
    case RuleSignal::kMessageRate:
    case RuleSignal::kRejectionRate: {
      state.sliding->advance(now);
      if (rule.relative) {
        const std::uint64_t total = rated_[rated_index(rule.signal)].total;
        const double baseline =
            now > 0.0 ? static_cast<double>(total) / now : 0.0;
        *effective_bound = rule.bound * baseline;
      }
      return state.sliding->rate(now);
    }
    case RuleSignal::kEpisodeP50:
    case RuleSignal::kEpisodeP90:
    case RuleSignal::kEpisodeP99:
      state.sliding->advance(now);
      return state.sliding->quantile(
          rule.signal == RuleSignal::kEpisodeP50   ? 0.50
          : rule.signal == RuleSignal::kEpisodeP90 ? 0.90
                                                   : 0.99);
    case RuleSignal::kNodesAlive:
      return static_cast<double>(gauges_.nodes_alive);
    case RuleSignal::kOpenEpisodes:
      return static_cast<double>(gauges_.open_episodes);
  }
  return 0.0;
}

void LiveCore::render_head(std::string& out, SimTime now,
                           bool final_tick) const {
  out += "# realtor_live snapshot ";
  append_u64(out, snapshots_);
  out += " t=";
  append_double_shortest(out, now);
  out += header_tag_;
  if (final_tick) out += " final";
  out += '\n';

  const WindowSnapshot admissions = decisions_.snapshot();
  append_metric(out, "realtor_live_time", now);
  append_metric(out, "realtor_live_nodes_alive",
                static_cast<double>(gauges_.nodes_alive));
  append_metric(out, "realtor_live_nodes_total", config_.node_count);
  append_metric(out, "realtor_live_open_episodes", gauges_.open_episodes);
  append_metric(out, "realtor_live_decisions_total", decisions_total_);
  append_metric(out, "realtor_live_admission_probability",
                admissions.count > 0 ? admissions.mean() : 1.0);
  append_metric(out, "realtor_live_help_rate", rated_[0].window.rate(now));
  append_metric(out, "realtor_live_message_rate",
                rated_[1].window.rate(now));
  append_metric(out, "realtor_live_rejection_rate",
                rated_[2].window.rate(now));
  append_metric(out, "realtor_live_episode_latency_p50",
                episode_latency_.quantile(0.50));
  append_metric(out, "realtor_live_episode_latency_p99",
                episode_latency_.quantile(0.99));
}

void LiveCore::render_alerts(std::string& out) const {
  append_metric(out, "realtor_live_alerts_fired_total", alerts_fired_);
  for (const RuleState& state : rules_) {
    append_rule_label(out, "realtor_live_alert", state.rule.name);
    out += state.firing ? '1' : '0';
    out += '\n';
    append_rule_label(out, "realtor_live_alert_value", state.rule.name);
    append_double_shortest(out, state.last_value);
    out += '\n';
  }
  out += '\n';
}

void LiveCore::publish(std::size_t start) {
  // Write-through sends out the snapshot just rendered at `start` and
  // drops it; buffered or target-less cores keep the history.
  if (!has_output_ || !config_.write_through) return;
  write(std::string_view(history_).substr(start));
  history_.resize(start);
}

void LiveCore::write(std::string_view text) {
  if (to_stdout_) {
    std::fwrite(text.data(), 1, text.size(), stdout);
    std::fflush(stdout);
    return;
  }
  if (fd_ >= 0) {
#if defined(__unix__) || defined(__APPLE__)
    std::size_t off = 0;
    while (off < text.size()) {
      const ::ssize_t n = ::write(fd_, text.data() + off, text.size() - off);
      if (n <= 0) {
        if (ok_) fail("--live-metrics: write to fd failed");
        return;
      }
      off += static_cast<std::size_t>(n);
    }
#else
    if (ok_) fail("--live-metrics: fd targets need a POSIX platform");
#endif
    return;
  }
  // File target: rewrite in place so the file always holds the latest
  // complete scrape (write-through) or the whole history (flush).
  std::ofstream file(config_.out, std::ios::trunc);
  if (!file) {
    if (ok_) fail("--live-metrics: cannot open '" + config_.out + "'");
    return;
  }
  file.write(text.data(), static_cast<std::streamsize>(text.size()));
}

void LiveCore::flush() {
  if (has_output_ && !config_.write_through) write(history_);
}

}  // namespace realtor::obs::live
