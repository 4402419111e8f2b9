// realtor_trace — offline analyzer for structured run traces: JSONL files
// from realtor_sim --trace=... and binary flight-recorder dumps from
// --flight-recorder (auto-detected by magic; every mode below works on
// either).
//
//   realtor_trace run.jsonl                  # event-kind summary
//   realtor_trace flight.bin                 # same, from a flight dump
//   realtor_trace run.jsonl --node=7         # one node's timeline
//   realtor_trace run.jsonl --kind=help_sent # filter (summary + timeline)
//   realtor_trace run.jsonl --intervals      # Algorithm-H interval history
//   realtor_trace run.jsonl --episodes       # discovery-episode spans +
//                                            # latency percentiles
//   realtor_trace run.jsonl --check          # protocol invariant checker
//                                            # (nonzero exit on violation)
//   realtor_trace run.jsonl --scorecard      # survivability scorecard:
//                                            # per-attack MTTR, stage
//                                            # latency breakdown, miss/
//                                            # drop attribution
//   realtor_trace run.jsonl --scorecard --format=json
//                                            # machine-readable scorecard
//   realtor_trace run.jsonl --format=csv     # machine-readable event/
//                                            # episode tables
//   realtor_trace run.jsonl --limit=50       # cap timeline/episode rows
//   realtor_trace run.jsonl --critical-path  # per-episode lineage walk:
//                                            # latency attributed to named
//                                            # phases, p50/p90/p99 tables
//   realtor_trace run.jsonl --critical-path --blame=10
//                                            # top-K slowest lineage edges
//   realtor_trace run.jsonl --critical-path --check
//                                            # structural gate: phases of
//                                            # every path must telescope
//   realtor_trace run.jsonl --export=perfetto --out=run.perfetto-trace
//                                            # Chrome-trace JSON for
//                                            # ui.perfetto.dev; add
//                                            # --profile=prof.tsv to merge
//                                            # a realtor_sim --profile dump
//   realtor_trace run.jsonl --jobs=4 --stats # parallel ingest; bytes /
//                                            # events / MB/s on stderr
//   realtor_trace run.jsonl --follow         # live dashboard: reload the
//                                            # growing file on each change
//                                            # and render utilization per
//                                            # node, open episodes, firing
//                                            # alerts. --refresh=<s> poll
//                                            # period, --plain appends
//                                            # frames instead of clearing,
//                                            # --once one frame, --idle-
//                                            # exit=<s> stop after quiet,
//                                            # --max-frames=<n> frame cap
//   realtor_trace run.jsonl --follow --once --check
//                                            # render, then gate: the
//                                            # invariant checker judges
//                                            # the final load (--follow
//                                            # --check requires --once,
//                                            # --idle-exit or --max-frames)
//
// Ingest goes through obs/event_store.hpp: the file is mmap'd, parsed in
// newline-sharded parallel (--jobs=N, default all hardware threads) into
// an interned zero-copy store, and every analysis below runs off that
// store. Serial and parallel loads produce identical stores, so --jobs
// never changes any output byte.
//
// --check replays the paper's algorithmic guarantees over the trace (see
// obs/invariants.hpp for the catalog); parameters of the traced run can be
// overridden with --alpha --beta --initial-interval --upper-limit
// --interval-floor --pledge-threshold --tolerance.
//
// Damaged input is skipped but counted — malformed JSONL lines, and
// unrecoverable records in truncated/corrupt flight dumps: every mode
// reports the count on stderr, and the --check gates treat any dropped
// input as a violation — an analysis that silently ignored part of its
// input must not report a clean bill.
//
// Exit codes (relied on by CI; the README carries the per-combination
// contract table, enforced by tests/cli/test_trace_exit_codes.sh):
//   0  analysis ran and every requested gate passed
//   1  bad usage or unreadable input (bad path, bad magic, bad flag,
//      --follow combined with an offline analysis mode, or
//      --follow --check without a termination condition)
//   2  a gate tripped: invariant violation, critical-path inconsistency,
//      or dropped input under --check (including --follow --check over
//      the final load)
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/flags.hpp"
#include "common/format.hpp"
#include "common/profile.hpp"
#include "obs/critical_path.hpp"
#include "obs/event_store.hpp"
#include "obs/flight_reader.hpp"
#include "obs/invariants.hpp"
#include "obs/perfetto.hpp"
#include "obs/scorecard.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"

namespace {

using namespace realtor;

constexpr int kExitOk = 0;
constexpr int kExitUsage = 1;
constexpr int kExitViolation = 2;

struct KindSummary {
  std::uint64_t count = 0;
  double first_time = 0.0;
  double last_time = 0.0;
  std::vector<char> nodes_seen;  // indexed by node id
};

std::string format_value(const obs::StoredField& field) {
  switch (field.type) {
    case obs::FieldType::kNumber: {
      char buf[32];
      format_double(buf, sizeof buf, "%g", field.number);
      return buf;
    }
    case obs::FieldType::kString:
      return std::string(field.text);
    case obs::FieldType::kBool:
      return field.boolean ? "true" : "false";
    case obs::FieldType::kNull:
      return "null";
  }
  return "";
}

std::string format_fields(const obs::EventStore& store,
                          const obs::EventView& view) {
  std::string out;
  for (const obs::StoredField* field = view.fields_begin();
       field != view.fields_end(); ++field) {
    if (!out.empty()) out += ' ';
    out += store.name(field->key);
    out += '=';
    out += format_value(*field);
  }
  return out;
}

/// Filters compare interned ids, not strings: a --kind name the trace
/// never used resolves to kNoStrId, which no record carries.
bool keep(const obs::EventRec& rec, bool filter_node, NodeId node,
          bool filter_kind, obs::StrId kind_id) {
  if (filter_node && rec.node != node) return false;
  if (filter_kind && rec.kind != kind_id) return false;
  return true;
}

void print_timeline(const obs::EventStore& store, bool filter_node,
                    NodeId node, bool filter_kind, obs::StrId kind_id,
                    std::uint64_t limit) {
  std::uint64_t shown = 0;
  std::uint64_t matched = 0;
  char time[32];
  for (const obs::EventRec& rec : store.records()) {
    if (!keep(rec, filter_node, node, filter_kind, kind_id)) continue;
    ++matched;
    if (shown >= limit) continue;
    ++shown;
    format_double(time, sizeof time, "%.3f", rec.time);
    std::printf("%10s  ", time);
    if (rec.node == kInvalidNode) {
      std::printf("%6s", "-");
    } else {
      std::printf("%6llu", static_cast<unsigned long long>(rec.node));
    }
    const obs::EventView view(store, rec);
    std::printf("  %-20s %s\n", view.kind_cstr(),
                format_fields(store, view).c_str());
  }
  if (matched > shown) {
    std::printf("... %llu more (raise --limit)\n",
                static_cast<unsigned long long>(matched - shown));
  }
}

/// Events as CSV: time,node,kind plus the sorted union of payload keys.
/// Cells of absent fields stay empty, so every row has the same width.
void print_events_csv(const obs::EventStore& store, bool filter_node,
                      NodeId node, bool filter_kind, obs::StrId kind_id) {
  std::set<std::string_view> keys;
  for (const obs::EventRec& rec : store.records()) {
    if (!keep(rec, filter_node, node, filter_kind, kind_id)) continue;
    const obs::EventView view(store, rec);
    for (const obs::StoredField* field = view.fields_begin();
         field != view.fields_end(); ++field) {
      keys.insert(store.name(field->key));
    }
  }
  std::printf("time,node,kind");
  std::vector<obs::StrId> key_ids;
  key_ids.reserve(keys.size());
  for (const std::string_view key : keys) {
    std::printf(",%s", key.data());  // interned names are NUL-terminated
    key_ids.push_back(store.find_id(key));
  }
  std::printf("\n");
  char time[40];
  for (const obs::EventRec& rec : store.records()) {
    if (!keep(rec, filter_node, node, filter_kind, kind_id)) continue;
    const obs::EventView view(store, rec);
    format_double(time, sizeof time, "%.6f", rec.time);
    if (rec.node == kInvalidNode) {
      std::printf("%s,,%s", time, view.kind_cstr());
    } else {
      std::printf("%s,%llu,%s", time,
                  static_cast<unsigned long long>(rec.node),
                  view.kind_cstr());
    }
    for (const obs::StrId key : key_ids) {
      const obs::StoredField* value = view.find(key);
      std::printf(",%s", value != nullptr ? format_value(*value).c_str() : "");
    }
    std::printf("\n");
  }
}

void print_summary(const obs::EventStore& store) {
  std::map<std::string_view, KindSummary> kinds;
  double span_end = 0.0;
  std::vector<char> all_nodes;
  for (const obs::EventRec& rec : store.records()) {
    KindSummary& summary = kinds[store.name(rec.kind)];
    if (summary.count == 0) summary.first_time = rec.time;
    ++summary.count;
    summary.last_time = rec.time;
    span_end = std::max(span_end, rec.time);
    if (rec.node != kInvalidNode) {
      if (rec.node >= summary.nodes_seen.size()) {
        summary.nodes_seen.resize(rec.node + 1, 0);
      }
      summary.nodes_seen[rec.node] = 1;
      if (rec.node >= all_nodes.size()) {
        all_nodes.resize(rec.node + 1, 0);
      }
      all_nodes[rec.node] = 1;
    }
  }
  const auto live = static_cast<unsigned long long>(
      std::count(all_nodes.begin(), all_nodes.end(), 1));
  char end_buf[32];
  format_double(end_buf, sizeof end_buf, "%.3f", span_end);
  std::printf("%llu records, %llu nodes, t in [0, %s]\n\n",
              static_cast<unsigned long long>(store.size()), live, end_buf);
  std::printf("%-20s %10s %8s %12s %12s\n", "kind", "count", "nodes",
              "first", "last");
  char first[32], last[32];
  for (const auto& [kind, summary] : kinds) {
    format_double(first, sizeof first, "%.3f", summary.first_time);
    format_double(last, sizeof last, "%.3f", summary.last_time);
    std::printf("%-20s %10llu %8llu %12s %12s\n", kind.data(),
                static_cast<unsigned long long>(summary.count),
                static_cast<unsigned long long>(std::count(
                    summary.nodes_seen.begin(), summary.nodes_seen.end(), 1)),
                first, last);
  }
}

// Algorithm-H evolution: every help_interval record in order, then the
// final interval each node settled on.
void print_intervals(const obs::EventStore& store) {
  const obs::StrId help_interval_id = store.find_id("help_interval");
  const obs::StrId interval_id = store.find_id("interval");
  const obs::StrId reason_id = store.find_id("reason");
  std::map<NodeId, double> final_interval;
  std::uint64_t updates = 0;
  char time[32], ival[32];
  for (const obs::EventRec& rec : store.records()) {
    if (rec.kind != help_interval_id || help_interval_id == obs::kNoStrId) {
      continue;
    }
    ++updates;
    const obs::EventView view(store, rec);
    const double interval = view.number(interval_id, 0.0);
    const obs::StoredField* reason = view.find(reason_id);
    format_double(time, sizeof time, "%.3f", rec.time);
    format_double(ival, sizeof ival, "%.3f", interval);
    std::printf("%10s  node %-5llu interval %8s  (%.*s)\n", time,
                static_cast<unsigned long long>(rec.node), ival,
                reason != nullptr ? static_cast<int>(reason->text.size()) : 1,
                reason != nullptr ? reason->text.data() : "?");
    final_interval[rec.node] = interval;
  }
  if (updates == 0) {
    std::printf("no help_interval records "
                "(push-based protocol, or Algorithm H never adapted)\n");
    return;
  }
  std::printf("\nfinal intervals:\n");
  for (const auto& [node, interval] : final_interval) {
    format_double(ival, sizeof ival, "%.3f", interval);
    std::printf("  node %-5llu %8s\n",
                static_cast<unsigned long long>(node), ival);
  }
}

void print_latency_row(const char* label, const obs::Histogram& histogram) {
  const auto& stats = histogram.stats();
  if (stats.count() == 0) {
    std::printf("  %-22s (no samples)\n", label);
    return;
  }
  char mean[32], p50[32], p90[32], p99[32], max[32];
  format_double(mean, sizeof mean, "%.3f", stats.mean());
  format_double(p50, sizeof p50, "%.3f", histogram.p50());
  format_double(p90, sizeof p90, "%.3f", histogram.p90());
  format_double(p99, sizeof p99, "%.3f", histogram.p99());
  format_double(max, sizeof max, "%.3f", stats.max());
  std::printf("  %-22s n=%-6llu mean=%-8s p50=%-8s p90=%-8s "
              "p99=%-8s max=%s\n",
              label, static_cast<unsigned long long>(stats.count()),
              mean, p50, p90, p99, max);
}

void print_episodes(const std::vector<obs::Episode>& episodes,
                    std::uint64_t limit) {
  const obs::EpisodeSummary summary = obs::summarize_episodes(episodes);
  std::printf("%llu episodes, %llu with a pledge, %llu with a migration\n\n",
              static_cast<unsigned long long>(summary.episodes),
              static_cast<unsigned long long>(summary.with_pledge),
              static_cast<unsigned long long>(summary.with_migration));
  print_latency_row("time_to_first_pledge", summary.time_to_first_pledge);
  print_latency_row("time_to_migration", summary.time_to_migration);
  std::printf("\n%-10s %6s %10s %8s %8s %8s %8s %10s %10s\n", "episode",
              "origin", "start", "urgency", "pledges", "attempts",
              "migrated", "t_pledge", "t_migrate");
  std::uint64_t shown = 0;
  char start[32], urgency[32], latency[32];
  for (const obs::Episode& episode : episodes) {
    if (shown >= limit) break;
    ++shown;
    format_double(start, sizeof start, "%.3f", episode.start_time);
    format_double(urgency, sizeof urgency, "%.3f", episode.urgency);
    std::printf("%-10llu %6lld %10s %8s %8llu %8llu %8llu ",
                static_cast<unsigned long long>(episode.id),
                episode.origin == kInvalidNode
                    ? -1LL
                    : static_cast<long long>(episode.origin),
                start, urgency,
                static_cast<unsigned long long>(episode.pledges_received),
                static_cast<unsigned long long>(episode.migration_attempts),
                static_cast<unsigned long long>(episode.migrations));
    if (episode.started && episode.has_pledge()) {
      format_double(latency, sizeof latency, "%.3f",
                    episode.time_to_first_pledge());
      std::printf("%10s ", latency);
    } else {
      std::printf("%10s ", "-");
    }
    if (episode.started && episode.has_migration()) {
      format_double(latency, sizeof latency, "%.3f",
                    episode.time_to_migration());
      std::printf("%10s\n", latency);
    } else {
      std::printf("%10s\n", "-");
    }
  }
  if (episodes.size() > shown) {
    std::printf("... %llu more (raise --limit)\n",
                static_cast<unsigned long long>(episodes.size() - shown));
  }
}

void print_episodes_csv(const std::vector<obs::Episode>& episodes) {
  std::printf("episode,origin,start,urgency,helps_received,pledges_sent,"
              "pledges_received,attempts,aborts,migrations,rejections,"
              "time_to_first_pledge,time_to_migration\n");
  char start[40], urgency[32], latency[40];
  for (const obs::Episode& episode : episodes) {
    std::printf("%llu,", static_cast<unsigned long long>(episode.id));
    if (episode.origin == kInvalidNode) {
      std::printf(",");
    } else {
      std::printf("%llu,", static_cast<unsigned long long>(episode.origin));
    }
    format_double(start, sizeof start, "%.6f", episode.start_time);
    format_double(urgency, sizeof urgency, "%g", episode.urgency);
    std::printf("%s,%s,%llu,%llu,%llu,%llu,%llu,%llu,%llu,",
                start, urgency,
                static_cast<unsigned long long>(episode.helps_received),
                static_cast<unsigned long long>(episode.pledges_sent),
                static_cast<unsigned long long>(episode.pledges_received),
                static_cast<unsigned long long>(episode.migration_attempts),
                static_cast<unsigned long long>(episode.migration_aborts),
                static_cast<unsigned long long>(episode.migrations),
                static_cast<unsigned long long>(episode.rejections));
    if (episode.started && episode.has_pledge()) {
      format_double(latency, sizeof latency, "%.6f",
                    episode.time_to_first_pledge());
      std::printf("%s,", latency);
    } else {
      std::printf(",");
    }
    if (episode.started && episode.has_migration()) {
      format_double(latency, sizeof latency, "%.6f",
                    episode.time_to_migration());
      std::printf("%s\n", latency);
    } else {
      std::printf("\n");
    }
  }
}

int run_check(const obs::EventStore& store, const Flags& flags) {
  obs::InvariantConfig config;
  config.initial_help_interval =
      flags.get_double("initial-interval", config.initial_help_interval);
  config.help_upper_limit =
      flags.get_double("upper-limit", config.help_upper_limit);
  config.help_interval_floor =
      flags.get_double("interval-floor", config.help_interval_floor);
  config.alpha = flags.get_double("alpha", config.alpha);
  config.beta = flags.get_double("beta", config.beta);
  config.pledge_threshold =
      flags.get_double("pledge-threshold", config.pledge_threshold);
  config.tolerance = flags.get_double("tolerance", config.tolerance);

  const std::vector<obs::SpanEvent> spans = obs::normalize_events(store);
  const std::vector<obs::Violation> violations =
      obs::check_invariants(spans, config);
  if (violations.empty()) {
    const std::vector<obs::Episode> episodes = obs::build_episodes(spans);
    std::printf("OK: %llu records, %llu episodes, all invariants hold\n",
                static_cast<unsigned long long>(store.size()),
                static_cast<unsigned long long>(episodes.size()));
    return kExitOk;
  }
  char time[32];
  for (const obs::Violation& violation : violations) {
    format_double(time, sizeof time, "%.3f", violation.time);
    std::printf("VIOLATION %-26s t=%s node=%llu  %s\n",
                violation.invariant, time,
                static_cast<unsigned long long>(violation.node),
                violation.detail.c_str());
  }
  std::printf("%llu violation(s) in %llu records\n",
              static_cast<unsigned long long>(violations.size()),
              static_cast<unsigned long long>(store.size()));
  return kExitViolation;
}

/// --critical-path [--blame[=K]] [--top=K] [--check]: lineage-walk every
/// episode, print the phase-attribution table, optionally the top-K
/// slowest edges, and optionally gate on structural consistency.
int run_critical_path(const obs::EventStore& store, const Flags& flags,
                      std::uint64_t dropped_input) {
  const std::vector<obs::SpanEvent> spans = obs::normalize_events(store);
  const obs::CriticalPathAnalysis analysis =
      obs::analyze_critical_paths(spans);
  std::fputs(obs::render_critical_path(analysis).c_str(), stdout);
  if (flags.has("blame")) {
    const std::int64_t top_k =
        flags.get_int("top", flags.get_int("blame", 10));
    std::fputs(
        obs::render_blame(analysis,
                          top_k > 0 ? static_cast<std::size_t>(top_k) : 10)
            .c_str(),
        stdout);
  }
  if (!flags.get_bool("check", false)) return kExitOk;

  const std::vector<std::string> violations =
      obs::check_critical_paths(analysis);
  for (const std::string& violation : violations) {
    std::printf("VIOLATION critical_path  %s\n", violation.c_str());
  }
  if (!violations.empty()) return kExitViolation;
  if (dropped_input > 0) {
    std::printf("FAIL: %llu record(s)/line(s) were dropped from the input "
                "— the paths above cover only what parsed\n",
                static_cast<unsigned long long>(dropped_input));
    return kExitViolation;
  }
  std::printf("OK: %llu critical path(s) structurally consistent\n",
              static_cast<unsigned long long>(analysis.paths.size()));
  return kExitOk;
}

/// --export=perfetto [--profile=FILE] [--out=FILE]: Chrome-trace JSON.
int run_export_perfetto(const obs::EventStore& store, const Flags& flags) {
  const std::vector<obs::SpanEvent> spans = obs::normalize_events(store);
  const obs::CriticalPathAnalysis analysis =
      obs::analyze_critical_paths(spans);
  std::vector<obs::ProfileEntry> profile;
  const std::string profile_path = flags.get_string("profile", "");
  if (!profile_path.empty()) {
    std::ifstream in(profile_path);
    if (!in) {
      std::cerr << "cannot open --profile file: " << profile_path << '\n';
      return kExitUsage;
    }
    profile = obs::parse_profile_tsv(in);
  }
  const std::vector<obs::ChromeEvent> chrome =
      obs::build_chrome_events(spans, analysis, profile);
  const std::string json = obs::render_chrome_json(chrome);
  const std::string out_path = flags.get_string("out", "");
  if (out_path.empty()) {
    std::fputs(json.c_str(), stdout);
    return kExitOk;
  }
  std::ofstream out(out_path, std::ios::binary);
  if (!out) {
    std::cerr << "cannot open --out file: " << out_path << '\n';
    return kExitUsage;
  }
  out << json;
  std::printf("wrote %llu trace events to %s (load in ui.perfetto.dev)\n",
              static_cast<unsigned long long>(chrome.size()),
              out_path.c_str());
  return kExitOk;
}

/// A loaded input's accounting. Flight dumps also carry ring telemetry.
struct LoadedInput {
  obs::IngestStats stats;
  bool flight = false;
  obs::FlightStoreInfo flight_info;  // flight dumps only
};

/// The one ingest path of every mode, --follow included: flight dumps are
/// detected by their magic, anything else is read as (sharded) JSONL.
bool load_input(const std::string& path, unsigned jobs,
                obs::EventStore& store, LoadedInput& input,
                std::string* error) {
  input.flight = obs::is_flight_file(path);
  if (input.flight) {
    return obs::load_flight_file(path, store, input.flight_info, input.stats,
                                 error);
  }
  return obs::load_trace_store(path, store, input.stats, error, jobs);
}

std::uint64_t file_size_of(const std::string& path) {
  std::ifstream file(path, std::ios::binary | std::ios::ate);
  if (!file) return 0;
  const auto pos = file.tellg();
  return pos > 0 ? static_cast<std::uint64_t>(pos) : 0;
}

/// One --follow dashboard frame rendered from a freshly loaded store.
void render_follow_frame(const obs::EventStore& store,
                         const std::string& path, std::uint64_t frame,
                         std::uint64_t dropped, bool plain) {
  if (!plain) std::fputs("\x1b[H\x1b[2J", stdout);  // clear + home

  const obs::StrId k_help = store.find_id("help_sent");
  const obs::StrId k_pledge = store.find_id("pledge_sent");
  const obs::StrId k_arrival = store.find_id("task_arrival");
  const obs::StrId k_local = store.find_id("task_admit_local");
  const obs::StrId k_migrated = store.find_id("task_admit_migrated");
  const obs::StrId k_rejected = store.find_id("task_rejected");
  const obs::StrId k_killed = store.find_id("node_killed");
  const obs::StrId k_restored = store.find_id("node_restored");
  const obs::StrId k_sample = store.find_id("node_sample");
  const obs::StrId k_firing = store.find_id("alert_firing");
  const obs::StrId k_cleared = store.find_id("alert_cleared");
  const obs::StrId f_episode = store.find_id("episode");
  const obs::StrId f_rule = store.find_id("rule");
  const obs::StrId f_occupancy = store.find_id("occupancy");
  const obs::StrId f_utilization = store.find_id("utilization");

  double span_end = 0.0;
  std::uint64_t helps = 0, pledges = 0, arrivals = 0, local = 0;
  std::uint64_t migrated = 0, rejected = 0;
  std::set<NodeId> seen, dead;
  std::set<std::uint64_t> open_episodes;
  std::uint64_t episodes_opened = 0, episodes_decided = 0;
  struct NodeGauge {
    double occupancy = 0.0;
    double utilization = 0.0;
  };
  std::map<NodeId, NodeGauge> gauges;
  struct AlertLine {
    double time;
    bool firing;
    std::string rule;
  };
  std::map<std::string, AlertLine> alert_state;  // latest transition / rule
  std::vector<AlertLine> recent;

  for (const obs::EventRec& rec : store.records()) {
    span_end = std::max(span_end, rec.time);
    if (rec.node != kInvalidNode) seen.insert(rec.node);
    if (rec.kind == k_arrival) ++arrivals;
    if (rec.kind == k_local) ++local;
    if (rec.kind == k_pledge) ++pledges;
    if (rec.kind == k_killed) dead.insert(rec.node);
    if (rec.kind == k_restored) dead.erase(rec.node);
    if (rec.kind == k_help) {
      ++helps;
      const obs::EventView view(store, rec);
      const std::uint64_t episode =
          static_cast<std::uint64_t>(view.number(f_episode, 0.0));
      if (episode != 0 && open_episodes.insert(episode).second) {
        ++episodes_opened;
      }
    }
    if (rec.kind == k_migrated || rec.kind == k_rejected) {
      if (rec.kind == k_migrated) ++migrated;
      if (rec.kind == k_rejected) ++rejected;
      const obs::EventView view(store, rec);
      const std::uint64_t episode =
          static_cast<std::uint64_t>(view.number(f_episode, 0.0));
      if (episode != 0 && open_episodes.erase(episode) > 0) {
        ++episodes_decided;
      }
    }
    if (rec.kind == k_sample && rec.node != kInvalidNode) {
      const obs::EventView view(store, rec);
      NodeGauge& gauge = gauges[rec.node];
      gauge.occupancy = view.number(f_occupancy, 0.0);
      gauge.utilization = view.number(f_utilization, 0.0);
    }
    if (rec.kind == k_firing || rec.kind == k_cleared) {
      const obs::EventView view(store, rec);
      const obs::StoredField* rule = view.find(f_rule);
      AlertLine line{rec.time, rec.kind == k_firing,
                     rule != nullptr ? std::string(rule->text) : "?"};
      alert_state[line.rule] = line;
      recent.push_back(std::move(line));
    }
  }

  char when[32];
  format_double(when, sizeof when, "%.3f", span_end);
  std::printf("%s  frame %llu  t=[0, %s]  %llu records",
              path.c_str(), static_cast<unsigned long long>(frame), when,
              static_cast<unsigned long long>(store.size()));
  if (dropped > 0) {
    std::printf("  (%llu dropped)",
                static_cast<unsigned long long>(dropped));
  }
  std::printf("\n\n");

  std::printf("nodes: %llu seen, %llu alive",
              static_cast<unsigned long long>(seen.size()),
              static_cast<unsigned long long>(seen.size() - dead.size()));
  if (!dead.empty()) {
    std::printf(", %llu dead", static_cast<unsigned long long>(dead.size()));
  }
  std::printf("\ntasks: %llu arrivals, %llu admitted "
              "(local %llu / migrated %llu), %llu rejected\n",
              static_cast<unsigned long long>(arrivals),
              static_cast<unsigned long long>(local + migrated),
              static_cast<unsigned long long>(local),
              static_cast<unsigned long long>(migrated),
              static_cast<unsigned long long>(rejected));
  std::printf("messages: %llu help, %llu pledge\n",
              static_cast<unsigned long long>(helps),
              static_cast<unsigned long long>(pledges));
  std::printf("episodes: %llu opened, %llu decided, %llu open\n",
              static_cast<unsigned long long>(episodes_opened),
              static_cast<unsigned long long>(episodes_decided),
              static_cast<unsigned long long>(open_episodes.size()));

  if (!alert_state.empty()) {
    std::printf("\nalerts:\n");
    char time[32];
    for (const auto& [rule, line] : alert_state) {
      format_double(time, sizeof time, "%.3f", line.time);
      std::printf("  %-24s %s since %s\n", rule.c_str(),
                  line.firing ? "FIRING" : "clear ", time);
    }
    const std::size_t show = std::min<std::size_t>(recent.size(), 5);
    std::printf("recent transitions:\n");
    for (std::size_t i = recent.size() - show; i < recent.size(); ++i) {
      format_double(time, sizeof time, "%.3f", recent[i].time);
      std::printf("  %10s  %s %s\n", time,
                  recent[i].firing ? "firing " : "cleared",
                  recent[i].rule.c_str());
    }
  }

  if (!gauges.empty()) {
    std::printf("\n%6s %10s %12s  (latest node_sample)\n", "node",
                "occupancy", "utilization");
    std::size_t shown = 0;
    for (const auto& [node, gauge] : gauges) {
      if (shown >= 16) {
        std::printf("  ... %llu more nodes\n",
                    static_cast<unsigned long long>(gauges.size() - shown));
        break;
      }
      ++shown;
      char occ[32], util[32];
      format_double(occ, sizeof occ, "%.3f", gauge.occupancy);
      format_double(util, sizeof util, "%.3f", gauge.utilization);
      std::printf("%6llu %10s %12s\n",
                  static_cast<unsigned long long>(node), occ, util);
    }
  }
  std::fflush(stdout);
}

/// --follow: poll the file, reload on growth, render a dashboard frame.
/// Terminates on --once, --max-frames, or --idle-exit; with --check the
/// invariant gate then runs over the final load (exit 2 on violation or
/// dropped input). Runs forever otherwise (Ctrl-C to stop).
int run_follow(const std::string& path, const Flags& flags, unsigned jobs) {
  const double refresh = std::max(0.05, flags.get_double("refresh", 1.0));
  const bool once = flags.get_bool("once", false);
  const bool plain = flags.get_bool("plain", false);
  const double idle_exit = flags.get_double("idle-exit", 0.0);
  const std::uint64_t max_frames = static_cast<std::uint64_t>(
      std::max<std::int64_t>(flags.get_int("max-frames", 0), 0));
  const bool check = flags.get_bool("check", false);
  if (check && !once && idle_exit <= 0.0 && max_frames == 0) {
    std::cerr << "--follow --check needs a termination condition "
                 "(--once, --idle-exit=<s> or --max-frames=<n>) so the "
                 "gate has a final trace to judge\n";
    return kExitUsage;
  }

  // Reloads the whole file; incremental tailing would be unsound for
  // flight dumps (rewritten, not appended) and buys little for JSONL at
  // dashboard cadence.
  std::uint64_t dropped = 0;
  const auto load = [&](obs::EventStore& store, std::string* error) {
    LoadedInput input;
    if (!load_input(path, jobs, store, input, error)) return false;
    dropped = input.stats.malformed;
    return true;
  };

  std::uint64_t last_size = ~0ull;
  std::uint64_t frames = 0;
  auto last_change = std::chrono::steady_clock::now();
  bool loaded_once = false;
  obs::EventStore final_store;
  std::uint64_t final_dropped = 0;
  for (;;) {
    const std::uint64_t size = file_size_of(path);
    if (size != last_size) {
      last_size = size;
      last_change = std::chrono::steady_clock::now();
      obs::EventStore store;
      std::string error;
      if (!load(store, &error)) {
        if (!loaded_once) {
          std::cerr << path << ": " << error << '\n';
          return kExitUsage;
        }
        // A reload can race a mid-rewrite flight dump; keep the last
        // good frame and retry at the next poll.
      } else {
        loaded_once = true;
        ++frames;
        render_follow_frame(store, path, frames, dropped, plain);
        final_store = std::move(store);
        final_dropped = dropped;
      }
    }
    if (once && loaded_once) break;
    if (max_frames > 0 && frames >= max_frames) break;
    if (idle_exit > 0.0 && loaded_once &&
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      last_change)
                .count() >= idle_exit) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::duration<double>(refresh));
  }

  if (!check) return kExitOk;
  const int result = run_check(final_store, flags);
  if (result == kExitOk && final_dropped > 0) {
    std::printf("FAIL: %llu record(s)/line(s) were dropped from the final "
                "load — the clean verdict above covers only what parsed\n",
                static_cast<unsigned long long>(final_dropped));
    return kExitViolation;
  }
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  std::string path = flags.get_string("in", "");
  if (path.empty() && !flags.positional().empty()) {
    path = flags.positional().front();
  }
  if (path.empty() || flags.get_bool("help", false)) {
    std::cout << "usage: realtor_trace <run.jsonl|flight.bin> "
                 "[--node=<id>] [--kind=<name>] [--intervals] "
                 "[--episodes] [--check] [--scorecard] "
                 "[--critical-path] [--blame[=<k>]] [--top=<k>] "
                 "[--export=perfetto] [--profile=<tsv>] [--out=<file>] "
                 "[--format=csv|json] [--limit=<n>] [--jobs=<n>] [--stats]\n"
                 "       realtor_trace <file> --follow [--refresh=<s>] "
                 "[--once] [--plain] [--idle-exit=<s>] [--max-frames=<n>] "
                 "[--check]\n"
                 "--check options: --initial-interval --upper-limit "
                 "--interval-floor --alpha --beta --pledge-threshold "
                 "--tolerance\n"
                 "exit codes: 0 ok, 1 usage/unreadable input, "
                 "2 gate violation (see README for the full contract)\n";
    return path.empty() ? kExitUsage : kExitOk;
  }

  // 0 = resolve_jobs: one parse shard per hardware thread. Serial and
  // parallel ingest produce identical stores, so --jobs never changes
  // what any mode below prints.
  const unsigned jobs =
      static_cast<unsigned>(std::max<std::int64_t>(flags.get_int("jobs", 0),
                                                   0));
  const bool want_stats = flags.get_bool("stats", false);

  if (flags.get_bool("follow", false)) {
    // --follow is a live viewer: it owns ingestion (reload-on-growth) and
    // renders a dashboard, so the offline analysis modes cannot combine
    // with it — only --check (as a post-follow gate) and the follow knobs.
    for (const char* incompatible :
         {"episodes", "intervals", "scorecard", "critical-path", "blame",
          "export", "node", "kind", "format"}) {
      if (flags.has(incompatible)) {
        std::cerr << "--follow does not combine with --" << incompatible
                  << " (follow renders the live dashboard; run the "
                     "analysis mode on the finished file instead)\n";
        return kExitUsage;
      }
    }
    return run_follow(path, flags, jobs);
  }

  obs::EventStore store;
  std::string error;
  const auto ingest_start = std::chrono::steady_clock::now();
  LoadedInput input;
  if (!load_input(path, jobs, store, input, &error)) {
    std::cerr << path << ": " << error << '\n';
    return kExitUsage;
  }
  const obs::IngestStats& ingest = input.stats;
  if (input.flight) {
    const obs::FlightStoreInfo& info = input.flight_info;
    if (info.total_dropped() > 0) {
      std::cerr << path << ": ring wrap-around dropped "
                << info.total_dropped()
                << " oldest record(s) before the dump\n";
    }
    if (ingest.malformed > 0) {
      std::cerr << path << ": "
                << (info.truncated ? "truncated dump, " : "")
                << ingest.malformed
                << " unrecoverable record(s) skipped\n";
    }
  } else if (ingest.malformed > 0) {
    std::cerr << path << ": skipped " << ingest.malformed
              << " malformed line(s), first at line "
              << ingest.first_malformed_line << ": " << ingest.first_error
              << '\n';
  }
  // Input records/lines that were skipped rather than analyzed; any
  // --check gate refuses a clean verdict while this is non-zero.
  const std::uint64_t dropped_input = ingest.malformed;
  if (want_stats) {
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      ingest_start)
            .count();
    const double mib = static_cast<double>(ingest.bytes) / (1024.0 * 1024.0);
    char rate[32];
    format_double(rate, sizeof rate, "%.1f",
                  seconds > 0.0 ? mib / seconds : 0.0);
    const char* mode =
        input.flight ? "flight" : (ingest.mapped ? "mmap" : "read");
    std::fprintf(stderr,
                 "ingest: %llu bytes, %llu events, %llu malformed, "
                 "%s MB/s (%s, shards=%u)\n",
                 static_cast<unsigned long long>(ingest.bytes),
                 static_cast<unsigned long long>(store.size()),
                 static_cast<unsigned long long>(ingest.malformed), rate,
                 mode, ingest.shards);
  }

  const std::string format = flags.get_string("format", "text");
  const bool scorecard_mode = flags.get_bool("scorecard", false);
  if (format != "text" && format != "csv" &&
      !(format == "json" && scorecard_mode)) {
    std::cerr << "unknown --format: " << format
              << " (text|csv; json with --scorecard)\n";
    return kExitUsage;
  }
  const bool csv = format == "csv";

  if (flags.has("export")) {
    const std::string export_format = flags.get_string("export", "");
    if (export_format != "perfetto") {
      std::cerr << "unknown --export: " << export_format
                << " (perfetto)\n";
      return kExitUsage;
    }
    return run_export_perfetto(store, flags);
  }

  if (flags.get_bool("critical-path", false) || flags.has("blame")) {
    return run_critical_path(store, flags, dropped_input);
  }

  if (flags.get_bool("check", false)) {
    const int result = run_check(store, flags);
    if (result == kExitOk && dropped_input > 0) {
      std::printf("FAIL: %llu malformed record(s)/line(s) were dropped "
                  "from the input — the clean verdict above covers only "
                  "what parsed\n",
                  static_cast<unsigned long long>(dropped_input));
      return kExitViolation;
    }
    return result;
  }

  if (scorecard_mode) {
    const obs::Scorecard scorecard = obs::build_scorecard(store);
    const std::string out = format == "json"
                                ? obs::render_scorecard_json(scorecard)
                                : obs::render_scorecard_text(scorecard);
    std::fputs(out.c_str(), stdout);
    return kExitOk;
  }

  if (flags.get_bool("episodes", false)) {
    const std::vector<obs::Episode> episodes =
        obs::build_episodes(obs::normalize_events(store));
    if (csv) {
      print_episodes_csv(episodes);
    } else {
      print_episodes(episodes,
                     static_cast<std::uint64_t>(flags.get_int("limit", 50)));
    }
    return kExitOk;
  }

  if (flags.get_bool("intervals", false)) {
    print_intervals(store);
    return kExitOk;
  }

  const bool filter_node = flags.has("node");
  const NodeId node = static_cast<NodeId>(flags.get_int("node", 0));
  const bool filter_kind = flags.has("kind");
  const std::string kind = flags.get_string("kind", "");
  obs::StrId kind_id = obs::kNoStrId;
  if (filter_kind) {
    obs::EventKind parsed;
    if (!obs::parse_event_kind(kind, parsed)) {
      std::cerr << "unknown event kind: " << kind << '\n';
      return kExitUsage;
    }
    kind_id = store.find_id(kind);
  }
  if (csv) {
    print_events_csv(store, filter_node, node, filter_kind, kind_id);
    return kExitOk;
  }
  if (filter_node || filter_kind) {
    print_timeline(store, filter_node, node, filter_kind, kind_id,
                   static_cast<std::uint64_t>(flags.get_int("limit", 100)));
    return kExitOk;
  }
  print_summary(store);
  return kExitOk;
}
