#include "obs/live/live_plane.hpp"

#include <cstring>

#include "common/format.hpp"

namespace realtor::obs::live {

namespace {

/// Open episodes older than this many windows are dropped from the open
/// count at the next tick.
constexpr double kEpisodeTimeoutWindows = 10.0;

/// The event's first `key` field, or nullptr.
const TraceField* find_field(const TraceEvent& event, const char* key) {
  for (std::uint32_t i = 0; i < event.field_count; ++i) {
    if (std::strcmp(event.fields[i].key, key) == 0) return &event.fields[i];
  }
  return nullptr;
}

/// The event's episode id; 0 when absent or not an unsigned field.
std::uint64_t episode_of(const TraceEvent& event) {
  const TraceField* field = find_field(event, "episode");
  return field != nullptr && field->type == TraceField::Type::kUint
             ? field->u
             : 0;
}

bool field_bool(const TraceEvent& event, const char* key) {
  const TraceField* field = find_field(event, key);
  return field != nullptr && field->type == TraceField::Type::kBool &&
         field->b;
}

}  // namespace

LivePlane::LivePlane(LiveConfig config, TraceSink* downstream)
    : core_(std::move(config), ""),
      downstream_(downstream),
      alive_(static_cast<std::int64_t>(core_.config().node_count)) {}

void LivePlane::set_owned_downstream(std::unique_ptr<TraceSink> downstream) {
  owned_downstream_ = std::move(downstream);
  downstream_ = owned_downstream_.get();
}

void LivePlane::on_event(const TraceEvent& event) {
  // Forward first so self-emitted alert events land after the tick that
  // produced them, in both live and prefix-replay ingestion.
  if (downstream_ != nullptr) downstream_->on_event(event);
  ingest(event);
}

void LivePlane::ingest(const TraceEvent& event) {
  ++events_seen_;
  if (event.kind < EventKind::kCount) {
    ++kind_totals_[static_cast<std::size_t>(event.kind)];
  }
  const SimTime now = event.time;
  switch (event.kind) {
    case EventKind::kTaskAdmitLocal:
    case EventKind::kTaskAdmitMigrated:
      on_decision(now, true, episode_of(event));
      break;
    case EventKind::kTaskRejected:
      // Rejections count toward their own rate only, not the message
      // economy.
      core_.occurrence(RuleSignal::kRejectionRate, now);
      on_decision(now, false, episode_of(event));
      break;
    case EventKind::kHelpSent: {
      core_.occurrence(RuleSignal::kHelpRate, now);
      core_.occurrence(RuleSignal::kMessageRate, now);
      const std::uint64_t episode = episode_of(event);
      if (episode != 0) open_.emplace(episode, now);
      break;
    }
    case EventKind::kPledgeSent:
    case EventKind::kAdvertSent:
    case EventKind::kGossipRound:
    case EventKind::kSolicit:
    case EventKind::kEscalation:
      core_.occurrence(RuleSignal::kMessageRate, now);
      break;
    case EventKind::kNodeKilled:
      --alive_;
      break;
    case EventKind::kNodeRestored:
      ++alive_;
      break;
    case EventKind::kLiveTick:
      tick(now, field_bool(event, "final"));
      break;
    default:
      break;
  }
}

void LivePlane::on_decision(SimTime now, bool admitted,
                            std::uint64_t episode) {
  core_.decision(admitted);
  if (episode != 0) {
    const auto it = open_.find(episode);
    if (it != open_.end()) {
      const double latency = now - it->second;
      open_.erase(it);
      core_.latency(now, latency);
    }
  }
}

void LivePlane::tick(SimTime now, bool final_tick) {
  // Drop abandoned episodes (opened, never decided — e.g. the organizer
  // died) so open_episodes measures live distress, not history.
  const double timeout = kEpisodeTimeoutWindows * core_.config().window;
  while (!open_.empty() && open_.begin()->second < now - timeout) {
    open_.erase(open_.begin());
  }

  const auto emit_alert = [this, now](const AlertRule& rule, bool firing,
                                      double value, double bound) {
    TraceEvent alert(now, kInvalidNode,
                     firing ? EventKind::kAlertFiring
                            : EventKind::kAlertCleared);
    alert.with("rule", rule.name.c_str())
        .with("signal", to_string(rule.signal))
        .with("value", value)
        .with("bound", bound);
    if (downstream_ != nullptr) downstream_->on_event(alert);
    if (alert_listener_) alert_listener_(rule, firing, now, value);
  };
  const auto render_event_totals = [this](std::string& out) {
    for (std::size_t kind = 0; kind < kind_totals_.size(); ++kind) {
      if (kind_totals_[kind] == 0) continue;
      out += "realtor_live_events_total{kind=\"";
      out += to_string(static_cast<EventKind>(kind));
      out += "\"} ";
      append_u64(out, kind_totals_[kind]);
      out += '\n';
    }
  };
  core_.tick(now, final_tick, LiveCore::Gauges{alive_, open_.size()},
             emit_alert, render_event_totals);
}

void LivePlane::flush() {
  core_.flush();
  if (downstream_ != nullptr) downstream_->flush();
}

}  // namespace realtor::obs::live
