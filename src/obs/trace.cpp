#include "obs/trace.hpp"

#include <iterator>

#include "common/assert.hpp"

namespace realtor::obs {

namespace {

/// Stable names, in EventKind order.
constexpr const char* kKindNames[] = {
    "help_sent",         "help_received",       "pledge_sent",
    "pledge_received",   "advert_sent",         "gossip_round",
    "help_interval",     "threshold_crossing",  "community_join",
    "community_expire",  "solicit",             "task_arrival",
    "task_admit_local",  "task_admit_migrated", "task_rejected",
    "task_completed",    "migration_attempt",   "migration_abort",
    "migration_success", "node_killed",         "node_restored",
    "evacuation",        "escalation",          "deadline_miss",
    "unreachable_drop",  "engine_step",         "node_sample",
    "system_sample",     "live_tick",           "alert_firing",
    "alert_cleared",
};
static_assert(std::size(kKindNames) ==
                  static_cast<std::size_t>(EventKind::kCount),
              "one name per EventKind");

}  // namespace

const char* to_string(EventKind kind) {
  const auto index = static_cast<std::size_t>(kind);
  return index < std::size(kKindNames) ? kKindNames[index] : "?";
}

bool parse_event_kind(std::string_view name, EventKind& out) {
  for (std::size_t i = 0; i < std::size(kKindNames); ++i) {
    if (name == kKindNames[i]) {
      out = static_cast<EventKind>(i);
      return true;
    }
  }
  return false;
}

TraceField& TraceEvent::next(const char* key) {
  REALTOR_ASSERT_MSG(field_count < kMaxTraceFields,
                     "trace event payload too large");
  TraceField& field = fields[field_count++];
  field.key = key;
  return field;
}

std::size_t MemorySink::count(EventKind kind) const {
  std::size_t n = 0;
  for (const TraceEvent& event : events_) {
    if (event.kind == kind) ++n;
  }
  return n;
}

std::vector<TraceEvent> MemorySink::events_of(NodeId node) const {
  std::vector<TraceEvent> out;
  for (const TraceEvent& event : events_) {
    if (event.node == node) out.push_back(event);
  }
  return out;
}

}  // namespace realtor::obs
