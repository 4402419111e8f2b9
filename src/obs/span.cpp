#include "obs/span.hpp"

#include <map>
#include <string_view>

namespace realtor::obs {
namespace {

/// The SpanEvent member a payload key lands in.
enum class SpanField : std::uint8_t {
  kNone, kEpisode, kPeer, kAvailability, kInterval, kUrgency, kAnswered,
  kLineage, kCause, kBackoff
};

struct SpanKey {
  const char* key;
  SpanField field;
};

/// The one key table both normalizers resolve against.
constexpr SpanKey kSpanKeys[] = {
    {"episode", SpanField::kEpisode},
    {"origin", SpanField::kPeer},
    {"organizer", SpanField::kPeer},
    {"pledger", SpanField::kPeer},
    {"target", SpanField::kPeer},
    {"availability", SpanField::kAvailability},
    {"interval", SpanField::kInterval},
    {"urgency", SpanField::kUrgency},
    {"answered", SpanField::kAnswered},
    {"id", SpanField::kLineage},
    {"cause", SpanField::kCause},
    {"backoff", SpanField::kBackoff},
};

SpanField span_field(std::string_view key) {
  for (const SpanKey& entry : kSpanKeys) {
    if (key == entry.key) return entry.field;
  }
  return SpanField::kNone;
}

/// `number` is the field's numeric value (0.0 for non-number types);
/// `answered` takes only a bool-typed field.
void apply_field(SpanEvent& out, SpanField field, double number,
                 bool is_bool, bool boolean) {
  using F = SpanField;
  if (field == F::kEpisode) out.episode = static_cast<std::uint64_t>(number);
  if (field == F::kPeer) out.peer = static_cast<NodeId>(number);
  if (field == F::kAvailability) out.availability = number;
  if (field == F::kInterval) out.interval = number;
  if (field == F::kUrgency) out.urgency = number;
  if (field == F::kAnswered && is_bool) out.answered = boolean;
  if (field == F::kLineage) out.lineage = static_cast<std::uint64_t>(number);
  if (field == F::kCause) out.cause = static_cast<std::uint64_t>(number);
  if (field == F::kBackoff) out.backoff = number;
}

}  // namespace

SpanEvent normalize(const TraceEvent& event) {
  SpanEvent out;
  out.time = event.time;
  out.node = event.node;
  out.kind = event.kind;
  for (std::uint32_t i = 0; i < event.field_count; ++i) {
    const TraceField& field = event.fields[i];
    double number = 0.0;
    switch (field.type) {
      case TraceField::Type::kUint:
        number = static_cast<double>(field.u);
        break;
      case TraceField::Type::kDouble:
        number = field.d;
        break;
      default:
        break;
    }
    // Read the union's bool member only when it is the active one.
    const bool is_bool = field.type == TraceField::Type::kBool;
    apply_field(out, span_field(field.key), number, is_bool,
                is_bool && field.b);
  }
  return out;
}

std::vector<SpanEvent> normalize_events(
    const std::vector<TraceEvent>& events) {
  std::vector<SpanEvent> out;
  out.reserve(events.size());
  for (const TraceEvent& event : events) {
    out.push_back(normalize(event));
  }
  return out;
}

std::vector<SpanEvent> normalize_events(const EventStore& store) {
  // Resolve the key table to interned ids once: by_id[key] is the field a
  // stored key lands in. Keys the trace never used resolve to kNoStrId,
  // which no stored field carries.
  std::vector<SpanField> by_id;
  for (const SpanKey& entry : kSpanKeys) {
    const StrId id = store.find_id(entry.key);
    if (id == kNoStrId) continue;
    if (id >= by_id.size()) by_id.resize(id + 1, SpanField::kNone);
    by_id[id] = entry.field;
  }

  std::vector<SpanEvent> out;
  out.reserve(store.size());
  const std::vector<StoredField>& fields = store.fields();
  for (const EventRec& rec : store.records()) {
    const EventKind kind = store.kind_of(rec.kind);
    if (kind == EventKind::kCount) continue;  // unknown kind: skip
    SpanEvent span;
    span.time = rec.time;
    span.node = rec.node;
    span.kind = kind;
    const StoredField* field = fields.data() + rec.field_begin;
    const StoredField* end = field + rec.field_count;
    for (; field != end; ++field) {
      if (field->key >= by_id.size()) continue;
      const bool is_bool = field->type == FieldType::kBool;
      apply_field(span, by_id[field->key], field->number, is_bool,
                  is_bool && field->boolean);
    }
    out.push_back(span);
  }
  return out;
}

std::vector<Episode> build_episodes(const std::vector<SpanEvent>& events) {
  std::map<std::uint64_t, Episode> by_id;
  for (const SpanEvent& event : events) {
    if (event.episode == 0) continue;
    Episode& episode = by_id[event.episode];
    episode.id = event.episode;
    switch (event.kind) {
      case EventKind::kHelpSent:
        // First help_sent wins: an id is allocated exactly once, so a
        // second sighting can only be a malformed trace — keep the first.
        if (!episode.started) {
          episode.started = true;
          episode.origin = event.node;
          episode.start_time = event.time;
          episode.urgency = event.urgency;
        }
        break;
      case EventKind::kHelpReceived:
        ++episode.helps_received;
        break;
      case EventKind::kPledgeSent:
        ++episode.pledges_sent;
        break;
      case EventKind::kPledgeReceived:
        ++episode.pledges_received;
        if (episode.first_pledge_time < 0.0) {
          episode.first_pledge_time = event.time;
        }
        break;
      case EventKind::kMigrationAttempt:
        ++episode.migration_attempts;
        if (episode.first_attempt_time < 0.0) {
          episode.first_attempt_time = event.time;
        }
        break;
      case EventKind::kTaskAdmitMigrated:
        // Duplicates migration_success for counting, but carries the
        // admission-decision timestamp the stage breakdown needs.
        if (episode.first_admission_time < 0.0) {
          episode.first_admission_time = event.time;
        }
        break;
      case EventKind::kDeadlineMiss:
        ++episode.deadline_misses;
        break;
      case EventKind::kUnreachableDrop:
        ++episode.unreachable_drops;
        break;
      case EventKind::kMigrationAbort:
        ++episode.migration_aborts;
        break;
      case EventKind::kMigrationSuccess:
        ++episode.migrations;
        if (episode.first_migration_time < 0.0) {
          episode.first_migration_time = event.time;
          episode.first_migration_target = event.peer;
        }
        break;
      case EventKind::kTaskRejected:
        ++episode.rejections;
        break;
      default:
        break;
    }
  }
  std::vector<Episode> out;
  out.reserve(by_id.size());
  for (auto& [id, episode] : by_id) {
    out.push_back(episode);
  }
  return out;
}

EpisodeSummary summarize_episodes(const std::vector<Episode>& episodes) {
  EpisodeSummary summary;
  for (const Episode& episode : episodes) {
    ++summary.episodes;
    if (!episode.started) continue;  // latencies need the opening HELP
    if (episode.has_pledge()) {
      ++summary.with_pledge;
      summary.time_to_first_pledge.observe(episode.time_to_first_pledge());
    }
    if (episode.has_migration()) {
      ++summary.with_migration;
      summary.time_to_migration.observe(episode.time_to_migration());
    }
  }
  return summary;
}

}  // namespace realtor::obs
