// Reader for flight-recorder dumps (see flight_recorder.hpp for the
// format). Decodes the packed rings straight into an EventStore — the
// same store the JSONL loader fills — so every realtor_trace mode, the
// span builder, the invariant checker and the scorecard run unchanged on
// binary dumps.
//
// Semantics match a JSONL round trip field for field: uints come back as
// JSON numbers, non-finite doubles come back as the quoted strings the
// sink would have written ("nan"/"inf"/"-inf"), node 0xFFFFFFFF reads as
// the omitted-node sentinel kInvalidNode.
#pragma once

#include <string>
#include <vector>

#include "obs/event_store.hpp"
#include "obs/flight_recorder.hpp"

namespace realtor::obs {

/// True when the file starts with the flight-recorder magic — how
/// realtor_trace auto-detects binary dumps next to JSONL traces.
bool is_flight_file(const std::string& path);

/// Ring/truncation telemetry of a dump (what the store does not hold).
struct FlightStoreInfo {
  std::vector<FlightRingInfo> rings;
  /// True when the file ended mid-ring: every intact record up to the cut
  /// was salvaged and the remainder counted as malformed.
  bool truncated = false;

  std::uint64_t total_recorded() const;
  std::uint64_t total_dropped() const;
};

/// Loads a dump into `out`. All rings' records are merged into one
/// stream, stably sorted by time (ties keep ring order, and within a ring
/// the recorded order); for single-ring simulation dumps that is exactly
/// emission order.
///
/// False with a reason in `error` only when nothing is recoverable:
/// unreadable file, bad magic, or a header (name table / ring count /
/// first ring header) cut short. Damage past the headers — a ring
/// truncated mid-record, records with unknown kinds or name ids — never
/// fails the load: intact records are salvaged and the loss is counted.
///
/// Accounting lands in `stats` with the JSONL loader's meaning: `lines`
/// counts the records the intact ring headers claimed, `events` the
/// decoded ones, `malformed` = lines - events (rejected records plus
/// records lost to mid-ring truncation), `first_malformed_line` the
/// 1-based ordinal of the first lost record in ring-major order,
/// `first_error` the reason; `bytes` is the file size.
bool load_flight_file(const std::string& path, EventStore& out,
                      FlightStoreInfo& info, IngestStats& stats,
                      std::string* error = nullptr);

}  // namespace realtor::obs
