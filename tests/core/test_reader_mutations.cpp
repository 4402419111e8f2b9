// Seeded mutation tests for the trace readers. Byte flips, insertions and
// deletions are applied to a JsonlSink-written buffer and to a multi-ring
// flight dump; whatever the damage, a reader must
//
//   - neither crash nor hang (and neither may the analyzers that consume
//     what it salvaged);
//   - account for every input line or claimed record:
//     lines == events + malformed;
//   - for JSONL, produce the same store and accounting at jobs=1 and
//     jobs=4.
//
// Plain gtest with fixed seeds: every failure replays exactly.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "obs/event_store.hpp"
#include "obs/flight_reader.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/invariants.hpp"
#include "obs/jsonl_sink.hpp"
#include "obs/scorecard.hpp"
#include "obs/trace.hpp"

namespace realtor::obs {
namespace {

// Keys the analyzers read, so damaged values reach their code paths.
const char* const kKeys[] = {"episode", "origin",   "pledger", "target",
                             "id",      "cause",    "urgency", "availability",
                             "answered", "lost",    "resident", "saved",
                             "interval", "backoff", "reason"};
const char* const kStrings[] = {"plain", "", "quote\"back\\slash",
                                "line\nbreak\ttab", "ctl\x01\x1f"};

/// A random but well-formed trace record over every kind and payload type.
TraceEvent random_event(std::mt19937_64& rng, double time) {
  const auto kind = static_cast<EventKind>(
      rng() % static_cast<std::uint64_t>(EventKind::kCount));
  const NodeId node =
      rng() % 10 == 0 ? kInvalidNode : static_cast<NodeId>(rng() % 25);
  TraceEvent event(time, node, kind);
  const std::uint64_t fields = rng() % (kMaxTraceFields + 1);
  for (std::uint64_t f = 0; f < fields; ++f) {
    const char* key = kKeys[rng() % std::size(kKeys)];
    switch (rng() % 4) {
      case 0:
        event.with(key, static_cast<std::uint64_t>(rng() % 64));
        break;
      case 1:
        event.with(key, static_cast<double>(rng() % 1000) / 8.0);
        break;
      case 2:
        event.with(key, rng() % 2 == 0);
        break;
      default:
        event.with(key, kStrings[rng() % std::size(kStrings)]);
        break;
    }
  }
  return event;
}

/// One random edit: flip a bit, insert a byte (biased towards JSON
/// structure and newlines) or delete a short run. `window` > 0 confines
/// the edit to the first `window` bytes (the dump headers).
void mutate(std::string& bytes, std::mt19937_64& rng, std::size_t window) {
  static const char kInserts[] = "{}[]\":,\\\n0123456789.-eE tnf";
  const std::size_t span =
      window > 0 && window < bytes.size() ? window : bytes.size();
  const std::size_t pos = span > 0 ? rng() % span : 0;
  switch (rng() % 3) {
    case 0:
      if (!bytes.empty()) {
        bytes[pos] = static_cast<char>(bytes[pos] ^ (1 << (rng() % 8)));
      }
      break;
    case 1: {
      const char c = rng() % 4 == 0
                         ? static_cast<char>(rng() % 256)
                         : kInserts[rng() % (sizeof kInserts - 1)];
      bytes.insert(bytes.begin() + static_cast<std::ptrdiff_t>(pos), c);
      break;
    }
    default:
      if (!bytes.empty()) bytes.erase(pos, 1 + rng() % 8);
      break;
  }
}

/// Runs the heaviest consumers over a salvaged store: they must cope with
/// any record a reader accepts.
void analyze(const EventStore& store) {
  const Scorecard card = build_scorecard(store);
  EXPECT_EQ(card.records, store.size());
  (void)check_invariants(store);
}

void expect_accounted(const EventStore& store, const IngestStats& stats) {
  EXPECT_EQ(stats.lines, stats.events + stats.malformed);
  EXPECT_EQ(stats.events, store.size());
  EXPECT_EQ(stats.malformed > 0, stats.first_malformed_line > 0);
}

/// Field-for-field equality, interned ids included.
void expect_same_store(const EventStore& a, const EventStore& b) {
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.fields().size(), b.fields().size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    const EventRec& ra = a.records()[i];
    const EventRec& rb = b.records()[i];
    ASSERT_EQ(ra.time, rb.time) << i;
    ASSERT_EQ(ra.node, rb.node) << i;
    ASSERT_EQ(ra.kind, rb.kind) << i;
    ASSERT_EQ(a.name(ra.kind), b.name(rb.kind)) << i;
    ASSERT_EQ(ra.field_begin, rb.field_begin) << i;
    ASSERT_EQ(ra.field_count, rb.field_count) << i;
  }
  for (std::size_t f = 0; f < a.fields().size(); ++f) {
    const StoredField& fa = a.fields()[f];
    const StoredField& fb = b.fields()[f];
    ASSERT_EQ(fa.key, fb.key) << f;
    ASSERT_EQ(fa.type, fb.type) << f;
    ASSERT_EQ(fa.boolean, fb.boolean) << f;
    ASSERT_EQ(fa.text, fb.text) << f;
    // Bit-level: a damaged number may parse to NaN, and NaN != NaN.
    ASSERT_EQ(std::memcmp(&fa.number, &fb.number, sizeof fa.number), 0) << f;
  }
}

TEST(ReaderMutation, DamagedJsonlIsAccountedAndShardInvariant) {
  std::mt19937_64 rng(20261019);
  std::ostringstream text;
  {
    JsonlSink sink(text);
    double time = 0.0;
    // ~280 KiB: enough for jobs=4 to really split into four shards.
    while (text.tellp() < 280 * 1024) {
      time += static_cast<double>(rng() % 1000) / 1000.0;
      sink.on_event(random_event(rng, time));
    }
    sink.flush();
  }
  const std::string clean = text.str();

  for (int mutant = 0; mutant < 40; ++mutant) {
    SCOPED_TRACE("mutant " + std::to_string(mutant));
    std::string bytes = clean;
    const std::uint64_t edits = 1 + rng() % 32;
    for (std::uint64_t e = 0; e < edits; ++e) mutate(bytes, rng, 0);

    EventStore serial;
    IngestStats serial_stats;
    ASSERT_TRUE(load_trace_buffer(bytes, serial, serial_stats, nullptr, 1));
    expect_accounted(serial, serial_stats);

    EventStore sharded;
    IngestStats sharded_stats;
    ASSERT_TRUE(load_trace_buffer(bytes, sharded, sharded_stats, nullptr, 4));
    EXPECT_EQ(sharded_stats.shards, 4u);
    EXPECT_EQ(sharded_stats.lines, serial_stats.lines);
    EXPECT_EQ(sharded_stats.events, serial_stats.events);
    EXPECT_EQ(sharded_stats.malformed, serial_stats.malformed);
    EXPECT_EQ(sharded_stats.first_malformed_line,
              serial_stats.first_malformed_line);
    EXPECT_EQ(sharded_stats.first_error, serial_stats.first_error);
    expect_same_store(serial, sharded);

    analyze(serial);
  }
}

TEST(ReaderMutation, DamagedFlightDumpFailsCleanlyOrIsAccounted) {
  std::mt19937_64 rng(7031);
  const std::string path = ::testing::TempDir() + "reader_mutation.bin";
  std::string clean;
  {
    // Three wrapped rings, so ring headers with nonzero drop counters sit
    // between record runs.
    FlightRecorder recorder(/*capacity_per_ring=*/48);
    double time = 0.0;
    for (int i = 0; i < 150; ++i) {
      time += 0.25;
      recorder.ring(static_cast<std::uint64_t>(i % 3))
          .on_event(random_event(rng, time));
    }
    ASSERT_TRUE(recorder.dump(path));
    std::FILE* file = std::fopen(path.c_str(), "rb");
    ASSERT_NE(file, nullptr);
    char chunk[4096];
    std::size_t got = 0;
    while ((got = std::fread(chunk, 1, sizeof chunk, file)) > 0) {
      clean.append(chunk, got);
    }
    std::fclose(file);
  }

  std::size_t failed = 0;
  for (int mutant = 0; mutant < 300; ++mutant) {
    SCOPED_TRACE("mutant " + std::to_string(mutant));
    std::string bytes = clean;
    const std::uint64_t edits = 1 + rng() % 4;
    for (std::uint64_t e = 0; e < edits; ++e) {
      // Half the edits land in the magic + name table + first ring
      // header, where one bad count can mislead everything after it.
      mutate(bytes, rng, rng() % 2 == 0 ? 400 : 0);
    }
    {
      std::FILE* file = std::fopen(path.c_str(), "wb");
      ASSERT_NE(file, nullptr);
      std::fwrite(bytes.data(), 1, bytes.size(), file);
      std::fclose(file);
    }

    EventStore store;
    FlightStoreInfo info;
    IngestStats stats;
    std::string error;
    if (!load_flight_file(path, store, info, stats, &error)) {
      EXPECT_FALSE(error.empty());
      ++failed;
      continue;
    }
    expect_accounted(store, stats);
    analyze(store);
  }
  std::remove(path.c_str());
  // The mix must exercise both outcomes, or the test checks nothing.
  EXPECT_GT(failed, 0u);
  EXPECT_LT(failed, 300u);
}

}  // namespace
}  // namespace realtor::obs
