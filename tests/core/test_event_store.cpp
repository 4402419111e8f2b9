// EventStore ingest tests — the contract of the one trace reader:
//
//   - whatever JsonlSink writes, load_trace_buffer() reads back as exactly
//     the TraceEvents that produced the bytes (randomized round trip over
//     every payload type, escape-heavy strings included);
//   - shard boundaries are invisible: any --jobs value produces the same
//     store and the same malformed accounting, even when lines straddle
//     chunk edges;
//   - malformed lines are counted with pinned error strings and line
//     numbers;
//   - flight dumps decode into the same event model, including truncation
//     salvage;
//   - the parse hot loop does not allocate per event (global operator new
//     counter — this file is its own test binary so the override only
//     observes event-store work).
//
// The pinned strings and counts were recorded from the original
// per-record string reader before it was deleted; the "Legacy" and
// "ParseJsonlLine" test names refer to that reader's recorded outputs.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <new>
#include <random>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "obs/event_store.hpp"
#include "obs/flight_reader.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/jsonl_sink.hpp"
#include "obs/trace.hpp"

// ---- global allocation counter ------------------------------------------

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void* operator new(std::size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = nullptr;
  if (posix_memalign(&p, static_cast<std::size_t>(align),
                     size == 0 ? 1 : size) != 0) {
    throw std::bad_alloc();
  }
  return p;
}

void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}

// The nothrow forms must be replaced too: std::stable_sort's temporary
// buffer comes from nothrow new and goes back through plain delete, so a
// default nothrow new paired with the free() below is a mismatched pair.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}

void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}

void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = nullptr;
  if (posix_memalign(&p, static_cast<std::size_t>(align),
                     size == 0 ? 1 : size) != 0) {
    return nullptr;
  }
  return p;
}

void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t& tag) noexcept {
  return ::operator new(size, align, tag);
}

// Not inlined: GCC would otherwise see free() on a pointer it knows came
// from operator new and report a mismatched pair that is not one (the
// replacement operator new above allocates with malloc).
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace realtor::obs {
namespace {

// ---- helpers ------------------------------------------------------------

/// Asserts the store holds exactly `events`, in order, under the JSONL
/// round-trip model: uints and finite doubles read back as numbers,
/// non-finite doubles as the quoted strings the sink writes, and every
/// non-number field keeps number == 0.0 (normalize_events relies on it).
void expect_store_matches_events(const EventStore& store,
                                 const std::vector<TraceEvent>& events) {
  ASSERT_EQ(store.size(), events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    const EventView view = store[i];
    const TraceEvent& event = events[i];
    EXPECT_EQ(view.time(), event.time) << "event " << i;
    EXPECT_EQ(view.node(), event.node) << "event " << i;
    EXPECT_EQ(view.kind(), to_string(event.kind)) << "event " << i;
    ASSERT_EQ(view.field_count(), event.field_count) << "event " << i;
    const StoredField* got = view.fields_begin();
    for (std::uint32_t f = 0; f < event.field_count; ++f, ++got) {
      const TraceField& want = event.fields[f];
      SCOPED_TRACE("event " + std::to_string(i) + " field " + want.key);
      EXPECT_EQ(store.name(got->key), want.key);
      switch (want.type) {
        case TraceField::Type::kUint:
          EXPECT_EQ(got->type, FieldType::kNumber);
          EXPECT_EQ(got->number, static_cast<double>(want.u));
          break;
        case TraceField::Type::kDouble:
          if (std::isfinite(want.d)) {
            EXPECT_EQ(got->type, FieldType::kNumber);
            EXPECT_EQ(got->number, want.d);
          } else {
            EXPECT_EQ(got->type, FieldType::kString);
            EXPECT_EQ(got->text, std::isnan(want.d) ? "nan"
                                 : want.d > 0       ? "inf"
                                                    : "-inf");
          }
          break;
        case TraceField::Type::kString:
          EXPECT_EQ(got->type, FieldType::kString);
          EXPECT_EQ(got->text, want.s);
          break;
        case TraceField::Type::kBool:
          EXPECT_EQ(got->type, FieldType::kBool);
          EXPECT_EQ(got->boolean, want.b);
          break;
        case TraceField::Type::kNone:
          EXPECT_EQ(got->type, FieldType::kNull);
          break;
      }
      if (got->type != FieldType::kNumber) {
        EXPECT_EQ(got->number, 0.0);
      }
    }
  }
}

void expect_same_store(const EventStore& a, const EventStore& b) {
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.fields().size(), b.fields().size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    const EventRec& ra = a.records()[i];
    const EventRec& rb = b.records()[i];
    EXPECT_EQ(ra.time, rb.time) << i;
    EXPECT_EQ(ra.node, rb.node) << i;
    // Ids must match exactly — the parallel merge reproduces serial
    // first-appearance interning, not just equivalent names.
    EXPECT_EQ(ra.kind, rb.kind) << i;
    EXPECT_EQ(a.name(ra.kind), b.name(rb.kind)) << i;
    EXPECT_EQ(ra.field_begin, rb.field_begin) << i;
    EXPECT_EQ(ra.field_count, rb.field_count) << i;
  }
  for (std::size_t f = 0; f < a.fields().size(); ++f) {
    const StoredField& fa = a.fields()[f];
    const StoredField& fb = b.fields()[f];
    EXPECT_EQ(fa.key, fb.key) << f;
    EXPECT_EQ(a.name(fa.key), b.name(fb.key)) << f;
    EXPECT_EQ(fa.type, fb.type) << f;
    EXPECT_EQ(fa.boolean, fb.boolean) << f;
    EXPECT_EQ(fa.text, fb.text) << f;
    if (fa.type == FieldType::kNumber) {
      EXPECT_EQ(fa.number, fb.number) << f;
    }
  }
}

// ---- randomized sink -> reader round trip -------------------------------

TEST(EventStoreRoundTrip, RandomizedSinkOutputParsesIdentically) {
  // Static pools: TraceEvent stores key/value pointers, not copies.
  static const char* kKeys[] = {"episode", "origin",  "urgency", "answered",
                                "reason",  "payload", "k0",      "k1",
                                "k2",      "k3"};
  static const char* kStrings[] = {
      "plain",
      "",
      "with space",
      "quote\"back\\slash",
      "line\nbreak\ttab",
      "ctl\x01\x02\x1f",  // sink escapes these as \u00XX
      "del\x7f",
      "utf8 \xc3\xa9\xc3\xbc",  // raw UTF-8 passes through both paths
  };
  std::mt19937 rng(20260807);
  std::uniform_real_distribution<double> time_dist(0.0, 1e4);
  std::uniform_real_distribution<double> value_dist(-1e6, 1e6);

  std::string buffer;
  std::vector<TraceEvent> written;
  for (int i = 0; i < 600; ++i) {
    const auto kind = static_cast<EventKind>(
        rng() % static_cast<std::uint32_t>(EventKind::kCount));
    const NodeId node =
        (rng() % 8 == 0) ? kInvalidNode : static_cast<NodeId>(rng() % 10000);
    TraceEvent event(time_dist(rng), node, kind);
    const auto fields =
        static_cast<std::uint32_t>(rng() % (kMaxTraceFields + 1));
    for (std::uint32_t f = 0; f < fields; ++f) {
      const char* key = kKeys[rng() % (sizeof kKeys / sizeof *kKeys)];
      switch (rng() % 4) {
        case 0:
          event.with(key, value_dist(rng));
          break;
        case 1:
          event.with(key, static_cast<std::uint64_t>(rng()));
          break;
        case 2:
          event.with(key, rng() % 2 == 0);
          break;
        default:
          event.with(key,
                     kStrings[rng() % (sizeof kStrings / sizeof *kStrings)]);
          break;
      }
    }
    buffer += format_jsonl(event);
    buffer += '\n';
    if (rng() % 16 == 0) buffer += '\n';  // blank lines are skipped
    written.push_back(event);
  }

  for (const unsigned jobs : {1u, 3u}) {
    EventStore store;
    IngestStats stats;
    std::string error;
    ASSERT_TRUE(load_trace_buffer(std::string(buffer), store, stats, &error,
                                  jobs))
        << error;
    // The sink never writes malformed lines.
    EXPECT_EQ(stats.malformed, 0u);
    EXPECT_EQ(stats.events, 600u);
    expect_store_matches_events(store, written);
  }
}

// ---- shard boundaries ---------------------------------------------------

TEST(EventStoreSharding, JobCountNeverChangesTheStore) {
  // ~1.2 MB of lines of wildly varying length, so with kMinShardBytes =
  // 64 KiB every jobs value from 2..8 actually shards, and boundaries
  // land mid-line everywhere. Sprinkled malformed lines check the stats
  // merge across shards too.
  std::mt19937 rng(7);
  std::string buffer;
  std::size_t malformed = 0;
  std::size_t nonempty = 0;
  std::size_t first_malformed = 0;
  while (buffer.size() < 1200 * 1024) {
    if (rng() % 97 == 0) {
      buffer += "{\"t\":broken";
      buffer += '\n';
      ++nonempty;
      ++malformed;
      if (first_malformed == 0) first_malformed = nonempty;
      continue;
    }
    TraceEvent event(static_cast<double>(nonempty),
                     static_cast<NodeId>(rng() % 4000),
                     EventKind::kNodeSample);
    event.with("cpu", static_cast<double>(rng() % 1000) / 1000.0);
    if (rng() % 3 == 0) {
      // Long escaped payload: decodes through the arena slow path and
      // stretches some lines across shard boundaries.
      static std::string long_text;
      long_text.assign(40 + rng() % 400, 'x');
      long_text += "\ttail";
      event.with("blob", long_text.c_str());
      buffer += format_jsonl(event);
    } else {
      buffer += format_jsonl(event);
    }
    buffer += '\n';
    ++nonempty;
  }

  EventStore serial;
  IngestStats serial_stats;
  ASSERT_TRUE(load_trace_buffer(std::string(buffer), serial, serial_stats,
                                nullptr, 1));
  EXPECT_EQ(serial_stats.shards, 1u);
  EXPECT_EQ(serial_stats.lines, nonempty);
  EXPECT_EQ(serial_stats.malformed, malformed);
  EXPECT_EQ(serial_stats.first_malformed_line, first_malformed);

  for (unsigned jobs = 2; jobs <= 8; ++jobs) {
    EventStore parallel;
    IngestStats stats;
    ASSERT_TRUE(load_trace_buffer(std::string(buffer), parallel, stats,
                                  nullptr, jobs));
    EXPECT_GT(stats.shards, 1u) << jobs;
    EXPECT_EQ(stats.lines, serial_stats.lines) << jobs;
    EXPECT_EQ(stats.events, serial_stats.events) << jobs;
    EXPECT_EQ(stats.malformed, serial_stats.malformed) << jobs;
    EXPECT_EQ(stats.first_malformed_line, serial_stats.first_malformed_line)
        << jobs;
    EXPECT_EQ(stats.first_error, serial_stats.first_error) << jobs;
    expect_same_store(serial, parallel);
  }
}

// ---- malformed accounting (pinned) ------------------------------------

TEST(EventStoreMalformed, AccountingMatchesLegacyReader) {
  const std::string buffer =
      "{\"t\":1,\"kind\":\"help_sent\"}\n"
      "\n"
      "{broken\n"
      "{\"t\":2,\"node\":3,\"kind\":\"pledge_sent\",\"episode\":4}\n"
      "[\"not an object\"]\n"
      "{\"t\":\"oops\",\"kind\":\"help_sent\"}\n"
      "{\"t\":3,\"kind\":\"help_sent\"} trailing\n"
      "{\"t\":4,\"kind\":\"help_sent\",\"s\":\"unterminated\n"
      "{\"t\":5,\"kind\":\"help_sent\",\"s\":\"bad\\q\"}\n"
      "{\"t\":6,\"kind\":\"help_sent\"}\n";

  EventStore store;
  IngestStats stats;
  ASSERT_TRUE(load_trace_buffer(std::string(buffer), store, stats));
  // Blank lines are not counted; line numbers still advance over them.
  EXPECT_EQ(stats.lines, 9u);
  EXPECT_EQ(stats.events, 3u);
  EXPECT_EQ(stats.malformed, 6u);
  EXPECT_EQ(stats.first_malformed_line, 3u);
  EXPECT_EQ(stats.first_error, "expected '\"' at offset 1");
  TraceEvent pledge(2.0, 3, EventKind::kPledgeSent);
  pledge.with("episode", std::uint64_t{4});
  expect_store_matches_events(
      store, {TraceEvent(1.0, kInvalidNode, EventKind::kHelpSent), pledge,
              TraceEvent(6.0, kInvalidNode, EventKind::kHelpSent)});
}

TEST(EventStoreMalformed, ErrorStringsMatchParseJsonlLine) {
  const std::pair<const char*, const char*> kBadLines[] = {
      {"{broken", "expected '\"' at offset 1"},
      {"[\"array\"]", "expected '{' at offset 0"},
      {"{\"t\":\"x\",\"kind\":\"help_sent\"}",
       "record has no \"t\" at offset 28"},
      {"{\"node\":3,\"kind\":\"help_sent\"}",
       "record has no \"t\" at offset 29"},
      {"{\"t\":1}", "record has no \"kind\" at offset 7"},
      {"{\"t\":1,\"kind\":\"help_sent\"}  junk",
       "trailing garbage at offset 28"},
      {"{\"t\":1,\"kind\":\"help_sent\",\"s\":\"\\q\"}",
       "unknown escape at offset 33"},
      {"{\"t\":1,\"kind\":\"help_sent\",\"s\":\"open",
       "unterminated string at offset 35"},
      {"{\"t\":1,\"kind\":\"help_sent\",,}", "expected '\"' at offset 26"},
      {"{\"t\":1e,\"kind\":\"help_sent\"}", "expected ',' or '}' at offset 6"},
  };
  for (const auto& [line, expected_error] : kBadLines) {
    EventStore store;
    IngestStats stats;
    ASSERT_TRUE(load_trace_buffer(std::string(line) + "\n", store, stats));
    EXPECT_EQ(stats.malformed, 1u) << line;
    EXPECT_EQ(stats.first_malformed_line, 1u) << line;
    EXPECT_EQ(stats.first_error, expected_error) << line;
  }
}

// ---- flight dump direct decode (pinned) --------------------------------

TEST(EventStoreFlight, DirectDecodeMatchesLegacyDumpReader) {
  const std::string path = ::testing::TempDir() + "event_store_flight.bin";
  FlightRecorder recorder(/*capacity_per_ring=*/8);
  FlightRing& ring0 = recorder.ring(0);
  FlightRing& ring1 = recorder.ring(1);

  std::vector<TraceEvent> first_ring;
  first_ring.push_back(TraceEvent(1.0, 2, EventKind::kHelpSent)
                           .with("urgency", 0.75)
                           .with("episode", std::uint64_t{42}));
  first_ring.push_back(TraceEvent(1.5, 3, EventKind::kPledgeSent)
                           .with("availability", 0.5)
                           .with("answered", true)
                           .with("reason", "solicited"));
  first_ring.push_back(TraceEvent(2.0, kInvalidNode, EventKind::kEngineStep)
                           .with("processed", std::uint64_t{1000}));
  std::vector<TraceEvent> second_ring;
  second_ring.push_back(
      TraceEvent(1.25, 7, EventKind::kNodeSample)
          .with("bad", std::numeric_limits<double>::quiet_NaN())
          .with("inf", std::numeric_limits<double>::infinity())
          .with("ninf", -std::numeric_limits<double>::infinity()));
  // Overflow ring1 so dropped > 0 in the dump counters.
  for (int i = 0; i < 12; ++i) {
    second_ring.push_back(TraceEvent(3.0 + i, 7, EventKind::kSystemSample)
                              .with("i", static_cast<std::uint64_t>(i)));
  }
  for (const TraceEvent& event : first_ring) ring0.on_event(event);
  for (const TraceEvent& event : second_ring) ring1.on_event(event);
  ASSERT_TRUE(recorder.dump(path));

  EventStore store;
  FlightStoreInfo info;
  IngestStats stats;
  std::string error;
  ASSERT_TRUE(load_flight_file(path, store, info, stats, &error)) << error;
  std::remove(path.c_str());

  EXPECT_FALSE(info.truncated);
  EXPECT_EQ(info.total_recorded(), 16u);
  EXPECT_EQ(info.total_dropped(), 5u);
  ASSERT_EQ(info.rings.size(), 2u);
  EXPECT_EQ(info.rings[0].source, 0u);
  EXPECT_EQ(info.rings[0].recorded, 3u);
  EXPECT_EQ(info.rings[0].dropped, 0u);
  EXPECT_EQ(info.rings[0].stored, 3u);
  EXPECT_EQ(info.rings[1].source, 1u);
  EXPECT_EQ(info.rings[1].recorded, 13u);
  EXPECT_EQ(info.rings[1].dropped, 5u);
  EXPECT_EQ(info.rings[1].stored, 8u);
  EXPECT_EQ(stats.lines, 11u);
  EXPECT_EQ(stats.malformed, 0u);
  EXPECT_EQ(stats.events, 11u);

  // Ring 1 kept its newest eight records (t = 7..14), all later than
  // ring 0's, so the time merge is ring 0 then ring 1.
  std::vector<TraceEvent> expected = first_ring;
  expected.insert(expected.end(), second_ring.end() - 8, second_ring.end());
  expect_store_matches_events(store, expected);
}

TEST(EventStoreFlight, TruncatedDumpSalvagesLikeLegacyReader) {
  const std::string path =
      ::testing::TempDir() + "event_store_flight_cut.bin";
  FlightRecorder recorder(/*capacity_per_ring=*/64);
  FlightRing& ring = recorder.ring(0);
  std::vector<TraceEvent> events;
  for (int i = 0; i < 40; ++i) {
    events.push_back(TraceEvent(static_cast<double>(i),
                                static_cast<NodeId>(i % 5),
                                EventKind::kNodeSample)
                         .with("cpu", 0.25)
                         .with("tag", "steady"));
    ring.on_event(events.back());
  }
  ASSERT_TRUE(recorder.dump(path));

  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream tmp;
    tmp << in.rdbuf();
    bytes = tmp.str();
  }
  bytes.resize(bytes.size() * 3 / 5);  // cut mid-ring
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << bytes;
  }

  EventStore store;
  FlightStoreInfo info;
  IngestStats stats;
  std::string error;
  ASSERT_TRUE(load_flight_file(path, store, info, stats, &error)) << error;
  std::remove(path.c_str());

  // 23 records survive the cut; the other 17 the header claimed are
  // counted, the first of them as line 24.
  EXPECT_TRUE(info.truncated);
  EXPECT_EQ(stats.lines, 40u);
  EXPECT_EQ(stats.events, 23u);
  EXPECT_EQ(stats.malformed, 17u);
  EXPECT_EQ(stats.first_malformed_line, 24u);
  EXPECT_EQ(stats.first_error, "truncated record");
  events.resize(23);
  expect_store_matches_events(store, events);
}

// ---- allocation behavior ------------------------------------------------

TEST(EventStoreAlloc, ParseHotLoopAllocationsAreAmortized) {
  constexpr std::size_t kEvents = 50000;
  std::string buffer;
  buffer.reserve(kEvents * 96);
  char line[160];
  for (std::size_t i = 0; i < kEvents; ++i) {
    std::snprintf(line, sizeof line,
                  "{\"t\":%zu.5,\"node\":%zu,\"kind\":\"node_sample\","
                  "\"cpu\":0.25,\"queue\":%zu,\"state\":\"steady\"}\n",
                  i, i % 1000, i % 7);
    buffer += line;
  }

  EventStore store;
  IngestStats stats;
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  ASSERT_TRUE(load_trace_buffer(std::move(buffer), store, stats, nullptr, 1));
  const std::uint64_t delta =
      g_allocations.load(std::memory_order_relaxed) - before;

  ASSERT_EQ(store.size(), kEvents);
  ASSERT_EQ(stats.malformed, 0u);
  // Growth is amortized (geometric vectors, 64 KiB arena chunks, one
  // interner rehash chain): a tiny fraction of one allocation per event.
  EXPECT_LT(delta, kEvents / 50) << "parse loop allocates per event";
}

}  // namespace
}  // namespace realtor::obs
