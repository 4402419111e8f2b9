// EventStore ingest tests — the contract that makes the zero-copy store a
// drop-in for the legacy reader:
//
//   - whatever JsonlSink writes, load_trace_buffer() reads back exactly as
//     parse_jsonl_line() would (randomized round-trip over every payload
//     type, escape-heavy strings included);
//   - shard boundaries are invisible: any --jobs value produces the same
//     store and the same malformed accounting, even when lines straddle
//     chunk edges;
//   - malformed lines are counted with the legacy reader's exact error
//     strings and line numbers;
//   - flight dumps decode into the same event model the FlightDump reader
//     produces, including truncation salvage;
//   - the parse hot loop does not allocate per event (global operator new
//     counter — this file is its own test binary so the override only
//     observes event-store work).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <new>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "obs/event_store.hpp"
#include "obs/flight_reader.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/jsonl_sink.hpp"
#include "obs/trace.hpp"
#include "obs/trace_reader.hpp"

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

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
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

std::vector<ParsedEvent> legacy_parse(const std::string& buffer) {
  std::vector<ParsedEvent> out;
  std::istringstream in(buffer);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    ParsedEvent event;
    if (parse_jsonl_line(line, event)) out.push_back(std::move(event));
  }
  return out;
}

void expect_store_matches_legacy(const EventStore& store,
                                 const std::vector<ParsedEvent>& legacy) {
  ASSERT_EQ(store.size(), legacy.size());
  for (std::size_t i = 0; i < legacy.size(); ++i) {
    const EventView view = store[i];
    const ParsedEvent& event = legacy[i];
    EXPECT_EQ(view.time(), event.time) << "event " << i;
    EXPECT_EQ(view.node(), event.node) << "event " << i;
    EXPECT_EQ(view.kind(), event.kind) << "event " << i;
    ASSERT_EQ(view.field_count(), event.fields.size()) << "event " << i;
    const StoredField* field = view.fields_begin();
    for (std::size_t f = 0; f < event.fields.size(); ++f) {
      const auto& [key, value] = event.fields[f];
      EXPECT_EQ(store.name(field[f].key), key) << "event " << i;
      EXPECT_EQ(field[f].type, value.type) << "event " << i << " " << key;
      EXPECT_EQ(field[f].boolean, value.boolean) << "event " << i;
      EXPECT_EQ(field[f].text, value.text) << "event " << i << " " << key;
      if (value.type == JsonValue::Type::kNumber) {
        EXPECT_EQ(field[f].number, value.number) << "event " << i;
      } else {
        // The StoredField contract span's apply_field relies on.
        EXPECT_EQ(field[f].number, 0.0) << "event " << i << " " << key;
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
    if (fa.type == JsonValue::Type::kNumber) {
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
  for (int i = 0; i < 600; ++i) {
    const auto kind = static_cast<EventKind>(
        rng() % static_cast<std::uint32_t>(EventKind::kCount));
    const NodeId node = (rng() % 8 == 0) ? kInvalidNode : rng() % 10000;
    TraceEvent event(time_dist(rng), node, kind);
    const std::uint32_t fields = rng() % (kMaxTraceFields + 1);
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
  }

  const std::vector<ParsedEvent> legacy = legacy_parse(buffer);
  ASSERT_EQ(legacy.size(), 600u);  // the sink never writes malformed lines

  for (const unsigned jobs : {1u, 3u}) {
    EventStore store;
    IngestStats stats;
    std::string error;
    ASSERT_TRUE(load_trace_buffer(std::string(buffer), store, stats, &error,
                                  jobs))
        << error;
    EXPECT_EQ(stats.malformed, 0u);
    EXPECT_EQ(stats.events, 600u);
    expect_store_matches_legacy(store, legacy);
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
    TraceEvent event(static_cast<double>(nonempty), rng() % 4000,
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

// ---- malformed accounting vs the legacy reader --------------------------

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

  const std::string path =
      ::testing::TempDir() + "event_store_malformed.jsonl";
  {
    std::ofstream out(path, std::ios::binary);
    out << buffer;
  }
  std::vector<ParsedEvent> legacy;
  TraceLoadStats legacy_stats;
  ASSERT_TRUE(load_trace_file(path, legacy, legacy_stats));
  std::remove(path.c_str());

  EventStore store;
  IngestStats stats;
  ASSERT_TRUE(load_trace_buffer(std::string(buffer), store, stats));
  EXPECT_EQ(stats.lines, legacy_stats.lines);
  EXPECT_EQ(stats.events, legacy_stats.events);
  EXPECT_EQ(stats.malformed, legacy_stats.malformed);
  EXPECT_EQ(stats.first_malformed_line, legacy_stats.first_malformed_line);
  EXPECT_EQ(stats.first_error, legacy_stats.first_error);
  expect_store_matches_legacy(store, legacy);
}

TEST(EventStoreMalformed, ErrorStringsMatchParseJsonlLine) {
  const char* kBadLines[] = {
      "{broken",
      "[\"array\"]",
      "{\"t\":\"x\",\"kind\":\"help_sent\"}",
      "{\"node\":3,\"kind\":\"help_sent\"}",
      "{\"t\":1}",
      "{\"t\":1,\"kind\":\"help_sent\"}  junk",
      "{\"t\":1,\"kind\":\"help_sent\",\"s\":\"\\q\"}",
      "{\"t\":1,\"kind\":\"help_sent\",\"s\":\"open",
      "{\"t\":1,\"kind\":\"help_sent\",,}",
      "{\"t\":1e,\"kind\":\"help_sent\"}",
  };
  for (const char* line : kBadLines) {
    ParsedEvent event;
    std::string legacy_error;
    ASSERT_FALSE(parse_jsonl_line(line, event, &legacy_error)) << line;

    EventStore store;
    IngestStats stats;
    ASSERT_TRUE(load_trace_buffer(std::string(line) + "\n", store, stats));
    EXPECT_EQ(stats.malformed, 1u) << line;
    EXPECT_EQ(stats.first_malformed_line, 1u) << line;
    EXPECT_EQ(stats.first_error, legacy_error) << line;
  }
}

// ---- flight dump direct decode vs the FlightDump reader -----------------

TEST(EventStoreFlight, DirectDecodeMatchesLegacyDumpReader) {
  const std::string path = ::testing::TempDir() + "event_store_flight.bin";
  FlightRecorder recorder(/*capacity_per_ring=*/8);
  FlightRing& ring0 = recorder.ring(0);
  FlightRing& ring1 = recorder.ring(1);

  ring0.on_event(TraceEvent(1.0, 2, EventKind::kHelpSent)
                     .with("urgency", 0.75)
                     .with("episode", std::uint64_t{42}));
  ring0.on_event(TraceEvent(1.5, 3, EventKind::kPledgeSent)
                     .with("availability", 0.5)
                     .with("answered", true)
                     .with("reason", "solicited"));
  ring0.on_event(TraceEvent(2.0, kInvalidNode, EventKind::kEngineStep)
                     .with("processed", std::uint64_t{1000}));
  ring1.on_event(TraceEvent(1.25, 7, EventKind::kNodeSample)
                     .with("bad", std::numeric_limits<double>::quiet_NaN())
                     .with("inf", std::numeric_limits<double>::infinity())
                     .with("ninf",
                           -std::numeric_limits<double>::infinity()));
  // Overflow ring1 so dropped > 0 in the dump counters.
  for (int i = 0; i < 12; ++i) {
    ring1.on_event(TraceEvent(3.0 + i, 7, EventKind::kSystemSample)
                       .with("i", static_cast<std::uint64_t>(i)));
  }
  ASSERT_TRUE(recorder.dump(path));

  FlightDump dump;
  std::string error;
  ASSERT_TRUE(load_flight_file(path, dump, &error)) << error;

  EventStore store;
  FlightStoreInfo info;
  TraceLoadStats stats;
  ASSERT_TRUE(load_flight_file(path, store, info, stats, &error)) << error;
  std::remove(path.c_str());

  EXPECT_EQ(info.truncated, dump.truncated);
  EXPECT_EQ(info.total_recorded(), dump.total_recorded());
  EXPECT_EQ(info.total_dropped(), dump.total_dropped());
  ASSERT_EQ(info.rings.size(), dump.rings.size());
  for (std::size_t i = 0; i < info.rings.size(); ++i) {
    EXPECT_EQ(info.rings[i].source, dump.rings[i].source);
    EXPECT_EQ(info.rings[i].recorded, dump.rings[i].recorded);
    EXPECT_EQ(info.rings[i].dropped, dump.rings[i].dropped);
    EXPECT_EQ(info.rings[i].stored, dump.rings[i].stored);
  }
  EXPECT_EQ(stats.malformed, dump.malformed);
  EXPECT_EQ(stats.events, dump.events.size());
  expect_store_matches_legacy(store, dump.events);
}

TEST(EventStoreFlight, TruncatedDumpSalvagesLikeLegacyReader) {
  const std::string path =
      ::testing::TempDir() + "event_store_flight_cut.bin";
  FlightRecorder recorder(/*capacity_per_ring=*/64);
  FlightRing& ring = recorder.ring(0);
  for (int i = 0; i < 40; ++i) {
    ring.on_event(TraceEvent(static_cast<double>(i), i % 5,
                             EventKind::kNodeSample)
                      .with("cpu", 0.25)
                      .with("tag", "steady"));
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

  FlightDump dump;
  std::string error;
  ASSERT_TRUE(load_flight_file(path, dump, &error)) << error;
  ASSERT_TRUE(dump.truncated);
  ASSERT_GT(dump.malformed, 0u);

  EventStore store;
  FlightStoreInfo info;
  TraceLoadStats stats;
  ASSERT_TRUE(load_flight_file(path, store, info, stats, &error)) << error;
  std::remove(path.c_str());

  EXPECT_TRUE(info.truncated);
  EXPECT_EQ(stats.malformed, dump.malformed);
  expect_store_matches_legacy(store, dump.events);
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
