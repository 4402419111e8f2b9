// Flight recorder: ring semantics (wrap-around, drop accounting), binary
// dump/load round trips across every payload type, the dump-on-attack
// window, damaged-dump salvage (truncation, corrupt records, corrupt
// headers), and — the property the design stands on — field-for-field
// equivalence between a flight dump and a JSONL trace of the same seeded
// run.
#include <gtest/gtest.h>

#include <chrono>
#include <cstddef>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "experiment/simulation.hpp"
#include "obs/event_store.hpp"
#include "obs/flight_reader.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/jsonl_sink.hpp"

namespace realtor::obs {
namespace {

std::string temp_path(const char* name) {
  return ::testing::TempDir() + name;
}

/// One flight dump as the reader sees it.
struct Dump {
  EventStore store;
  FlightStoreInfo info;
  IngestStats stats;
};

bool load_dump(const std::string& path, Dump& out, std::string* error) {
  return load_flight_file(path, out.store, out.info, out.stats, error);
}

TraceEvent numbered(double time, std::uint64_t seq) {
  TraceEvent event(time, 1, EventKind::kHelpSent);
  event.with("seq", seq);
  return event;
}

TEST(FlightRing, KeepsNewestAndCountsDrops) {
  NameTable names;
  FlightRing ring(/*source=*/7, /*capacity=*/4, names);
  for (std::uint64_t i = 0; i < 10; ++i) {
    ring.on_event(numbered(static_cast<double>(i), i));
  }
  EXPECT_EQ(ring.capacity(), 4u);
  EXPECT_EQ(ring.recorded(), 10u);
  EXPECT_EQ(ring.dropped(), 6u);

  std::vector<FlightRecord> records;
  const FlightRingInfo info = ring.snapshot(records);
  EXPECT_EQ(info.source, 7u);
  EXPECT_EQ(info.recorded, 10u);
  EXPECT_EQ(info.dropped, 6u);
  ASSERT_EQ(info.stored, 4u);
  ASSERT_EQ(records.size(), 4u);
  // Oldest → newest, and exactly the last four events survive the wrap.
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(records[i].time, static_cast<double>(6 + i));
  }
}

TEST(FlightRing, UnderfilledRingStoresEverything) {
  NameTable names;
  FlightRing ring(0, 16, names);
  for (std::uint64_t i = 0; i < 5; ++i) {
    ring.on_event(numbered(static_cast<double>(i), i));
  }
  std::vector<FlightRecord> records;
  const FlightRingInfo info = ring.snapshot(records);
  EXPECT_EQ(info.stored, 5u);
  EXPECT_EQ(info.dropped, 0u);
}

TEST(FlightRecorder, DumpRoundTripsEveryPayloadType) {
  const std::string path = temp_path("flight_payload_types.bin");
  FlightRecorder recorder(/*capacity_per_ring=*/32);
  FlightRing& ring = recorder.ring(0);

  TraceEvent event(2.5, 3, EventKind::kPledgeReceived);
  event.with("episode", 42)
      .with("availability", 0.625)
      .with("reason", "capacity")
      .with("answered", true)
      .with("bad", std::numeric_limits<double>::quiet_NaN());
  ring.on_event(event);
  ring.on_event(TraceEvent(3.0, kInvalidNode, EventKind::kSystemSample));
  ASSERT_TRUE(recorder.dump(path));

  ASSERT_TRUE(is_flight_file(path));
  Dump dump;
  std::string error;
  ASSERT_TRUE(load_dump(path, dump, &error)) << error;
  ASSERT_EQ(dump.store.size(), 2u);

  const EventView first = dump.store[0];
  EXPECT_DOUBLE_EQ(first.time(), 2.5);
  EXPECT_EQ(first.node(), 3u);
  EXPECT_EQ(first.kind(), "pledge_received");
  EXPECT_DOUBLE_EQ(first.number("episode"), 42.0);
  EXPECT_DOUBLE_EQ(first.number("availability"), 0.625);
  const StoredField* reason = first.find("reason");
  ASSERT_NE(reason, nullptr);
  EXPECT_EQ(reason->type, FieldType::kString);
  EXPECT_EQ(reason->text, "capacity");
  const StoredField* answered = first.find("answered");
  ASSERT_NE(answered, nullptr);
  EXPECT_EQ(answered->type, FieldType::kBool);
  EXPECT_TRUE(answered->boolean);
  // Non-finite doubles read back as the quoted strings the JSONL sink
  // would have written.
  const StoredField* bad = first.find("bad");
  ASSERT_NE(bad, nullptr);
  EXPECT_EQ(bad->type, FieldType::kString);
  EXPECT_EQ(bad->text, "nan");

  // The system-wide record keeps its omitted-node sentinel.
  EXPECT_EQ(dump.store[1].node(), kInvalidNode);
  std::remove(path.c_str());
}

TEST(FlightRecorder, RepeatedDumpsOfOneRunAreByteIdentical) {
  const std::string path_a = temp_path("flight_dump_a.bin");
  const std::string path_b = temp_path("flight_dump_b.bin");
  FlightRecorder recorder(8);
  FlightRing& ring = recorder.ring(0);
  for (std::uint64_t i = 0; i < 20; ++i) {
    ring.on_event(numbered(static_cast<double>(i), i));
  }
  ASSERT_TRUE(recorder.dump(path_a));
  ASSERT_TRUE(recorder.dump(path_b));

  std::string a;
  std::string b;
  for (auto [path, out] : {std::pair{&path_a, &a}, std::pair{&path_b, &b}}) {
    std::ifstream in(*path, std::ios::binary);
    ASSERT_TRUE(in.good());
    std::ostringstream buffer;
    buffer << in.rdbuf();
    *out = buffer.str();
  }
  EXPECT_EQ(a, b);
  std::remove(path_a.c_str());
  std::remove(path_b.c_str());
}

TEST(FlightRecorder, MultiRingDumpMergesByTime) {
  // Agile shape: one ring per host, all sharing the recorder's name
  // table; the loader merges them into one time-ordered stream.
  const std::string path = temp_path("flight_multiring.bin");
  FlightRecorder recorder(16);
  FlightRing& a = recorder.ring(10, /*thread_safe=*/true);
  FlightRing& b = recorder.ring(11, /*thread_safe=*/true);
  a.on_event(numbered(1.0, 0));
  b.on_event(numbered(2.0, 1));
  a.on_event(numbered(3.0, 2));
  b.on_event(numbered(4.0, 3));
  ASSERT_TRUE(recorder.dump(path));

  Dump dump;
  std::string error;
  ASSERT_TRUE(load_dump(path, dump, &error)) << error;
  ASSERT_EQ(dump.info.rings.size(), 2u);
  EXPECT_EQ(dump.info.rings[0].source, 10u);
  EXPECT_EQ(dump.info.rings[1].source, 11u);
  ASSERT_EQ(dump.store.size(), 4u);
  for (std::size_t i = 0; i + 1 < dump.store.size(); ++i) {
    EXPECT_LE(dump.store[i].time(), dump.store[i + 1].time());
  }
  std::remove(path.c_str());
}

// Overloaded 5x5 mesh with one partial attack — the same shape the
// trace-event system tests pin, small enough to run twice per test.
experiment::ScenarioConfig attack_scenario() {
  experiment::ScenarioConfig config;
  config.lambda = 12.0;
  config.duration = 120.0;
  config.seed = 7;
  config.sample_interval = 20.0;
  config.attacks.push_back(experiment::AttackWave{60.0, 3, 2.0, 30.0});
  return config;
}

/// Record-for-record equality across two stores (interned ids may differ;
/// names and values must not).
bool same_event(const EventStore& a, std::size_t i, const EventStore& b,
                std::size_t j) {
  const EventView va = a[i];
  const EventView vb = b[j];
  if (va.time() != vb.time() || va.node() != vb.node() ||
      va.kind() != vb.kind() || va.field_count() != vb.field_count()) {
    return false;
  }
  const StoredField* fa = va.fields_begin();
  const StoredField* fb = vb.fields_begin();
  for (std::size_t f = 0; f < va.field_count(); ++f, ++fa, ++fb) {
    if (a.name(fa->key) != b.name(fb->key) || fa->type != fb->type) {
      return false;
    }
    switch (fa->type) {
      case FieldType::kNumber:
        if (fa->number != fb->number) return false;
        break;
      case FieldType::kString:
        if (fa->text != fb->text) return false;
        break;
      case FieldType::kBool:
        if (fa->boolean != fb->boolean) return false;
        break;
      case FieldType::kNull:
        break;
    }
  }
  return true;
}

TEST(FlightRecorder, MatchesJsonlTraceOfTheSameRun) {
  const std::string jsonl_path = temp_path("flight_equiv.jsonl");
  const std::string flight_path = temp_path("flight_equiv.bin");

  {
    experiment::Simulation sim(attack_scenario());
    JsonlSink sink(jsonl_path);
    ASSERT_TRUE(sink.ok());
    sim.set_trace_sink(&sink);
    sim.run();
    sink.flush();
  }
  FlightRecorder recorder(1 << 20);  // large enough: nothing overwritten
  {
    experiment::Simulation sim(attack_scenario());
    sim.set_trace_sink(&recorder.ring(0));
    sim.run();
    ASSERT_TRUE(recorder.dump(flight_path));
  }
  EXPECT_EQ(recorder.total_dropped(), 0u);

  EventStore jsonl;
  IngestStats jsonl_stats;
  std::string error;
  ASSERT_TRUE(load_trace_store(jsonl_path, jsonl, jsonl_stats, &error))
      << error;
  ASSERT_EQ(jsonl_stats.malformed, 0u);
  Dump dump;
  ASSERT_TRUE(load_dump(flight_path, dump, &error)) << error;
  EXPECT_EQ(dump.stats.malformed, 0u);

  ASSERT_EQ(dump.store.size(), jsonl.size());
  ASSERT_GT(jsonl.size(), 1000u);  // a real run, not a stub
  for (std::size_t i = 0; i < jsonl.size(); ++i) {
    ASSERT_TRUE(same_event(jsonl, i, dump.store, i))
        << "event " << i << " diverged (" << jsonl[i].kind() << ")";
  }
  std::remove(jsonl_path.c_str());
  std::remove(flight_path.c_str());
}

TEST(FlightRecorder, AttackDumpCapturesThePreKillWindow) {
  const std::string path = temp_path("flight_attack_window.bin");
  FlightRecorder recorder(kDefaultFlightCapacity);
  experiment::Simulation sim(attack_scenario());
  sim.set_trace_sink(&recorder.ring(0));
  SimTime kill_time = -1.0;
  std::size_t dumps = 0;
  sim.set_attack_wave_listener([&](std::size_t, SimTime time) {
    kill_time = time;
    std::string error;
    ASSERT_TRUE(recorder.dump(path, &error)) << error;
    ++dumps;
  });
  sim.run();
  ASSERT_EQ(dumps, 1u);
  ASSERT_GT(kill_time, 0.0);

  Dump dump;
  std::string error;
  ASSERT_TRUE(load_dump(path, dump, &error)) << error;
  ASSERT_FALSE(dump.store.empty());
  std::size_t kills = 0;
  for (std::size_t i = 0; i < dump.store.size(); ++i) {
    // Snapshot taken right after the kills landed: nothing from the
    // post-attack future can be in the file.
    ASSERT_LE(dump.store[i].time(), kill_time);
    if (dump.store[i].kind_enum() == EventKind::kNodeKilled) ++kills;
  }
  EXPECT_EQ(kills, 3u);  // the wave's victims, captured mid-flight
  std::remove(path.c_str());
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void spit(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Writes a small single-ring dump and returns its bytes plus the offset
/// where the packed records begin (records are fixed-width and occupy the
/// file's tail, so the offset falls out of the sizes).
std::string small_dump(const std::string& path, std::uint64_t records,
                       std::size_t& records_begin) {
  FlightRecorder recorder(/*capacity_per_ring=*/64);
  FlightRing& ring = recorder.ring(0);
  for (std::uint64_t i = 0; i < records; ++i) {
    ring.on_event(numbered(static_cast<double>(i), i));
  }
  EXPECT_TRUE(recorder.dump(path));
  const std::string bytes = slurp(path);
  records_begin = bytes.size() - records * sizeof(FlightRecord);
  return bytes;
}

TEST(FlightReader, ByteTruncatedDumpsSalvageOrFailButNeverCrash) {
  const std::string path = temp_path("flight_truncation_fuzz.bin");
  std::size_t records_begin = 0;
  constexpr std::uint64_t kRecords = 12;
  const std::string full = small_dump(path, kRecords, records_begin);
  ASSERT_GT(records_begin, sizeof(kFlightMagic));
  ASSERT_EQ((full.size() - records_begin) % sizeof(FlightRecord), 0u);

  for (std::size_t len = 0; len <= full.size(); ++len) {
    SCOPED_TRACE("prefix length " + std::to_string(len));
    spit(path, full.substr(0, len));
    Dump dump;
    std::string error;
    const bool loaded = load_dump(path, dump, &error);
    if (len < records_begin) {
      // The cut landed in the header (magic, name table, ring count or
      // the first ring header): nothing salvageable, clean failure.
      EXPECT_FALSE(loaded);
      EXPECT_FALSE(error.empty());
      continue;
    }
    ASSERT_TRUE(loaded) << error;
    // Salvage accounting: every record the ring header promised is either
    // a parsed event or counted as unrecoverable — none vanish silently.
    ASSERT_EQ(dump.info.rings.size(), 1u);
    EXPECT_EQ(dump.stats.lines, kRecords);
    EXPECT_EQ(dump.store.size() + dump.stats.malformed, kRecords);
    EXPECT_EQ(dump.stats.events, dump.store.size());
    const std::uint64_t intact =
        (len - records_begin) / sizeof(FlightRecord);
    EXPECT_EQ(dump.store.size(), intact);
    EXPECT_EQ(dump.info.truncated, len < full.size());
    if (len == full.size()) {
      EXPECT_EQ(dump.stats.malformed, 0u);
    } else {
      // The first lost record is the first one past the cut.
      EXPECT_EQ(dump.stats.first_malformed_line, intact + 1);
      EXPECT_EQ(dump.stats.first_error, "truncated record");
    }
  }
  std::remove(path.c_str());
}

TEST(FlightReader, CorruptRecordIsCountedAndTheRestStillLoad) {
  const std::string path = temp_path("flight_corrupt_record.bin");
  std::size_t records_begin = 0;
  constexpr std::uint64_t kRecords = 8;
  std::string bytes = small_dump(path, kRecords, records_begin);

  // Stamp an impossible event kind into record 3. The kind byte follows
  // the record's time, episode and node fields.
  constexpr std::size_t kKindOffset = sizeof(double) +
                                      sizeof(std::uint64_t) +
                                      sizeof(std::uint32_t);
  bytes[records_begin + 3 * sizeof(FlightRecord) + kKindOffset] =
      static_cast<char>(0xFF);
  spit(path, bytes);

  Dump dump;
  std::string error;
  ASSERT_TRUE(load_dump(path, dump, &error)) << error;
  // Fixed-width records keep the cursor aligned past the damage: exactly
  // one record is lost, the remaining seven parse normally.
  EXPECT_EQ(dump.stats.malformed, 1u);
  EXPECT_EQ(dump.stats.first_malformed_line, 4u);
  EXPECT_EQ(dump.stats.first_error, "unknown event kind");
  EXPECT_FALSE(dump.info.truncated);
  ASSERT_EQ(dump.store.size(), kRecords - 1);
  for (std::size_t i = 0; i < dump.store.size(); ++i) {
    EXPECT_EQ(dump.store[i].kind(), "help_sent");
  }
  std::remove(path.c_str());
}

TEST(FlightReader, SecondRingHeaderCutSalvagesTheFirstRing) {
  const std::string path = temp_path("flight_multiring_cut.bin");
  FlightRecorder recorder(16);
  FlightRing& a = recorder.ring(10);
  FlightRing& b = recorder.ring(11);
  a.on_event(numbered(1.0, 0));
  a.on_event(numbered(2.0, 1));
  b.on_event(numbered(3.0, 2));
  ASSERT_TRUE(recorder.dump(path));
  std::string bytes = slurp(path);

  // Cut inside the second ring's header: its records and counters are
  // gone, but ring 10 is intact and must survive.
  const std::size_t second_header_begin = bytes.size() -
                                          sizeof(FlightRecord) -
                                          sizeof(FlightRingInfo);
  spit(path, bytes.substr(0, second_header_begin + 4));

  Dump dump;
  std::string error;
  ASSERT_TRUE(load_dump(path, dump, &error)) << error;
  EXPECT_TRUE(dump.info.truncated);
  ASSERT_EQ(dump.info.rings.size(), 1u);
  EXPECT_EQ(dump.info.rings[0].source, 10u);
  ASSERT_EQ(dump.store.size(), 2u);
  EXPECT_DOUBLE_EQ(dump.store[0].time(), 1.0);
  EXPECT_DOUBLE_EQ(dump.store[1].time(), 2.0);
  std::remove(path.c_str());
}

/// Loads `path`, failing the test if the load takes longer than a reader
/// that touches each byte a bounded number of times could (generous, for
/// sanitizer builds).
bool load_quickly(const std::string& path, Dump& dump, std::string& error) {
  const auto start = std::chrono::steady_clock::now();
  const bool loaded = load_dump(path, dump, &error);
  EXPECT_LT(std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          start)
                .count(),
            5.0);
  return loaded;
}

TEST(FlightReader, HugeClaimedRecordCountIsAccountedWithoutWalkingIt) {
  // A damaged ring header claims 2^40 records. The reader must salvage
  // the intact ones and count the rest in O(1), not loop over them.
  const std::string path = temp_path("flight_huge_stored.bin");
  std::size_t records_begin = 0;
  constexpr std::uint64_t kRecords = 6;
  std::string bytes = small_dump(path, kRecords, records_begin);
  constexpr std::uint64_t kClaimed = std::uint64_t{1} << 40;
  const std::size_t stored_at = records_begin - sizeof(FlightRingInfo) +
                                offsetof(FlightRingInfo, stored);
  std::memcpy(bytes.data() + stored_at, &kClaimed, sizeof kClaimed);
  spit(path, bytes);

  Dump dump;
  std::string error;
  ASSERT_TRUE(load_quickly(path, dump, error)) << error;
  EXPECT_TRUE(dump.info.truncated);
  EXPECT_EQ(dump.store.size(), kRecords);
  EXPECT_EQ(dump.stats.lines, kClaimed);
  EXPECT_EQ(dump.stats.malformed, kClaimed - kRecords);
  EXPECT_EQ(dump.stats.lines, dump.stats.events + dump.stats.malformed);
  EXPECT_EQ(dump.stats.first_malformed_line, kRecords + 1);
  EXPECT_EQ(dump.stats.first_error, "truncated record");
  std::remove(path.c_str());
}

TEST(FlightReader, HugeNameCountFailsCleanly) {
  // A damaged name-table count must not size an allocation: the table
  // runs out of bytes long before 2^32 names, and the load fails.
  const std::string path = temp_path("flight_huge_names.bin");
  std::size_t records_begin = 0;
  std::string bytes = small_dump(path, 4, records_begin);
  const std::uint32_t kNames = 0xFFFFFFF0u;
  std::memcpy(bytes.data() + sizeof(kFlightMagic), &kNames, sizeof kNames);
  spit(path, bytes);

  Dump dump;
  std::string error;
  EXPECT_FALSE(load_quickly(path, dump, error));
  EXPECT_EQ(error, "truncated name table");
  std::remove(path.c_str());
}

TEST(FlightDumpSink, DumpsOnFlushAndOnDestruction) {
  const std::string path = temp_path("flight_dump_sink.bin");
  {
    FlightDumpSink sink(path, /*capacity=*/8);
    sink.on_event(numbered(1.0, 0));
    sink.flush();
  }
  Dump dump;
  std::string error;
  ASSERT_TRUE(load_dump(path, dump, &error)) << error;
  ASSERT_EQ(dump.store.size(), 1u);
  std::remove(path.c_str());

  {
    FlightDumpSink sink(path, 8);
    sink.on_event(numbered(2.0, 1));
    // No flush: the destructor must still write the file.
  }
  ASSERT_TRUE(load_dump(path, dump, &error)) << error;
  ASSERT_EQ(dump.store.size(), 1u);
  EXPECT_DOUBLE_EQ(dump.store[0].time(), 2.0);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace realtor::obs
