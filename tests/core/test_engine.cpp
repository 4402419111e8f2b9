#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "common/profile.hpp"
#include "common/rng.hpp"

namespace realtor::sim {
namespace {

TEST(Engine, StartsAtTimeZero) {
  Engine e;
  EXPECT_DOUBLE_EQ(e.now(), 0.0);
  EXPECT_EQ(e.pending_count(), 0u);
}

TEST(Engine, FiresInTimeOrder) {
  Engine e;
  std::vector<int> order;
  e.schedule_at(3.0, [&] { order.push_back(3); });
  e.schedule_at(1.0, [&] { order.push_back(1); });
  e.schedule_at(2.0, [&] { order.push_back(2); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(e.now(), 3.0);
}

TEST(Engine, SimultaneousEventsFifo) {
  Engine e;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    e.schedule_at(5.0, [&order, i] { order.push_back(i); });
  }
  e.run();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
  }
}

TEST(Engine, CancelPreventsExecution) {
  Engine e;
  bool fired = false;
  const EventId id = e.schedule_at(1.0, [&] { fired = true; });
  EXPECT_TRUE(e.pending(id));
  e.cancel(id);
  EXPECT_FALSE(e.pending(id));
  e.run();
  EXPECT_FALSE(fired);
}

TEST(Engine, CancelAfterFireIsNoop) {
  Engine e;
  const EventId id = e.schedule_at(1.0, [] {});
  e.run();
  e.cancel(id);  // must not crash or affect anything
  EXPECT_EQ(e.pending_count(), 0u);
}

TEST(Engine, CallbackMaySchedule) {
  Engine e;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 5) {
      e.schedule_in(1.0, chain);
    }
  };
  e.schedule_in(1.0, chain);
  e.run();
  EXPECT_EQ(depth, 5);
  EXPECT_DOUBLE_EQ(e.now(), 5.0);
}

TEST(Engine, CallbackMayCancelLaterEvent) {
  Engine e;
  bool fired = false;
  const EventId victim = e.schedule_at(2.0, [&] { fired = true; });
  e.schedule_at(1.0, [&] { e.cancel(victim); });
  e.run();
  EXPECT_FALSE(fired);
}

TEST(Engine, RunUntilAdvancesClockPastLastEvent) {
  Engine e;
  int fired = 0;
  e.schedule_at(1.0, [&] { ++fired; });
  e.schedule_at(10.0, [&] { ++fired; });
  e.run_until(5.0);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(e.now(), 5.0);
  EXPECT_EQ(e.pending_count(), 1u);
  e.run_until(10.0);
  EXPECT_EQ(fired, 2);
}

TEST(Engine, RunUntilIncludesBoundaryEvents) {
  Engine e;
  bool fired = false;
  e.schedule_at(5.0, [&] { fired = true; });
  e.run_until(5.0);
  EXPECT_TRUE(fired);
}

TEST(Engine, RunUntilBeforeLeavesBarrierEventsPending) {
  Engine e;
  std::vector<int> fired;
  e.schedule_at(1.0, [&] { fired.push_back(1); });
  e.schedule_at(2.0, [&] { fired.push_back(2); });
  e.schedule_at(2.0, [&] { fired.push_back(3); });
  e.schedule_at(3.0, [&] { fired.push_back(4); });
  e.run_until_before(2.0);
  EXPECT_EQ(fired, (std::vector<int>{1}));
  EXPECT_DOUBLE_EQ(e.now(), 2.0);
  e.run();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3, 4}));
}

TEST(Engine, StepFiresLimitedEvents) {
  Engine e;
  int fired = 0;
  for (int i = 0; i < 5; ++i) {
    e.schedule_at(static_cast<SimTime>(i + 1), [&] { ++fired; });
  }
  EXPECT_EQ(e.step(2), 2u);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(e.step(10), 3u);
  EXPECT_EQ(fired, 5);
  EXPECT_EQ(e.step(1), 0u);
}

TEST(Engine, ScheduleInUsesCurrentTime) {
  Engine e;
  SimTime observed = -1.0;
  e.schedule_at(2.0, [&] {
    e.schedule_in(3.0, [&] { observed = e.now(); });
  });
  e.run();
  EXPECT_DOUBLE_EQ(observed, 5.0);
}

TEST(Engine, EventsProcessedCounts) {
  Engine e;
  for (int i = 0; i < 7; ++i) e.schedule_in(1.0, [] {});
  e.run();
  EXPECT_EQ(e.events_processed(), 7u);
}

// --- Slot-arena specifics: handle safety across slot reuse. -------------

TEST(Engine, CancelInvalidEventIsNoop) {
  Engine e;
  e.cancel(kInvalidEvent);
  bool fired = false;
  e.schedule_at(1.0, [&] { fired = true; });
  e.cancel(kInvalidEvent);
  e.run();
  EXPECT_TRUE(fired);
}

TEST(Engine, StaleHandleCannotCancelReusedSlot) {
  Engine e;
  bool survivor_fired = false;
  // Cancel the first event, freeing its slot; the second schedule reuses
  // that slot under a bumped generation.
  const EventId stale = e.schedule_at(1.0, [] { FAIL(); });
  e.cancel(stale);
  e.schedule_at(1.0, [&] { survivor_fired = true; });
  e.cancel(stale);  // double-cancel through the old handle
  EXPECT_FALSE(e.pending(stale));
  e.run();
  EXPECT_TRUE(survivor_fired);
}

TEST(Engine, HandleFromFiredEventCannotCancelReusedSlot) {
  Engine e;
  const EventId first = e.schedule_at(1.0, [] {});
  e.run();
  bool fired = false;
  e.schedule_at(2.0, [&] { fired = true; });  // reuses first's slot
  e.cancel(first);
  EXPECT_FALSE(e.pending(first));
  e.run();
  EXPECT_TRUE(fired);
}

TEST(Engine, FifoPreservedAcrossCancelAndReuse) {
  Engine e;
  std::vector<int> order;
  std::vector<EventId> doomed;
  // Interleave doomed and surviving events at one instant; cancelling the
  // doomed ones (freeing slots mid-sequence) must not reorder survivors.
  for (int i = 0; i < 8; ++i) {
    doomed.push_back(e.schedule_at(5.0, [] { FAIL(); }));
    e.schedule_at(5.0, [&order, i] { order.push_back(i); });
    e.cancel(doomed.back());
    e.schedule_at(5.0, [&order, i] { order.push_back(100 + i); });
  }
  e.run();
  // FIFO among simultaneous events follows scheduling order, even though
  // later schedules reuse slots freed by the cancels.
  std::vector<int> sorted_by_schedule;
  for (int i = 0; i < 8; ++i) {
    sorted_by_schedule.push_back(i);
    sorted_by_schedule.push_back(100 + i);
  }
  EXPECT_EQ(order, sorted_by_schedule);
}

TEST(Engine, SlotReuseAcrossManyCycles) {
  Engine e;
  std::uint64_t fired = 0;
  for (int cycle = 0; cycle < 50; ++cycle) {
    std::vector<EventId> ids;
    for (int i = 0; i < 20; ++i) {
      ids.push_back(e.schedule_in(1.0 + i, [&] { ++fired; }));
    }
    for (int i = 0; i < 20; i += 2) {
      e.cancel(ids[static_cast<std::size_t>(i)]);
    }
    e.run();
    EXPECT_EQ(e.pending_count(), 0u);
  }
  EXPECT_EQ(fired, 50u * 10u);
}

TEST(Engine, CancelHeavyDrainFiresSurvivorsInOrder) {
  // Cancel far more events than survive, triggering the engine's internal
  // dead-entry compaction; survivors must still fire in time order.
  Engine e;
  std::vector<EventId> ids;
  for (int i = 0; i < 2000; ++i) {
    ids.push_back(e.schedule_at(static_cast<SimTime>(i), [] {}));
  }
  std::vector<SimTime> fire_times;
  for (int i = 0; i < 2000; ++i) {
    if (i % 10 != 0) {
      e.cancel(ids[static_cast<std::size_t>(i)]);
    }
  }
  for (int i = 0; i < 2000; i += 10) {
    e.schedule_at(static_cast<SimTime>(i) + 0.5,
                  [&] { fire_times.push_back(e.now()); });
  }
  EXPECT_EQ(e.pending_count(), 400u);
  e.run();
  EXPECT_EQ(fire_times.size(), 200u);
  for (std::size_t i = 1; i < fire_times.size(); ++i) {
    ASSERT_LT(fire_times[i - 1], fire_times[i]);
  }
}

TEST(Engine, LargeCaptureCallbackFires) {
  // Captures beyond EventFn's inline buffer take the heap path; they must
  // still move into the arena and fire with their payload intact.
  Engine e;
  std::array<char, 256> payload{};
  payload.fill('x');
  payload.back() = 'y';
  char observed = '?';
  e.schedule_at(1.0, [payload, &observed] { observed = payload.back(); });
  e.run();
  EXPECT_EQ(observed, 'y');
}

TEST(Engine, ObserverSeesProcessedAndPendingCounts) {
  Engine e;
  std::vector<std::uint64_t> processed_samples;
  std::vector<std::size_t> pending_samples;
  e.set_observer(2, [&](SimTime, std::uint64_t processed,
                        std::size_t pending) {
    processed_samples.push_back(processed);
    pending_samples.push_back(pending);
  });
  for (int i = 0; i < 6; ++i) {
    e.schedule_at(static_cast<SimTime>(i + 1), [] {});
  }
  e.run();
  EXPECT_EQ(processed_samples, (std::vector<std::uint64_t>{2, 4, 6}));
  EXPECT_EQ(pending_samples, (std::vector<std::size_t>{4, 2, 0}));
}

// Property: random schedule/cancel interleavings preserve ordering.
class EngineOrderProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EngineOrderProperty, MonotoneFiringTimes) {
  Engine e;
  RngStream rng(GetParam(), "engine-prop");
  std::vector<SimTime> fire_times;
  std::vector<EventId> ids;
  for (int i = 0; i < 500; ++i) {
    const SimTime t = rng.uniform(0.0, 100.0);
    ids.push_back(e.schedule_at(t, [&fire_times, &e] {
      fire_times.push_back(e.now());
    }));
  }
  // Cancel ~25% at random.
  std::size_t cancelled = 0;
  for (const EventId id : ids) {
    if (rng.bernoulli(0.25)) {
      e.cancel(id);
      ++cancelled;
    }
  }
  e.run();
  EXPECT_EQ(fire_times.size(), 500u - cancelled);
  for (std::size_t i = 1; i < fire_times.size(); ++i) {
    ASSERT_LE(fire_times[i - 1], fire_times[i]);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineOrderProperty,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

// --- Zero-delay lane and teardown. ----------------------------------------

TEST(Engine, ZeroDelayEventsFireAfterEarlierScheduledSameTimeEvents) {
  // B and C were scheduled for t=1 before the clock got there; the
  // zero-delay events A schedules at t=1 queue behind them.
  Engine e;
  std::vector<int> order;
  e.schedule_at(1.0, [&] {
    order.push_back(1);
    e.schedule_in(0.0, [&] { order.push_back(4); });
    e.schedule_at(1.0, [&] {
      order.push_back(5);
      e.schedule_in(0.0, [&] { order.push_back(6); });
    });
  });
  e.schedule_at(1.0, [&] { order.push_back(2); });
  e.schedule_at(1.0, [&] { order.push_back(3); });
  e.schedule_at(2.0, [&] { order.push_back(7); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5, 6, 7}));
}

TEST(Engine, InterleavedZeroDelayChainsStayFifo) {
  // Two chains that re-schedule themselves at zero delay keep the lane
  // from ever running dry, so its consumed prefix must be dropped while
  // it is in use; the chains must still alternate.
  Engine e;
  constexpr int kSteps = 20000;
  std::vector<int> order;
  std::function<void(int, int)> link = [&](int chain, int step) {
    order.push_back(chain);
    if (step + 1 < kSteps) {
      e.schedule_in(0.0, [&link, chain, step] { link(chain, step + 1); });
    }
  };
  e.schedule_at(1.0, [&] {
    e.schedule_in(0.0, [&link] { link(0, 0); });
    e.schedule_in(0.0, [&link] { link(1, 0); });
  });
  e.run();
  ASSERT_EQ(order.size(), 2u * kSteps);
  for (std::size_t i = 0; i < order.size(); ++i) {
    ASSERT_EQ(order[i], static_cast<int>(i % 2)) << "firing #" << i;
  }
  EXPECT_DOUBLE_EQ(e.now(), 1.0);
}

TEST(Engine, NegativeZeroTimeSortsAsZero) {
  Engine e;
  std::vector<int> order;
  e.schedule_at(0.0, [&] { order.push_back(1); });
  e.schedule_at(-0.0, [&] { order.push_back(2); });
  e.schedule_at(1.0, [&] { order.push_back(4); });
  e.schedule_at(0.0, [&] { order.push_back(3); });
  EXPECT_EQ(e.pending_count(), 4u);
  e.run_until(0.0);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_DOUBLE_EQ(e.now(), 1.0);
}

TEST(Engine, ClearDropsEverythingAndOldHandlesStayNoops) {
  Engine e;
  int fired = 0;
  std::vector<EventId> ids;
  for (int i = 0; i < 10; ++i) {
    ids.push_back(e.schedule_at(static_cast<SimTime>(i % 3), [&] { ++fired; }));
  }
  e.cancel(ids[4]);
  e.clear();
  EXPECT_EQ(e.pending_count(), 0u);
  for (const EventId id : ids) EXPECT_FALSE(e.pending(id));
  // New events reuse the freed slots under new generations; the old
  // handles must not reach them.
  const EventId fresh = e.schedule_at(5.0, [&] { fired += 100; });
  for (const EventId id : ids) e.cancel(id);
  EXPECT_TRUE(e.pending(fresh));
  e.run();
  EXPECT_EQ(fired, 100);
  EXPECT_DOUBLE_EQ(e.now(), 5.0);
}

// Reference for the ordering property below: every pending event in one
// vector, the next one found by a linear scan for the least (time, seq).
class NaiveEngine {
 public:
  SimTime now() const { return now_; }
  std::size_t pending_count() const {
    return static_cast<std::size_t>(
        std::count_if(events_.begin(), events_.end(),
                      [](const Event& ev) { return ev.pending; }));
  }
  EventId schedule_at(SimTime t, std::function<void()> fn) {
    events_.push_back({t + 0.0, std::move(fn), true});
    return events_.size() - 1;
  }
  EventId schedule_in(SimTime delay, std::function<void()> fn) {
    return schedule_at(now_ + delay, std::move(fn));
  }
  void cancel(EventId id) {
    if (id < events_.size()) events_[id].pending = false;
  }
  void run() {
    while (fire_next([](SimTime) { return true; })) {
    }
  }
  void run_until(SimTime t) {
    while (fire_next([t](SimTime x) { return x <= t; })) {
    }
    now_ = t;
  }
  void run_until_before(SimTime t) {
    while (fire_next([t](SimTime x) { return x < t; })) {
    }
    now_ = t;
  }
  std::size_t step(std::size_t max_events) {
    std::size_t fired = 0;
    while (fired < max_events && fire_next([](SimTime) { return true; })) {
      ++fired;
    }
    return fired;
  }

 private:
  struct Event {
    SimTime time;
    std::function<void()> fn;
    bool pending;
  };

  template <typename Pred>
  bool fire_next(Pred allowed) {
    std::size_t best = events_.size();
    for (std::size_t i = 0; i < events_.size(); ++i) {
      if (events_[i].pending &&
          (best == events_.size() || events_[i].time < events_[best].time)) {
        best = i;  // equal times keep the earlier index: FIFO by seq
      }
    }
    if (best == events_.size() || !allowed(events_[best].time)) return false;
    events_[best].pending = false;
    now_ = events_[best].time;
    std::function<void()> fn = std::move(events_[best].fn);
    fn();
    return true;
  }

  SimTime now_ = 0.0;
  std::vector<Event> events_;
};

// A seeded random program: events on a coarse time grid (so equal times
// are common) that record themselves, schedule zero-delay and later
// children (zero-delay chains included) and cancel recent events, driven
// through run_until_before / run_until / step splits at event times, with
// the outer loop scheduling and cancelling between the splits. Returns the
// firing order as (event, time) plus the clock and pending count after
// every split.
template <typename E>
struct RandomProgram {
  explicit RandomProgram(std::uint64_t seed) : rng(seed, "engine-program") {}

  E engine;
  RngStream rng;
  std::vector<EventId> handles;
  std::vector<std::pair<std::size_t, SimTime>> fired;
  std::vector<std::pair<SimTime, std::size_t>> checkpoints;

  SimTime grid_delay() {
    // Half the events are zero-delay; the rest land on a 0.25 s grid.
    if (rng.bernoulli(0.5)) return 0.0;
    return 0.25 * static_cast<double>(1 + rng.uniform_index(8));
  }

  void schedule(SimTime delay) {
    const std::size_t id = handles.size();
    handles.push_back(engine.schedule_in(delay, [this, id] { fire(id); }));
  }

  void cancel_recent() {
    if (handles.empty()) return;
    const std::size_t window = std::min<std::size_t>(handles.size(), 24);
    engine.cancel(handles[handles.size() - 1 - rng.uniform_index(window)]);
  }

  void fire(std::size_t id) {
    fired.emplace_back(id, engine.now());
    if (handles.size() < 4000) {
      const std::uint64_t children = rng.uniform_index(3);
      for (std::uint64_t c = 0; c < children; ++c) schedule(grid_delay());
    }
    if (rng.bernoulli(0.3)) cancel_recent();
  }

  void checkpoint() {
    checkpoints.emplace_back(engine.now(), engine.pending_count());
  }

  void run() {
    for (int i = 0; i < 60; ++i) schedule(grid_delay());
    for (int phase = 0; phase < 40; ++phase) {
      // Split points are grid times, i.e. times events fire at.
      const SimTime at =
          engine.now() + 0.25 * static_cast<double>(rng.uniform_index(3));
      switch (rng.uniform_index(3)) {
        case 0:
          engine.run_until_before(at);
          break;
        case 1:
          engine.run_until(at);
          break;
        default:
          engine.step(1 + rng.uniform_index(40));
          break;
      }
      checkpoint();
      // From outside the loop: zero-delay events while same-time heap
      // entries may still be pending, then a cancel burst big enough to
      // compact the queues now and then.
      const std::size_t first = handles.size();
      const std::uint64_t burst =
          phase % 5 == 0 ? 300 : rng.uniform_index(6);
      for (std::uint64_t i = 0; i < burst; ++i) schedule(grid_delay());
      for (std::size_t id = first; id < handles.size(); ++id) {
        if (rng.bernoulli(0.85)) engine.cancel(handles[id]);
      }
      cancel_recent();
      checkpoint();
    }
    engine.run();
    checkpoint();
  }
};

class EngineReferenceOrder : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EngineReferenceOrder, MatchesNaiveTimeSeqOrder) {
  RandomProgram<Engine> real(GetParam());
  RandomProgram<NaiveEngine> naive(GetParam());
  obs::Profiler& profiler = obs::Profiler::instance();
  profiler.reset();
  profiler.set_enabled(true);
  real.run();
  profiler.set_enabled(false);
  std::uint64_t compactions = 0;
  for (const obs::ProfileEntry& entry : profiler.snapshot()) {
    if (entry.path.ends_with("sim/heap_compact")) compactions += entry.calls;
  }
  profiler.reset();
  naive.run();
  // The cancel bursts must exercise compaction of both queues.
  EXPECT_GT(compactions, 0u);
  ASSERT_GT(real.fired.size(), 500u);
  EXPECT_EQ(real.handles.size(), naive.handles.size());
  ASSERT_EQ(real.fired.size(), naive.fired.size());
  for (std::size_t i = 0; i < real.fired.size(); ++i) {
    ASSERT_EQ(real.fired[i], naive.fired[i]) << "firing #" << i;
  }
  EXPECT_EQ(real.checkpoints, naive.checkpoints);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineReferenceOrder,
                         ::testing::Range<std::uint64_t>(1, 21));

}  // namespace
}  // namespace realtor::sim
