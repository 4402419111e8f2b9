// Deterministic discrete-event engine.
//
// Single-threaded: all model code runs inside event callbacks on one thread.
// Determinism guarantees:
//   * events fire in nondecreasing time order;
//   * events at equal times fire in scheduling (FIFO) order;
//   * cancellation is O(1) and never perturbs the order of other events.
//
// Storage design (the hot path of every benchmark): events live in a
// free-listed slot arena — a plain vector of {generation, callback} slots.
// Two queues order them by (time, seq):
//   * a 4-ary min-heap of 16-byte entries whose (time, seq) key compares
//     as one 128-bit integer, for events later than the clock;
//   * a FIFO "zero-delay lane" for events scheduled at exactly now(), the
//     bulk of the paper's traffic (network_delay = 0). A lane entry costs
//     a push_back and an index bump instead of two heap walks.
// The next event is the heap top if its time is <= now(), else the lane
// front, else the heap top. That is exact (time, seq) order: a heap entry
// at now() was scheduled before the clock reached now(), so its seq is
// below every lane entry's.
// cancel() is a generation bump on the slot (no hash lookup, no
// deallocation); the stale queue entry is dropped lazily when it reaches
// the front (its seq no longer matching the slot's), or in bulk by
// heap_compact() when corpses outnumber live events. Callbacks are EventFn
// values constructed in place in recycled slots, so scheduling allocates
// nothing once the arena and queues have grown to the steady-state
// working set.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "common/types.hpp"
#include "sim/event_fn.hpp"

namespace realtor::sim {

class Engine {
 public:
  using Callback = EventFn;

  Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Current simulated time in seconds.
  SimTime now() const { return now_; }

  /// Schedules `fn` at absolute time `t` (>= now). The callable is built
  /// directly in its event slot. Returns a handle usable with cancel()
  /// until the event fires.
  template <EventCallable F>
  EventId schedule_at(SimTime t, F&& fn) {
    REALTOR_ASSERT_MSG(t >= now_, "cannot schedule in the past");
    std::uint32_t slot = free_head_;
    if (slot != kNoSlot) {
      free_head_ = slots_[slot].next_free;
    } else {
      slot = grow_slots();
    }
    slots_[slot].fn.emplace(std::forward<F>(fn));
    return enqueue(t, slot);
  }

  /// Schedules `fn` after `delay` seconds (>= 0).
  template <EventCallable F>
  EventId schedule_in(SimTime delay, F&& fn) {
    REALTOR_ASSERT_MSG(delay >= 0.0, "negative delay");
    return schedule_at(now_ + delay, std::forward<F>(fn));
  }

  /// Cancels a pending event; no-op if it already fired or was cancelled.
  void cancel(EventId id);

  /// Drops every pending event at once, destroying its callback, for
  /// teardown. Handles issued before stay valid no-ops: cancel() ignores
  /// them and pending() reports false. The clock does not move.
  void clear();

  /// Sizes the slot arena and both queues for `events` simultaneously
  /// pending events up front. Growing them step by step relocates every
  /// pending callback at each doubling, which dominates building a large
  /// world.
  void reserve(std::size_t events);

  /// True if `id` is scheduled and not yet fired/cancelled.
  bool pending(EventId id) const;

  /// Runs until no events remain.
  void run();

  /// Runs all events with time <= `t`, then advances the clock to `t`.
  void run_until(SimTime t);

  /// Runs all events with time strictly < `t`, then advances the clock to
  /// `t`. Events at exactly `t` stay pending, so a phase-wise caller can
  /// inspect the world at an instant before anything scheduled there
  /// fires; run_until_before(t) followed by run_until(u) fires the same
  /// events in the same order as run_until(u) alone (t <= u).
  void run_until_before(SimTime t);

  /// Fires at most `max_events` events; returns how many fired.
  std::size_t step(std::size_t max_events = 1);

  std::size_t pending_count() const { return live_; }
  std::uint64_t events_processed() const { return processed_; }

  /// Sampled observation hook: after every `sample_every`-th processed
  /// event, `observer` is called with (now, events_processed,
  /// pending_count) — enough for a tracer to record engine progress
  /// without touching the hot loop otherwise. `sample_every` = 0 (the
  /// default) disables the hook; the loop then pays one integer test per
  /// event. The observer must not mutate the engine.
  using Observer =
      std::function<void(SimTime now, std::uint64_t processed,
                         std::size_t pending)>;
  void set_observer(std::uint64_t sample_every, Observer observer);

 private:
  static constexpr std::uint32_t kNoSlot = 0xffffffffu;

  /// One arena cell. `generation` starts at 1 and is bumped every time the
  /// slot is released (fire or cancel), so an EventId handle — which packs
  /// the generation it was issued under — can never act on a reused slot.
  /// (A stale handle could only collide after 2^32 reuses of one slot.)
  struct Slot {
    Callback fn;
    std::uint32_t generation = 1;
    std::uint32_t next_free = kNoSlot;
    /// Sequence number of the slot's current pending event, 0 when idle.
    /// Heap entries validate against this at pop time.
    std::uint32_t seq = 0;
  };

  /// Heap entries carry the firing time, a monotone sequence number for
  /// the FIFO tie-break among simultaneous events, and the owning slot,
  /// packed into one 128-bit key: the time's bits on top (a non-negative
  /// double orders like its bit pattern), then seq, then slot. Comparing
  /// two keys is one integer compare, so picking the least of four
  /// children needs no branches. Slot never decides an order: sequences
  /// are unique engine-wide (enqueue() asserts before the 32-bit space
  /// could wrap), which also lets liveness be checked by comparing seq
  /// against the slot's current one — a stale entry can never match.
  /// Keeping the entry at 16 bytes matters: draining a large queue is
  /// bound by sift-down cache traffic, which scales with entry size.
  using Key = unsigned __int128;
  struct HeapEntry {
    Key key;

    static HeapEntry make(SimTime time, std::uint32_t seq,
                          std::uint32_t slot) {
      // `+ 0.0` turns -0.0 into +0.0, whose bits sort as zero.
      const auto bits = std::bit_cast<std::uint64_t>(time + 0.0);
      return {(Key{bits} << 64) | (Key{seq} << 32) | Key{slot}};
    }
    SimTime time() const {
      return std::bit_cast<SimTime>(static_cast<std::uint64_t>(key >> 64));
    }
    std::uint32_t seq() const { return static_cast<std::uint32_t>(key >> 32); }
    std::uint32_t slot() const { return static_cast<std::uint32_t>(key); }
  };

  /// A zero-delay lane entry; its time is the clock's.
  struct LaneEntry {
    std::uint32_t seq;
    std::uint32_t slot;
  };

  /// The heap is 4-ary: half the depth of a binary heap, and the four
  /// children of a node are 64 contiguous bytes of 16-byte entries, which
  /// is what the pop-side sift-down is bound by.
  void heap_push(HeapEntry entry);
  /// Restores heap order below `i` after heap_[i] was replaced.
  void sift_down(std::size_t i);
  /// Removes heap_.front(); the heap must be nonempty.
  void heap_pop_front();
  /// Drops the dead entries of the heap and the lane. Called when
  /// cancelled garbage outnumbers live events, so lazy deletion costs
  /// amortized O(1) per cancel instead of a sift-down per corpse at pop
  /// time.
  void heap_compact();

  void lane_push(LaneEntry entry);
  void lane_pop_front();
  std::size_t lane_size() const { return lane_.size() - lane_head_; }

  /// Appends a fresh slot to the arena and returns its index.
  std::uint32_t grow_slots();
  /// Gives the filled `slot` its sequence number and queues it at `t`.
  EventId enqueue(SimTime t, std::uint32_t slot);

  static EventId pack(std::uint32_t slot, std::uint32_t generation) {
    return (static_cast<EventId>(slot) << 32) | generation;
  }
  static std::uint32_t slot_of(EventId id) {
    return static_cast<std::uint32_t>(id >> 32);
  }
  static std::uint32_t generation_of(EventId id) {
    return static_cast<std::uint32_t>(id);
  }

  /// Returns the slot to the free list and invalidates outstanding
  /// handles/heap entries. The callback must already be moved out or dead.
  void release(std::uint32_t slot);

  /// Fires live events in (time, seq) order while the next one's time is
  /// below `limit` (or equal to it, when `kInclusive`), at most
  /// `max_events` of them. Returns how many fired.
  template <bool kInclusive>
  std::size_t drain(SimTime limit, std::size_t max_events);

  /// Bumps the processed counter and fires the sampled observer.
  void note_processed();

  SimTime now_ = 0.0;
  std::uint32_t next_seq_ = 1;
  std::uint64_t processed_ = 0;
  std::size_t live_ = 0;
  std::uint64_t observe_every_ = 0;
  Observer observer_;
  std::vector<HeapEntry> heap_;
  /// Zero-delay lane: lane_[lane_head_..] are pending, in seq order.
  std::vector<LaneEntry> lane_;
  std::size_t lane_head_ = 0;
  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kNoSlot;
  /// Heap and lane entries whose event was cancelled.
  std::size_t dead_ = 0;
};

}  // namespace realtor::sim
