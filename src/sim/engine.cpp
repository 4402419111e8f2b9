#include "sim/engine.hpp"

#include <limits>
#include <utility>

#include "common/assert.hpp"
#include "common/profile.hpp"

namespace realtor::sim {

Engine::Engine() {
  // Typical steady-state working sets (one completion timer per host plus
  // in-flight protocol traffic) sit well under this; reserving avoids the
  // first few reallocation steps on every simulation construction.
  heap_.reserve(64);
  lane_.reserve(64);
  slots_.reserve(64);
}

void Engine::heap_push(HeapEntry entry) {
  std::size_t i = heap_.size();
  heap_.push_back(entry);  // placeholder; the hole sifts up below
  while (i > 0) {
    const std::size_t parent = (i - 1) >> 2;
    if (!(entry.key < heap_[parent].key)) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = entry;
}

void Engine::sift_down(std::size_t i) {
  const HeapEntry value = heap_[i];
  const std::size_t n = heap_.size();
  const HeapEntry* h = heap_.data();
  for (;;) {
    const std::size_t first = 4 * i + 1;
    std::size_t best;
    if (first + 4 <= n) {
      // Full family: a two-round tournament on index arithmetic, no
      // data-dependent branches.
      const std::size_t a = first + (h[first + 1].key < h[first].key);
      const std::size_t b = first + 2 + (h[first + 3].key < h[first + 2].key);
      best = h[b].key < h[a].key ? b : a;
    } else {
      if (first >= n) break;
      best = first;
      for (std::size_t c = first + 1; c < n; ++c) {
        if (h[c].key < h[best].key) best = c;
      }
    }
    if (!(h[best].key < value.key)) break;
    heap_[i] = h[best];
    i = best;
  }
  heap_[i] = value;
}

void Engine::heap_pop_front() {
  heap_.front() = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) sift_down(0);
}

void Engine::heap_compact() {
  obs::ProfileScope scope("sim/heap_compact");
  std::size_t kept = 0;
  for (const HeapEntry& entry : heap_) {
    if (slots_[entry.slot()].seq == entry.seq()) {
      heap_[kept++] = entry;
    }
  }
  heap_.resize(kept);
  if (kept > 1) {
    // Floyd construction over the 4-ary layout: sift every parent down,
    // deepest first.
    for (std::size_t i = (kept - 2) / 4 + 1; i-- > 0;) {
      sift_down(i);
    }
  }
  kept = 0;
  for (std::size_t i = lane_head_; i < lane_.size(); ++i) {
    if (slots_[lane_[i].slot].seq == lane_[i].seq) {
      lane_[kept++] = lane_[i];
    }
  }
  lane_.resize(kept);
  lane_head_ = 0;
  dead_ = 0;
}

void Engine::lane_push(LaneEntry entry) {
  // A zero-delay chain that never lets the lane run dry would otherwise
  // grow it without bound; drop the consumed prefix once it dominates.
  if (lane_head_ >= 4096 && lane_head_ * 2 >= lane_.size()) {
    lane_.erase(lane_.begin(),
                lane_.begin() + static_cast<std::ptrdiff_t>(lane_head_));
    lane_head_ = 0;
  }
  lane_.push_back(entry);
}

void Engine::lane_pop_front() {
  if (++lane_head_ == lane_.size()) {
    lane_.clear();
    lane_head_ = 0;
  }
}

std::uint32_t Engine::grow_slots() {
  const auto slot = static_cast<std::uint32_t>(slots_.size());
  slots_.emplace_back();
  return slot;
}

EventId Engine::enqueue(SimTime t, std::uint32_t slot) {
  const std::uint32_t seq = next_seq_++;
  REALTOR_ASSERT_MSG(next_seq_ != 0, "event sequence space exhausted");
  Slot& s = slots_[slot];
  s.seq = seq;
  if (t == now_) {
    lane_push(LaneEntry{seq, slot});
  } else {
    heap_push(HeapEntry::make(t, seq, slot));
  }
  ++live_;
  return pack(slot, s.generation);
}

void Engine::reserve(std::size_t events) {
  heap_.reserve(events);
  lane_.reserve(events);
  slots_.reserve(events);
}

void Engine::release(std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.fn.reset();
  ++s.generation;
  s.seq = 0;  // sequences start at 1, so any queue entry is now stale
  s.next_free = free_head_;
  free_head_ = slot;
  --live_;
}

void Engine::cancel(EventId id) {
  const std::uint32_t slot = slot_of(id);
  if (slot >= slots_.size()) return;
  if (slots_[slot].generation != generation_of(id)) return;  // fired/dead
  release(slot);
  ++dead_;  // the event's heap or lane entry is now garbage
  // Compact once corpses outnumber live entries, so cancel-heavy phases
  // (Algorithm H re-arming its HELP timers) don't grow the heap unboundedly
  // or tax every subsequent push/pop with dead weight.
  if (dead_ > 64 && dead_ * 2 > heap_.size() + lane_size()) heap_compact();
}

void Engine::clear() {
  for (std::size_t slot = 0; slot < slots_.size(); ++slot) {
    if (slots_[slot].seq != 0) release(static_cast<std::uint32_t>(slot));
  }
  heap_.clear();
  lane_.clear();
  lane_head_ = 0;
  dead_ = 0;
}

void Engine::set_observer(std::uint64_t sample_every, Observer observer) {
  observe_every_ = sample_every;
  observer_ = std::move(observer);
}

void Engine::note_processed() {
  ++processed_;
  if (observe_every_ != 0 && processed_ % observe_every_ == 0 && observer_) {
    observer_(now_, processed_, live_);
  }
}

bool Engine::pending(EventId id) const {
  const std::uint32_t slot = slot_of(id);
  return slot < slots_.size() &&
         slots_[slot].generation == generation_of(id);
}

template <bool kInclusive>
std::size_t Engine::drain(SimTime limit, std::size_t max_events) {
  std::size_t fired = 0;
  while (fired < max_events) {
    if (live_ == 0) {  // only corpses (if anything) remain — drop them all
      heap_.clear();
      lane_.clear();
      lane_head_ = 0;
      dead_ = 0;
      break;
    }
    SimTime time;
    std::uint32_t slot;
    if (lane_head_ < lane_.size() &&
        (heap_.empty() || heap_.front().time() > now_)) {
      const LaneEntry front = lane_[lane_head_];
      if (slots_[front.slot].seq != front.seq) {  // cancelled
        lane_pop_front();
        --dead_;
        continue;
      }
      time = now_;
      if (kInclusive ? time > limit : time >= limit) break;
      lane_pop_front();
      slot = front.slot;
    } else {
      const HeapEntry top = heap_.front();
      if (slots_[top.slot()].seq != top.seq()) {  // cancelled
        heap_pop_front();
        --dead_;
        continue;
      }
      time = top.time();
      if (kInclusive ? time > limit : time >= limit) break;
      heap_pop_front();
      slot = top.slot();
    }
    Callback cb = std::move(slots_[slot].fn);
    release(slot);
    now_ = time;
    note_processed();
    ++fired;
    obs::ProfileScope scope("engine/dispatch");
    cb();
  }
  return fired;
}

void Engine::run() {
  drain<true>(std::numeric_limits<SimTime>::infinity(),
              std::numeric_limits<std::size_t>::max());
}

void Engine::run_until(SimTime t) {
  REALTOR_ASSERT(t >= now_);
  drain<true>(t, std::numeric_limits<std::size_t>::max());
  now_ = t;
}

void Engine::run_until_before(SimTime t) {
  REALTOR_ASSERT(t >= now_);
  drain<false>(t, std::numeric_limits<std::size_t>::max());
  now_ = t;
}

std::size_t Engine::step(std::size_t max_events) {
  return drain<true>(std::numeric_limits<SimTime>::infinity(), max_events);
}

}  // namespace realtor::sim
