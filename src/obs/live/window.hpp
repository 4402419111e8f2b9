// Sliding-window aggregators for the live telemetry plane.
//
// Two window shapes cover every rule the alert engine evaluates:
//
//   SlidingWindow — a ring of time buckets, each holding mergeable
//   count/sum/min/max plus an optional per-bucket quantile reservoir
//   (obs::Histogram). advance(now) rotates expired buckets; snapshot()
//   rolls the live buckets up oldest-to-newest via Histogram::merge, so
//   the rollup is a pure function of the observation stream and the
//   advancement instants — the determinism the live plane guarantees
//   across --jobs values.
//
//   TailWindow — the last N observations ("admission probability over
//   the last 50 episodes"), a plain value ring with on-demand stats.
//
// Neither window allocates on the observation path once constructed
// (TailWindow never; SlidingWindow only inside Histogram reservoir growth
// up to its bounded capacity).
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "obs/metrics.hpp"

namespace realtor::obs::live {

/// Rolled-up view of a window at one evaluation instant.
struct WindowSnapshot {
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;  // 0 when empty
  double max = 0.0;  // 0 when empty
  double mean() const {
    return count > 0 ? sum / static_cast<double>(count) : 0.0;
  }
};

/// Time-sliced sliding window: `buckets` ring slots of `span / buckets`
/// simulated seconds each. Observations land in the bucket covering their
/// timestamp; advance() expires buckets older than `span`. Timestamps must
/// be nondecreasing (the engine delivers events in time order).
class SlidingWindow {
 public:
  /// `reservoir_per_bucket` > 0 arms per-bucket quantile reservoirs
  /// (needed by quantile(); count/sum/min/max never need one).
  SlidingWindow(SimTime span, std::size_t buckets,
                std::size_t reservoir_per_bucket = 0);

  void observe(SimTime now, double value);
  /// Counting shorthand for rate signals (value 1.0 per occurrence).
  void count(SimTime now) { observe(now, 1.0); }

  /// Rotates the ring so the window covers (now - span, now]. Buckets the
  /// window slid past are cleared; called implicitly by observe().
  void advance(SimTime now);

  WindowSnapshot snapshot() const;
  /// Quantile over the windowed observations (merged oldest-to-newest per
  /// Histogram::merge). 0.0 when the window is empty or reservoirs are
  /// disarmed.
  double quantile(double q) const;
  /// Events per simulated second over min(span, now) — the window's rate
  /// before one full span has elapsed uses the elapsed time.
  double rate(SimTime now) const;

  SimTime span() const { return span_; }

 private:
  struct Bucket {
    std::uint64_t count = 0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;
    Histogram* reservoir = nullptr;  // owned via reservoirs_ when armed
    void clear();
    void observe(double value);
  };

  SimTime span_;
  SimTime bucket_span_;
  std::vector<Bucket> ring_;
  std::vector<Histogram> reservoirs_;  // parallel to ring_ when armed
  /// Global index (floor(now / bucket_span)) of the newest bucket; -1
  /// before the first advance.
  std::int64_t current_ = -1;
};

/// The last N observations, oldest overwritten first.
class TailWindow {
 public:
  explicit TailWindow(std::size_t capacity);

  void observe(double value);
  WindowSnapshot snapshot() const;
  std::size_t capacity() const { return capacity_; }

 private:
  std::size_t capacity_;
  std::vector<double> ring_;
  std::size_t next_ = 0;
  std::uint64_t seen_ = 0;
};

}  // namespace realtor::obs::live
