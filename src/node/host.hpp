// Single-server host with a bounded work queue.
//
// §5: each node has "a single queue of 100 seconds to process tasks"; the
// queue is measured in seconds of unfinished work (including the remaining
// service of the task holding the CPU). A task fits iff the backlog plus
// its own length stays within capacity. Occupancy fraction backlog/capacity
// is the "resource usage" that Algorithms H and P compare against their
// thresholds.
//
// Multi-resource extension (§5 footnote 3): the host additionally owns a
// bandwidth capacity (shares held by every resident task, released on
// completion) and a security level (tasks demanding a higher level are
// refused). Defaults disable both, reproducing the paper's CPU-only model
// exactly.
#pragma once

#include <deque>
#include <functional>
#include <optional>
#include <vector>

#include "common/types.hpp"
#include "node/task.hpp"
#include "obs/trace.hpp"
#include "sim/engine.hpp"

namespace realtor::node {

/// Non-CPU resources of a host; defaults reproduce the CPU-only model.
struct HostResources {
  /// Total NIC capacity in task shares (1.0 = whole NIC).
  double bandwidth_capacity = 1.0;
  /// Security level offered to components (tasks require >= their min).
  std::uint8_t security_level = 255;
};

class Host {
 public:
  /// Fired after any backlog change (admission, completion, clear).
  using StatusListener = std::function<void(const Host&)>;
  /// Fired when a task finishes service.
  using CompletionListener = std::function<void(const Host&, const Task&)>;

  Host(sim::Engine& engine, NodeId id, double capacity_seconds,
       const HostResources& resources = HostResources{});
  Host(const Host&) = delete;
  Host& operator=(const Host&) = delete;

  NodeId id() const { return id_; }
  double capacity_seconds() const { return capacity_; }

  /// Unfinished work: queued sizes plus the in-service remainder.
  double backlog_seconds() const;

  /// backlog / capacity, in [0, 1].
  double occupancy() const { return backlog_seconds() / capacity_; }

  /// True iff `size_seconds` of additional CPU work fits right now
  /// (CPU dimension only).
  bool would_fit(double size_seconds) const;

  /// Full multi-resource admission test: CPU fit, bandwidth fit, and
  /// security clearance.
  bool can_accept(const Task& task) const;

  /// Admits the task if can_accept(); starts service if the server is
  /// idle and holds its bandwidth share until completion.
  bool try_enqueue(const Task& task);

  bool busy() const { return busy_; }
  std::size_t queued_count() const { return queue_ ? queue_->size() : 0; }

  /// Bandwidth shares held by resident tasks, over capacity, in [0, 1].
  double bandwidth_utilization() const;
  std::uint8_t security_level() const { return resources_.security_level; }
  const HostResources& resources() const { return resources_; }

  /// Occupancy of the binding resource dimension: max of CPU occupancy
  /// and bandwidth utilization. Equals occupancy() in the CPU-only model.
  double bottleneck_occupancy() const;

  std::uint64_t completed_count() const { return completed_count_; }
  double completed_work_seconds() const { return completed_work_; }

  /// Drops all work (queued and in service) — models the node being killed
  /// by an attack. Returns the number of tasks lost.
  std::size_t clear();

  /// Removes all work and returns it for evacuation to other hosts. The
  /// in-service task comes back with its size reduced to the remaining
  /// service time — exactly the paper's migratable-component state, "the
  /// current value of un-expired time" (§6).
  std::vector<Task> drain();

  /// Removes and returns the newest *queued* task (never the one in
  /// service) — the cheapest component to relocate for location
  /// elusiveness (§3: application-triggered migration). nullopt when
  /// nothing is queued.
  std::optional<Task> pop_newest_queued();

  void set_status_listener(StatusListener listener);
  void set_completion_listener(CompletionListener listener);

  /// Attaches a borrowed tracer for task_completed records (nullptr
  /// detaches — the zero-overhead default).
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }

  sim::Engine& engine() const { return engine_; }

 private:
  void start_next();
  void on_completion();
  void notify_status();
  bool queue_empty() const { return !queue_ || queue_->empty(); }

  sim::Engine& engine_;
  NodeId id_;
  double capacity_;
  HostResources resources_;
  double bandwidth_in_use_ = 0.0;

  // Engaged on the first queued task: an empty libstdc++ deque already
  // allocates, and most hosts of a large overlay never queue anything.
  std::optional<std::deque<Task>> queue_;
  double queued_work_ = 0.0;

  bool busy_ = false;
  Task in_service_{};
  SimTime completion_time_ = 0.0;
  EventId completion_event_ = kInvalidEvent;

  std::uint64_t completed_count_ = 0;
  double completed_work_ = 0.0;

  StatusListener status_listener_;
  CompletionListener completion_listener_;
  obs::Tracer* tracer_ = nullptr;
};

}  // namespace realtor::node
