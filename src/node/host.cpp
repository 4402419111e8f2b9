#include "node/host.hpp"

#include <utility>

#include "common/assert.hpp"

namespace realtor::node {
namespace {
// Double sums drift by ulps over millions of enqueues; a fixed slack keeps
// "exactly full" admissible without ever letting a real overload through.
constexpr double kCapacitySlack = 1e-9;
}  // namespace

Host::Host(sim::Engine& engine, NodeId id, double capacity_seconds,
           const HostResources& resources)
    : engine_(engine), id_(id), capacity_(capacity_seconds),
      resources_(resources) {
  REALTOR_ASSERT(capacity_ > 0.0);
  REALTOR_ASSERT(resources_.bandwidth_capacity > 0.0);
}

double Host::backlog_seconds() const {
  double backlog = queued_work_;
  if (busy_) {
    backlog += completion_time_ - engine_.now();
  }
  return backlog > 0.0 ? backlog : 0.0;
}

bool Host::would_fit(double size_seconds) const {
  REALTOR_ASSERT(size_seconds > 0.0);
  return backlog_seconds() + size_seconds <= capacity_ + kCapacitySlack;
}

bool Host::can_accept(const Task& task) const {
  if (!would_fit(task.size_seconds)) return false;
  if (task.min_security > resources_.security_level) return false;
  if (task.bandwidth_share > 0.0 &&
      bandwidth_in_use_ + task.bandwidth_share >
          resources_.bandwidth_capacity + kCapacitySlack) {
    return false;
  }
  return true;
}

double Host::bandwidth_utilization() const {
  return bandwidth_in_use_ / resources_.bandwidth_capacity;
}

double Host::bottleneck_occupancy() const {
  const double cpu = occupancy();
  const double bw = bandwidth_utilization();
  return cpu > bw ? cpu : bw;
}

bool Host::try_enqueue(const Task& task) {
  if (!can_accept(task)) return false;
  bandwidth_in_use_ += task.bandwidth_share;
  if (!busy_) {
    REALTOR_ASSERT(queue_empty());
    busy_ = true;
    in_service_ = task;
    completion_time_ = engine_.now() + task.size_seconds;
    completion_event_ =
        engine_.schedule_at(completion_time_, [this] { on_completion(); });
  } else {
    if (!queue_) queue_.emplace();
    queue_->push_back(task);
    queued_work_ += task.size_seconds;
  }
  notify_status();
  return true;
}

std::size_t Host::clear() { return drain().size(); }

std::vector<Task> Host::drain() {
  std::vector<Task> out;
  out.reserve(queued_count() + 1);
  if (busy_) {
    engine_.cancel(completion_event_);
    completion_event_ = kInvalidEvent;
    busy_ = false;
    Task partial = in_service_;
    partial.size_seconds = completion_time_ - engine_.now();
    // A task at its exact completion instant has no remaining state to move.
    if (partial.size_seconds > 0.0) {
      out.push_back(partial);
    }
  }
  if (queue_) {
    out.insert(out.end(), queue_->begin(), queue_->end());
    queue_->clear();
  }
  queued_work_ = 0.0;
  bandwidth_in_use_ = 0.0;  // every resident task leaves with its share
  notify_status();
  return out;
}

std::optional<Task> Host::pop_newest_queued() {
  if (queue_empty()) return std::nullopt;
  Task task = queue_->back();
  queue_->pop_back();
  queued_work_ -= task.size_seconds;
  if (queued_work_ < 0.0) queued_work_ = 0.0;
  bandwidth_in_use_ -= task.bandwidth_share;
  if (bandwidth_in_use_ < 0.0) bandwidth_in_use_ = 0.0;
  notify_status();
  return task;
}

void Host::set_status_listener(StatusListener listener) {
  status_listener_ = std::move(listener);
}

void Host::set_completion_listener(CompletionListener listener) {
  completion_listener_ = std::move(listener);
}

void Host::start_next() {
  REALTOR_ASSERT(!busy_);
  REALTOR_ASSERT(!queue_empty());
  busy_ = true;
  in_service_ = queue_->front();
  queue_->pop_front();
  queued_work_ -= in_service_.size_seconds;
  if (queued_work_ < 0.0) queued_work_ = 0.0;  // absorb rounding residue
  completion_time_ = engine_.now() + in_service_.size_seconds;
  completion_event_ =
      engine_.schedule_at(completion_time_, [this] { on_completion(); });
}

void Host::on_completion() {
  REALTOR_ASSERT(busy_);
  completion_event_ = kInvalidEvent;
  busy_ = false;
  ++completed_count_;
  completed_work_ += in_service_.size_seconds;
  bandwidth_in_use_ -= in_service_.bandwidth_share;
  if (bandwidth_in_use_ < 0.0) bandwidth_in_use_ = 0.0;
  const Task finished = in_service_;
  if (tracer_ != nullptr && tracer_->active()) {
    tracer_->emit(
        obs::TraceEvent(engine_.now(), id_, obs::EventKind::kTaskCompleted)
            .with("task", finished.id)
            .with("size", finished.size_seconds)
            .with("response", engine_.now() - finished.arrival_time)
            .with("migrations", finished.migrations));
  }
  if (!queue_empty()) {
    start_next();
  }
  notify_status();
  if (completion_listener_) {
    completion_listener_(*this, finished);
  }
}

void Host::notify_status() {
  if (status_listener_) {
    status_listener_(*this);
  }
}

}  // namespace realtor::node
