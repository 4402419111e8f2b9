#include "agile/live_monitor.hpp"

namespace realtor::agile {

using obs::live::RuleSignal;

namespace {

std::uint64_t delta(std::uint64_t now, std::uint64_t before) {
  return now > before ? now - before : 0;
}

}  // namespace

LiveMonitor::LiveMonitor(LiveMonitorConfig config)
    : cadence_(config.cadence), core_(std::move(config), " plane=agile") {}

LiveMonitor::~LiveMonitor() { stop(); }

bool LiveMonitor::ok() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return core_.ok();
}

std::string LiveMonitor::error() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return core_.error();
}

void LiveMonitor::set_alert_listener(obs::live::AlertListener listener) {
  std::lock_guard<std::mutex> lock(mutex_);
  listener_ = std::move(listener);
}

void LiveMonitor::start(const Clock& clock, Sampler sampler) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!core_.ok() || !stopped_ || cadence_ <= 0.0) return;
  sampler_ = std::move(sampler);
  stop_requested_ = false;
  stopped_ = false;
  thread_ = std::thread([this, &clock] { run_loop(&clock); });
}

void LiveMonitor::run_loop(const Clock* clock) {
  std::uint64_t tick = 1;
  std::unique_lock<std::mutex> lock(mutex_);
  while (true) {
    const SimTime target = static_cast<double>(tick) * cadence_;
    // wall_at() pins the schedule to the model epoch, so sampling drift
    // never accumulates even when a sample runs long.
    if (cv_.wait_until(lock, clock->wall_at(target),
                       [this] { return stop_requested_; })) {
      return;  // stop() takes the final sample itself
    }
    Sample sample = sampler_();
    sample.now = clock->now();
    ingest_locked(sample, /*final_sample=*/false);
    ++tick;
  }
}

void LiveMonitor::stop() {
  Sampler final_sampler;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopped_) return;
    stop_requested_ = true;
    final_sampler = sampler_;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  std::lock_guard<std::mutex> lock(mutex_);
  stopped_ = true;
  if (final_sampler) {
    Sample sample = final_sampler();
    if (sample.now <= prev_.now) sample.now = prev_.now + cadence_;
    ingest_locked(sample, /*final_sample=*/true);
  }
  core_.flush();
}

void LiveMonitor::observe(const Sample& sample) {
  std::lock_guard<std::mutex> lock(mutex_);
  ingest_locked(sample, /*final_sample=*/false);
}

void LiveMonitor::ingest_locked(const Sample& sample, bool final_sample) {
  const SimTime now = sample.now;
  const auto repeat = [](std::uint64_t times, const auto& feed) {
    for (std::uint64_t i = 0; i < times; ++i) feed();
  };

  // Decisions enter the count windows admitted-first: their true
  // interleaving inside one sampling interval is unobservable.
  const std::uint64_t d_reject = delta(sample.rejected, prev_.rejected);
  repeat(delta(sample.admitted, prev_.admitted),
         [&] { core_.decision(true); });
  repeat(d_reject, [&] { core_.decision(false); });
  repeat(delta(sample.helps, prev_.helps),
         [&] { core_.occurrence(RuleSignal::kHelpRate, now); });
  repeat(delta(sample.messages, prev_.messages),
         [&] { core_.occurrence(RuleSignal::kMessageRate, now); });
  repeat(d_reject,
         [&] { core_.occurrence(RuleSignal::kRejectionRate, now); });

  // Episode latency: HostStats keeps sum and count, not per-episode
  // values, so the interval's closures all contribute its mean.
  const std::uint64_t d_closed =
      delta(sample.episodes_closed, prev_.episodes_closed);
  if (d_closed > 0) {
    const double mean_latency =
        (sample.latency_sum - prev_.latency_sum) /
        static_cast<double>(d_closed);
    repeat(d_closed, [&] { core_.latency(now, mean_latency); });
  }
  prev_ = sample;

  const obs::live::LiveCore::Gauges gauges{
      sample.nodes_alive,
      delta(sample.episodes_issued,
            sample.episodes_closed + sample.rejected)};
  core_.tick(
      now, final_sample, gauges,
      [this, now](const obs::live::AlertRule& rule, bool firing,
                  double value, double) {
        if (listener_) listener_(rule, firing, now, value);
      },
      [](std::string&) {});
}

std::uint64_t LiveMonitor::snapshots() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return core_.snapshots();
}

std::uint64_t LiveMonitor::alerts_fired() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return core_.alerts_fired();
}

bool LiveMonitor::alert_firing(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return core_.alert_firing(name);
}

std::string LiveMonitor::exposition() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return core_.exposition();
}

}  // namespace realtor::agile
