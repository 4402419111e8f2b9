#include "experiment/simulation.hpp"

#include <algorithm>
#include <utility>

#include "common/assert.hpp"
#include "common/profile.hpp"
#include "proto/factory.hpp"

namespace realtor::experiment {

NodeId TopologySpec::node_count() const {
  switch (kind) {
    case TopologyKind::kMesh:
    case TopologyKind::kTorus:
      return width * height;
    case TopologyKind::kRing:
    case TopologyKind::kStar:
    case TopologyKind::kComplete:
    case TopologyKind::kRandom:
      return nodes;
  }
  return 0;
}

net::Topology build_topology(const TopologySpec& spec) {
  switch (spec.kind) {
    case TopologyKind::kMesh:
      return net::make_mesh(spec.width, spec.height);
    case TopologyKind::kTorus:
      return net::make_torus(spec.width, spec.height);
    case TopologyKind::kRing:
      return net::make_ring(spec.nodes);
    case TopologyKind::kStar:
      return net::make_star(spec.nodes);
    case TopologyKind::kComplete:
      return net::make_complete(spec.nodes);
    case TopologyKind::kRandom:
      return net::make_random_connected(spec.nodes, spec.links, spec.seed);
  }
  REALTOR_ASSERT_MSG(false, "unknown topology kind");
  return net::make_mesh(1, 1);
}

Simulation::Simulation(const ScenarioConfig& config)
    : config_(config),
      topology_(build_topology(config.topology)),
      cost_model_(topology_, config.cost_mode, config.fixed_unicast_cost,
                  config.flood_mode),
      transport_(engine_, topology_, cost_model_, metrics_.ledger,
                 config.network_delay,
                 [this](NodeId to, NodeId from, const proto::Message& msg) {
                   protocols_[to]->on_message(from, msg);
                 }),
      admission_(config.migration, topology_, cost_model_, metrics_.ledger,
                 [this](NodeId id) { return hosts_[id].get(); }),
      arrivals_(engine_, config.seed, config.lambda, config.mean_task_size,
                topology_.num_nodes(),
                [this](const sim::Arrival& a) { handle_arrival(a); }),
      injector_(engine_, topology_),
      attack_rng_(config.seed, "attack-victims"),
      multires_rng_(config.seed, "multi-resource") {
  if (config_.approx_path_stats) {
    cost_model_.set_approx_path_stats(true);
  }
  transport_.set_tracer(&tracer_);
  const NodeId n = topology_.num_nodes();
  hosts_.reserve(n);
  protocols_.reserve(n);
  monitors_.resize(n);

  if (config_.federation.enabled) {
    const FederationConfig& fed = config_.federation;
    if (fed.block_width > 0 && fed.block_height > 0 &&
        config_.topology.kind == TopologyKind::kMesh) {
      groups_ = federation::GroupMap::mesh_blocks(
          config_.topology.width, config_.topology.height, fed.block_width,
          fed.block_height);
    } else {
      groups_ = federation::GroupMap::chunks(n, fed.group_size);
    }
    transport_.set_group_map(&*groups_);
    last_escalation_.assign(n, -kNeverTime);
  }

  const MultiResourceConfig& mr = config_.multi_resource;
  for (NodeId id = 0; id < n; ++id) {
    node::HostResources resources;
    if (mr.enabled) {
      resources.bandwidth_capacity = mr.bandwidth_capacity;
      // Round-robin security levels spread clearance uniformly over the
      // mesh (the paper's "locations that run at higher security levels").
      resources.security_level =
          static_cast<std::uint8_t>(id % mr.security_levels);
    }
    hosts_.push_back(std::make_unique<node::Host>(
        engine_, id, config_.queue_capacity, resources));
  }
  for (NodeId id = 0; id < n; ++id) {
    proto::ProtocolEnv env;
    env.engine = &engine_;
    env.topology = &topology_;
    env.transport = &transport_;
    // With multiple resources the protocols reason about the binding
    // dimension; in the CPU-only model this is plain queue occupancy.
    env.local_occupancy = mr.enabled
        ? std::function<double()>(
              [this, id] { return hosts_[id]->bottleneck_occupancy(); })
        : std::function<double()>(
              [this, id] { return hosts_[id]->occupancy(); });
    if (mr.enabled) {
      env.local_security = [this, id] {
        return hosts_[id]->security_level();
      };
    }
    env.seed = config_.seed;
    env.tracer = &tracer_;
    env.episodes = &episodes_;
    protocols_.push_back(proto::make_protocol(config_.protocol_kind, id,
                                              config_.protocol,
                                              std::move(env)));
  }
  admission_.set_tracer(&tracer_, &engine_);
  for (NodeId id = 0; id < n; ++id) {
    hosts_[id]->set_tracer(&tracer_);
    hosts_[id]->set_status_listener([this, id](const node::Host& h) {
      monitors_[id].sample(engine_.now(), h);
      protocols_[id]->on_status_change(h.occupancy());
    });
    hosts_[id]->set_completion_listener(
        [this](const node::Host&, const node::Task& task) {
          ++metrics_.completed;
          metrics_.completed_work_seconds += task.size_seconds;
          metrics_.response_time.add(engine_.now() - task.arrival_time);
        });
  }
  injector_.add_listener([this](NodeId nodeid, bool alive) {
    on_liveness_change(nodeid, alive);
  });
  if (config_.sample_interval > 0.0) {
    sampler_.emplace(engine_, config_.sample_interval, tracer_, &registry_);
    sampler_->add_probe([this](SimTime now) { sample_observability(now); });
  }
}

void Simulation::handle_arrival(const sim::Arrival& arrival) {
  double bandwidth_share = 0.0;
  std::uint8_t min_security = 0;
  if (config_.multi_resource.enabled) {
    const MultiResourceConfig& mr = config_.multi_resource;
    bandwidth_share = std::min(
        0.5, multires_rng_.exponential(mr.mean_bandwidth_share));
    if (mr.security_levels > 1 &&
        multires_rng_.bernoulli(mr.secure_task_fraction)) {
      min_security = static_cast<std::uint8_t>(
          1 + multires_rng_.uniform_index(mr.security_levels - 1));
    }
  }
  process_arrival(arrival, bandwidth_share, min_security);
}

void Simulation::inject(const sim::Arrival& arrival, double bandwidth_share,
                        std::uint8_t min_security) {
  process_arrival(arrival, bandwidth_share, min_security);
}

void Simulation::process_arrival(const sim::Arrival& arrival,
                                 double bandwidth_share,
                                 std::uint8_t min_security) {
  ++metrics_.generated;
  if (!topology_.alive(arrival.node)) {
    ++metrics_.arrivals_at_dead_nodes;
    return;
  }

  node::Host& host = *hosts_[arrival.node];
  node::Task task;
  task.id = arrival.id;
  task.size_seconds = arrival.size_seconds;
  task.arrival_time = arrival.time;
  task.origin = arrival.node;
  task.bandwidth_share = bandwidth_share;
  task.min_security = min_security;
  if (tracing()) {
    tracer_.emit(obs::TraceEvent(engine_.now(), arrival.node,
                                 obs::EventKind::kTaskArrival)
                     .with("task", task.id)
                     .with("size", task.size_seconds));
  }

  // Algorithm H's trigger signal: how far the *binding* resource dimension
  // would be pushed by this task. CPU-only runs reduce to queue occupancy;
  // with multiple resources a NIC-bound or security-refused task counts as
  // full demand even when the CPU queue has room.
  double occupancy_with_task =
      (host.backlog_seconds() + task.size_seconds) / host.capacity_seconds();
  if (config_.multi_resource.enabled) {
    if (task.bandwidth_share > 0.0) {
      occupancy_with_task = std::max(
          occupancy_with_task,
          host.bandwidth_utilization() +
              task.bandwidth_share / host.resources().bandwidth_capacity);
    }
    if (task.min_security > host.security_level()) {
      occupancy_with_task = std::max(occupancy_with_task, 1.0);
    }
  }

  if (host.try_enqueue(task)) {
    ++metrics_.admitted_local;
    if (tracing()) {
      tracer_.emit(obs::TraceEvent(engine_.now(), arrival.node,
                                   obs::EventKind::kTaskAdmitLocal)
                       .with("task", task.id)
                       .with("occupancy", host.occupancy()));
    }
  } else {
    const auto outcome =
        admission_.try_migrate(task, arrival.node, *protocols_[arrival.node]);
    metrics_.migration_attempts += outcome.attempts;
    if (outcome.admitted) {
      ++metrics_.admitted_migrated;
      metrics_.migration_aborts += outcome.attempts - 1;
      if (tracing()) {
        tracer_.emit(obs::TraceEvent(engine_.now(), arrival.node,
                                     obs::EventKind::kTaskAdmitMigrated)
                         .with("task", task.id)
                         .with("target", outcome.target)
                         .with("attempts", outcome.attempts)
                         .with("episode",
                               protocols_[arrival.node]->current_episode())
                         .with("id", tracer_.issue_id())
                         .with("cause", outcome.last_event));
      }
    } else {
      ++metrics_.rejected;
      metrics_.migration_aborts += outcome.attempts;
      if (tracing()) {
        tracer_.emit(obs::TraceEvent(engine_.now(), arrival.node,
                                     obs::EventKind::kTaskRejected)
                         .with("task", task.id)
                         .with("attempts", outcome.attempts)
                         .with("episode",
                               protocols_[arrival.node]->current_episode())
                         .with("id", tracer_.issue_id())
                         .with("cause", outcome.last_event));
      }
      if (outcome.attempts == 0) {
        // Local group had nothing to offer: solicit the neighbor groups
        // so future arrivals can migrate out (§7 extension).
        maybe_escalate(arrival.node);
      }
    }
  }

  // Algorithm H's trigger runs after the decision: the candidate list a
  // PULL scheme consulted above was gathered by *earlier* solicitations.
  protocols_[arrival.node]->on_task_arrival(occupancy_with_task);
}

void Simulation::maybe_escalate(NodeId origin) {
  if (!groups_) return;
  const SimTime now = engine_.now();
  if (now - last_escalation_[origin] < config_.federation.escalation_window) {
    return;
  }
  last_escalation_[origin] = now;
  proto::HelpMsg help;
  help.origin = origin;
  help.urgency = 1.0;  // escalations only happen once the group is dry
  const federation::GroupId own = groups_->group_of(origin);
  std::uint32_t notified = 0;
  for (const federation::GroupId neighbor :
       groups_->adjacent_groups(own, topology_)) {
    transport_.escalate(origin, neighbor, proto::Message{help});
    ++metrics_.escalations;
    ++notified;
  }
  if (notified > 0 && tracing()) {
    tracer_.emit(
        obs::TraceEvent(now, origin, obs::EventKind::kEscalation)
            .with("groups", notified));
  }
}

void Simulation::elusive_round() {
  engine_.schedule_in(config_.elusiveness.period, [this] { elusive_round(); });
  for (NodeId id = 0; id < topology_.num_nodes(); ++id) {
    if (!topology_.alive(id)) continue;
    auto component = hosts_[id]->pop_newest_queued();
    if (!component) continue;
    const auto outcome = admission_.try_migrate(*component, id, *protocols_[id]);
    metrics_.migration_attempts += outcome.attempts;
    if (outcome.admitted) {
      ++metrics_.elusive_moves;
      metrics_.migration_aborts += outcome.attempts - 1;
    } else {
      // Nowhere better to hide: the component stays put. Re-admission
      // cannot fail — its own capacity was just freed.
      const bool readmitted = hosts_[id]->try_enqueue(*component);
      REALTOR_ASSERT(readmitted);
      ++metrics_.elusive_stays;
      metrics_.migration_aborts += outcome.attempts;
    }
  }
}

void Simulation::evacuate(NodeId victim) {
  if (!topology_.alive(victim)) return;
  std::vector<node::Task> resident = hosts_[victim]->drain();
  metrics_.evacuation_candidates += resident.size();
  std::size_t saved = 0;
  for (node::Task& task : resident) {
    const auto outcome =
        admission_.try_migrate(task, victim, *protocols_[victim]);
    metrics_.migration_attempts += outcome.attempts;
    if (outcome.admitted) {
      ++metrics_.evacuated;
      ++saved;
    } else {
      // Nowhere to go before the node dies: the work perishes with it.
      ++metrics_.lost_to_attack;
      metrics_.migration_aborts += outcome.attempts;
    }
  }
  if (tracing()) {
    tracer_.emit(
        obs::TraceEvent(engine_.now(), victim, obs::EventKind::kEvacuation)
            .with("resident", resident.size())
            .with("saved", saved));
  }
}

void Simulation::on_liveness_change(NodeId nodeid, bool alive) {
  if (!alive) {
    const std::size_t lost = hosts_[nodeid]->clear();
    metrics_.lost_to_attack += lost;
    protocols_[nodeid]->on_self_killed();
    if (tracing()) {
      tracer_.emit(obs::TraceEvent(engine_.now(), nodeid,
                                   obs::EventKind::kNodeKilled)
                       .with("lost", lost));
    }
  } else {
    protocols_[nodeid]->on_self_restored();
    if (tracing()) {
      tracer_.emit(obs::TraceEvent(engine_.now(), nodeid,
                                   obs::EventKind::kNodeRestored));
    }
  }
}

void Simulation::schedule_attacks(const std::vector<AttackWave>& waves) {
  std::size_t wave_index = 0;
  for (const AttackWave& wave : waves) {
    REALTOR_ASSERT(wave.count <= topology_.num_nodes());
    // Victims are drawn up-front from the full population — the attacker
    // does not care whom we consider alive later.
    std::vector<NodeId> victims;
    std::vector<char> chosen(topology_.num_nodes(), 0);
    while (victims.size() < wave.count) {
      const NodeId v = static_cast<NodeId>(
          attack_rng_.uniform_index(topology_.num_nodes()));
      if (chosen[v]) continue;
      chosen[v] = 1;
      victims.push_back(v);
    }
    const SimTime kill_time = wave.time + wave.grace;
    for (const NodeId victim : victims) {
      if (wave.grace > 0.0) {
        // The attack warning first triggers an emergency solicitation (§3:
        // security enforcers forward the request to REALTOR); pledges come
        // back and the actual evacuation runs mid-grace on fresh state.
        engine_.schedule_at(wave.time, [this, victim] {
          if (topology_.alive(victim)) {
            protocols_[victim]->solicit();
          }
        });
        engine_.schedule_at(wave.time + wave.grace * 0.5,
                            [this, victim] { evacuate(victim); });
      }
      injector_.schedule_kill(victim, kill_time);
      if (wave.outage > 0.0) {
        injector_.schedule_restore(victim, kill_time + wave.outage);
      }
    }
    // The wave listener (flight-recorder dump-on-attack) fires after the
    // kills land: kills are scheduled above with earlier sequence numbers
    // at the same timestamp, so the FIFO tie-break runs them first and the
    // listener sees the post-attack state. Scheduled only when a listener
    // is attached, so untraced runs stay event-for-event identical.
    if (attack_wave_listener_) {
      const std::size_t index = wave_index;
      engine_.schedule_at(kill_time, [this, index, kill_time] {
        attack_wave_listener_(index, kill_time);
      });
    }
    ++wave_index;
  }
}

const RunMetrics& Simulation::run() {
  begin_run();
  return finish_run();
}

void Simulation::begin_run() {
  REALTOR_ASSERT_MSG(!begun_, "Simulation::run() is one-shot");
  begun_ = true;

  for (auto& protocol : protocols_) {
    protocol->start();
  }
  schedule_attacks(config_.attacks);
  if (config_.elusiveness.enabled) {
    engine_.schedule_in(config_.elusiveness.period,
                        [this] { elusive_round(); });
  }
  if (config_.warmup > 0.0) {
    engine_.schedule_at(config_.warmup, [this] { metrics_.reset(); });
  }
  if (config_.timeline_interval > 0.0) {
    engine_.schedule_in(config_.timeline_interval,
                        [this] { take_timeline_sample(); });
  }
  if (sampler_) {
    sampler_->start();
  }
  if (config_.live_cadence > 0.0) {
    engine_.schedule_in(config_.live_cadence, [this] { live_tick(); });
  }
  if (config_.engine_sample_every > 0) {
    engine_.set_observer(
        config_.engine_sample_every,
        [this](SimTime now, std::uint64_t processed, std::size_t pending) {
          if (!tracing()) return;
          tracer_.emit(obs::TraceEvent(now, kInvalidNode,
                                       obs::EventKind::kEngineStep)
                           .with("processed", processed)
                           .with("pending", pending));
        });
  }
  if (!config_.external_arrivals) {
    arrivals_.start();
  }
}

void Simulation::run_prefix(SimTime t) {
  REALTOR_ASSERT(begun_ && !finished_);
  engine_.run_until_before(t);
}

const RunMetrics& Simulation::finish_run() {
  REALTOR_ASSERT(begun_ && !finished_);
  finished_ = true;

  engine_.run_until(config_.duration);
  arrivals_.stop();

  finalize_telemetry();
  tracer_.flush();

  REALTOR_ASSERT(metrics_.generated ==
                 metrics_.admitted_local + metrics_.admitted_migrated +
                     metrics_.rejected + metrics_.arrivals_at_dead_nodes);
  return metrics_;
}

void Simulation::take_timeline_sample() {
  engine_.schedule_in(config_.timeline_interval,
                      [this] { take_timeline_sample(); });
  TimelineSample sample;
  sample.time = engine_.now();
  sample.generated = metrics_.generated;
  sample.admitted = metrics_.admitted_total();
  sample.rejected = metrics_.rejected;
  sample.overhead_cost = metrics_.ledger.overhead_cost();
  sample.alive_nodes = topology_.alive_count();
  double occupancy_sum = 0.0;
  topology_.for_each_alive_node(
      [&](NodeId node) { occupancy_sum += hosts_[node]->occupancy(); });
  sample.mean_occupancy =
      sample.alive_nodes > 0
          ? occupancy_sum / static_cast<double>(sample.alive_nodes)
          : 0.0;
  if (!timeline_.empty()) {
    // Window admission over the tasks decided since the previous sample
    // (dead-origin arrivals never reach a decision and drop out).
    const TimelineSample& prev = timeline_.back();
    const std::uint64_t new_admitted = sample.admitted - prev.admitted;
    const std::uint64_t new_rejected = sample.rejected - prev.rejected;
    const std::uint64_t decided = new_admitted + new_rejected;
    sample.window_admission =
        decided > 0
            ? static_cast<double>(new_admitted) / static_cast<double>(decided)
            : 1.0;
  }
  timeline_.push_back(sample);
}

void Simulation::live_tick() {
  // Always re-arm before emitting so the engine schedule is identical
  // whether or not a sink is attached (same contract as the sampler).
  engine_.schedule_in(config_.live_cadence, [this] { live_tick(); });
  const SimTime now = engine_.now();
  live_last_tick_ = now;
  if (!tracing()) return;
  tracer_.emit(obs::TraceEvent(now, kInvalidNode, obs::EventKind::kLiveTick));
}

void Simulation::sample_observability(SimTime now) {
  const std::size_t alive = topology_.alive_count();
  double occupancy_sum = 0.0;
  topology_.for_each_alive_node([&](NodeId id) {
    const node::Host& host = *hosts_[id];
    occupancy_sum += host.occupancy();
    if (!tracing()) return;
    const proto::ProtocolProbe probe = protocols_[id]->probe(now);
    obs::TraceEvent event(now, id, obs::EventKind::kNodeSample);
    event.with("occupancy", host.occupancy())
        .with("utilization", monitors_[id].utilization(now))
        .with("table_size", probe.table_size);
    if (probe.communities > 0) event.with("communities", probe.communities);
    if (probe.help_interval > 0.0) {
      event.with("help_interval", probe.help_interval);
    }
    tracer_.emit(event);
  });
  registry_.gauge("nodes.alive").set(static_cast<double>(alive));
  registry_.gauge("occupancy.mean")
      .set(alive > 0 ? occupancy_sum / static_cast<double>(alive) : 0.0);
  registry_.gauge("messages.cost").set(metrics_.ledger.overhead_cost());
  registry_.gauge("tasks.generated")
      .set(static_cast<double>(metrics_.generated));
  registry_.gauge("tasks.admitted")
      .set(static_cast<double>(metrics_.admitted_total()));
  registry_.gauge("tasks.rejected")
      .set(static_cast<double>(metrics_.rejected));
}

void Simulation::finalize_telemetry() {
  const SimTime now = engine_.now();
  // Last-sample-at-end: close the sampled time series at the run's final
  // instant, then close the live plane with a final tick so its last
  // snapshot covers everything (including the samples just emitted).
  if (sampler_) {
    sampler_->finish(now);
  }
  if (config_.live_cadence > 0.0 && live_last_tick_ < now && tracing()) {
    live_last_tick_ = now;
    tracer_.emit(obs::TraceEvent(now, kInvalidNode, obs::EventKind::kLiveTick)
                     .with("final", true));
  }
  double occupancy_sum = 0.0;
  double utilization_sum = 0.0;
  for (const auto& monitor : monitors_) {
    occupancy_sum += monitor.average_occupancy(now);
    utilization_sum += monitor.utilization(now);
  }
  const double n = static_cast<double>(monitors_.size());
  metrics_.mean_occupancy = occupancy_sum / n;
  metrics_.mean_utilization = utilization_sum / n;

  // Fold the self-profiler's scope totals into the registry so profiled
  // runs export them alongside the simulation gauges. The process-wide
  // profiler outlives this Simulation, so the totals cover everything
  // recorded since its last reset (the harness resets between runs).
  if (obs::Profiler::instance().enabled()) {
    for (const obs::ProfileEntry& entry : obs::Profiler::instance().snapshot()) {
      registry_.gauge("profile." + entry.path + ".calls")
          .set(static_cast<double>(entry.calls));
      registry_.gauge("profile." + entry.path + ".ms")
          .set(static_cast<double>(entry.ns) / 1e6);
    }
  }
}

}  // namespace realtor::experiment
