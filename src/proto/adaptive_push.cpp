#include "proto/adaptive_push.hpp"

#include "common/profile.hpp"

namespace realtor::proto {

AdaptivePushProtocol::AdaptivePushProtocol(NodeId self,
                                           const ProtocolConfig& config,
                                           ProtocolEnv env)
    : DiscoveryProtocol(self, config, std::move(env)),
      detector_(config.pledge_threshold),
      table_(self, config.availability_floor, env_.advert_board) {}

void AdaptivePushProtocol::on_status_change(double occupancy) {
  if (!env_.topology->alive(self_)) return;
  const node::Crossing crossing = detector_.update(occupancy);
  if (crossing == node::Crossing::kNone) return;
  if (tracing()) {
    trace(trace_event(obs::EventKind::kThresholdCrossing)
              .with("direction",
                    crossing == node::Crossing::kUp ? "up" : "down")
              .with("occupancy", occupancy)
              .with("threshold", detector_.threshold()));
  }
  PushAdvertMsg advert;
  advert.origin = self_;
  advert.availability = 1.0 - occupancy;
  advert.security_level = local_security();
  advert.cause = issue_trace_id();  // the advert_sent event below
  env_.transport->flood(self_, Message{advert});
  if (tracing()) {
    trace(trace_event(obs::EventKind::kAdvertSent)
              .with("availability", advert.availability)
              .with("periodic", false)
              .with("id", advert.cause));
  }
}

void AdaptivePushProtocol::on_task_arrival(double /*occupancy_with_task*/) {}

void AdaptivePushProtocol::on_message(NodeId /*from*/, const Message& msg) {
  obs::ProfileScope scope("proto/adaptive_push");
  if (const auto* advert = std::get_if<PushAdvertMsg>(&msg)) {
    table_.update(advert->origin, advert->availability, now(),
                  advert->security_level);
  }
}

std::vector<NodeId> AdaptivePushProtocol::migration_candidates(
    const CandidateQuery& query) {
  return table_.candidates(peers(), rng_, query.min_availability,
                           query.min_security);
}

void AdaptivePushProtocol::on_migration_result(NodeId target, double fraction,
                                               bool success) {
  if (success) {
    table_.debit(target, fraction);
  } else {
    table_.invalidate(target);
  }
}

void AdaptivePushProtocol::on_self_killed() {
  detector_.reset();
  table_.leave();
}

void AdaptivePushProtocol::on_self_restored() { table_.join(); }

ProtocolProbe AdaptivePushProtocol::probe(SimTime /*now*/) const {
  ProtocolProbe out;
  out.table_size = table_.size();
  return out;
}

}  // namespace realtor::proto
