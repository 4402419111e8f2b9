#include "proto/pure_push.hpp"

#include "common/profile.hpp"

namespace realtor::proto {

PurePushProtocol::PurePushProtocol(NodeId self, const ProtocolConfig& config,
                                   ProtocolEnv env)
    : DiscoveryProtocol(self, config, std::move(env)),
      table_(self, config.availability_floor, env_.advert_board),
      advertiser_(*env_.engine, config.push_interval, [this] { advertise(); }) {}

void PurePushProtocol::start() { advertiser_.start(); }

void PurePushProtocol::advertise() {
  if (!env_.topology->alive(self_)) return;  // dead hosts stay silent
  PushAdvertMsg advert;
  advert.origin = self_;
  advert.availability = 1.0 - local_occupancy();
  advert.security_level = local_security();
  advert.cause = issue_trace_id();  // the advert_sent event below
  env_.transport->flood(self_, Message{advert});
  if (tracing()) {
    trace(trace_event(obs::EventKind::kAdvertSent)
              .with("availability", advert.availability)
              .with("periodic", true)
              .with("id", advert.cause));
  }
}

void PurePushProtocol::on_status_change(double /*occupancy*/) {
  // Pure PUSH is oblivious to status changes; it only ticks.
}

void PurePushProtocol::on_task_arrival(double /*occupancy_with_task*/) {}

void PurePushProtocol::on_message(NodeId /*from*/, const Message& msg) {
  obs::ProfileScope scope("proto/pure_push");
  if (const auto* advert = std::get_if<PushAdvertMsg>(&msg)) {
    table_.update(advert->origin, advert->availability, now(),
                  advert->security_level);
  }
  // HELP/PLEDGE are not part of this scheme; ignore them (idempotence under
  // stray traffic).
}

std::vector<NodeId> PurePushProtocol::migration_candidates(
    const CandidateQuery& query) {
  return table_.candidates(peers(), rng_, query.min_availability,
                           query.min_security);
}

void PurePushProtocol::on_migration_result(NodeId target, double fraction,
                                           bool success) {
  if (success) {
    table_.debit(target, fraction);
  } else {
    table_.invalidate(target);
  }
}

void PurePushProtocol::on_self_killed() {
  advertiser_.stop();
  table_.leave();
}

void PurePushProtocol::on_self_restored() {
  table_.join();
  advertiser_.start();
}

ProtocolProbe PurePushProtocol::probe(SimTime /*now*/) const {
  ProtocolProbe out;
  out.table_size = table_.size();
  return out;
}

}  // namespace realtor::proto
