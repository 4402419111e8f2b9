// Pure PUSH baseline ("Push-1").
//
// §4: "Each host disseminates its own resource availability information to
// its neighbors unconditionally at every preset interval." No HELP, no
// solicitation: a fixed-rate flood of advertisements whose cost is
// independent of whether anyone needs the information — the bandwidth
// waste the paper demonstrates in Figs. 6-7.
#pragma once

#include <memory>

#include "proto/availability_table.hpp"
#include "proto/discovery_protocol.hpp"
#include "sim/process.hpp"

namespace realtor::proto {

class PurePushProtocol final : public DiscoveryProtocol {
 public:
  PurePushProtocol(NodeId self, const ProtocolConfig& config, ProtocolEnv env);

  const char* name() const override { return "pure-push"; }

  void start() override;
  void on_status_change(double occupancy) override;
  void on_task_arrival(double occupancy_with_task) override;
  void on_message(NodeId from, const Message& msg) override;
  using DiscoveryProtocol::migration_candidates;
  std::vector<NodeId> migration_candidates(
      const CandidateQuery& query) override;
  void on_migration_result(NodeId target, double fraction,
                           bool success) override;
  void on_self_killed() override;
  void on_self_restored() override;
  ProtocolProbe probe(SimTime now) const override;

 private:
  void advertise();

  AvailabilityTable table_;
  sim::PeriodicProcess advertiser_;
};

}  // namespace realtor::proto
