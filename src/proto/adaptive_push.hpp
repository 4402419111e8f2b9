// Adaptive PUSH baseline ("Push-.9").
//
// §4: "Each host disseminates its own resource availability information to
// its neighbors whenever the resource usage changes across a threshold
// level." Advertisement volume tracks status *changes* rather than time,
// which is why the paper finds it close to Push-1 in effectiveness at a
// fraction of the overhead.
#pragma once

#include "node/threshold.hpp"
#include "proto/availability_table.hpp"
#include "proto/discovery_protocol.hpp"

namespace realtor::proto {

class AdaptivePushProtocol final : public DiscoveryProtocol {
 public:
  AdaptivePushProtocol(NodeId self, const ProtocolConfig& config,
                       ProtocolEnv env);

  const char* name() const override { return "adaptive-push"; }

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
  node::ThresholdDetector detector_;
  AvailabilityTable table_;
};

}  // namespace realtor::proto
