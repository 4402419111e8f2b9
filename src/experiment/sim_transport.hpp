// Transport implementation for the discrete-event harness: delivers
// protocol messages across the overlay and charges the ledger using the
// paper's accounting (flood = alive links; unicast = average path length).
// Hop distances and partition checks come from the cost model's
// ShortestPaths oracle (CostModel::paths()); the transport keeps no path
// cache of its own.
//
// Fan-out data path: a flood wraps the message once in a ref-counted
// immutable payload (one allocation per flood, counted by the
// payload_allocations() test hook) and either walks all destinations in
// id order inside a single scheduled event (batched mode, the zero-delay
// default) or schedules one 32-byte {dest, origin, payload} event per
// destination with hop-accurate delays (per-destination mode). Both fit
// the engine's inline EventFn buffer — no per-event heap traffic. The two
// modes are observably equivalent under the engine's time-then-FIFO
// ordering: per-destination deliveries get consecutive sequence numbers
// at schedule time, so no other event can interleave them, and liveness
// flips at the same timestamp always carry smaller sequence numbers (they
// are scheduled at t=0), so they are visible to both modes alike.
//
// Push adverts on the batched whole-overlay path are not handed to the
// receivers at all: with an AdvertBoard attached, the event publishes the
// advert to the board once, at fire time, and every receiver alive then
// sees it through its AvailabilityTable (see availability_table.hpp).
// Per-destination and group-scoped fan-outs still deliver to each
// receiver.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "federation/group_map.hpp"
#include "net/cost_model.hpp"
#include "net/message_ledger.hpp"
#include "net/topology.hpp"
#include "obs/trace.hpp"
#include "proto/transport.hpp"
#include "sim/engine.hpp"

namespace realtor::proto {
class AdvertBoard;
}  // namespace realtor::proto

namespace realtor::experiment {

class SimTransport final : public proto::Transport {
 public:
  /// Routes a delivered message to the destination protocol instance.
  using Deliver = std::function<void(NodeId to, NodeId from,
                                     const proto::Message&)>;

  /// Shared immutable fan-out payload: allocated once per flood, then
  /// ref-counted by every pending delivery event.
  using Payload = std::shared_ptr<const proto::Message>;

  /// How flood fan-out is scheduled. kAuto picks batched when the
  /// per-hop delay is zero (deliveries would all fire at the same time in
  /// id order anyway) and per-destination otherwise.
  enum class DeliveryMode { kAuto, kPerDestination, kBatched };

  SimTransport(sim::Engine& engine, const net::Topology& topology,
               const net::CostModel& cost_model, net::MessageLedger& ledger,
               SimTime delay, Deliver deliver);

  /// Federation: restricts flood() to the origin's neighbor group (the §7
  /// extension). Pass nullptr (default) for the paper's flat overlay.
  /// The map must outlive the transport.
  void set_group_map(const federation::GroupMap* groups) { groups_ = groups; }

  /// Overrides the fan-out scheduling strategy (kAuto by default). The
  /// equivalence test pins each mode explicitly and diffs the traces.
  void set_delivery_mode(DeliveryMode mode) { mode_ = mode; }
  DeliveryMode delivery_mode() const { return mode_; }

  /// Board that batched whole-overlay push adverts are published to
  /// instead of being delivered per receiver (nullptr, the default,
  /// delivers them like any other message). Must outlive the transport.
  void set_advert_board(proto::AdvertBoard* board) { board_ = board; }

  void flood(NodeId origin, const proto::Message& msg) override;
  void unicast(NodeId from, NodeId to, const proto::Message& msg) override;

  /// Inter-group escalation: floods `msg` into `target_group` on behalf of
  /// `origin`, charged as the target group's intra links plus a
  /// gateway-to-gateway transit (2 unicasts). Requires a group map.
  void escalate(NodeId origin, federation::GroupId target_group,
                const proto::Message& msg);

  /// Test hook: payload envelopes allocated so far — exactly one per
  /// flood/escalate regardless of destination count.
  std::uint64_t payload_allocations() const { return payload_allocations_; }

  /// Messages that reached a receiver: one per handed-over message, and
  /// one per alive receiver of each advert published to the board.
  std::uint64_t deliveries() const { return deliveries_; }

  /// Unicasts charged to the ledger but dropped because the endpoints sat
  /// in different partitions of the alive subgraph (record-and-drop: the
  /// message dies at the partition edge; the paper's accounting still
  /// counts the send attempt).
  std::uint64_t dropped_unreachable() const { return dropped_unreachable_; }

  /// Borrowed tracer for unreachable_drop records (the scorecard's
  /// per-episode drop attribution); nullptr (default) stays silent.
  /// Tracing never changes delivery decisions.
  void set_tracer(const obs::Tracer* tracer) { tracer_ = tracer; }

 private:
  static net::MessageKind kind_of(const proto::Message& msg);

  /// True when fan-out should batch all destinations into one event.
  bool batched() const {
    return mode_ == DeliveryMode::kBatched ||
           (mode_ == DeliveryMode::kAuto && delay_ == 0.0);
  }

  /// Wraps a message into its shared fan-out envelope (the one allocation
  /// per flood).
  Payload wrap(const proto::Message& msg) {
    ++payload_allocations_;
    return std::make_shared<const proto::Message>(msg);
  }

  /// Clamps a raw BFS distance to a schedulable leg count: disconnected
  /// pairs cannot exchange messages anyway; charge one leg so the event
  /// still fires and liveness is re-checked at delivery time.
  static std::uint32_t clamp_hops(std::uint32_t d) {
    return d == net::kUnreachable || d == 0 ? 1 : d;
  }

  /// Schedules delivery of a shared payload after `hops` propagation legs.
  void deliver_later(NodeId dest, NodeId origin, Payload payload,
                     std::uint32_t hops);
  /// Single-destination variant: moves `msg` straight into the event's
  /// inline buffer (exactly one copy, no envelope allocation).
  void deliver_later(NodeId dest, NodeId origin, proto::Message msg,
                     std::uint32_t hops = 1);
  std::uint32_t hop_distance(NodeId from, NodeId to) const;

  /// Fans `payload` out to every alive member of `group` except `origin`
  /// (the flat-overlay sentinel addresses all nodes), batched or
  /// per-destination per the current mode. `hop_accurate` spaces the
  /// deliveries by BFS distance (floods with a positive delay); otherwise
  /// every destination is one uniform leg away.
  void fan_out(NodeId origin, federation::GroupId group, Payload payload,
               bool hop_accurate);

  sim::Engine& engine_;
  const net::Topology& topology_;
  const net::CostModel& cost_model_;
  net::MessageLedger& ledger_;
  SimTime delay_;
  Deliver deliver_;
  const federation::GroupMap* groups_ = nullptr;
  const obs::Tracer* tracer_ = nullptr;
  proto::AdvertBoard* board_ = nullptr;
  DeliveryMode mode_ = DeliveryMode::kAuto;
  std::uint64_t payload_allocations_ = 0;
  std::uint64_t dropped_unreachable_ = 0;
  std::uint64_t deliveries_ = 0;
};

}  // namespace realtor::experiment
