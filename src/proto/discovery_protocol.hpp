// The common interface of the five resource-discovery protocols.
//
// One instance runs per host. The surrounding harness (discrete-event
// simulation or the threaded Agile runtime) owns the Host and the
// Transport; the protocol reacts to local status changes, task arrivals
// and incoming messages, and answers migration-candidate queries from the
// admission controller.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "net/topology.hpp"
#include "obs/trace.hpp"
#include "proto/config.hpp"
#include "proto/message.hpp"
#include "proto/transport.hpp"
#include "sim/engine.hpp"

namespace realtor::proto {

class AdvertBoard;

/// Environment handed to every protocol instance. Non-owning: the harness
/// guarantees these outlive the protocol.
struct ProtocolEnv {
  sim::Engine* engine = nullptr;
  const net::Topology* topology = nullptr;
  Transport* transport = nullptr;
  /// Occupancy of this protocol's own host, in [0, 1].
  std::function<double()> local_occupancy;
  /// Security level of this protocol's own host (255 = unrestricted;
  /// only set by multi-resource harnesses).
  std::function<std::uint8_t()> local_security;
  /// Root seed; per-node tie-break streams derive from it.
  std::uint64_t seed = 0;
  /// Optional event tracer (nullptr = untraced, the zero-overhead
  /// default). Borrowed from the harness; emission never changes protocol
  /// decisions, so traced and untraced runs of one seed are identical.
  obs::Tracer* tracer = nullptr;
  /// Optional shared allocator of discovery-episode ids (nullptr =
  /// episode threading disabled; all episodes read 0). Like the tracer it
  /// never influences decisions — allocation is one counter increment.
  obs::EpisodeSource* episodes = nullptr;
  /// Optional shared board the transport publishes whole-overlay push
  /// adverts to (nullptr = every advert arrives through on_message). The
  /// PUSH schemes read it through their AvailabilityTable.
  AdvertBoard* advert_board = nullptr;
};

/// Requirements of the task a candidate must be able to take (all
/// defaults reproduce the CPU-only behaviour: any usable entry matches).
struct CandidateQuery {
  /// Minimum advertised free fraction; the protocol still applies its
  /// own availability floor on top.
  double min_availability = 0.0;
  /// Required host security clearance.
  std::uint8_t min_security = 0;
};

/// Read-only snapshot of a protocol's soft state, taken by the
/// time-series sampler. Fields a scheme does not maintain stay zero.
struct ProtocolProbe {
  /// Entries in the candidate store (pledge list, availability table, or
  /// gossip digest).
  std::size_t table_size = 0;
  /// Live community memberships (REALTOR only).
  std::uint32_t communities = 0;
  /// Current Algorithm-H solicitation interval (adaptive pull schemes).
  double help_interval = 0.0;
};

class DiscoveryProtocol {
 public:
  DiscoveryProtocol(NodeId self, const ProtocolConfig& config,
                    ProtocolEnv env);
  virtual ~DiscoveryProtocol() = default;
  DiscoveryProtocol(const DiscoveryProtocol&) = delete;
  DiscoveryProtocol& operator=(const DiscoveryProtocol&) = delete;

  NodeId self() const { return self_; }
  const ProtocolConfig& config() const { return config_; }
  virtual const char* name() const = 0;

  /// Begins autonomous behaviour (periodic advertisement etc.).
  virtual void start() {}

  /// The host's backlog changed (admission, completion, migration in/out).
  virtual void on_status_change(double occupancy) = 0;

  /// A task arrived at this host. `occupancy_with_task` includes the new
  /// task's demand and may exceed 1 when the task does not fit — this is
  /// the "resource usage would exceed a threshold level" signal of
  /// Algorithm H. Called *after* the admission/migration decision, so pull
  /// protocols act on information gathered before the request (the paper's
  /// "untimeliness" of PULL).
  virtual void on_task_arrival(double occupancy_with_task) = 0;

  /// A protocol message arrived from `from`.
  virtual void on_message(NodeId from, const Message& msg) = 0;

  /// Hosts able to receive a migrating task with requirements `query`,
  /// best first. May mutate internal soft state (expiry sweeps, tie-break
  /// draws).
  virtual std::vector<NodeId> migration_candidates(
      const CandidateQuery& query) = 0;

  /// Unconstrained query (the paper's CPU-only experiments).
  std::vector<NodeId> migration_candidates() {
    return migration_candidates(CandidateQuery{});
  }

  /// Feedback from admission control: a migration of `fraction` of the
  /// target's capacity to `target` succeeded or was aborted.
  virtual void on_migration_result(NodeId target, double fraction,
                                   bool success) = 0;

  /// Emergency solicitation: a resource monitor or security enforcer (§3)
  /// is about to force migrations off this host — gather fresh candidate
  /// information *now*, bypassing normal rate gates. Push-based schemes
  /// have no solicitation primitive, so the default is a no-op.
  virtual void solicit() {}

  /// This host was killed: drop all soft state (it restarts cold).
  virtual void on_self_killed() {}

  /// This host recovered from a kill and rejoins the system.
  virtual void on_self_restored() {}

  /// Soft-state snapshot for the sampler; never mutates (no expiry sweep).
  virtual ProtocolProbe probe(SimTime /*now*/) const { return {}; }

  /// Id of this node's most recent discovery episode (the last HELP round
  /// it opened), or 0 if it never solicited / episode threading is off.
  /// The admission layer stamps migration-decision events with it: the
  /// candidate list consulted for a migration was gathered by that round's
  /// pledges, so the outcome is causally attributed to it.
  std::uint64_t current_episode() const { return current_episode_; }

  /// Lineage id of the trace event that last refreshed this node's
  /// candidate store (the most recent pledge_received record), or 0 if no
  /// pledge arrived yet / tracing is off. The admission layer uses it as
  /// the cause of migration_attempt events: the candidate list a migration
  /// consults is exactly the evidence that record folded in.
  std::uint64_t last_evidence_id() const { return last_evidence_; }

 protected:
  SimTime now() const { return env_.engine->now(); }
  double local_occupancy() const { return env_.local_occupancy(); }

  /// True when an active tracer is attached — the guard every emission
  /// site tests before building its event payload.
  bool tracing() const {
    return env_.tracer != nullptr && env_.tracer->active();
  }
  /// Event pre-stamped with the current time and this node; only call
  /// under tracing().
  obs::TraceEvent trace_event(obs::EventKind kind) const {
    return obs::TraceEvent(now(), self_, kind);
  }
  void trace(const obs::TraceEvent& event) const { env_.tracer->emit(event); }

  /// Allocates the next lineage event id, or 0 when tracing is off — the
  /// allocator is only ever touched on traced paths, so untraced runs stay
  /// bit-identical and pay nothing.
  std::uint64_t issue_trace_id() const {
    return tracing() ? env_.tracer->issue_id() : 0;
  }
  std::uint8_t local_security() const {
    return env_.local_security ? env_.local_security() : 255;
  }

  /// Opens a new discovery episode: allocates the next id from the shared
  /// source and remembers it as this node's current episode. Pull schemes
  /// call this once per HELP flood, before stamping the message.
  std::uint64_t open_episode() {
    current_episode_ = env_.episodes != nullptr ? env_.episodes->next() : 0;
    return current_episode_;
  }

  /// Alive overlay nodes other than self — the neighbor scope (§5: the
  /// topology "represents the limited scope of neighbors ... for all five
  /// resource discovery schemes").
  std::vector<NodeId> peers() const;

  /// Same set written into `out` (cleared first) — lets periodic hot paths
  /// (gossip rounds, candidate queries) reuse one buffer instead of
  /// allocating per call.
  void peers_into(std::vector<NodeId>& out) const;

  NodeId self_;
  ProtocolConfig config_;
  ProtocolEnv env_;
  RngStream rng_;  // tie-breaks only; never feeds workload randomness
  std::uint64_t current_episode_ = 0;
  /// See last_evidence_id(); maintained by the pull schemes' pledge
  /// handlers (push/gossip candidate refreshes have no per-record trace
  /// event, so theirs stays 0).
  std::uint64_t last_evidence_ = 0;
};

inline DiscoveryProtocol::DiscoveryProtocol(NodeId self,
                                            const ProtocolConfig& config,
                                            ProtocolEnv env)
    : self_(self),
      config_(config),
      env_(std::move(env)),
      rng_(env_.seed ^ (0x9e3779b97f4a7c15ULL * (self + 1)), "proto-ties") {}

inline void DiscoveryProtocol::peers_into(std::vector<NodeId>& out) const {
  out.clear();
  env_.topology->for_each_alive_node([&](NodeId n) {
    if (n != self_) out.push_back(n);
  });
}

inline std::vector<NodeId> DiscoveryProtocol::peers() const {
  std::vector<NodeId> out;
  out.reserve(env_.topology->alive_count());
  peers_into(out);
  return out;
}

}  // namespace realtor::proto
