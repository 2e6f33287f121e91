// Simulation drivers ("actors") that wire the protocol logic to the
// discrete-event substrate: one per node kind.
//
//   FairNodeActor     — static cap; only advances the workload (§2.3.1)
//   PenelopeNodeActor — decider + power pool + peer transactions (§3)
//   CentralClientActor / CentralServerActor — the SLURM-style system
//                       (§2.3.2, §4.1)
//
// Each actor owns a NodeBody (power model + application) ticked on the
// node's control period. All messaging goes through net::Network; pool
// and server request processing sits behind net::SerialServer so
// queueing delay and packet drops come out of the model, not out of
// special cases.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "central/client.hpp"
#include "central/server.hpp"
#include "cluster/metrics.hpp"
#include "hierarchy/podd_server.hpp"
#include "common/rng.hpp"
#include "core/decider.hpp"
#include "core/ledger.hpp"
#include "core/membership.hpp"
#include "core/pool.hpp"
#include "core/txn_window.hpp"
#include "net/network.hpp"
#include "net/serial_server.hpp"
#include "power/performance_model.hpp"
#include "power/simulated_rapl.hpp"
#include "sim/simulator.hpp"
#include "workload/application.hpp"

namespace penelope::cluster {

using net::NodeId;

struct NodeConfig {
  NodeId id = 0;
  double initial_cap_watts = 160.0;
  double epsilon_watts = 5.0;
  common::Ticks period = common::kTicksPerSecond;
  /// How long a decider waits for a grant before giving up; defaults to
  /// one period in ClusterConfig.
  common::Ticks request_timeout = common::kTicksPerSecond;
  /// First tick fires at this offset (decider start jitter).
  common::Ticks start_offset = 0;
  power::SimulatedRaplConfig rapl;
  power::PerformanceModelConfig perf;
  /// Gaussian noise added to the power reading the *manager* sees (the
  /// application always progresses on true delivered power).
  double measurement_noise_watts = 0.0;
  /// Penelope protocol knobs (see core/decider.hpp); exposed here so the
  /// ablation benches can sweep them per cluster.
  core::LocalTakePolicy local_take = core::LocalTakePolicy::kDrainAll;
  bool urgency_enabled = true;
  /// Peer-discovery ablation: remember the last peer that granted power
  /// and retry it while it keeps paying out, instead of sampling
  /// uniformly every time.
  bool sticky_peers = false;
  /// Peer-discovery extension: empty-handed pools forward a hint (their
  /// own last-successful peer) and requesters follow it on their next
  /// probe. Composes with uniform random (hints expire after one use).
  bool hint_discovery = false;
  /// Fault-tolerance refinement: after this many *consecutive* timeouts
  /// from the same peer, stop probing it for blacklist_duration (a dead
  /// node otherwise keeps eating one probe period per unlucky draw).
  /// 0 disables blacklisting.
  int blacklist_after_timeouts = 0;
  common::Ticks blacklist_duration = 30 * common::kTicksPerSecond;
  /// Push-gossip extension: when the local pool exceeds the threshold
  /// at the end of a step, push `push_fraction` of it to a uniformly
  /// random peer's pool. The dual of the paper's pull discovery —
  /// excess diffuses instead of waiting to be found.
  bool push_gossip = false;
  double push_threshold_watts = 20.0;
  double push_fraction = 0.25;
  /// Membership layer (PROTOCOL.md "Membership and incarnations"): the
  /// node heartbeats `membership_peers` every heartbeat period and runs
  /// a FailureDetector over them. Off by default — heartbeats are extra
  /// traffic and detector events are extra simulator events, either of
  /// which would perturb the pinned golden trace.
  bool membership_enabled = false;
  core::MembershipConfig membership;
  std::vector<NodeId> membership_peers;
  /// TEST HOOK (DST planted bug): revert the PR 2 grant hardening —
  /// duplicate grants bypass the dedup window and late grants deposit
  /// into the pool without the in-flight decrement, minting watts. Never
  /// enable outside the fault-schedule explorer's self-test.
  bool test_revert_grant_fix = false;
  std::uint64_t seed = 1;
};

/// Power model + workload progress shared by every actor kind.
class NodeBody {
 public:
  NodeBody(sim::Simulator& sim, const NodeConfig& config,
           workload::WorkloadProfile profile);

  /// Advance power and application to `now`; returns the *measured*
  /// average power since the previous tick (true average plus
  /// measurement noise). Fires `on_complete` once when the app finishes.
  double tick(common::Ticks now);

  void set_on_complete(std::function<void(NodeId, common::Ticks)> fn) {
    on_complete_ = std::move(fn);
  }

  bool app_done() const { return app_.done(); }
  std::optional<common::Ticks> completion_time() const {
    return app_.completion_time();
  }
  double fraction_complete() const { return app_.fraction_complete(); }
  power::SimulatedRapl& rapl() { return rapl_; }
  const power::SimulatedRapl& rapl() const { return rapl_; }
  const NodeConfig& config() const { return config_; }

 private:
  sim::Simulator& sim_;
  NodeConfig config_;
  power::SimulatedRapl rapl_;
  power::PerformanceModel perf_;
  workload::Application app_;
  common::Rng noise_rng_;
  common::Ticks last_tick_ = 0;
  bool completion_reported_ = false;
  std::function<void(NodeId, common::Ticks)> on_complete_;
};

/// Static allocation: the Fair baseline. The cap is set once and the
/// node merely runs its workload.
class FairNodeActor {
 public:
  FairNodeActor(sim::Simulator& sim, const NodeConfig& config,
                workload::WorkloadProfile profile);

  NodeBody& body() { return body_; }
  double cap() const { return body_.rapl().cap(); }

 private:
  NodeBody body_;
  sim::PeriodicTask tick_task_;
};

/// A Penelope node: local decider + local power pool. The pool listens
/// behind a SerialServer; the decider issues peer requests chosen by
/// `pick_peer` and resolves them on grant arrival or timeout.
class PenelopeNodeActor {
 public:
  PenelopeNodeActor(sim::Simulator& sim, net::Network& net,
                    const NodeConfig& config,
                    const core::PoolConfig& pool_config,
                    const net::SerialServerConfig& pool_service,
                    workload::WorkloadProfile profile,
                    std::function<NodeId()> pick_peer,
                    ClusterMetrics& metrics);

  /// Fault injection: stop the decider and the pool service while the
  /// application keeps running at its frozen cap (a management-plane
  /// crash, the Penelope analogue of losing SLURM's server process).
  void kill_management();
  bool management_alive() const { return management_alive_; }

  /// Crash-restart fault injection (whole-node, unlike kill_management):
  /// the node drops off the network, loses its volatile protocol state
  /// (TxnWindows, banked pool, outstanding request, discovery caches),
  /// and its live power above the safe minimum is stranded against
  /// (id, incarnation) for epoch-guarded reclamation. The hardware keeps
  /// drawing at the firmware-default safe-minimum cap while down.
  void crash();
  /// Rejoin after crash(): incarnation bumps, the network endpoint and
  /// pool service come back, and any of this node's own crash residue
  /// that nobody reclaimed yet is self-reclaimed into the fresh pool.
  /// The node re-admits itself at fair share through the normal urgent
  /// path (it is far below its initial cap).
  void restart();
  bool crashed() const { return crashed_; }
  std::uint32_t incarnation() const { return incarnation_; }
  const core::FailureDetector* detector() const {
    return detector_ ? &*detector_ : nullptr;
  }

  NodeBody& body() { return body_; }
  const core::Decider& decider() const { return decider_; }
  const core::PowerPool& pool() const { return pool_; }
  double cap() const { return decider_.cap(); }
  double pool_watts() const { return pool_.available(); }
  double retirement_debt() const { return decider_.retirement_debt(); }

  /// Observability: route every sampled-state mutation (cap, debt, pool,
  /// rapl anchor, crash/restart) to one dirty byte owned by the
  /// cluster's telemetry mirror. Never set on the golden path.
  void set_observer_dirty(std::uint8_t* cell) {
    observer_dirty_ = cell;
    decider_.set_observer_dirty(cell);
    pool_.set_observer_dirty(cell);
    body_.rapl().set_observer_dirty(cell);
  }

  /// Dynamic budget reconfiguration: adjust this node's share. Returns
  /// the watts retired immediately (cut) — the rest becomes debt.
  double apply_budget_delta(double delta_watts);
  const net::SerialServerStats& pool_service_stats() const {
    return pool_service_.stats();
  }

  /// Timed-out requests whose grants may still arrive (bounded; exposed
  /// so tests can assert the bound under sustained loss).
  std::size_t stale_entries() const { return ledger_.stale_entries(); }

  /// Transaction id of the currently outstanding request, 0 if none
  /// (used by the liveness watchdog's diagnostic dump).
  std::uint64_t outstanding_txn() const {
    return ledger_.outstanding() ? ledger_.outstanding()->txn : 0;
  }

  bool peer_blacklisted(NodeId peer) const;
  /// Operational/test control: refuse to probe `peer` until `until`,
  /// as if it had accumulated the configured consecutive timeouts.
  void force_peer_blacklist(NodeId peer, common::Ticks until);

 private:
  void on_tick(common::Ticks now);
  void on_message(const net::Message& msg);
  void on_pool_request(const net::Message& msg);
  void on_grant(const net::Message& msg);
  void finish_step(common::Ticks now);
  void resolve_outstanding_as_timeout();
  void membership_tick(common::Ticks now);
  /// Detector-informed peer avoidance for the kNeedsPeer draw.
  bool peer_unusable(NodeId peer) const;

  void note_peer_timeout(NodeId peer);
  void note_peer_answered(NodeId peer);

  sim::Simulator& sim_;
  net::Network& net_;
  NodeBody body_;
  core::PowerPool pool_;
  core::Decider decider_;
  net::SerialServer pool_service_;
  std::function<NodeId()> pick_peer_;
  ClusterMetrics& metrics_;
  sim::PeriodicTask tick_task_;
  /// Outstanding request, timed-out requests whose grants may still
  /// arrive, and the at-most-once window over grants and pushes.
  core::RequestLedger ledger_;
  sim::EventId timeout_event_ = sim::kInvalidEventId;
  /// sticky_peers ablation: the last peer whose grant paid out.
  NodeId sticky_peer_ = net::kNoNode;
  NodeId last_queried_peer_ = net::kNoNode;
  /// hint_discovery: a one-shot referral received in an empty grant.
  NodeId hinted_peer_ = net::kNoNode;
  /// Blacklist bookkeeping: consecutive timeouts and expiry per peer.
  struct PeerHealth {
    int consecutive_timeouts = 0;
    common::Ticks blacklisted_until = 0;
  };
  std::unordered_map<NodeId, PeerHealth> peer_health_;
  /// At-most-once window over requests arriving at the pool service.
  core::TxnWindow request_window_;
  std::uint64_t push_seq_ = 0;  ///< stream-1 sequence for PowerPush txns
  bool management_alive_ = true;
  /// Membership: per-peer suspicion state, present only when enabled.
  std::optional<core::FailureDetector> detector_;
  std::vector<core::MembershipTransition> transitions_;  ///< tick scratch
  common::Ticks next_heartbeat_at_ = 0;
  std::uint32_t incarnation_ = 1;  ///< crash counter, bumps on restart()
  bool crashed_ = false;
  std::uint8_t* observer_dirty_ = nullptr;
};

/// SLURM-style client: classifies locally, moves all power through the
/// central server. With `hierarchical = true` the client first runs the
/// PoDD profiling phase — reporting its power draw each period instead
/// of shifting — until the server sends its learned CapAssignment, then
/// proceeds exactly like a central client from the assigned cap.
class CentralClientActor {
 public:
  CentralClientActor(sim::Simulator& sim, net::Network& net,
                     const NodeConfig& config, NodeId server_id,
                     workload::WorkloadProfile profile,
                     ClusterMetrics& metrics, bool hierarchical = false);

  NodeBody& body() { return body_; }
  const central::Client& client() const { return client_; }
  double cap() const { return client_.cap(); }
  bool awaiting_assignment() const { return awaiting_assignment_; }
  double retirement_debt() const { return client_.retirement_debt(); }

  /// Crash-restart (the SLURM-analogue churn path): the client drops to
  /// the safe-minimum cap, its seized share is stranded against
  /// (id, incarnation) so the server's detector can return it to the
  /// budget, and volatile state (grant window, outstanding request) is
  /// lost. restart() rejoins at a bumped incarnation; unreclaimed own
  /// residue is self-reclaimed and donated straight back to the server
  /// (re-admission then happens through the normal urgent path).
  void crash();
  void restart();
  bool crashed() const { return crashed_; }
  std::uint32_t incarnation() const { return incarnation_; }

  /// Dynamic budget reconfiguration (see PenelopeNodeActor).
  double apply_budget_delta(double delta_watts);

  std::size_t stale_entries() const { return ledger_.stale_entries(); }

  /// Outstanding request's txn id, 0 if none (watchdog diagnostics).
  std::uint64_t outstanding_txn() const {
    return ledger_.outstanding() ? ledger_.outstanding()->txn : 0;
  }

 private:
  void on_tick(common::Ticks now);
  void on_message(const net::Message& msg);
  void on_grant(const net::Message& msg);
  void resolve_outstanding_as_timeout();
  void donate(double watts, common::Ticks now);

  sim::Simulator& sim_;
  net::Network& net_;
  NodeBody body_;
  central::Client client_;
  NodeId server_id_;
  ClusterMetrics& metrics_;
  sim::PeriodicTask tick_task_;
  /// Late grants (the norm when a saturated server answers slower than
  /// the decider period) still produce honest turnaround samples from
  /// the ledger's stale map. Unknown-txn grants are stranded.
  core::RequestLedger ledger_;
  sim::EventId timeout_event_ = sim::kInvalidEventId;
  std::uint64_t donation_seq_ = 0;  ///< stream-1 sequence for donations
  /// Hierarchical (PoDD) mode: true until the server's CapAssignment
  /// arrives; while true, ticks send ProfileReports and do not shift.
  bool awaiting_assignment_ = false;
  common::Ticks next_heartbeat_at_ = 0;
  std::uint32_t incarnation_ = 1;
  bool crashed_ = false;
};

/// What both server actors share: the serial-service queue that
/// produces the paper's 80–100 µs per-request behaviour and its
/// saturation knee, the at-most-once window over donations and requests
/// (shared with the queue's overflow drop handler, so a queued copy of a
/// stranded donation is recognised as a duplicate and vice versa), and
/// SLURM-analogue membership over the clients.
class ServerActor {
 public:
  virtual ~ServerActor() = default;

  /// Fault injection for Figure 3: the node dies; queued and future
  /// messages are lost (donation watts in them are stranded).
  void kill();
  bool alive() const { return alive_; }

  /// SLURM-analogue membership (the dead-client reclamation path the
  /// paper's comparison lacks): the server watches client heartbeats;
  /// a client declared dead has its seized share and stranded watts
  /// returned to the server budget via ServerLogic::reclaim. A client
  /// rejoining at a higher incarnation is readmitted implicitly — its
  /// urgent requests draw fair share back out of the cache.
  void enable_membership(const core::MembershipConfig& config,
                         int n_clients);

  NodeId id() const { return id_; }
  const net::SerialServerStats& service_stats() const {
    return service_.stats();
  }

 protected:
  ServerActor(sim::Simulator& sim, net::Network& net, NodeId id,
              const net::SerialServerConfig& service,
              ClusterMetrics& metrics);

  /// The budget logic donations and requests are served against.
  virtual central::ServerLogic& central_logic() = 0;
  /// Messages that are neither heartbeats, donations nor requests;
  /// false if not understood.
  virtual bool handle_other(const net::Message&) { return false; }
  /// `peer` rejoined at a new incarnation or was declared dead.
  virtual void on_peer_epoch_end(std::int32_t) {}

  sim::Simulator& sim_;
  net::Network& net_;
  NodeId id_;
  ClusterMetrics& metrics_;

 private:
  void process(const net::Message& msg);
  void membership_tick(common::Ticks now);

  net::SerialServer service_;
  core::TxnWindow txn_window_;
  std::optional<core::FailureDetector> detector_;
  std::optional<sim::PeriodicTask> detector_task_;
  std::vector<core::MembershipTransition> transitions_;
  bool alive_ = true;
};

/// PoDD-style hierarchical server (§2.3.3): collects profile reports,
/// computes per-group initial-cap assignments, broadcasts them, then
/// behaves as a central power server for steady-state refinement.
class HierarchicalServerActor : public ServerActor {
 public:
  HierarchicalServerActor(sim::Simulator& sim, net::Network& net,
                          NodeId id,
                          const hierarchy::PoddConfig& config,
                          const net::SerialServerConfig& service,
                          ClusterMetrics& metrics);

  const hierarchy::PoddServerLogic& logic() const { return logic_; }
  double cache_watts() const { return logic_.central().cache_watts(); }

 private:
  central::ServerLogic& central_logic() override { return logic_.central(); }
  bool handle_other(const net::Message& msg) override;
  void on_peer_epoch_end(std::int32_t peer) override;
  /// Broadcast the learned CapAssignments exactly once, as soon as the
  /// profiling window closes — whether the closing event was the final
  /// ProfileReport or the expiry of a dead node's stale reports.
  void maybe_send_assignments();

  hierarchy::PoddServerLogic logic_;
  bool assignments_sent_ = false;
};

/// The central power server (§2.3.2).
class CentralServerActor : public ServerActor {
 public:
  CentralServerActor(sim::Simulator& sim, net::Network& net, NodeId id,
                     const central::ServerConfig& config,
                     const net::SerialServerConfig& service,
                     ClusterMetrics& metrics);

  const central::ServerLogic& logic() const { return logic_; }
  double cache_watts() const { return logic_.cache_watts(); }

 private:
  central::ServerLogic& central_logic() override { return logic_; }

  central::ServerLogic logic_;
};

}  // namespace penelope::cluster
