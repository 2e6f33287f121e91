#include "cluster/actors.hpp"

#include <utility>

#include "central/protocol.hpp"
#include "common/check.hpp"
#include "common/log.hpp"
#include "common/units.hpp"
#include "core/protocol.hpp"

namespace penelope::cluster {

namespace {
/// Txn-id stream for membership/reclaim journal records: reclaimed
/// watts are attributable to (dead node, incarnation) straight from the
/// id, like grants are to their minting node.
constexpr std::uint32_t kMembershipStream = 2;

std::uint64_t membership_txn(std::int32_t node, std::uint32_t incarnation) {
  return core::make_txn_id(node, kMembershipStream, incarnation);
}

/// A crash strands a node's live watts above the safe minimum against
/// (node, incarnation) for epoch-guarded reclamation. They were live,
/// not in flight, hence the residue variant.
void strand_crash_residue(ClusterMetrics& metrics, common::Ticks now,
                          net::NodeId node, std::uint32_t incarnation,
                          double residue) {
  if (residue <= 0.0) return;
  metrics.strand_residue_against(node, incarnation, residue);
  metrics.recorder().record(now, membership_txn(node, incarnation),
                            telemetry::TxnEventKind::kStranded, node,
                            net::kNoNode, residue);
}

/// Journal a detector signal `observer` got about `peer`. kRecovered: the
/// peer we suspected (or buried) is talking at the incarnation we
/// condemned, so the suspicion was false. Nothing to undo — if its tag
/// was reclaimed, that consumption was exactly-once and the peer
/// readmits itself at fair share like any rejoiner. kFresh is routine;
/// kStaleQuarantined is a ghost of a dead incarnation and deliberately
/// earns no liveness credit and no ledger movement.
void note_signal(ClusterMetrics& metrics, common::Ticks now,
                 const core::FailureDetector& detector, net::NodeId observer,
                 std::int32_t peer, core::MembershipSignal signal) {
  if (signal == core::MembershipSignal::kRecovered) {
    metrics.record_false_suspicion();
    metrics.recorder().record(
        now, membership_txn(peer, detector.incarnation(peer)),
        telemetry::TxnEventKind::kFalseSuspicion, observer, peer, 0.0);
  } else if (signal == core::MembershipSignal::kRejoined) {
    metrics.recorder().record(
        now, membership_txn(peer, detector.incarnation(peer)),
        telemetry::TxnEventKind::kPeerRejoined, observer, peer, 0.0);
  }
}

/// Journal one detector tick's transitions as `observer` saw them. A
/// peer declared dead has its (node, incarnation) tag consumed —
/// exactly one declarer cluster-wide gets the watts — and the reclaimed
/// watts go back into circulation through `put_back`.
template <typename PutBack>
void journal_transitions(
    ClusterMetrics& metrics, common::Ticks now, net::NodeId observer,
    const std::vector<core::MembershipTransition>& transitions,
    PutBack&& put_back) {
  for (const core::MembershipTransition& t : transitions) {
    const std::uint64_t txn = membership_txn(t.peer, t.incarnation);
    if (t.to == core::PeerLiveness::kSuspected) {
      metrics.record_suspicion();
      metrics.recorder().record(now, txn,
                                telemetry::TxnEventKind::kPeerSuspected,
                                observer, t.peer, 0.0);
    } else if (t.to == core::PeerLiveness::kDead) {
      metrics.record_declared_dead();
      metrics.recorder().record(now, txn,
                                telemetry::TxnEventKind::kPeerDeclaredDead,
                                observer, t.peer, 0.0);
      double reclaimed = metrics.reclaim_from(t.peer, t.incarnation);
      if (reclaimed > 0.0) {
        put_back(reclaimed);
        metrics.recorder().record(now, txn,
                                  telemetry::TxnEventKind::kReclaimed,
                                  observer, t.peer, reclaimed);
      }
    }
  }
}

/// Queue overflow (and halt) strands donation watts, but only on the
/// transaction's first sighting. Recording the txn in the window means
/// a sibling copy that did get queued is later recognised as a
/// duplicate instead of crediting watts that were already written off.
void strand_dropped_donation(core::TxnWindow& window, ClusterMetrics& metrics,
                             common::Ticks now, net::NodeId server,
                             const net::Message& m) {
  const auto* donation = m.as<central::CentralDonation>();
  if (donation == nullptr || donation->watts <= 0.0) return;
  const bool first = window.insert(donation->txn_id);
  if (first) {
    metrics.watts_stranded(donation->watts);
  } else {
    metrics.record_duplicate_drop(donation->watts);
  }
  metrics.recorder().record(
      now, donation->txn_id,
      first ? telemetry::TxnEventKind::kStranded
            : telemetry::TxnEventKind::kDuplicateDropped,
      server, m.src, donation->watts);
}

/// Donations and requests at either server actor, each applied at most
/// once. Returns false when `msg` is neither.
bool serve_central(central::ServerLogic& logic, core::TxnWindow& window,
                   ClusterMetrics& metrics, net::Network& net,
                   common::Ticks now, net::NodeId server,
                   const net::Message& msg) {
  if (const auto* donation = msg.as<central::CentralDonation>()) {
    if (!window.insert(donation->txn_id)) {
      metrics.record_duplicate_drop(donation->watts);
      metrics.recorder().record(now, donation->txn_id,
                                telemetry::TxnEventKind::kDuplicateDropped,
                                server, msg.src, donation->watts);
      return true;
    }
    metrics.donation_arrived(donation->watts);
    metrics.recorder().record(now, donation->txn_id,
                              telemetry::TxnEventKind::kDonationReceived,
                              server, msg.src, donation->watts);
    logic.handle_donation(*donation);
    return true;
  }
  const auto* request = msg.as<central::CentralRequest>();
  if (request == nullptr) return false;
  std::optional<central::CentralGrant> grant = core::serve_once(
      window, *request,
      [&logic](const central::CentralRequest& r) {
        return logic.handle_request(r);
      });
  if (!grant) {
    metrics.record_duplicate_drop(0.0);
    metrics.recorder().record(now, request->txn_id,
                              telemetry::TxnEventKind::kDuplicateDropped,
                              server, msg.src, 0.0);
    return true;
  }
  if (grant->watts > 0.0) metrics.grant_departed(grant->watts);
  metrics.recorder().record(now, request->txn_id,
                            telemetry::TxnEventKind::kRequestServed, server,
                            msg.src, grant->watts);
  net.send(server, msg.src, *grant);
  return true;
}
}  // namespace

// ---------------------------------------------------------------------------
// NodeBody

NodeBody::NodeBody(sim::Simulator& sim, const NodeConfig& config,
                   workload::WorkloadProfile profile)
    : sim_(sim),
      config_(config),
      rapl_([&] {
        power::SimulatedRaplConfig rc = config.rapl;
        rc.initial_cap_watts = config.initial_cap_watts;
        rc.initial_demand_watts = profile.phases.front().demand_watts;
        rc.seed = config.seed ^ 0x9d2c5680u;
        return rc;
      }()),
      perf_(config.perf),
      app_(std::move(profile), config.rapl.idle_watts),
      noise_rng_(config.seed ^ 0xb5297a4du) {}

double NodeBody::tick(common::Ticks now) {
  PEN_CHECK(now >= last_tick_);
  // True average power delivered since the last tick drives application
  // progress; the manager sees this value plus measurement noise.
  double avg = rapl_.read_average_power(now);
  bool was_done = app_.done();
  bool demand_changed = app_.advance(last_tick_, now, avg, perf_);
  if (demand_changed) {
    rapl_.set_demand(app_.current_demand(), now);
  }
  if (!was_done && app_.done() && !completion_reported_) {
    completion_reported_ = true;
    if (on_complete_) {
      on_complete_(config_.id, app_.completion_time().value());
    }
  }
  last_tick_ = now;
  if (config_.measurement_noise_watts > 0.0) {
    avg += noise_rng_.normal(0.0, config_.measurement_noise_watts);
    if (avg < 0.0) avg = 0.0;
  }
  return avg;
}

// ---------------------------------------------------------------------------
// FairNodeActor

FairNodeActor::FairNodeActor(sim::Simulator& sim, const NodeConfig& config,
                             workload::WorkloadProfile profile)
    : body_(sim, config, std::move(profile)),
      tick_task_(sim, config.start_offset, config.period,
                 [this](common::Ticks now) { body_.tick(now); }) {
  body_.rapl().set_cap(config.initial_cap_watts);
}

// ---------------------------------------------------------------------------
// PenelopeNodeActor

PenelopeNodeActor::PenelopeNodeActor(
    sim::Simulator& sim, net::Network& net, const NodeConfig& config,
    const core::PoolConfig& pool_config,
    const net::SerialServerConfig& pool_service,
    workload::WorkloadProfile profile, std::function<NodeId()> pick_peer,
    ClusterMetrics& metrics)
    : sim_(sim),
      net_(net),
      body_(sim, config, std::move(profile)),
      pool_(pool_config),
      decider_(
          core::DeciderConfig{config.initial_cap_watts,
                              config.epsilon_watts,
                              config.rapl.safe_range,
                              config.local_take,
                              config.urgency_enabled,
                              config.id},
          pool_),
      pool_service_(
          sim,
          [&] {
            net::SerialServerConfig sc = pool_service;
            sc.seed = config.seed ^ 0x1f83d9abu;
            return sc;
          }(),
          [this](const net::Message& m) { on_pool_request(m); }),
      pick_peer_(std::move(pick_peer)),
      metrics_(metrics),
      tick_task_(sim, config.start_offset, config.period,
                 [this](common::Ticks now) { on_tick(now); }),
      ledger_(config.period, config.test_revert_grant_fix) {
  PEN_CHECK(pick_peer_ != nullptr);
  body_.rapl().set_cap(decider_.cap());
  net_.register_endpoint(config.id,
                         [this](const net::Message& m) { on_message(m); });
  if (config.membership_enabled) {
    detector_.emplace(config.membership);
    for (NodeId peer : config.membership_peers)
      detector_->track(peer, sim_.now());
    next_heartbeat_at_ = config.start_offset;
  }
}

bool PenelopeNodeActor::peer_blacklisted(NodeId peer) const {
  if (body_.config().blacklist_after_timeouts <= 0) return false;
  auto it = peer_health_.find(peer);
  return it != peer_health_.end() &&
         it->second.blacklisted_until > sim_.now();
}

void PenelopeNodeActor::note_peer_timeout(NodeId peer) {
  if (body_.config().blacklist_after_timeouts <= 0 ||
      peer == net::kNoNode)
    return;
  PeerHealth& health = peer_health_[peer];
  if (++health.consecutive_timeouts >=
      body_.config().blacklist_after_timeouts) {
    health.blacklisted_until =
        sim_.now() + body_.config().blacklist_duration;
    health.consecutive_timeouts = 0;
  }
}

void PenelopeNodeActor::force_peer_blacklist(NodeId peer,
                                             common::Ticks until) {
  peer_health_[peer].blacklisted_until = until;
}

void PenelopeNodeActor::note_peer_answered(NodeId peer) {
  if (body_.config().blacklist_after_timeouts <= 0 ||
      peer == net::kNoNode)
    return;
  auto it = peer_health_.find(peer);
  if (it != peer_health_.end()) {
    it->second.consecutive_timeouts = 0;
    it->second.blacklisted_until = 0;
  }
}

double PenelopeNodeActor::apply_budget_delta(double delta_watts) {
  double retired = decider_.apply_budget_delta(delta_watts);
  body_.rapl().set_cap(decider_.cap());
  return retired;
}

void PenelopeNodeActor::kill_management() {
  management_alive_ = false;
  pool_service_.halt();
  // The workload keeps running at the frozen cap; only the decision
  // plane is gone. Peer requests still arriving are dropped by the
  // halted service (empty-handed peers simply time out).
}

bool PenelopeNodeActor::peer_unusable(NodeId peer) const {
  if (peer_blacklisted(peer)) return true;
  // Detector-informed avoidance: probing a declared-dead peer is a
  // guaranteed timeout until it rejoins (which flips it back to alive).
  return detector_ &&
         detector_->liveness(peer) == core::PeerLiveness::kDead;
}

void PenelopeNodeActor::membership_tick(common::Ticks now) {
  if (!detector_) return;
  if (now >= next_heartbeat_at_) {
    for (NodeId peer : body_.config().membership_peers) {
      net_.send(body_.config().id, peer,
                core::Heartbeat{body_.config().id, incarnation_});
    }
    next_heartbeat_at_ = now + body_.config().membership.heartbeat_period;
  }
  transitions_.clear();
  detector_->tick(now, transitions_);
  journal_transitions(metrics_, now, body_.config().id, transitions_,
                      [&](double reclaimed) {
                        pool_.deposit(reclaimed);
                        metrics_.record_release(now, reclaimed,
                                                body_.config().id);
                      });
}

void PenelopeNodeActor::crash() {
  if (crashed_) return;
  crashed_ = true;
  if (observer_dirty_) *observer_dirty_ = 1;
  management_alive_ = false;
  // Volatile protocol state dies with the process.
  if (ledger_.outstanding()) sim_.cancel(timeout_event_);
  ledger_.reset();
  peer_health_.clear();
  sticky_peer_ = net::kNoNode;
  hinted_peer_ = net::kNoNode;
  last_queried_peer_ = net::kNoNode;
  request_window_.reset();
  pool_service_.halt();
  // The banked pool and the cap share above the firmware-default safe
  // minimum are seized.
  double residue = pool_.drain() + decider_.seize_for_restart();
  body_.rapl().set_cap(decider_.cap());
  strand_crash_residue(metrics_, sim_.now(), body_.config().id,
                       incarnation_, residue);
  net_.fail_node(body_.config().id);
}

void PenelopeNodeActor::restart() {
  if (!crashed_) return;
  crashed_ = false;
  if (observer_dirty_) *observer_dirty_ = 1;
  std::uint32_t previous = incarnation_++;
  management_alive_ = true;
  pool_service_.resume();
  net_.recover_node(body_.config().id);
  if (detector_) {
    // The detector's peer views were volatile too: rebuild them fresh so
    // the restarted node does not instantly condemn peers it has not
    // heard from since before its own crash.
    detector_.emplace(body_.config().membership);
    for (NodeId peer : body_.config().membership_peers)
      detector_->track(peer, sim_.now());
    next_heartbeat_at_ = sim_.now();
  }
  // Self-reclaim: if no peer consumed this node's crash residue while it
  // was down, the tag would strand forever (peers saw it return before
  // declaring it dead). The restarting node takes its own leftovers
  // back; the exactly-once tag makes this race-free against a
  // simultaneous peer declaration.
  double leftover = metrics_.reclaim_from(body_.config().id, previous);
  if (leftover > 0.0) {
    pool_.deposit(leftover);
    metrics_.record_release(sim_.now(), leftover, body_.config().id);
    metrics_.recorder().record(
        sim_.now(), membership_txn(body_.config().id, previous),
        telemetry::TxnEventKind::kReclaimed, body_.config().id,
        body_.config().id, leftover);
  }
}

void PenelopeNodeActor::on_message(const net::Message& msg) {
  if (detector_ && msg.src >= 0 && msg.src != body_.config().id) {
    if (const auto* beat = msg.as<core::Heartbeat>()) {
      note_signal(metrics_, sim_.now(), *detector_, body_.config().id,
                  msg.src,
                  detector_->observe_heartbeat(beat->node, beat->incarnation,
                                               sim_.now()));
      return;
    }
    // Piggybacked liveness: any protocol message proves the sender is up
    // at its last-known incarnation.
    note_signal(metrics_, sim_.now(), *detector_, body_.config().id, msg.src,
                detector_->observe_traffic(msg.src, sim_.now()));
  } else if (msg.as<core::Heartbeat>() != nullptr) {
    return;  // membership disabled here; a peer's beacon is just noise
  }
  if (msg.as<core::PowerRequest>() != nullptr) {
    // Requests contend for the pool's serial service (this is where a
    // pool being "overburdened with requests" would show up — it never
    // does, because load spreads across N pools).
    pool_service_.inbox(msg);
  } else if (msg.as<core::PowerGrant>() != nullptr) {
    on_grant(msg);
  } else if (const auto* push = msg.as<core::PowerPush>()) {
    // Push-gossip deposit: the watts were withdrawn from the sender's
    // pool; they land in ours (or strand if our management is dead).
    // The window check comes first so a redelivered push can neither
    // deposit nor strand its watts a second time.
    if (!ledger_.admit(push->txn_id)) {
      metrics_.record_duplicate_drop(push->watts);
      metrics_.recorder().record(sim_.now(), push->txn_id,
                                 telemetry::TxnEventKind::kDuplicateDropped,
                                 body_.config().id, msg.src, push->watts);
    } else if (push->watts > 0.0) {
      if (management_alive_) {
        metrics_.grant_arrived(push->watts);
        pool_.deposit(push->watts);
        metrics_.recorder().record(sim_.now(), push->txn_id,
                                   telemetry::TxnEventKind::kPushReceived,
                                   body_.config().id, msg.src, push->watts);
      } else {
        metrics_.watts_stranded(push->watts);
        metrics_.recorder().record(sim_.now(), push->txn_id,
                                   telemetry::TxnEventKind::kStranded,
                                   body_.config().id, msg.src, push->watts);
      }
    }
  } else {
    PEN_LOG_WARN("penelope node %d: unexpected payload from %d",
                 body_.config().id, msg.src);
  }
}

void PenelopeNodeActor::on_pool_request(const net::Message& msg) {
  const auto* request = msg.as<core::PowerRequest>();
  PEN_CHECK(request != nullptr);
  if (!management_alive_) return;
  std::optional<core::PowerGrant> grant =
      core::serve_request(request_window_, pool_, *request);
  if (!grant) {
    metrics_.record_duplicate_drop(0.0);
    metrics_.recorder().record(sim_.now(), request->txn_id,
                               telemetry::TxnEventKind::kDuplicateDropped,
                               body_.config().id, msg.src, 0.0);
    return;
  }
  const double granted = grant->watts;
  if (granted > 0.0) metrics_.grant_departed(granted);
  metrics_.recorder().record(sim_.now(), request->txn_id,
                             telemetry::TxnEventKind::kRequestServed,
                             body_.config().id, msg.src, granted);
  if (granted > 0.0 && metrics_.tracer().enabled()) {
    // Peer-to-peer grant chain: the flow is the request txn itself (one
    // hop pair, source at the server, sink where the watts apply).
    metrics_.tracer().record(sim_.now(), request->txn_id,
                             telemetry::FlowHopKind::kSource,
                             body_.config().id,
                             static_cast<std::int32_t>(msg.src), granted,
                             "grant");
  }
  if (body_.config().hint_discovery && granted <= 0.0 &&
      sticky_peer_ != net::kNoNode && sticky_peer_ != msg.src) {
    // Empty-handed: refer the requester to the peer that last paid us.
    grant->hint_peer = sticky_peer_;
  }
  net_.send(body_.config().id, msg.src, *grant);
}

void PenelopeNodeActor::resolve_outstanding_as_timeout() {
  if (!ledger_.outstanding() || !management_alive_) return;
  const core::RequestLedger::Request expired = ledger_.expire(sim_.now());
  metrics_.record_timeout();
  metrics_.recorder().record(sim_.now(), expired.txn,
                             telemetry::TxnEventKind::kTimeout,
                             body_.config().id, expired.peer, 0.0);
  sticky_peer_ = net::kNoNode;  // a silent peer is not worth retrying
  note_peer_timeout(expired.peer);
  sim_.cancel(timeout_event_);
  // The decider's pending step resolves with nothing; the localUrgency
  // check still runs so a timed-out urgent round cannot wedge releases.
  decider_.complete_peer_grant(0.0);
  finish_step(sim_.now());
}

void PenelopeNodeActor::on_tick(common::Ticks now) {
  double measured = body_.tick(now);
  if (!management_alive_) return;

  membership_tick(now);

  // A request from the previous period that never resolved is a timeout
  // (dead peer, lost packet): Figure 3's fault tolerance comes from this
  // path — the decider just moves on.
  if (ledger_.outstanding()) resolve_outstanding_as_timeout();

  core::StepOutcome outcome = decider_.begin_step(measured);
  metrics_.record_decider_step();
  body_.rapl().set_cap(decider_.cap());

  switch (outcome.kind) {
    case core::StepKind::kDepositedExcess:
      metrics_.record_release(now, outcome.delta_watts,
                              body_.config().id);
      finish_step(now);
      break;
    case core::StepKind::kTookLocal:
      metrics_.record_apply(now, outcome.delta_watts, body_.config().id);
      finish_step(now);
      break;
    case core::StepKind::kHeld:
      finish_step(now);
      break;
    case core::StepKind::kNeedsPeer: {
      // Sticky and hinted peers are subject to the blacklist like any
      // other draw: a blacklisted sticky/hinted peer falls through to
      // the redraw path instead of eating a guaranteed-timeout probe.
      NodeId peer = net::kNoNode;
      if (body_.config().sticky_peers && sticky_peer_ != net::kNoNode &&
          !peer_unusable(sticky_peer_)) {
        peer = sticky_peer_;
      } else if (body_.config().hint_discovery &&
                 hinted_peer_ != net::kNoNode &&
                 hinted_peer_ != body_.config().id) {
        NodeId hint = hinted_peer_;
        hinted_peer_ = net::kNoNode;  // hints are one-shot, even refused
        if (!peer_unusable(hint)) peer = hint;
      }
      if (peer == net::kNoNode) {
        peer = pick_peer_();
        // Skip blacklisted (or detector-dead) peers with a few bounded
        // redraws; if the whole sample comes up unusable, probe anyway
        // (the view could be stale and starving discovery entirely is
        // worse).
        for (int attempt = 0;
             attempt < 4 && peer_unusable(peer); ++attempt) {
          peer = pick_peer_();
        }
      }
      PEN_DCHECK(peer != body_.config().id);
      last_queried_peer_ = peer;
      metrics_.record_request_sent();
      metrics_.recorder().record(now, outcome.request.txn_id,
                                 telemetry::TxnEventKind::kRequestSent,
                                 body_.config().id, peer,
                                 outcome.request.alpha_watts);
      net_.send(body_.config().id, peer, outcome.request);
      ledger_.open(outcome.request.txn_id, now, peer);
      timeout_event_ = sim_.schedule_after(
          body_.config().request_timeout, [this] {
            // Cancelling a fired id is a detected no-op in the engine
            // (generation-checked); clearing it here just keeps the
            // record honest about having no pending timeout.
            timeout_event_ = sim::kInvalidEventId;
            resolve_outstanding_as_timeout();
          });
      break;
    }
  }
}

void PenelopeNodeActor::on_grant(const net::Message& msg) {
  const auto* grant = msg.as<core::PowerGrant>();
  PEN_CHECK(grant != nullptr);

  // At-most-once: a redelivered grant is counted and dropped before any
  // other branch can apply, bank, or strand its watts a second time.
  // The DST planted-bug hook reverts this hardening (and the late-grant
  // in-flight decrement below) so the swarm has a real bug to find.
  if (!ledger_.admit_grant(grant->txn_id)) {
    metrics_.record_duplicate_drop(grant->watts);
    metrics_.recorder().record(sim_.now(), grant->txn_id,
                               telemetry::TxnEventKind::kDuplicateDropped,
                               body_.config().id, msg.src, grant->watts);
    return;
  }

  if (!management_alive_) {
    // Management died with a request in flight: the watts would strand
    // inside a dead process; account them as lost.
    if (grant->watts > 0.0) {
      metrics_.watts_stranded(grant->watts);
      metrics_.recorder().record(sim_.now(), grant->txn_id,
                                 telemetry::TxnEventKind::kStranded,
                                 body_.config().id, msg.src, grant->watts);
    }
    return;
  }

  const core::RequestLedger::Arrival arrival = ledger_.match(grant->txn_id);
  if (arrival.verdict == core::RequestLedger::Verdict::kAnswered) {
    sim_.cancel(timeout_event_);
    metrics_.record_turnaround(arrival.request.sent_at, sim_.now());
    metrics_.recorder().record(sim_.now(), grant->txn_id,
                               telemetry::TxnEventKind::kGrantReceived,
                               body_.config().id, msg.src, grant->watts);
    note_peer_answered(arrival.request.peer);
    if (body_.config().sticky_peers || body_.config().hint_discovery) {
      sticky_peer_ = grant->watts > 0.0 ? last_queried_peer_ : net::kNoNode;
    }
    if (body_.config().hint_discovery && grant->hint_peer >= 0 &&
        grant->hint_peer != body_.config().id) {
      hinted_peer_ = grant->hint_peer;
    }
    if (grant->watts > 0.0) {
      metrics_.grant_arrived(grant->watts);
      // The decider applies what fits under the safe ceiling and banks
      // the remainder in the local pool; record each part as what it is
      // (counting the full grant as applied over-stated cap movement).
      double applied = decider_.complete_peer_grant(grant->watts);
      body_.rapl().set_cap(decider_.cap());
      if (applied > 0.0) {
        metrics_.record_apply(sim_.now(), applied, body_.config().id);
        metrics_.recorder().record(sim_.now(), grant->txn_id,
                                   telemetry::TxnEventKind::kApplied,
                                   body_.config().id, msg.src, applied);
        if (metrics_.tracer().enabled()) {
          metrics_.tracer().record(sim_.now(), grant->txn_id,
                                   telemetry::FlowHopKind::kSink,
                                   body_.config().id,
                                   static_cast<std::int32_t>(msg.src),
                                   applied, "apply");
        }
      }
      double banked = grant->watts - applied;
      if (banked > common::kWattEpsilon) {
        metrics_.record_release(sim_.now(), banked, body_.config().id);
        metrics_.recorder().record(sim_.now(), grant->txn_id,
                                   telemetry::TxnEventKind::kBanked,
                                   body_.config().id, msg.src, banked);
      }
    } else {
      decider_.complete_peer_grant(0.0);
    }
    finish_step(sim_.now());
    return;
  }

  // A grant for a transaction we already gave up on (or, kUnknown, have
  // no record of). The power is real — the peer debited its pool — so
  // bank it in the local pool; the next hungry step takes it from there.
  // Nothing is lost, just late, and the waiting time of a late grant
  // still belongs in the turnaround distribution.
  if (arrival.verdict == core::RequestLedger::Verdict::kLate) {
    metrics_.record_turnaround(arrival.request.sent_at, sim_.now());
  } else {
    // Rate-limited: a hostile fault schedule (or the DST planted bug)
    // can make unknown-txn grants arrive in bursts.
    PEN_LOG_WARN_RATED(64, "penelope node %d: grant for unknown txn %llu",
                       body_.config().id,
                       static_cast<unsigned long long>(grant->txn_id));
  }
  metrics_.recorder().record(sim_.now(), grant->txn_id,
                             telemetry::TxnEventKind::kLateGrant,
                             body_.config().id, msg.src, grant->watts);
  if (grant->watts > 0.0) {
    if (!body_.config().test_revert_grant_fix)
      metrics_.grant_arrived(grant->watts);
    pool_.deposit(grant->watts);
    metrics_.recorder().record(sim_.now(), grant->txn_id,
                               telemetry::TxnEventKind::kBanked,
                               body_.config().id, msg.src, grant->watts);
  }
}

void PenelopeNodeActor::finish_step(common::Ticks now) {
  double released = decider_.finish_step();
  if (released > 0.0) {
    body_.rapl().set_cap(decider_.cap());
    metrics_.record_release(now, released, body_.config().id);
  }
  if (body_.config().push_gossip &&
      pool_.available() > body_.config().push_threshold_watts) {
    double push_watts =
        pool_.withdraw(body_.config().push_fraction * pool_.available());
    if (push_watts > 0.0) {
      metrics_.grant_departed(push_watts);
      NodeId push_peer = pick_peer_();
      std::uint64_t push_txn =
          core::make_txn_id(body_.config().id, 1, ++push_seq_);
      metrics_.recorder().record(now, push_txn,
                                 telemetry::TxnEventKind::kPushSent,
                                 body_.config().id, push_peer, push_watts);
      net_.send(body_.config().id, push_peer,
                core::PowerPush{push_watts, push_txn});
    }
  }
}

// ---------------------------------------------------------------------------
// CentralClientActor

CentralClientActor::CentralClientActor(sim::Simulator& sim,
                                       net::Network& net,
                                       const NodeConfig& config,
                                       NodeId server_id,
                                       workload::WorkloadProfile profile,
                                       ClusterMetrics& metrics,
                                       bool hierarchical)
    : sim_(sim),
      net_(net),
      body_(sim, config, std::move(profile)),
      client_(central::ClientConfig{config.initial_cap_watts,
                                    config.epsilon_watts,
                                    config.rapl.safe_range,
                                    config.id}),
      server_id_(server_id),
      metrics_(metrics),
      tick_task_(sim, config.start_offset, config.period,
                 [this](common::Ticks now) { on_tick(now); }),
      ledger_(config.period),
      awaiting_assignment_(hierarchical) {
  body_.rapl().set_cap(client_.cap());
  net_.register_endpoint(
      config.id, [this](const net::Message& m) { on_message(m); });
}

void CentralClientActor::on_message(const net::Message& msg) {
  if (const auto* assignment = msg.as<hierarchy::CapAssignment>()) {
    // PoDD's top-level assignment arrived: adopt it. A cap reduction is
    // donated back immediately; a raise is claimed through the normal
    // urgency path (the node is now below its initial cap).
    awaiting_assignment_ = false;
    double give_back = client_.reassign(assignment->initial_cap_watts);
    body_.rapl().set_cap(client_.cap());
    donate(give_back, sim_.now());
    return;
  }
  on_grant(msg);
}

double CentralClientActor::apply_budget_delta(double delta_watts) {
  central::Client::BudgetDeltaResult result =
      client_.apply_budget_delta(delta_watts);
  body_.rapl().set_cap(client_.cap());
  // Share the unusable part of a budget increase through the server.
  donate(result.donate_watts, sim_.now());
  return result.retired_now;
}

void CentralClientActor::donate(double watts, common::Ticks now) {
  if (watts <= 0.0) return;
  metrics_.record_release(now, watts, body_.config().id);
  metrics_.donation_departed(watts);
  std::uint64_t txn =
      core::make_txn_id(body_.config().id, 1, ++donation_seq_);
  metrics_.recorder().record(now, txn,
                             telemetry::TxnEventKind::kDonationSent,
                             body_.config().id, server_id_, watts);
  net_.send(body_.config().id, server_id_,
            central::CentralDonation{watts, txn});
}

void CentralClientActor::resolve_outstanding_as_timeout() {
  if (!ledger_.outstanding()) return;
  const core::RequestLedger::Request expired = ledger_.expire(sim_.now());
  metrics_.record_timeout();
  metrics_.recorder().record(sim_.now(), expired.txn,
                             telemetry::TxnEventKind::kTimeout,
                             body_.config().id, server_id_, 0.0);
  sim_.cancel(timeout_event_);
  client_.on_grant_timeout();
}

void CentralClientActor::crash() {
  if (crashed_) return;
  crashed_ = true;
  if (ledger_.outstanding()) sim_.cancel(timeout_event_);
  ledger_.reset();
  double residue = client_.seize_for_restart();
  body_.rapl().set_cap(client_.cap());
  // The server's detector reclaims it into the central budget (the
  // SLURM-analogue path).
  strand_crash_residue(metrics_, sim_.now(), body_.config().id,
                       incarnation_, residue);
  net_.fail_node(body_.config().id);
}

void CentralClientActor::restart() {
  if (!crashed_) return;
  crashed_ = false;
  std::uint32_t previous = incarnation_++;
  net_.recover_node(body_.config().id);
  next_heartbeat_at_ = sim_.now();
  // Self-reclaim leftovers the server never condemned us for, and hand
  // them straight to the server: a rejoining SLURM client owns nothing
  // beyond its cap — the budget lives centrally.
  double leftover = metrics_.reclaim_from(body_.config().id, previous);
  if (leftover > 0.0) {
    metrics_.recorder().record(
        sim_.now(), membership_txn(body_.config().id, previous),
        telemetry::TxnEventKind::kReclaimed, body_.config().id,
        body_.config().id, leftover);
    donate(leftover, sim_.now());
  }
}

void CentralClientActor::on_tick(common::Ticks now) {
  if (crashed_) {
    body_.tick(now);
    return;
  }
  if (body_.config().membership_enabled && now >= next_heartbeat_at_) {
    net_.send(body_.config().id, server_id_,
              core::Heartbeat{body_.config().id, incarnation_});
    next_heartbeat_at_ = now + body_.config().membership.heartbeat_period;
  }
  double measured = body_.tick(now);

  if (awaiting_assignment_) {
    // PoDD profiling phase: report, don't shift. The cap stays at the
    // uniform initial assignment while the server learns demands.
    net_.send(body_.config().id, server_id_,
              hierarchy::ProfileReport{measured});
    return;
  }

  if (ledger_.outstanding()) resolve_outstanding_as_timeout();

  central::ClientStepOutcome outcome = client_.begin_step(measured);
  metrics_.record_decider_step();
  body_.rapl().set_cap(client_.cap());

  switch (outcome.kind) {
    case central::ClientStepKind::kDonate:
      donate(outcome.delta_watts, now);
      break;
    case central::ClientStepKind::kHeld:
      break;
    case central::ClientStepKind::kNeedsServer: {
      metrics_.record_request_sent();
      metrics_.recorder().record(now, outcome.request.txn_id,
                                 telemetry::TxnEventKind::kRequestSent,
                                 body_.config().id, server_id_, 0.0);
      net_.send(body_.config().id, server_id_, outcome.request);
      ledger_.open(outcome.request.txn_id, now, server_id_);
      timeout_event_ = sim_.schedule_after(
          body_.config().request_timeout, [this] {
            timeout_event_ = sim::kInvalidEventId;
            resolve_outstanding_as_timeout();
          });
      break;
    }
  }
}

void CentralClientActor::on_grant(const net::Message& msg) {
  const auto* grant = msg.as<central::CentralGrant>();
  if (grant == nullptr) {
    PEN_LOG_WARN("central client %d: unexpected payload",
                 body_.config().id);
    return;
  }

  // At-most-once: count and drop a redelivered grant before any branch
  // can apply it (or obey its release order) twice.
  const core::RequestLedger::Arrival arrival =
      ledger_.classify(grant->txn_id);
  switch (arrival.verdict) {
    case core::RequestLedger::Verdict::kDuplicate:
      metrics_.record_duplicate_drop(grant->watts);
      metrics_.recorder().record(sim_.now(), grant->txn_id,
                                 telemetry::TxnEventKind::kDuplicateDropped,
                                 body_.config().id, msg.src, grant->watts);
      return;
    case core::RequestLedger::Verdict::kAnswered:
      sim_.cancel(timeout_event_);
      metrics_.record_turnaround(arrival.request.sent_at, sim_.now());
      metrics_.recorder().record(sim_.now(), grant->txn_id,
                                 telemetry::TxnEventKind::kGrantReceived,
                                 body_.config().id, msg.src, grant->watts);
      break;
    case core::RequestLedger::Verdict::kLate:
      metrics_.record_turnaround(arrival.request.sent_at, sim_.now());
      metrics_.recorder().record(sim_.now(), grant->txn_id,
                                 telemetry::TxnEventKind::kLateGrant,
                                 body_.config().id, msg.src, grant->watts);
      break;
    case core::RequestLedger::Verdict::kUnknown:
      // A grant for a transaction this client has no record of — not
      // outstanding, not timed out. There is no legitimate sender for
      // it (the server only answers requests), so applying it would
      // mint watts on a spoofed or mis-routed message. Account its
      // power as stranded and move on.
      if (grant->watts > 0.0) {
        metrics_.watts_stranded(grant->watts);
        metrics_.recorder().record(sim_.now(), grant->txn_id,
                                   telemetry::TxnEventKind::kStranded,
                                   body_.config().id, msg.src,
                                   grant->watts);
      }
      metrics_.record_unknown_txn();
      metrics_.recorder().record(sim_.now(), grant->txn_id,
                                 telemetry::TxnEventKind::kUnknownTxn,
                                 body_.config().id, msg.src, grant->watts);
      PEN_LOG_WARN("central client %d: grant for unknown txn %llu "
                   "stranded (%.3f W)",
                   body_.config().id,
                   static_cast<unsigned long long>(grant->txn_id),
                   grant->watts);
      return;
  }

  if (grant->watts > 0.0) metrics_.grant_arrived(grant->watts);
  central::GrantApplication applied = client_.apply_grant(*grant);
  body_.rapl().set_cap(client_.cap());
  if (applied.applied_watts > 0.0) {
    metrics_.record_apply(sim_.now(), applied.applied_watts,
                          body_.config().id);
    metrics_.recorder().record(sim_.now(), grant->txn_id,
                               telemetry::TxnEventKind::kApplied,
                               body_.config().id, msg.src,
                               applied.applied_watts);
  }
  // Release orders (and safe-ceiling overflow) send power straight back.
  donate(applied.donate_back_watts, sim_.now());
}

// ---------------------------------------------------------------------------
// ServerActor

ServerActor::ServerActor(sim::Simulator& sim, net::Network& net, NodeId id,
                         const net::SerialServerConfig& service,
                         ClusterMetrics& metrics)
    : sim_(sim),
      net_(net),
      id_(id),
      metrics_(metrics),
      service_(sim, service,
               [this](const net::Message& m) { process(m); }) {
  net_.register_endpoint(
      id_, [this](const net::Message& m) { service_.inbox(m); });
  service_.set_drop_handler([this](const net::Message& m) {
    strand_dropped_donation(txn_window_, metrics_, sim_.now(), id_, m);
  });
}

void ServerActor::enable_membership(const core::MembershipConfig& config,
                                    int n_clients) {
  detector_.emplace(config);
  for (int client = 0; client < n_clients; ++client)
    detector_->track(client, sim_.now());
  detector_task_.emplace(sim_, config.heartbeat_period,
                         config.heartbeat_period,
                         [this](common::Ticks now) { membership_tick(now); });
}

void ServerActor::membership_tick(common::Ticks now) {
  if (!alive_ || !detector_) return;
  transitions_.clear();
  detector_->tick(now, transitions_);
  // SLURM-analogue reclamation: the dead client's seized share (and
  // anything stranded toward it) returns to the server budget.
  journal_transitions(metrics_, now, id_, transitions_,
                      [this](double w) { central_logic().reclaim(w); });
  for (const core::MembershipTransition& t : transitions_) {
    if (t.to == core::PeerLiveness::kDead) on_peer_epoch_end(t.peer);
  }
}

void ServerActor::process(const net::Message& msg) {
  if (detector_ && msg.src >= 0) {
    if (const auto* beat = msg.as<core::Heartbeat>()) {
      core::MembershipSignal signal = detector_->observe_heartbeat(
          beat->node, beat->incarnation, sim_.now());
      note_signal(metrics_, sim_.now(), *detector_, id_, beat->node, signal);
      if (signal == core::MembershipSignal::kRejoined)
        on_peer_epoch_end(beat->node);
      return;
    }
    note_signal(metrics_, sim_.now(), *detector_, id_, msg.src,
                detector_->observe_traffic(msg.src, sim_.now()));
  } else if (msg.as<core::Heartbeat>() != nullptr) {
    return;
  }
  if (handle_other(msg) ||
      serve_central(central_logic(), txn_window_, metrics_, net_, sim_.now(),
                    id_, msg))
    return;
  PEN_LOG_WARN("server %d: unexpected payload from %d", id_, msg.src);
}

void ServerActor::kill() {
  if (!alive_) return;
  alive_ = false;
  // Order matters: halting the service strands queued donations through
  // the drop handler; failing the node makes the network strand
  // everything already in flight toward it on arrival.
  service_.halt();
  net_.fail_node(id_);
}

// ---------------------------------------------------------------------------
// HierarchicalServerActor

HierarchicalServerActor::HierarchicalServerActor(
    sim::Simulator& sim, net::Network& net, NodeId id,
    const hierarchy::PoddConfig& config,
    const net::SerialServerConfig& service, ClusterMetrics& metrics)
    : ServerActor(sim, net, id, service, metrics), logic_(config) {}

void HierarchicalServerActor::on_peer_epoch_end(std::int32_t peer) {
  // A restarted peer's reports describe a workload state that no longer
  // exists (its fresh incarnation's reports readmit it), and a dead
  // one's must not gate the profiling window or skew the survivors'
  // assignment. Expiry can itself close the window.
  if (logic_.expire_reports(peer)) maybe_send_assignments();
}

void HierarchicalServerActor::maybe_send_assignments() {
  if (assignments_sent_ || !logic_.profiling_complete()) return;
  assignments_sent_ = true;
  // Broadcast the learned assignments. Nodes losing cap donate back
  // first; nodes gaining cap become urgent and the embedded central
  // logic funds them greedily from those donations.
  for (int node = 0; node < logic_.config_n_nodes(); ++node) {
    net_.send(id_, node,
              hierarchy::CapAssignment{logic_.assigned_cap(node)});
  }
}

bool HierarchicalServerActor::handle_other(const net::Message& msg) {
  const auto* report = msg.as<hierarchy::ProfileReport>();
  if (report == nullptr) return false;
  bool still_profiling = logic_.handle_profile_report(msg.src, *report);
  if (!still_profiling && assignments_sent_) {
    // Late reporter after the window already closed (rejoined node, or
    // its CapAssignment was lost): re-send its assignment so it leaves
    // the profiling phase instead of reporting forever.
    net_.send(id_, msg.src,
              hierarchy::CapAssignment{logic_.assigned_cap(msg.src)});
    return true;
  }
  maybe_send_assignments();
  return true;
}

// ---------------------------------------------------------------------------
// CentralServerActor

CentralServerActor::CentralServerActor(
    sim::Simulator& sim, net::Network& net, NodeId id,
    const central::ServerConfig& config,
    const net::SerialServerConfig& service, ClusterMetrics& metrics)
    : ServerActor(sim, net, id, service, metrics), logic_(config) {}

}  // namespace penelope::cluster
