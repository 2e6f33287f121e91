#include "rt/node_core.hpp"

#include <chrono>
#include <thread>
#include <utility>

#include "common/log.hpp"

namespace penelope::rt {

namespace {

using Clock = std::chrono::steady_clock;

Clock::time_point process_epoch() {
  static const Clock::time_point epoch = Clock::now();
  return epoch;
}

}  // namespace

common::Ticks wall_ticks() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             Clock::now() - process_epoch())
      .count();
}

NodeCore::NodeCore(const NodeParams& params, int node_id,
                   std::vector<DemandPhase> script,
                   telemetry::FlightRecorder& recorder)
    : id(node_id),
      rapl([&] {
        power::SimulatedRaplConfig rc;
        rc.safe_range = params.safe_range;
        rc.tau_seconds = params.rapl_tau_seconds;
        rc.idle_watts = params.idle_watts;
        rc.initial_cap_watts = params.initial_cap_watts;
        rc.initial_demand_watts = script.empty()
                                      ? params.idle_watts
                                      : script.front().demand_watts;
        rc.seed = params.seed ^ (0x100001b3ULL * (node_id + 1));
        return rc;
      }()),
      pool(params.pool),
      decider([&] {
        core::DeciderConfig dc;
        dc.initial_cap_watts = params.initial_cap_watts;
        dc.epsilon_watts = params.epsilon_watts;
        dc.safe_range = params.safe_range;
        dc.txn_node = node_id;
        return dc;
      }(), pool),
      ledger(params.period),
      period_(params.period),
      request_timeout_(params.request_timeout),
      script_(std::move(script)),
      recorder_(recorder) {}

void NodeCore::run(std::stop_token stop, const TickFn& tick,
                   const SendFn& send) {
  common::set_log_node(id);
  const common::Ticks start = wall_ticks();
  phase_start_ = start;
  if (!script_.empty()) rapl.set_demand(script_.front().demand_watts, start);
  rapl.set_cap(decider.cap());

  common::Ticks next_tick = start + period_;
  while (!stop.stop_requested()) {
    std::this_thread::sleep_until(process_epoch() +
                                  std::chrono::microseconds(next_tick));
    if (stop.stop_requested()) break;
    const common::Ticks now = wall_ticks();
    if (tick(now)) step(now, send);
    next_tick += period_;
  }
  drain_grants();
}

void NodeCore::step(common::Ticks now, const SendFn& send) {
  // Walk the demand script forward; the final phase persists.
  while (phase_ + 1 < script_.size() &&
         now - phase_start_ >= script_[phase_].duration) {
    phase_start_ += script_[phase_].duration;
    ++phase_;
    rapl.set_demand(script_[phase_].demand_watts, now);
  }

  core::StepOutcome outcome = decider.begin_step(rapl.read_average_power(now));
  rapl.set_cap(decider.cap());

  if (outcome.kind == core::StepKind::kNeedsPeer) {
    const core::PowerRequest& request = outcome.request;
    const int peer = send(request);
    bool answered = false;
    if (peer >= 0) {
      requests_sent.inc();
      recorder_.record(wall_ticks(), request.txn_id,
                       telemetry::TxnEventKind::kRequestSent, id, peer,
                       request.alpha_watts);
      ledger.open(request.txn_id, now, peer);
      const auto deadline =
          Clock::now() + std::chrono::microseconds(request_timeout_);
      while (!answered) {
        std::optional<core::PowerGrant> grant = grants.pop_until(deadline);
        if (!grant) break;  // deadline passed or mailbox closed
        answered = accept(*grant);
      }
      if (!answered) ledger.expire(wall_ticks());
    }
    if (!answered) {
      decider.complete_peer_grant(0.0);
      timeouts.inc();
      recorder_.record(wall_ticks(), request.txn_id,
                       telemetry::TxnEventKind::kTimeout, id, peer, 0.0);
    }
    rapl.set_cap(decider.cap());
  }

  decider.finish_step();
  rapl.set_cap(decider.cap());
}

void NodeCore::register_counters(telemetry::MetricsRegistry& registry,
                                 const std::string& prefix) {
  telemetry::Labels labels{{"node", std::to_string(id)}};
  grants_received = registry.counter(prefix + "_grants_applied_total", labels,
                                     "peer grants applied by the decider");
  timeouts = registry.counter(prefix + "_timeouts_total", labels,
                              "requests resolved by timeout");
  duplicates_dropped =
      registry.counter(prefix + "_duplicates_dropped_total", labels,
                       "redeliveries rejected by a TxnWindow");
  requests_sent = registry.counter(prefix + "_requests_sent_total", labels,
                                   "power requests sent to peers");
}

NodeReport NodeCore::report() const {
  NodeReport report;
  report.id = id;
  report.final_cap = decider.cap();
  report.final_pool = pool.available();
  report.decider = decider.stats();
  report.pool = pool.stats();
  report.grants_received = grants_received.value();
  report.timeouts = timeouts.value();
  report.duplicates_dropped = duplicates_dropped.value();
  return report;
}

bool NodeCore::accept(const core::PowerGrant& grant) {
  const core::RequestLedger::Arrival arrival = ledger.classify(grant.txn_id);
  switch (arrival.verdict) {
    case core::RequestLedger::Verdict::kDuplicate:
      duplicates_dropped.inc();
      recorder_.record(wall_ticks(), grant.txn_id,
                       telemetry::TxnEventKind::kDuplicateDropped, id, -1,
                       grant.watts);
      return false;
    case core::RequestLedger::Verdict::kAnswered:
      decider.complete_peer_grant(grant.watts);
      grants_received.inc();
      recorder_.record(wall_ticks(), grant.txn_id,
                       telemetry::TxnEventKind::kGrantReceived, id,
                       arrival.request.peer, grant.watts);
      return true;
    case core::RequestLedger::Verdict::kLate:
    case core::RequestLedger::Verdict::kUnknown:
      if (grant.watts > 0.0) {
        pool.deposit(grant.watts);
        recorder_.record(wall_ticks(), grant.txn_id,
                         telemetry::TxnEventKind::kBanked, id, -1,
                         grant.watts);
      }
      return false;
  }
  return false;
}

void NodeCore::serve(const core::PowerRequest& request,
                     const DeliverFn& deliver) {
  std::optional<core::PowerGrant> grant =
      core::serve_request(request_window, pool, request);
  if (!grant) {
    // Redelivered request: the first copy's grant already answered this
    // transaction; serving again would debit the pool twice.
    duplicates_dropped.inc();
    recorder_.record(wall_ticks(), request.txn_id,
                     telemetry::TxnEventKind::kDuplicateDropped, id, -1, 0.0);
    return;
  }
  recorder_.record(wall_ticks(), request.txn_id,
                   telemetry::TxnEventKind::kRequestServed, id, -1,
                   grant->watts);
  if (!deliver(*grant) && grant->watts > 0.0) {
    // The requester is gone or unreachable: return the watts rather than
    // strand them in a lost message.
    pool.deposit(grant->watts);
    recorder_.record(wall_ticks(), request.txn_id,
                     telemetry::TxnEventKind::kBanked, id, -1, grant->watts);
  }
}

}  // namespace penelope::rt
