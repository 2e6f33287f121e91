// The per-node Penelope core every rt driver runs: RAPL model, pool,
// decider, demand script, and the decider loop, whose step sends through
// a driver callback and awaits its grant from a mailbox. ThreadCluster,
// UdpPenelopeNode and the §4.2 overhead driver differ only in transport
// and in their crash and heartbeat duties. `ledger` belongs to the
// thread in run() (or whoever holds the node once it is joined),
// `request_window` to the thread calling serve(); everything else here
// is internally synchronized.
#pragma once

#include <cstdint>
#include <functional>
#include <stop_token>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "core/decider.hpp"
#include "core/ledger.hpp"
#include "core/pool.hpp"
#include "power/simulated_rapl.hpp"
#include "rt/mailbox.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/registry.hpp"

namespace penelope::rt {

/// Wall-clock microseconds since an arbitrary process-local epoch.
common::Ticks wall_ticks();

/// One step of a node's scripted demand trajectory.
struct DemandPhase {
  double demand_watts = 0.0;
  common::Ticks duration = common::kTicksPerSecond;
};

/// Node parameters shared by every rt driver's config.
struct NodeParams {
  double initial_cap_watts = 120.0;
  double epsilon_watts = 5.0;
  /// Decider period (wall time). Shorter than the paper's 1 s so tests
  /// and examples converge in human time; the protocol is identical.
  common::Ticks period = common::from_millis(20);
  common::Ticks request_timeout = common::from_millis(20);
  core::PoolConfig pool;
  power::SafeRange safe_range{.min_watts = 40.0, .max_watts = 250.0};
  double idle_watts = 40.0;
  double rapl_tau_seconds = 0.02;  ///< scaled with the shortened period
  /// Transaction flight-recorder ring size; 0 disables the journal.
  std::size_t flight_recorder_capacity = 0;
  std::uint64_t seed = 42;
};

/// What every rt driver reports per node.
struct NodeReport {
  int id = 0;
  double final_cap = 0.0;
  double final_pool = 0.0;
  core::DeciderStats decider;
  core::PoolStats pool;
  std::uint64_t grants_received = 0;
  std::uint64_t timeouts = 0;
  /// Redeliveries refused by the ledger or the request window.
  std::uint64_t duplicates_dropped = 0;
  /// This node's crash counter: 1 + the number of restarts.
  std::uint32_t incarnation = 1;
};

class NodeCore {
 public:
  /// Sends a request to a peer; that peer's id, or -1 if it could not.
  using SendFn = std::function<int(const core::PowerRequest&)>;
  /// Returns a served grant to its requester; false if it could not.
  using DeliverFn = std::function<bool(const core::PowerGrant&)>;
  /// Driver duties at the top of each period; false skips the step.
  using TickFn = std::function<bool(common::Ticks now)>;

  /// The last phase of `script` persists once reached.
  NodeCore(const NodeParams& params, int id, std::vector<DemandPhase> script,
           telemetry::FlightRecorder& recorder);

  /// The decider thread: tick() and a decider step each period until
  /// `stop`, then drain_grants().
  void run(std::stop_token stop, const TickFn& tick, const SendFn& send);

  /// serve_request(), then `deliver`; an undeliverable grant goes back
  /// into the pool.
  void serve(const core::PowerRequest& request, const DeliverFn& deliver);

  /// One arriving grant through the ledger: a duplicate is counted, the
  /// answer applied, a late or unknown grant banked (its watts are
  /// real). True if it answered the outstanding request.
  bool accept(const core::PowerGrant& grant);
  /// accept() every grant still queued in `grants`.
  void drain_grants() {
    while (auto grant = grants.try_pop()) accept(*grant);
  }

  /// Register the counters as `<prefix>_..._total`, one series per node.
  void register_counters(telemetry::MetricsRegistry& registry,
                         const std::string& prefix);
  NodeReport report() const;

  const int id;
  power::SimulatedRapl rapl;
  core::PowerPool pool;
  core::Decider decider;
  Mailbox<core::PowerGrant> grants;
  core::RequestLedger ledger;
  core::TxnWindow request_window;
  telemetry::Counter grants_received;
  telemetry::Counter timeouts;
  telemetry::Counter duplicates_dropped;
  telemetry::Counter requests_sent;

 private:
  void step(common::Ticks now, const SendFn& send);

  common::Ticks period_;
  common::Ticks request_timeout_;
  std::vector<DemandPhase> script_;
  std::size_t phase_ = 0;
  common::Ticks phase_start_ = 0;
  telemetry::FlightRecorder& recorder_;
};

}  // namespace penelope::rt
