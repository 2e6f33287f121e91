// Real-thread Penelope runtime: the same Decider / PowerPool protocol
// logic the simulator drives, here running under genuine concurrency —
// one decider thread and one pool-service thread per node, in-process
// mailboxes as the transport, wall-clock periods, and the SimulatedRapl
// model advanced in real time (swap in SysfsRapl on hardware that has
// it; examples/live_threads.cpp shows the fallback chain).
//
// This is deliberately a second, independent driver for core/: the
// discrete-event results stand on logic that demonstrably also runs
// correctly under preemption, lock contention, and real timeouts.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "rt/node_core.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/registry.hpp"

namespace penelope::rt {

/// A scripted crash–restart for one node, in wall time relative to the
/// start of run_for. While down the node's pool drops incoming requests
/// (peers time out, exactly like probing a dead node) and its decider
/// idles; at `at + down_for` it restarts with a bumped incarnation,
/// volatile state (request ledger, request window) wiped, and its
/// orphaned watts self-reclaimed into the pool.
struct ThreadCrashEvent {
  int node = 0;
  common::Ticks at = 0;
  common::Ticks down_for = common::from_millis(100);
};

struct ThreadClusterConfig : NodeParams {
  int n_nodes = 4;
  /// Crash–restart churn schedule; empty (default) disables churn.
  std::vector<ThreadCrashEvent> crash_events;
};

/// duplicates_dropped stays 0 on the mailbox transport, which never
/// duplicates, but the protocol does not assume so.
struct ThreadNodeReport : NodeReport {
  /// Crash–restart churn bookkeeping.
  std::uint64_t crashes = 0;
  std::uint64_t restarts = 0;
  /// Watts seized by a crash and not yet self-reclaimed (nonzero only
  /// for a node still down when the run ended).
  double orphaned_watts = 0.0;
};

class ThreadCluster {
 public:
  /// `demand_scripts[i]` drives node i's power demand over wall time;
  /// the last phase persists once reached.
  ThreadCluster(ThreadClusterConfig config,
                std::vector<std::vector<DemandPhase>> demand_scripts);
  ~ThreadCluster();

  ThreadCluster(const ThreadCluster&) = delete;
  ThreadCluster& operator=(const ThreadCluster&) = delete;

  /// Launch all threads, run for `duration` wall time, stop, join.
  void run_for(common::Ticks duration);

  /// Reports are valid after run_for returned.
  std::vector<ThreadNodeReport> reports() const;

  /// Total live power (caps + pools + in-flight); for conservation
  /// checks after shutdown.
  double total_live_watts() const;
  /// Watts orphaned by crashes whose nodes never restarted; the
  /// conservation check under churn is
  /// total_live_watts() + orphaned_watts() == budget().
  double orphaned_watts() const;
  double budget() const;

  /// Aggregated view of the sharded per-node counters (grants applied,
  /// timeouts, duplicates dropped), exportable via
  /// telemetry::to_prometheus_text.
  std::vector<telemetry::MetricSample> metrics_snapshot() const {
    return registry_.snapshot();
  }
  telemetry::MetricsRegistry& registry() { return registry_; }
  const telemetry::FlightRecorder& flight_recorder() const {
    return recorder_;
  }

 private:
  struct Node;

  /// The crash plan, run at the top of each of `node`'s periods; false
  /// while the node is down.
  bool crash_tick(Node& node, common::Ticks start, common::Ticks now);
  void pool_loop(Node& node, std::stop_token stop);

  ThreadClusterConfig config_;
  // Registry precedes nodes: nodes cache handles into registry cells.
  telemetry::MetricsRegistry registry_{telemetry::Concurrency::kSharded};
  telemetry::FlightRecorder recorder_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::atomic<bool> running_{false};
};

}  // namespace penelope::rt
