#include "rt/thread_cluster.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/check.hpp"
#include "common/log.hpp"

namespace penelope::rt {

/// A request in flight between threads: the pool replies directly into
/// the requester's mailbox.
struct PoolRequestMsg {
  core::PowerRequest request;
  Mailbox<core::PowerGrant>* reply = nullptr;
};

struct ThreadCluster::Node {
  Node(const ThreadClusterConfig& config, int node_id,
       std::vector<DemandPhase> demand_script,
       telemetry::FlightRecorder& recorder)
      : core(config, node_id, std::move(demand_script), recorder),
        rng(config.seed ^ (0xc6a4a793ULL * (node_id + 1))) {}

  /// Decider side (its thread owns core.ledger) and pool side (its
  /// thread owns core.request_window); core.grants is the reply box.
  NodeCore core;
  Mailbox<PoolRequestMsg> inbox;
  common::Rng rng;
  /// Crash–restart churn. `down` is written by the decider thread and
  /// read by the pool thread (drop requests while down, like a dead
  /// node) and by peer deciders (their probes simply time out — they
  /// never read it; only the pool-side drop matters).
  /// `reset_request_window` hands the restart's window wipe to the pool
  /// thread, which owns that window — resetting it from the decider
  /// thread would race a concurrent insert.
  std::atomic<bool> down{false};
  std::atomic<bool> reset_request_window{false};
  std::atomic<std::uint32_t> incarnation{1};
  /// Watts seized by the last crash (cap share above the safe floor,
  /// drained pool, banked reply-box grants). Written by the decider
  /// thread; read by the main thread after the joins.
  std::atomic<double> orphaned{0.0};
  /// This node's slice of config.crash_events, sorted by time:
  /// (crash_at, restart_at) wall offsets. Decider-thread private.
  std::vector<std::pair<common::Ticks, common::Ticks>> crash_plan;
  std::size_t crash_idx = 0;
  telemetry::Counter crashes;
  telemetry::Counter restarts;
  std::jthread pool_thread;
  std::jthread decider_thread;
};

ThreadCluster::ThreadCluster(
    ThreadClusterConfig config,
    std::vector<std::vector<DemandPhase>> demand_scripts)
    : config_(config) {
  PEN_CHECK(config_.n_nodes >= 2);
  PEN_CHECK_MSG(
      demand_scripts.size() == static_cast<std::size_t>(config_.n_nodes),
      "need one demand script per node");
  if (config_.flight_recorder_capacity > 0)
    recorder_.enable(config_.flight_recorder_capacity);
  for (int i = 0; i < config_.n_nodes; ++i) {
    nodes_.push_back(std::make_unique<Node>(
        config_, i, std::move(demand_scripts[static_cast<std::size_t>(i)]),
        recorder_));
    Node& node = *nodes_.back();
    node.core.register_counters(registry_, "rt");
    telemetry::Labels labels{{"node", std::to_string(i)}};
    node.crashes = registry_.counter("rt_crashes_total", labels,
                                     "scripted node crashes executed");
    node.restarts = registry_.counter(
        "rt_restarts_total", labels,
        "crash recoveries (incarnation bumps)");
    for (const ThreadCrashEvent& ev : config_.crash_events) {
      if (ev.node == i) {
        PEN_CHECK(ev.down_for > 0);
        node.crash_plan.emplace_back(ev.at, ev.at + ev.down_for);
      }
    }
    std::sort(node.crash_plan.begin(), node.crash_plan.end());
  }
}

ThreadCluster::~ThreadCluster() = default;

void ThreadCluster::pool_loop(Node& node, std::stop_token stop) {
  common::set_log_node(node.core.id);
  while (!stop.stop_requested()) {
    std::optional<PoolRequestMsg> msg = node.inbox.pop();
    if (!msg) break;  // mailbox closed: shutdown
    if (node.reset_request_window.exchange(false,
                                           std::memory_order_acq_rel)) {
      // Restart: the pre-crash window is volatile state that died with
      // the process; the pool thread wipes it because it owns it.
      node.core.request_window.reset();
    }
    if (node.down.load(std::memory_order_acquire)) {
      // Dead node: the request falls into the void and the requester
      // times out. No window insert — a retry of this transaction after
      // the restart deserves a real answer.
      continue;
    }
    node.core.serve(msg->request, [&msg](const core::PowerGrant& grant) {
      return msg->reply->try_push(grant);
    });
  }
}

bool ThreadCluster::crash_tick(Node& node, common::Ticks start,
                               common::Ticks now) {
  NodeCore& core = node.core;
  if (node.crash_idx < node.crash_plan.size() &&
      !node.down.load(std::memory_order_relaxed) &&
      now - start >= node.crash_plan[node.crash_idx].first) {
    // Crash: volatile state dies. The cap collapses to the safe floor;
    // the pool (with any reply-box grants banked into it) and the cap
    // share above the floor are orphaned until the restart self-reclaims
    // them (or the run ends with the node still down).
    node.down.store(true, std::memory_order_release);
    core.drain_grants();
    double residue = core.pool.drain() + core.decider.seize_for_restart();
    core.rapl.set_cap(core.decider.cap());
    node.orphaned.fetch_add(residue, std::memory_order_acq_rel);
    node.crashes.inc();
    recorder_.record(now, 0, telemetry::TxnEventKind::kStranded, core.id,
                     -1, residue);
  }
  if (!node.down.load(std::memory_order_relaxed)) return true;
  if (now < start + node.crash_plan[node.crash_idx].second) {
    return false;  // still down: idle at the floor
  }
  // Restart: bumped incarnation, ledger and request window wiped (the
  // pool thread wipes its own), late grants banked into the fresh pool,
  // orphaned watts self-reclaimed.
  node.incarnation.fetch_add(1, std::memory_order_acq_rel);
  core.ledger.reset();
  node.reset_request_window.store(true, std::memory_order_release);
  core.drain_grants();
  double leftover = node.orphaned.exchange(0.0, std::memory_order_acq_rel);
  if (leftover > 0.0) core.pool.deposit(leftover);
  node.down.store(false, std::memory_order_release);
  node.restarts.inc();
  recorder_.record(now, 0, telemetry::TxnEventKind::kReclaimed, core.id,
                   core.id, leftover);
  ++node.crash_idx;
  return true;
}

void ThreadCluster::run_for(common::Ticks duration) {
  PEN_CHECK(!running_.exchange(true));
  for (auto& node : nodes_) {
    Node* n = node.get();
    node->pool_thread = std::jthread(
        [this, n](std::stop_token st) { pool_loop(*n, st); });
    node->decider_thread = std::jthread([this, n](std::stop_token st) {
      const common::Ticks start = wall_ticks();
      n->core.run(
          st,
          [this, n, start](common::Ticks now) {
            return crash_tick(*n, start, now);
          },
          [this, n](const core::PowerRequest& request) {
            auto peer = static_cast<int>(n->rng.next_below(
                static_cast<std::uint32_t>(config_.n_nodes - 1)));
            if (peer >= n->core.id) ++peer;
            return nodes_[static_cast<std::size_t>(peer)]->inbox.try_push(
                       PoolRequestMsg{request, &n->core.grants})
                       ? peer
                       : -1;
          });
    });
  }

  std::this_thread::sleep_for(std::chrono::microseconds(duration));

  for (auto& node : nodes_) {
    node->decider_thread.request_stop();
    node->pool_thread.request_stop();
  }
  // Closing mailboxes wakes blocked pops; jthread destructors would join
  // anyway, but joining deciders before pools avoids deciders blocking on
  // replies from already-stopped pools longer than one timeout.
  for (auto& node : nodes_) {
    node->core.grants.close();
  }
  for (auto& node : nodes_) {
    if (node->decider_thread.joinable()) node->decider_thread.join();
  }
  for (auto& node : nodes_) {
    node->inbox.close();
    if (node->pool_thread.joinable()) node->pool_thread.join();
  }

  // Grants that raced shutdown carry real watts; the ledger still
  // applies, so a duplicate that raced shutdown deposits nothing.
  for (auto& node : nodes_) node->core.drain_grants();
  running_ = false;
}

std::vector<ThreadNodeReport> ThreadCluster::reports() const {
  std::vector<ThreadNodeReport> reports;
  for (const auto& node : nodes_) {
    ThreadNodeReport report{node->core.report()};
    report.crashes = node->crashes.value();
    report.restarts = node->restarts.value();
    report.incarnation = node->incarnation.load(std::memory_order_acquire);
    report.orphaned_watts = node->orphaned.load(std::memory_order_acquire);
    reports.push_back(report);
  }
  return reports;
}

double ThreadCluster::total_live_watts() const {
  double total = 0.0;
  for (const auto& node : nodes_) {
    total += node->core.decider.cap() + node->core.pool.available();
  }
  return total;
}

double ThreadCluster::orphaned_watts() const {
  double total = 0.0;
  for (const auto& node : nodes_)
    total += node->orphaned.load(std::memory_order_acquire);
  return total;
}

double ThreadCluster::budget() const {
  return config_.initial_cap_watts * config_.n_nodes;
}

}  // namespace penelope::rt
