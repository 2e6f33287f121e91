// The liveness watchdog: if sim-time advances `watchdog_s` seconds with
// no decider stepping anywhere while live incomplete nodes exist, the
// decider plane is wedged — dump diagnostics and stop (or abort in
// chaos jobs). The signal is sound because every live node's periodic
// tick records a decider step even when it has nothing to trade: steps
// only go flat when every incomplete node's management plane is gone.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cluster/cluster.hpp"

namespace penelope::cluster {
namespace {

ClusterConfig watchdog_config() {
  ClusterConfig cc;
  cc.manager = ManagerKind::kPenelope;
  cc.n_nodes = 4;
  cc.per_socket_cap_watts = 70.0;
  cc.max_seconds = 600.0;
  cc.seed = 7;
  cc.audit_interval = common::from_seconds(0.5);
  return cc;
}

workload::NpbConfig watchdog_npb() {
  workload::NpbConfig cfg;
  cfg.duration_scale = 0.15;
  cfg.demand_jitter_frac = 0.02;
  cfg.seed = 11;
  return cfg;
}

Cluster make_cluster(const ClusterConfig& cc) {
  return Cluster(cc, make_pair_workloads(workload::NpbApp::kEP,
                                         workload::NpbApp::kDC,
                                         cc.n_nodes, watchdog_npb()));
}

TEST(Watchdog, AllManagementDeadWedgesTheRun) {
  // Kill every node's management plane early: workloads keep burning at
  // frozen caps, no decider ever steps again, and the run would crawl
  // to its deadline. The watchdog must call the wedge within its window
  // and stop the run instead.
  ClusterConfig cc = watchdog_config();
  cc.watchdog_s = 3.0;
  for (int i = 0; i < cc.n_nodes; ++i) {
    cc.faults.push_back(FaultEvent{FaultEvent::Kind::kKillManagement,
                                   common::from_seconds(2.0), i});
  }
  Cluster cluster = make_cluster(cc);
  RunResult result = cluster.run();
  EXPECT_TRUE(result.wedged);
  EXPECT_TRUE(cluster.wedged());
  EXPECT_FALSE(result.all_completed);
  // Stopped by the watchdog soon after the window, not at max_seconds.
  EXPECT_LT(result.runtime_seconds, 30.0);
}

TEST(Watchdog, HealthyRunNeverTripsAndStaysTraceIdentical) {
  // Arming the watchdog must not perturb the simulation: it piggybacks
  // the existing audit task and schedules nothing of its own, so a
  // healthy run's trace hash is bit-identical with it on or off.
  ClusterConfig off = watchdog_config();
  Cluster cl_off = make_cluster(off);
  RunResult r_off = cl_off.run();

  ClusterConfig on = watchdog_config();
  on.watchdog_s = 5.0;
  Cluster cl_on = make_cluster(on);
  RunResult r_on = cl_on.run();

  EXPECT_TRUE(r_off.all_completed);
  EXPECT_TRUE(r_on.all_completed);
  EXPECT_FALSE(r_on.wedged);
  EXPECT_EQ(cl_off.trace_hash(), cl_on.trace_hash());
  EXPECT_EQ(cl_off.executed_events(), cl_on.executed_events());
}

TEST(Watchdog, SingleManagementKillIsNotAWedge) {
  // One dead management plane leaves three live deciders stepping every
  // period: progress continues, the watchdog stays quiet, and the run
  // completes (the dead node's workload finishes at its frozen cap).
  ClusterConfig cc = watchdog_config();
  cc.watchdog_s = 3.0;
  cc.faults.push_back(FaultEvent{FaultEvent::Kind::kKillManagement,
                                 common::from_seconds(2.0), 1});
  Cluster cluster = make_cluster(cc);
  RunResult result = cluster.run();
  EXPECT_FALSE(result.wedged);
  EXPECT_TRUE(result.all_completed);
}

TEST(Watchdog, DumpIsBoundedAndListsCrashedNodesFirst) {
  // At scale the dump must stay readable: at most 16 node lines, the
  // crashed node ahead of the merely wedged ones, then a count of the
  // rest.
  ClusterConfig cc = watchdog_config();
  cc.n_nodes = 40;
  cc.watchdog_s = 3.0;
  constexpr int kCrashed = 25;
  cc.faults.push_back(FaultEvent{FaultEvent::Kind::kCrashNode,
                                 common::from_seconds(1.0), kCrashed});
  for (int i = 0; i < cc.n_nodes; ++i) {
    if (i == kCrashed) continue;
    cc.faults.push_back(FaultEvent{FaultEvent::Kind::kKillManagement,
                                   common::from_seconds(2.0), i});
  }
  Cluster cluster = make_cluster(cc);
  testing::internal::CaptureStderr();
  RunResult result = cluster.run();
  const std::string dump = testing::internal::GetCapturedStderr();
  ASSERT_TRUE(result.wedged);

  std::vector<std::string> node_lines;
  std::size_t pos = 0;
  while ((pos = dump.find("  node ", pos)) != std::string::npos) {
    std::size_t end = dump.find('\n', pos);
    node_lines.push_back(dump.substr(pos, end - pos));
    pos = end;
  }
  ASSERT_EQ(node_lines.size(), 16u) << dump;
  EXPECT_NE(node_lines.front().find("node 25: running CRASHED"),
            std::string::npos)
      << node_lines.front();
  EXPECT_NE(node_lines[1].find("node 0: running"), std::string::npos)
      << node_lines[1];
  EXPECT_NE(dump.find("... 24 more nodes"), std::string::npos) << dump;
}

}  // namespace
}  // namespace penelope::cluster
