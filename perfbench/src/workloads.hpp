// The benchmark's three workloads. One round runs a workload's fixed
// set of cluster runs (its operations) once; the benchmark runs a fixed
// number of whole rounds, sized from its measuring time (rounds_for).
//
//   classic_burst  §4.5 completion burst, 1056 nodes, classic actors on
//                  the serial engine: Penelope and central x 4/16/32 Hz.
//   arena_million  the same burst on the federated flat arena: 2^20
//                  nodes, 1024 leaf pools, fanout 8, 1 Hz, sim_jobs=4.
//   dst_swarm      8192 (seed, schedule) pairs of the fault-schedule
//                  explorer's default 8-node run, on one worker.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "checks.hpp"
#include "cluster/scale.hpp"
#include "dst/explorer.hpp"
#include "regions.hpp"

namespace perfbench {

/// One operation: one cluster run and the verdict of its checks.
struct OpRecord {
  std::string label;
  std::uint64_t trace_hash = 0;
  std::uint64_t executed_events = 0;
  std::vector<std::string> failures;  ///< failed checks; empty = passed
  std::size_t violations = 0;  ///< dst oracle verdicts, every oracle
};

struct Round {
  std::vector<OpRecord> ops;
  /// Workload-level checks (sample replays): failures make the whole
  /// result incorrect rather than one operation failed.
  std::vector<std::string> workload_failures;
  double wall_s = 0.0;   ///< profiles + construction + run + collection
  double setup_s = 0.0;  ///< profiles + construction
  double run_s = 0.0;    ///< inside Cluster::run / run_for
  double node_seconds = 0.0;  ///< simulated node-seconds advanced
  double t50_sum_s = 0.0;     ///< Penelope t50 summed over runs reaching it
  int t50_runs = 0;
  int max_nodes = 0;          ///< largest cluster in the round
  /// Layer counters summed over the round's runs (max for high-water
  /// marks), keyed by per-layer metric name.
  std::map<std::string, double> layer;
};

/// Sizes a round; the defaults are the benchmark's workloads, the
/// self-test shrinks them.
struct WorkloadSize {
  int classic_nodes = 1056;
  double classic_window_s = 60.0;
  int arena_nodes = 1 << 20;
  int arena_pools = 1024;
  int arena_jobs = 4;
  int swarm_seeds = 256;
  int swarm_schedules = 32;
  int swarm_replays = 8;
  bool swarm_plant_bug = false;
};

bool is_workload(const std::string& name);

/// One completion-burst cluster run and its checks. Layer counters go to
/// `r`; the caller appends the returned record to `r.ops`. The self-test
/// reads the checked state through the optional outputs.
OpRecord burst_run(const penelope::cluster::ScaleConfig& sc, bool traced,
                   Regions& regions, Round& r, EndState* state_out = nullptr,
                   BurstOutcome* outcome_out = nullptr);

/// Same runs in the same order, each with the same trace hash and
/// executed-event count.
bool same_runs(const Round& a, const Round& b);

/// Workload-level agreement of one invocation's rounds: every untraced
/// round repeats the first, and every traced round matches it. Returns
/// the failed checks; empty when they agree.
std::vector<std::string> check_rounds(const std::vector<Round>& plain,
                                      const std::vector<Round>& traced);

/// A dst pair replayed through dst::execute_one reproduces the swarm's
/// trace hash, event count and number of oracle verdicts.
bool replay_matches(const penelope::dst::RunOutcome& out,
                    const OpRecord& rec);

/// Whole rounds an invocation of `seconds` runs: `seconds` over the
/// workload's round time on the reference host (10 s; 20 s for the
/// arena), at least one. The count depends on nothing measured, so every
/// run with the same arguments attempts the same operations.
int rounds_for(const std::string& workload, double seconds);

/// Run one round. `traced` slices Cluster::run_for into 0.25 s steps and
/// samples the layers between them; the simulation itself is unchanged.
Round run_round(const std::string& workload, std::uint64_t seed,
                bool traced, Regions& regions,
                const WorkloadSize& size = {});

}  // namespace perfbench
