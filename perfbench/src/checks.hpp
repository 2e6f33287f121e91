// Output checks. Each is a property of a finished run that held on the
// program before this benchmark was written; a check that fires marks
// its cluster run as a failed operation.
//
// The checks read plain structs, not a live Cluster, so the self-test
// can perturb one field (a cap moved by 1 W, an energy total past the
// bound) and show that the check rejects it.
#pragma once

#include <string>
#include <vector>

namespace perfbench {

/// End-of-run state, read through Cluster's public accessors.
struct EndState {
  double initial_cap = 0.0;  ///< per node, at t = 0
  double budget = 0.0;       ///< system budget
  std::vector<double> caps;  ///< node_cap(i) for every node
  /// Cluster::audit() at the end of the run.
  double pool = 0.0;
  double cache = 0.0;
  double in_flight = 0.0;
  double stranded = 0.0;
  /// Worst |conservation error| over every periodic audit of the run.
  double max_conservation_error = 0.0;
  double energy_j = 0.0;   ///< total_energy_joules()
  double horizon_s = 0.0;  ///< simulated time the run covered
  double safe_min = 0.0;
  double safe_max = 0.0;
};

/// Completion-burst outcome (burst workloads only).
struct BurstOutcome {
  bool penelope = false;
  bool t50_reached = false;
  double available_watts = 0.0;  ///< analyze_redistribution's gross release
  double shifted_watts = 0.0;    ///< analyze_redistribution's gross apply
  /// Where net and gross must also be equal (the arena, classic
  /// Penelope at 4 Hz); elsewhere net <= gross only.
  bool net_equals_gross = false;
};

/// Names of the failed checks; empty when every check holds.
std::vector<std::string> check_end_state(const EndState& s);
std::vector<std::string> check_burst(const EndState& s,
                                     const BurstOutcome& b);

/// Net cap movement summed by the benchmark itself: watts the second
/// (hungry) half gained and watts the first (burst) half gave up.
double hungry_gain_watts(const EndState& s);
double burst_drop_watts(const EndState& s);

}  // namespace perfbench
