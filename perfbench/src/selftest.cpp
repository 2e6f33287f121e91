// The benchmark's own tests, at reduced size (about 7 s on 4 cores once
// built):
//
//   * every output check rejects a perturbed result, and a swarm with
//     the explorer's planted bug is counted as failed operations;
//   * the workload-level checks (a replayed dst pair, rounds that must
//     repeat, traced rounds that must match) reject a changed record;
//   * determinism: the arena gives the same trace hash, event count and
//     energy at sim_jobs 1 and 4, the swarm the same outcome hash at 1
//     and 4 workers (and the benchmark's own rebuilt swarm loop matches
//     the explorer's), and traced rounds match untraced ones.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "checks.hpp"
#include "dst/explorer.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using penelope::cluster::ManagerKind;
using penelope::cluster::ScaleConfig;

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "PASS" : "FAIL", what.c_str());
  if (!ok) ++g_failures;
}

bool has(const std::vector<std::string>& failures, const std::string& name) {
  return std::find(failures.begin(), failures.end(), name) != failures.end();
}

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::size_t failed_ops(const Round& r) {
  return static_cast<std::size_t>(
      std::count_if(r.ops.begin(), r.ops.end(),
                    [](const OpRecord& op) { return !op.failures.empty(); }));
}

ScaleConfig small_burst(ManagerKind manager, double hz, int pools,
                        int sim_jobs) {
  ScaleConfig sc;
  sc.manager = manager;
  sc.frequency_hz = hz;
  sc.seed = 7;
  sc.sim_jobs = sim_jobs;
  if (pools > 0) {
    sc.n_nodes = 1 << 16;
    sc.pools = pools;
    sc.burst_at_seconds = 2.0;
    sc.window_seconds = 20.0;
  } else {
    sc.n_nodes = 128;
    sc.window_seconds = 20.0;
  }
  return sc;
}

void checks_reject_perturbations() {
  Regions regions(false);
  Round r;
  EndState state;
  BurstOutcome outcome;
  OpRecord rec = burst_run(small_burst(ManagerKind::kPenelope, 4.0, 0, 1),
                           false, regions, r, &state, &outcome);
  expect(rec.failures.empty() && outcome.net_equals_gross,
         "classic Penelope 4 Hz burst passes every check");

  const auto perturbed = [&](auto&& change) {
    EndState s = state;
    BurstOutcome b = outcome;
    change(s, b);
    return check_burst(s, b);
  };
  expect(has(perturbed([](EndState& s, BurstOutcome&) { s.caps[0] += 1.0; }),
             "ledger"),
         "one cap moved by 1 W fails the ledger check");
  expect(has(perturbed([](EndState& s, BurstOutcome&) {
               s.caps.back() += 1.0;
             }),
             "net-gain==shifted"),
         "one hungry cap moved by 1 W fails net == gross");
  expect(has(perturbed([](EndState& s, BurstOutcome&) {
               s.caps[0] = s.safe_max + 1.0;
             }),
             "safe-range"),
         "a cap above the safe range fails the safe-range check");
  expect(has(perturbed([](EndState& s, BurstOutcome&) {
               s.energy_j = s.budget * s.horizon_s * 1.0001;
             }),
             "energy-bound"),
         "energy above budget x horizon fails the energy check");
  expect(has(perturbed([](EndState& s, BurstOutcome&) {
               s.max_conservation_error = 1e-5;
             }),
             "audit-conservation"),
         "an audit error of 1e-5 W fails the conservation check");
  expect(has(perturbed([](EndState&, BurstOutcome& b) {
               b.t50_reached = false;
             }),
             "t50-reached"),
         "Penelope missing t50 fails");
  expect(has(perturbed([](EndState&, BurstOutcome& b) {
               b.shifted_watts -= 1.0;
             }),
             "net-gain<=shifted"),
         "shifted below the net gain fails net <= gross");
  expect(has(perturbed([](EndState&, BurstOutcome& b) {
               b.available_watts -= 1.0;
             }),
             "net-drop<=available"),
         "available below the net drop fails net <= gross");

  WorkloadSize size;
  size.swarm_seeds = 4;
  size.swarm_schedules = 8;
  size.swarm_replays = 4;
  Round clean = run_round("dst_swarm", 1, false, regions, size);
  expect(failed_ops(clean) == 0 && clean.workload_failures.empty(),
         "32-pair swarm without the planted bug: no failed runs");

  // The replay check: pair 0 of that swarm, replayed through the
  // explorer's entry point, matches its record and no changed copy.
  namespace dst = penelope::dst;
  dst::ExplorerConfig cfg;
  cfg.base_seed = 1000 * 1 + 1;  // what run_round uses for seed 1
  cfg.seeds = size.swarm_seeds;
  cfg.schedules = size.swarm_schedules;
  cfg.jobs = 1;
  dst::ScheduleSpec spec = cfg.spec;
  spec.n_nodes = cfg.n_nodes;
  const std::uint64_t salt = dst::schedule_salt(cfg, 0);
  const dst::RunOutcome replay = dst::execute_one(
      cfg, cfg.base_seed, salt, dst::generate_schedule(spec, salt));
  OpRecord other_hash = clean.ops.front();
  other_hash.trace_hash ^= 1;
  OpRecord other_events = clean.ops.front();
  other_events.executed_events += 1;
  OpRecord other_verdict = clean.ops.front();
  other_verdict.violations += 1;
  expect(replay_matches(replay, clean.ops.front()),
         "a replayed swarm pair matches its record");
  expect(!replay_matches(replay, other_hash) &&
             !replay_matches(replay, other_events) &&
             !replay_matches(replay, other_verdict),
         "a record with its trace hash, event count or verdict count "
         "changed fails the replay check");

  size.swarm_plant_bug = true;
  Round planted = run_round("dst_swarm", 1, false, regions, size);
  std::printf("  planted bug: %zu of %zu runs failed\n", failed_ops(planted),
              planted.ops.size());
  expect(failed_ops(planted) > 0,
         "32-pair swarm with the planted bug counts failed runs");
}

void determinism() {
  Regions regions(false);
  Round r;
  EndState s1, s4;
  OpRecord j1 = burst_run(small_burst(ManagerKind::kPenelope, 1.0, 64, 1),
                          false, regions, r, &s1);
  OpRecord j4 = burst_run(small_burst(ManagerKind::kPenelope, 1.0, 64, 4),
                          false, regions, r, &s4);
  expect(j1.failures.empty() && j4.failures.empty(),
         "2^16-node arena passes every check at sim_jobs 1 and 4");
  expect(j1.trace_hash == j4.trace_hash &&
             j1.executed_events == j4.executed_events &&
             s1.energy_j == s4.energy_j,
         "2^16-node arena: same trace hash, events and energy at "
         "sim_jobs 1 and 4");

  namespace dst = penelope::dst;
  dst::ExplorerConfig cfg;
  cfg.base_seed = 1000 * 3 + 1;  // what run_round uses for seed 3
  cfg.seeds = 8;
  cfg.schedules = 8;
  cfg.jobs = 1;
  const dst::SwarmReport one = dst::run_swarm(cfg);
  cfg.jobs = 4;
  const dst::SwarmReport four = dst::run_swarm(cfg);
  expect(one.outcome_hash == four.outcome_hash && one.runs == 64,
         "64-pair swarm: same outcome hash at 1 and 4 workers");
  WorkloadSize size;
  size.swarm_seeds = 8;
  size.swarm_schedules = 8;
  size.swarm_replays = 2;
  Round ours = run_round("dst_swarm", 3, false, regions, size);
  std::uint64_t fold = 0;
  for (const OpRecord& op : ours.ops) {
    fold = mix64(fold ^ op.trace_hash ^ mix64(op.violations));
  }
  expect(fold == one.outcome_hash,
         "the benchmark's swarm loop reproduces the explorer's outcome hash");

  Regions spans(true);
  WorkloadSize classic;
  classic.classic_nodes = 128;
  classic.classic_window_s = 20.0;
  const Round plain = run_round("classic_burst", 5, false, regions, classic);
  const Round traced = run_round("classic_burst", 5, true, spans, classic);
  expect(check_rounds({plain, plain}, {traced}).empty(),
         "classic burst (128 nodes): traced rounds match untraced");
  Round changed = plain;
  changed.ops.back().trace_hash ^= 1;
  expect(has(check_rounds({plain, changed}, {}),
             "rounds disagree on trace hash or event count"),
         "a second round with one trace hash changed fails the round check");
  changed = traced;
  changed.ops.front().executed_events += 1;
  expect(has(check_rounds({plain}, {changed}),
             "traced run differs from untraced run"),
         "a traced round with one event count changed fails the traced "
         "check");
  WorkloadSize arena;
  arena.arena_nodes = 1 << 14;
  arena.arena_pools = 16;
  expect(same_runs(run_round("arena_million", 5, false, regions, arena),
                   run_round("arena_million", 5, true, spans, arena)),
         "arena (2^14 nodes, sim_jobs 4): traced rounds match untraced");
  expect(!spans.spans().empty(), "the traced rounds recorded spans");
}

}  // namespace

int run_selftest() {
  checks_reject_perturbations();
  determinism();
  std::printf("%s: %d failure(s)\n", g_failures ? "FAIL" : "PASS",
              g_failures);
  return g_failures ? 1 : 0;
}

}  // namespace perfbench
