#include "workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <utility>

#include "checks.hpp"
#include "cluster/cluster.hpp"
#include "cluster/scale.hpp"
#include "dst/explorer.hpp"
#include "power/performance_model.hpp"

namespace perfbench {
namespace {

using penelope::cluster::Cluster;
using penelope::cluster::ClusterConfig;
using penelope::cluster::ManagerKind;
using penelope::cluster::RunResult;
using penelope::cluster::ScaleConfig;
using penelope::workload::WorkloadProfile;
namespace common = penelope::common;

/// Traced runs advance run_for in steps of this many seconds. 0.25 s is
/// exactly 250000 ticks, so the sliced run executes the same events.
constexpr double kSliceS = 0.25;

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

void add(Round& r, const char* key, double v) { r.layer[key] += v; }
void raise(Round& r, const char* key, double v) {
  double& slot = r.layer[key];
  slot = std::max(slot, v);
}

/// The §4.5 completion-burst profiles: the first half runs capped just
/// below its demand and finishes at burst_at_seconds, the second half
/// stays hungry past the window. Mirrors run_scale_experiment, whose
/// profile construction is internal to the library.
std::vector<WorkloadProfile> burst_profiles(const ScaleConfig& sc,
                                            const ClusterConfig& cc) {
  const double initial_cap = cc.initial_node_cap();
  const double burst_demand = initial_cap + sc.burst_demand_margin_watts;
  penelope::power::PerformanceModel model(cc.perf);
  const double burst_work =
      sc.burst_at_seconds * model.speed(initial_cap, burst_demand);
  const double hungry_work =
      (sc.burst_at_seconds + sc.window_seconds + 100.0) * 2.0;
  std::vector<WorkloadProfile> profiles(
      static_cast<std::size_t>(sc.n_nodes));
  for (int i = 0; i < sc.n_nodes; ++i) {
    WorkloadProfile& p = profiles[static_cast<std::size_t>(i)];
    if (i < sc.n_nodes / 2) {
      p.name = "burst";
      p.phases.push_back({"hot", burst_demand, burst_work});
    } else {
      p.name = "hungry";
      p.phases.push_back({"hot", sc.hungry_demand_watts, hungry_work});
    }
  }
  return profiles;
}

EndState end_state(const Cluster& cl, const ClusterConfig& cc,
                   const penelope::cluster::ConservationAudit& audit,
                   double max_conservation_error) {
  EndState s;
  s.initial_cap = cc.initial_node_cap();
  s.budget = cc.system_budget();
  s.caps.resize(static_cast<std::size_t>(cc.n_nodes));
  for (int i = 0; i < cc.n_nodes; ++i)
    s.caps[static_cast<std::size_t>(i)] = cl.node_cap(i);
  s.pool = audit.pool_total;
  s.cache = audit.server_cache;
  s.in_flight = audit.in_flight;
  s.stranded = audit.stranded;
  s.max_conservation_error = max_conservation_error;
  s.energy_j = cl.total_energy_joules();
  s.horizon_s = common::to_seconds(cl.now_ticks());
  s.safe_min = cc.rapl.safe_range.min_watts;
  s.safe_max = cc.rapl.safe_range.max_watts;
  return s;
}

/// Layer counters every cluster run reports after it ends.
void count_layers(Round& r, const Cluster& cl, const RunResult& res,
                  ManagerKind manager) {
  add(r, "sim.events", static_cast<double>(cl.executed_events()));
  raise(r, "sim.pending_high_water",
        static_cast<double>(cl.pending_high_water()));
  add(r, "net.sent", static_cast<double>(res.net_stats.sent));
  add(r, "net.delivered", static_cast<double>(res.net_stats.delivered));
  add(r, "net.dropped", static_cast<double>(res.net_stats.dropped_total()));
  add(r, "net.payload_bytes",
      static_cast<double>(res.net_stats.payload_bytes_sent));
  if (manager == ManagerKind::kPenelope && !cl.federated()) {
    add(r, "core.requests", static_cast<double>(cl.metrics().requests_sent()));
    add(r, "core.timeouts", static_cast<double>(cl.metrics().timeouts()));
    add(r, "core.answered",
        static_cast<double>(cl.metrics().turnaround_ms().size()));
  }
  if (res.server_stats) {
    const auto& st = *res.server_stats;
    add(r, "central.processed", static_cast<double>(st.processed));
    add(r, "central.drops", static_cast<double>(st.dropped_overflow));
    add(r, "central.queue_wait_total_ms",
        common::to_millis(st.total_queue_wait));
    raise(r, "central.peak_queue_depth",
          static_cast<double>(st.peak_queue_depth));
  }
  add(r, "hierarchy.federated_msgs",
      static_cast<double>(cl.metrics().federated_requests() +
                          cl.metrics().federated_transfers()));
  add(r, "hierarchy.watts_moved", cl.metrics().federated_watts_moved());
  double samples = 0.0;
  for (const auto& ts : cl.series().series())
    samples += static_cast<double>(ts->total_samples());
  add(r, "telemetry.series_samples", samples);
  add(r, "telemetry.flight_records",
      static_cast<double>(cl.metrics().recorder().recorded()));
}

/// Penelope t50 from the program's own analysis, measured from the
/// first release of excess power.
std::optional<double> t50_of(const Cluster& cl,
                             penelope::cluster::RedistributionResult* out) {
  const auto& releases = cl.metrics().releases();
  const common::Ticks burst_at = releases.empty() ? 0 : releases.front().at;
  *out = penelope::cluster::analyze_redistribution(cl.metrics(), burst_at,
                                                   0.5);
  return out->time_to_fraction_s;
}

/// Advance `seconds` of simulated time; traced runs step in kSliceS
/// slices, sample the arena's active set between them and time each.
void advance(Cluster& cl, double seconds, bool traced, Regions& regions,
             Round& r) {
  const double cpu0 = cpu_seconds();
  const double t0 = now_s();
  if (!traced) {
    cl.run_for(seconds);
  } else {
    const long slices = std::lround(seconds / kSliceS);
    for (long k = 0; k < slices; ++k) {
      {
        Region slice(regions, "sim.slice");
        cl.run_for(kSliceS);
      }
      if (cl.arena()) {
        add(r, "arena.active_sum",
            static_cast<double>(cl.arena()->active_set_size()) /
                cl.config().n_nodes);
        add(r, "arena.samples", 1.0);
      }
    }
  }
  add(r, "run.cpu_s", cpu_seconds() - cpu0);
  add(r, "run.wall_s", now_s() - t0);
}

}  // namespace

OpRecord burst_run(const ScaleConfig& sc, bool traced, Regions& regions,
                   Round& r, EndState* state_out,
                   BurstOutcome* outcome_out) {
  regions.set_run(static_cast<std::uint32_t>(r.ops.size()));
  Region op(regions, "op");
  ClusterConfig cc;
  std::vector<WorkloadProfile> profiles;
  {
    Region g(regions, "workload.profile");
    cc = penelope::cluster::make_scale_cluster_config(sc);
    profiles = burst_profiles(sc, cc);
  }
  std::unique_ptr<Cluster> cl;
  {
    Region g(regions, "cluster.build");
    cl = std::make_unique<Cluster>(cc, std::move(profiles));
  }
  const double horizon = sc.burst_at_seconds + sc.window_seconds + 2.0;
  {
    Region g(regions, "cluster.run");
    advance(*cl, horizon, traced, regions, r);
  }
  penelope::cluster::RedistributionResult redist;
  std::optional<double> t50;
  RunResult res;
  penelope::cluster::ConservationAudit audit;
  {
    Region g(regions, "cluster.collect");
    t50 = t50_of(*cl, &redist);
    res = cl->collect_result();
    Region a(regions, "cluster.audit");
    audit = cl->audit();
  }
  op.stop();

  count_layers(r, *cl, res, sc.manager);
  r.node_seconds += static_cast<double>(sc.n_nodes) * horizon;
  r.max_nodes = std::max(r.max_nodes, sc.n_nodes);
  const bool penelope = sc.manager == ManagerKind::kPenelope;
  if (penelope && t50) {
    r.t50_sum_s += *t50;
    ++r.t50_runs;
  }

  BurstOutcome b;
  b.penelope = penelope;
  b.t50_reached = t50.has_value();
  b.available_watts = redist.available_watts;
  b.shifted_watts = redist.shifted_watts;
  b.net_equals_gross =
      penelope && (sc.pools > 0 || sc.frequency_hz == 4.0);
  OpRecord rec;
  rec.label = std::string(penelope::cluster::manager_name(sc.manager)) +
              "@" + std::to_string(static_cast<int>(sc.frequency_hz)) + "Hz";
  rec.trace_hash = cl->trace_hash();
  rec.executed_events = cl->executed_events();
  EndState state =
      end_state(*cl, cc, audit, res.audit.max_abs_conservation_error);
  rec.failures = check_burst(state, b);
  if (state_out) *state_out = std::move(state);
  if (outcome_out) *outcome_out = b;
  return rec;
}

namespace {

void classic_burst(std::uint64_t seed, bool traced, Regions& regions,
                   const WorkloadSize& size, Round& r) {
  for (ManagerKind manager : {ManagerKind::kPenelope, ManagerKind::kCentral}) {
    for (double hz : {4.0, 16.0, 32.0}) {
      ScaleConfig sc;
      sc.manager = manager;
      sc.n_nodes = size.classic_nodes;
      sc.frequency_hz = hz;
      sc.window_seconds = size.classic_window_s;
      sc.seed = seed;
      r.ops.push_back(burst_run(sc, traced, regions, r));
    }
  }
}

void arena_million(std::uint64_t seed, bool traced, Regions& regions,
                   const WorkloadSize& size, Round& r) {
  ScaleConfig sc;
  sc.manager = ManagerKind::kPenelope;
  sc.n_nodes = size.arena_nodes;
  sc.pools = size.arena_pools;
  sc.fanout = 8;
  sc.frequency_hz = 1.0;
  sc.burst_at_seconds = 2.0;
  sc.window_seconds = 20.0;
  sc.sim_jobs = size.arena_jobs;
  sc.seed = seed;
  r.ops.push_back(burst_run(sc, traced, regions, r));
}

penelope::workload::NpbConfig dst_npb(
    const penelope::dst::ExplorerConfig& cfg, std::uint64_t seed) {
  penelope::workload::NpbConfig npb;
  npb.duration_scale = cfg.duration_scale;
  npb.demand_jitter_frac = 0.03;
  npb.seed = seed;
  return npb;
}

/// The explorer's execute_one, rebuilt from its public pieces so that
/// schedule generation, profiles, construction, the run and the oracles
/// can each be timed.
void dst_swarm(std::uint64_t seed, bool /*traced*/, Regions& regions,
               const WorkloadSize& size, Round& r) {
  namespace dst = penelope::dst;
  dst::ExplorerConfig cfg;
  cfg.base_seed = 1000 * seed + 1;
  cfg.seeds = size.swarm_seeds;
  cfg.schedules = size.swarm_schedules;
  cfg.jobs = 1;
  cfg.plant_bug = size.swarm_plant_bug;
  dst::ScheduleSpec spec = cfg.spec;
  spec.n_nodes = cfg.n_nodes;

  const int pairs = cfg.seeds * cfg.schedules;
  r.max_nodes = cfg.n_nodes;
  for (int i = 0; i < pairs; ++i) {
    const std::uint64_t run_seed =
        cfg.base_seed + static_cast<std::uint64_t>(i / cfg.schedules);
    const std::uint64_t salt = dst::schedule_salt(cfg, i % cfg.schedules);
    regions.set_run(static_cast<std::uint32_t>(i));
    Region op(regions, "op");
    std::vector<penelope::cluster::FaultEvent> schedule;
    {
      Region g(regions, "dst.schedule");
      schedule = dst::generate_schedule(spec, salt);
    }
    ClusterConfig cc;
    std::vector<WorkloadProfile> profiles;
    {
      Region g(regions, "workload.profile");
      cc = dst::make_dst_config(cfg, run_seed);
      cc.faults = schedule;
      profiles = penelope::cluster::make_pair_workloads(
          penelope::workload::NpbApp::kEP, penelope::workload::NpbApp::kDC,
          cc.n_nodes, dst_npb(cfg, run_seed));
    }
    std::optional<Cluster> cl;
    {
      Region g(regions, "cluster.build");
      cl.emplace(cc, std::move(profiles));
    }
    RunResult res;
    {
      Region g(regions, "cluster.run");
      const double cpu0 = cpu_seconds();
      const double t0 = now_s();
      res = cl->run();
      add(r, "run.cpu_s", cpu_seconds() - cpu0);
      add(r, "run.wall_s", now_s() - t0);
    }
    penelope::cluster::RedistributionResult redist;
    std::optional<double> t50;
    {
      Region g(regions, "cluster.collect");
      t50 = t50_of(*cl, &redist);
    }
    std::vector<dst::Violation> violations;
    {
      Region g(regions, "dst.oracle");
      violations = dst::check_oracles(dst::gather_facts(*cl, res, schedule));
    }
    op.stop();

    count_layers(r, *cl, res, cc.manager);
    add(r, "dst.fault_events", static_cast<double>(schedule.size()));
    r.node_seconds +=
        cc.n_nodes * common::to_seconds(cl->now_ticks());
    if (t50) {
      r.t50_sum_s += *t50;
      ++r.t50_runs;
    }

    OpRecord rec;
    rec.label = "seed=" + std::to_string(run_seed) +
                " schedule=" + dst::format_schedule(schedule);
    rec.trace_hash = cl->trace_hash();
    rec.executed_events = cl->executed_events();
    rec.violations = violations.size();
    for (const auto& v : violations)
      rec.failures.push_back("oracle:" + v.oracle);
    if (!res.all_completed) rec.failures.push_back("completed");
    for (auto& f : check_end_state(
             end_state(*cl, cc, cl->audit(),
                       res.audit.max_abs_conservation_error)))
      rec.failures.push_back(std::move(f));
    r.ops.push_back(std::move(rec));
  }

  // Replay a sample of pairs through the explorer's own entry point:
  // each must reproduce the swarm's trace hash, event count and verdict.
  for (int k = 0; k < size.swarm_replays; ++k) {
    const int i = static_cast<int>(static_cast<long>(k) * pairs /
                                   size.swarm_replays);
    const std::uint64_t run_seed =
        cfg.base_seed + static_cast<std::uint64_t>(i / cfg.schedules);
    const std::uint64_t salt = dst::schedule_salt(cfg, i % cfg.schedules);
    const dst::RunOutcome out = dst::execute_one(
        cfg, run_seed, salt, dst::generate_schedule(spec, salt));
    if (!replay_matches(out, r.ops[static_cast<std::size_t>(i)]))
      r.workload_failures.push_back("replay of pair " + std::to_string(i));
  }
}

}  // namespace

bool replay_matches(const penelope::dst::RunOutcome& out,
                    const OpRecord& rec) {
  return out.trace_hash == rec.trace_hash &&
         out.executed_events == rec.executed_events &&
         out.violations.size() == rec.violations;
}

bool same_runs(const Round& a, const Round& b) {
  if (a.ops.size() != b.ops.size()) return false;
  for (std::size_t i = 0; i < a.ops.size(); ++i) {
    if (a.ops[i].trace_hash != b.ops[i].trace_hash ||
        a.ops[i].executed_events != b.ops[i].executed_events)
      return false;
  }
  return true;
}

std::vector<std::string> check_rounds(const std::vector<Round>& plain,
                                      const std::vector<Round>& traced) {
  std::vector<std::string> out;
  for (const Round& r : plain) {
    if (!same_runs(r, plain.front()))
      out.push_back("rounds disagree on trace hash or event count");
  }
  for (const Round& r : traced) {
    if (!same_runs(r, plain.front()))
      out.push_back("traced run differs from untraced run");
  }
  return out;
}

bool is_workload(const std::string& name) {
  return name == "classic_burst" || name == "arena_million" ||
         name == "dst_swarm";
}

int rounds_for(const std::string& workload, double seconds) {
  const double round_s = workload == "arena_million" ? 20.0 : 10.0;
  return static_cast<int>(std::clamp(seconds / round_s, 1.0, 1e6));
}

Round run_round(const std::string& workload, std::uint64_t seed,
                bool traced, Regions& regions, const WorkloadSize& size) {
  static const char* const kTimed[] = {
      "op", "workload.profile", "cluster.build", "cluster.run",
      "cluster.collect", "cluster.audit", "dst.schedule", "dst.oracle"};
  std::map<std::string, double> before;
  for (const char* name : kTimed) before[name] = regions.total(name);
  Round r;
  if (workload == "classic_burst") {
    classic_burst(seed, traced, regions, size, r);
  } else if (workload == "arena_million") {
    arena_million(seed, traced, regions, size, r);
  } else {
    dst_swarm(seed, traced, regions, size, r);
  }
  const auto spent = [&](const char* name) {
    return regions.total(name) - before[name];
  };
  r.wall_s = spent("op");
  r.setup_s = spent("workload.profile") + spent("cluster.build");
  r.run_s = spent("cluster.run");
  for (const char* name : kTimed) r.layer[std::string(name) + "_s"] = spent(name);
  return r;
}

}  // namespace perfbench
