// Configurable experiment runner: assemble any cluster the library can
// express from the command line, run it, and get a summary plus an
// optional per-node trajectory CSV for plotting.
//
// Examples:
//   ./run_experiment manager=penelope apps=EP,DC nodes=20 cap=80
//   ./run_experiment manager=central apps=FT,CG kill_server_at=60
//       trace=run.csv
//   ./run_experiment manager=penelope apps=EP,DC loss=0.05
//       hint_discovery=1 period_ms=250
#include <cstdio>
#include <cstring>

#include "cluster/cluster.hpp"
#include "common/config.hpp"
#include "common/stats.hpp"
#include "dst/explorer.hpp"
#include "sweep/sweep.hpp"
#include "telemetry/export.hpp"
#include "workload/npb.hpp"

using namespace penelope;

namespace {

const char* kUsage =
    "run_experiment [manager=penelope|central|fair] [apps=EP,DC]\n"
    "  [nodes=20] [cap=80] [period_ms=1000] [epsilon=5] [seed=42]\n"
    "  [sim_jobs=1]  (threads *within* one run; trace stays\n"
    "  bit-identical for any value)\n"
    "  [duration_scale=1.0] [loss=0.0] [dup=0.0] [reorder=0.0]\n"
    "  [reorder_delay_ms=250] [kill_server_at=S]\n"
    "  [kill_mgmt_node=I] [kill_mgmt_at=S] [urgency=1]\n"
    "  [membership=0] [heartbeat_ms=1000] [suspect_missed=3]\n"
    "  [dead_missed=6] [churn=0] [mtbf=120] [mttr=10]\n"
    "  [sticky_peers=0] [hint_discovery=0] [local_take=drain|limited]\n"
    "  [pools=0] [fanout=8] [low_water=30]  (hierarchical pool\n"
    "  federation on the flat-arena path, penelope only; pools=0 is\n"
    "  the classic flat path)\n"
    "  [trace=FILE] [trace_ms=1000] [trace_format=csv|jsonl|both]\n"
    "  [flight_ring=N] [flow_ring=N] [perfetto=FILE.json]\n"
    "  [metrics=FILE.prom]\n"
    "  [series=FILE.csv] [series_window=250] [health_epsilon=0.01]\n"
    "  (windowed time-series + health probes; series_window in ms,\n"
    "  sampling on changes the trace vs off but is bit-identical for\n"
    "  every sim_jobs value)\n"
    "fault-schedule / DST knobs:\n"
    "  [schedule='crash@12.5,3/recover@14,3/...']  (see src/dst/\n"
    "  schedule.hpp for the grammar; composes with kill_*_at=)\n"
    "  [watchdog_s=S] [watchdog_abort=0] [corrupt=0.0]\n"
    "  [dst=1]  (adopt the DST explorer's exact cluster base, so a\n"
    "  dst_explore repro line replays byte-identically)\n"
    "  [dst_bug=0]  (planted-bug test hook; only for DST self-tests)\n"
    "sweep mode (prints one table row per run; parallel output is\n"
    "byte-identical to jobs=1):\n"
    "  [seeds=1,2,3] [managers=penelope,central] [jobs=N] "
    "[sweep_csv=FILE]";

bool write_text_file(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  return std::fclose(f) == 0 && ok;
}

bool parse_app(const std::string& name, workload::NpbApp* out) {
  for (auto app : workload::all_apps()) {
    if (name == workload::app_name(app)) {
      *out = app;
      return true;
    }
  }
  return false;
}

bool parse_manager(const std::string& name, cluster::ManagerKind* out) {
  if (name == "penelope") {
    *out = cluster::ManagerKind::kPenelope;
  } else if (name == "central" || name == "slurm") {
    *out = cluster::ManagerKind::kCentral;
  } else if (name == "fair") {
    *out = cluster::ManagerKind::kFair;
  } else if (name == "podd" || name == "hierarchical") {
    *out = cluster::ManagerKind::kHierarchical;
  } else {
    return false;
  }
  return true;
}

std::vector<std::string> split_csv(const std::string& list) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= list.size()) {
    std::size_t comma = list.find(',', start);
    if (comma == std::string::npos) {
      out.push_back(list.substr(start));
      break;
    }
    out.push_back(list.substr(start, comma - start));
    start = comma + 1;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  common::Config config;
  if (!config.parse_args(argc, argv)) {
    std::fprintf(stderr, "error: %s\n%s\n", config.error().c_str(),
                 kUsage);
    return 2;
  }

  cluster::ClusterConfig cc;
  std::string manager = config.get_string("manager", "penelope");
  if (!parse_manager(manager, &cc.manager)) {
    std::fprintf(stderr, "error: unknown manager '%s'\n%s\n",
                 manager.c_str(), kUsage);
    return 2;
  }

  cc.n_nodes = config.get_int("nodes", 20);
  cc.per_socket_cap_watts = config.get_double("cap", 80.0);
  cc.period = common::from_millis(config.get_double("period_ms", 1000.0));
  cc.epsilon_watts = config.get_double("epsilon", 5.0);
  cc.seed = static_cast<std::uint64_t>(config.get_int("seed", 42));
  cc.sim_jobs = config.get_int("sim_jobs", 1);

  // DST repro mode: swap in the fault-schedule explorer's cluster base
  // so `dst_explore`'s one-line repro commands replay the exact run
  // (same manager, discovery knobs, audit cadence, watchdog, journal).
  // Every knob read below then defaults to that base's value; outside
  // dst mode the CLI's own defaults apply.
  const bool dst_mode = config.get_bool("dst", false);
  const double watchdog_s =
      config.get_double("watchdog_s", dst_mode ? 30.0 : 0.0);
  const bool dst_bug = config.get_bool("dst_bug", false);
  if (dst_mode) {
    dst::ExplorerConfig dcfg;
    dcfg.n_nodes = cc.n_nodes;
    dcfg.duration_scale = config.get_double("duration_scale", 0.3);
    dcfg.watchdog_s = watchdog_s;
    dcfg.plant_bug = dst_bug;
    cluster::ClusterConfig base = dst::make_dst_config(dcfg, cc.seed);
    base.sim_jobs = cc.sim_jobs;
    cc = base;
  }
  cc.network.loss_probability =
      config.get_double("loss", cc.network.loss_probability);
  cc.network.duplicate_probability =
      config.get_double("dup", cc.network.duplicate_probability);
  cc.network.reorder_probability =
      config.get_double("reorder", cc.network.reorder_probability);
  cc.network.reorder_delay = common::from_millis(config.get_double(
      "reorder_delay_ms",
      dst_mode ? common::to_millis(cc.network.reorder_delay) : 250.0));
  cc.urgency_enabled = config.get_bool("urgency", cc.urgency_enabled);
  cc.sticky_peers = config.get_bool("sticky_peers", cc.sticky_peers);
  cc.hint_discovery = config.get_bool("hint_discovery", cc.hint_discovery);
  if (config.get_string("local_take", "drain") == "limited")
    cc.local_take = core::LocalTakePolicy::kRateLimited;
  cc.federation_pools = config.get_int("pools", cc.federation_pools);
  cc.federation_fanout = config.get_int("fanout", cc.federation_fanout);
  cc.federation_low_water_watts =
      config.get_double("low_water", cc.federation_low_water_watts);

  // Membership + churn (off by default; zero-churn runs with membership
  // off stay bit-identical to the pre-membership golden trace). The
  // churn schedule is drawn from a seed-derived stream, so churn=1
  // composes with seeds=/managers=/jobs= sweeps deterministically.
  cc.membership_enabled =
      config.get_bool("membership", cc.membership_enabled);
  cc.membership.heartbeat_period = common::from_millis(config.get_double(
      "heartbeat_ms", common::to_millis(cc.membership.heartbeat_period)));
  cc.membership.suspect_after_missed =
      static_cast<std::uint32_t>(config.get_int(
          "suspect_missed",
          static_cast<int>(cc.membership.suspect_after_missed)));
  cc.membership.dead_after_missed = static_cast<std::uint32_t>(
      config.get_int("dead_missed",
                     static_cast<int>(cc.membership.dead_after_missed)));
  cc.churn_enabled = config.get_bool("churn", cc.churn_enabled);
  cc.churn_mtbf_seconds = config.get_double("mtbf", cc.churn_mtbf_seconds);
  cc.churn_mttr_seconds = config.get_double("mttr", cc.churn_mttr_seconds);

  double kill_server_at = config.get_double("kill_server_at", 0.0);
  if (kill_server_at > 0.0) {
    cc.faults.push_back(
        cluster::FaultEvent{cluster::FaultEvent::Kind::kKillServer,
                            common::from_seconds(kill_server_at), 0});
  }
  double kill_mgmt_at = config.get_double("kill_mgmt_at", 0.0);
  if (kill_mgmt_at > 0.0) {
    cc.faults.push_back(cluster::FaultEvent{
        cluster::FaultEvent::Kind::kKillManagement,
        common::from_seconds(kill_mgmt_at),
        config.get_int("kill_mgmt_node", 0)});
  }
  std::string schedule_text = config.get_string("schedule", "");
  std::vector<cluster::FaultEvent> schedule;
  if (!schedule_text.empty()) {
    std::string schedule_error;
    if (!dst::parse_schedule(schedule_text, &schedule,
                             &schedule_error)) {
      std::fprintf(stderr, "error: bad schedule: %s\n%s\n",
                   schedule_error.c_str(), kUsage);
      return 2;
    }
    cc.faults.insert(cc.faults.end(), schedule.begin(), schedule.end());
  }
  if (!dst_mode) {
    cc.watchdog_s = watchdog_s;
    cc.test_revert_grant_fix = dst_bug;
  }
  cc.watchdog_abort = config.get_bool("watchdog_abort", false);
  cc.network.corrupt_probability =
      config.get_double("corrupt", cc.network.corrupt_probability);

  std::string trace_path = config.get_string("trace", "");
  std::string trace_format = config.get_string("trace_format", "csv");
  if (trace_format != "csv" && trace_format != "jsonl" &&
      trace_format != "both") {
    std::fprintf(stderr, "error: trace_format must be csv, jsonl or "
                         "both\n%s\n",
                 kUsage);
    return 2;
  }
  std::string perfetto_path = config.get_string("perfetto", "");
  std::string metrics_path = config.get_string("metrics", "");
  // flight_ring= is the documented name; flight_recorder= predates it
  // and keeps working.
  const int default_ring = perfetto_path.empty() ? 0 : 1 << 16;
  cc.flight_recorder_capacity = static_cast<std::size_t>(config.get_int(
      "flight_ring",
      config.get_int("flight_recorder",
                     dst_mode ? static_cast<int>(cc.flight_recorder_capacity)
                              : default_ring)));
  cc.flow_tracer_capacity = static_cast<std::size_t>(config.get_int(
      "flow_ring", dst_mode ? static_cast<int>(cc.flow_tracer_capacity)
                            : default_ring));
  if (!trace_path.empty() || !perfetto_path.empty()) {
    cc.trace_interval =
        common::from_millis(config.get_double("trace_ms", 1000.0));
  }
  // Windowed series + health sampling: on when series= names an output
  // file or series_window= is set explicitly.
  std::string series_path = config.get_string("series", "");
  double default_window_ms = series_path.empty() ? 0.0 : 250.0;
  if (dst_mode) default_window_ms = common::to_millis(cc.series_interval);
  cc.series_interval = common::from_millis(
      config.get_double("series_window", default_window_ms));
  cc.health_epsilon = config.get_double("health_epsilon", cc.health_epsilon);

  std::string apps = config.get_string("apps", "EP,DC");
  auto comma = apps.find(',');
  workload::NpbApp app_a{};
  workload::NpbApp app_b{};
  if (comma == std::string::npos ||
      !parse_app(apps.substr(0, comma), &app_a) ||
      !parse_app(apps.substr(comma + 1), &app_b)) {
    std::fprintf(stderr, "error: apps must be two of "
                         "BT,CG,EP,FT,LU,MG,SP,UA,DC\n%s\n",
                 kUsage);
    return 2;
  }

  workload::NpbConfig npb;
  npb.duration_scale =
      config.get_double("duration_scale", dst_mode ? 0.3 : 1.0);
  // DST runs use the explorer's jitter so repro lines replay exactly.
  npb.demand_jitter_frac = dst_mode ? 0.03 : 0.02;
  npb.seed = cc.seed;

  // Sweep mode: seeds= and/or managers= expand into independent runs
  // executed by the parallel sweep engine (src/sweep). The result table
  // is ordered by the spec expansion, never by completion, so jobs=N
  // output is byte-identical to jobs=1.
  int jobs = config.get_int("jobs", 1);
  std::vector<int> seed_list = config.get_int_list("seeds", {});
  std::string managers_list = config.get_string("managers", "");
  std::string sweep_csv = config.get_string("sweep_csv", "");
  bool sweep_mode = !seed_list.empty() || !managers_list.empty();

  for (const auto& key : config.unused_keys()) {
    std::fprintf(stderr, "error: unknown option '%s'\n%s\n", key.c_str(),
                 kUsage);
    return 2;
  }

  if (sweep_mode) {
    if (!trace_path.empty() || !perfetto_path.empty() ||
        !metrics_path.empty() || !series_path.empty()) {
      std::fprintf(stderr, "error: trace/perfetto/metrics/series are "
                           "single-run options (not available with "
                           "seeds=/managers= sweeps)\n%s\n",
                   kUsage);
      return 2;
    }
    sweep::SweepSpec spec;
    spec.configs = {cc};
    spec.app_a = app_a;
    spec.app_b = app_b;
    spec.npb = npb;
    if (managers_list.empty()) {
      spec.managers = {cc.manager};
    } else {
      for (const std::string& name : split_csv(managers_list)) {
        cluster::ManagerKind kind;
        if (!parse_manager(name, &kind)) {
          std::fprintf(stderr, "error: unknown manager '%s'\n%s\n",
                       name.c_str(), kUsage);
          return 2;
        }
        spec.managers.push_back(kind);
      }
    }
    if (seed_list.empty()) {
      spec.seeds = {cc.seed};
    } else {
      for (int s : seed_list)
        spec.seeds.push_back(static_cast<std::uint64_t>(s));
    }

    std::vector<sweep::SweepRunResult> results =
        sweep::run_sweep(spec, jobs);
    common::Table table = sweep::sweep_table(spec, results);
    std::printf("%s", table.render().c_str());
    if (!sweep_csv.empty() && table.write_csv(sweep_csv))
      std::printf("csv -> %s\n", sweep_csv.c_str());
    for (const auto& r : results)
      if (!r.result.all_completed) return 1;
    return 0;
  }

  cluster::Cluster cl(
      cc, cluster::make_pair_workloads(app_a, app_b, cc.n_nodes, npb));
  cluster::RunResult result = cl.run();

  std::printf("manager            %s\n",
              cluster::manager_name(cc.manager));
  std::printf("workloads          %s (nodes 0-%d) + %s (nodes %d-%d)\n",
              workload::app_name(app_a), cc.n_nodes / 2 - 1,
              workload::app_name(app_b), cc.n_nodes / 2, cc.n_nodes - 1);
  std::printf("completed          %s\n",
              result.all_completed ? "yes" : "NO (deadline)");
  if (cc.watchdog_s > 0.0) {
    std::printf("liveness           %s (watchdog_s=%g)\n",
                result.wedged ? "WEDGED (see dump above)" : "ok",
                cc.watchdog_s);
  }
  std::printf("runtime            %.2f s\n", result.runtime_seconds);
  std::printf("performance        %.6f (1/runtime)\n", result.performance);
  std::printf("requests sent      %llu (%llu timeouts)\n",
              static_cast<unsigned long long>(result.requests_sent),
              static_cast<unsigned long long>(result.timeouts));
  if (!result.turnaround_ms.empty()) {
    common::Summary turnaround = common::summarize(result.turnaround_ms);
    std::printf("turnaround (ms)    mean %.3f  p50 %.3f  p75 %.3f  "
                "max %.3f\n",
                turnaround.mean, turnaround.median, turnaround.p75,
                turnaround.max);
  }
  std::printf("messages           %llu sent, %llu dropped, "
              "%llu duplicated, %llu reordered\n",
              static_cast<unsigned long long>(result.net_stats.sent),
              static_cast<unsigned long long>(
                  result.net_stats.dropped_total()),
              static_cast<unsigned long long>(result.net_stats.duplicated),
              static_cast<unsigned long long>(result.net_stats.reordered));
  std::printf("stranded power     %.2f W\n", result.stranded_watts);
  if (cc.membership_enabled || cc.churn_enabled) {
    std::printf("membership         %llu suspected, %llu declared dead, "
                "%llu false suspicions\n",
                static_cast<unsigned long long>(result.nodes_suspected),
                static_cast<unsigned long long>(
                    result.nodes_declared_dead),
                static_cast<unsigned long long>(result.false_suspicions));
    std::printf("reclaimed power    %.2f W over %llu reclaims\n",
                result.watts_reclaimed,
                static_cast<unsigned long long>(result.reclaims));
  }
  std::printf("conservation       max |error| %.2e W, live overshoot "
              "%.2e W over %zu audits\n",
              result.audit.max_abs_conservation_error,
              result.audit.max_live_overshoot, result.audit.audits);
  if (dst_mode) {
    // Judge the replay with the same oracles the explorer used, so a
    // `dst_explore` repro line reproduces the violation verbatim.
    dst::OracleFacts facts = dst::gather_facts(cl, result, schedule);
    std::vector<dst::Violation> violations = dst::check_oracles(facts);
    if (violations.empty()) {
      std::printf("oracles            all clean\n");
    } else {
      for (const dst::Violation& v : violations)
        std::printf("oracle VIOLATION   %-12s %s\n", v.oracle.c_str(),
                    v.detail.c_str());
    }
  }
  if (cc.series_interval > 0 && !cl.health().probes().empty()) {
    const telemetry::HealthProbe& last = cl.health().probes().back();
    auto conv = cl.health().convergence_seconds(0);
    std::printf("health             %zu probes, min Jain %.4f, "
                "final Jain %.4f, %.1f J delivered\n",
                cl.health().probes().size(), cl.health().min_jain_since(0),
                last.jain, last.energy_joules);
    if (conv.has_value()) {
      std::printf("convergence        %.2f s to Jain >= %.3f\n", *conv,
                  1.0 - cc.health_epsilon);
    } else {
      std::printf("convergence        not reached (Jain < %.3f at end)\n",
                  1.0 - cc.health_epsilon);
    }
  }

  if (!trace_path.empty()) {
    bool wrote = false;
    if (trace_format == "csv" || trace_format == "both") {
      wrote = cl.trace().write_csv(trace_path);
    }
    if (trace_format == "jsonl" || trace_format == "both") {
      std::string jsonl_path =
          trace_format == "jsonl" ? trace_path : trace_path + ".jsonl";
      wrote = cl.trace().write_jsonl(jsonl_path) || wrote;
    }
    if (wrote) {
      std::printf("trace              %zu samples -> %s "
                  "(mean cap oscillation %.2f W)\n",
                  cl.trace().samples().size(), trace_path.c_str(),
                  cl.trace().mean_cap_oscillation());
    }
  }
  if (!perfetto_path.empty()) {
    const telemetry::FlightRecorder& recorder = cl.metrics().recorder();
    const telemetry::PowerFlowTracer& tracer = cl.metrics().tracer();
    std::string json = telemetry::to_perfetto_json(
        recorder.snapshot(), cl.trace().counter_tracks(),
        tracer.snapshot());
    if (write_text_file(perfetto_path, json)) {
      std::printf("perfetto           %llu txn events (%llu dropped), "
                  "%llu flow hops -> %s\n",
                  static_cast<unsigned long long>(recorder.recorded()),
                  static_cast<unsigned long long>(recorder.dropped()),
                  static_cast<unsigned long long>(tracer.recorded()),
                  perfetto_path.c_str());
    }
  }
  if (!series_path.empty()) {
    if (write_text_file(series_path, cl.series().to_csv())) {
      std::size_t windows = 0;
      for (const auto& s : cl.series().series())
        windows += s->windows().size();
      std::printf("series             %zu series, %zu windows -> %s\n",
                  cl.series().series().size(), windows,
                  series_path.c_str());
    }
    std::string health_path = series_path + ".health.csv";
    if (cc.series_interval > 0 &&
        write_text_file(health_path, cl.health().to_csv())) {
      std::printf("health csv         %zu probes -> %s\n",
                  cl.health().probes().size(), health_path.c_str());
    }
  }
  if (!metrics_path.empty()) {
    std::string text = telemetry::to_prometheus_text(
        cl.metrics().registry().snapshot());
    if (write_text_file(metrics_path, text)) {
      std::printf("metrics            %zu series -> %s\n",
                  cl.metrics().registry().size(), metrics_path.c_str());
    }
  }
  return result.all_completed ? 0 : 1;
}
