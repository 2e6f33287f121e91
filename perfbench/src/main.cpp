// Penelope benchmark entry point. One invocation runs one workload from one
// process:
//
//   perfbench --workload <classic_burst|arena_million|dst_swarm>
//             --seed <n> --seconds <s> --trace <0|1> [--spans <file>]
//   perfbench --selftest
//
// It runs rounds_for(workload, --seconds) whole rounds of the workload
// (at least one), checks every cluster run's outputs, and prints one JSON
// object as its last line: the end-to-end metrics with --trace 0, the
// per-layer metrics with --trace 1. A cluster run whose checks fire is
// counted in `failed`; `correct` turns false only when a workload-level
// check fails (rounds or replays that disagree). A traced invocation
// alternates an untraced and a traced round, so it can report its own
// overhead and show that tracing leaves every run's trace hash and event
// count alone.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "regions.hpp"
#include "workloads.hpp"

namespace perfbench {
int run_selftest();
}

namespace {

using perfbench::Round;

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

template <typename F>
double median_over(const std::vector<Round>& rounds, F f) {
  std::vector<double> v;
  for (const Round& r : rounds) v.push_back(f(r));
  return median(std::move(v));
}

double peak_rss_bytes() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) * 1024.0;  // ru_maxrss is KiB
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double get(const Round& r, const char* key) {
  auto it = r.layer.find(key);
  return it == r.layer.end() ? 0.0 : it->second;
}

std::vector<Metric> end_to_end(const std::vector<Round>& rounds) {
  return {
      {"wall_s", median_over(rounds, [](const Round& r) { return r.wall_s; }),
       "s"},
      // The first round's set-up, in a fresh process: a cold one.
      {"setup_s", rounds.front().setup_s, "s"},
      {"node_seconds_per_s",
       median_over(rounds,
                   [](const Round& r) { return ratio(r.node_seconds, r.run_s); }),
       "node-s/s"},
      {"peak_rss_mb", peak_rss_bytes() / (1024.0 * 1024.0), "MB"},
      {"t50_s",
       median_over(rounds,
                   [](const Round& r) { return ratio(r.t50_sum_s, r.t50_runs); }),
       "s"},
  };
}

std::vector<Metric> layer_metrics(const Round& r, bool is_swarm) {
  const double events = get(r, "sim.events");
  const double processed = get(r, "central.processed");
  return {
      {"sim.events", events, "count"},
      {"sim.ns_per_event", ratio(r.run_s * 1e9, events), "ns"},
      {"sim.pending_high_water", get(r, "sim.pending_high_water"), "count"},
      {"sim.cpu_per_wall", ratio(get(r, "run.cpu_s"), get(r, "run.wall_s")),
       "ratio"},
      {"workload.profile_s", get(r, "workload.profile_s"), "s"},
      {"cluster.build_s", get(r, "cluster.build_s"), "s"},
      {"cluster.run_s", get(r, "cluster.run_s"), "s"},
      {"cluster.collect_s", get(r, "cluster.collect_s"), "s"},
      {"cluster.audit_ms", get(r, "cluster.audit_s") * 1e3, "ms"},
      {"cluster.arena.active_fraction",
       ratio(get(r, "arena.active_sum"), get(r, "arena.samples")), "ratio"},
      {"cluster.rss_bytes_per_node", ratio(peak_rss_bytes(), r.max_nodes),
       "B"},
      {"net.sent", get(r, "net.sent"), "count"},
      {"net.delivered", get(r, "net.delivered"), "count"},
      {"net.dropped", get(r, "net.dropped"), "count"},
      {"net.payload_bytes", get(r, "net.payload_bytes"), "B"},
      {"core.requests", get(r, "core.requests"), "count"},
      {"core.timeouts", get(r, "core.timeouts"), "count"},
      {"core.answered_per_request",
       ratio(get(r, "core.answered"), get(r, "core.requests")), "ratio"},
      {"central.processed", processed, "count"},
      {"central.drops", get(r, "central.drops"), "count"},
      {"central.queue_wait_ms",
       ratio(get(r, "central.queue_wait_total_ms"), processed), "ms"},
      {"central.peak_queue_depth", get(r, "central.peak_queue_depth"),
       "count"},
      {"hierarchy.federated_msgs", get(r, "hierarchy.federated_msgs"),
       "count"},
      {"hierarchy.watts_moved", get(r, "hierarchy.watts_moved"), "W"},
      {"dst.schedule_s", get(r, "dst.schedule_s"), "s"},
      {"dst.ms_per_run",
       is_swarm ? r.wall_s * 1e3 / static_cast<double>(r.ops.size()) : 0.0,
       "ms"},
      {"dst.oracle_s", get(r, "dst.oracle_s"), "s"},
      {"dst.fault_events", get(r, "dst.fault_events"), "count"},
      {"telemetry.series_samples", get(r, "telemetry.series_samples"),
       "count"},
      {"telemetry.flight_records", get(r, "telemetry.flight_records"),
       "count"},
  };
}

/// Per-metric median over the traced rounds.
std::vector<Metric> median_layers(const std::vector<Round>& rounds,
                                  bool is_swarm) {
  std::vector<Metric> out = layer_metrics(rounds.front(), is_swarm);
  for (std::size_t m = 0; m < out.size(); ++m) {
    std::vector<double> v;
    for (const Round& r : rounds) v.push_back(layer_metrics(r, is_swarm)[m].value);
    out[m].value = median(std::move(v));
  }
  return out;
}

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", metrics[i].name.c_str(), v, metrics[i].unit);
  }
  std::printf("}}\n");
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <classic_burst|arena_million|"
               "dst_swarm> --seed <n> --seconds <s> --trace <0|1> "
               "[--spans <file>]\n       perfbench --selftest\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string spans_path;
  long long seed = -1;
  double seconds = -1.0;
  int trace = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--selftest") return perfbench::run_selftest();
    if (i + 1 >= argc) return usage();
    const char* val = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      workload = val;
    } else if (arg == "--seed") {
      seed = std::strtoll(val, &end, 10);
    } else if (arg == "--seconds") {
      seconds = std::strtod(val, &end);
    } else if (arg == "--trace") {
      trace = static_cast<int>(std::strtol(val, &end, 10));
    } else if (arg == "--spans") {
      spans_path = val;
    } else {
      return usage();
    }
    if (end && *end != '\0') return usage();
  }
  if (!perfbench::is_workload(workload) || seed < 0 || !(seconds > 0.0) ||
      (trace != 0 && trace != 1))
    return usage();

  const bool is_swarm = workload == "dst_swarm";
  const auto useed = static_cast<std::uint64_t>(seed);
  perfbench::Regions plain(false);
  perfbench::Regions traced(true);
  std::vector<Round> rounds;
  std::vector<Round> traced_rounds;
  for (int k = perfbench::rounds_for(workload, seconds); k > 0; --k) {
    rounds.push_back(perfbench::run_round(workload, useed, false, plain));
    if (trace) {
      traced_rounds.push_back(
          perfbench::run_round(workload, useed, true, traced));
    }
  }

  // Every operation and every workload-level check across all rounds;
  // rounds repeat the same runs, so their hashes must agree too.
  std::size_t attempted = 0;
  std::size_t failed = 0;
  bool correct = true;
  std::size_t shown = 0;
  const auto tally = [&](const Round& r, const char* mode) {
    for (const auto& op : r.ops) {
      ++attempted;
      if (op.failures.empty()) continue;
      ++failed;
      if (shown++ < 20) {
        std::string why;
        for (const auto& f : op.failures) why += " " + f;
        std::printf("FAILED %s run %s:%s\n", mode, op.label.c_str(),
                    why.c_str());
      }
    }
    for (const auto& f : r.workload_failures) {
      correct = false;
      std::printf("FAILED %s %s\n", mode, f.c_str());
    }
  };
  for (const Round& r : rounds) tally(r, "untraced");
  for (const Round& r : traced_rounds) tally(r, "traced");
  for (const auto& f : perfbench::check_rounds(rounds, traced_rounds)) {
    correct = false;
    std::printf("FAILED %s\n", f.c_str());
  }

  const Round& first = rounds.front();
  for (const auto& op : first.ops) {
    if (is_swarm) break;  // 8192 runs: failures are listed above
    std::printf("run %-18s trace_hash=%016llx events=%llu\n",
                op.label.c_str(),
                static_cast<unsigned long long>(op.trace_hash),
                static_cast<unsigned long long>(op.executed_events));
  }
  std::printf("%s seed=%lld rounds=%zu wall_s=%.3f (first round %.3f)\n",
              workload.c_str(), seed, rounds.size(),
              median_over(rounds, [](const Round& r) { return r.wall_s; }),
              first.wall_s);

  std::vector<Metric> metrics;
  if (!trace) {
    metrics = end_to_end(rounds);
  } else {
    metrics = median_layers(traced_rounds, is_swarm);
    const double plain_wall =
        median_over(rounds, [](const Round& r) { return r.wall_s; });
    const double traced_wall =
        median_over(traced_rounds, [](const Round& r) { return r.wall_s; });
    metrics.push_back({"trace.overhead_pct",
                       100.0 * (traced_wall - plain_wall) / plain_wall, "%"});
    if (!spans_path.empty() && !traced.write_jsonl(spans_path)) {
      std::fprintf(stderr, "perfbench: cannot write spans to %s\n",
                   spans_path.c_str());
      return 1;
    }
  }
  std::fflush(stdout);
  print_result(correct, attempted, failed, metrics);
  return 0;
}
