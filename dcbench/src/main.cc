// dcbench: the DynamicC benchmark binary.
//
//   dcbench --workload paper-kmeans|ingest-replicated|serve-tcp|all
//           --seed N --seconds S --trace 0|1
//           [--commit SHA] [--work-dir DIR]
//
// --trace 0 runs the workload untraced and reports the end-to-end
// metrics. --trace 1 runs it untraced and then traced (timing
// decorators and registry reads), reports the per-layer metrics, the
// layer-sum table and the tracing overhead, and checks that tracing
// did not change the result. Every figure is printed by name with its
// unit; the last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// The exit code is non-zero when any correctness check failed.
#include <sys/resource.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "workloads.h"

namespace dcbench {

uint64_t DeriveSeed(uint64_t seed, uint64_t i) {
  // splitmix64 over (seed, i).
  uint64_t z = seed * 0x9E3779B97F4A7C15ull + (i + 1) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  z ^= z >> 31;
  return (z % 1000000007ull) + 1;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Order and units of the contract's metrics (BENCHMARK.json lists the
// same names; README.md maps each to what it measures per workload).
const std::vector<MetricSpec> kEndToEnd = {
    {"setup_s", "s"},         {"peak_rss_mb", "MiB"},
    {"p50_ms", "ms"},         {"tail_ms", "ms"},
    {"write_p50_ms", "ms"},   {"throughput_per_s", "1/s"},
    {"f1", "pair-F1"},
};

const std::vector<MetricSpec> kPerLayer = {
    // paper-kmeans (per dynamic round unless noted)
    {"core.recluster_ms", "ms"},
    {"core.retrain_ms", "ms"},
    {"cluster.repair_ms", "ms"},
    {"objective.validate_ms", "ms"},
    {"objective.validate_calls", "count"},
    {"ml.predict_ms", "ms"},
    {"ml.predict_calls", "count"},
    {"core.features_ms", "ms"},
    {"core.iterations", "count"},
    {"core.merge_predicted", "count"},
    {"core.merge_applied", "count"},
    {"core.split_predicted", "count"},
    {"core.split_applied", "count"},
    {"core.rejected", "count"},
    {"core.precision", "ratio"},
    {"data.apply_ms", "ms"},
    {"data.sim_ms", "ms"},
    {"data.sim_pairs", "count"},
    {"batch.observe_ms", "ms"},
    {"baseline.greedy_p50_ms", "ms"},
    // ingest-replicated (per replicated batch unless noted)
    {"service.admit_ms", "ms"},
    {"service.queue_wait_ms", "ms"},
    {"service.drain_apply_ms", "ms"},
    {"service.worker_round_ms", "ms"},
    {"service.barrier_ms", "ms"},
    {"service.seal_ms", "ms"},
    {"service.publish_ms", "ms"},
    {"service.coalesced_frac", "ratio"},
    {"service.rps_1shard", "1/s"},
    {"replication.ship_ms", "ms"},
    {"replication.delta_bytes_per_op", "B"},
    {"replication.base_snapshot_ms", "ms"},
    {"gen.late_p99_ms", "ms"},
    // serve-tcp (per request)
    {"net.server_rpc_ms.ClusterOf", "ms"},
    {"net.server_rpc_ms.KNearest", "ms"},
    {"net.server_rpc_ms.Ingest", "ms"},
    {"net.wire_ms.ClusterOf", "ms"},
    {"net.wire_ms.KNearest", "ms"},
    {"net.wire_ms.Ingest", "ms"},
    {"query.inproc_ms.ClusterOf", "ms"},
    {"query.inproc_ms.KNearest", "ms"},
    {"net.loop_lag_ms", "ms"},
    {"net.bytes_per_rpc.ClusterOf", "B"},
    {"net.bytes_per_rpc.KNearest", "B"},
    {"net.bytes_per_rpc.Ingest", "B"},
    {"data.knn_pairs", "count"},
    {"read.view_lag_epochs", "count"},
    {"read.stale_rejects", "count"},
    // every workload
    {"trace.overhead_frac", "ratio"},
    {"layersum.residual_frac", "ratio"},
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string commit = "unknown";
  std::string work_dir = ".bench_build/work";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args->trace = std::atoi(value.c_str());
    } else if (flag == "--commit") {
      args->commit = value;
    } else if (flag == "--work-dir") {
      args->work_dir = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && args->seconds > 0 &&
         (args->trace == 0 || args->trace == 1);
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

WorkloadResult Dispatch(const std::string& workload,
                        const RunOptions& options) {
  if (workload == "paper-kmeans") return RunPaperKMeans(options);
  if (workload == "ingest-replicated") return RunIngestReplicated(options);
  return RunServeTcp(options);
}

void PrintRunMeta(const Args& args, const std::string& workload,
                  const WorkloadResult& result) {
  std::string params;
  for (const auto& [key, value] : result.params) {
    if (!params.empty()) params += ", ";
    params += JsonString(key) + ": " + JsonString(value);
  }
  std::printf(
      "run_meta {\"commit\": %s, \"nproc\": %u, \"build_type\": %s, "
      "\"compiler\": %s, \"workload\": %s, \"seed\": %llu, "
      "\"seconds\": %s, \"trace\": %d, \"params\": {%s}}\n",
      JsonString(args.commit).c_str(), std::thread::hardware_concurrency(),
      JsonString(DCBENCH_BUILD_TYPE).c_str(),
      JsonString(__VERSION__).c_str(), JsonString(workload).c_str(),
      static_cast<unsigned long long>(args.seed),
      JsonNumber(args.seconds).c_str(), args.trace, params.c_str());
}

void PrintNamed(const WorkloadResult& result) {
  for (const auto& m : result.named) {
    if (m.n > 0) {
      std::printf("  %-34s %14.4f %-8s (n=%zu)\n", m.name.c_str(), m.value,
                  m.unit.c_str(), m.n);
    } else {
      std::printf("  %-34s %14.4f %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  }
  std::printf("  %-34s %14llu\n  %-34s %14llu\n", "ops_attempted",
              static_cast<unsigned long long>(result.attempted),
              "ops_failed", static_cast<unsigned long long>(result.failed));
}

/// Runs one workload at the requested trace level, prints its report,
/// and returns the contract line's pieces.
struct Outcome {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
};

Outcome RunOne(const Args& args, const std::string& workload) {
  RunOptions options;
  options.seed = args.seed;
  options.seconds = args.seconds;
  options.work_dir = args.work_dir + "/run-" + std::to_string(getpid());
  std::filesystem::create_directories(options.work_dir);

  Outcome outcome;
  std::printf("== %s  seed=%llu seconds=%g trace=%d\n", workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace);
  WorkloadResult untraced = Dispatch(workload, options);
  std::vector<std::string> failures = untraced.failures;
  PrintRunMeta(args, workload, untraced);
  std::printf("untraced run:\n");
  PrintNamed(untraced);

  if (args.trace == 0) {
    untraced.e2e["peak_rss_mb"] = PeakRssMb();
    std::printf("  %-34s %14.4f MiB\n", "peak_rss_mb",
                untraced.e2e["peak_rss_mb"]);
    outcome.attempted = untraced.attempted;
    outcome.failed = untraced.failed;
    for (const MetricSpec& spec : kEndToEnd) {
      auto it = untraced.e2e.find(spec.name);
      if (it == untraced.e2e.end()) {
        failures.push_back(std::string("missing metric ") + spec.name);
        continue;
      }
      outcome.metrics.push_back({spec.name, {it->second, spec.unit}});
    }
  } else {
    options.traced = true;
    options.fixed_passes = untraced.passes;
    WorkloadResult traced = Dispatch(workload, options);
    failures.insert(failures.end(), traced.failures.begin(),
                    traced.failures.end());
    std::printf("traced run:\n");
    PrintNamed(traced);
    if (traced.state_digest != untraced.state_digest) {
      failures.push_back("traced run's clustering differs from the "
                         "untraced run's (" + traced.state_digest + " vs " +
                         untraced.state_digest + ")");
    }
    double overhead = 0.0;
    if (untraced.headline > 0) {
      overhead = traced.headline_higher_is_better
                     ? (untraced.headline - traced.headline) /
                           untraced.headline
                     : (traced.headline - untraced.headline) /
                           untraced.headline;
    }
    traced.layers["trace.overhead_frac"] = overhead;
    double composed = 0.0;
    std::printf("layer-sum (traced, %s; end-to-end %.4f ms):\n",
                traced.layer_sum_unit.c_str(), traced.layer_sum_total_ms);
    for (const LayerSumRow& row : traced.layer_sum) {
      composed += row.ms;
      std::printf("  %-40s %12.4f ms  %6.1f%%\n", row.layer.c_str(), row.ms,
                  traced.layer_sum_total_ms > 0
                      ? 100.0 * row.ms / traced.layer_sum_total_ms
                      : 0.0);
    }
    const double residual = traced.layer_sum_total_ms - composed;
    const double residual_frac = traced.layer_sum_total_ms > 0
                                     ? residual / traced.layer_sum_total_ms
                                     : 0.0;
    traced.layers["layersum.residual_frac"] = residual_frac;
    std::printf("  %-40s %12.4f ms  %6.1f%%\n", "residual", residual,
                100.0 * residual_frac);
    std::printf("tracing overhead (traced - untraced headline): %.2f%% "
                "(untraced %.4f, traced %.4f)\n",
                100.0 * overhead, untraced.headline, traced.headline);
    std::printf("per-layer metrics:\n");
    outcome.attempted = traced.attempted;
    outcome.failed = traced.failed;
    for (const MetricSpec& spec : kPerLayer) {
      // A layer a workload never calls reads 0 (no time, no calls).
      auto it = traced.layers.find(spec.name);
      const double value = it != traced.layers.end() ? it->second : 0.0;
      std::printf("  %-34s %14.4f %s%s\n", spec.name, value, spec.unit,
                  it == traced.layers.end() ? "  (not on this path)" : "");
      outcome.metrics.push_back({spec.name, {value, spec.unit}});
    }
  }
  std::error_code ec;
  std::filesystem::remove_all(options.work_dir, ec);
  // On stderr too, so a caller that keeps only stderr sees why.
  for (const std::string& failure : failures) {
    std::printf("CHECK FAILED: %s\n", failure.c_str());
    std::fprintf(stderr, "dcbench: %s: CHECK FAILED: %s\n", workload.c_str(),
                 failure.c_str());
  }
  outcome.correct = failures.empty();
  return outcome;
}

std::string ContractLine(const Outcome& outcome, const std::string& prefix) {
  std::string metrics;
  for (const auto& [name, value_unit] : outcome.metrics) {
    if (!metrics.empty()) metrics += ", ";
    metrics += JsonString(prefix + name) + ": {\"value\": " +
               JsonNumber(value_unit.first) +
               ", \"unit\": " + JsonString(value_unit.second) + "}";
  }
  return std::string("{\"correct\": ") +
         (outcome.correct ? "true" : "false") +
         ", \"attempted\": " + std::to_string(outcome.attempted) +
         ", \"failed\": " + std::to_string(outcome.failed) +
         ", \"metrics\": {" + metrics + "}}";
}

}  // namespace
}  // namespace dcbench

int main(int argc, char** argv) {
  using namespace dcbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: dcbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--commit SHA] [--work-dir DIR]\n");
    return 2;
  }
  const std::vector<std::string> all = {"paper-kmeans", "ingest-replicated",
                                        "serve-tcp"};
  std::vector<std::string> workloads;
  if (args.workload == "all") {
    workloads = all;
  } else {
    for (const std::string& name : all) {
      if (name == args.workload) workloads.push_back(name);
    }
  }
  if (workloads.empty()) {
    std::fprintf(stderr, "unknown workload: %s\n", args.workload.c_str());
    return 2;
  }
  Outcome total;
  for (const std::string& workload : workloads) {
    Outcome one = RunOne(args, workload);
    total.correct = total.correct && one.correct;
    total.attempted += one.attempted;
    total.failed += one.failed;
    const std::string prefix = workloads.size() > 1 ? workload + "." : "";
    for (auto& metric : one.metrics) {
      total.metrics.push_back({prefix + metric.first, metric.second});
    }
  }
  std::fflush(stdout);
  std::printf("%s\n", ContractLine(total, "").c_str());
  return total.correct ? 0 : 1;
}
