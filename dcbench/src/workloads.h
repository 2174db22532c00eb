// The three benchmark workloads and what each run hands back to main.
#ifndef DCBENCH_WORKLOADS_H_
#define DCBENCH_WORKLOADS_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace dcbench {

struct RunOptions {
  uint64_t seed = 1;
  double seconds = 10.0;
  bool traced = false;
  /// Directory for scratch files (replication log); inside the checkout.
  std::string work_dir;
  /// paper-kmeans: run exactly this many passes (0 = until `seconds`).
  /// The traced run repeats the untraced run's pass count so both
  /// measure the same work.
  size_t fixed_passes = 0;
};

/// One line of the layer-sum table: a traced self-time and the
/// end-to-end time it helps compose (per the workload's unit of work).
struct LayerSumRow {
  std::string layer;
  double ms = 0.0;
};

struct WorkloadResult {
  std::vector<std::string> failures;  // failed correctness checks
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// The contract's end-to-end metrics (every workload fills all).
  std::map<std::string, double> e2e;
  /// The workload's own names for the same figures, printed for people:
  /// name -> (value, unit, sample count; 0 = not a sample statistic).
  struct Named {
    std::string name;
    double value = 0.0;
    std::string unit;
    size_t n = 0;
  };
  std::vector<Named> named;
  /// Per-layer metrics (traced runs only).
  std::map<std::string, double> layers;
  /// Layer-sum table: rows against `layer_sum_total_ms`, the end-to-end
  /// time per unit of work they compose.
  std::vector<LayerSumRow> layer_sum;
  double layer_sum_total_ms = 0.0;
  std::string layer_sum_unit;
  /// Headline time of this run (compared traced vs untraced for the
  /// tracing overhead) and the figures that must agree between the two.
  double headline = 0.0;
  bool headline_higher_is_better = false;
  std::string state_digest;
  size_t passes = 0;
  /// Workload parameters for run_meta.
  std::map<std::string, std::string> params;

  void Fail(const std::string& what) { failures.push_back(what); }
  void Name(const std::string& name, double value, const std::string& unit,
            size_t n = 0) {
    named.push_back({name, value, unit, n});
  }
};

WorkloadResult RunPaperKMeans(const RunOptions& options);
WorkloadResult RunIngestReplicated(const RunOptions& options);
WorkloadResult RunServeTcp(const RunOptions& options);

/// Seed of the i-th input stream derived from the benchmark seed
/// (never 0, which the generators read as "use the default seed").
uint64_t DeriveSeed(uint64_t seed, uint64_t i);

/// Peak resident set size of this process so far, in MiB.
double PeakRssMb();

}  // namespace dcbench

#endif  // DCBENCH_WORKLOADS_H_
