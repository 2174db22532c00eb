// Shard environments and registry reads shared by the two service
// workloads.
#ifndef DCBENCH_SERVICE_ENV_H_
#define DCBENCH_SERVICE_ENV_H_

#include <memory>
#include <string>

#include "decorators.h"
#include "harness/experiment.h"
#include "ml/logistic_regression.h"
#include "obs/metrics.h"
#include "service/sharded_service.h"

namespace dcbench {

/// Layer accounting shared by every shard's decorated environment.
struct ServiceTrace {
  LayerStat sim;
  LayerStat validate;
  LayerStat batch;
};

/// The correlation-task shard environment dynamicc_cli builds for the
/// music-like workload (trigram cosine, token blocking, agglomerative +
/// hill-climbing batch, logistic-regression models). With `trace` set,
/// the measure, validator and batch are the timing decorators; the
/// models stay undecorated because snapshots and replication serialize
/// them by concrete type.
inline dynamicc::ShardEnvironmentFactory MusicShardFactory(
    ServiceTrace* trace) {
  return [trace] {
    using namespace dynamicc;
    ExperimentConfig config;
    config.workload = WorkloadKind::kMusic;
    config.task = TaskKind::kCorrelation;
    ShardEnvironment env;
    DatasetProfile profile = MakeProfile(config.workload);
    env.measure = std::move(profile.measure);
    env.blocker = std::move(profile.blocker);
    env.min_similarity = profile.min_similarity;
    env.sim_core = config.sim_core;
    TaskPipeline pipeline = MakeTaskPipeline(config);
    env.objective = std::move(pipeline.objective);
    env.bootstrap_objective = std::move(pipeline.bootstrap_objective);
    env.validator = std::move(pipeline.validator);
    env.batch_stages = std::move(pipeline.stages);
    env.batch = std::move(pipeline.batch);
    if (trace != nullptr) {
      env.measure =
          std::make_unique<TimedMeasure>(std::move(env.measure), &trace->sim);
      env.validator = std::make_unique<TimedValidator>(
          std::move(env.validator), &trace->validate);
      env.batch =
          std::make_unique<TimedBatch>(std::move(env.batch), &trace->batch);
    }
    env.merge_model = std::make_unique<LogisticRegression>();
    env.split_model = std::make_unique<LogisticRegression>();
    return env;
  };
}

/// The serving options dynamicc_cli uses for a replicated async primary
/// with read serving, with the harness's session configuration.
inline dynamicc::ShardedDynamicCService::Options ServiceOptions(
    uint32_t shards, dynamicc::obs::MetricsRegistry* metrics) {
  dynamicc::ShardedDynamicCService::Options options;
  options.num_shards = shards;
  options.async.enabled = true;
  options.read.serve = true;
  options.obs.metrics = metrics;
  const dynamicc::ExperimentConfig config;
  options.session.threshold = config.threshold;
  options.session.dynamicc = config.dynamicc;
  options.session.trainer = config.trainer;
  options.session.retrain_every = config.retrain_every;
  options.session.observe_every = config.observe_every;
  return options;
}

/// Sum and count of a registry histogram (never its base-2 bucket
/// quantiles, which are only good to within 2x).
struct HistogramTotals {
  uint64_t count = 0;
  double sum = 0.0;
  double mean() const {
    return count > 0 ? sum / static_cast<double>(count) : 0.0;
  }
};

inline HistogramTotals ReadHistogram(const dynamicc::obs::MetricsSnapshot& s,
                                     const std::string& name) {
  for (const auto& h : s.histograms) {
    if (h.name == name) return {h.count, h.sum};
  }
  return {};
}

inline double ReadGauge(const dynamicc::obs::MetricsSnapshot& s,
                        const std::string& name) {
  for (const auto& [gauge, value] : s.gauges) {
    if (gauge == name) return value;
  }
  return 0.0;
}

}  // namespace dcbench

#endif  // DCBENCH_SERVICE_ENV_H_
