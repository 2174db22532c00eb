// paper-kmeans: the paper's own claim. One DynamicCSession per input
// stream on the Road-like workload with the Fig. 5a schedule, k-means
// task (k = 48), wired exactly as ExperimentHarness::RunDynamicC wires
// it (KMeansObjective + validator, Lloyd + hill-climbing batch,
// RepairClusterCount after every dynamic round). A round's latency is
// DynamicRound (recluster + retrain) plus the repair, timed as the
// harness times it. A panel of kStreams streams is derived from --seed;
// timed passes over the panel repeat until the run's time is used.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <vector>

#include "batch/hill_climbing.h"
#include "batch/kmeans_lloyd.h"
#include "churn.h"
#include "core/session.h"
#include "decorators.h"
#include "estimators.h"
#include "eval/report.h"
#include "harness/experiment.h"
#include "ml/logistic_regression.h"
#include "objective/kmeans.h"
#include "service/service_report.h"
#include "util/timer.h"
#include "workloads.h"

namespace dcbench {
namespace {

using namespace dynamicc;

constexpr int kK = 48;
constexpr size_t kScale = 800;
constexpr int kTrainingRounds = 2;
// The stream panel: 8 post-training rounds each, so 256 rounds a pass.
constexpr size_t kStreams = 32;
constexpr size_t kMinPasses = 2;

ExperimentConfig PaperConfig(uint64_t seed) {
  ExperimentConfig config;
  config.workload = WorkloadKind::kRoad;
  config.task = TaskKind::kKMeans;
  config.scale = kScale;
  config.seed = seed;
  config.training_rounds = kTrainingRounds;
  config.kmeans_k = kK;
  return config;
}

/// Layer accounting of the traced run, summed over every timed round.
struct PaperTrace {
  LayerStat sim;
  LayerStat validate;
  LayerStat observe;
  LayerStat predict;  // both models, Recluster's calls only
  double recluster_ms = 0.0;
  double retrain_ms = 0.0;
  double repair_ms = 0.0;
  double apply_ms = 0.0;
  ReclusterReport detail;
};

struct StreamOutcome {
  double setup_s = 0.0;
  std::vector<double> round_ms;
  std::vector<double> apply_ms;
  size_t round_ops = 0;
  std::vector<double> f1;
  uint64_t digest = 0;
  size_t alive = 0;
};

/// Runs one stream through a DynamicC session wired like the harness.
/// With `trace` set, the measure, validator, batch and models are the
/// timing decorators and the per-round figures are accumulated there.
StreamOutcome RunStream(const ExperimentHarness& harness,
                        const ExperimentConfig& config, bool score,
                        PaperTrace* trace) {
  StreamOutcome out;
  Timer setup;
  const WorkloadStream& stream = harness.stream();
  Dataset dataset;
  DatasetProfile profile = MakeProfile(config.workload);
  std::unique_ptr<SimilarityMeasure> measure = std::move(profile.measure);
  if (trace != nullptr) {
    measure = std::make_unique<TimedMeasure>(std::move(measure), &trace->sim);
  }
  SimilarityGraph graph(&dataset, measure.get(), std::move(profile.blocker),
                        profile.min_similarity, config.sim_core);
  KMeansObjective objective(&dataset, config.kmeans_k);
  std::unique_ptr<ChangeValidator> validator =
      std::make_unique<ObjectiveValidator>(&objective);
  if (trace != nullptr) {
    validator = std::make_unique<TimedValidator>(std::move(validator),
                                                 &trace->validate);
  }
  KMeansLloyd::Options lloyd;
  lloyd.k = config.kmeans_k;
  KMeansLloyd seed_stage(lloyd);
  HillClimbing::Options refine;
  refine.from_current = true;
  refine.prune_top = 16;
  refine.max_steps = 200;
  refine.allow_split = false;
  HillClimbing climb(&objective, refine);
  std::unique_ptr<BatchAlgorithm> batch = std::make_unique<CompositeBatch>(
      std::vector<BatchAlgorithm*>{&seed_stage, &climb}, "kmeans-batch");
  if (trace != nullptr) {
    batch = std::make_unique<TimedBatch>(std::move(batch), &trace->observe);
  }

  std::unique_ptr<BinaryClassifier> merge_model =
      std::make_unique<LogisticRegression>();
  std::unique_ptr<BinaryClassifier> split_model =
      std::make_unique<LogisticRegression>();
  TimedClassifier* timed_merge = nullptr;
  TimedClassifier* timed_split = nullptr;
  if (trace != nullptr) {
    auto m = std::make_unique<TimedClassifier>(std::move(merge_model),
                                               &trace->predict);
    auto s = std::make_unique<TimedClassifier>(std::move(split_model),
                                               &trace->predict);
    timed_merge = m.get();
    timed_split = s.get();
    merge_model = std::move(m);
    split_model = std::move(s);
  }

  DynamicCOptions dyn_options = config.dynamicc;
  dyn_options.split.split_as_move = true;
  dyn_options.merge.partner_ranking_objective = &objective;
  DynamicCSession::Options session_options;
  session_options.threshold = config.threshold;
  session_options.dynamicc = dyn_options;
  session_options.trainer = config.trainer;
  session_options.retrain_every = config.retrain_every;
  session_options.observe_every = config.observe_every;
  DynamicCSession session(&dataset, &graph, batch.get(), validator.get(),
                          std::move(merge_model), std::move(split_model),
                          session_options);

  // Set-up: initial load, round-0 observation and the training
  // snapshots — everything before the first timed dynamic round.
  session.ApplyOperations(stream.initial);
  session.ObserveBatchRound({});
  size_t snapshot = 0;
  for (; snapshot < stream.snapshots.size() &&
         snapshot < static_cast<size_t>(config.training_rounds);
       ++snapshot) {
    auto changed = session.ApplyOperations(stream.snapshots[snapshot]);
    session.ObserveBatchRound(changed);
  }
  out.setup_s = setup.ElapsedSeconds();

  for (; snapshot < stream.snapshots.size(); ++snapshot) {
    Timer apply_timer;
    auto changed = session.ApplyOperations(stream.snapshots[snapshot]);
    const double apply_ms = apply_timer.ElapsedMillis();
    out.apply_ms.push_back(apply_ms);
    out.round_ops += stream.snapshots[snapshot].size();
    if (timed_merge != nullptr) {
      timed_merge->BeginRound();
      timed_split->BeginRound();
    }

    Timer timer;
    DynamicCSession::DynamicReport report = session.DynamicRound(changed);
    Timer repair_timer;
    RepairClusterCount(&session.engine(), static_cast<size_t>(kK));
    const double repair_ms = repair_timer.ElapsedMillis();
    out.round_ms.push_back(timer.ElapsedMillis());

    if (trace != nullptr) {
      trace->recluster_ms += report.recluster_ms;
      trace->retrain_ms += report.retrain_ms;
      trace->repair_ms += repair_ms;
      trace->apply_ms += apply_ms;
      AccumulateRecluster(&trace->detail, report.detail);
    }
    if (score && snapshot < harness.references().size()) {
      QualityReport quality =
          EvaluateQuality(session.engine().clustering().CanonicalClusters(),
                          harness.references()[snapshot]);
      out.f1.push_back(quality.f1);
    }
  }
  out.digest =
      PartitionDigest(session.engine().clustering().CanonicalClusters());
  out.alive = dataset.alive_count();
  return out;
}

double Mean(double sum, size_t n) {
  return n > 0 ? sum / static_cast<double>(n) : 0.0;
}

}  // namespace

WorkloadResult RunPaperKMeans(const RunOptions& options) {
  WorkloadResult result;
  result.params = {{"workload", "road"},
                   {"task", "k-means"},
                   {"k", std::to_string(kK)},
                   {"scale", std::to_string(kScale)},
                   {"training_rounds", std::to_string(kTrainingRounds)},
                   {"schedule", "fig5a-road"}};
  PaperTrace trace;
  PaperTrace* tracep = options.traced ? &trace : nullptr;

  // The streams: generated, validated and given their batch references
  // (for pair-F1) once; the traced run also times Greedy on them (the
  // reference method).
  Timer run;
  struct Prepared {
    ExperimentConfig config;
    std::unique_ptr<ExperimentHarness> harness;
    size_t alive = 0;
  };
  std::vector<Prepared> panel;
  std::vector<double> greedy_ms;
  for (size_t s = 0; s < kStreams; ++s) {
    Prepared p;
    p.config = PaperConfig(DeriveSeed(options.seed, s));
    p.harness = std::make_unique<ExperimentHarness>(p.config);
    const StreamCheck check = ValidateStream(p.harness->stream());
    if (!check.ok) {
      result.Fail("paper-kmeans stream " + std::to_string(s) + ": " +
                  check.error);
      return result;
    }
    p.alive = check.alive_after.back();
    p.harness->RunBatch();
    if (options.traced) {
      Series greedy = p.harness->RunGreedy();
      for (size_t i = kTrainingRounds; i < greedy.points.size(); ++i) {
        greedy_ms.push_back(greedy.points[i].latency_ms);
      }
    }
    panel.push_back(std::move(p));
  }

  // Timed passes over the whole panel, repeated until the run's time
  // (preparation included) is used, at least kMinPasses. Every pass computes exactly the same
  // rounds; a round's latency is its fastest pass, which keeps
  // interference from other processes on the machine out of the figure.
  // Passes are stream-major within a pass, so the repetitions of one
  // round are a whole pass apart.
  std::vector<double> setup_s, round_ms, apply_ms, f1s;
  double round_ms_all = 0.0;
  size_t rounds_all = 0, round_ops = 0;
  std::string digests;
  size_t passes = 0;
  for (;; ++passes) {
    if (options.fixed_passes > 0) {
      if (passes >= options.fixed_passes) break;
    } else if (passes >= kMinPasses && run.ElapsedSeconds() >= options.seconds) {
      break;
    }
    size_t round = 0, apply = 0;
    std::string pass_digests;
    for (size_t s = 0; s < panel.size(); ++s) {
      const Prepared& p = panel[s];
      StreamOutcome out = RunStream(*p.harness, p.config,
                                    /*score=*/passes == 0, tracep);
      setup_s.push_back(out.setup_s);
      for (double ms : out.round_ms) {
        if (passes == 0) round_ms.push_back(ms);
        round_ms[round] = std::min(round_ms[round], ms);
        ++round;
        round_ms_all += ms;
        ++rounds_all;
      }
      for (double ms : out.apply_ms) {
        if (passes == 0) apply_ms.push_back(ms);
        apply_ms[apply] = std::min(apply_ms[apply], ms);
        ++apply;
      }
      pass_digests += std::to_string(out.digest) + ";";
      if (out.alive != p.alive) {
        result.Fail("paper-kmeans stream " + std::to_string(s) +
                    ": alive objects " + std::to_string(out.alive) +
                    " != stream's " + std::to_string(p.alive));
      }
      if (passes > 0) continue;
      round_ops += out.round_ops;
      f1s.insert(f1s.end(), out.f1.begin(), out.f1.end());
      if (s == 0 && !options.traced) {
        // The wiring must be the harness's: its own DynamicC run on the
        // same stream reaches the same per-snapshot quality.
        Series reference = p.harness->RunDynamicC(/*greedy_set=*/false);
        std::vector<double> expected;
        for (size_t i = kTrainingRounds; i < reference.points.size(); ++i) {
          expected.push_back(reference.points[i].quality.f1);
        }
        if (expected != out.f1) {
          result.Fail("paper-kmeans: session wiring diverges from "
                      "ExperimentHarness::RunDynamicC on stream 0");
        }
      }
    }
    if (passes == 0) {
      digests = pass_digests;
    } else if (pass_digests != digests) {
      result.Fail("paper-kmeans: pass " + std::to_string(passes) +
                  " computed a different clustering than pass 0");
    }
  }
  result.passes = passes;
  result.params["streams"] = std::to_string(kStreams);
  result.params["passes"] = std::to_string(passes);
  result.state_digest = digests;
  double round_ms_sum = 0.0;
  for (double ms : round_ms) round_ms_sum += ms;
  double f1_sum = 0.0;
  for (double f : f1s) f1_sum += f;
  const size_t f1_n = f1s.size();

  const LatencySummary rounds = Summarize(round_ms, /*tail_p_cap=*/90.0);
  const LatencySummary applies = Summarize(apply_ms);
  const LatencySummary greedy = Summarize(greedy_ms);
  const double f1 = Mean(f1_sum, f1_n);
  const double ops_per_s =
      round_ms_sum > 0 ? static_cast<double>(round_ops) / (round_ms_sum / 1e3)
                       : 0.0;
  result.attempted = rounds_all;
  result.failed = 0;
  result.headline = rounds.p50;
  if (rounds.tail_p < 90.0) {
    result.Fail("paper-kmeans: " + std::to_string(rounds.n) +
                " rounds cannot support a p90");
  }
  // Mean pair-F1 of DynamicC against the batch reference on these
  // streams sits at 0.49-0.52 across seeds (Release, 4 cores).
  constexpr double kF1Floor = 0.40;
  if (!(f1 >= kF1Floor)) {
    result.Fail("paper-kmeans: mean pair-F1 " + std::to_string(f1) +
                " below the floor " + std::to_string(kF1Floor));
  }

  result.e2e["setup_s"] = MedianIqr(setup_s).median;
  result.e2e["p50_ms"] = rounds.p50;
  result.e2e["tail_ms"] = rounds.tail;
  result.e2e["write_p50_ms"] = applies.p50;
  result.e2e["throughput_per_s"] = ops_per_s;
  result.e2e["f1"] = f1;

  result.Name("recluster_p50_ms", rounds.p50, "ms", rounds.n);
  result.Name("recluster_p" + std::to_string(static_cast<int>(rounds.tail_p)) +
                  "_ms",
              rounds.tail, "ms", rounds.n);
  result.Name("f1", f1, "pair-F1", f1_n);
  result.Name("apply_p50_ms", applies.p50, "ms", applies.n);
  result.Name("recluster_ops_per_s", ops_per_s, "1/s", round_ops);
  if (options.traced) {
    result.Name("greedy_p50_ms (reference)", greedy.p50, "ms", greedy.n);
  }
  result.Name("setup_s (median of stream set-ups)", result.e2e["setup_s"], "s",
              setup_s.size());

  if (options.traced) {
    // Layer totals cover every pass, so they are per executed round.
    const double n = static_cast<double>(std::max<size_t>(1, rounds_all));
    const ReclusterReport& d = trace.detail;
    const uint64_t predict_calls = trace.predict.calls.load();
    const double predict_ms = trace.predict.ms();
    const double per_round_ms = round_ms_all / n;
    const double recluster = trace.recluster_ms / n;
    const double retrain = trace.retrain_ms / n;
    const double repair = trace.repair_ms / n;
    const double validate = trace.validate.ms() / n;
    const double predict = predict_ms / n;
    const double features = recluster - validate - predict;
    auto& L = result.layers;
    L["core.recluster_ms"] = recluster;
    L["core.retrain_ms"] = retrain;
    L["cluster.repair_ms"] = repair;
    L["objective.validate_ms"] = validate;
    L["objective.validate_calls"] =
        static_cast<double>(trace.validate.calls.load()) / n;
    L["ml.predict_ms"] = predict;
    L["ml.predict_calls"] = static_cast<double>(predict_calls) / n;
    L["core.features_ms"] = features;
    L["core.iterations"] = static_cast<double>(d.iterations) / n;
    L["core.merge_predicted"] = static_cast<double>(d.merge_predicted) / n;
    L["core.merge_applied"] = static_cast<double>(d.merges_applied) / n;
    L["core.split_predicted"] = static_cast<double>(d.split_predicted) / n;
    L["core.split_applied"] = static_cast<double>(d.splits_applied) / n;
    L["core.rejected"] = static_cast<double>(d.rejected) / n;
    const size_t predicted = d.merge_predicted + d.split_predicted;
    L["core.precision"] =
        predicted > 0 ? static_cast<double>(d.merges_applied +
                                            d.splits_applied) /
                            static_cast<double>(predicted)
                      : 0.0;
    L["data.apply_ms"] = trace.apply_ms / n;
    L["data.sim_ms"] = trace.sim.ms() / n;
    L["data.sim_pairs"] = static_cast<double>(trace.sim.units.load()) / n;
    L["batch.observe_ms"] = Mean(trace.observe.ms(), kStreams * passes);
    L["baseline.greedy_p50_ms"] = greedy.p50;
    if (predict_calls != d.probability_evaluations) {
      result.Fail("paper-kmeans: decorated predict calls " +
                  std::to_string(predict_calls) +
                  " != ReclusterReport.probability_evaluations " +
                  std::to_string(d.probability_evaluations));
    }
    result.layer_sum_unit = "per dynamic round";
    result.layer_sum_total_ms = per_round_ms;
    result.layer_sum = {{"objective.validate_ms", validate},
                        {"ml.predict_ms", predict},
                        {"core.features_ms (recluster residual)", features},
                        {"core.retrain_ms", retrain},
                        {"cluster.repair_ms", repair}};
  }
  return result;
}

}  // namespace dcbench
