// Timing decorators for the traced run: each wraps one of the library's
// extension interfaces, forwards every virtual to the wrapped object
// unchanged, and charges the wall time and call count of the forwarded
// calls to a LayerStat. The library is only ever a caller-side target
// here — nothing inside src/ is instrumented — and a decorated pipeline
// must compute exactly what the undecorated one does (the traced run
// checks its clustering against the untraced run's).
#ifndef DCBENCH_DECORATORS_H_
#define DCBENCH_DECORATORS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <vector>

#include "batch/batch_algorithm.h"
#include "data/similarity.h"
#include "ml/model.h"
#include "objective/objective.h"

namespace dcbench {

using SteadyClock = std::chrono::steady_clock;

/// Busy time, calls and work units of one layer. Atomic because service
/// shards call their decorated environments from worker threads.
struct LayerStat {
  std::atomic<uint64_t> ns{0};
  std::atomic<uint64_t> calls{0};
  std::atomic<uint64_t> units{0};

  void Add(SteadyClock::duration elapsed, uint64_t work_units = 0) {
    ns.fetch_add(static_cast<uint64_t>(
                     std::chrono::duration_cast<std::chrono::nanoseconds>(
                         elapsed)
                         .count()),
                 std::memory_order_relaxed);
    calls.fetch_add(1, std::memory_order_relaxed);
    units.fetch_add(work_units, std::memory_order_relaxed);
  }
  double ms() const { return static_cast<double>(ns.load()) / 1e6; }
  void Reset() {
    ns.store(0);
    calls.store(0);
    units.store(0);
  }
};

/// Optional second sink for similarity work done on the current thread
/// (lets a caller attribute scoring to its own queries while other
/// threads score through the same measure).
inline thread_local LayerStat* tl_similarity_sink = nullptr;

class TimedMeasure final : public dynamicc::SimilarityMeasure {
 public:
  TimedMeasure(std::unique_ptr<dynamicc::SimilarityMeasure> inner,
               LayerStat* stat)
      : inner_(std::move(inner)), stat_(stat) {}

  double Similarity(const dynamicc::Record& a,
                    const dynamicc::Record& b) const override {
    const auto start = SteadyClock::now();
    const double s = inner_->Similarity(a, b);
    Charge(SteadyClock::now() - start, 1);
    return s;
  }
  size_t SimilarityBatch(const dynamicc::Record& probe,
                         const dynamicc::RecordFeatures* probe_features,
                         const dynamicc::SimCandidate* candidates,
                         size_t count, double min_similarity,
                         double* out) const override {
    const auto start = SteadyClock::now();
    const size_t evaluated = inner_->SimilarityBatch(
        probe, probe_features, candidates, count, min_similarity, out);
    Charge(SteadyClock::now() - start, count);
    return evaluated;
  }
  uint32_t FeatureNeeds() const override { return inner_->FeatureNeeds(); }
  const char* Name() const override { return inner_->Name(); }

 private:
  void Charge(SteadyClock::duration elapsed, uint64_t pairs) const {
    stat_->Add(elapsed, pairs);
    if (tl_similarity_sink != nullptr) tl_similarity_sink->Add(elapsed, pairs);
  }

  std::unique_ptr<dynamicc::SimilarityMeasure> inner_;
  LayerStat* stat_;
};

class TimedValidator final : public dynamicc::ChangeValidator {
 public:
  TimedValidator(std::unique_ptr<dynamicc::ChangeValidator> inner,
                 LayerStat* stat)
      : inner_(std::move(inner)), stat_(stat) {}

  bool MergeImproves(const dynamicc::ClusteringEngine& engine,
                     dynamicc::ClusterId a,
                     dynamicc::ClusterId b) const override {
    const auto start = SteadyClock::now();
    const bool ok = inner_->MergeImproves(engine, a, b);
    stat_->Add(SteadyClock::now() - start);
    return ok;
  }
  bool SplitImproves(const dynamicc::ClusteringEngine& engine,
                     dynamicc::ClusterId cluster,
                     const std::vector<dynamicc::ObjectId>& part)
      const override {
    const auto start = SteadyClock::now();
    const bool ok = inner_->SplitImproves(engine, cluster, part);
    stat_->Add(SteadyClock::now() - start);
    return ok;
  }
  bool MoveImproves(const dynamicc::ClusteringEngine& engine,
                    dynamicc::ObjectId object,
                    dynamicc::ClusterId to) const override {
    const auto start = SteadyClock::now();
    const bool ok = inner_->MoveImproves(engine, object, to);
    stat_->Add(SteadyClock::now() - start);
    return ok;
  }

 private:
  std::unique_ptr<dynamicc::ChangeValidator> inner_;
  LayerStat* stat_;
};

/// Charges only Recluster's predictions: the calls before the model's
/// first Fit of a round (what ReclusterReport counts as
/// probability_evaluations). Calls after it are the retrain's threshold
/// fitting, part of the retrain time. BeginRound() resets the phase.
class TimedClassifier final : public dynamicc::BinaryClassifier {
 public:
  TimedClassifier(std::unique_ptr<dynamicc::BinaryClassifier> inner,
                  LayerStat* predict)
      : inner_(std::move(inner)), predict_(predict) {}

  void BeginRound() { fitted_this_round_ = false; }

  const char* Name() const override { return inner_->Name(); }
  void Fit(const dynamicc::SampleSet& samples) override {
    inner_->Fit(samples);
    fitted_this_round_ = true;
  }
  double PredictProbability(
      const std::vector<double>& features) const override {
    if (fitted_this_round_) return inner_->PredictProbability(features);
    const auto start = SteadyClock::now();
    const double p = inner_->PredictProbability(features);
    predict_->Add(SteadyClock::now() - start);
    return p;
  }
  bool is_fitted() const override { return inner_->is_fitted(); }
  std::unique_ptr<dynamicc::BinaryClassifier> Clone() const override {
    return std::make_unique<TimedClassifier>(inner_->Clone(), predict_);
  }

 private:
  std::unique_ptr<dynamicc::BinaryClassifier> inner_;
  LayerStat* predict_;
  bool fitted_this_round_ = false;
};

class TimedBatch final : public dynamicc::BatchAlgorithm {
 public:
  TimedBatch(std::unique_ptr<dynamicc::BatchAlgorithm> inner,
             LayerStat* stat)
      : inner_(std::move(inner)), stat_(stat) {}

  const char* Name() const override { return inner_->Name(); }
  using dynamicc::BatchAlgorithm::Run;
  void Run(dynamicc::ClusteringEngine* engine,
           dynamicc::EvolutionObserver* observer) override {
    const auto start = SteadyClock::now();
    inner_->Run(engine, observer);
    stat_->Add(SteadyClock::now() - start);
  }

 private:
  std::unique_ptr<dynamicc::BatchAlgorithm> inner_;
  LayerStat* stat_;
};

}  // namespace dcbench

#endif  // DCBENCH_DECORATORS_H_
