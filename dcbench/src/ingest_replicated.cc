// ingest-replicated: a 4-shard async primary with read serving and a
// ReplicationSession delta log (with periodic base compaction), fed a
// stationary music-like churn stream. Every batch follows the
// replicated-primary protocol of `dynamicc_cli --replicate-to`:
// Ingest -> Flush() -> SealEpoch(). The per-epoch barrier makes the
// state a function of the stream, so a Follower replaying the log must
// reproduce the primary's partition exactly.
//
// Phase A is open loop at fixed absolute batch rates; a batch's
// freshness runs from its due time until a published ReadView carries
// an epoch >= the batch's epoch. Phase B replays a fixed number of
// batches back to back and gives the sustained records/sec. Three trials
// replay the same batches from a fresh set-up each.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "churn.h"
#include "decorators.h"
#include "estimators.h"
#include "eval/report.h"
#include "replication/follower.h"
#include "replication/replication_session.h"
#include "service/query_api.h"
#include "service_env.h"
#include "util/timer.h"
#include "workloads.h"

namespace dcbench {
namespace {

using namespace dynamicc;
using Clock = std::chrono::steady_clock;

constexpr uint32_t kShards = 4;
constexpr size_t kInitial = 2000;
constexpr double kChurn = 0.01;    // adds == removes per batch
constexpr double kUpdate = 0.005;  // updates per batch
constexpr int kTrainingBatches = 2;
constexpr uint32_t kCompactEvery = 20;  // base snapshot every K epochs
constexpr int kTrials = 4;
// Phase A: open loop at each fixed rate (batches/s), each for
// kRateShare of the run's seconds. Phase B: kPhaseBBatchesPerSecond
// batches per second of the run, back to back.
constexpr double kRates[] = {16.0, 32.0};
constexpr double kRateShare = 0.08;
constexpr double kPhaseBBatchesPerSecond = 4.0;
const char* const kRegistryHistograms[] = {"queue.wait_ms", "drain.apply_ms",
                                           "worker.round_ms", "snapshot.save_ms",
                                           "read.publish_ms"};
// The single-shard baseline replays at most this many batches.
constexpr size_t kOneShardBatches = 24;

/// A trained, replicating primary: initial load, round-0 observation,
/// the training batches, the serving transition, and the base snapshot.
struct Primary {
  std::unique_ptr<ShardedDynamicCService> service;
  std::unique_ptr<ReplicationSession> repl;
  std::string dir;
};

Status SetUp(const WorkloadStream& stream, uint32_t shards,
             obs::MetricsRegistry* metrics, ServiceTrace* trace,
             const std::string& dir, Primary* primary) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  primary->dir = dir;
  primary->service = std::make_unique<ShardedDynamicCService>(
      ServiceOptions(shards, metrics), nullptr, MusicShardFactory(trace));
  ShardedDynamicCService& service = *primary->service;
  service.ApplyOperations(stream.initial);
  service.ObserveBatchRound({});
  for (int i = 0; i < kTrainingBatches; ++i) {
    auto changed = service.ApplyOperations(stream.snapshots[i]);
    service.ObserveBatchRound(changed);
  }
  service.Flush();
  ReplicationSession::Options repl_options;
  repl_options.snapshot_every = kCompactEvery;
  primary->repl =
      std::make_unique<ReplicationSession>(&service, dir, repl_options);
  return primary->repl->Start();
}

/// One batch through the replicated-primary protocol; returns its epoch.
struct BatchTiming {
  double admit_ms = 0.0;
  double barrier_ms = 0.0;
  double seal_ms = 0.0;
};

uint64_t ReplicateBatch(Primary* primary, const OperationBatch& batch,
                        bool* accepted, BatchTiming* timing) {
  Timer t;
  *accepted = primary->service->Ingest(batch).accepted;
  timing->admit_ms += t.ElapsedMillis();
  t.Reset();
  primary->service->Flush();
  timing->barrier_ms += t.ElapsedMillis();
  t.Reset();
  const uint64_t epoch = primary->repl->SealEpoch();
  timing->seal_ms += t.ElapsedMillis();
  return epoch;
}

/// Spins until the primary's published view reaches `epoch`; false if
/// it has not after kVisibleTimeout.
constexpr std::chrono::seconds kVisibleTimeout{10};
bool WaitVisible(const QueryClient& reader, uint64_t epoch) {
  const Clock::time_point give_up = Clock::now() + kVisibleTimeout;
  while (reader.view_epoch() < epoch) {
    if (Clock::now() > give_up) return false;
    std::this_thread::yield();
  }
  return true;
}

double RecordsPerSecond(size_t ops, double ms) {
  return ms > 0 ? static_cast<double>(ops) / (ms / 1e3) : 0.0;
}

}  // namespace

WorkloadResult RunIngestReplicated(const RunOptions& options) {
  WorkloadResult result;
  result.headline_higher_is_better = true;
  // Phase lengths scale with the run's seconds; within a run every
  // trial processes exactly the same batches.
  const double seconds_per_rate = options.seconds * kRateShare;
  std::vector<size_t> per_rate;
  size_t phase_a = 0;
  for (double rate : kRates) {
    per_rate.push_back(static_cast<size_t>(rate * seconds_per_rate));
    phase_a += per_rate.back();
  }
  const size_t phase_b =
      static_cast<size_t>(options.seconds * kPhaseBBatchesPerSecond);
  result.params = {{"stream", "music-like stationary churn"},
                   {"initial", std::to_string(kInitial)},
                   {"churn", std::to_string(kChurn)},
                   {"update", std::to_string(kUpdate)},
                   {"shards", std::to_string(kShards)},
                   {"compact_every", std::to_string(kCompactEvery)},
                   {"trials", std::to_string(kTrials)},
                   {"rates_per_s", "16,32"},
                   {"phase_a_batches", std::to_string(phase_a)},
                   {"phase_b_batches", std::to_string(phase_b)}};
  ChurnSpec spec;
  spec.initial = kInitial;
  spec.churn = kChurn;
  spec.update = kUpdate;
  spec.seed = DeriveSeed(options.seed, 0);
  spec.batches = kTrainingBatches + phase_a + phase_b;
  const WorkloadStream stream = StationaryMusicStream(spec);
  const StreamCheck check = ValidateStream(stream);
  if (!check.ok) {
    result.Fail("ingest-replicated stream: " + check.error);
    return result;
  }

  obs::MetricsRegistry registry;
  ServiceTrace trace;
  obs::MetricsRegistry* metrics = options.traced ? &registry : nullptr;
  ServiceTrace* tracep = options.traced ? &trace : nullptr;

  // Trials: each builds the primary from scratch (the repeated set-up)
  // and replays the same batches. The state after every batch is a
  // function of the stream, so a batch's figures in different trials
  // are repeated measurements of one piece of work; the fastest is kept,
  // which keeps interference from other processes out of the figures.
  std::vector<double> setup_s, fresh_ms(phase_a, 1e300),
      batch_ms(phase_b, 1e300), late_ms, trial_rps;
  uint64_t attempted = 0, failed = 0;
  BatchTiming timing;
  ReclusterReport detail;
  uint64_t accepted_ops = 0, coalesced_ops = 0, deltas = 0, delta_bytes = 0;
  double seal_ms = 0.0, ship_ms = 0.0, batch_observe_ms = 0.0;
  std::string digests;
  // Traced: registry histograms and decorator totals of the measured
  // phases only (set-up excluded), summed over the trials.
  std::map<std::string, HistogramTotals> measured;
  LayerStat sim, validate;
  Primary primary;
  for (int trial = 0; trial < kTrials; ++trial) {
    primary.repl.reset();  // detach before the service it observes dies
    primary.service.reset();
    trace.batch.Reset();
    Timer setup;
    Status status = SetUp(stream, kShards, metrics, tracep,
                          options.work_dir + "/repl", &primary);
    setup_s.push_back(setup.ElapsedSeconds());
    if (!status.ok()) {
      result.Fail("ingest-replicated set-up: " + status.ToString());
      return result;
    }
    batch_observe_ms += trace.batch.ms();
    const ServiceSnapshot snap_before = primary.service->Snapshot();
    const obs::MetricsSnapshot registry_before = registry.Snapshot();
    trace.sim.Reset();
    trace.validate.Reset();
    QueryClient reader(primary.service.get());
    size_t next = kTrainingBatches;

    // Phase A: open loop at each fixed rate.
    size_t sample = 0;
    for (size_t r = 0; r < std::size(kRates); ++r) {
      OpenLoopSchedule schedule(Clock::now(), kRates[r]);
      for (size_t i = 0; i < per_rate[r]; ++i, ++next, ++sample) {
        schedule.WaitFor(i);
        late_ms.push_back(schedule.MsSinceDue(i, Clock::now()));
        bool accepted = false;
        const uint64_t epoch = ReplicateBatch(&primary, stream.snapshots[next],
                                              &accepted, &timing);
        const bool visible = WaitVisible(reader, epoch);
        fresh_ms[sample] =
            std::min(fresh_ms[sample], schedule.MsSinceDue(i, Clock::now()));
        ++attempted;
        if (!accepted || !visible) ++failed;
      }
    }

    // Phase B: closed loop, back to back.
    size_t phase_b_ops = 0;
    Timer phase_b_timer;
    for (size_t i = 0; i < phase_b; ++i, ++next) {
      Timer one;
      bool accepted = false;
      ReplicateBatch(&primary, stream.snapshots[next], &accepted, &timing);
      batch_ms[i] = std::min(batch_ms[i], one.ElapsedMillis());
      phase_b_ops += stream.snapshots[next].size();
      ++attempted;
      if (!accepted) ++failed;
    }
    trial_rps.push_back(
        RecordsPerSecond(phase_b_ops, phase_b_timer.ElapsedMillis()));
    if (!primary.repl->status().ok()) {
      result.Fail("ingest-replicated replication: " +
                  primary.repl->status().ToString());
      ++failed;
    }

    const ServiceSnapshot snap = primary.service->Snapshot();
    const ReclusterReport& d = snap.report.combined;
    const ReclusterReport& d0 = snap_before.report.combined;
    detail.iterations += d.iterations - d0.iterations;
    detail.merge_predicted += d.merge_predicted - d0.merge_predicted;
    detail.merges_applied += d.merges_applied - d0.merges_applied;
    detail.split_predicted += d.split_predicted - d0.split_predicted;
    detail.splits_applied += d.splits_applied - d0.splits_applied;
    detail.rejected += d.rejected - d0.rejected;
    detail.probability_evaluations +=
        d.probability_evaluations - d0.probability_evaluations;
    accepted_ops +=
        snap.report.ingest.accepted_ops - snap_before.report.ingest.accepted_ops;
    coalesced_ops += snap.report.ingest.coalesced_ops -
                     snap_before.report.ingest.coalesced_ops;
    deltas += primary.repl->deltas_shipped();
    delta_bytes += primary.repl->delta_bytes_total();
    seal_ms += primary.repl->seal_ms_total();
    ship_ms += primary.repl->delta_ship_ms_total();
    if (options.traced) {
      const obs::MetricsSnapshot registry_after = registry.Snapshot();
      for (const char* name : kRegistryHistograms) {
        const HistogramTotals a = ReadHistogram(registry_after, name);
        const HistogramTotals b = ReadHistogram(registry_before, name);
        measured[name].count += a.count - b.count;
        measured[name].sum += a.sum - b.sum;
      }
      sim.ns += trace.sim.ns.load();
      sim.units += trace.sim.units.load();
      validate.ns += trace.validate.ns.load();
      validate.calls += trace.validate.calls.load();
    }
    const std::string digest =
        std::to_string(PartitionDigest(primary.service->GlobalClusters()));
    if (trial == 0) {
      digests = digest;
    } else if (digest != digests) {
      result.Fail("ingest-replicated: trial " + std::to_string(trial) +
                  " ended in a different partition than trial 0");
    }
  }

  // Correctness: live count, follower identity, quality vs truth.
  const std::vector<std::vector<ObjectId>> clusters =
      primary.service->GlobalClusters();
  if (primary.service->total_objects() != check.alive_after.back()) {
    result.Fail("ingest-replicated: primary holds " +
                std::to_string(primary.service->total_objects()) +
                " objects, the stream leaves " +
                std::to_string(check.alive_after.back()));
  }
  {
    Follower follower(primary.dir, ServiceOptions(kShards, nullptr),
                      MusicShardFactory(nullptr));
    Status status = follower.Restore();
    if (status.ok()) status = follower.CatchUp();
    if (!status.ok()) {
      result.Fail("ingest-replicated follower: " + status.ToString());
    } else if (follower.service().GlobalClusters() != clusters) {
      result.Fail("ingest-replicated: follower partition differs from the "
                  "primary's");
    }
  }
  const double f1 = EvaluateQuality(clusters, TruthClusters(check)).f1;
  const LatencySummary fresh = Summarize(fresh_ms, /*tail_p_cap=*/90.0);
  const LatencySummary per_batch = Summarize(batch_ms);
  const double rps = MedianIqr(trial_rps).median;
  result.attempted = attempted;
  result.failed = failed;
  result.headline = rps;
  result.state_digest = digests;
  result.e2e["setup_s"] = MedianIqr(setup_s).median;
  result.e2e["p50_ms"] = fresh.p50;
  result.e2e["tail_ms"] = fresh.tail;
  result.e2e["write_p50_ms"] = per_batch.p50;
  result.e2e["throughput_per_s"] = rps;
  result.e2e["f1"] = f1;
  result.Name("ingest_rps (phase B, median of trials)", rps, "1/s",
              trial_rps.size());
  result.Name("fresh_p50_ms", fresh.p50, "ms", fresh.n);
  result.Name("fresh_p" + std::to_string(static_cast<int>(fresh.tail_p)) +
                  "_ms",
              fresh.tail, "ms", fresh.n);
  result.Name("batch_p50_ms (phase B)", per_batch.p50, "ms", per_batch.n);
  result.Name("f1 vs truth (final)", f1, "pair-F1");
  result.Name("setup_s (median of set-ups)", result.e2e["setup_s"], "s",
              setup_s.size());

  if (options.traced) {
    const double n = static_cast<double>(
        std::max<uint64_t>(1, static_cast<uint64_t>(kTrials) *
                                  (phase_a + phase_b)));
    const ReclusterReport& d = detail;
    auto& L = result.layers;
    L["service.admit_ms"] = timing.admit_ms / n;
    L["service.queue_wait_ms"] = measured["queue.wait_ms"].mean();
    L["service.drain_apply_ms"] = measured["drain.apply_ms"].mean();
    L["service.worker_round_ms"] = measured["worker.round_ms"].mean();
    L["service.barrier_ms"] = timing.barrier_ms / n;
    L["service.seal_ms"] = deltas > 0 ? seal_ms / deltas : 0.0;
    L["replication.ship_ms"] = deltas > 0 ? ship_ms / deltas : 0.0;
    L["replication.delta_bytes_per_op"] =
        accepted_ops > 0 ? static_cast<double>(delta_bytes) /
                               static_cast<double>(accepted_ops)
                         : 0.0;
    L["replication.base_snapshot_ms"] = measured["snapshot.save_ms"].mean();
    L["service.publish_ms"] = measured["read.publish_ms"].mean();
    L["service.coalesced_frac"] =
        accepted_ops > 0 ? static_cast<double>(coalesced_ops) /
                               static_cast<double>(accepted_ops)
                         : 0.0;
    L["data.sim_ms"] = sim.ms() / n;
    L["data.sim_pairs"] = static_cast<double>(sim.units.load()) / n;
    L["objective.validate_ms"] = validate.ms() / n;
    L["objective.validate_calls"] =
        static_cast<double>(validate.calls.load()) / n;
    L["ml.predict_calls"] = static_cast<double>(d.probability_evaluations) / n;
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
    L["batch.observe_ms"] = batch_observe_ms / kTrials;
    L["gen.late_p99_ms"] = Percentile(late_ms, 99.0);

    // The same job on one shard over a bounded prefix.
    {
      Primary one;
      Status status = SetUp(stream, 1, nullptr, nullptr,
                            options.work_dir + "/repl-1shard", &one);
      if (!status.ok()) {
        result.Fail("ingest-replicated 1-shard set-up: " + status.ToString());
      } else {
        BatchTiming ignored;
        size_t ops = 0;
        Timer t;
        for (size_t i = 0; i < kOneShardBatches; ++i) {
          const OperationBatch& batch = stream.snapshots[kTrainingBatches + i];
          bool accepted = false;
          ReplicateBatch(&one, batch, &accepted, &ignored);
          ops += batch.size();
        }
        L["service.rps_1shard"] = RecordsPerSecond(ops, t.ElapsedMillis());
      }
    }

    const double per_batch_ms =
        (timing.admit_ms + timing.barrier_ms + timing.seal_ms) / n;
    result.layer_sum_unit = "per replicated batch, phases A+B";
    result.layer_sum_total_ms = per_batch_ms;
    result.layer_sum = {
        {"service.admit_ms (Ingest)", timing.admit_ms / n},
        {"service.barrier_ms (Flush)", timing.barrier_ms / n},
        {"service.seal_ms (CloseEpoch)", L["service.seal_ms"]},
        {"replication.ship_ms (delta write)", L["replication.ship_ms"]}};
    result.Name("barrier share of a batch",
                per_batch_ms > 0 ? timing.barrier_ms / n / per_batch_ms : 0.0,
                "ratio");
  }
  std::error_code ec;
  std::filesystem::remove_all(primary.dir, ec);
  return result;
}

}  // namespace dcbench
