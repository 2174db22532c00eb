// serve-tcp: a read-serving async primary behind net::ServerFrontEnd on
// localhost. Phase A is open loop from one process: two NetClient
// connections send ClusterOf/KNearest queries at a fixed rate each and
// a third sends Ingest RPCs (batches of a stationary churn stream) at a
// low fixed rate, while an operator loop seals epochs with
// Flush(CloseEpoch()) so views keep publishing. Every request is timed
// from its scheduled send time. Phase B is closed-loop query saturation
// over one connection. After a final seal, sampled answers
// over TCP are compared with in-process QueryClient answers at the
// same epoch. Three trials, each from a fresh set-up, run the same
// schedule; every figure is the median over the trials.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "churn.h"
#include "decorators.h"
#include "estimators.h"
#include "eval/report.h"
#include "net/client.h"
#include "net/front_end.h"
#include "service/query_api.h"
#include "service_env.h"
#include "util/timer.h"
#include "workloads.h"

namespace dcbench {
namespace {

using namespace dynamicc;
using Clock = std::chrono::steady_clock;

constexpr uint32_t kShards = 2;
constexpr size_t kInitial = 2000;
constexpr double kChurn = 0.005;   // ~10 adds + 10 removes per Ingest RPC
constexpr double kUpdate = 0.0025;
constexpr int kTrainingBatches = 2;
constexpr int kTrials = 3;
constexpr int kQueryClients = 2;
// One closed-loop connection: more clients only queue behind the
// server's single event loop and add scheduler noise to the figure.
constexpr int kClosedLoopClients = 1;
constexpr double kQueryRatePerClient = 200.0;  // queries/s per connection
constexpr double kIngestRate = 10.0;           // Ingest RPCs/s
constexpr double kPhaseAShare = 0.6;           // of a trial's seconds
constexpr int kSealEveryMs = 50;
constexpr uint64_t kK = 3;                     // KNearest's k
constexpr size_t kSampledAnswers = 64;         // per query type
constexpr size_t kInprocQueries = 2000;        // per query type (traced)
// The tail the end-to-end figure gates on. p99 is printed too, but on a
// shared 4-core machine it moves by half its value from run to run.
constexpr double kGatedTailP = 95.0;

enum QueryType { kClusterOf = 0, kKNearest = 1, kIngest = 2, kTypes = 3 };
const char* const kTypeNames[kTypes] = {"ClusterOf", "KNearest", "Ingest"};

struct Server {
  std::unique_ptr<ShardedDynamicCService> service;
  std::unique_ptr<net::ServerFrontEnd> front_end;
  ~Server() {
    if (front_end != nullptr) front_end->Stop();
  }
};

Status SetUp(const WorkloadStream& stream, obs::MetricsRegistry* metrics,
             ServiceTrace* trace, Server* server) {
  server->service = std::make_unique<ShardedDynamicCService>(
      ServiceOptions(kShards, metrics), nullptr, MusicShardFactory(trace));
  ShardedDynamicCService& service = *server->service;
  service.ApplyOperations(stream.initial);
  service.ObserveBatchRound({});
  for (int i = 0; i < kTrainingBatches; ++i) {
    auto changed = service.ApplyOperations(stream.snapshots[i]);
    service.ObserveBatchRound(changed);
  }
  service.Flush();
  service.Flush(service.CloseEpoch());  // first published view
  net::ServerFrontEnd::Options fe_options;
  fe_options.metrics = metrics;
  server->front_end =
      std::make_unique<net::ServerFrontEnd>(&service, nullptr, fe_options);
  return server->front_end->Start();
}

/// Per-connection tallies, merged after the threads join.
struct ClientLog {
  std::vector<double> ms[kTypes];
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t stale = 0;
  double lag_epochs_sum = 0.0;
  uint64_t lag_n = 0;
};

enum class Answer { kServed, kRpcError, kUnserved };

/// One query over the wire. `epoch` receives the answer's pinned epoch.
Answer QueryOnce(net::NetClient* client, QueryType type, ObjectId id,
                 const Record& probe, uint64_t* epoch) {
  net::ResultInfoWire info;
  if (type == kClusterOf) {
    net::ClusterOfResponse response;
    if (!client->ClusterOf(id, UINT64_MAX, &response).ok()) {
      return Answer::kRpcError;
    }
    info = response.info;
  } else {
    net::KNearestResponse response;
    if (!client->KNearest(probe, kK, UINT64_MAX, &response).ok()) {
      return Answer::kRpcError;
    }
    info = response.info;
  }
  *epoch = info.epoch;
  return info.served ? Answer::kServed : Answer::kUnserved;
}

struct QueryPicker {
  std::mt19937_64 rng;
  const WorkloadStream* stream;
  // One ClusterOf to three KNearest: with an even mix the median would
  // sit in the gap between the two types' latency modes and jump
  // between them from run to run.
  QueryType type(uint64_t i) const {
    return i % 4 == 0 ? kClusterOf : kKNearest;
  }
  ObjectId id() { return static_cast<ObjectId>(rng() % kInitial); }
  const Record& probe() {
    return stream->initial[rng() % stream->initial.size()].record;
  }
};

void Account(ClientLog* log, QueryType type, Answer answer, double ms,
             uint64_t epoch, uint64_t frontier) {
  ++log->attempted;
  if (answer != Answer::kServed) {
    ++log->failed;
    if (answer == Answer::kUnserved) ++log->stale;
    return;
  }
  log->ms[type].push_back(ms);
  if (frontier >= epoch) {
    log->lag_epochs_sum += static_cast<double>(frontier - epoch);
    ++log->lag_n;
  }
}

double Mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

/// Everything one trial measured.
struct TrialOutcome {
  std::vector<std::string> failures;
  double setup_s = 0.0;
  LatencySummary query;
  double p95 = 0.0;  // the gated tail
  LatencySummary ingest;
  double qps = 0.0;
  uint64_t completed = 0;
  ClientLog totals;
  uint64_t objects = 0;
  size_t clusters = 0;
  double f1 = 0.0;
  // Traced trials only.
  std::vector<double> closed_ms[kTypes];
  std::vector<double> open_ingest_ms;
  std::map<std::string, HistogramTotals> server;  // measured phases
  std::vector<double> loop_lag;
  double inproc_ms[2] = {};
  double knn_pairs = 0.0;
  ServiceTrace trace;
};

const char* const kRegistryHistograms[] = {"ingest.admit_ms", "queue.wait_ms",
                                           "worker.round_ms",
                                           "read.publish_ms"};

/// One trial: set-up, phase A (open loop), phase B (closed loop), a
/// quiescing seal, and the end-of-trial checks.
void RunTrial(const WorkloadStream& stream, const StreamCheck& check,
              const RunOptions& options, double phase_a_s, double phase_b_s,
              size_t ingest_rpcs, TrialOutcome* out) {
  obs::MetricsRegistry registry;
  obs::MetricsRegistry* metrics = options.traced ? &registry : nullptr;
  Server server;
  Timer setup;
  Status status = SetUp(stream, metrics,
                        options.traced ? &out->trace : nullptr, &server);
  out->setup_s = setup.ElapsedSeconds();
  if (!status.ok()) {
    out->failures.push_back("serve-tcp set-up: " + status.ToString());
    return;
  }
  ShardedDynamicCService& service = *server.service;
  const uint16_t port = server.front_end->port();
  const obs::MetricsSnapshot before = registry.Snapshot();
  out->trace.sim.Reset();
  out->trace.validate.Reset();

  std::vector<std::unique_ptr<net::NetClient>> clients;
  for (int c = 0; c < kQueryClients + 1; ++c) {
    net::NetClient::Options client_options;
    client_options.port = port;
    clients.push_back(std::make_unique<net::NetClient>(client_options));
    status = clients.back()->Connect();
    if (!status.ok()) {
      out->failures.push_back("serve-tcp connect: " + status.ToString());
      return;
    }
  }
  auto frontier = [&service] { return service.open_epoch() - 1; };

  // Operator loop: seal an epoch every kSealEveryMs while traffic runs.
  std::atomic<bool> stop_operator{false};
  std::thread operator_thread([&] {
    while (!stop_operator.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(kSealEveryMs));
      service.Flush(service.CloseEpoch());
      if (metrics != nullptr) {
        out->loop_lag.push_back(
            ReadGauge(registry.Snapshot(), "net.loop_lag_ms"));
      }
    }
  });

  // Phase A: open loop.
  std::vector<ClientLog> logs(kQueryClients + 1);
  std::vector<std::thread> threads;
  const Clock::time_point start = Clock::now();
  for (int c = 0; c < kQueryClients; ++c) {
    threads.emplace_back([&, c] {
      QueryPicker pick{std::mt19937_64(DeriveSeed(options.seed, 100 + c)),
                       &stream};
      OpenLoopSchedule schedule(start, kQueryRatePerClient);
      const uint64_t count =
          static_cast<uint64_t>(kQueryRatePerClient * phase_a_s);
      for (uint64_t i = 0; i < count; ++i) {
        schedule.WaitFor(i);
        const QueryType type = pick.type(i);
        uint64_t epoch = 0;
        const Answer answer =
            QueryOnce(clients[c].get(), type, pick.id(), pick.probe(), &epoch);
        Account(&logs[c], type, answer, schedule.MsSinceDue(i, Clock::now()),
                epoch, frontier());
      }
    });
  }
  threads.emplace_back([&] {
    ClientLog& log = logs[kQueryClients];
    OpenLoopSchedule schedule(start, kIngestRate);
    for (size_t i = 0; i < ingest_rpcs; ++i) {
      schedule.WaitFor(i);
      net::IngestResponse response;
      const bool ok =
          clients[kQueryClients]
              ->Ingest(stream.snapshots[kTrainingBatches + i], &response)
              .ok() &&
          response.accepted;
      ++log.attempted;
      if (!ok) {
        ++log.failed;
        continue;
      }
      log.ms[kIngest].push_back(schedule.MsSinceDue(i, Clock::now()));
    }
  });
  for (std::thread& t : threads) t.join();
  threads.clear();

  // Phase B: closed loop over kClosedLoopClients connections.
  std::vector<ClientLog> closed(kClosedLoopClients);
  std::atomic<uint64_t> completed{0};
  Timer phase_b;
  for (int c = 0; c < kClosedLoopClients; ++c) {
    threads.emplace_back([&, c] {
      QueryPicker pick{std::mt19937_64(DeriveSeed(options.seed, 200 + c)),
                       &stream};
      const Clock::time_point end =
          Clock::now() + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(phase_b_s));
      for (uint64_t i = 0; Clock::now() < end; ++i) {
        const QueryType type = pick.type(i);
        uint64_t epoch = 0;
        const Clock::time_point sent = Clock::now();
        const Answer answer =
            QueryOnce(clients[c].get(), type, pick.id(), pick.probe(), &epoch);
        Account(&closed[c], type, answer,
                std::chrono::duration<double, std::milli>(Clock::now() - sent)
                    .count(),
                epoch, frontier());
        if (answer == Answer::kServed) {
          completed.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const double phase_b_ms = phase_b.ElapsedMillis();
  stop_operator.store(true);
  operator_thread.join();
  service.Flush(service.CloseEpoch());  // quiesce: every RPC applied
  const obs::MetricsSnapshot after = registry.Snapshot();

  // Merge the logs.
  std::vector<double> query_ms, ingest_ms;
  for (const std::vector<ClientLog>* set : {&logs, &closed}) {
    for (const ClientLog& log : *set) {
      out->totals.attempted += log.attempted;
      out->totals.failed += log.failed;
      out->totals.stale += log.stale;
      out->totals.lag_epochs_sum += log.lag_epochs_sum;
      out->totals.lag_n += log.lag_n;
    }
  }
  for (const ClientLog& log : logs) {
    query_ms.insert(query_ms.end(), log.ms[kClusterOf].begin(),
                    log.ms[kClusterOf].end());
    query_ms.insert(query_ms.end(), log.ms[kKNearest].begin(),
                    log.ms[kKNearest].end());
    ingest_ms.insert(ingest_ms.end(), log.ms[kIngest].begin(),
                     log.ms[kIngest].end());
  }
  out->query = Summarize(query_ms);
  out->p95 = Percentile(query_ms, kGatedTailP);
  out->ingest = Summarize(ingest_ms);
  out->completed = completed.load();
  out->qps = phase_b_ms > 0 ? static_cast<double>(out->completed) /
                                  (phase_b_ms / 1e3)
                            : 0.0;

  // Correctness: live count, TCP answers == in-process answers at the
  // same epoch, quality vs truth.
  out->objects = service.total_objects();
  if (out->objects != check.alive_after.back()) {
    out->failures.push_back("serve-tcp: primary holds " +
                            std::to_string(out->objects) +
                            " objects, the stream leaves " +
                            std::to_string(check.alive_after.back()));
  }
  QueryClient inproc(&service);
  {
    QueryPicker pick{std::mt19937_64(DeriveSeed(options.seed, 300)), &stream};
    size_t mismatches = 0;
    for (size_t i = 0; i < kSampledAnswers; ++i) {
      const ObjectId id = pick.id();
      net::ClusterOfResponse wire;
      const QueryClient::ClusterOfResult local = inproc.ClusterOfRecord(id);
      if (!clients[0]->ClusterOf(id, UINT64_MAX, &wire).ok() ||
          wire.info.epoch != local.info.epoch ||
          wire.members != std::vector<uint64_t>(local.members.begin(),
                                                local.members.end())) {
        ++mismatches;
      }
      const Record& probe = pick.probe();
      net::KNearestResponse knn;
      const QueryClient::NearestResult near =
          inproc.KNearestClusters(probe, kK);
      bool same = clients[1]->KNearest(probe, kK, UINT64_MAX, &knn).ok() &&
                  knn.info.epoch == near.info.epoch &&
                  knn.hits.size() == near.hits.size();
      for (size_t h = 0; same && h < knn.hits.size(); ++h) {
        same = knn.hits[h].similarity == near.hits[h].similarity &&
               knn.hits[h].members ==
                   std::vector<uint64_t>(near.hits[h].members.begin(),
                                         near.hits[h].members.end());
      }
      if (!same) ++mismatches;
    }
    if (mismatches > 0) {
      out->failures.push_back(
          "serve-tcp: " + std::to_string(mismatches) + " of " +
          std::to_string(2 * kSampledAnswers) +
          " sampled TCP answers differ from in-process answers");
    }
  }
  const std::vector<std::vector<ObjectId>> clusters = service.GlobalClusters();
  out->clusters = clusters.size();
  out->f1 = EvaluateQuality(clusters, TruthClusters(check)).f1;

  if (options.traced) {
    for (const ClientLog& log : closed) {
      for (int t = 0; t < kTypes; ++t) {
        out->closed_ms[t].insert(out->closed_ms[t].end(), log.ms[t].begin(),
                                 log.ms[t].end());
      }
    }
    out->open_ingest_ms = ingest_ms;
    std::vector<std::string> names(std::begin(kRegistryHistograms),
                                   std::end(kRegistryHistograms));
    for (int t = 0; t < kTypes; ++t) {
      const std::string label = std::string("{type=") + kTypeNames[t] + "}";
      names.push_back("net.rpc_ms" + label);
      names.push_back("net.rpc_request_bytes" + label);
      names.push_back("net.rpc_response_bytes" + label);
    }
    for (const std::string& name : names) {
      const HistogramTotals a = ReadHistogram(after, name);
      const HistogramTotals b = ReadHistogram(before, name);
      out->server[name] = {a.count - b.count, a.sum - b.sum};
    }
    // The same queries in process, on this thread, at the final epoch.
    QueryPicker pick{std::mt19937_64(DeriveSeed(options.seed, 400)), &stream};
    LayerStat knn_sim;
    Timer t;
    for (size_t i = 0; i < kInprocQueries; ++i) {
      inproc.ClusterOfRecord(pick.id());
    }
    out->inproc_ms[kClusterOf] = t.ElapsedMillis() / kInprocQueries;
    tl_similarity_sink = &knn_sim;
    t.Reset();
    for (size_t i = 0; i < kInprocQueries; ++i) {
      inproc.KNearestClusters(pick.probe(), kK);
    }
    out->inproc_ms[kKNearest] = t.ElapsedMillis() / kInprocQueries;
    tl_similarity_sink = nullptr;
    out->knn_pairs =
        static_cast<double>(knn_sim.units.load()) / kInprocQueries;
  }
  for (auto& client : clients) client->Close();
}

}  // namespace

WorkloadResult RunServeTcp(const RunOptions& options) {
  WorkloadResult result;
  const double trial_s = options.seconds / kTrials;
  const double phase_a_s = trial_s * kPhaseAShare;
  const double phase_b_s = trial_s - phase_a_s;
  const size_t ingest_rpcs = static_cast<size_t>(kIngestRate * phase_a_s);
  result.params = {{"stream", "music-like stationary churn"},
                   {"initial", std::to_string(kInitial)},
                   {"shards", std::to_string(kShards)},
                   {"trials", std::to_string(kTrials)},
                   {"query_clients", std::to_string(kQueryClients)},
                   {"query_rate_per_client", "200"},
                   {"ingest_rate", "10"},
                   {"seal_every_ms", std::to_string(kSealEveryMs)},
                   {"knearest_k", std::to_string(kK)}};
  ChurnSpec spec;
  spec.initial = kInitial;
  spec.churn = kChurn;
  spec.update = kUpdate;
  spec.seed = DeriveSeed(options.seed, 0);
  spec.batches = kTrainingBatches + ingest_rpcs;
  const WorkloadStream stream = StationaryMusicStream(spec);
  const StreamCheck check = ValidateStream(stream);
  if (!check.ok) {
    result.Fail("serve-tcp stream: " + check.error);
    return result;
  }

  // Trials: each sets the server up from scratch and replays the same
  // schedule; every figure is the median over the trials, so one trial
  // disturbed by other processes on the machine does not move it.
  std::vector<TrialOutcome> trials(kTrials);
  for (TrialOutcome& trial : trials) {
    RunTrial(stream, check, options, phase_a_s, phase_b_s, ingest_rpcs,
             &trial);
    result.failures.insert(result.failures.end(), trial.failures.begin(),
                           trial.failures.end());
    if (!trial.failures.empty()) return result;
    result.attempted += trial.totals.attempted;
    result.failed += trial.totals.failed;
  }
  auto median = [&trials](auto field) {
    std::vector<double> values;
    for (const TrialOutcome& trial : trials) values.push_back(field(trial));
    return MedianIqr(values).median;
  };
  const double setup = median([](const TrialOutcome& t) { return t.setup_s; });
  const double p50 = median([](const TrialOutcome& t) { return t.query.p50; });
  const double p99 =
      median([](const TrialOutcome& t) { return t.query.tail; });
  const double tail = median([](const TrialOutcome& t) { return t.p95; });
  const double ingest_p50 =
      median([](const TrialOutcome& t) { return t.ingest.p50; });
  const double qps = median([](const TrialOutcome& t) { return t.qps; });
  const double f1 = median([](const TrialOutcome& t) { return t.f1; });
  const TrialOutcome& last = trials.back();
  result.headline = p50;
  result.state_digest = "objects=" + std::to_string(last.objects);
  result.e2e["setup_s"] = setup;
  result.e2e["p50_ms"] = p50;
  result.e2e["tail_ms"] = tail;
  result.e2e["write_p50_ms"] = ingest_p50;
  result.e2e["throughput_per_s"] = qps;
  result.e2e["f1"] = f1;
  result.Name("query_p50_ms (median of trials)", p50, "ms", last.query.n);
  result.Name("query_p95_ms (median of trials)", tail, "ms", last.query.n);
  result.Name("query_p" +
                  std::to_string(static_cast<int>(last.query.tail_p)) +
                  "_ms (median of trials)",
              p99, "ms", last.query.n);
  result.Name("ingest_rpc_p50_ms (median of trials)", ingest_p50, "ms",
              last.ingest.n);
  result.Name("query_rps (phase B, closed loop)", qps, "1/s",
              last.completed);
  result.Name("f1 vs truth (final, median of trials)", f1, "pair-F1");
  result.Name("clusters (final, last trial)",
              static_cast<double>(last.clusters), "count");
  result.Name("setup_s (median of set-ups)", setup, "s", trials.size());

  if (options.traced) {
    // Layer figures pool every trial.
    std::map<std::string, HistogramTotals> server;
    std::vector<double> client_ms[kTypes], loop_lag;
    ClientLog totals;
    double inproc_ms[2] = {}, knn_pairs = 0.0;
    LayerStat sim, validate;
    for (const TrialOutcome& trial : trials) {
      for (const auto& [name, h] : trial.server) {
        server[name].count += h.count;
        server[name].sum += h.sum;
      }
      for (int t = 0; t < kTypes; ++t) {
        // Server time per type against the client time of the same
        // requests: closed loop for queries (no schedule lag in the
        // client figure), open loop for Ingest, which only ran there.
        const std::vector<double>& ms =
            t == kIngest ? trial.open_ingest_ms : trial.closed_ms[t];
        client_ms[t].insert(client_ms[t].end(), ms.begin(), ms.end());
      }
      loop_lag.insert(loop_lag.end(), trial.loop_lag.begin(),
                      trial.loop_lag.end());
      totals.attempted += trial.totals.attempted;
      totals.stale += trial.totals.stale;
      totals.lag_epochs_sum += trial.totals.lag_epochs_sum;
      totals.lag_n += trial.totals.lag_n;
      inproc_ms[kClusterOf] += trial.inproc_ms[kClusterOf] / kTrials;
      inproc_ms[kKNearest] += trial.inproc_ms[kKNearest] / kTrials;
      knn_pairs += trial.knn_pairs / kTrials;
      sim.ns += trial.trace.sim.ns.load();
      sim.units += trial.trace.sim.units.load();
      validate.ns += trial.trace.validate.ns.load();
      validate.calls += trial.trace.validate.calls.load();
    }
    auto& L = result.layers;
    double server_ms[kTypes] = {};
    for (int t = 0; t < kTypes; ++t) {
      const std::string label = std::string("{type=") + kTypeNames[t] + "}";
      server_ms[t] = server["net.rpc_ms" + label].mean();
      L[std::string("net.server_rpc_ms.") + kTypeNames[t]] = server_ms[t];
      L[std::string("net.wire_ms.") + kTypeNames[t]] =
          Mean(client_ms[t]) - server_ms[t];
      L[std::string("net.bytes_per_rpc.") + kTypeNames[t]] =
          server["net.rpc_request_bytes" + label].mean() +
          server["net.rpc_response_bytes" + label].mean();
    }
    L["net.loop_lag_ms"] = Mean(loop_lag);
    L["service.admit_ms"] = server["ingest.admit_ms"].mean();
    L["service.queue_wait_ms"] = server["queue.wait_ms"].mean();
    L["service.worker_round_ms"] = server["worker.round_ms"].mean();
    L["service.publish_ms"] = server["read.publish_ms"].mean();
    L["read.view_lag_epochs"] =
        totals.lag_n > 0
            ? totals.lag_epochs_sum / static_cast<double>(totals.lag_n)
            : 0.0;
    L["read.stale_rejects"] = static_cast<double>(totals.stale);
    const double requests =
        static_cast<double>(std::max<uint64_t>(1, totals.attempted));
    L["data.sim_ms"] = sim.ms() / requests;
    L["data.sim_pairs"] = static_cast<double>(sim.units.load()) / requests;
    L["objective.validate_ms"] = validate.ms() / requests;
    L["objective.validate_calls"] =
        static_cast<double>(validate.calls.load()) / requests;
    L["query.inproc_ms.ClusterOf"] = inproc_ms[kClusterOf];
    L["query.inproc_ms.KNearest"] = inproc_ms[kKNearest];
    L["data.knn_pairs"] = knn_pairs;

    // Layer sum for one closed-loop query of the ClusterOf/KNearest mix;
    // the residual is the wire and the client stack.
    auto mix = [](double cluster_of, double knearest) {
      return 0.25 * cluster_of + 0.75 * knearest;
    };
    const double client =
        mix(Mean(client_ms[kClusterOf]), Mean(client_ms[kKNearest]));
    const double handler = mix(server_ms[kClusterOf], server_ms[kKNearest]);
    const double work = mix(inproc_ms[kClusterOf], inproc_ms[kKNearest]);
    result.layer_sum_unit = "per closed-loop query (ClusterOf/KNearest mix)";
    result.layer_sum_total_ms = client;
    result.layer_sum = {{"query.inproc_ms (QueryClient work)", work},
                        {"server handler outside the query", handler - work}};
  }
  return result;
}

}  // namespace dcbench
