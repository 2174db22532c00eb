#include "churn.h"

#include <algorithm>
#include <map>

#include "workload/musicbrainz_like.h"

namespace dcbench {

using dynamicc::DataOperation;
using dynamicc::ObjectId;

dynamicc::WorkloadStream StationaryMusicStream(const ChurnSpec& spec) {
  dynamicc::MusicBrainzLikeGenerator::Options options;
  options.initial_count = spec.initial;
  options.seed = spec.seed;
  options.schedule.assign(
      spec.batches, dynamicc::SnapshotSpec{spec.churn, spec.churn, spec.update});
  return dynamicc::MusicBrainzLikeGenerator(options).Generate();
}

StreamCheck ValidateStream(const dynamicc::WorkloadStream& stream,
                           size_t max_snapshots) {
  StreamCheck check;
  size_t alive_count = 0;
  auto fail = [&check](const std::string& what, size_t batch, ObjectId id) {
    if (!check.ok) return;
    check.ok = false;
    check.error = what + " of id " + std::to_string(id) + " in batch " +
                  std::to_string(batch);
  };
  auto apply = [&](const dynamicc::OperationBatch& batch, size_t index) {
    for (const DataOperation& op : batch) {
      switch (op.kind) {
        case DataOperation::Kind::kAdd:
          check.entity.push_back(op.record.entity);
          check.alive.push_back(1);
          ++alive_count;
          break;
        case DataOperation::Kind::kRemove:
          if (op.target >= check.alive.size()) {
            fail("remove of unknown id", index, op.target);
          } else if (!check.alive[op.target]) {
            fail("second remove", index, op.target);
          } else {
            check.alive[op.target] = 0;
            --alive_count;
          }
          break;
        case DataOperation::Kind::kUpdate:
          if (op.target >= check.alive.size() || !check.alive[op.target]) {
            fail("update of a dead or unknown id", index, op.target);
          } else {
            check.entity[op.target] = op.record.entity;
          }
          break;
      }
    }
  };
  apply(stream.initial, 0);
  for (size_t i = 0; i < stream.snapshots.size() && i < max_snapshots; ++i) {
    apply(stream.snapshots[i], i + 1);
    check.alive_after.push_back(alive_count);
  }
  return check;
}

std::vector<std::vector<ObjectId>> TruthClusters(const StreamCheck& check) {
  std::map<uint32_t, std::vector<ObjectId>> by_entity;
  for (size_t id = 0; id < check.alive.size(); ++id) {
    if (check.alive[id]) {
      by_entity[check.entity[id]].push_back(static_cast<ObjectId>(id));
    }
  }
  std::vector<std::vector<ObjectId>> clusters;
  clusters.reserve(by_entity.size());
  for (auto& entry : by_entity) clusters.push_back(std::move(entry.second));
  std::sort(clusters.begin(), clusters.end());
  return clusters;
}

uint64_t PartitionDigest(const std::vector<std::vector<ObjectId>>& clusters) {
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 1099511628211ull;
    }
  };
  for (const auto& members : clusters) {
    for (ObjectId id : members) mix(id);
    mix(~0ull);
  }
  return h;
}

}  // namespace dcbench
