// Input streams for the benchmark's workloads and the validity pass
// every stream goes through before a workload touches it.
#ifndef DCBENCH_CHURN_H_
#define DCBENCH_CHURN_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "data/operations.h"
#include "workload/schedule.h"

namespace dcbench {

/// A stationary churn stream: every snapshot adds and removes the same
/// fraction of the live set and updates another, so the state size stays
/// flat and per-batch cost does not drift with run length.
struct ChurnSpec {
  size_t initial = 4000;
  size_t batches = 100;
  /// Per-batch churn as fractions of the live set (adds == removes).
  double churn = 0.02;
  double update = 0.01;
  uint64_t seed = 1;
};

/// The music-like token generator (trigram cosine, token blocking) fed a
/// schedule of `batches` identical snapshots.
dynamicc::WorkloadStream StationaryMusicStream(const ChurnSpec& spec);

/// Result of replaying a stream's id bookkeeping without the library.
struct StreamCheck {
  bool ok = true;
  std::string error;
  /// Live objects after every snapshot.
  std::vector<size_t> alive_after;
  /// Entity label of every id ever added (index = global id), and which
  /// ids are alive at the end.
  std::vector<uint32_t> entity;
  std::vector<char> alive;
};

/// Asserts that every remove and update targets an id that is alive at
/// that point and that no id is removed twice. Ids are assigned densely
/// in add order, as both the single-engine dataset and the sharded
/// service's admission boundary assign them. The service aborts on
/// either violation, so a generator bug must surface here instead.
/// Only the initial load and the first `max_snapshots` snapshots are
/// replayed (the prefix a time-bounded run got through).
StreamCheck ValidateStream(const dynamicc::WorkloadStream& stream,
                           size_t max_snapshots = SIZE_MAX);

/// Ground-truth partition (entity labels) of the ids alive at the end
/// of `check`'s stream, canonical form.
std::vector<std::vector<dynamicc::ObjectId>> TruthClusters(
    const StreamCheck& check);

/// FNV-1a digest of a canonical partition.
uint64_t PartitionDigest(
    const std::vector<std::vector<dynamicc::ObjectId>>& clusters);

}  // namespace dcbench

#endif  // DCBENCH_CHURN_H_
