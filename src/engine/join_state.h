#ifndef HAPE_ENGINE_JOIN_STATE_H_
#define HAPE_ENGINE_JOIN_STATE_H_

#include <memory>
#include <vector>

#include "memory/batch.h"
#include "ops/hash_table.h"

namespace hape::engine {

/// Shared state of a hash join: the chained table plus the gathered
/// build-side payload columns. Built by a BuildSink, probed by ProbeStage;
/// a plan's run makes a fresh one per build (Engine::BeginPlan).
/// `hardware_conscious` selects, on GPUs, the partitioned (radix) probe cost
/// model of §4.1 instead of the random-access non-partitioned one — the
/// switch behind Fig. 9.
struct JoinState {
  /// An empty table of NextPow2(`buckets`) buckets, until its BuildSink.
  explicit JoinState(size_t buckets) : ht(buckets) {}

  ops::ChainedHashTable ht;
  memory::Batch payload;          // one row per build tuple, gather-indexed
  uint64_t nominal_rows = 0;      // paper-scale build cardinality
  int location_node = 0;          // memory node holding the table
  bool hardware_conscious = false;

  /// Paper-scale bytes of table + payload (for capacity checks and for
  /// deciding whether probes are cache-resident).
  uint64_t NominalBytes() const {
    uint64_t payload_bytes = 0;
    for (const auto& c : payload.columns) {
      payload_bytes += storage::TypeSize(c->type());
    }
    return ops::ChainedHashTable::NominalBytes(nominal_rows, payload_bytes);
  }
};

using JoinStatePtr = std::shared_ptr<JoinState>;

}  // namespace hape::engine

#endif  // HAPE_ENGINE_JOIN_STATE_H_
