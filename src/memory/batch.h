#ifndef HAPE_MEMORY_BATCH_H_
#define HAPE_MEMORY_BATCH_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "storage/column.h"

namespace hape::memory {

/// Evaluated join/group keys and their HashMurmur64 values, carried with a
/// packet so a downstream sink keyed on the same expression (matched by
/// `signature` == Expr::ToString()) reuses them instead of re-evaluating
/// and rehashing per row. Host-side only: the cache never contributes to
/// byte_size() or any simulated traffic — it is an artifact of how the
/// generated code keeps the hash live in a register across operators.
struct KeyCache {
  std::string signature;
  std::shared_ptr<const std::vector<int64_t>> keys;
  std::shared_ptr<const std::vector<uint64_t>> hashes;

  bool valid() const { return keys != nullptr; }
  void Clear() { *this = KeyCache{}; }
};

/// A packet: the unit of data flow between operators and devices (§3,
/// "data packing" trait). A Batch holds chunk-sized columns. A scan
/// packet's columns are read-only views of the table's (see ChunkColumns);
/// stages that make new data replace a column, never write into one.
/// Metadata lets the router take routing decisions without touching the
/// data:
///   - `mem_node`     : which simulated memory currently holds the packet;
///   - `partition_id` : if >= 0, every tuple in the packet shares this
///                      hash-partition id (the paper's packing property).
struct Batch {
  std::vector<storage::ColumnPtr> columns;
  size_t rows = 0;
  int mem_node = 0;
  int32_t partition_id = -1;
  /// Keys+hashes threaded through the packet by a probe stage (see
  /// KeyCache). Any stage that changes the row set or column layout must
  /// Clear() it unless it re-derives the cache for the new layout.
  KeyCache key_cache;

  uint64_t byte_size() const {
    uint64_t total = 0;
    for (const auto& c : columns) total += c->byte_size();
    return total;
  }
  int num_columns() const { return static_cast<int>(columns.size()); }
};

/// Chunk table-like column sets into packets of at most `chunk_rows` rows.
/// Each packet column is a read-only view (storage::Column::Slice) of its
/// source column: no data is copied. Zero rows yield one empty packet.
std::vector<Batch> ChunkColumns(const std::vector<storage::ColumnPtr>& cols,
                                size_t rows, size_t chunk_rows, int mem_node);

}  // namespace hape::memory

#endif  // HAPE_MEMORY_BATCH_H_
