#ifndef HAPE_MEMORY_BATCH_H_
#define HAPE_MEMORY_BATCH_H_

#include <cstdint>
#include <vector>

#include "storage/column.h"

namespace hape::memory {

/// A packet: the unit of data flow between operators and devices (§3,
/// "data packing" trait). A Batch holds chunk-sized columns. A scan
/// packet's columns are read-only views of the table's (see ChunkColumns);
/// stages that make new data replace a column, never write into one. The
/// router decides on metadata alone, without touching the data: the
/// packet's size and `mem_node`, the simulated memory that holds it.
struct Batch {
  std::vector<storage::ColumnPtr> columns;
  size_t rows = 0;
  int mem_node = 0;

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
