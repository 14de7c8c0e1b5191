#ifndef HAPE_MEMORY_BATCH_H_
#define HAPE_MEMORY_BATCH_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "storage/column.h"

namespace hape::memory {

/// The rows of one column that a packet holds, in packet order: packet row
/// i is element (*selection)[i] of the column.
using Selection = std::vector<uint32_t>;
using SelectionPtr = std::shared_ptr<const Selection>;

/// The element of a column that holds packet row `i`, given the column's
/// selection (null when dense).
inline size_t Row(const Selection* sel, size_t i) {
  return sel == nullptr ? i : (*sel)[i];
}

/// A packet: the unit of data flow between operators and devices (§3,
/// "data packing" trait). A scan packet's columns are read-only views of
/// the table's (see ChunkColumns). Filters and probes narrow a packet by
/// giving its columns a selection (SelectRows), never by copying them; a
/// column is gathered only where a sink stores its values. Stages that make
/// new data replace a column, never write into one. The router decides on
/// metadata alone, without touching the data: the packet's size and
/// `mem_node`, the simulated memory that holds it.
struct Batch {
  std::vector<storage::ColumnPtr> columns;
  /// Per column, the selection it is read through; null, or an entry past
  /// the end, means dense (packet row i is element i). Columns narrowed by
  /// the same stages share one selection.
  std::vector<SelectionPtr> selections;
  size_t rows = 0;
  int mem_node = 0;

  /// The selection of column `c`, or null when it is dense.
  const Selection* selection(int c) const {
    return static_cast<size_t>(c) < selections.size() ? selections[c].get()
                                                      : nullptr;
  }
  /// Logical bytes: rows x type width for each column, whatever its
  /// selection (the charges price the packet, not its buffers).
  uint64_t byte_size() const {
    uint64_t total = 0;
    for (const auto& c : columns) total += rows * storage::TypeSize(c->type());
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
