#include "memory/batch.h"

#include <algorithm>

#include "common/logging.h"

namespace hape::memory {

std::vector<Batch> ChunkColumns(const std::vector<storage::ColumnPtr>& cols,
                                size_t rows, size_t chunk_rows, int mem_node) {
  HAPE_CHECK(chunk_rows > 0);
  std::vector<Batch> out;
  // do-while: an empty input still yields one (empty) packet.
  size_t off = 0;
  do {
    const size_t len = std::min(chunk_rows, rows - off);
    Batch b;
    b.rows = len;
    b.mem_node = mem_node;
    b.columns.reserve(cols.size());
    for (const auto& c : cols) {
      b.columns.push_back(storage::Column::Slice(c, off, len));
    }
    out.push_back(std::move(b));
    off += len;
  } while (off < rows);
  return out;
}

}  // namespace hape::memory
