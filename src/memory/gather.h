#ifndef HAPE_MEMORY_GATHER_H_
#define HAPE_MEMORY_GATHER_H_

#include <span>

#include "memory/batch.h"

namespace hape::memory {

/// Gather `rows` of `col` into a new column. Only sinks that store values
/// gather (CollectSink); stages narrow with SelectRows instead.
storage::ColumnPtr Take(const storage::Column& col,
                        std::span<const uint32_t> rows);

/// Narrow `b` to its packet rows `rows` (any order, repeats allowed)
/// without copying a column: each distinct selection among its columns is
/// composed with `rows` once, and every dense column takes `rows` itself.
/// Columns that shared a selection share the composed one.
void SelectRows(Batch* b, Selection rows);

}  // namespace hape::memory

#endif  // HAPE_MEMORY_GATHER_H_
