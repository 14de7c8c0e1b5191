#include "memory/gather.h"

namespace hape::memory {

storage::ColumnPtr Take(const storage::Column& col,
                        std::span<const uint32_t> rows) {
  using storage::DataType;
  switch (col.type()) {
    case DataType::kInt32: {
      auto s = col.i32();
      std::vector<int32_t> v(rows.size());
      for (size_t i = 0; i < rows.size(); ++i) v[i] = s[rows[i]];
      return std::make_shared<storage::Column>(std::move(v));
    }
    case DataType::kInt64: {
      auto s = col.i64();
      std::vector<int64_t> v(rows.size());
      for (size_t i = 0; i < rows.size(); ++i) v[i] = s[rows[i]];
      return std::make_shared<storage::Column>(std::move(v));
    }
    case DataType::kFloat64: {
      auto s = col.f64();
      std::vector<double> v(rows.size());
      for (size_t i = 0; i < rows.size(); ++i) v[i] = s[rows[i]];
      return std::make_shared<storage::Column>(std::move(v));
    }
  }
  return nullptr;
}

void TakeBatch(Batch* b, std::span<const uint32_t> rows) {
  for (auto& c : b->columns) c = Take(*c, rows);
  b->rows = rows.size();
}

}  // namespace hape::memory
