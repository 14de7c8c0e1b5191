#include "memory/gather.h"

#include <algorithm>
#include <utility>

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

void SelectRows(Batch* b, Selection rows) {
  const auto fresh = std::make_shared<const Selection>(std::move(rows));
  // (old, composed) pairs; keeping `old` alive keeps its address unique.
  std::vector<std::pair<SelectionPtr, SelectionPtr>> composed;
  b->selections.resize(b->columns.size());
  for (SelectionPtr& s : b->selections) {
    if (s == nullptr) {
      s = fresh;
      continue;
    }
    auto it = std::find_if(composed.begin(), composed.end(),
                           [&](const auto& p) { return p.first == s; });
    if (it == composed.end()) {
      Selection c(fresh->size());
      for (size_t i = 0; i < c.size(); ++i) c[i] = (*s)[(*fresh)[i]];
      composed.emplace_back(s, std::make_shared<const Selection>(std::move(c)));
      it = composed.end() - 1;
    }
    s = it->second;
  }
  b->rows = fresh->size();
}

}  // namespace hape::memory
