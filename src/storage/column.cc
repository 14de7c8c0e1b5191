#include "storage/column.h"

namespace hape::storage {

namespace {

template <typename T>
void Extend(std::vector<T>& dst, std::span<const T> src,
            const std::vector<uint32_t>* rows) {
  if (rows == nullptr) {
    dst.insert(dst.end(), src.begin(), src.end());
    return;
  }
  const size_t base = dst.size();
  dst.resize(base + rows->size());
  for (size_t i = 0; i < rows->size(); ++i) dst[base + i] = src[(*rows)[i]];
}

}  // namespace

Column::Column(DataType type) : type_(type) {
  switch (type) {
    case DataType::kInt32:
      data_ = std::vector<int32_t>{};
      break;
    case DataType::kInt64:
      data_ = std::vector<int64_t>{};
      break;
    case DataType::kFloat64:
      data_ = std::vector<double>{};
      break;
  }
}

std::shared_ptr<Column> Column::Slice(std::shared_ptr<const Column> src,
                                     size_t offset, size_t len) {
  HAPE_CHECK(offset <= src->size() && len <= src->size() - offset)
      << "slice [" << offset << ", " << offset + len << ") of a "
      << src->size() << "-row column";
  auto view = std::make_shared<Column>(src->type_);
  if (src->owner_ != nullptr) {
    offset += src->offset_;
    src = src->owner_;
  }
  view->owner_ = std::move(src);
  view->offset_ = offset;
  view->len_ = len;
  return view;
}

size_t Column::size() const {
  if (owner_ != nullptr) return len_;
  return std::visit([](const auto& v) { return v.size(); }, data_);
}

int64_t Column::GetInt(size_t i) const {
  switch (type_) {
    case DataType::kInt32:
      return i32()[i];
    case DataType::kInt64:
      return i64()[i];
    case DataType::kFloat64:
      return DoubleToInt64(f64()[i]);
  }
  return 0;
}

double Column::GetDouble(size_t i) const {
  switch (type_) {
    case DataType::kInt32:
      return i32()[i];
    case DataType::kInt64:
      return static_cast<double>(i64()[i]);
    case DataType::kFloat64:
      return f64()[i];
  }
  return 0;
}

void Column::AppendInt(int64_t v) {
  switch (type_) {
    case DataType::kInt32:
      mutable_i32().push_back(static_cast<int32_t>(v));
      break;
    case DataType::kInt64:
      mutable_i64().push_back(v);
      break;
    case DataType::kFloat64:
      mutable_f64().push_back(static_cast<double>(v));
      break;
  }
}

void Column::AppendDouble(double v) {
  switch (type_) {
    case DataType::kInt32:
      mutable_i32().push_back(static_cast<int32_t>(v));
      break;
    case DataType::kInt64:
      mutable_i64().push_back(static_cast<int64_t>(v));
      break;
    case DataType::kFloat64:
      mutable_f64().push_back(v);
      break;
  }
}

void Column::AppendColumn(const Column& src,
                          const std::vector<uint32_t>* rows) {
  CheckOwned();
  if (type_ == src.type_) {
    switch (type_) {
      case DataType::kInt32:
        Extend(mutable_i32(), src.i32(), rows);
        return;
      case DataType::kInt64:
        Extend(mutable_i64(), src.i64(), rows);
        return;
      case DataType::kFloat64:
        Extend(mutable_f64(), src.f64(), rows);
        return;
    }
  }
  const size_t n = rows == nullptr ? src.size() : rows->size();
  for (size_t i = 0; i < n; ++i) {
    const size_t r = rows == nullptr ? i : (*rows)[i];
    if (src.type_ == DataType::kFloat64) {
      AppendDouble(src.GetDouble(r));
    } else {
      AppendInt(src.GetInt(r));
    }
  }
}

void Column::Reserve(size_t n) {
  CheckOwned();
  std::visit([n](auto& v) { v.reserve(n); }, data_);
}

const void* Column::raw_data() const {
  if (owner_ != nullptr) {
    return static_cast<const char*>(owner_->raw_data()) +
           offset_ * TypeSize(type_);
  }
  return std::visit([](const auto& v) -> const void* { return v.data(); },
                    data_);
}

void* Column::mutable_raw_data() {
  CheckOwned();
  return std::visit([](auto& v) -> void* { return v.data(); }, data_);
}

}  // namespace hape::storage
