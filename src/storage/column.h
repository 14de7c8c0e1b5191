#ifndef HAPE_STORAGE_COLUMN_H_
#define HAPE_STORAGE_COLUMN_H_

#include <memory>
#include <span>
#include <variant>
#include <vector>

#include "common/logging.h"
#include "storage/types.h"

namespace hape::storage {

/// A typed, contiguous column of values. Columns are the unit of storage;
/// packets reference slices of them. A column either owns its values or
/// is a read-only view (see Slice) of rows [offset, offset + size()) of an
/// owning column, whose storage it shares and keeps alive. Every writer
/// (`mutable_*`, `Append*`, `Reserve`, `mutable_raw_data`) refuses a view.
/// Move-only: nothing needs a copy, and a copy of a view would be
/// ambiguous (deep, or shared?).
class Column {
 public:
  explicit Column(DataType type);
  explicit Column(std::vector<int32_t> v) : type_(DataType::kInt32),
                                            data_(std::move(v)) {}
  explicit Column(std::vector<int64_t> v) : type_(DataType::kInt64),
                                            data_(std::move(v)) {}
  explicit Column(std::vector<double> v) : type_(DataType::kFloat64),
                                           data_(std::move(v)) {}
  Column(const Column&) = delete;
  Column& operator=(const Column&) = delete;
  Column(Column&&) = default;
  Column& operator=(Column&&) = default;

  /// A view of rows [offset, offset + len) of `src`, sharing its storage
  /// with no copy. A slice of a view points at the view's owner, so views
  /// never chain.
  static std::shared_ptr<Column> Slice(std::shared_ptr<const Column> src,
                                       size_t offset, size_t len);

  DataType type() const { return type_; }
  size_t size() const;
  uint64_t byte_size() const { return size() * TypeSize(type_); }

  std::span<const int32_t> i32() const {
    if (owner_ != nullptr) return owner_->i32().subspan(offset_, len_);
    return std::get<std::vector<int32_t>>(data_);
  }
  std::span<const int64_t> i64() const {
    if (owner_ != nullptr) return owner_->i64().subspan(offset_, len_);
    return std::get<std::vector<int64_t>>(data_);
  }
  std::span<const double> f64() const {
    if (owner_ != nullptr) return owner_->f64().subspan(offset_, len_);
    return std::get<std::vector<double>>(data_);
  }
  std::vector<int32_t>& mutable_i32() {
    CheckOwned();
    return std::get<std::vector<int32_t>>(data_);
  }
  std::vector<int64_t>& mutable_i64() {
    CheckOwned();
    return std::get<std::vector<int64_t>>(data_);
  }
  std::vector<double>& mutable_f64() {
    CheckOwned();
    return std::get<std::vector<double>>(data_);
  }

  /// Widening accessors: integer columns read as int64, any column read as
  /// double. Used by the generic operators (joins key on int64).
  int64_t GetInt(size_t i) const;
  double GetDouble(size_t i) const;
  void AppendInt(int64_t v);
  void AppendDouble(double v);
  /// Append every value of `src` (an owning column or a view). Same-type
  /// appends are a bulk vector insert; mixed types fall back to the
  /// per-row widening appends above (bit-identical to a GetInt/GetDouble +
  /// Append loop).
  void AppendColumn(const Column& src);
  void Reserve(size_t n);

  const void* raw_data() const;
  void* mutable_raw_data();

 private:
  void CheckOwned() const {
    HAPE_CHECK(owner_ == nullptr) << "write through a read-only column view";
  }

  DataType type_;
  /// The values of an owning column; unused by a view.
  std::variant<std::vector<int32_t>, std::vector<int64_t>,
               std::vector<double>>
      data_;
  /// A view's owning column (never itself a view) and its row range.
  std::shared_ptr<const Column> owner_;
  size_t offset_ = 0;
  size_t len_ = 0;
};

using ColumnPtr = std::shared_ptr<Column>;

}  // namespace hape::storage

#endif  // HAPE_STORAGE_COLUMN_H_
