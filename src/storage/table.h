#ifndef HAPE_STORAGE_TABLE_H_
#define HAPE_STORAGE_TABLE_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "storage/column.h"

namespace hape::storage {

struct Field {
  std::string name;
  DataType type;
};

/// An ordered list of named, typed fields with O(1) name lookup.
class Schema {
 public:
  Schema() = default;
  explicit Schema(std::vector<Field> fields);

  int num_fields() const { return static_cast<int>(fields_.size()); }
  const Field& field(int i) const { return fields_[i]; }
  /// Index of `name`, or -1 if absent.
  int IndexOf(const std::string& name) const;
  const std::vector<Field>& fields() const { return fields_; }

 private:
  std::vector<Field> fields_;
  std::unordered_map<std::string, int> index_;
};

using SchemaPtr = std::shared_ptr<Schema>;

/// An immutable in-memory columnar table. `home_node` records which
/// simulated memory node holds the data (CPU-resident vs GPU-resident
/// experiments differ only in this value).
class Table {
 public:
  Table(std::string name, SchemaPtr schema, std::vector<ColumnPtr> columns,
        int home_node = 0);

  const std::string& name() const { return name_; }
  const Schema& schema() const { return *schema_; }
  size_t num_rows() const { return num_rows_; }
  int num_columns() const { return static_cast<int>(columns_.size()); }
  const ColumnPtr& column(int i) const { return columns_[i]; }
  /// Column by field name; CHECK-fails if absent.
  const ColumnPtr& column(const std::string& name) const;
  uint64_t byte_size() const;
  int home_node() const { return home_node_; }

 private:
  std::string name_;
  SchemaPtr schema_;
  std::vector<ColumnPtr> columns_;
  size_t num_rows_;
  int home_node_;
};

using TablePtr = std::shared_ptr<Table>;

/// Named table registry.
class Catalog {
 public:
  Status Register(TablePtr table);
  Result<TablePtr> Get(const std::string& name) const;
  bool Contains(const std::string& name) const {
    return tables_.count(name) > 0;
  }
  std::vector<std::string> TableNames() const;

 private:
  std::unordered_map<std::string, TablePtr> tables_;
};

}  // namespace hape::storage

#endif  // HAPE_STORAGE_TABLE_H_
