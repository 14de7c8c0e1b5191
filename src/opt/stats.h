#ifndef HAPE_OPT_STATS_H_
#define HAPE_OPT_STATS_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "expr/expr.h"
#include "storage/table.h"

namespace hape::opt {

/// Statistics of one stored column, from one pass over its data. They
/// describe the stored rows only, whatever nominal scale a plan runs the
/// table at (the optimizer scales its estimates by the pipeline's scale).
struct ColumnStats {
  std::string name;
  uint64_t row_count = 0;  // actual rows scanned
  /// Exact distinct-value count over the actual data.
  uint64_t ndv = 0;
  double min_value = 0;
  double max_value = 0;
  bool has_range = false;  // false for empty columns
};

/// Statistics of one stored table, a column at a time: the entry holds the
/// table it was made for and scans a column the first time an estimate
/// reads it (as SQL Server's AUTO_CREATE_STATISTICS does), so a column no
/// estimate reads is never scanned. NDV counts the distinct bit patterns of
/// the values widened to double; min/max fold them in row order. Reads fill
/// a cache and are not thread-safe (an engine optimizes one plan at a time).
/// Memory: the entry shares ownership of its table until it is replaced,
/// so a catalog pins one table version per table name, also after the
/// storage catalog dropped or replaced that version.
class TableStats {
 public:
  explicit TableStats(storage::TablePtr table);

  uint64_t actual_rows() const { return table_->num_rows(); }
  /// Index of the column named `name`, or -1.
  int ColumnIndex(const std::string& name) const {
    return table_->schema().IndexOf(name);
  }

  /// Statistics of column `c`, scanned on first read.
  const ColumnStats& Column(int c) const;
  /// Statistics of the column named `name` (scanned on first read), or
  /// null if the table has no such column.
  const ColumnStats* Column(const std::string& name) const;
  /// The column's statistics if a read has scanned it, else null. Scans
  /// nothing: a read-only view of what estimation needed.
  const ColumnStats* Scanned(const std::string& name) const;

 private:
  storage::TablePtr table_;
  mutable std::vector<std::optional<ColumnStats>> columns_;  // by index
};

/// Catalog of table statistics, keyed by table name. Statistics are exact
/// (the benchmark data is sampled, so exact NDV is affordable); a
/// production engine would plug sketches in here without changing the
/// consumers.
class StatsCatalog {
 public:
  /// The entry under `table`'s name, made unscanned on first sight of the
  /// name and anew only when `table`'s row count differs from the entry's:
  /// another table of the same name and size reads the first one's entry.
  std::shared_ptr<const TableStats> Entry(const storage::TablePtr& table);

  const TableStats* Get(const std::string& table) const;
  size_t num_tables() const { return tables_.size(); }

 private:
  std::unordered_map<std::string, std::shared_ptr<const TableStats>> tables_;
};

/// One column of a catalog entry, named without reading it: the column is
/// scanned when an estimate first dereferences it. No entry = unbound.
struct StatsRef {
  std::shared_ptr<const TableStats> table;
  int column = -1;

  /// The column's statistics (scanning it on first read), or null.
  const ColumnStats* Read() const {
    return table == nullptr ? nullptr : &table->Column(column);
  }
};

/// Column-stats binding of a packet layout: one reference per column
/// index. Probe stages append build-payload columns, so the binding grows
/// as the estimator walks a pipeline's logical ops.
using StatsBinding = std::vector<StatsRef>;

/// The binding of `columns`, names of `table`'s columns (unknown names stay
/// unbound). Reads no column.
StatsBinding BindColumns(const std::shared_ptr<const TableStats>& table,
                         const std::vector<std::string>& columns);

/// Estimated fraction of rows satisfying the boolean expression `pred`
/// under `binding` (classic System-R rules: 1/NDV equality, range
/// interpolation over [min,max], independence for AND, inclusion-exclusion
/// for OR). Unbound columns and unrecognized shapes fall back to
/// kDefaultSelectivity. Result is clamped to [0, 1].
double EstimateSelectivity(const expr::Expr& pred, const StatsBinding& binding);

/// Fallback selectivity for predicates the estimator cannot see through.
constexpr double kDefaultSelectivity = 1.0 / 3.0;

/// Estimated distinct values of `key` evaluated over `binding` with
/// `input_rows` input rows: NDV of the column for plain references, capped
/// products for composite keys, `input_rows` when nothing is known.
uint64_t EstimateKeyNdv(const expr::Expr& key, const StatsBinding& binding,
                        uint64_t input_rows);

}  // namespace hape::opt

#endif  // HAPE_OPT_STATS_H_
