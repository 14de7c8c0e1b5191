#ifndef HAPE_OPT_STATS_H_
#define HAPE_OPT_STATS_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "expr/expr.h"
#include "storage/table.h"

namespace hape::opt {

/// Per-column statistics collected by one pass over the stored data. They
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

/// Statistics of one stored table.
struct TableStats {
  std::string table;
  uint64_t actual_rows = 0;
  std::unordered_map<std::string, ColumnStats> columns;

  const ColumnStats* Column(const std::string& name) const {
    auto it = columns.find(name);
    return it == columns.end() ? nullptr : &it->second;
  }
};

/// Catalog of collected table statistics, keyed by table name. Collection
/// is an exact single scan per column (the benchmark data is sampled, so
/// exact NDV is affordable); a production engine would plug sketches in
/// here without changing the consumers.
class StatsCatalog {
 public:
  /// Scan `table` and record stats under its name. Each column's typed
  /// values are read once; NDV counts the distinct bit patterns of the
  /// values widened to double, and min/max fold them in row order.
  /// Re-collection replaces the previous entry.
  const TableStats& Collect(const storage::Table& table);

  const TableStats* Get(const std::string& table) const;
  size_t num_tables() const { return tables_.size(); }

 private:
  std::unordered_map<std::string, TableStats> tables_;
};

/// Column-stats binding of a packet layout: stats (or null) per column
/// index. Probe stages append build-payload columns, so the binding grows
/// as the estimator walks a pipeline's logical ops.
using StatsBinding = std::vector<const ColumnStats*>;

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
