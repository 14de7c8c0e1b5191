#include "opt/stats.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <span>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "common/logging.h"

namespace hape::opt {

namespace {

double Clamp01(double v) { return std::min(1.0, std::max(0.0, v)); }

bool IsLiteral(const expr::Expr& e) {
  return e.kind() == expr::ExprKind::kLitInt ||
         e.kind() == expr::ExprKind::kLitDouble;
}

double LiteralValue(const expr::Expr& e) {
  return e.kind() == expr::ExprKind::kLitInt
             ? static_cast<double>(e.int_value())
             : e.double_value();
}

const ColumnStats* BoundColumn(const expr::Expr& e,
                               const StatsBinding& binding) {
  if (e.kind() != expr::ExprKind::kColRef) return nullptr;
  const int c = e.col_index();
  if (c < 0 || c >= static_cast<int>(binding.size())) return nullptr;
  return binding[c].Read();
}

/// sel(col <= v) by linear interpolation over the column's [min, max].
double LeSelectivity(const ColumnStats& s, double v) {
  if (!s.has_range) return kDefaultSelectivity;
  if (v < s.min_value) return 0.0;
  if (v >= s.max_value) return 1.0;
  const double width = s.max_value - s.min_value;
  if (width <= 0) return 1.0;
  return (v - s.min_value) / width;
}

double EqSelectivity(const ColumnStats& s) {
  return s.ndv == 0 ? kDefaultSelectivity : 1.0 / static_cast<double>(s.ndv);
}

/// Comparison of a bound column against a literal (column on `col` side).
double CompareSelectivity(expr::ExprKind op, const ColumnStats& s, double v) {
  switch (op) {
    case expr::ExprKind::kEq:
      return EqSelectivity(s);
    case expr::ExprKind::kNe:
      return 1.0 - EqSelectivity(s);
    case expr::ExprKind::kLe:
    case expr::ExprKind::kLt:
      // The continuous approximation folds the boundary value in; on the
      // wide TPC-H domains the difference is far below estimate noise.
      return LeSelectivity(s, v);
    case expr::ExprKind::kGe:
    case expr::ExprKind::kGt:
      return 1.0 - LeSelectivity(s, v);
    default:
      return kDefaultSelectivity;
  }
}

expr::ExprKind MirrorOp(expr::ExprKind op) {
  switch (op) {
    case expr::ExprKind::kLt:
      return expr::ExprKind::kGt;
    case expr::ExprKind::kLe:
      return expr::ExprKind::kGe;
    case expr::ExprKind::kGt:
      return expr::ExprKind::kLt;
    case expr::ExprKind::kGe:
      return expr::ExprKind::kLe;
    default:
      return op;  // kEq / kNe are symmetric
  }
}

bool IsComparison(expr::ExprKind k) {
  return k == expr::ExprKind::kEq || k == expr::ExprKind::kNe ||
         k == expr::ExprKind::kLt || k == expr::ExprKind::kLe ||
         k == expr::ExprKind::kGt || k == expr::ExprKind::kGe;
}

/// Decomposed simple comparison `col <op> literal` (mirrored if needed).
struct SimpleCmp {
  const ColumnStats* col = nullptr;
  int col_index = -1;
  expr::ExprKind op;
  double value = 0;
};

bool DecomposeCmp(const expr::Expr& e, const StatsBinding& binding,
                  SimpleCmp* out) {
  if (!IsComparison(e.kind())) return false;
  const expr::Expr& l = *e.children()[0];
  const expr::Expr& r = *e.children()[1];
  if (l.kind() == expr::ExprKind::kColRef && IsLiteral(r)) {
    out->col = BoundColumn(l, binding);
    out->col_index = l.col_index();
    out->op = e.kind();
    out->value = LiteralValue(r);
    return out->col != nullptr;
  }
  if (r.kind() == expr::ExprKind::kColRef && IsLiteral(l)) {
    out->col = BoundColumn(r, binding);
    out->col_index = r.col_index();
    out->op = MirrorOp(e.kind());
    out->value = LiteralValue(l);
    return out->col != nullptr;
  }
  return false;
}

bool IsLowerBound(expr::ExprKind op) {
  return op == expr::ExprKind::kGe || op == expr::ExprKind::kGt;
}
bool IsUpperBound(expr::ExprKind op) {
  return op == expr::ExprKind::kLe || op == expr::ExprKind::kLt;
}

/// Range conjunction on one column (lo <= col < hi and friends): the
/// independence assumption would square the range fraction, so intersect
/// the interval instead.
bool TryRangeConjunction(const expr::Expr& l, const expr::Expr& r,
                         const StatsBinding& binding, double* sel) {
  SimpleCmp a, b;
  if (!DecomposeCmp(l, binding, &a) || !DecomposeCmp(r, binding, &b)) {
    return false;
  }
  if (a.col_index != b.col_index) return false;
  const SimpleCmp* lo = nullptr;
  const SimpleCmp* hi = nullptr;
  if (IsLowerBound(a.op) && IsUpperBound(b.op)) {
    lo = &a;
    hi = &b;
  } else if (IsLowerBound(b.op) && IsUpperBound(a.op)) {
    lo = &b;
    hi = &a;
  } else {
    return false;
  }
  *sel = Clamp01(LeSelectivity(*a.col, hi->value) -
                 LeSelectivity(*a.col, lo->value));
  return true;
}

/// Set of 64-bit patterns: linear probing over a power-of-two slot array
/// kept at most half full. Every pattern is a possible value (NaN payloads
/// and the all-ones word included), so the zero pattern marks empty slots
/// and its own membership is a flag.
class DistinctBits {
 public:
  void Insert(uint64_t bits) {
    if (bits == 0) {
      has_zero_ = true;
      return;
    }
    if (2 * (size_ + 1) > slots_.size()) Grow();
    if (Place(bits)) ++size_;
  }

  uint64_t size() const { return size_ + (has_zero_ ? 1 : 0); }

 private:
  /// Stores `bits` unless present; true if it was new.
  bool Place(uint64_t bits) {
    const size_t mask = slots_.size() - 1;
    for (size_t s = HashMurmur64(bits) & mask;; s = (s + 1) & mask) {
      if (slots_[s] == bits) return false;
      if (slots_[s] == 0) {
        slots_[s] = bits;
        return true;
      }
    }
  }

  void Grow() {
    const size_t n = std::max<size_t>(1024, 2 * slots_.size());
    const std::vector<uint64_t> old =
        std::exchange(slots_, std::vector<uint64_t>(n));
    for (uint64_t bits : old) {
      if (bits != 0) Place(bits);
    }
  }

  std::vector<uint64_t> slots_;
  uint64_t size_ = 0;  // nonzero patterns stored
  bool has_zero_ = false;
};

/// The one scan of a column for statistics. Values are widened to double
/// as Column::GetDouble does. A column whose widened values strictly
/// increase (every primary key) is exact after one compare pass: NDV = rows,
/// min = first, max = last. Any other column is read again from the start
/// into a set of bit patterns, where a run of equal neighbours inserts once.
template <typename T>
void ScanValues(std::span<const T> values, ColumnStats* cs) {
  cs->row_count = values.size();
  if (values.empty()) return;
  cs->has_range = true;
  const auto no_rise = [](T a, T b) {
    return !(static_cast<double>(b) > static_cast<double>(a));
  };
  if (std::adjacent_find(values.begin(), values.end(), no_rise) ==
      values.end()) {
    cs->min_value = static_cast<double>(values.front());
    cs->max_value = static_cast<double>(values.back());
    cs->ndv = values.size();
    return;
  }
  DistinctBits distinct;
  double lo = static_cast<double>(values[0]);
  double hi = lo;
  uint64_t prev = std::bit_cast<uint64_t>(lo);
  distinct.Insert(prev);
  for (size_t i = 1; i < values.size(); ++i) {
    const double v = static_cast<double>(values[i]);
    lo = std::min(lo, v);
    hi = std::max(hi, v);
    const uint64_t bits = std::bit_cast<uint64_t>(v);
    if (bits != prev) distinct.Insert(bits);
    prev = bits;
  }
  cs->min_value = lo;
  cs->max_value = hi;
  cs->ndv = distinct.size();
}

}  // namespace

TableStats::TableStats(storage::TablePtr table)
    : table_(std::move(table)), columns_(table_->num_columns()) {}

const ColumnStats& TableStats::Column(int c) const {
  std::optional<ColumnStats>& cs = columns_[c];
  if (cs.has_value()) return *cs;
  cs.emplace();
  cs->name = table_->schema().field(c).name;
  const storage::Column& col = *table_->column(c);
  switch (col.type()) {
    case storage::DataType::kInt32:
      ScanValues(col.i32(), &*cs);
      break;
    case storage::DataType::kInt64:
      ScanValues(col.i64(), &*cs);
      break;
    case storage::DataType::kFloat64:
      ScanValues(col.f64(), &*cs);
      break;
  }
  return *cs;
}

const ColumnStats* TableStats::Column(const std::string& name) const {
  const int c = ColumnIndex(name);
  return c < 0 ? nullptr : &Column(c);
}

const ColumnStats* TableStats::Scanned(const std::string& name) const {
  const int c = ColumnIndex(name);
  return c < 0 || !columns_[c].has_value() ? nullptr : &*columns_[c];
}

std::shared_ptr<const TableStats> StatsCatalog::Entry(
    const storage::TablePtr& table) {
  std::shared_ptr<const TableStats>& entry = tables_[table->name()];
  if (entry == nullptr || entry->actual_rows() != table->num_rows()) {
    entry = std::make_shared<const TableStats>(table);
  }
  return entry;
}

const TableStats* StatsCatalog::Get(const std::string& table) const {
  auto it = tables_.find(table);
  return it == tables_.end() ? nullptr : it->second.get();
}

StatsBinding BindColumns(const std::shared_ptr<const TableStats>& table,
                         const std::vector<std::string>& columns) {
  StatsBinding binding;
  binding.reserve(columns.size());
  for (const std::string& name : columns) {
    const int c = table->ColumnIndex(name);
    binding.push_back(c < 0 ? StatsRef{} : StatsRef{table, c});
  }
  return binding;
}

double EstimateSelectivity(const expr::Expr& pred,
                           const StatsBinding& binding) {
  using expr::ExprKind;
  switch (pred.kind()) {
    case ExprKind::kAnd: {
      double range_sel = 0;
      if (TryRangeConjunction(*pred.children()[0], *pred.children()[1],
                              binding, &range_sel)) {
        return range_sel;
      }
      // Independence assumption.
      return Clamp01(EstimateSelectivity(*pred.children()[0], binding) *
                     EstimateSelectivity(*pred.children()[1], binding));
    }
    case ExprKind::kOr: {
      const double l = EstimateSelectivity(*pred.children()[0], binding);
      const double r = EstimateSelectivity(*pred.children()[1], binding);
      return Clamp01(l + r - l * r);  // inclusion-exclusion
    }
    case ExprKind::kNot:
      return Clamp01(1.0 - EstimateSelectivity(*pred.children()[0], binding));
    default:
      break;
  }
  if (!IsComparison(pred.kind())) return kDefaultSelectivity;

  const expr::Expr& l = *pred.children()[0];
  const expr::Expr& r = *pred.children()[1];
  const ColumnStats* lc = BoundColumn(l, binding);
  const ColumnStats* rc = BoundColumn(r, binding);
  if (lc != nullptr && IsLiteral(r)) {
    return Clamp01(CompareSelectivity(pred.kind(), *lc, LiteralValue(r)));
  }
  if (rc != nullptr && IsLiteral(l)) {
    return Clamp01(
        CompareSelectivity(MirrorOp(pred.kind()), *rc, LiteralValue(l)));
  }
  if (lc != nullptr && rc != nullptr && pred.kind() == ExprKind::kEq) {
    // Column-column equality: 1 / max NDV (the join-style estimate).
    const uint64_t ndv = std::max(lc->ndv, rc->ndv);
    return ndv == 0 ? kDefaultSelectivity
                    : Clamp01(1.0 / static_cast<double>(ndv));
  }
  return kDefaultSelectivity;
}

uint64_t EstimateKeyNdv(const expr::Expr& key, const StatsBinding& binding,
                        uint64_t input_rows) {
  if (key.kind() == expr::ExprKind::kColRef) {
    const ColumnStats* c = BoundColumn(key, binding);
    if (c != nullptr && c->ndv > 0) return std::min(c->ndv, input_rows);
    return input_rows;
  }
  if (IsLiteral(key)) return 1;
  // Composite key (e.g. partkey * S + suppkey): assume independent
  // components — the product of their NDVs, capped by the row count.
  double product = 1.0;
  bool any = false;
  for (int col : key.ReferencedColumns()) {
    const ColumnStats* c = col < static_cast<int>(binding.size())
                               ? binding[col].Read()
                               : nullptr;
    if (c == nullptr || c->ndv == 0) continue;
    product *= static_cast<double>(c->ndv);
    any = true;
    if (product >= static_cast<double>(input_rows)) return input_rows;
  }
  if (!any) return input_rows;
  return std::min<uint64_t>(input_rows, static_cast<uint64_t>(product));
}

}  // namespace hape::opt
