#include "expr/eval.h"

#include <algorithm>
#include <memory>

#include "codegen/kernels.h"
#include "common/logging.h"
#include "memory/gather.h"

namespace hape::expr {

namespace {

using codegen::kernels::BinOp;

double ApplyArith(ExprKind k, double l, double r) {
  switch (k) {
    case ExprKind::kAdd:
      return l + r;
    case ExprKind::kSub:
      return l - r;
    case ExprKind::kMul:
      return l * r;
    case ExprKind::kDiv:
      return l / r;
    case ExprKind::kEq:
      return l == r;
    case ExprKind::kNe:
      return l != r;
    case ExprKind::kLt:
      return l < r;
    case ExprKind::kLe:
      return l <= r;
    case ExprKind::kGt:
      return l > r;
    case ExprKind::kGe:
      return l >= r;
    case ExprKind::kAnd:
      return (l != 0) && (r != 0);
    case ExprKind::kOr:
      return (l != 0) || (r != 0);
    default:
      HAPE_CHECK(false) << "not a binary op";
      return 0;
  }
}

BinOp ToBinOp(ExprKind k) {
  switch (k) {
    case ExprKind::kAdd:
      return BinOp::kAdd;
    case ExprKind::kSub:
      return BinOp::kSub;
    case ExprKind::kMul:
      return BinOp::kMul;
    case ExprKind::kDiv:
      return BinOp::kDiv;
    case ExprKind::kEq:
      return BinOp::kEq;
    case ExprKind::kNe:
      return BinOp::kNe;
    case ExprKind::kLt:
      return BinOp::kLt;
    case ExprKind::kLe:
      return BinOp::kLe;
    case ExprKind::kGt:
      return BinOp::kGt;
    case ExprKind::kGe:
      return BinOp::kGe;
    case ExprKind::kAnd:
      return BinOp::kAnd;
    case ExprKind::kOr:
      return BinOp::kOr;
    default:
      HAPE_CHECK(false) << "not a binary op";
      return BinOp::kAdd;
  }
}

bool IsComparison(ExprKind k) {
  return k == ExprKind::kEq || k == ExprKind::kNe || k == ExprKind::kLt ||
         k == ExprKind::kLe || k == ExprKind::kGt || k == ExprKind::kGe;
}

/// Mirror the comparison for operand swap: `lit op col` == `col op' lit`.
BinOp FlipComparison(BinOp op) {
  switch (op) {
    case BinOp::kLt:
      return BinOp::kGt;
    case BinOp::kLe:
      return BinOp::kGe;
    case BinOp::kGt:
      return BinOp::kLt;
    case BinOp::kGe:
      return BinOp::kLe;
    default:
      return op;  // kEq / kNe are symmetric
  }
}

bool LiteralValue(const Expr& e, double* out) {
  if (e.kind() == ExprKind::kLitInt) {
    *out = static_cast<double>(e.int_value());
    return true;
  }
  if (e.kind() == ExprKind::kLitDouble) {
    *out = e.double_value();
    return true;
  }
  return false;
}

// ---- scalar reference plane -------------------------------------------------
// The original per-row implementation, kept as the differential oracle for
// the kernel plane (kScalar mode runs only this).

std::vector<double> ScalarDoubles(const Expr& e, const memory::Batch& b) {
  std::vector<double> out(b.rows);
  switch (e.kind()) {
    case ExprKind::kColRef: {
      const auto& col = *b.columns[e.col_index()];
      const memory::Selection* sel = b.selection(e.col_index());
      for (size_t i = 0; i < b.rows; ++i) {
        out[i] = col.GetDouble(memory::Row(sel, i));
      }
      return out;
    }
    case ExprKind::kLitInt:
      std::fill(out.begin(), out.end(), static_cast<double>(e.int_value()));
      return out;
    case ExprKind::kLitDouble:
      std::fill(out.begin(), out.end(), e.double_value());
      return out;
    case ExprKind::kNot: {
      auto c = ScalarDoubles(*e.children()[0], b);
      for (size_t i = 0; i < b.rows; ++i) out[i] = c[i] == 0 ? 1 : 0;
      return out;
    }
    default: {
      auto l = ScalarDoubles(*e.children()[0], b);
      auto r = ScalarDoubles(*e.children()[1], b);
      const ExprKind k = e.kind();
      for (size_t i = 0; i < b.rows; ++i) out[i] = ApplyArith(k, l[i], r[i]);
      return out;
    }
  }
}

// ---- vectorized plane -------------------------------------------------------
// Same tree walk, but each node issues one batch loop: column reads are
// type-specialized bulk casts instead of per-row GetDouble switches, and
// arithmetic runs one hoisted-op loop per node (codegen/kernels.h). Every
// loop is elementwise with one operation per row — no reassociation, no
// FMA contraction — so results are bit-identical to ScalarDoubles.

/// `v` as an Out; a double becomes an int64 by storage::DoubleToInt64.
template <typename Out, typename T>
Out Cast(T v) { return static_cast<Out>(v); }
template <>
int64_t Cast(double v) { return storage::DoubleToInt64(v); }

/// out[i] = packet row i of `v` (through `sel` unless null), cast to Out.
template <typename Out, typename T>
void CastRows(const T* v, const memory::Selection* sel, size_t rows,
              Out* out) {
  if (sel == nullptr) {
    for (size_t i = 0; i < rows; ++i) out[i] = Cast<Out>(v[i]);
    return;
  }
  const uint32_t* r = sel->data();
  for (size_t i = 0; i < rows; ++i) out[i] = Cast<Out>(v[r[i]]);
}

/// Column `c` of `b`, read through its selection and cast to Out.
template <typename Out>
void CastColumn(const memory::Batch& b, int c, Out* out) {
  const storage::Column& col = *b.columns[c];
  const memory::Selection* sel = b.selection(c);
  using storage::DataType;
  switch (col.type()) {
    case DataType::kInt32:
      return CastRows(col.i32().data(), sel, b.rows, out);
    case DataType::kInt64:
      return CastRows(col.i64().data(), sel, b.rows, out);
    case DataType::kFloat64:
      return CastRows(col.f64().data(), sel, b.rows, out);
  }
}

void VecInto(const Expr& e, const memory::Batch& b, double* out);

/// The column `e` names when it is a dense column of `type`, else null.
const storage::Column* DenseColumn(const Expr& e, const memory::Batch& b,
                                   storage::DataType type) {
  if (e.kind() != ExprKind::kColRef || b.selection(e.col_index()) != nullptr ||
      b.columns[e.col_index()]->type() != type) {
    return nullptr;
  }
  return b.columns[e.col_index()].get();
}

/// One operand of a binary node, read where it already is: a literal as a
/// scalar (`v` null) when `scalar_ok` (so at most one side is a scalar), a
/// dense f64 column in place, else evaluated into a temporary that is not
/// zero-filled.
struct Operand {
  const double* v = nullptr;
  double scalar = 0;
  std::unique_ptr<double[]> tmp;

  Operand(const Expr& e, const memory::Batch& b, bool scalar_ok) {
    if (scalar_ok && LiteralValue(e, &scalar)) return;
    if (const auto* col = DenseColumn(e, b, storage::DataType::kFloat64)) {
      v = col->f64().data();
      return;
    }
    tmp = std::make_unique_for_overwrite<double[]>(b.rows);
    VecInto(e, b, tmp.get());
    v = tmp.get();
  }
};

void VecInto(const Expr& e, const memory::Batch& b, double* out) {
  const size_t rows = b.rows;
  switch (e.kind()) {
    case ExprKind::kColRef:
      CastColumn(b, e.col_index(), out);
      return;
    case ExprKind::kLitInt:
      std::fill(out, out + rows, static_cast<double>(e.int_value()));
      return;
    case ExprKind::kLitDouble:
      std::fill(out, out + rows, e.double_value());
      return;
    case ExprKind::kNot: {
      VecInto(*e.children()[0], b, out);
      for (size_t i = 0; i < rows; ++i) out[i] = out[i] == 0 ? 1 : 0;
      return;
    }
    default: {
      const Operand l(*e.children()[0], b, true);
      const Operand r(*e.children()[1], b, l.v != nullptr);
      const BinOp op = ToBinOp(e.kind());
      if (l.v == nullptr) {
        codegen::kernels::BinaryOpF64(op, l.scalar, r.v, rows, out);
      } else if (r.v == nullptr) {
        codegen::kernels::BinaryOpF64(op, l.v, r.scalar, rows, out);
      } else {
        codegen::kernels::BinaryOpF64(op, l.v, r.v, rows, out);
      }
      return;
    }
  }
}

/// The fused filter fast path: `col <cmp> literal` (either operand order)
/// selects straight off the typed column span with no intermediate buffer.
/// Returns false when the predicate doesn't have that shape.
bool TrySelectCmp(const Expr& e, const memory::Batch& b, const uint32_t* cand,
                  size_t n, uint32_t* out, size_t* kept) {
  if (!IsComparison(e.kind())) return false;
  const Expr* lhs = e.children()[0].get();
  const Expr* rhs = e.children()[1].get();
  BinOp op = ToBinOp(e.kind());
  double lit = 0;
  if (lhs->kind() == ExprKind::kColRef && LiteralValue(*rhs, &lit)) {
    // col op lit
  } else if (rhs->kind() == ExprKind::kColRef && LiteralValue(*lhs, &lit)) {
    op = FlipComparison(op);
    lhs = rhs;
  } else {
    return false;
  }
  const storage::Column& col = *b.columns[lhs->col_index()];
  const memory::Selection* col_sel = b.selection(lhs->col_index());
  const uint32_t* rows = col_sel == nullptr ? nullptr : col_sel->data();
  using storage::DataType;
  switch (col.type()) {
    case DataType::kInt32:
      *kept = codegen::kernels::SelectCmpI32(col.i32().data(), op, lit, n, out,
                                             rows, cand);
      break;
    case DataType::kInt64:
      *kept = codegen::kernels::SelectCmpI64(col.i64().data(), op, lit, n, out,
                                             rows, cand);
      break;
    case DataType::kFloat64:
      *kept = codegen::kernels::SelectCmpF64(col.f64().data(), op, lit, n, out,
                                             rows, cand);
      break;
  }
  return true;
}

/// Writes the candidates (as in the select kernels) at which `e` is nonzero
/// to out, in order, and returns their count. An `And` selects on its left
/// conjunct, then evaluates its right one on the survivors only; any other
/// non-fused predicate is evaluated on the candidates (NaN is kept).
size_t SelectInto(const Expr& e, const memory::Batch& b, const uint32_t* cand,
                  size_t n, uint32_t* out) {
  if (n == 0) return 0;
  if (e.kind() == ExprKind::kAnd) {
    const size_t m = SelectInto(*e.children()[0], b, cand, n, out);
    return SelectInto(*e.children()[1], b, out, m, out);
  }
  size_t kept = 0;
  if (TrySelectCmp(e, b, cand, n, out, &kept)) return kept;
  memory::Batch survivors = b;
  if (cand != nullptr) {
    memory::SelectRows(&survivors, memory::Selection(cand, cand + n));
  }
  const std::vector<double> v = Eval::Doubles(e, survivors);
  return codegen::kernels::SelectNonZero(v.data(), n, out, cand);
}

}  // namespace

double Eval::ScalarDouble(const Expr& e, const memory::Batch& b, size_t i) {
  switch (e.kind()) {
    case ExprKind::kColRef:
      return b.columns[e.col_index()]->GetDouble(
          memory::Row(b.selection(e.col_index()), i));
    case ExprKind::kLitInt:
      return static_cast<double>(e.int_value());
    case ExprKind::kLitDouble:
      return e.double_value();
    case ExprKind::kNot:
      return ScalarDouble(*e.children()[0], b, i) == 0 ? 1 : 0;
    default:
      return ApplyArith(e.kind(), ScalarDouble(*e.children()[0], b, i),
                        ScalarDouble(*e.children()[1], b, i));
  }
}

std::vector<double> Eval::Doubles(const Expr& e, const memory::Batch& b) {
  // An emptied packet may have broken out of its stage chain before later
  // stages appended their columns; a referenced column then does not exist
  // yet, so never touch the layout when there are no rows (generated
  // kernels simply don't run for empty packets).
  if (b.rows == 0) return {};
  if (!codegen::VectorizedPlane()) return ScalarDoubles(e, b);
  std::vector<double> out(b.rows);
  VecInto(e, b, out.data());
  return out;
}

std::vector<int64_t> Eval::Ints(const Expr& e, const memory::Batch& b) {
  if (b.rows == 0) return {};  // see Doubles: the column may not exist yet
  if (e.kind() == ExprKind::kColRef) {
    std::vector<int64_t> out(b.rows);
    if (codegen::VectorizedPlane()) {
      CastColumn(b, e.col_index(), out.data());
      return out;
    }
    const auto& col = *b.columns[e.col_index()];
    const memory::Selection* sel = b.selection(e.col_index());
    for (size_t i = 0; i < b.rows; ++i) {
      out[i] = col.GetInt(memory::Row(sel, i));
    }
    return out;
  }
  auto d = Doubles(e, b);
  std::vector<int64_t> out(b.rows);
  for (size_t i = 0; i < b.rows; ++i) out[i] = storage::DoubleToInt64(d[i]);
  return out;
}

std::span<const int64_t> Eval::IntsInPlace(const Expr& e,
                                           const memory::Batch& b,
                                           std::vector<int64_t>* scratch) {
  if (b.rows == 0) return {};  // see Doubles: the column may not exist yet
  if (const auto* col = DenseColumn(e, b, storage::DataType::kInt64)) {
    return col->i64().first(b.rows);
  }
  *scratch = Ints(e, b);
  return *scratch;
}

std::vector<uint32_t> Eval::SelectedRows(const Expr& e,
                                         const memory::Batch& b) {
  if (codegen::VectorizedPlane() && b.rows > 0) {
    std::vector<uint32_t> sel(b.rows);
    sel.resize(SelectInto(e, b, nullptr, b.rows, sel.data()));
    return sel;
  }
  auto v = Doubles(e, b);
  std::vector<uint32_t> sel;
  sel.reserve(b.rows / 4);
  for (size_t i = 0; i < b.rows; ++i) {
    if (v[i] != 0) sel.push_back(static_cast<uint32_t>(i));
  }
  return sel;
}

}  // namespace hape::expr
