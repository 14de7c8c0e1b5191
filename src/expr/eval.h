#ifndef HAPE_EXPR_EVAL_H_
#define HAPE_EXPR_EVAL_H_

#include <cstdint>
#include <span>
#include <vector>

#include "expr/expr.h"
#include "memory/batch.h"

namespace hape::expr {

/// Vectorized expression evaluation over a Batch. The fused-pipeline
/// backends call these on full packets; the DBMS C baseline calls them once
/// per operator pass (which is exactly its modeled inefficiency).
class Eval {
 public:
  /// Evaluate to a double per row.
  static std::vector<double> Doubles(const Expr& e, const memory::Batch& b);
  /// Evaluate to an int64 per row (comparisons/booleans yield 0/1; a
  /// double converts by storage::DoubleToInt64).
  static std::vector<int64_t> Ints(const Expr& e, const memory::Batch& b);
  /// Ints(e, b): a dense int64 column read in place, else evaluated into
  /// `*scratch`.
  static std::span<const int64_t> IntsInPlace(const Expr& e,
                                              const memory::Batch& b,
                                              std::vector<int64_t>* scratch);
  /// Row indices for which the predicate is non-zero. The vectorized plane
  /// evaluates each conjunct of an `And` only on the rows the ones before
  /// it kept.
  static std::vector<uint32_t> SelectedRows(const Expr& e,
                                            const memory::Batch& b);
  /// Scalar evaluation of row `i` (reference implementations and tests).
  static double ScalarDouble(const Expr& e, const memory::Batch& b, size_t i);
};

}  // namespace hape::expr

#endif  // HAPE_EXPR_EVAL_H_
