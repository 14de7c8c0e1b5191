#ifndef HAPE_ENGINE_STAGES_H_
#define HAPE_ENGINE_STAGES_H_

#include <vector>

#include "engine/join_state.h"
#include "engine/pipeline.h"
#include "expr/expr.h"

namespace hape::engine {

/// Source stage of a table-scan pipeline: charges the sequential read of the
/// packet from the worker's local memory. (Remote packets are moved by the
/// executor's mem-move before the pipeline runs.)
Stage ScanStage();

/// Fused selection: evaluates `pred` per tuple and narrows the packet's
/// selections to the survivors (memory::SelectRows); no column is copied.
/// Costs predicate ops only — survivors stay in registers (JIT fusion).
Stage FilterStage(expr::ExprPtr pred);

/// Fused projection: replaces the packet's columns with the given
/// expressions (evaluated in double).
Stage ProjectStage(std::vector<expr::ExprPtr> exprs);

/// Fused hash-join probe against `state`. The probe key is
/// `key_expr` (often a plain column, sometimes a composite such as
/// partkey * S + suppkey). Non-matching tuples are dropped (inner join) by
/// narrowing the packet's selections; the build's payload columns are
/// appended uncopied, read through one selection of the matched build rows.
Stage ProbeStage(JoinStatePtr state, expr::ExprPtr key_expr);

}  // namespace hape::engine

#endif  // HAPE_ENGINE_STAGES_H_
