#ifndef HAPE_ENGINE_SINKS_H_
#define HAPE_ENGINE_SINKS_H_

#include <map>
#include <memory>
#include <vector>

#include "codegen/kernels.h"
#include "engine/join_state.h"
#include "engine/pipeline.h"
#include "expr/expr.h"

namespace hape::engine {

/// Materializes result packets (the mem-move / device-crossing boundary of
/// a broken plan, or the query result itself).
class CollectSink final : public Sink {
 public:
  void Consume(int worker, memory::Batch&& batch, sim::TrafficStats* traffic,
               const codegen::Backend& backend) override;
  std::vector<memory::Batch>& batches() { return batches_; }
  uint64_t total_rows() const;

 private:
  std::vector<memory::Batch> batches_;
};

/// Builds a shared JoinState (HyPer-style: all workers insert into one
/// table; the engine charges the atomics that guarantees correctness).
class BuildSink final : public Sink {
 public:
  /// `key_expr` yields the build key; `payload_cols` index the consumed
  /// packets' columns to keep as the carried payload.
  BuildSink(JoinStatePtr state, expr::ExprPtr key_expr,
            std::vector<int> payload_cols);

  void Consume(int worker, memory::Batch&& batch, sim::TrafficStats* traffic,
               const codegen::Backend& backend) override;
  void Finish(sim::TrafficStats* traffic) override;
  void RemapColumns(const std::vector<int>& old_to_new) override;
  bool SupportsColumnRemap() const override { return true; }

  const JoinStatePtr& state() const { return state_; }

 private:
  JoinStatePtr state_;
  expr::ExprPtr key_expr_;
  std::vector<int> payload_cols_;
  bool payload_initialized_ = false;
};

enum class AggOp { kSum, kCount, kMin, kMax };

struct AggDef {
  AggOp op;
  expr::ExprPtr arg;  // ignored for kCount (may be null)
};

/// Group-by aggregation sink. `key_expr` evaluates to one int64 group key
/// per tuple (compose multi-column keys arithmetically, as generated code
/// does); nullptr aggregates everything into a single group. Each worker
/// keeps a private partial table (group counts in the evaluated queries are
/// tiny, so partials are cache-resident); Finish() merges them, charging
/// the merge.
class HashAggSink final : public Sink {
 public:
  HashAggSink(expr::ExprPtr key_expr, std::vector<AggDef> aggs);

  void Consume(int worker, memory::Batch&& batch, sim::TrafficStats* traffic,
               const codegen::Backend& backend) override;
  void Finish(sim::TrafficStats* traffic) override;
  void RemapColumns(const std::vector<int>& old_to_new) override;
  bool SupportsColumnRemap() const override { return true; }

  /// Merged result: group key -> aggregate values (in AggDef order).
  const std::map<int64_t, std::vector<double>>& result() const {
    return result_;
  }
  uint64_t num_groups() const { return result_.size(); }

  /// Declarative view for plan serialization (current state — the plan
  /// optimizer may have remapped column references).
  const expr::ExprPtr& key_expr() const { return key_expr_; }
  const std::vector<AggDef>& aggs() const { return aggs_; }

 private:
  /// Vectorized-plane partial: open-addressing group index plus a flat
  /// slot-major accumulator array (aggs_.size() doubles per group). Merged
  /// values are bit-identical to the ordered-map partials because each
  /// (group, agg) cell sees the same updates in the same row order.
  struct VecPartial {
    codegen::kernels::GroupIndex index;
    std::vector<double> accs;
  };

  /// Grouped accumulate on the vectorized plane. `keys` is null for the
  /// single global group.
  void AccumulateVectorized(int worker, size_t rows, const int64_t* keys,
                            const std::vector<std::vector<double>>& args);

  expr::ExprPtr key_expr_;
  std::vector<AggDef> aggs_;
  std::map<int, std::map<int64_t, std::vector<double>>> partials_;
  std::map<int, VecPartial> vec_partials_;
  std::map<int64_t, std::vector<double>> result_;
};

}  // namespace hape::engine

#endif  // HAPE_ENGINE_SINKS_H_
