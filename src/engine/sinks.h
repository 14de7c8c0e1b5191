#ifndef HAPE_ENGINE_SINKS_H_
#define HAPE_ENGINE_SINKS_H_

#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "codegen/kernels.h"
#include "engine/join_state.h"
#include "engine/pipeline.h"
#include "expr/expr.h"

namespace hape::engine {

/// Rows over all of `batches`.
uint64_t TotalRows(const std::vector<memory::Batch>& batches);

/// Materializes result packets (the mem-move / device-crossing boundary of
/// a broken plan, or the query result itself) into `out`, a result cell a
/// plan's CollectHandle may share. It gathers each column that arrives
/// through a selection, so the stored packets are dense.
class CollectSink final : public Sink {
 public:
  explicit CollectSink(std::shared_ptr<std::vector<memory::Batch>> out =
                           std::make_shared<std::vector<memory::Batch>>())
      : batches_(std::move(out)) {}

  void Consume(int worker, memory::Batch&& batch, sim::TrafficStats* traffic,
               const codegen::Backend& backend) override;
  uint64_t total_rows() const { return TotalRows(*batches_); }

 private:
  std::shared_ptr<std::vector<memory::Batch>> batches_;
};

/// Builds a shared JoinState, charged as HyPer's build: all workers insert
/// into one chained table, paying a node write and a chain-head atomic per
/// tuple. The host appends each packet's payload rows and keys in commit
/// order; Finish, after the last packet, builds the immutable table from
/// the keys (row i is the i-th key) and charges nothing.
class BuildSink final : public Sink {
 public:
  /// `key_expr` yields the build key; `payload_cols` index the consumed
  /// packets' columns to keep as the carried payload.
  BuildSink(JoinStatePtr state, expr::ExprPtr key_expr,
            std::vector<int> payload_cols);

  void Consume(int worker, memory::Batch&& batch, sim::TrafficStats* traffic,
               const codegen::Backend& backend) override;
  void Finish(sim::TrafficStats* traffic) override;

 private:
  JoinStatePtr state_;
  expr::ExprPtr key_expr_;
  std::vector<int> payload_cols_;
  bool payload_initialized_ = false;
  std::vector<int64_t> keys_;
};

enum class AggOp { kSum, kCount, kMin, kMax };

struct AggDef {
  AggOp op;
  expr::ExprPtr arg;  // ignored for kCount (may be null)
};

/// Merged aggregation result: group key -> aggregate values (AggDef order).
using AggGroups = std::map<int64_t, std::vector<double>>;

/// Group-by aggregation sink. `key_expr` evaluates to one int64 group key
/// per tuple (compose multi-column keys arithmetically, as generated code
/// does); nullptr aggregates everything into a single group. Each worker
/// keeps a private partial table (group counts in the evaluated queries are
/// tiny, so partials are cache-resident); Finish() merges them into
/// `result`, charging the merge. `result` must start empty; it is a result
/// cell a plan's AggHandle may share.
class HashAggSink final : public Sink {
 public:
  HashAggSink(expr::ExprPtr key_expr, std::vector<AggDef> aggs,
              std::shared_ptr<AggGroups> result =
                  std::make_shared<AggGroups>());

  void Consume(int worker, memory::Batch&& batch, sim::TrafficStats* traffic,
               const codegen::Backend& backend) override;
  void Finish(sim::TrafficStats* traffic) override;

  const AggGroups& result() const { return *result_; }
  uint64_t num_groups() const { return result_->size(); }

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
  std::shared_ptr<AggGroups> result_;
};

}  // namespace hape::engine

#endif  // HAPE_ENGINE_SINKS_H_
