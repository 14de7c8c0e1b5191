#ifndef HAPE_OPT_CARDINALITY_H_
#define HAPE_OPT_CARDINALITY_H_

#include <vector>

#include "common/status.h"
#include "engine/plan.h"
#include "opt/stats.h"

namespace hape::opt {

/// Estimate for one logical op of a pipeline chain.
struct OpEstimate {
  double in_rows = 0;   // rows entering the op (actual scale)
  double out_rows = 0;  // rows leaving it
  /// out/in: filter selectivity or per-tuple join match rate.
  double factor = 1.0;
};

/// Estimate for one pipeline of a plan.
struct NodeEstimate {
  double source_rows = 0;  // actual rows fed by the source
  double out_rows = 0;     // actual rows reaching the sink
  double selectivity = 1.0;  // out/source
  std::vector<OpEstimate> ops;  // aligned with PlanNode::ops
  /// Column-stats binding of the pipeline's final packet layout (base scan
  /// columns plus appended build payloads).
  StatsBinding binding;
  /// For build pipelines: estimated distinct build keys over the
  /// *unfiltered* source domain. A probe of this table matches
  /// out_rows / key_domain_ndv build tuples per probe tuple (the PK-FK
  /// containment estimate).
  double key_domain_ndv = 0;
};

/// Whole-plan estimate, indexed like the plan's nodes.
struct PlanEstimate {
  std::vector<NodeEstimate> nodes;
};

/// Propagates cardinality estimates through the filter/probe/aggregate
/// chains of a QueryPlan, bottom-up in dependency order. A scanned table
/// gets its entry in `stats` on first sight (anew only when its row count
/// changed), and a column of it is scanned only when an estimate reads it:
/// a filter's column, a build key's column. The scale a scan runs at does
/// not enter statistics.
class CardinalityEstimator {
 public:
  explicit CardinalityEstimator(StatsCatalog* stats) : stats_(stats) {}

  Result<PlanEstimate> EstimatePlan(const engine::QueryPlan& plan);

  /// Estimate one node given the estimates of every node it depends on
  /// (out parameters already filled in `est` for those).
  Status EstimateNode(const engine::QueryPlan& plan, int node,
                      PlanEstimate* est);

 private:
  StatsCatalog* stats_;
};

}  // namespace hape::opt

#endif  // HAPE_OPT_CARDINALITY_H_
