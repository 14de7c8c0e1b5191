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
/// chains of a QueryPlan, bottom-up in dependency order. Collects a scanned
/// table's statistics into `stats` on first sight, and again only when its
/// row count changed; the scale a scan runs at does not enter them.
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
