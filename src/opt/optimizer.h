#ifndef HAPE_OPT_OPTIMIZER_H_
#define HAPE_OPT_OPTIMIZER_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "engine/plan.h"
#include "engine/policy.h"
#include "opt/cardinality.h"
#include "opt/stats.h"
#include "sim/topology.h"

namespace hape::opt {

/// Coarse analytic cost model of the optimizer's per-pipeline estimates:
/// aggregate streaming bandwidth and per-tuple compute rate of a device
/// set, with GPU input throttled to the interconnect it sits behind.
/// Deliberately much simpler than the executor's traffic model — it ranks
/// alternatives, it does not predict absolute times.
class CostModel {
 public:
  /// Seconds to stream `nominal_bytes` and retire `nominal_ops` simple
  /// per-tuple operations on `devices` (empty set: +inf).
  ///
  /// Under the async executor (depth >= 1) prefetched staging hides the
  /// interconnect round-trip that the synchronous model charges as fixed
  /// GPU setup, so offloading small pipelines breaks even earlier.
  ///
  /// Under fair-share multi-query scheduling the query holds only
  /// `device_share` of the *CPU pool* — the engine's default compute
  /// target, which every admitted query's probe work time-shares — so CPU
  /// streaming bandwidth and compute rate scale down by the share. GPU
  /// throughput, link ingest, and fixed setup (kernel launch) are
  /// deliberately NOT scaled: accelerators sit idle unless placement
  /// offloads to them. A share outside (0, 1) prices as 1.0, the query
  /// owning the machine.
  static double PipelineSeconds(const sim::Topology& topo,
                                const std::vector<int>& devices,
                                uint64_t nominal_bytes, uint64_t nominal_ops,
                                const engine::AsyncOptions& async = {},
                                double device_share = 1.0);
};

/// Result of one Engine::Optimize pass. Every decision (estimates, bucket
/// counts, heavy marks, the permuted op chains) is written into the plan;
/// this keeps only what the permuted plan no longer shows.
struct OptimizeResult {
  /// Per pipeline (indexed like the plan's pipelines), the execution order
  /// of its logical ops as original op indices (identity when nothing was
  /// reordered).
  std::vector<std::vector<int>> op_order;
};

/// The cost-based plan optimizer: statistics -> cardinality estimates ->
/// join ordering / build sizing / heavy marks / cost estimates, applied in
/// place to a QueryPlan before the Engine runs it. All decisions the
/// BuildOptions annotations can hand-declare are derived here (the paper's
/// thesis: heterogeneity decisions belong to the engine, not the plans).
/// Placement stays the policy's device set (the paper's configurations
/// are a placement statement), so optimized plans cost exactly what the
/// hand-declared ones do.
class Optimizer {
 public:
  /// `stats` is a caller-owned catalog reused across plans: tables are
  /// immutable, so the Engine collects each one there once.
  Optimizer(const sim::Topology* topo, StatsCatalog* stats)
      : topo_(topo), estimator_(stats) {}

  /// Optimize `plan` for execution under `policy`. Idempotent; it edits
  /// only the plan's ops, terminal specs and estimates, so the next run of
  /// the plan uses them.
  Result<OptimizeResult> OptimizePlan(engine::QueryPlan* plan,
                                      const engine::ExecutionPolicy& policy);

  /// Dependency-constrained join/filter ordering for one pipeline:
  /// minimizes the weighted intermediate row flow
  /// sum_i weights[i] * rows_in(i), given per-op output factors
  /// (`factors[i]` = out/in of original op `i`, order-invariant) and
  /// per-tuple processing weights. `deps[i]` lists the ops whose appended
  /// columns op `i` references. Exact DP up to 8 probes (and 16 ops),
  /// greedy beyond; cost ties reconstruct the original declaration order.
  /// Exposed for unit tests.
  static std::vector<int> OrderOps(const std::vector<double>& factors,
                                   const std::vector<double>& weights,
                                   const std::vector<std::vector<int>>& deps,
                                   int num_probes);

 private:
  Status ReorderNode(engine::QueryPlan* plan, int node_idx,
                     const PlanEstimate& est, std::vector<int>* order);
  void ApplyOrder(engine::QueryPlan* plan, int node_idx,
                  const std::vector<int>& order);
  double EstimateSeconds(const engine::QueryPlan& plan, int node_idx,
                         const engine::ExecutionPolicy& policy,
                         const PlanEstimate& est) const;

  const sim::Topology* topo_;
  CardinalityEstimator estimator_;
};

}  // namespace hape::opt

#endif  // HAPE_OPT_OPTIMIZER_H_
