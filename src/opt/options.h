#ifndef HAPE_OPT_OPTIONS_H_
#define HAPE_OPT_OPTIONS_H_

#include <cstdint>

namespace hape::opt {

/// Where Engine::Optimize may run each pipeline.
enum class PlacementMode {
  /// Keep the policy's device sets (the paper's configurations are already
  /// a placement statement); the optimizer only records its cost estimate.
  /// This is the compatibility mode: optimized plans cost exactly what the
  /// hand-declared ones do.
  kPolicy,
  /// Pick, per pipeline, the cheapest of {policy devices, its CPU subset,
  /// its GPU subset} under the optimizer's cost model and pin it via
  /// PlanNode::run_on.
  kCostBased,
};

/// Knobs of the cost-based plan optimizer (Engine::Optimize). The defaults
/// are the compatibility configuration: decisions derived purely from
/// statistics that reproduce the hand-declared TPC-H plans' cost sequences.
/// The pass always reorders join probes and filters, sizes build hash tables
/// from the estimate (an explicit BuildOptions::expected_rows wins), and
/// derives heavy-build marks.
struct OptimizerOptions {
  PlacementMode placement = PlacementMode::kPolicy;
  /// A build whose estimated nominal table exceeds this is "heavy": its GPU
  /// probes run the partitioned/co-partitioned flavors (Fig. 9, §5).
  uint64_t heavy_build_threshold_bytes = 256ull << 20;
  /// Exhaustive DP bound; larger join graphs fall back to greedy ordering.
  int dp_max_joins = 8;
};

}  // namespace hape::opt

#endif  // HAPE_OPT_OPTIONS_H_
