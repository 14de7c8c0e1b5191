#include "opt/cardinality.h"

#include <algorithm>
#include <memory>

#include "common/logging.h"

namespace hape::opt {

using engine::LogicalOp;
using engine::PlanNode;
using engine::QueryPlan;

Status CardinalityEstimator::EstimateNode(const QueryPlan& plan, int node_idx,
                                          PlanEstimate* est) {
  const PlanNode& node = plan.node(node_idx);
  NodeEstimate& ne = est->nodes[node_idx];

  // Statistics describe the stored rows, whatever scale a plan runs the
  // table at (shared catalogs outlive single plans). Binding names the
  // scanned columns; an estimate that reads one scans it.
  const std::shared_ptr<const TableStats> table =
      stats_->Entry(node.source_table);

  ne.source_rows = static_cast<double>(node.source_rows());
  ne.binding = BindColumns(table, node.source_columns);

  double rows = ne.source_rows;
  ne.ops.clear();
  ne.ops.reserve(node.ops.size());
  for (const LogicalOp& op : node.ops) {
    OpEstimate oe;
    oe.in_rows = rows;
    switch (op.kind) {
      case LogicalOp::Kind::kFilter:
        oe.factor = EstimateSelectivity(*op.expr, ne.binding);
        break;
      case LogicalOp::Kind::kProject:
        oe.factor = 1.0;
        ne.binding.assign(op.exprs.size(), StatsRef{});
        break;
      case LogicalOp::Kind::kProbe: {
        const int build = op.build;
        if (build < 0 || build >= static_cast<int>(plan.num_pipelines()) ||
            !plan.node(build).is_build()) {
          return Status::InvalidArgument(
              "pipeline '" + node.name +
              "' probes a hash table with no build node");
        }
        const NodeEstimate& be = est->nodes[build];
        // PK-FK containment estimate: the build holds be.out_rows of the
        // key domain's key_domain_ndv values, so each probe tuple matches
        // out/ndv build tuples on average.
        oe.factor = be.key_domain_ndv > 0
                        ? be.out_rows / be.key_domain_ndv
                        : 1.0;
        // Append the build payload columns' stats to the layout binding.
        const PlanNode& bn = plan.node(build);
        for (int payload_col : bn.terminal.payload) {
          const StatsBinding& bb = be.binding;
          ne.binding.push_back(
              payload_col < static_cast<int>(bb.size()) ? bb[payload_col]
                                                        : StatsRef{});
        }
        break;
      }
    }
    rows *= oe.factor;
    oe.out_rows = rows;
    ne.ops.push_back(oe);
  }

  ne.out_rows = rows;
  ne.selectivity = ne.source_rows > 0 ? rows / ne.source_rows : 1.0;

  if (node.is_build() && node.terminal.key != nullptr) {
    // The key's domain size comes from the *unfiltered* source binding:
    // probes reference the full domain even when the build filtered it.
    ne.key_domain_ndv = static_cast<double>(EstimateKeyNdv(
        *node.terminal.key, BindColumns(table, node.source_columns),
        std::max<uint64_t>(1, static_cast<uint64_t>(ne.source_rows))));
  }
  return Status::OK();
}

Result<PlanEstimate> CardinalityEstimator::EstimatePlan(const QueryPlan& plan) {
  auto order = plan.TopologicalOrder();
  if (!order.ok()) return order.status();
  PlanEstimate est;
  est.nodes.resize(plan.num_pipelines());
  for (int idx : order.value()) {
    if (Status st = EstimateNode(plan, idx, &est); !st.ok()) return st;
  }
  return est;
}

}  // namespace hape::opt
