#include "engine/plan.h"

#include <algorithm>

#include "common/logging.h"
#include "lint/diagnostic.h"

namespace hape::engine {

// ---- PipelineBuilder --------------------------------------------------------

PlanNode& PipelineBuilder::node() { return plan_->nodes_[node_]; }

PipelineBuilder& PipelineBuilder::Named(std::string name) {
  node().pipeline.name = std::move(name);
  return *this;
}

PipelineBuilder& PipelineBuilder::Scale(double scale) {
  node().pipeline.scale = scale;
  return *this;
}

PipelineBuilder& PipelineBuilder::Filter(expr::ExprPtr pred) {
  node().pipeline.stages.push_back(FilterStage(pred));
  LogicalOp op;
  op.kind = LogicalOp::Kind::kFilter;
  op.expr = std::move(pred);
  node().ops.push_back(std::move(op));
  return *this;
}

PipelineBuilder& PipelineBuilder::Project(std::vector<expr::ExprPtr> exprs) {
  node().pipeline.stages.push_back(ProjectStage(exprs));
  LogicalOp op;
  op.kind = LogicalOp::Kind::kProject;
  op.exprs = std::move(exprs);
  node().ops.push_back(std::move(op));
  return *this;
}

PipelineBuilder& PipelineBuilder::Probe(const BuildHandle& build,
                                        expr::ExprPtr key) {
  HAPE_CHECK(build.state() != nullptr)
      << "pipeline '" << node().pipeline.name
      << "' probes an empty build handle";
  node().pipeline.stages.push_back(ProbeStage(build.state(), key));
  node().probed.push_back(build.state());
  LogicalOp op;
  op.kind = LogicalOp::Kind::kProbe;
  op.expr = std::move(key);
  op.probe_state = build.state();
  // Foreign handles (pipeline id from another plan) are rejected later by
  // QueryPlan::Validate; guard the metadata lookup here.
  const bool own_handle =
      build.pipeline() >= 0 &&
      build.pipeline() < static_cast<int>(plan_->nodes_.size()) &&
      plan_->nodes_[build.pipeline()].built_state == build.state();
  op.appended_cols =
      own_handle
          ? static_cast<int>(plan_->nodes_[build.pipeline()].build_payload.size())
          : 0;
  node().ops.push_back(std::move(op));
  return After(build.pipeline());
}

PipelineBuilder& PipelineBuilder::After(int pipeline_id) {
  auto& deps = node().deps;
  if (std::find(deps.begin(), deps.end(), pipeline_id) == deps.end()) {
    deps.push_back(pipeline_id);
  }
  return *this;
}

PipelineBuilder& PipelineBuilder::OnDevices(std::vector<int> device_ids) {
  node().run_on = std::move(device_ids);
  return *this;
}

BuildHandle PipelineBuilder::HashBuild(expr::ExprPtr key,
                                       std::vector<int> payload_cols,
                                       const BuildOptions& opts) {
  PlanNode& n = node();
  HAPE_CHECK(n.pipeline.sink == nullptr)
      << "pipeline '" << n.pipeline.name << "' already has a sink";
  // A declared cardinality is an explicit override; without one the table
  // is sized for the full source until Engine::Optimize re-buckets it from
  // its cardinality estimate. A declaration past the source is Validate's
  // error, and sizes no more than the source meanwhile.
  const size_t sizing_rows =
      opts.expected_rows > 0
          ? static_cast<size_t>(
                std::min<uint64_t>(opts.expected_rows, n.source_rows))
          : n.source_rows;
  auto state = std::make_shared<JoinState>(sizing_rows + 16);
  n.pipeline.sink = std::make_unique<BuildSink>(state, key, payload_cols);
  n.is_build = true;
  n.heavy_build = opts.heavy;
  n.built_state = state;
  n.declared_build_rows = opts.expected_rows;
  n.build_key = std::move(key);
  n.build_payload = std::move(payload_cols);
  BuildHandle h;
  h.pipeline_ = node_;
  h.state_ = std::move(state);
  return h;
}

AggHandle PipelineBuilder::Aggregate(expr::ExprPtr key,
                                     std::vector<AggDef> aggs) {
  PlanNode& n = node();
  HAPE_CHECK(n.pipeline.sink == nullptr)
      << "pipeline '" << n.pipeline.name << "' already has a sink";
  auto sink = std::make_unique<HashAggSink>(std::move(key), std::move(aggs));
  AggHandle h;
  h.pipeline_ = node_;
  h.sink_ = sink.get();
  n.pipeline.sink = std::move(sink);
  return h;
}

CollectHandle PipelineBuilder::Collect() {
  PlanNode& n = node();
  HAPE_CHECK(n.pipeline.sink == nullptr)
      << "pipeline '" << n.pipeline.name << "' already has a sink";
  auto sink = std::make_unique<CollectSink>();
  CollectHandle h;
  h.pipeline_ = node_;
  h.sink_ = sink.get();
  n.pipeline.sink = std::move(sink);
  return h;
}

// ---- PlanBuilder ------------------------------------------------------------

PipelineBuilder PlanBuilder::Scan(const storage::TablePtr& table,
                                  const std::vector<std::string>& columns,
                                  size_t chunk_rows) {
  std::vector<storage::ColumnPtr> selected;
  selected.reserve(columns.size());
  for (const auto& name : columns) selected.push_back(table->column(name));
  PlanNode node;
  node.pipeline.name = table->name();
  node.pipeline.inputs = memory::ChunkColumns(
      selected, table->num_rows(), chunk_rows, table->home_node());
  node.source_rows = table->num_rows();
  node.source_table = table;
  node.source_columns = columns;
  node.source_chunk_rows = chunk_rows;
  node.pipeline.stages.push_back(ScanStage());
  nodes_.push_back(std::move(node));
  return PipelineBuilder(this, static_cast<int>(nodes_.size()) - 1);
}

PipelineBuilder PlanBuilder::Source(std::string name,
                                    std::vector<memory::Batch> inputs,
                                    const SourceOptions& opts) {
  PlanNode node;
  node.pipeline.name = std::move(name);
  for (const auto& b : inputs) node.source_rows += b.rows;
  node.pipeline.inputs = std::move(inputs);
  node.pipeline.scale = opts.scale;
  node.pipeline.charge_source_read = opts.charge_source_read;
  if (opts.charge_source_read) {
    node.pipeline.stages.push_back(ScanStage());
  }
  nodes_.push_back(std::move(node));
  return PipelineBuilder(this, static_cast<int>(nodes_.size()) - 1);
}

PlanBuilder& PlanBuilder::DeclareMaterializedIntermediate(
    uint64_t nominal_bytes, std::string label) {
  intermediate_bytes_ = nominal_bytes;
  intermediate_label_ = std::move(label);
  return *this;
}

QueryPlan PlanBuilder::Build() && {
  QueryPlan plan;
  plan.name_ = std::move(name_);
  plan.intermediate_bytes_ = intermediate_bytes_;
  plan.intermediate_label_ = std::move(intermediate_label_);
  for (const PlanNode& n : nodes_) {
    if (n.built_state != nullptr) plan.built_.insert(n.built_state.get());
  }
  plan.nodes_ = std::move(nodes_);
  return plan;
}

// ---- QueryPlan --------------------------------------------------------------

int QueryPlan::BuildNodeOf(const JoinState* state) const {
  for (size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].built_state.get() == state) return static_cast<int>(i);
  }
  return -1;
}

namespace {

Status Reject(const char** rule, const char* code, const std::string& what) {
  if (rule != nullptr) *rule = code;
  return Status::InvalidArgument(what);
}

Status CheckWidth(const expr::ExprPtr& e, int width, const std::string& id,
                  const char* what) {
  if (e == nullptr || e->MaxColumn() < width) return Status::OK();
  return Status::InvalidArgument(
      id + ": " + what + " references column $" +
      std::to_string(e->MaxColumn()) + " but the packet layout has " +
      std::to_string(width) + " columns here");
}

/// The packet-width walk. The executor indexes packet columns unchecked,
/// so an out-of-layout reference must be rejected before anything runs.
Status CheckPacketWidths(const PlanNode& node, const std::string& id) {
  if (node.source_table == nullptr) return Status::OK();
  int width = static_cast<int>(node.source_columns.size());
  for (const LogicalOp& op : node.ops) {
    switch (op.kind) {
      case LogicalOp::Kind::kFilter:
        HAPE_RETURN_NOT_OK(CheckWidth(op.expr, width, id, "filter"));
        break;
      case LogicalOp::Kind::kProject:
        for (const expr::ExprPtr& e : op.exprs) {
          HAPE_RETURN_NOT_OK(CheckWidth(e, width, id, "projection"));
        }
        width = static_cast<int>(op.exprs.size());
        break;
      case LogicalOp::Kind::kProbe:
        // The key addresses the packet before the probe appends the build
        // side's payload.
        HAPE_RETURN_NOT_OK(CheckWidth(op.expr, width, id, "probe key"));
        width += op.appended_cols;
        break;
    }
  }
  if (node.is_build) {
    HAPE_RETURN_NOT_OK(CheckWidth(node.build_key, width, id, "build key"));
    for (int c : node.build_payload) {
      if (c < 0 || c >= width) {
        return Status::InvalidArgument(
            id + ": payload column $" + std::to_string(c) +
            " is outside the packet layout (width " + std::to_string(width) +
            ")");
      }
    }
  } else if (const auto* agg =
                 dynamic_cast<const HashAggSink*>(node.pipeline.sink.get())) {
    HAPE_RETURN_NOT_OK(CheckWidth(agg->key_expr(), width, id, "aggregate key"));
    for (const AggDef& a : agg->aggs()) {
      HAPE_RETURN_NOT_OK(CheckWidth(a.arg, width, id, "aggregate arg"));
    }
  }
  return Status::OK();
}

}  // namespace

Status QueryPlan::Validate(const sim::Topology* topo, const char** rule) const {
  if (nodes_.empty()) {
    return Reject(rule, lint::kRuleDanglingEdge,
                  "plan '" + name_ + "' has no pipelines");
  }
  const int n = static_cast<int>(nodes_.size());
  for (int i = 0; i < n; ++i) {
    const PlanNode& node = nodes_[i];
    const std::string id = "pipeline '" + node.pipeline.name + "' (#" +
                           std::to_string(i) + ")";
    if (node.pipeline.sink == nullptr) {
      return Reject(rule, lint::kRuleDanglingEdge, id + " has no sink");
    }
    if (node.pipeline.stages.empty()) {
      return Reject(rule, lint::kRuleDanglingEdge,
                    id + " has an empty stage chain");
    }
    for (int d : node.deps) {
      if (d < 0 || d >= n) {
        return Reject(rule, lint::kRuleDanglingEdge,
                      id + " depends on unknown pipeline #" +
                          std::to_string(d));
      }
    }
    for (const JoinStatePtr& s : node.probed) {
      if (!OwnsState(s.get())) {
        return Reject(rule, lint::kRuleDanglingEdge,
                      id + " probes a hash table not built by this plan");
      }
    }
    if (topo != nullptr) {
      const int ndev = static_cast<int>(topo->devices().size());
      for (int d : node.run_on) {
        if (d < 0 || d >= ndev) {
          return Reject(rule, lint::kRuleInfeasiblePlacement,
                        id + " targets unknown device id " +
                            std::to_string(d));
        }
      }
    }
    if (Status st = CheckPacketWidths(node, id); !st.ok()) {
      return Reject(rule, lint::kRuleColumnOutOfRange, st.message());
    }
    if (node.declared_build_rows > node.source_rows) {
      return Reject(rule, lint::kRuleInvalidParameter,
                    id + " declares " +
                        std::to_string(node.declared_build_rows) +
                        " build rows but its source has " +
                        std::to_string(node.source_rows));
    }
  }
  auto order = TopologicalOrder();
  if (!order.ok()) {
    return Reject(rule, lint::kRuleCyclicPlan, order.status().message());
  }
  return Status::OK();
}

Result<std::vector<int>> QueryPlan::TopologicalOrder() const {
  const int n = static_cast<int>(nodes_.size());
  std::vector<char> done(n, 0);
  std::vector<int> order;
  order.reserve(n);
  while (static_cast<int>(order.size()) < n) {
    int pick = -1;
    for (int i = 0; i < n && pick < 0; ++i) {
      if (done[i]) continue;
      bool ready = true;
      for (int d : nodes_[i].deps) {
        if (d < 0 || d >= n || !done[d]) {
          ready = false;
          break;
        }
      }
      if (ready) pick = i;
    }
    if (pick < 0) {
      return Status::InvalidArgument("dependency cycle among pipelines of '" +
                                     name_ + "'");
    }
    done[pick] = 1;
    order.push_back(pick);
  }
  return order;
}

}  // namespace hape::engine
