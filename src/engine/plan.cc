#include "engine/plan.h"

#include <algorithm>

#include "common/bits.h"
#include "common/logging.h"
#include "lint/diagnostic.h"

namespace hape::engine {

// ---- PipelineBuilder --------------------------------------------------------

PlanNode& PipelineBuilder::node() { return plan_->nodes_[node_]; }

PipelineBuilder& PipelineBuilder::Named(std::string name) {
  node().name = std::move(name);
  return *this;
}

PipelineBuilder& PipelineBuilder::Scale(double scale) {
  node().scale = scale;
  return *this;
}

PipelineBuilder& PipelineBuilder::Filter(expr::ExprPtr pred) {
  node().ops.push_back(
      LogicalOp{LogicalOp::Kind::kFilter, std::move(pred), {}});
  return *this;
}

PipelineBuilder& PipelineBuilder::Project(std::vector<expr::ExprPtr> exprs) {
  node().ops.push_back(
      LogicalOp{LogicalOp::Kind::kProject, nullptr, std::move(exprs)});
  return *this;
}

PipelineBuilder& PipelineBuilder::Probe(const BuildHandle& build,
                                        expr::ExprPtr key) {
  HAPE_CHECK(build.pipeline() >= 0)
      << "pipeline '" << node().name << "' probes an empty build handle";
  if (build.owner_ == plan_->id_) {
    return Probe(build.pipeline(), std::move(key));
  }
  // Another plan's handle names no build of this one: QueryPlan::Validate
  // rejects the probe.
  node().ops.push_back(
      LogicalOp{LogicalOp::Kind::kProbe, std::move(key), {}});
  return *this;
}

PipelineBuilder& PipelineBuilder::Probe(int build_pipeline,
                                        expr::ExprPtr key) {
  node().ops.push_back(
      LogicalOp{LogicalOp::Kind::kProbe, std::move(key), {}, build_pipeline});
  return After(build_pipeline);
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
  HAPE_CHECK(n.terminal.kind == TerminalSpec::Kind::kNone)
      << "pipeline '" << n.name << "' already has a sink";
  n.terminal.kind = TerminalSpec::Kind::kBuild;
  n.terminal.key = std::move(key);
  n.terminal.payload = std::move(payload_cols);
  n.terminal.declared_rows = opts.expected_rows;
  n.terminal.heavy = opts.heavy;
  n.terminal.ht_buckets = NextPow2(n.BuildSizingRows() + 16);
  BuildHandle h;
  h.pipeline_ = node_;
  h.owner_ = plan_->id_;
  return h;
}

AggHandle PipelineBuilder::Aggregate(expr::ExprPtr key,
                                     std::vector<AggDef> aggs) {
  PlanNode& n = node();
  HAPE_CHECK(n.terminal.kind == TerminalSpec::Kind::kNone)
      << "pipeline '" << n.name << "' already has a sink";
  HAPE_CHECK(!aggs.empty())
      << "pipeline '" << n.name << "' aggregates nothing";
  n.terminal.kind = TerminalSpec::Kind::kAggregate;
  n.terminal.key = std::move(key);
  n.terminal.aggs = std::move(aggs);
  n.terminal.groups = std::make_shared<AggGroups>();
  AggHandle h;
  h.pipeline_ = node_;
  h.groups_ = n.terminal.groups;
  return h;
}

CollectHandle PipelineBuilder::Collect() {
  PlanNode& n = node();
  HAPE_CHECK(n.terminal.kind == TerminalSpec::Kind::kNone)
      << "pipeline '" << n.name << "' already has a sink";
  n.terminal.kind = TerminalSpec::Kind::kCollect;
  n.terminal.batches = std::make_shared<std::vector<memory::Batch>>();
  CollectHandle h;
  h.pipeline_ = node_;
  h.batches_ = n.terminal.batches;
  return h;
}

// ---- PlanBuilder ------------------------------------------------------------

PipelineBuilder PlanBuilder::Scan(const storage::TablePtr& table,
                                  const std::vector<std::string>& columns,
                                  size_t chunk_rows) {
  for (const auto& name : columns) {
    HAPE_CHECK(table->schema().IndexOf(name) >= 0)
        << "no column " << name << " in table " << table->name();
  }
  HAPE_CHECK(chunk_rows > 0) << "scan of " << table->name()
                             << " with zero rows per packet";
  PlanNode node;
  node.name = table->name();
  node.source_table = table;
  node.source_columns = columns;
  node.source_chunk_rows = chunk_rows;
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
  plan.nodes_ = std::move(nodes_);
  return plan;
}

// ---- PlanNode / QueryPlan ---------------------------------------------------

size_t PlanNode::BuildSizingRows() const {
  return terminal.declared_rows > 0
             ? static_cast<size_t>(
                   std::min<uint64_t>(terminal.declared_rows, source_rows()))
             : source_rows();
}

std::vector<int> PlanNode::ProbedBuilds() const {
  std::vector<int> builds;
  for (const LogicalOp& op : ops) {
    if (op.kind == LogicalOp::Kind::kProbe) builds.push_back(op.build);
  }
  return builds;
}

int QueryPlan::AppendedColumns(const LogicalOp& op) const {
  if (op.kind != LogicalOp::Kind::kProbe || op.build < 0 ||
      op.build >= static_cast<int>(nodes_.size()) ||
      !nodes_[op.build].is_build()) {
    return 0;
  }
  return static_cast<int>(nodes_[op.build].terminal.payload.size());
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
Status CheckPacketWidths(const QueryPlan& plan, const PlanNode& node,
                         const std::string& id) {
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
        width += plan.AppendedColumns(op);
        break;
    }
  }
  const TerminalSpec& t = node.terminal;
  if (t.kind == TerminalSpec::Kind::kBuild) {
    HAPE_RETURN_NOT_OK(CheckWidth(t.key, width, id, "build key"));
    for (int c : t.payload) {
      if (c < 0 || c >= width) {
        return Status::InvalidArgument(
            id + ": payload column $" + std::to_string(c) +
            " is outside the packet layout (width " + std::to_string(width) +
            ")");
      }
    }
  } else if (t.kind == TerminalSpec::Kind::kAggregate) {
    HAPE_RETURN_NOT_OK(CheckWidth(t.key, width, id, "aggregate key"));
    for (const AggDef& a : t.aggs) {
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
    const std::string id = "pipeline '" + node.name + "' (#" +
                           std::to_string(i) + ")";
    if (node.terminal.kind == TerminalSpec::Kind::kNone) {
      return Reject(rule, lint::kRuleDanglingEdge, id + " has no sink");
    }
    for (int d : node.deps) {
      if (d < 0 || d >= n) {
        return Reject(rule, lint::kRuleDanglingEdge,
                      id + " depends on unknown pipeline #" +
                          std::to_string(d));
      }
    }
    for (int b : node.ProbedBuilds()) {
      if (b < 0 || b >= n || !nodes_[b].is_build()) {
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
    if (Status st = CheckPacketWidths(*this, node, id); !st.ok()) {
      return Reject(rule, lint::kRuleColumnOutOfRange, st.message());
    }
    if (node.terminal.declared_rows > node.source_rows()) {
      return Reject(rule, lint::kRuleInvalidParameter,
                    id + " declares " +
                        std::to_string(node.terminal.declared_rows) +
                        " build rows but its source has " +
                        std::to_string(node.source_rows()));
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
