#ifndef HAPE_ENGINE_PLAN_H_
#define HAPE_ENGINE_PLAN_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "engine/sinks.h"
#include "memory/batch.h"
#include "storage/table.h"

namespace hape::engine {

class PlanBuilder;
class PipelineBuilder;
class QueryPlan;

/// Options of a HashBuild terminal.
struct BuildOptions {
  /// Hand-declared build-side cardinality (rows surviving the pipeline's
  /// filters). 0 (the default) means "derive from the optimizer's
  /// cardinality estimate" (Engine::Optimize sets the table's bucket count;
  /// an unoptimized plan sizes it for the full source). A positive value is
  /// an explicit override that the optimizer respects; one above the
  /// pipeline's source rows is an error (QueryPlan::Validate, HL008).
  uint64_t expected_rows = 0;
  /// Marks a big build side. Heavy builds drive the engine's placement
  /// decisions on GPUs: partitioned vs non-partitioned probing (Fig. 9) and
  /// the co-processing fallback when the table exceeds device memory (§5).
  /// Engine::Optimize derives this mark automatically from its estimates.
  bool heavy = false;
};

/// Handle to a hash-build pipeline: lets later pipelines probe the table it
/// builds. Valid only against the PlanBuilder/QueryPlan that created it
/// (QueryPlan::Validate rejects a probe through another plan's handle).
class BuildHandle {
 public:
  BuildHandle() = default;
  int pipeline() const { return pipeline_; }

 private:
  friend class PipelineBuilder;
  int pipeline_ = -1;
  /// Identity of the creating PlanBuilder.
  std::shared_ptr<const int> owner_;
};

/// Handle to an aggregation terminal. It shares the terminal's result
/// cell: every run of the plan empties the cell and fills it with the
/// merged groups, so `result()` reads the latest run's, even after the plan
/// is gone.
class AggHandle {
 public:
  AggHandle() = default;
  int pipeline() const { return pipeline_; }
  const AggGroups& result() const { return *groups_; }
  uint64_t num_groups() const { return groups_->size(); }

 private:
  friend class PipelineBuilder;
  int pipeline_ = -1;
  std::shared_ptr<const AggGroups> groups_;
};

/// Handle to a collect terminal: the latest run's result packets, through
/// a result cell shared like AggHandle's.
class CollectHandle {
 public:
  CollectHandle() = default;
  int pipeline() const { return pipeline_; }
  std::vector<memory::Batch>& batches() const { return *batches_; }
  uint64_t total_rows() const { return TotalRows(*batches_); }

 private:
  friend class PipelineBuilder;
  int pipeline_ = -1;
  std::shared_ptr<std::vector<memory::Batch>> batches_;
};

/// One logical operation of a pipeline's fused chain — the declarative
/// view the plan optimizer reasons over (selectivities, join reordering)
/// and each run compiles into a Stage.
struct LogicalOp {
  enum class Kind { kFilter, kProject, kProbe };
  Kind kind;
  /// Filter predicate or probe key (over the packet's accumulated layout).
  expr::ExprPtr expr;
  /// Projection expressions (kProject).
  std::vector<expr::ExprPtr> exprs;
  /// Probed build pipeline (kProbe), by index; -1 for a probe through
  /// another plan's handle. The probe appends that build's payload columns
  /// to the packet.
  int build = -1;
};

/// The terminal of a pipeline, as data. Each run compiles it into a fresh
/// sink (Engine::BeginPlan).
struct TerminalSpec {
  enum class Kind { kNone, kBuild, kAggregate, kCollect };
  Kind kind = Kind::kNone;
  /// Build key, or group key (kAggregate; null aggregates into one group).
  expr::ExprPtr key;

  // ---- kBuild ----
  /// Packet columns carried into the hash table as its payload.
  std::vector<int> payload;
  /// BuildOptions::expected_rows (0: none declared).
  uint64_t declared_rows = 0;
  /// BuildOptions::heavy, or the optimizer's mark.
  bool heavy = false;
  /// Bucket count (a power of two) of the table a run builds: sized for
  /// PlanNode::BuildSizingRows() + 16 by HashBuild, from the cardinality
  /// estimate by Engine::Optimize when no rows are declared.
  uint64_t ht_buckets = 0;

  // ---- kAggregate ----
  std::vector<AggDef> aggs;

  /// The result cell the terminal's handle shares (kAggregate, kCollect).
  std::shared_ptr<AggGroups> groups;
  std::shared_ptr<std::vector<memory::Batch>> batches;
};

/// One node of a QueryPlan: a pipeline described as data — the table scan
/// that feeds it, its op chain and its terminal — plus the plan edges it
/// depends on and the optimizer's estimates. Engine::BeginPlan compiles it
/// into an executor Pipeline for every run.
struct PlanNode {
  std::string name;
  /// Nominal/actual data ratio (Pipeline::scale).
  double scale = 1.0;

  // ---- source: a table scan ----
  /// Scanned table and the scanned columns, in packet-column order. The
  /// optimizer binds per-column statistics through these.
  storage::TablePtr source_table;
  std::vector<std::string> source_columns;
  /// Actual rows per packet. Each run cuts its own packets, read-only views
  /// of the scanned columns homed on the table's memory node; the plan
  /// holds none.
  size_t source_chunk_rows = 0;

  /// The fused op chain, in stage order.
  std::vector<LogicalOp> ops;
  /// Pipelines that must finish before this one starts (build -> probe, or
  /// explicit After()).
  std::vector<int> deps;
  /// Explicit device override; empty means "use the policy's device set".
  std::vector<int> run_on;
  TerminalSpec terminal;

  // ---- optimizer outputs (0 until Engine::Optimize runs) ----
  /// Estimated output rows of this pipeline at actual / nominal scale.
  uint64_t est_out_rows = 0;
  uint64_t est_nominal_out_rows = 0;
  /// Cost-model estimate for this pipeline on its chosen device set.
  double est_cost_seconds = 0.0;

  bool is_build() const { return terminal.kind == TerminalSpec::Kind::kBuild; }
  /// Rows feeding this pipeline: the scanned table's.
  size_t source_rows() const { return source_table->num_rows(); }
  /// Rows a build's table is sized for: the declared rows, capped at the
  /// source, or the whole source when none are declared.
  size_t BuildSizingRows() const;
  /// Build pipelines this pipeline probes, in op order.
  std::vector<int> ProbedBuilds() const;
};

/// A validated DAG of pipelines, as data — the unit Engine::Run and Submit
/// execute. Construct with PlanBuilder. A plan holds no run state: every
/// run compiles it afresh, so one plan runs any number of times, on any
/// engine.
class QueryPlan {
 public:
  QueryPlan(QueryPlan&&) = default;
  QueryPlan& operator=(QueryPlan&&) = default;
  QueryPlan(const QueryPlan&) = delete;
  QueryPlan& operator=(const QueryPlan&) = delete;

  const std::string& name() const { return name_; }
  size_t num_pipelines() const { return nodes_.size(); }
  const PlanNode& node(int i) const { return nodes_[i]; }
  PlanNode& mutable_node(int i) { return nodes_[i]; }

  /// Planner estimate of the largest stage-boundary intermediate an
  /// operator-at-a-time execution of this plan would materialize (nominal
  /// bytes); 0 when not declared. The Engine checks it against device
  /// memory before admitting the plan under that model.
  uint64_t declared_intermediate_bytes() const { return intermediate_bytes_; }
  const std::string& declared_intermediate_label() const {
    return intermediate_label_;
  }

  /// Columns `op` appends to the packet: a probe's build payload width (0
  /// for other ops, and for a probe that names no build of this plan).
  int AppendedColumns(const LogicalOp& op) const;

  /// The one structural checker (PlanJson::Load, Engine::Optimize, Run and
  /// RunAll and the lint structure pass all call it). Every pipeline has a
  /// terminal, dependency edges are in range and acyclic, every probe names
  /// a build pipeline of this plan, every expression and build payload
  /// column lies inside the packet layout at its position (scanned columns,
  /// plus each probe's payload, replaced by each projection), (when `topo`
  /// is given) device overrides name known devices, and no build declares
  /// more rows than its source has. Fail-fast: the first fault is an
  /// InvalidArgument, and `*rule` (when non-null, set only on failure)
  /// names the lint rule it breaks: HL001 missing terminal, dangling edge
  /// or foreign build, HL002 cycle, HL003 column outside the layout, HL005
  /// unknown device, HL008 declared build rows.
  Status Validate(const sim::Topology* topo = nullptr,
                  const char** rule = nullptr) const;

  /// Stable topological order (declaration order among ready pipelines);
  /// InvalidArgument on a dependency cycle.
  Result<std::vector<int>> TopologicalOrder() const;

 private:
  friend class PlanBuilder;
  QueryPlan() = default;

  std::string name_;
  std::vector<PlanNode> nodes_;
  uint64_t intermediate_bytes_ = 0;
  std::string intermediate_label_;
};

/// Fluent handle onto one pipeline under construction. Lightweight: copies
/// refer to the same pipeline inside the PlanBuilder.
class PipelineBuilder {
 public:
  int id() const { return node_; }

  PipelineBuilder& Named(std::string name);
  /// Nominal/actual data ratio for the cost model (paper-scale runs on
  /// sampled data).
  PipelineBuilder& Scale(double scale);
  /// Fused selection.
  PipelineBuilder& Filter(expr::ExprPtr pred);
  /// Fused projection (replaces the packet's columns).
  PipelineBuilder& Project(std::vector<expr::ExprPtr> exprs);
  /// Fused hash-join probe against a table built by this plan. Adds the
  /// build pipeline as a dependency.
  PipelineBuilder& Probe(const BuildHandle& build, expr::ExprPtr key);
  /// The same against the table of pipeline `build_pipeline`, which must
  /// be a build of this plan by the time the plan is validated (plan
  /// documents name builds by index).
  PipelineBuilder& Probe(int build_pipeline, expr::ExprPtr key);
  /// Explicit dependency edge on another pipeline of this plan.
  PipelineBuilder& After(int pipeline_id);
  /// Run this pipeline on an explicit device set instead of the policy's.
  PipelineBuilder& OnDevices(std::vector<int> device_ids);

  // ---- terminals (exactly one per pipeline) ----
  /// Pipeline breaker building a hash table keyed by `key` carrying
  /// `payload_cols` of the consumed packets.
  BuildHandle HashBuild(expr::ExprPtr key, std::vector<int> payload_cols,
                        const BuildOptions& opts = {});
  /// Group-by aggregation terminal (`key` == nullptr: single global group).
  AggHandle Aggregate(expr::ExprPtr key, std::vector<AggDef> aggs);
  /// Materialize result packets.
  CollectHandle Collect();

 private:
  friend class PlanBuilder;
  PipelineBuilder(PlanBuilder* plan, int node) : plan_(plan), node_(node) {}
  PlanNode& node();

  PlanBuilder* plan_;
  int node_;
};

/// Constructs a QueryPlan: declare pipeline heads with Scan(), chain fused
/// stages, terminate each pipeline with a sink, then Build().
class PlanBuilder {
 public:
  explicit PlanBuilder(std::string name) : name_(std::move(name)) {}

  /// Table-scan pipeline over `columns` of `table`, chunked into packets of
  /// `chunk_rows` actual rows homed on the table's memory node. Records the
  /// scan only; each run cuts its own packets.
  PipelineBuilder Scan(const storage::TablePtr& table,
                       const std::vector<std::string>& columns,
                       size_t chunk_rows);

  /// Declare the operator-at-a-time materialization footprint (see
  /// QueryPlan::declared_intermediate_bytes).
  PlanBuilder& DeclareMaterializedIntermediate(uint64_t nominal_bytes,
                                               std::string label);

  /// Finalize. The builder is consumed; its handles refer to the returned
  /// plan.
  QueryPlan Build() &&;

 private:
  friend class PipelineBuilder;
  std::string name_;
  std::vector<PlanNode> nodes_;
  uint64_t intermediate_bytes_ = 0;
  std::string intermediate_label_;
  /// Identity the builder's BuildHandles carry.
  std::shared_ptr<const int> id_ = std::make_shared<const int>(0);
};

}  // namespace hape::engine

#endif  // HAPE_ENGINE_PLAN_H_
