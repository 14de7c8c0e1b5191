#ifndef HAPE_ENGINE_PLAN_H_
#define HAPE_ENGINE_PLAN_H_

#include <map>
#include <memory>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/status.h"
#include "engine/pipeline.h"
#include "engine/sinks.h"
#include "engine/stages.h"
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
  /// cardinality estimate" (Engine::Optimize re-buckets the table; an
  /// unoptimized Run sizes it for the full source). A positive value is an
  /// explicit override that the optimizer respects.
  uint64_t expected_rows = 0;
  /// Marks a big build side. Heavy builds drive the engine's placement
  /// decisions on GPUs: partitioned vs non-partitioned probing (Fig. 9) and
  /// the co-processing fallback when the table exceeds device memory (§5).
  /// Engine::Optimize derives this mark automatically from its estimates.
  bool heavy = false;
};

/// Handle to a hash-build pipeline: lets later pipelines probe the built
/// table. Valid only against the PlanBuilder/QueryPlan that created it
/// (QueryPlan::Validate rejects foreign handles).
class BuildHandle {
 public:
  BuildHandle() = default;
  int pipeline() const { return pipeline_; }
  const JoinStatePtr& state() const { return state_; }

 private:
  friend class PipelineBuilder;
  int pipeline_ = -1;
  JoinStatePtr state_;
};

/// Handle to an aggregation terminal. `result()` is populated once the plan
/// has been executed by the Engine; the underlying sink is owned by the
/// QueryPlan, so the handle must not outlive it.
class AggHandle {
 public:
  AggHandle() = default;
  int pipeline() const { return pipeline_; }
  const std::map<int64_t, std::vector<double>>& result() const {
    return sink_->result();
  }
  uint64_t num_groups() const { return sink_->num_groups(); }

 private:
  friend class PipelineBuilder;
  int pipeline_ = -1;
  const HashAggSink* sink_ = nullptr;
};

/// Handle to a collect terminal (materialized result packets).
class CollectHandle {
 public:
  CollectHandle() = default;
  int pipeline() const { return pipeline_; }
  std::vector<memory::Batch>& batches() const { return sink_->batches(); }
  uint64_t total_rows() const { return sink_->total_rows(); }

 private:
  friend class PipelineBuilder;
  int pipeline_ = -1;
  CollectSink* sink_ = nullptr;
};

/// One logical operation of a pipeline's fused chain, recorded alongside
/// the generated Stage closures. This is the declarative view the plan
/// optimizer reasons over (selectivities, join reordering); the Stage chain
/// can be regenerated from it after a permutation.
struct LogicalOp {
  enum class Kind { kFilter, kProject, kProbe };
  Kind kind;
  /// Filter predicate or probe key (over the packet's accumulated layout).
  expr::ExprPtr expr;
  /// Projection expressions (kProject).
  std::vector<expr::ExprPtr> exprs;
  /// Probed hash table (kProbe); its build node appends `appended_cols`
  /// payload columns to the packet.
  JoinStatePtr probe_state;
  int appended_cols = 0;
};

/// One node of a QueryPlan: a pipeline (which owns its sink), the plan
/// edges it depends on, and the metadata the Engine needs for placement.
struct PlanNode {
  Pipeline pipeline;
  /// Pipelines that must finish before this one starts (build -> probe,
  /// collect -> rescan, or explicit After()).
  std::vector<int> deps;
  /// Explicit device override; empty means "use the policy's device set".
  std::vector<int> run_on;
  bool is_build = false;
  bool heavy_build = false;
  /// Actual rows feeding this pipeline (sizes build hash tables).
  size_t source_rows = 0;
  JoinStatePtr built_state;            // set when is_build
  std::vector<JoinStatePtr> probed;    // states probed by this pipeline

  // ---- declarative annotations consumed by the plan optimizer ----
  /// Scanned table (null for Source() pipelines) and the scanned columns,
  /// in packet-column order. The optimizer binds per-column statistics
  /// through these.
  storage::TablePtr source_table;
  std::vector<std::string> source_columns;
  /// Packet granularity the scan was declared with (actual rows per chunk;
  /// 0 for Source() pipelines). Recorded so plan serialization
  /// (engine/plan_json.h) can re-chunk the scan identically on load.
  size_t source_chunk_rows = 0;
  /// Logical view of the fused stage chain, in stage order.
  std::vector<LogicalOp> ops;
  /// BuildOptions::expected_rows (0: none declared).
  uint64_t declared_build_rows = 0;
  /// Build terminal metadata (set when is_build): key expression and the
  /// payload column indices carried into the hash table.
  expr::ExprPtr build_key;
  std::vector<int> build_payload;

  // ---- optimizer outputs (0 until Engine::Optimize runs) ----
  /// Estimated output rows of this pipeline at actual / nominal scale.
  uint64_t est_out_rows = 0;
  uint64_t est_nominal_out_rows = 0;
  /// Cost-model estimate for this pipeline on its chosen device set.
  double est_cost_seconds = 0.0;
};

/// A validated DAG of pipelines with owned sinks — the unit Engine::Run
/// executes. Construct with PlanBuilder. A plan is single-shot: executing it
/// consumes its input packets, and a second Run is rejected.
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

  /// True iff `state` was built by one of this plan's build pipelines.
  bool OwnsState(const JoinState* state) const {
    return built_.count(state) > 0;
  }
  /// Node index of the build pipeline producing `state`, or -1.
  int BuildNodeOf(const JoinState* state) const;

  /// The one structural checker (PlanJson::Load, Engine::Optimize, Run and
  /// RunAll and the lint structure pass all call it). Every pipeline has a
  /// sink and a non-empty stage chain, dependency edges are in range and
  /// acyclic, probed hash tables belong to this plan, every expression and
  /// build payload column lies inside the packet layout at its position
  /// (scanned columns, plus each probe's payload, replaced by each
  /// projection; Source() pipelines have no declared width and are
  /// skipped), and (when `topo` is given) device overrides name known
  /// devices. Fail-fast: the first fault is an InvalidArgument, and
  /// `*rule` (when non-null, set only on failure) names the lint rule it
  /// breaks: HL001 missing sink/stages or dangling edge, HL002 cycle, HL003
  /// column outside the layout, HL005 unknown device.
  Status Validate(const sim::Topology* topo = nullptr,
                  const char** rule = nullptr) const;

  /// Stable topological order (declaration order among ready pipelines);
  /// InvalidArgument on a dependency cycle.
  Result<std::vector<int>> TopologicalOrder() const;

  bool executed() const { return executed_; }
  void mark_executed() { executed_ = true; }

 private:
  friend class PlanBuilder;
  QueryPlan() = default;

  std::string name_;
  std::vector<PlanNode> nodes_;
  std::unordered_set<const JoinState*> built_;
  uint64_t intermediate_bytes_ = 0;
  std::string intermediate_label_;
  bool executed_ = false;
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

/// Options of a Source pipeline head.
struct SourceOptions {
  double scale = 1.0;
  /// Charge the sequential read of each source packet (table scans do;
  /// pipelines over just-produced intermediates may not — they then start
  /// with an empty stage chain until stages are appended).
  bool charge_source_read = true;
};

/// Constructs a QueryPlan: declare pipeline heads with Scan()/Source(),
/// chain fused stages, terminate each pipeline with a sink, then Build().
class PlanBuilder {
 public:
  explicit PlanBuilder(std::string name) : name_(std::move(name)) {}

  /// Table-scan pipeline over `columns` of `table`, chunked into packets of
  /// `chunk_rows` actual rows homed on the table's memory node.
  PipelineBuilder Scan(const storage::TablePtr& table,
                       const std::vector<std::string>& columns,
                       size_t chunk_rows);

  /// Pipeline over pre-chunked packets.
  PipelineBuilder Source(std::string name, std::vector<memory::Batch> inputs,
                         const SourceOptions& opts = {});

  /// Declare the operator-at-a-time materialization footprint (see
  /// QueryPlan::declared_intermediate_bytes).
  PlanBuilder& DeclareMaterializedIntermediate(uint64_t nominal_bytes,
                                               std::string label);

  /// Finalize. The builder is consumed; handles stay valid against the
  /// returned plan.
  QueryPlan Build() &&;

 private:
  friend class PipelineBuilder;
  std::string name_;
  std::vector<PlanNode> nodes_;
  uint64_t intermediate_bytes_ = 0;
  std::string intermediate_label_;
};

}  // namespace hape::engine

#endif  // HAPE_ENGINE_PLAN_H_
