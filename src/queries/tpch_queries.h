#ifndef HAPE_QUERIES_TPCH_QUERIES_H_
#define HAPE_QUERIES_TPCH_QUERIES_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/status.h"
#include "engine/engine.h"
#include "engine/scheduler.h"
#include "sim/topology.h"
#include "storage/table.h"

namespace hape::queries {

/// The five system configurations of Fig. 8 (defined by the engine; a
/// configuration is just a named ExecutionPolicy).
using engine::ConfigName;
using engine::EngineConfig;

struct QueryResult {
  Status status = Status::OK();       // NotSupported / OutOfMemory == DNF
  sim::SimTime seconds = 0;
  /// Canonical comparable result: group key -> aggregate values.
  std::map<int64_t, std::vector<double>> groups;
  /// Per-pipeline execution record reported by the Engine facade.
  engine::RunStats exec;
  bool DidNotFinish() const { return !status.ok(); }
};

/// How the queries declare their plans.
enum class PlanMode {
  /// Declare unordered, unannotated plans (no BuildOptions, probe chains in
  /// arbitrary order) and let Engine::Optimize derive join order, build
  /// sizing and heavy marks from statistics. The default.
  kOptimized,
  /// The legacy hand-declared plans: good probe order and explicit
  /// BuildOptions annotations, executed without an optimizer pass. Kept as
  /// the compatibility baseline the optimizer must reproduce.
  kHandDeclared,
};

/// Shared context of a TPC-H run: generated tables (actual scale factor
/// `sf_actual`), costed as if at `sf_nominal` (the paper's SF 100).
struct TpchContext {
  storage::Catalog catalog;
  double sf_actual = 0.01;
  double sf_nominal = 100.0;
  sim::Topology* topo = nullptr;
  /// Packet granularity at *nominal* scale (the router amortizes its
  /// decisions over packets of this many paper-scale tuples).
  size_t nominal_packet_rows = 4 << 20;
  /// Fig. 9 switch: use the partitioned (hardware-conscious) GPU join in
  /// the plan's heavy joins instead of the non-partitioned one.
  bool partitioned_gpu_join = true;
  /// Plan declaration style (see PlanMode).
  PlanMode plan_mode = PlanMode::kOptimized;
  /// Event-driven async execution knob forwarded onto every run's policy
  /// (depth 0 = the synchronous legacy timing).
  engine::AsyncOptions async;
  /// Engine reused across this context's runs so its table-statistics
  /// cache actually caches (created lazily by the query runners).
  std::shared_ptr<engine::Engine> engine;

  double scale() const { return sf_nominal / sf_actual; }
};

/// Populate `ctx.catalog` with generated TPC-H tables at `sf_actual`.
Status PrepareTpch(TpchContext* ctx, uint64_t seed = 42);

/// The dataset a manifest's "tpch" block names.
struct TpchSpec {
  double sf_actual = 0;
  double sf_nominal = 0;
  uint64_t seed = 42;
};

/// Ceiling of a manifest's `sf_actual`, the scale its driver generates in
/// memory: SF 1 is ~6 M lineitem rows, twice the largest dataset anything
/// in the repository generates (SF 0.5).
inline constexpr double kMaxSfActual = 1.0;

/// The one reader of a manifest's "tpch" block (manifest drivers and lint
/// use it): `sf_actual` must be a number in (0, kMaxSfActual],
/// `sf_nominal` a finite number > 0, and the optional `seed` (default 42)
/// an integer in [0, 2^53]. InvalidArgument otherwise.
Result<TpchSpec> ReadTpchSpec(const JsonValue& tpch);

/// Format and schema version of an experiment manifest: a "tpch" block, a
/// serialized ExecutionPolicy and a "queries" array of plan documents.
/// examples/manifest_run.cpp writes and runs them; hape_lint checks them.
inline constexpr const char* kManifestFormat = "hape-manifest-v1";
inline constexpr int kManifestVersion = 2;

/// The one check of a manifest's "format" and "version" (manifest drivers
/// and lint use it). An absent version reads as kManifestVersion; any
/// other value is InvalidArgument, as is a document that is no object.
Status ReadManifestHeader(const JsonValue& doc);

/// One entry of a manifest's "queries" array.
struct ManifestQuery {
  /// The entry's "label" (empty when absent), "weight" and "deadline_s".
  /// Every other field, and a faulty one, keeps its default.
  engine::SubmitOptions submit;
  /// One message per "weight" or "deadline_s" that is not a number or
  /// breaks SubmitOptions::Faults.
  std::vector<std::string> faults;
  /// The entry's plan document (PlanJson::Load's input), pointing into the
  /// entry; null when absent.
  const JsonValue* plan = nullptr;
};

/// The one reader of a manifest query entry (manifest drivers and lint use
/// it). InvalidArgument when the entry is not an object.
Result<ManifestQuery> ReadManifestQuery(const JsonValue& entry);

/// A declared query: the QueryPlan plus the aggregate handle its result is
/// read through. This is the unit Engine::Submit admits — build several
/// queries, submit them all, RunAll, then read each result off its handle
/// (the handle shares its terminal's result cell, which each run fills).
struct BuiltQuery {
  BuiltQuery(engine::QueryPlan plan, engine::AggHandle agg)
      : plan(std::move(plan)), agg(agg) {}
  engine::QueryPlan plan;
  engine::AggHandle agg;
};

/// Declare the QueryPlan of TPC-H Q1 / Q3 / Q5 / Q6 / Q9* against `ctx`
/// (honoring ctx->plan_mode) without executing it.
Result<BuiltQuery> BuildQ1Plan(TpchContext* ctx);
Result<BuiltQuery> BuildQ3Plan(TpchContext* ctx);
Result<BuiltQuery> BuildQ5Plan(TpchContext* ctx);
Result<BuiltQuery> BuildQ6Plan(TpchContext* ctx);
Result<BuiltQuery> BuildQ9Plan(TpchContext* ctx);

using BuildFn = Result<BuiltQuery> (*)(TpchContext*);

/// The Engine shared across this context's runs (created lazily so its
/// table-statistics cache actually caches).
engine::Engine& EngineFor(TpchContext* ctx);

/// Run TPC-H Q1 / Q3 / Q5 / Q6 / Q9* under `config` (Q9* = the paper's
/// variant: no LIKE predicate and no join to the filtered part table; Q3
/// groups by l_orderkey, which determines the orderdate/shippriority group
/// columns). Each query declares a QueryPlan with PlanBuilder (BuildQ*Plan
/// above) and executes it through the Engine facade under the
/// configuration's ExecutionPolicy.
QueryResult RunQ1(TpchContext* ctx, EngineConfig config);
QueryResult RunQ3(TpchContext* ctx, EngineConfig config);
QueryResult RunQ5(TpchContext* ctx, EngineConfig config);
QueryResult RunQ6(TpchContext* ctx, EngineConfig config);
QueryResult RunQ9(TpchContext* ctx, EngineConfig config);

using QueryFn = QueryResult (*)(TpchContext*, EngineConfig);

/// Trusted scalar reference implementations (no engine machinery) used by
/// the test suite to validate every configuration's result.
QueryResult RefQ1(const TpchContext& ctx);
QueryResult RefQ3(const TpchContext& ctx);
QueryResult RefQ5(const TpchContext& ctx);
QueryResult RefQ6(const TpchContext& ctx);
QueryResult RefQ9(const TpchContext& ctx);

}  // namespace hape::queries

#endif  // HAPE_QUERIES_TPCH_QUERIES_H_
