#ifndef HAPE_ENGINE_PLAN_JSON_H_
#define HAPE_ENGINE_PLAN_JSON_H_

#include <map>
#include <string>
#include <string_view>

#include "common/json.h"
#include "common/status.h"
#include "engine/plan.h"
#include "engine/policy.h"
#include "sim/topology.h"
#include "storage/table.h"

namespace hape::engine {

/// Outcome of PlanJson::Load: a validated, runnable QueryPlan plus the
/// handles of its aggregate terminals (keyed by pipeline id) and, when the
/// document carried one, the fully materialized ExecutionPolicy. A handle
/// reads the latest run's result of its plan, wherever the plan was moved
/// (Engine::Submit, say).
struct LoadedPlan {
  explicit LoadedPlan(QueryPlan p) : plan(std::move(p)) {}
  LoadedPlan(LoadedPlan&&) = default;
  LoadedPlan& operator=(LoadedPlan&&) = default;

  QueryPlan plan;
  bool has_policy = false;
  ExecutionPolicy policy;
  std::map<int, AggHandle> aggs;

  /// Convenience: the first aggregation handle (most plans have exactly
  /// one terminal aggregate). CHECK-fails when the plan has no aggregate
  /// terminal — check `aggs.empty()` first: a loaded plan's other
  /// terminals have no handles here, and a default-constructed handle
  /// would segfault on first use.
  AggHandle agg() const {
    HAPE_CHECK(!aggs.empty())
        << "plan '" << plan.name()
        << "' has no aggregate terminal; read its CollectHandles instead";
    return aggs.begin()->second;
  }
};

/// Plan serialization: QueryPlans and ExecutionPolicies round-trip through
/// a self-contained JSON document so experiments — plan shape x execution
/// policy x topology — are reproducible from checked-in manifests instead
/// of C++ that rebuilds the plans. Dump is the only writer of a plan
/// (Engine::Explain embeds its document in a run record) and Load the
/// only reader.
///
/// Dump serializes the plan in pipeline declaration order (which fixes
/// the stable topological order): per pipeline the scan source (table /
/// columns / chunk granularity), the logical op chain with full expression
/// trees, dependency and build/probe edges, the terminal (build key +
/// payload, aggregate definitions), the BuildOptions annotations, and the
/// optimizer's outputs (so a dumped *optimized* plan reloads with its
/// bucket counts, estimates and heavy marks intact).
///
/// Load is the only reader of hape-plan-v1 documents (lint's manifest pass
/// loads through it too). It rebuilds the plan through PlanBuilder against
/// a Catalog resolving the scanned tables and ends with
/// QueryPlan::Validate, so everything a hand-edited manifest can get wrong
/// (unknown tables/columns/devices, dangling or cyclic probe edges, column
/// references outside the packet layout, malformed expressions) becomes a
/// Status error — never a crash. Every pipeline is a table scan, so every
/// plan has a document: a scan is named by its table, columns and chunk
/// rows.
class PlanJson {
 public:
  /// Document format tag ("format" key) accepted by Load.
  static constexpr const char* kFormat = "hape-plan-v1";
  /// Schema version ("version" key) written by Dump. Load accepts documents
  /// that either omit the key (the current schema is implied) or carry
  /// exactly this value; anything else is rejected with a Status error, so
  /// cached fingerprints and checked-in manifests can never silently load
  /// under the wrong schema. v2 renamed the build-sink override key
  /// declared_selectivity -> declared_build_rows.
  static constexpr int kVersion = 2;

  static Result<std::string> Dump(const QueryPlan& plan);
  static Result<std::string> Dump(const QueryPlan& plan,
                                  const ExecutionPolicy& policy);

  /// Parse + rebuild. `topo` (optional) additionally validates device ids
  /// referenced by the plan's OnDevices overrides, and the policy.
  /// Fail-fast: the first fault is returned, and `*rule` (when non-null,
  /// set only on failure) names the lint rule it breaks — HL000 unparseable
  /// text; HL011 document shape (format/version, missing or mistyped keys,
  /// unknown op/sink/expression kinds, arity, an `id` off its array
  /// position, an unreadable policy block); HL001 probe of an unknown or
  /// non-build pipeline; HL002 self-probe or probe cycle; HL003 negative
  /// expression column; HL004 unknown table or column; HL008 non-positive
  /// scale or chunk_rows, implausible ht_buckets; and whatever
  /// QueryPlan::Validate and ExecutionPolicy::Validate name (the policy's
  /// devices and ranges).
  static Result<LoadedPlan> Load(std::string_view json,
                                 const storage::Catalog& catalog,
                                 const sim::Topology* topo = nullptr,
                                 const char** rule = nullptr);
  /// Same, over an already-parsed document (manifest drivers embed plan
  /// objects inside larger documents).
  static Result<LoadedPlan> Load(const JsonValue& doc,
                                 const storage::Catalog& catalog,
                                 const sim::Topology* topo = nullptr,
                                 const char** rule = nullptr);

  // ---- reusable pieces (manifest drivers, tests) ----
  static void WritePolicy(JsonWriter* w, const ExecutionPolicy& policy);
  /// Reads the members WritePolicy writes and skips any other, so a
  /// document that still carries a retired knob loads, at any value, as
  /// the constant that replaced it.
  static Result<ExecutionPolicy> ReadPolicy(const JsonValue& v);
  /// Writes nothing but the expression tree object; `e` must be non-null
  /// (use Null() yourself for optional expressions).
  static void WriteExpr(JsonWriter* w, const expr::ExprPtr& e);
};

}  // namespace hape::engine

#endif  // HAPE_ENGINE_PLAN_JSON_H_
