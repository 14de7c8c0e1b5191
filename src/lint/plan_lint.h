#ifndef HAPE_LINT_PLAN_LINT_H_
#define HAPE_LINT_PLAN_LINT_H_

#include <string_view>

#include "common/json.h"
#include "engine/plan.h"
#include "engine/policy.h"
#include "lint/diagnostic.h"
#include "sim/topology.h"
#include "storage/table.h"

namespace hape::engine {
struct SubmitOptions;
}

namespace hape::lint {

/// Everything the lint passes may consult besides the plan itself. All
/// members are optional: a null member simply disables the checks that
/// need it (no topology -> no device-id, placement or GPU-budget checks;
/// no catalog -> no catalog-membership check in LintPlan, and no plan
/// check at all in LintManifestDoc, which needs it to load the plans).
struct LintContext {
  const sim::Topology* topo = nullptr;
  const storage::Catalog* catalog = nullptr;
  const engine::ExecutionPolicy* policy = nullptr;
  const engine::SubmitOptions* submit = nullptr;
};

/// Static analysis of one in-memory QueryPlan: QueryPlan::Validate's
/// structural verdict (HL001/HL002/HL003/HL005/HL008, one diagnostic, after
/// which only the submit pass runs), catalog membership (HL004), placement
/// feasibility (HL005), GPU admission-budget fit (HL006), deadline
/// reachability against the optimizer's cost estimates (HL007), submit
/// parameters (HL008), and suspicious expressions (HL012). Pure: never
/// mutates the plan, never executes anything.
LintReport LintPlan(const engine::QueryPlan& plan, const LintContext& ctx);

/// Static analysis of an ExecutionPolicy alone: ExecutionPolicy::Validate's
/// verdict against `topo` (skipped when null), the one place a policy's
/// devices (HL005) and numeric ranges (HL008) are checked; an
/// expected_device_share above 1 (an HL008 warning); scheduling policies
/// that require knobs the policy disables (HL009), and serve knobs the
/// configured scheduling policy ignores (HL010).
LintReport LintPolicy(const engine::ExecutionPolicy& policy,
                      const sim::Topology* topo);

/// Static analysis of a whole manifest document (the hape-manifest-v1
/// shape examples/manifest_run.cpp executes), read with the same readers
/// that driver uses: format/version drift (queries::ReadManifestHeader,
/// HL011), the tpch block (queries::ReadTpchSpec, HL008), per-query weight
/// and deadline (queries::ReadManifestQuery, HL008), duplicate labels
/// (HL013), the embedded policy (LintPolicy), and per query the plan
/// document: PlanJson::Load against `catalog`, whose failure is one
/// diagnostic under the rule Load names, and LintPlan on the loaded plan.
/// Each fault is reported once.
/// Without a catalog the plans cannot be loaded; one HL011 warning says
/// they were not checked.
LintReport LintManifestDoc(const JsonValue& doc, const sim::Topology* topo,
                           const storage::Catalog* catalog);

/// Parse + LintManifestDoc; an unreadable document is a single HL000.
LintReport LintManifestText(std::string_view text, const sim::Topology* topo,
                            const storage::Catalog* catalog);

}  // namespace hape::lint

#endif  // HAPE_LINT_PLAN_LINT_H_
