#include "lint/plan_lint.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <unordered_set>
#include <vector>

#include "engine/plan_json.h"
#include "engine/scheduler.h"
#include "queries/tpch_queries.h"

namespace hape::lint {

namespace {

using engine::ExecutionPolicy;
using engine::LogicalOp;
using engine::PlanNode;
using engine::QueryPlan;
using engine::SchedulingPolicy;
using engine::SubmitOptions;

// ---- small shared helpers ---------------------------------------------------

std::string Itoa(uint64_t v) { return std::to_string(v); }

std::string MiBString(uint64_t bytes) {
  const double mib = static_cast<double>(bytes) / (1024.0 * 1024.0);
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f", mib);
  return std::string(buf) + " MiB";
}

bool IsFiniteNumber(double v) { return std::isfinite(v); }

/// Comparison / boolean expression kinds — the ones a filter predicate is
/// expected to have at its root (everything evaluates to 0/1).
bool IsBooleanKind(expr::ExprKind k) {
  switch (k) {
    case expr::ExprKind::kEq:
    case expr::ExprKind::kNe:
    case expr::ExprKind::kLt:
    case expr::ExprKind::kLe:
    case expr::ExprKind::kGt:
    case expr::ExprKind::kGe:
    case expr::ExprKind::kAnd:
    case expr::ExprKind::kOr:
    case expr::ExprKind::kNot:
      return true;
    default:
      return false;
  }
}

// ---- in-memory plan passes --------------------------------------------------

std::string PipePath(const QueryPlan& plan, int i) {
  return "plan '" + plan.name() + "' pipeline " + std::to_string(i);
}

/// Structure pass: QueryPlan::Validate is the one structural checker
/// (HL001/HL002/HL003/HL005 device overrides). Returns false when it
/// rejects the plan; the other plan passes walk the DAG and need a valid
/// one.
bool PassStructure(LintReport* r, const QueryPlan& plan,
                   const sim::Topology* topo) {
  const char* rule = nullptr;
  const Status st = plan.Validate(topo, &rule);
  if (st.ok()) return true;
  r->Add(rule, "plan '" + plan.name() + "'", st.message());
  return false;
}

/// Column pass: scanned tables vs the catalog (HL004), suspicious
/// expressions (HL012), build annotations (HL014).
void PassColumns(LintReport* r, const QueryPlan& plan,
                 const storage::Catalog* catalog) {
  const int n = static_cast<int>(plan.num_pipelines());
  for (int i = 0; i < n; ++i) {
    const PlanNode& node = plan.node(i);
    const std::string path = PipePath(plan, i);
    if (catalog != nullptr && node.source_table != nullptr &&
        !catalog->Contains(node.source_table->name())) {
      r->Add(kRuleUnknownTableOrColumn, path,
             "table '" + node.source_table->name() +
                 "' is not in the catalog");
    }

    int op_index = 0;
    for (const LogicalOp& op : node.ops) {
      const std::string op_path = path + " op " + std::to_string(op_index++);
      if (op.expr == nullptr) continue;
      if (op.kind == LogicalOp::Kind::kFilter &&
          !IsBooleanKind(op.expr->kind())) {
        r->Add(kRuleSuspiciousExpr, op_path,
               "filter predicate is not a boolean expression",
               "wrap the value in a comparison; non-boolean predicates "
               "select on raw nonzero-ness");
      } else if (op.kind == LogicalOp::Kind::kProbe &&
                 op.expr->MaxColumn() < 0) {
        r->Add(kRuleSuspiciousExpr, op_path,
               "probe key is a constant (references no column)",
               "a constant key sends every row to one hash bucket");
      }
    }

    if (!node.is_build) continue;
    if (node.build_key != nullptr && node.build_key->MaxColumn() < 0) {
      r->Add(kRuleSuspiciousExpr, path,
             "build key is a constant (references no column)",
             "a constant key sends every row to one hash bucket");
    }
    if (node.declared_build_rows > 0 && node.source_rows > 0) {
      const uint64_t nominal_source = static_cast<uint64_t>(
          static_cast<double>(node.source_rows) * node.pipeline.scale);
      if (node.declared_build_rows > nominal_source) {
        r->Add(kRuleBuildAnnotation, path,
               "declared build rows " + Itoa(node.declared_build_rows) +
                   " exceed the nominal source cardinality " +
                   Itoa(nominal_source),
               "BuildOptions::expected_rows should be the rows *surviving* "
               "the pipeline's filters");
      }
    }
  }
}

/// Placement pass: build pipelines on non-CPU devices and operator-at-a-
/// time intermediates that cannot fit any device (HL005). Device ids are
/// range-checked elsewhere: overrides by Validate, the policy's devices by
/// LintPolicy (a policy Validate rejects skips the check here).
void PassPlacement(LintReport* r, const QueryPlan& plan,
                   const LintContext& ctx) {
  if (ctx.topo == nullptr) return;
  const sim::Topology& topo = *ctx.topo;
  const int n = static_cast<int>(plan.num_pipelines());
  for (int i = 0; i < n; ++i) {
    const PlanNode& node = plan.node(i);
    if (!node.is_build || node.run_on.empty()) continue;
    const bool any_cpu =
        std::any_of(node.run_on.begin(), node.run_on.end(), [&](int d) {
          return topo.device(d).type == sim::DeviceType::kCpu;
        });
    if (!any_cpu) {
      r->Add(kRuleInfeasiblePlacement, PipePath(plan, i),
             "build pipeline placed on non-CPU devices only",
             "build sides are host-resident; include a CPU socket in the "
             "override");
    }
  }

  const ExecutionPolicy* policy = ctx.policy;
  if (policy == nullptr ||
      policy->model != engine::ExecutionModel::kOperatorAtATime ||
      plan.declared_intermediate_bytes() == 0 ||
      !policy->Validate(topo).ok()) {
    return;
  }
  uint64_t budget = std::numeric_limits<uint64_t>::max();
  for (int d : policy->devices) {
    budget =
        std::min(budget, topo.mem_node(topo.device(d).mem_node).capacity());
  }
  if (plan.declared_intermediate_bytes() > budget) {
    r->Add(kRuleInfeasiblePlacement, "plan '" + plan.name() + "'",
           "operator-at-a-time intermediate of " +
               MiBString(plan.declared_intermediate_bytes()) + " (" +
               plan.declared_intermediate_label() +
               ") exceeds the smallest device memory (" + MiBString(budget) +
               ")",
           "the operator-at-a-time model materializes every stage "
           "boundary in device memory");
  }
}

/// GPU admission pass: the scheduler's resident-bytes estimate, with
/// build staging, against the policy's GPU budget (HL006). This is the
/// exact quantity fair-share/SLA admission packs waves by — a plan past
/// it can never be admitted. Only runs once the optimizer has annotated
/// the probed builds with nominal cardinalities: before that the
/// scheduler's fallback (full source rows x scale) is an upper bound,
/// not an estimate, and would flag every declarative manifest dump that
/// the standard optimize-then-submit flow admits without trouble.
void PassGpuBudget(LintReport* r, const QueryPlan& plan,
                   const LintContext& ctx) {
  if (ctx.topo == nullptr || ctx.policy == nullptr) return;
  const ExecutionPolicy& policy = *ctx.policy;
  // A policy Validate rejects is LintPolicy's finding (HL005 or HL008).
  if (!policy.Validate(*ctx.topo).ok() || !policy.UsesGpu(*ctx.topo)) return;
  bool annotated = false;
  for (size_t i = 0; i < plan.num_pipelines(); ++i) {
    const PlanNode& n = plan.node(static_cast<int>(i));
    if (n.is_build && n.est_nominal_out_rows > 0) annotated = true;
  }
  if (!annotated) return;
  const uint64_t budget = policy.GpuBudget(*ctx.topo);
  const uint64_t resident =
      engine::Scheduler::EstimatedResidentBytes(plan, policy, budget);
  const double staged =
      policy.build_staging_factor * static_cast<double>(resident);
  if (staged > static_cast<double>(budget)) {
    r->Add(kRuleGpuOvercommit, "plan '" + plan.name() + "'",
           "estimated GPU-resident build tables of " + MiBString(resident) +
               " (x" + std::to_string(policy.build_staging_factor) +
               " build staging) exceed the " + MiBString(budget) +
               " GPU admission budget",
           "mark the dominant build heavy (co-processing streams it), shrink "
           "the build side, or run CPU-only");
  }
}

/// Submit-parameter and deadline pass (HL007/HL008/HL010).
void PassSubmit(LintReport* r, const QueryPlan& plan, const LintContext& ctx) {
  if (ctx.submit == nullptr) return;
  const SubmitOptions& s = *ctx.submit;
  const std::string path = "plan '" + plan.name() + "'";
  if (!IsFiniteNumber(s.weight) || s.weight <= 0) {
    r->Add(kRuleInvalidParameter, path,
           "fair-share weight must be a finite value > 0 (got " +
               std::to_string(s.weight) + ")");
  }
  if (s.tier < 0) {
    r->Add(kRuleInvalidParameter, path,
           "SLA tier must be >= 0 (got " + std::to_string(s.tier) + ")");
  }
  if (!IsFiniteNumber(s.arrival) || s.arrival < 0) {
    r->Add(kRuleInvalidParameter, path, "arrival time must be finite and >= 0");
  }
  if (!IsFiniteNumber(s.deadline_s) || s.deadline_s < 0) {
    r->Add(kRuleInvalidParameter, path,
           "deadline must be finite and >= 0 (0 disables it)");
  }
  if (ctx.policy != nullptr && s.tier > 0 &&
      ctx.policy->scheduling != SchedulingPolicy::kSlaTiered) {
    r->Add(kRuleIgnoredServeKnob, path,
           "SLA tier " + std::to_string(s.tier) + " has no effect under " +
               std::string(SchedulingPolicyName(ctx.policy->scheduling)) +
               " scheduling",
           "tiers are acted on by sla-tiered scheduling only");
  }

  // Deadline vs the optimizer's cost estimates. Only meaningful on
  // optimized plans (unoptimized nodes carry est_cost_seconds == 0).
  if (s.deadline_s > 0 && IsFiniteNumber(s.deadline_s)) {
    double total = 0;
    for (size_t i = 0; i < plan.num_pipelines(); ++i) {
      total += plan.node(static_cast<int>(i)).est_cost_seconds;
    }
    if (total > 0 && s.arrival + total > s.deadline_s) {
      char est[32], dl[32];
      std::snprintf(est, sizeof(est), "%.3f", s.arrival + total);
      std::snprintf(dl, sizeof(dl), "%.3f", s.deadline_s);
      r->Add(kRuleUnreachableDeadline, path,
             std::string("deadline ") + dl +
                 "s is unreachable: cost-model estimate finishes at " + est +
                 "s even uncontended",
             "the scheduler will abort this query at its first decision "
             "point past the deadline");
    }
  }
}

// ---- manifest document readers ----------------------------------------------

const JsonValue* Member(const JsonValue* v, const char* key) {
  return (v != nullptr && v->is_object()) ? v->Find(key) : nullptr;
}

bool GetNumber(const JsonValue* v, double* out) {
  if (v == nullptr || v->kind() != JsonValue::Kind::kNumber) return false;
  *out = v->number();
  return true;
}

std::string GetString(const JsonValue* v, const std::string& fallback) {
  if (v == nullptr || v->kind() != JsonValue::Kind::kString) return fallback;
  return v->str();
}

constexpr const char* kManifestFormat = "hape-manifest-v1";
constexpr int kManifestVersion = 2;

}  // namespace

// ---- public entry points ----------------------------------------------------

LintReport LintPlan(const QueryPlan& plan, const LintContext& ctx) {
  LintReport r;
  if (PassStructure(&r, plan, ctx.topo)) {
    PassColumns(&r, plan, ctx.catalog);
    PassPlacement(&r, plan, ctx);
    PassGpuBudget(&r, plan, ctx);
  }
  PassSubmit(&r, plan, ctx);
  return r;
}

LintReport LintPolicy(const ExecutionPolicy& policy,
                      const sim::Topology* topo) {
  LintReport r;
  const std::string path = "policy";
  if (topo != nullptr) {
    const char* rule = nullptr;
    if (const Status st = policy.Validate(*topo, &rule); !st.ok()) {
      r.Add(rule, path, st.message());
    }
  }
  if (policy.async.prefetch_depth < 0) {
    r.Add(kRuleInvalidParameter, path, "async prefetch depth must be >= 0");
  }
  if (!IsFiniteNumber(policy.build_staging_factor) ||
      policy.build_staging_factor <= 0) {
    r.Add(kRuleInvalidParameter, path,
          "build_staging_factor must be a finite value > 0");
  }
  if (!IsFiniteNumber(policy.expected_device_share) ||
      policy.expected_device_share <= 0) {
    r.Add(kRuleInvalidParameter, path,
          "expected_device_share must be a finite value > 0");
  } else if (policy.expected_device_share > 1.0) {
    r.Add(Severity::kWarning, kRuleInvalidParameter, path,
          "expected_device_share > 1.0 (a query cannot hold more than the "
          "whole machine)");
  }
  const bool needs_async =
      policy.scheduling == SchedulingPolicy::kFairShare ||
      policy.scheduling == SchedulingPolicy::kSlaTiered;
  if (needs_async && !policy.async.enabled()) {
    r.Add(kRulePolicyNeedsAsync, path,
          std::string(SchedulingPolicyName(policy.scheduling)) +
              " scheduling requires the async executor but prefetch depth is "
              "0",
          "set AsyncOptions::prefetch_depth >= 1 (policy.async.prefetch_"
          "depth in manifests)");
  }
  if (policy.scheduling == SchedulingPolicy::kSlaTiered &&
      policy.serve.max_inflight <= 0) {
    r.Add(kRulePolicyNeedsAsync, path,
          "sla-tiered scheduling with serve.max_inflight <= 0 can never "
          "admit a query");
  }
  if (policy.scheduling != SchedulingPolicy::kSlaTiered &&
      policy.serve.shed_on_deadline) {
    r.Add(kRuleIgnoredServeKnob, path,
          "serve.shed_on_deadline has no effect under " +
              std::string(SchedulingPolicyName(policy.scheduling)) +
              " scheduling",
          "shedding happens at the sla-tiered admission decision point only");
  }
  return r;
}

LintReport LintManifestDoc(const JsonValue& doc, const sim::Topology* topo,
                           const storage::Catalog* catalog) {
  LintReport r;
  if (!doc.is_object()) {
    r.Add(kRuleUnreadable, "manifest", "document is not a JSON object");
    return r;
  }
  const std::string fmt = GetString(Member(&doc, "format"), "");
  if (fmt != kManifestFormat) {
    r.Add(kRuleSchemaDrift, "manifest",
          "manifest format is '" + fmt + "', expected '" + kManifestFormat +
              "'");
    return r;
  }
  double version = kManifestVersion;
  if (doc.Has("version") && (!GetNumber(doc.Find("version"), &version) ||
                             version != kManifestVersion)) {
    r.Add(kRuleSchemaDrift, "manifest",
          "manifest version " + std::to_string(version) +
              " drifts from the supported version " +
              std::to_string(kManifestVersion),
          "regenerate the manifest with this build's --write path");
    return r;
  }

  if (const JsonValue* tpch = Member(&doc, "tpch"); tpch == nullptr) {
    r.Add(Severity::kWarning, kRuleSchemaDrift, "manifest",
          "manifest has no tpch block; the driver cannot regenerate its "
          "dataset");
  } else if (auto spec = queries::ReadTpchSpec(*tpch); !spec.ok()) {
    r.Add(kRuleInvalidParameter, "manifest tpch", spec.status().message());
  }

  ExecutionPolicy policy;
  bool has_policy = false;
  if (const JsonValue* pol = Member(&doc, "policy"); pol != nullptr) {
    if (auto res = engine::PlanJson::ReadPolicy(*pol); res.ok()) {
      policy = res.MoveValue();
      has_policy = true;
      r.Merge(LintPolicy(policy, topo));
    } else {
      r.Add(kRuleSchemaDrift, "manifest policy",
            "policy block unreadable: " + res.status().message());
    }
  }

  const JsonValue* queries = Member(&doc, "queries");
  if (queries == nullptr || !queries->is_array()) {
    r.Add(kRuleSchemaDrift, "manifest", "manifest has no queries array");
    return r;
  }
  if (queries->items().empty()) {
    r.Add(Severity::kWarning, kRuleSchemaDrift, "manifest",
          "manifest has no queries");
  } else if (catalog == nullptr) {
    r.Add(Severity::kWarning, kRuleSchemaDrift, "manifest",
          "no catalog to resolve the plans' scans: the plan documents were "
          "not checked",
          "lint with a catalog (hape_lint builds one from a usable tpch "
          "block)");
  }

  std::unordered_set<std::string> labels;
  int index = 0;
  for (const JsonValue& q : queries->items()) {
    const std::string fallback = "queries[" + std::to_string(index) + "]";
    ++index;
    if (!q.is_object()) {
      r.Add(kRuleSchemaDrift, fallback, "query entry is not an object");
      continue;
    }
    const std::string label = GetString(q.Find("label"), fallback);
    const std::string qpath = "query '" + label + "'";
    if (!labels.insert(label).second) {
      r.Add(kRuleDuplicateLabel, qpath,
            "duplicate query label in one manifest",
            "labels key the schedule stats; duplicates make them ambiguous");
    }
    // Only valid knobs reach the plan's SubmitOptions, so PassSubmit never
    // repeats a finding reported here.
    SubmitOptions submit;
    submit.label = label;
    double v = 0;
    if (q.Has("weight")) {
      if (GetNumber(q.Find("weight"), &v) && IsFiniteNumber(v) && v > 0) {
        submit.weight = v;
      } else {
        r.Add(kRuleInvalidParameter, qpath,
              "weight must be a finite value > 0");
      }
    }
    if (q.Has("deadline_s")) {
      if (GetNumber(q.Find("deadline_s"), &v) && IsFiniteNumber(v) && v >= 0) {
        submit.deadline_s = v;
      } else {
        r.Add(kRuleInvalidParameter, qpath,
              "deadline_s must be finite and >= 0");
      }
    }
    const JsonValue* plan_doc = q.Find("plan");
    if (plan_doc == nullptr) {
      r.Add(kRuleSchemaDrift, qpath, "query entry has no plan document");
      continue;
    }
    if (catalog == nullptr) continue;

    const char* rule = nullptr;
    auto loaded = engine::PlanJson::Load(*plan_doc, *catalog, topo, &rule);
    if (!loaded.ok()) {
      r.Add(rule, qpath, loaded.status().message());
      continue;
    }
    const LintContext ctx{topo, catalog, has_policy ? &policy : nullptr,
                          &submit};
    r.Merge(LintPlan(loaded.value().plan, ctx));
  }
  return r;
}

LintReport LintManifestText(std::string_view text, const sim::Topology* topo,
                            const storage::Catalog* catalog) {
  auto parsed = JsonParser::Parse(text);
  if (!parsed.ok()) {
    LintReport r;
    r.Add(kRuleUnreadable, "manifest", parsed.status().message());
    return r;
  }
  return LintManifestDoc(parsed.value(), topo, catalog);
}

}  // namespace hape::lint
