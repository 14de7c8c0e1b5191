// Tests of the hape-lint static analysis pass: the LintReport container
// and its golden JSON shape, every HL### rule on hand-built plans and
// policies, the manifest document passes, the checked-in lint corpus
// (each corpus file must trigger exactly the rule its filename names),
// and the strict-mode admission gates in Engine and QueryService.

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "engine/plan.h"
#include "engine/policy.h"
#include "engine/scheduler.h"
#include "expr/expr.h"
#include "lint/diagnostic.h"
#include "lint/plan_lint.h"
#include "queries/plan_fuzzer.h"
#include "queries/tpch_queries.h"
#include "serve/query_service.h"
#include "sim/topology.h"
#include "storage/table.h"

namespace hape::lint {
namespace {

using engine::EngineConfig;
using engine::ExecutionPolicy;
using engine::SubmitOptions;
using expr::Expr;

class LintTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    topo_ = new sim::Topology(sim::Topology::PaperServer());
    tctx_ = new queries::TpchContext();
    tctx_->topo = topo_;
    ASSERT_TRUE(queries::PrepareTpch(tctx_).ok());
  }

  static storage::TablePtr Table(const std::string& name) {
    auto res = tctx_->catalog.Get(name);
    EXPECT_TRUE(res.ok()) << name;
    return res.MoveValue();
  }

  static ExecutionPolicy Hybrid() {
    return ExecutionPolicy::ForConfig(*topo_, EngineConfig::kProteusHybrid);
  }

  /// Context with everything the plan passes can consult.
  static LintContext FullContext(const ExecutionPolicy* policy,
                                 const SubmitOptions* submit = nullptr) {
    LintContext ctx;
    ctx.topo = topo_;
    ctx.catalog = &tctx_->catalog;
    ctx.policy = policy;
    ctx.submit = submit;
    return ctx;
  }

  /// customer build (small: ~1.5k actual rows) probed by a lineitem scan,
  /// counted — the minimal join plan several rule tests mutate.
  static engine::QueryPlan JoinPlan(double scale = 1.0) {
    engine::PlanBuilder pb("lint_join");
    auto build = pb.Scan(Table("customer"), {"c_custkey"}, 1024);
    build.Scale(scale);
    engine::BuildHandle h = build.HashBuild(Expr::Col(0), {0});
    auto probe = pb.Scan(Table("lineitem"), {"l_orderkey"}, 4096);
    probe.Scale(scale).Probe(h, Expr::Col(0));
    probe.Aggregate(nullptr, {engine::AggDef{engine::AggOp::kCount, nullptr}});
    return std::move(pb).Build();
  }

  static std::string ReadFile(const std::filesystem::path& path) {
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << path;
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
  }

  static std::string ShippedManifest() {
    return ReadFile(std::filesystem::path(HAPE_SOURCE_DIR) / "examples" /
                    "manifests" / "mix_q3_q5_q9.json");
  }

  static sim::Topology* topo_;
  static queries::TpchContext* tctx_;
};

sim::Topology* LintTest::topo_ = nullptr;
queries::TpchContext* LintTest::tctx_ = nullptr;

// ---- LintReport container ---------------------------------------------------

TEST_F(LintTest, ReportCountsAndSummary) {
  LintReport r;
  EXPECT_TRUE(r.empty());
  EXPECT_EQ(r.Summary(), "0 error(s), 0 warning(s)");
  r.Add(kRuleUnreachableDeadline, "plan 'x'", "late");
  r.Add(kRuleInvalidParameter, "plan 'x'", "boom");
  EXPECT_EQ(r.errors(), 1u);
  EXPECT_EQ(r.warnings(), 1u);
  EXPECT_TRUE(r.has_errors());
  EXPECT_TRUE(r.Has(kRuleInvalidParameter));
  EXPECT_TRUE(r.Has(kRuleUnreachableDeadline));
  EXPECT_FALSE(r.Has(kRuleCyclicPlan));
  // The summary leads with the first *error*, not the first diagnostic.
  EXPECT_EQ(r.Summary(), "1 error(s), 1 warning(s); first: HL008 plan 'x': boom");

  LintReport merged;
  merged.Merge(r);
  merged.Merge(r);
  EXPECT_EQ(merged.diagnostics().size(), 4u);
  EXPECT_EQ(merged.errors(), 2u);
}

TEST_F(LintTest, ReportGoldenJson) {
  LintReport r;
  r.Add(kRuleInvalidParameter, "plan 'x'", "boom");
  EXPECT_EQ(r.ToJsonString(),
            "{\"diagnostics\":[{\"severity\":\"error\",\"code\":\"HL008\","
            "\"path\":\"plan 'x'\",\"message\":\"boom\",\"hint\":\"\"}],"
            "\"errors\":1,\"warnings\":0}");
}

TEST_F(LintTest, RuleTableIsCompleteAndOrdered) {
  const std::vector<RuleInfo>& table = RuleTable();
  ASSERT_EQ(table.size(), 15u);
  for (size_t i = 0; i < table.size(); ++i) {
    char want[8];
    std::snprintf(want, sizeof(want), "HL%03d", static_cast<int>(i) % 1000);
    EXPECT_STREQ(table[i].code, want);
    EXPECT_NE(table[i].title[0], '\0');
  }
  // Warn-severity rules; everything else is an error, unknown codes too.
  for (const char* code : {kRuleUnreachableDeadline, kRuleIgnoredServeKnob,
                           kRuleSuspiciousExpr, kRuleDuplicateLabel,
                           kRuleBuildAnnotation}) {
    EXPECT_EQ(RuleSeverity(code), Severity::kWarning) << code;
  }
  EXPECT_EQ(RuleSeverity(kRuleGpuOvercommit), Severity::kError);
  EXPECT_EQ(RuleSeverity("HL999"), Severity::kError);
}

// ---- clean plans produce no findings ----------------------------------------

TEST_F(LintTest, OptimizedTpchPlansLintClean) {
  const ExecutionPolicy policy = Hybrid();
  engine::Engine eng(topo_);
  for (queries::BuildFn build : {queries::BuildQ3Plan, queries::BuildQ5Plan}) {
    auto bq = build(tctx_);
    ASSERT_TRUE(bq.ok());
    ASSERT_TRUE(eng.Optimize(&bq.value().plan, policy).ok());
    const LintReport r = LintPlan(bq.value().plan, FullContext(&policy));
    EXPECT_TRUE(r.empty()) << r.Summary();
  }
}

TEST_F(LintTest, FuzzedPlansLintClean) {
  const ExecutionPolicy policy = Hybrid();
  engine::Engine eng(topo_);
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    queries::Fuzzer fuzzer(seed);
    const queries::FuzzSpec spec = fuzzer.Generate();
    queries::FuzzPlan fp =
        queries::BuildFuzzPlan(spec, tctx_->catalog, /*chunk_rows=*/2048);
    ASSERT_TRUE(eng.Optimize(&fp.plan, policy).ok()) << "seed " << seed;
    const LintReport r = LintPlan(fp.plan, FullContext(&policy));
    EXPECT_TRUE(r.empty()) << "seed " << seed << ": " << r.Summary();
  }
}

// ---- per-rule plan passes ---------------------------------------------------

TEST_F(LintTest, DanglingProbeEdgeIsHL001) {
  // A BuildHandle from another plan: the probe edge targets a hash table
  // the probing plan does not own.
  engine::PlanBuilder other("other");
  auto ob = other.Scan(Table("customer"), {"c_custkey"}, 1024);
  engine::BuildHandle foreign = ob.HashBuild(Expr::Col(0), {0});
  engine::QueryPlan other_plan = std::move(other).Build();

  engine::PlanBuilder pb("dangling");
  auto probe = pb.Scan(Table("lineitem"), {"l_orderkey"}, 4096);
  probe.Probe(foreign, Expr::Col(0));
  probe.Aggregate(nullptr, {engine::AggDef{engine::AggOp::kCount, nullptr}});
  engine::QueryPlan plan = std::move(pb).Build();

  const LintReport r = LintPlan(plan, FullContext(nullptr));
  EXPECT_TRUE(r.Has(kRuleDanglingEdge)) << r.Summary();
  EXPECT_TRUE(r.has_errors());
}

TEST_F(LintTest, DependencyCycleIsHL002) {
  engine::PlanBuilder pb("cycle");
  auto a = pb.Scan(Table("customer"), {"c_custkey"}, 1024);
  a.After(1);
  a.HashBuild(Expr::Col(0), {0});
  auto b = pb.Scan(Table("orders"), {"o_orderkey"}, 1024);
  b.After(0);
  b.HashBuild(Expr::Col(0), {0});
  engine::QueryPlan plan = std::move(pb).Build();

  const LintReport r = LintPlan(plan, FullContext(nullptr));
  EXPECT_TRUE(r.Has(kRuleCyclicPlan)) << r.Summary();
  EXPECT_TRUE(r.has_errors());
}

TEST_F(LintTest, ColumnPastPacketWidthIsHL003) {
  engine::PlanBuilder pb("wide");
  auto p = pb.Scan(Table("lineitem"), {"l_orderkey"}, 4096);
  p.Filter(Expr::Lt(Expr::Col(5), Expr::Int(10)));
  p.Aggregate(nullptr, {engine::AggDef{engine::AggOp::kCount, nullptr}});
  engine::QueryPlan plan = std::move(pb).Build();

  const LintReport r = LintPlan(plan, FullContext(nullptr));
  EXPECT_TRUE(r.Has(kRuleColumnOutOfRange)) << r.Summary();
  EXPECT_FALSE(r.Has(kRuleSuspiciousExpr));  // the predicate is boolean
}

TEST_F(LintTest, TableMissingFromCatalogIsHL004) {
  engine::QueryPlan plan = JoinPlan();
  storage::Catalog empty;
  LintContext ctx;
  ctx.catalog = &empty;
  const LintReport r = LintPlan(plan, ctx);
  EXPECT_TRUE(r.Has(kRuleUnknownTableOrColumn)) << r.Summary();
  EXPECT_TRUE(r.has_errors());
}

TEST_F(LintTest, UnknownDeviceOverrideIsHL005) {
  engine::PlanBuilder pb("baddev");
  auto p = pb.Scan(Table("lineitem"), {"l_orderkey"}, 4096);
  p.OnDevices({99});
  p.Aggregate(nullptr, {engine::AggDef{engine::AggOp::kCount, nullptr}});
  engine::QueryPlan plan = std::move(pb).Build();

  const LintReport r = LintPlan(plan, FullContext(nullptr));
  EXPECT_TRUE(r.Has(kRuleInfeasiblePlacement)) << r.Summary();
}

TEST_F(LintTest, AnnotatedOvercommitIsHL006) {
  const ExecutionPolicy policy = Hybrid();
  engine::QueryPlan plan = JoinPlan(/*scale=*/10000.0);
  // An optimizer annotation saying the probed build materializes 600M
  // rows: far past the 7.75 GiB GPU admission budget with 2x staging.
  plan.mutable_node(0).est_nominal_out_rows = 600000000;
  const LintReport r = LintPlan(plan, FullContext(&policy));
  EXPECT_TRUE(r.Has(kRuleGpuOvercommit)) << r.Summary();
  EXPECT_TRUE(r.has_errors());
}

TEST_F(LintTest, UnannotatedPlanSkipsGpuBudget) {
  // Same plan without optimizer annotations: the scheduler fallback
  // (source rows x scale) is an upper bound, not an estimate, so the
  // budget pass must stay silent on declarative dumps.
  const ExecutionPolicy policy = Hybrid();
  engine::QueryPlan plan = JoinPlan(/*scale=*/10000.0);
  const LintReport r = LintPlan(plan, FullContext(&policy));
  EXPECT_FALSE(r.Has(kRuleGpuOvercommit)) << r.Summary();
}

TEST_F(LintTest, UnreachableDeadlineIsHL007) {
  engine::QueryPlan plan = JoinPlan();
  plan.mutable_node(0).est_cost_seconds = 10.0;
  SubmitOptions submit;
  submit.deadline_s = 0.5;
  const ExecutionPolicy policy = Hybrid();
  const LintReport r = LintPlan(plan, FullContext(&policy, &submit));
  EXPECT_TRUE(r.Has(kRuleUnreachableDeadline)) << r.Summary();
  EXPECT_EQ(r.errors(), 0u) << r.Summary();  // a warning, not a rejection
}

TEST_F(LintTest, BadSubmitParametersAreHL008) {
  engine::QueryPlan plan = JoinPlan();
  SubmitOptions submit;
  submit.weight = -1.0;
  submit.tier = -2;
  const LintReport r = LintPlan(plan, FullContext(nullptr, &submit));
  EXPECT_TRUE(r.Has(kRuleInvalidParameter)) << r.Summary();
  EXPECT_EQ(r.errors(), 2u) << r.Summary();
}

TEST_F(LintTest, FairShareWithoutAsyncIsHL009) {
  ExecutionPolicy policy = Hybrid();
  policy.scheduling = engine::SchedulingPolicy::kFairShare;
  policy.async = engine::AsyncOptions::Off();
  const LintReport r = LintPolicy(policy, topo_);
  EXPECT_TRUE(r.Has(kRulePolicyNeedsAsync)) << r.Summary();
  EXPECT_TRUE(r.has_errors());
}

TEST_F(LintTest, IgnoredServeKnobsAreHL010) {
  // shed_on_deadline under fifo scheduling never sheds anything.
  ExecutionPolicy policy = Hybrid();
  policy.scheduling = engine::SchedulingPolicy::kFifo;
  policy.serve.shed_on_deadline = true;
  const LintReport pr = LintPolicy(policy, topo_);
  EXPECT_TRUE(pr.Has(kRuleIgnoredServeKnob)) << pr.Summary();
  EXPECT_EQ(pr.errors(), 0u) << pr.Summary();

  // A nonzero SLA tier under fifo scheduling is recorded but never acted on.
  engine::QueryPlan plan = JoinPlan();
  SubmitOptions submit;
  submit.tier = 2;
  const LintReport r = LintPlan(plan, FullContext(&policy, &submit));
  EXPECT_TRUE(r.Has(kRuleIgnoredServeKnob)) << r.Summary();
}

TEST_F(LintTest, SuspiciousExpressionsAreHL012) {
  engine::PlanBuilder pb("sus");
  auto build = pb.Scan(Table("customer"), {"c_custkey"}, 1024);
  engine::BuildHandle h = build.HashBuild(Expr::Col(0), {0});
  auto probe = pb.Scan(Table("lineitem"), {"l_orderkey"}, 4096);
  // Non-boolean filter root and a constant probe key.
  probe.Filter(Expr::Add(Expr::Col(0), Expr::Int(1)));
  probe.Probe(h, Expr::Int(7));
  probe.Aggregate(nullptr, {engine::AggDef{engine::AggOp::kCount, nullptr}});
  engine::QueryPlan plan = std::move(pb).Build();

  const LintReport r = LintPlan(plan, FullContext(nullptr));
  EXPECT_TRUE(r.Has(kRuleSuspiciousExpr)) << r.Summary();
  EXPECT_EQ(r.errors(), 0u) << r.Summary();
  size_t suspicious = 0;
  for (const Diagnostic& d : r.diagnostics()) {
    if (d.code == kRuleSuspiciousExpr) ++suspicious;
  }
  EXPECT_EQ(suspicious, 2u);
}

TEST_F(LintTest, DeclaredRowsPastSourceCardinalityIsHL014) {
  engine::PlanBuilder pb("overdeclared");
  auto build = pb.Scan(Table("customer"), {"c_custkey"}, 1024);
  engine::BuildOptions opts;
  opts.expected_rows = 5000;  // customer has ~1.5k actual rows at SF 0.01
  engine::BuildHandle h = build.HashBuild(Expr::Col(0), {0}, opts);
  auto probe = pb.Scan(Table("lineitem"), {"l_orderkey"}, 4096);
  probe.Probe(h, Expr::Col(0));
  probe.Aggregate(nullptr, {engine::AggDef{engine::AggOp::kCount, nullptr}});
  engine::QueryPlan plan = std::move(pb).Build();

  const LintReport r = LintPlan(plan, FullContext(nullptr));
  EXPECT_TRUE(r.Has(kRuleBuildAnnotation)) << r.Summary();
  EXPECT_EQ(r.errors(), 0u) << r.Summary();
}

// ---- manifest document passes -----------------------------------------------

TEST_F(LintTest, UnparseableManifestIsHL000) {
  const LintReport r = LintManifestText("{ this is not json", nullptr, nullptr);
  EXPECT_TRUE(r.Has(kRuleUnreadable));
  EXPECT_TRUE(r.has_errors());
}

TEST_F(LintTest, ManifestFormatAndVersionDriftAreHL011) {
  const LintReport bad_fmt =
      LintManifestText(R"({"format":"not-a-manifest"})", nullptr, nullptr);
  EXPECT_TRUE(bad_fmt.Has(kRuleSchemaDrift));
  EXPECT_TRUE(bad_fmt.has_errors());

  const LintReport bad_ver = LintManifestText(
      R"({"format":"hape-manifest-v1","version":1})", nullptr, nullptr);
  EXPECT_TRUE(bad_ver.Has(kRuleSchemaDrift));
  EXPECT_TRUE(bad_ver.has_errors());
}

TEST_F(LintTest, DuplicateQueryLabelsAreHL013) {
  const char* manifest = R"({
    "format": "hape-manifest-v1", "version": 2,
    "tpch": {"sf_actual": 0.01, "sf_nominal": 100},
    "queries": [
      {"label": "q", "plan": {"format": "hape-plan-v1", "version": 2,
                              "plan": {"pipelines": []}}},
      {"label": "q", "plan": {"format": "hape-plan-v1", "version": 2,
                              "plan": {"pipelines": []}}}
    ]})";
  const LintReport r = LintManifestText(manifest, nullptr, nullptr);
  EXPECT_TRUE(r.Has(kRuleDuplicateLabel)) << r.Summary();
  EXPECT_EQ(r.errors(), 0u) << r.Summary();
}

TEST_F(LintTest, ShippedManifestLintsClean) {
  const std::string text = ShippedManifest();
  const LintReport r = LintManifestText(text, topo_, &tctx_->catalog);
  EXPECT_TRUE(r.empty()) << r.ToJsonString();

  // No catalog, no plan check: one warning says so, and nothing else.
  const LintReport unchecked = LintManifestText(text, topo_, nullptr);
  ASSERT_EQ(unchecked.diagnostics().size(), 1u) << unchecked.ToJsonString();
  EXPECT_EQ(unchecked.diagnostics()[0].code, kRuleSchemaDrift);
  EXPECT_EQ(unchecked.errors(), 0u);
}

// Numbers no writer emits must end in an error diagnostic, never in an
// out-of-range float -> integer cast or a hang (a broadcast chunk below
// the 1 MiB floor is a link reservation per byte of a nominal table).
TEST_F(LintTest, HostileManifestNumbersAreErrors) {
  const std::string shipped = ShippedManifest();
  const struct {
    const char* from;
    const char* to;
    const char* rule;
  } edits[] = {
      {R"("build_pipeline":0)", R"("build_pipeline":1e300)", kRuleSchemaDrift},
      {R"("id":0)", R"("id":1e300)", kRuleSchemaDrift},
      {R"("deps":[])", R"("deps":[4294967296])", kRuleSchemaDrift},
      {R"("seed":42)", R"("seed":1e300)", kRuleInvalidParameter},
      {R"("broadcast_chunk_bytes":67108864)", R"("broadcast_chunk_bytes":0)",
       kRuleInvalidParameter},
      {R"("broadcast_chunk_bytes":67108864)", R"("broadcast_chunk_bytes":1)",
       kRuleInvalidParameter},
  };
  for (const auto& e : edits) {
    std::string text = shipped;
    const size_t at = text.find(e.from);
    ASSERT_NE(at, std::string::npos) << e.from;
    text.replace(at, std::strlen(e.from), e.to);
    const LintReport r = LintManifestText(text, topo_, &tctx_->catalog);
    ASSERT_EQ(r.diagnostics().size(), 1u) << e.to << ": " << r.ToJsonString();
    EXPECT_EQ(r.diagnostics()[0].code, e.rule) << e.to;
    EXPECT_TRUE(r.has_errors()) << e.to;
  }
}

// A fault in the policy's device set is LintPolicy's, reported once, not
// again by every plan the policy places.
TEST_F(LintTest, PolicyDeviceFaultsAreReportedOnce) {
  std::string text = ShippedManifest();
  const std::string from = R"("devices":[0,1,2,3])";
  const size_t at = text.find(from);
  ASSERT_NE(at, std::string::npos);
  text.replace(at, from.size(), R"("devices":[0,1,2,99])");
  const LintReport r = LintManifestText(text, topo_, &tctx_->catalog);
  ASSERT_EQ(r.diagnostics().size(), 1u) << r.ToJsonString();
  EXPECT_EQ(r.diagnostics()[0].code, kRuleInfeasiblePlacement);

  // Engine admission counts an empty device set once.
  sim::Topology topo = sim::Topology::PaperServer();
  engine::Engine eng(&topo);
  ExecutionPolicy policy;
  engine::QueryPlan plan = JoinPlan();
  EXPECT_FALSE(eng.Run(&plan, policy).ok());
  const obs::Counter* errors = eng.metrics().FindCounter("lint.errors");
  ASSERT_NE(errors, nullptr);
  EXPECT_EQ(errors->value, 1.0);
}

// Every corpus file is named after the rule it must trigger
// (HL###_description.json), and its one fault yields exactly one
// diagnostic. Error-severity rules must make the report fail; warning
// rules must fire without introducing any error.
TEST_F(LintTest, CorpusFilesTriggerTheirNamedRule) {
  const std::filesystem::path dir =
      std::filesystem::path(HAPE_SOURCE_DIR) / "tests" / "lint_corpus";
  size_t files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".json") continue;
    ++files;
    const std::string code = entry.path().filename().string().substr(0, 5);
    const LintReport r =
        LintManifestText(ReadFile(entry.path()), topo_, &tctx_->catalog);
    EXPECT_TRUE(r.Has(code.c_str()))
        << entry.path() << ": " << r.ToJsonString();
    EXPECT_EQ(r.diagnostics().size(), 1u)
        << entry.path() << ": " << r.ToJsonString();
    if (RuleSeverity(code.c_str()) == Severity::kError) {
      EXPECT_TRUE(r.has_errors()) << entry.path();
    } else {
      EXPECT_EQ(r.errors(), 0u)
          << entry.path() << ": " << r.ToJsonString();
    }
  }
  EXPECT_GE(files, 8u);
}

// ---- strict-mode admission gates --------------------------------------------

TEST_F(LintTest, StrictEngineRejectsOvercommitWarnModeRuns) {
  // Strict: the annotated overcommit is rejected before any admission work.
  {
    sim::Topology topo = sim::Topology::PaperServer();
    engine::Engine eng(&topo);
    ExecutionPolicy policy =
        ExecutionPolicy::ForConfig(topo, EngineConfig::kProteusHybrid);
    policy.lint.strict = true;
    engine::QueryPlan plan = JoinPlan(/*scale=*/10000.0);
    plan.mutable_node(0).est_nominal_out_rows = 600000000;
    auto run = eng.Run(&plan, policy);
    ASSERT_FALSE(run.ok());
    EXPECT_NE(run.status().message().find("Run: lint rejected"),
              std::string::npos)
        << run.status().message();
    EXPECT_NE(run.status().message().find("HL006"), std::string::npos)
        << run.status().message();
    const obs::Counter* rejected = eng.metrics().FindCounter("lint.rejected");
    ASSERT_NE(rejected, nullptr);
    EXPECT_EQ(rejected->value, 1.0);
  }
  // Warn (the default): the same plan is admitted and runs — the *actual*
  // build table (post-filter rows) fits the GPUs even though the static
  // estimate does not.
  {
    sim::Topology topo = sim::Topology::PaperServer();
    engine::Engine eng(&topo);
    ExecutionPolicy policy =
        ExecutionPolicy::ForConfig(topo, EngineConfig::kProteusHybrid);
    ASSERT_FALSE(policy.lint.strict);  // warn is the default
    engine::QueryPlan plan = JoinPlan(/*scale=*/10000.0);
    plan.mutable_node(0).est_nominal_out_rows = 600000000;
    auto run = eng.Run(&plan, policy);
    ASSERT_TRUE(run.ok()) << run.status().message();
    const obs::Counter* errors = eng.metrics().FindCounter("lint.errors");
    ASSERT_NE(errors, nullptr);
    EXPECT_GE(errors->value, 1.0);
    EXPECT_EQ(eng.metrics().FindCounter("lint.rejected"), nullptr);
  }
}

TEST_F(LintTest, StrictRunAllRejectsBeforeSchedule) {
  // HL006 is detectable only by the lint pass (RunAll's own parameter
  // validation has no GPU-budget check), so the rejection must come from
  // the scheduler's per-query lint gate.
  sim::Topology topo = sim::Topology::PaperServer();
  engine::Engine eng(&topo);
  ExecutionPolicy policy =
      ExecutionPolicy::ForConfig(topo, EngineConfig::kProteusHybrid);
  policy.lint.strict = true;
  engine::QueryPlan plan = JoinPlan(/*scale=*/10000.0);
  plan.mutable_node(0).est_nominal_out_rows = 600000000;
  eng.Submit(std::move(plan));
  auto run = eng.RunAll(policy);
  ASSERT_FALSE(run.ok());
  EXPECT_NE(run.status().message().find("RunAll: lint rejected"),
            std::string::npos)
      << run.status().message();
  EXPECT_NE(run.status().message().find("HL006"), std::string::npos)
      << run.status().message();
}

TEST_F(LintTest, ServeSubmitLintsStrictAndWarn) {
  // Strict service: a bad submit weight is rejected at Submit — the
  // request never reaches the engine's queue.
  {
    sim::Topology topo = sim::Topology::PaperServer();
    engine::Engine eng(&topo);
    ExecutionPolicy policy =
        ExecutionPolicy::ForConfig(topo, EngineConfig::kProteusHybrid);
    policy.lint.strict = true;
    serve::QueryService service(&eng, &tctx_->catalog, policy);
    SubmitOptions opts;
    opts.weight = -1.0;
    auto ticket = service.Submit(JoinPlan(), opts);
    ASSERT_FALSE(ticket.ok());
    EXPECT_NE(ticket.status().message().find("Submit: lint rejected"),
              std::string::npos)
        << ticket.status().message();
    const obs::Counter* rejected =
        eng.metrics().FindCounter("serve.lint.rejected");
    ASSERT_NE(rejected, nullptr);
    EXPECT_EQ(rejected->value, 1.0);
  }
  // Warn service: the same request is admitted, with the finding counted.
  {
    sim::Topology topo = sim::Topology::PaperServer();
    engine::Engine eng(&topo);
    ExecutionPolicy policy =
        ExecutionPolicy::ForConfig(topo, EngineConfig::kProteusHybrid);
    serve::QueryService service(&eng, &tctx_->catalog, policy);
    SubmitOptions opts;
    opts.weight = -1.0;
    auto ticket = service.Submit(JoinPlan(), opts);
    ASSERT_TRUE(ticket.ok()) << ticket.status().message();
    const obs::Counter* errors =
        eng.metrics().FindCounter("serve.lint.errors");
    ASSERT_NE(errors, nullptr);
    EXPECT_GE(errors->value, 1.0);
    EXPECT_EQ(eng.metrics().FindCounter("serve.lint.rejected"), nullptr);
  }
}

}  // namespace
}  // namespace hape::lint
