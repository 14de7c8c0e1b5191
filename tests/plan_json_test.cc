// Plan serialization round-trip: Engine::DumpPlan emits a self-contained
// JSON document and Engine::LoadPlan rebuilds a validated QueryPlan (plus
// ExecutionPolicy) from it. The contract:
//   - every built-in TPC-H plan round-trips structurally (a second dump of
//     the loaded plan is byte-identical to the first);
//   - a loaded plan re-runs byte-identical to the in-memory original across
//     all five system configurations x async depths 0/1/4, through
//     Engine::Optimize (the fuzzer extends this to random DAGs);
//   - malformed manifests (unknown tables/columns/devices, dangling or
//     cyclic probe edges, bad expressions) return Status errors naming the
//     lint rule they break, never crash;
//   - non-ASCII labels survive the trip (common/json.h UTF-8 handling).

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "common/bits.h"
#include "common/json.h"
#include "engine/engine.h"
#include "engine/plan_json.h"
#include "lint/diagnostic.h"
#include "queries/tpch_queries.h"
#include "storage/tpch.h"

namespace hape::queries {
namespace {

using engine::Engine;
using engine::ExecutionPolicy;
using engine::LoadedPlan;
using engine::PlanJson;
using engine::QueryPlan;
using expr::Expr;

using Groups = std::map<int64_t, std::vector<double>>;

void ExpectBitIdentical(const Groups& a, const Groups& b,
                        const std::string& label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  auto ita = a.begin();
  auto itb = b.begin();
  for (; ita != a.end(); ++ita, ++itb) {
    ASSERT_EQ(ita->first, itb->first) << label;
    ASSERT_EQ(ita->second.size(), itb->second.size()) << label;
    EXPECT_EQ(0, std::memcmp(ita->second.data(), itb->second.data(),
                             ita->second.size() * sizeof(double)))
        << label << " group " << ita->first;
  }
}

class PlanJsonTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    topo_ = new sim::Topology(sim::Topology::PaperServer());
    ctx_ = new TpchContext();
    ctx_->topo = topo_;
    ctx_->sf_actual = 0.01;
    ctx_->sf_nominal = 100.0;
    ASSERT_TRUE(PrepareTpch(ctx_).ok());
  }
  void SetUp() override {
    topo_->Reset();
    ctx_->plan_mode = PlanMode::kOptimized;
    ctx_->async = engine::AsyncOptions::Off();
  }

  static sim::Topology* topo_;
  static TpchContext* ctx_;
};
sim::Topology* PlanJsonTest::topo_ = nullptr;
TpchContext* PlanJsonTest::ctx_ = nullptr;

struct NamedBuild {
  const char* name;
  BuildFn fn;
};

const NamedBuild kTpchPlans[] = {{"Q1", BuildQ1Plan},
                                 {"Q3", BuildQ3Plan},
                                 {"Q5", BuildQ5Plan},
                                 {"Q6", BuildQ6Plan},
                                 {"Q9", BuildQ9Plan}};

constexpr EngineConfig kAllConfigs[] = {
    EngineConfig::kDbmsC, EngineConfig::kProteusCpu,
    EngineConfig::kProteusHybrid, EngineConfig::kProteusGpu,
    EngineConfig::kDbmsG};

// ---- structural round-trip ---------------------------------------------------

TEST_F(PlanJsonTest, EveryTpchPlanRoundTripsByteIdenticallyAndRevalidates) {
  Engine& eng = EngineFor(ctx_);
  const ExecutionPolicy policy =
      ExecutionPolicy::ForConfig(*topo_, EngineConfig::kProteusHybrid);
  for (const NamedBuild& q : kTpchPlans) {
    auto bq = q.fn(ctx_);
    ASSERT_TRUE(bq.ok()) << q.name;
    auto dumped = eng.DumpPlan(bq.value().plan, policy);
    ASSERT_TRUE(dumped.ok()) << q.name << ": " << dumped.status().ToString();

    auto loaded = eng.LoadPlan(dumped.value(), ctx_->catalog);
    ASSERT_TRUE(loaded.ok()) << q.name << ": " << loaded.status().ToString();
    EXPECT_TRUE(loaded.value().has_policy) << q.name;
    EXPECT_EQ(loaded.value().plan.name(), bq.value().plan.name()) << q.name;
    ASSERT_EQ(loaded.value().plan.num_pipelines(),
              bq.value().plan.num_pipelines())
        << q.name;
    ASSERT_EQ(loaded.value().aggs.size(), 1u) << q.name;

    // Dump(Load(Dump(plan))) == Dump(plan): the document is a fixed point.
    auto dumped2 = eng.DumpPlan(loaded.value().plan, loaded.value().policy);
    ASSERT_TRUE(dumped2.ok()) << q.name;
    EXPECT_EQ(dumped.value(), dumped2.value()) << q.name;
  }
}

TEST_F(PlanJsonTest, PolicyRoundTripsEveryField) {
  ExecutionPolicy p =
      ExecutionPolicy::ForConfig(*topo_, EngineConfig::kProteusHybrid);
  p.routing = engine::RoutingPolicy::kHashBased;
  p.partitioned_gpu_join = false;
  p.device_reserved_bytes = 123 * sim::kMiB;
  p.async = engine::AsyncOptions::Depth(3);
  p.scheduling = engine::SchedulingPolicy::kSlaTiered;
  p.serve.max_inflight = 3;
  p.serve.aging_boost_s = 2.5;
  p.serve.shed_on_deadline = true;
  p.expected_device_share = 0.25;

  JsonWriter w;
  PlanJson::WritePolicy(&w, p);
  auto parsed = JsonParser::Parse(w.str());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  auto q = PlanJson::ReadPolicy(parsed.value());
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  const ExecutionPolicy& r = q.value();
  EXPECT_EQ(r.devices, p.devices);
  EXPECT_EQ(r.build_devices, p.build_devices);
  EXPECT_EQ(r.routing, p.routing);
  EXPECT_EQ(r.model, p.model);
  EXPECT_EQ(r.partitioned_gpu_join, p.partitioned_gpu_join);
  EXPECT_EQ(r.device_reserved_bytes, p.device_reserved_bytes);
  EXPECT_EQ(r.async.prefetch_depth, p.async.prefetch_depth);
  EXPECT_EQ(r.scheduling, p.scheduling);
  EXPECT_EQ(r.serve.max_inflight, p.serve.max_inflight);
  EXPECT_DOUBLE_EQ(r.serve.aging_boost_s, p.serve.aging_boost_s);
  EXPECT_EQ(r.serve.shed_on_deadline, p.serve.shed_on_deadline);
  EXPECT_DOUBLE_EQ(r.expected_device_share, p.expected_device_share);

  // Those twelve are every member a policy serializes: the leaf names,
  // nested ones under their object's name.
  std::vector<std::string> names;
  for (const auto& [key, value] : parsed.value().members()) {
    if (!value.is_object()) {
      names.push_back(key);
      continue;
    }
    for (const auto& [inner, unused] : value.members()) {
      names.push_back(key + "." + inner);
    }
  }
  EXPECT_EQ(names, (std::vector<std::string>{
                       "devices", "build_devices", "routing", "model",
                       "partitioned_gpu_join", "device_reserved_bytes",
                       "async.prefetch_depth", "scheduling",
                       "serve.max_inflight", "serve.aging_boost_s",
                       "serve.shed_on_deadline", "expected_device_share"}));
}

TEST_F(PlanJsonTest, OptimizedPlanRoundTripsSizingAndEstimates) {
  Engine& eng = EngineFor(ctx_);
  const ExecutionPolicy policy =
      ExecutionPolicy::ForConfig(*topo_, EngineConfig::kProteusHybrid);
  auto bq = BuildQ5Plan(ctx_);
  ASSERT_TRUE(bq.ok());
  ASSERT_TRUE(eng.Optimize(&bq.value().plan, policy).ok());

  auto dumped = eng.DumpPlan(bq.value().plan);
  ASSERT_TRUE(dumped.ok());
  auto loaded = eng.LoadPlan(dumped.value(), ctx_->catalog);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const QueryPlan& a = bq.value().plan;
  const QueryPlan& b = loaded.value().plan;
  ASSERT_EQ(a.num_pipelines(), b.num_pipelines());
  for (size_t i = 0; i < a.num_pipelines(); ++i) {
    const engine::PlanNode& na = a.node(static_cast<int>(i));
    const engine::PlanNode& nb = b.node(static_cast<int>(i));
    EXPECT_EQ(na.est_out_rows, nb.est_out_rows) << i;
    EXPECT_EQ(na.est_nominal_out_rows, nb.est_nominal_out_rows) << i;
    EXPECT_DOUBLE_EQ(na.est_cost_seconds, nb.est_cost_seconds) << i;
    EXPECT_EQ(na.terminal.heavy, nb.terminal.heavy) << i;
    if (na.is_build()) {
      // The optimizer set the bucket count after declaration; the loaded
      // plan must reproduce the revised count, not the declared one.
      EXPECT_EQ(na.terminal.ht_buckets, nb.terminal.ht_buckets) << i;
    }
  }
}

// A build whose probe multiplies its rows (part probing partsupp on its
// non-unique partkey) is estimated past its source; the optimizer must
// still size it within the bucket ceiling PlanJson::Load enforces, so its
// dump reloads.
TEST_F(PlanJsonTest, OptimizedRowMultiplyingBuildReloads) {
  Engine& eng = EngineFor(ctx_);
  const storage::TablePtr part = ctx_->catalog.Get("part").value();
  engine::PlanBuilder b("fanout");
  engine::BuildHandle ps =
      b.Scan(ctx_->catalog.Get("partsupp").value(),
             {"ps_partkey", "ps_suppkey"}, 4096)
          .HashBuild(Expr::Col(0), {1});
  engine::BuildHandle parts = b.Scan(part, {"p_partkey"}, 4096)
                                  .Probe(ps, Expr::Col(0))
                                  .HashBuild(Expr::Col(1), {0});
  auto probe = b.Scan(ctx_->catalog.Get("supplier").value(), {"s_suppkey"},
                      4096);
  probe.Probe(parts, Expr::Col(0));
  probe.Aggregate(nullptr, {engine::AggDef{engine::AggOp::kCount, nullptr}});
  QueryPlan plan = std::move(b).Build();
  const ExecutionPolicy policy =
      ExecutionPolicy::ForConfig(*topo_, EngineConfig::kProteusCpu);
  ASSERT_TRUE(eng.Optimize(&plan, policy).ok());
  const engine::PlanNode& build = plan.node(1);
  ASSERT_GT(build.est_out_rows, part->num_rows()) << "no fan-out estimated";
  EXPECT_EQ(build.terminal.ht_buckets, NextPow2(part->num_rows() + 16));

  auto dumped = eng.DumpPlan(plan);
  ASSERT_TRUE(dumped.ok());
  auto loaded = eng.LoadPlan(dumped.value(), ctx_->catalog);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().plan.node(1).terminal.ht_buckets,
            build.terminal.ht_buckets);
}

// ---- execution round-trip ----------------------------------------------------

TEST_F(PlanJsonTest, LoadedTpchPlansRerunByteIdenticalEverywhere) {
  Engine& eng = EngineFor(ctx_);
  for (const NamedBuild& q : kTpchPlans) {
    // Dump the unoptimized plan once; each cell reloads it fresh.
    auto bq = q.fn(ctx_);
    ASSERT_TRUE(bq.ok()) << q.name;
    auto dumped = eng.DumpPlan(bq.value().plan);
    ASSERT_TRUE(dumped.ok()) << q.name;

    for (EngineConfig config : kAllConfigs) {
      for (int depth : {0, 1, 4}) {
        const std::string label = std::string(q.name) + " " +
                                  ConfigName(config) + " depth " +
                                  std::to_string(depth);
        ctx_->async = depth > 0 ? engine::AsyncOptions::Depth(depth)
                                : engine::AsyncOptions::Off();
        topo_->Reset();
        QueryFn run = q.fn == BuildQ1Plan   ? RunQ1
                      : q.fn == BuildQ3Plan ? RunQ3
                      : q.fn == BuildQ5Plan ? RunQ5
                      : q.fn == BuildQ6Plan ? RunQ6
                                            : RunQ9;
        const QueryResult expected = run(ctx_, config);

        topo_->Reset();
        ExecutionPolicy policy = ExecutionPolicy::ForConfig(*topo_, config);
        policy.async = ctx_->async;
        auto loaded = eng.LoadPlan(dumped.value(), ctx_->catalog);
        ASSERT_TRUE(loaded.ok()) << label << ": "
                                 << loaded.status().ToString();
        auto opt = eng.Optimize(&loaded.value().plan, policy);
        ASSERT_TRUE(opt.ok()) << label;
        auto ran = eng.Run(&loaded.value().plan, policy);
        if (expected.DidNotFinish()) {
          // DNF cells (operator-at-a-time admission, GPU OOM) must fail the
          // same way for the loaded plan.
          EXPECT_FALSE(ran.ok()) << label;
          EXPECT_EQ(ran.status().code(), expected.status.code()) << label;
          continue;
        }
        ASSERT_TRUE(ran.ok()) << label << ": " << ran.status().ToString();
        ExpectBitIdentical(loaded.value().agg().result(), expected.groups,
                           label);
      }
    }
  }
}

// ---- zero-copy scans -----------------------------------------------------------

// A loaded plan's scans name the catalog's tables, with the dumped plan's
// columns and chunk rows, so every run cuts its packets as read-only views
// of the catalog's columns (the views themselves: storage_test's
// ColumnView.* and engine_test's Batch.ChunkColumns*).
TEST_F(PlanJsonTest, LoadedScanPacketsAliasTheCatalogColumns) {
  Engine& eng = EngineFor(ctx_);
  for (const NamedBuild& q : kTpchPlans) {
    auto bq = q.fn(ctx_);
    ASSERT_TRUE(bq.ok()) << q.name;
    const QueryPlan& built = bq.value().plan;
    auto dumped = eng.DumpPlan(built);
    ASSERT_TRUE(dumped.ok()) << q.name;
    auto loaded = eng.LoadPlan(dumped.value(), ctx_->catalog);
    ASSERT_TRUE(loaded.ok()) << q.name << ": " << loaded.status().ToString();
    const QueryPlan& plan = loaded.value().plan;
    ASSERT_EQ(plan.num_pipelines(), built.num_pipelines()) << q.name;
    for (size_t i = 0; i < plan.num_pipelines(); ++i) {
      const engine::PlanNode& node = plan.node(static_cast<int>(i));
      const engine::PlanNode& want = built.node(static_cast<int>(i));
      EXPECT_EQ(node.source_table,
                ctx_->catalog.Get(want.source_table->name()).value())
          << q.name << " " << node.name;
      EXPECT_EQ(node.source_columns, want.source_columns)
          << q.name << " " << node.name;
      EXPECT_EQ(node.source_chunk_rows, want.source_chunk_rows)
          << q.name << " " << node.name;
    }
  }
}

// ---- malformed manifests -----------------------------------------------------

std::string Manifest(const std::string& pipelines) {
  return std::string(R"({"format":"hape-plan-v1","plan":{"name":"t",)") +
         R"("pipelines":[)" + pipelines + "]}}";
}

/// A well-formed build pipeline over nation (id 0) to splice probes onto.
const char* kNationBuild =
    R"({"id":0,"name":"b","source":{"table":"nation",)"
    R"("columns":["n_nationkey"],"chunk_rows":1024},"ops":[],)"
    R"("sink":{"kind":"hash_build","key":{"op":"col","col":0},)"
    R"("payload_cols":[0]}})";

std::string ProbePipeline(int id, int build_ref,
                          const std::string& extra = "") {
  return std::string("{\"id\":") + std::to_string(id) +
         R"(,"name":"p","source":{"table":"supplier",)"
         R"("columns":["s_suppkey","s_nationkey"],"chunk_rows":1024},)" +
         extra +
         R"("ops":[{"kind":"probe","build_pipeline":)" +
         std::to_string(build_ref) +
         R"(,"key":{"op":"col","col":1}}],)"
         R"("sink":{"kind":"hash_agg","key":null,)"
         R"("aggs":[{"op":"count","arg":null}]}})";
}

/// A one-pipeline plan document carrying a policy over `devices`.
std::string PolicyManifest(const std::string& devices) {
  return std::string(R"({"format":"hape-plan-v1","plan":{"name":"t",)") +
         R"("pipelines":[{"id":0,"name":"p","source":{"table":"nation",)"
         R"("columns":["n_nationkey"],"chunk_rows":64},"ops":[],)"
         R"("sink":{"kind":"collect"}}]},"policy":{"devices":)" +
         devices + R"(,"build_devices":[0,1],"async":{"prefetch_depth":1}}})";
}

// Each case names the lint rule Load must report for it (the rule lint's
// manifest pass files the failure under).
TEST_F(PlanJsonTest, MalformedManifestsReturnStatusErrors) {
  using namespace lint;  // NOLINT — the HL### rule names
  struct Case {
    const char* what;
    std::string json;
    const char* rule;
  };
  const std::vector<Case> cases = {
      {"not JSON", "{plan", kRuleUnreadable},
      {"not a plan document", R"({"format":"hape-plan-v1"})",
       kRuleSchemaDrift},
      {"wrong format tag",
       R"({"format":"hape-plan-v999","plan":{"name":"t","pipelines":[]}})",
       kRuleSchemaDrift},
      {"stale schema version",
       std::string(R"({"format":"hape-plan-v1","version":1,)"
                   R"("plan":{"name":"t","pipelines":[)") +
           kNationBuild + "]}}",
       kRuleSchemaDrift},
      {"future schema version",
       std::string(R"({"format":"hape-plan-v1","version":3,)"
                   R"("plan":{"name":"t","pipelines":[)") +
           kNationBuild + "]}}",
       kRuleSchemaDrift},
      {"empty pipelines", Manifest(""), kRuleSchemaDrift},
      {"id off its array position",
       Manifest(R"({"id":1,"name":"p","source":{"table":"nation",)"
                R"("columns":["n_nationkey"],"chunk_rows":64},"ops":[],)"
                R"("sink":{"kind":"collect"}})"),
       kRuleSchemaDrift},
      {"unknown table",
       Manifest(R"({"id":0,"name":"p","source":{"table":"no_such_table",)"
                R"("columns":["c"],"chunk_rows":64},"ops":[],)"
                R"("sink":{"kind":"collect"}})"),
       kRuleUnknownTableOrColumn},
      {"unknown column",
       Manifest(R"({"id":0,"name":"p","source":{"table":"nation",)"
                R"("columns":["n_bogus"],"chunk_rows":64},"ops":[],)"
                R"("sink":{"kind":"collect"}})"),
       kRuleUnknownTableOrColumn},
      {"zero chunk_rows",
       Manifest(R"({"id":0,"name":"p","source":{"table":"nation",)"
                R"("columns":["n_nationkey"],"chunk_rows":0},"ops":[],)"
                R"("sink":{"kind":"collect"}})"),
       kRuleInvalidParameter},
      {"non-positive scale",
       Manifest(R"({"id":0,"name":"p","source":{"table":"nation",)"
                R"("columns":["n_nationkey"],"chunk_rows":64},"scale":0,)"
                R"("ops":[],"sink":{"kind":"collect"}})"),
       kRuleInvalidParameter},
      {"scale past 2^40 nominal rows (float-cast guard)",
       Manifest(R"({"id":0,"name":"p","source":{"table":"nation",)"
                R"("columns":["n_nationkey"],"chunk_rows":64},"scale":1e300,)"
                R"("ops":[],"sink":{"kind":"collect"}})"),
       kRuleInvalidParameter},
      {"infinite scale",
       Manifest(R"({"id":0,"name":"p","source":{"table":"nation",)"
                R"("columns":["n_nationkey"],"chunk_rows":64},"scale":1e400,)"
                R"("ops":[],"sink":{"kind":"collect"}})"),
       kRuleInvalidParameter},
      {"dangling probe edge (out of range)",
       Manifest(std::string(kNationBuild) + "," + ProbePipeline(1, 7)),
       kRuleDanglingEdge},
      {"dangling probe edge (not a build)",
       Manifest(std::string(kNationBuild) + "," + ProbePipeline(1, 1)),
       kRuleDanglingEdge},
      {"self-probe",
       Manifest(R"({"id":0,"name":"a","source":{"table":"nation",)"
                R"("columns":["n_nationkey"],"chunk_rows":64},)"
                R"("ops":[{"kind":"probe","build_pipeline":0,)"
                R"("key":{"op":"col","col":0}}],)"
                R"("sink":{"kind":"hash_build","key":{"op":"col","col":0},)"
                R"("payload_cols":[0]}})"),
       kRuleCyclicPlan},
      {"probe cycle",
       Manifest(
           R"({"id":0,"name":"a","source":{"table":"nation",)"
           R"("columns":["n_nationkey"],"chunk_rows":64},)"
           R"("ops":[{"kind":"probe","build_pipeline":1,)"
           R"("key":{"op":"col","col":0}}],)"
           R"("sink":{"kind":"hash_build","key":{"op":"col","col":0},)"
           R"("payload_cols":[0]}},)"
           R"({"id":1,"name":"b","source":{"table":"region",)"
           R"("columns":["r_regionkey"],"chunk_rows":64},)"
           R"("ops":[{"kind":"probe","build_pipeline":0,)"
           R"("key":{"op":"col","col":0}}],)"
           R"("sink":{"kind":"hash_build","key":{"op":"col","col":0},)"
           R"("payload_cols":[0]}})"),
       kRuleCyclicPlan},
      {"dependency cycle",
       Manifest(R"({"id":0,"name":"p","source":{"table":"nation",)"
                R"("columns":["n_nationkey"],"chunk_rows":64},"deps":[0],)"
                R"("ops":[],"sink":{"kind":"collect"}})"),
       kRuleCyclicPlan},
      {"unknown device id",
       Manifest(std::string(kNationBuild) + "," +
                ProbePipeline(1, 0, R"("run_on":[99],)")),
       kRuleInfeasiblePlacement},
      {"unknown policy device",
       std::string(R"({"format":"hape-plan-v1","plan":{"name":"t",)"
                   R"("pipelines":[)") +
           kNationBuild + R"(]},"policy":{"devices":[0,99]}})",
       kRuleInfeasiblePlacement},
      {"unreadable policy block",
       std::string(R"({"format":"hape-plan-v1","plan":{"name":"t",)"
                   R"("pipelines":[)") +
           kNationBuild + R"(]},"policy":{"devices":"all"}})",
       kRuleSchemaDrift},
      {"unknown sink kind",
       Manifest(R"({"id":0,"name":"p","source":{"table":"nation",)"
                R"("columns":["n_nationkey"],"chunk_rows":64},"ops":[],)"
                R"("sink":{"kind":"teleport"}})"),
       kRuleSchemaDrift},
      {"unknown op kind",
       Manifest(R"({"id":0,"name":"p","source":{"table":"nation",)"
                R"("columns":["n_nationkey"],"chunk_rows":64},)"
                R"("ops":[{"kind":"sort"}],"sink":{"kind":"collect"}})"),
       kRuleSchemaDrift},
      {"unknown expression operator",
       Manifest(R"({"id":0,"name":"p","source":{"table":"nation",)"
                R"("columns":["n_nationkey"],"chunk_rows":64},)"
                R"("ops":[{"kind":"filter","expr":{"op":"modulo",)"
                R"("args":[]}}],"sink":{"kind":"collect"}})"),
       kRuleSchemaDrift},
      {"negative column index",
       Manifest(R"({"id":0,"name":"p","source":{"table":"nation",)"
                R"("columns":["n_nationkey"],"chunk_rows":64},)"
                R"("ops":[{"kind":"filter","expr":{"op":"col","col":-3}}],)"
                R"("sink":{"kind":"collect"}})"),
       kRuleColumnOutOfRange},
      {"aggregate without arg",
       Manifest(R"({"id":0,"name":"p","source":{"table":"nation",)"
                R"("columns":["n_nationkey"],"chunk_rows":64},"ops":[],)"
                R"("sink":{"kind":"hash_agg","key":null,)"
                R"("aggs":[{"op":"sum","arg":null}]}})"),
       kRuleSchemaDrift},
      {"filter column beyond the packet layout",
       Manifest(R"({"id":0,"name":"p","source":{"table":"nation",)"
                R"("columns":["n_nationkey"],"chunk_rows":64},)"
                R"("ops":[{"kind":"filter","expr":{"op":"col","col":5}}],)"
                R"("sink":{"kind":"collect"}})"),
       kRuleColumnOutOfRange},
      {"aggregate arg beyond the packet layout",
       Manifest(R"({"id":0,"name":"p","source":{"table":"nation",)"
                R"("columns":["n_nationkey"],"chunk_rows":64},"ops":[],)"
                R"("sink":{"kind":"hash_agg","key":null,)"
                R"("aggs":[{"op":"sum","arg":{"op":"col","col":3}}]}})"),
       kRuleColumnOutOfRange},
      {"payload column beyond the packet layout",
       Manifest(R"({"id":0,"name":"b","source":{"table":"nation",)"
                R"("columns":["n_nationkey"],"chunk_rows":64},"ops":[],)"
                R"("sink":{"kind":"hash_build","key":{"op":"col","col":0},)"
                R"("payload_cols":[99]}})"),
       kRuleColumnOutOfRange},
      {"negative payload column",
       Manifest(R"({"id":0,"name":"b","source":{"table":"nation",)"
                R"("columns":["n_nationkey"],"chunk_rows":64},"ops":[],)"
                R"("sink":{"kind":"hash_build","key":{"op":"col","col":0},)"
                R"("payload_cols":[-1]}})"),
       kRuleColumnOutOfRange},
      {"astronomical probe reference (float-cast guard)",
       Manifest(std::string(kNationBuild) + "," +
                R"({"id":1,"name":"p","source":{"table":"supplier",)"
                R"("columns":["s_suppkey"],"chunk_rows":64},)"
                R"("ops":[{"kind":"probe","build_pipeline":1e300,)"
                R"("key":{"op":"col","col":0}}],)"
                R"("sink":{"kind":"collect"}})"),
       kRuleSchemaDrift},
      {"astronomical int literal (float-cast guard)",
       Manifest(R"({"id":0,"name":"p","source":{"table":"nation",)"
                R"("columns":["n_nationkey"],"chunk_rows":64},)"
                R"("ops":[{"kind":"filter","expr":{"op":"==","args":)"
                R"([{"op":"col","col":0},{"op":"int","v":1e300}]}}],)"
                R"("sink":{"kind":"collect"}})"),
       kRuleSchemaDrift},
      {"fractional int literal",
       Manifest(R"({"id":0,"name":"p","source":{"table":"nation",)"
                R"("columns":["n_nationkey"],"chunk_rows":64},)"
                R"("ops":[{"kind":"filter","expr":{"op":"==","args":)"
                R"([{"op":"col","col":0},{"op":"int","v":2.5}]}}],)"
                R"("sink":{"kind":"collect"}})"),
       kRuleSchemaDrift},
      {"wrapping dependency index",
       Manifest(R"({"id":0,"name":"p","source":{"table":"nation",)"
                R"("columns":["n_nationkey"],"chunk_rows":64},)"
                R"("deps":[4294967296],"ops":[],)"
                R"("sink":{"kind":"collect"}})"),
       kRuleSchemaDrift},
      {"empty-string int literal",
       Manifest(R"({"id":0,"name":"p","source":{"table":"nation",)"
                R"("columns":["n_nationkey"],"chunk_rows":64},)"
                R"("ops":[{"kind":"filter","expr":{"op":"==","args":)"
                R"([{"op":"col","col":0},{"op":"int","v":""}]}}],)"
                R"("sink":{"kind":"collect"}})"),
       kRuleSchemaDrift},
      {"implausible ht_buckets (allocation guard)",
       Manifest(R"({"id":0,"name":"b","source":{"table":"nation",)"
                R"("columns":["n_nationkey"],"chunk_rows":64},"ops":[],)"
                R"("sink":{"kind":"hash_build","key":{"op":"col","col":0},)"
                R"("payload_cols":[0],"ht_buckets":4503599627370496}})"),
       kRuleInvalidParameter},
      {"declared_build_rows past the table (allocation guard)",
       Manifest(R"({"id":0,"name":"b","source":{"table":"nation",)"
                R"("columns":["n_nationkey"],"chunk_rows":64},"ops":[],)"
                R"("sink":{"kind":"hash_build","key":{"op":"col","col":0},)"
                R"("payload_cols":[0],"declared_build_rows":26}})"),
       kRuleInvalidParameter},
      {"fractional chunk_rows",
       Manifest(R"({"id":0,"name":"p","source":{"table":"nation",)"
                R"("columns":["n_nationkey"],"chunk_rows":64.5},"ops":[],)"
                R"("sink":{"kind":"collect"}})"),
       kRuleSchemaDrift},
      {"unknown policy device", PolicyManifest("[0,1,2,99]"),
       kRuleInfeasiblePlacement},
  };
  for (const Case& c : cases) {
    const char* rule = nullptr;
    auto loaded = PlanJson::Load(c.json, ctx_->catalog, topo_, &rule);
    EXPECT_FALSE(loaded.ok()) << c.what;
    if (!loaded.ok()) {
      EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument)
          << c.what << ": " << loaded.status().ToString();
      ASSERT_NE(rule, nullptr) << c.what;
      EXPECT_STREQ(rule, c.rule)
          << c.what << ": " << loaded.status().ToString();
    }
  }
}

TEST_F(PlanJsonTest, ValidHandWrittenManifestLoadsAndRuns) {
  Engine& eng = EngineFor(ctx_);
  const std::string json =
      Manifest(std::string(kNationBuild) + "," + ProbePipeline(1, 0));
  auto loaded = eng.LoadPlan(json, ctx_->catalog);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const ExecutionPolicy policy =
      ExecutionPolicy::ForConfig(*topo_, EngineConfig::kProteusCpu);
  auto ran = eng.Run(&loaded.value().plan, policy);
  ASSERT_TRUE(ran.ok()) << ran.status().ToString();
  // Every supplier has a nation: the count(*) equals the table cardinality.
  const Groups& got = loaded.value().agg().result();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_DOUBLE_EQ(
      got.begin()->second[0],
      static_cast<double>(ctx_->catalog.Get("supplier").value()->num_rows()));
}

// ---- non-ASCII labels --------------------------------------------------------

TEST_F(PlanJsonTest, NonAsciiLabelsSurviveTheRoundTrip) {
  Engine& eng = EngineFor(ctx_);
  const std::string name = "q-κόσμος-日本語-\xF0\x9F\x9A\x80";  // incl. 🚀
  engine::PlanBuilder b(name);
  auto nation = ctx_->catalog.Get("nation");
  ASSERT_TRUE(nation.ok());
  auto pipe = b.Scan(nation.value(), {"n_nationkey"}, 1024);
  pipe.Named("σ-пайплайн");
  pipe.Aggregate(nullptr, {engine::AggDef{engine::AggOp::kCount, nullptr}});
  QueryPlan plan = std::move(b).Build();

  auto dumped = eng.DumpPlan(plan);
  ASSERT_TRUE(dumped.ok());
  auto loaded = eng.LoadPlan(dumped.value(), ctx_->catalog);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().plan.name(), name);
  EXPECT_EQ(loaded.value().plan.node(0).name, "σ-пайплайн");

  // The same labels written as \uXXXX escapes (as an external tool might)
  // must decode to the identical plan — the common/json.h regression this
  // PR fixes: escapes >= 0x80 and surrogate pairs used to be rejected.
  std::string escaped = dumped.value();
  const std::string raw = "\xF0\x9F\x9A\x80";        // U+1F680
  const std::string esc = "\\ud83d\\ude80";          // its surrogate pair
  const size_t at = escaped.find(raw);
  ASSERT_NE(at, std::string::npos);
  escaped.replace(at, raw.size(), esc);
  auto loaded2 = eng.LoadPlan(escaped, ctx_->catalog);
  ASSERT_TRUE(loaded2.ok()) << loaded2.status().ToString();
  EXPECT_EQ(loaded2.value().plan.name(), name);
}

}  // namespace
}  // namespace hape::queries
