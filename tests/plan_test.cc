#include <gtest/gtest.h>

#include "engine/engine.h"
#include "engine/plan.h"
#include "engine/policy.h"
#include "lint/diagnostic.h"
#include "sim/topology.h"
#include "storage/column.h"
#include "storage/table.h"

namespace hape::engine {
namespace {

using expr::Expr;

std::vector<memory::Batch> MakeBatches(int packets, size_t rows_per_packet) {
  std::vector<memory::Batch> out;
  for (int p = 0; p < packets; ++p) {
    memory::Batch b;
    b.rows = rows_per_packet;
    std::vector<int64_t> keys(rows_per_packet);
    std::vector<double> vals(rows_per_packet);
    for (size_t i = 0; i < rows_per_packet; ++i) {
      keys[i] = static_cast<int64_t>(i % 10);
      vals[i] = 1.0;
    }
    b.columns = {std::make_shared<storage::Column>(std::move(keys)),
                 std::make_shared<storage::Column>(std::move(vals))};
    out.push_back(std::move(b));
  }
  return out;
}

/// Two-column table (k int64, v float64) for Scan pipelines, whose packet
/// width Validate checks.
storage::TablePtr TinyTable() {
  auto schema = std::make_shared<storage::Schema>(std::vector<storage::Field>{
      {"k", storage::DataType::kInt64}, {"v", storage::DataType::kFloat64}});
  return std::make_shared<storage::Table>(
      "tiny", schema,
      std::vector<storage::ColumnPtr>{
          std::make_shared<storage::Column>(std::vector<int64_t>{1, 2, 3}),
          std::make_shared<storage::Column>(
              std::vector<double>{0.5, 1.5, 2.5})});
}

// ---- builder round-trip ------------------------------------------------------

TEST(PlanBuilder, RoundTripStructure) {
  PlanBuilder b("round-trip");
  auto pipe = b.Source("scan", MakeBatches(2, 64));
  pipe.Filter(Expr::Gt(Expr::Col(0), Expr::Int(3)));
  AggHandle agg = pipe.Aggregate(nullptr,
                                 {AggDef{AggOp::kCount, nullptr}});
  QueryPlan plan = std::move(b).Build();

  EXPECT_EQ(plan.name(), "round-trip");
  ASSERT_EQ(plan.num_pipelines(), 1u);
  const PlanNode& node = plan.node(0);
  EXPECT_EQ(node.pipeline.name, "scan");
  EXPECT_EQ(node.pipeline.stages.size(), 2u);  // scan + filter
  EXPECT_NE(node.pipeline.sink, nullptr);      // owned by the plan
  EXPECT_TRUE(node.deps.empty());
  EXPECT_EQ(agg.pipeline(), 0);
  EXPECT_TRUE(plan.Validate().ok());
}

TEST(PlanBuilder, BuildProbeCreatesDependencyEdge) {
  PlanBuilder b("join");
  BuildHandle build =
      b.Source("build-side", MakeBatches(1, 32)).HashBuild(Expr::Col(0), {1});
  auto probe = b.Source("probe-side", MakeBatches(1, 32));
  probe.Probe(build, Expr::Col(0));
  probe.Aggregate(nullptr, {AggDef{AggOp::kCount, nullptr}});
  QueryPlan plan = std::move(b).Build();

  ASSERT_EQ(plan.num_pipelines(), 2u);
  EXPECT_TRUE(plan.node(0).is_build);
  ASSERT_EQ(plan.node(1).deps.size(), 1u);
  EXPECT_EQ(plan.node(1).deps[0], 0);
  EXPECT_EQ(plan.BuildNodeOf(build.state().get()), 0);
  ASSERT_TRUE(plan.Validate().ok());

  auto order = plan.TopologicalOrder();
  ASSERT_TRUE(order.ok());
  EXPECT_EQ(order.value(), (std::vector<int>{0, 1}));
}

// ---- validation --------------------------------------------------------------

TEST(QueryPlan, ValidateRejectsMissingSink) {
  PlanBuilder b("no-sink");
  b.Source("scan", MakeBatches(1, 8));  // no terminal
  QueryPlan plan = std::move(b).Build();
  const char* rule = nullptr;
  const Status st = plan.Validate(nullptr, &rule);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("no sink"), std::string::npos);
  EXPECT_STREQ(rule, lint::kRuleDanglingEdge);
}

TEST(QueryPlan, ValidateRejectsEmptyStageChain) {
  PlanBuilder b("no-stages");
  auto pipe = b.Source("intermediates", MakeBatches(1, 8),
                       SourceOptions{1.0, /*charge_source_read=*/false});
  pipe.Collect();
  QueryPlan plan = std::move(b).Build();
  const char* rule = nullptr;
  const Status st = plan.Validate(nullptr, &rule);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("empty stage chain"), std::string::npos);
  EXPECT_STREQ(rule, lint::kRuleDanglingEdge);
}

TEST(QueryPlan, ValidateRejectsDependencyCycle) {
  PlanBuilder b("cycle");
  auto a = b.Source("a", MakeBatches(1, 8));
  auto c = b.Source("c", MakeBatches(1, 8));
  a.After(c.id()).Collect();
  c.After(a.id()).Collect();
  QueryPlan plan = std::move(b).Build();
  const char* rule = nullptr;
  const Status st = plan.Validate(nullptr, &rule);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("cycle"), std::string::npos);
  EXPECT_STREQ(rule, lint::kRuleCyclicPlan);
  EXPECT_FALSE(plan.TopologicalOrder().ok());
}

TEST(QueryPlan, ValidateRejectsUnknownDeviceId) {
  sim::Topology topo = sim::Topology::PaperServer();
  PlanBuilder b("bad-device");
  auto pipe = b.Source("scan", MakeBatches(1, 8));
  pipe.OnDevices({42});
  pipe.Collect();
  QueryPlan plan = std::move(b).Build();
  const char* rule = nullptr;
  EXPECT_TRUE(plan.Validate(nullptr, &rule).ok());  // structurally fine
  EXPECT_EQ(rule, nullptr);  // set only on failure
  const Status st = plan.Validate(&topo, &rule);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("unknown device id 42"), std::string::npos);
  EXPECT_STREQ(rule, lint::kRuleInfeasiblePlacement);
}

TEST(QueryPlan, ValidateRejectsForeignJoinState) {
  PlanBuilder other("other");
  BuildHandle foreign =
      other.Source("build", MakeBatches(1, 8)).HashBuild(Expr::Col(0), {1});
  QueryPlan other_plan = std::move(other).Build();

  PlanBuilder b("probing");
  auto probe = b.Source("probe", MakeBatches(1, 8));
  probe.Probe(foreign, Expr::Col(0));
  probe.Collect();
  QueryPlan plan = std::move(b).Build();
  const char* rule = nullptr;
  const Status st = plan.Validate(nullptr, &rule);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("not built by this plan"), std::string::npos);
  EXPECT_STREQ(rule, lint::kRuleDanglingEdge);
}

// Every column reference is checked against the packet layout at its
// position: scanned columns, plus each probe's payload, replaced by each
// projection.
TEST(QueryPlan, ValidateRejectsColumnsPastThePacketWidth) {
  const storage::TablePtr tiny = TinyTable();
  const auto count = std::vector<AggDef>{AggDef{AggOp::kCount, nullptr}};
  struct Case {
    const char* what;
    void (*declare)(PipelineBuilder* pipe, const BuildHandle& build);
    bool fits;
  };
  const Case cases[] = {
      {"filter on the scan's last column",
       [](PipelineBuilder* p, const BuildHandle&) {
         p->Filter(Expr::Gt(Expr::Col(1), Expr::Int(0)));
       },
       true},
      {"filter past the scan",
       [](PipelineBuilder* p, const BuildHandle&) {
         p->Filter(Expr::Gt(Expr::Col(2), Expr::Int(0)));
       },
       false},
      {"projection past the scan",
       [](PipelineBuilder* p, const BuildHandle&) {
         p->Project({Expr::Col(0), Expr::Col(5)});
       },
       false},
      {"filter past a narrowing projection",
       [](PipelineBuilder* p, const BuildHandle&) {
         p->Project({Expr::Col(1)});
         p->Filter(Expr::Gt(Expr::Col(1), Expr::Int(0)));
       },
       false},
      {"probe key past the scan",
       [](PipelineBuilder* p, const BuildHandle& b) {
         p->Probe(b, Expr::Col(2));
       },
       false},
      {"filter on the probe's payload column",
       [](PipelineBuilder* p, const BuildHandle& b) {
         p->Probe(b, Expr::Col(0));
         p->Filter(Expr::Gt(Expr::Col(2), Expr::Int(0)));
       },
       true},
      {"filter past the probe's payload",
       [](PipelineBuilder* p, const BuildHandle& b) {
         p->Probe(b, Expr::Col(0));
         p->Filter(Expr::Gt(Expr::Col(3), Expr::Int(0)));
       },
       false},
  };
  for (const Case& c : cases) {
    PlanBuilder b("widths");
    const BuildHandle build =
        b.Scan(tiny, {"k", "v"}, 2).HashBuild(Expr::Col(0), {1});
    auto pipe = b.Scan(tiny, {"k", "v"}, 2);
    c.declare(&pipe, build);
    pipe.Aggregate(nullptr, count);
    QueryPlan plan = std::move(b).Build();
    const char* rule = nullptr;
    const Status st = plan.Validate(nullptr, &rule);
    EXPECT_EQ(st.ok(), c.fits) << c.what << ": " << st.ToString();
    if (!c.fits) {
      EXPECT_STREQ(rule, lint::kRuleColumnOutOfRange) << c.what;
    }
  }

  // Sink references: build key and payload (negative too), aggregate key
  // and arguments.
  const std::vector<std::pair<const char*, void (*)(PipelineBuilder*)>>
      sinks = {
          {"build key", [](PipelineBuilder* p) {
             p->HashBuild(Expr::Col(2), {0});
           }},
          {"build payload", [](PipelineBuilder* p) {
             p->HashBuild(Expr::Col(0), {2});
           }},
          {"negative build payload", [](PipelineBuilder* p) {
             p->HashBuild(Expr::Col(0), {-1});
           }},
          {"aggregate key", [](PipelineBuilder* p) {
             p->Aggregate(Expr::Col(2), {AggDef{AggOp::kCount, nullptr}});
           }},
          {"aggregate argument", [](PipelineBuilder* p) {
             p->Aggregate(nullptr, {AggDef{AggOp::kSum, Expr::Col(4)}});
           }},
      };
  for (const auto& [what, terminate] : sinks) {
    PlanBuilder b("sink-widths");
    auto pipe = b.Scan(tiny, {"k", "v"}, 2);
    terminate(&pipe);
    QueryPlan plan = std::move(b).Build();
    const char* rule = nullptr;
    EXPECT_FALSE(plan.Validate(nullptr, &rule).ok()) << what;
    EXPECT_STREQ(rule, lint::kRuleColumnOutOfRange) << what;
  }

  // Source() pipelines have no declared width: their references pass.
  PlanBuilder src("source");
  auto pipe = src.Source("packets", MakeBatches(1, 8));
  pipe.Filter(Expr::Gt(Expr::Col(7), Expr::Int(0)));
  pipe.Aggregate(nullptr, count);
  EXPECT_TRUE(std::move(src).Build().Validate().ok());
}

// ---- policy ------------------------------------------------------------------

TEST(ExecutionPolicy, ForConfigShapes) {
  sim::Topology topo = sim::Topology::PaperServer();
  const auto cpus = topo.CpuDeviceIds();
  const auto gpus = topo.GpuDeviceIds();

  auto c = ExecutionPolicy::ForConfig(topo, EngineConfig::kDbmsC);
  EXPECT_EQ(c.devices, cpus);
  EXPECT_EQ(c.model, ExecutionModel::kVectorAtATime);

  auto h = ExecutionPolicy::ForConfig(topo, EngineConfig::kProteusHybrid);
  EXPECT_EQ(h.devices.size(), cpus.size() + gpus.size());
  EXPECT_TRUE(h.UsesCpu(topo));
  EXPECT_TRUE(h.UsesGpu(topo));
  EXPECT_EQ(h.model, ExecutionModel::kJitFused);

  auto g = ExecutionPolicy::ForConfig(topo, EngineConfig::kDbmsG);
  EXPECT_EQ(g.devices, gpus);
  EXPECT_EQ(g.model, ExecutionModel::kOperatorAtATime);
  EXPECT_FALSE(g.UsesCpu(topo));
  EXPECT_EQ(g.build_devices, cpus);  // builds stay host-side
  EXPECT_TRUE(g.Validate(topo).ok());
}

TEST(ExecutionPolicy, ValidateRejectsBadDeviceSets) {
  sim::Topology topo = sim::Topology::PaperServer();
  ExecutionPolicy p;
  EXPECT_FALSE(p.Validate(topo).ok());  // no devices
  p.devices = {99};
  EXPECT_FALSE(p.Validate(topo).ok());  // unknown id
  p.devices = topo.CpuDeviceIds();
  p.build_devices = topo.GpuDeviceIds();
  EXPECT_FALSE(p.Validate(topo).ok());  // GPU build devices
}

// ---- engine facade -----------------------------------------------------------

class EngineFacadeTest : public ::testing::Test {
 protected:
  EngineFacadeTest() : topo_(sim::Topology::PaperServer()), eng_(&topo_) {}
  sim::Topology topo_;
  Engine eng_;
};

TEST_F(EngineFacadeTest, RunsAggPlanAndReportsPerPipelineStats) {
  PlanBuilder b("mini-agg");
  auto pipe = b.Source("scan", MakeBatches(4, 100));
  AggHandle agg = pipe.Aggregate(Expr::Col(0),
                                 {AggDef{AggOp::kSum, Expr::Col(1)},
                                  AggDef{AggOp::kCount, nullptr}});
  QueryPlan plan = std::move(b).Build();

  ExecutionPolicy policy;
  policy.devices = topo_.CpuDeviceIds();
  auto run = eng_.Run(&plan, policy);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_GT(run.value().finish, 0.0);
  ASSERT_EQ(run.value().pipelines.size(), 1u);
  EXPECT_EQ(run.value().pipelines[0].name, "scan");
  EXPECT_EQ(run.value().pipelines[0].stats.rows_in, 400u);
  // 4 packets x 100 rows, keys 0..9: each group sums 10 per packet.
  ASSERT_EQ(agg.result().size(), 10u);
  EXPECT_DOUBLE_EQ(agg.result().at(0)[0], 40.0);
  EXPECT_DOUBLE_EQ(agg.result().at(0)[1], 40.0);
}

// A filter on column 5 of a one-column scan used to reach the executor's
// unchecked column access; Validate rejects it before any admission work.
TEST_F(EngineFacadeTest, RunRejectsColumnPastThePacketWidth) {
  PlanBuilder b("too-wide");
  auto pipe = b.Scan(TinyTable(), {"k"}, 2);
  pipe.Filter(Expr::Gt(Expr::Col(5), Expr::Int(0)));
  pipe.Aggregate(nullptr, {AggDef{AggOp::kCount, nullptr}});
  QueryPlan plan = std::move(b).Build();

  ExecutionPolicy policy;
  policy.devices = topo_.CpuDeviceIds();
  auto run = eng_.Run(&plan, policy);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(run.status().message().find("column $5"), std::string::npos)
      << run.status().ToString();
}

TEST_F(EngineFacadeTest, ProbeStartsAfterBuildFinishes) {
  PlanBuilder b("ordered");
  BuildHandle build =
      b.Source("build", MakeBatches(2, 200)).HashBuild(Expr::Col(0), {1});
  auto probe = b.Source("probe", MakeBatches(2, 200));
  probe.Probe(build, Expr::Col(0));
  probe.Aggregate(nullptr, {AggDef{AggOp::kCount, nullptr}});
  QueryPlan plan = std::move(b).Build();

  ExecutionPolicy policy;
  policy.devices = topo_.CpuDeviceIds();
  policy.build_devices = topo_.CpuDeviceIds();
  auto run = eng_.Run(&plan, policy);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  ASSERT_EQ(run.value().pipelines.size(), 2u);
  const ExecStats& bs = run.value().pipelines[0].stats;
  const ExecStats& ps = run.value().pipelines[1].stats;
  EXPECT_GE(ps.start, bs.finish);
  EXPECT_GT(ps.rows_out, 0u);
}

TEST_F(EngineFacadeTest, GpuProbePlacementBroadcastsTables) {
  PlanBuilder b("gpu-placed");
  BuildHandle build =
      b.Source("build", MakeBatches(1, 100)).HashBuild(Expr::Col(0), {1});
  auto probe = b.Source("probe", MakeBatches(2, 100));
  probe.Probe(build, Expr::Col(0));
  probe.Aggregate(nullptr, {AggDef{AggOp::kCount, nullptr}});
  QueryPlan plan = std::move(b).Build();

  ExecutionPolicy policy;
  policy.devices = topo_.GpuDeviceIds();
  policy.build_devices = topo_.CpuDeviceIds();
  auto run = eng_.Run(&plan, policy);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_GT(run.value().broadcast_bytes, 0u);
  EXPECT_GT(run.value().placement_finish, 0.0);
  EXPECT_FALSE(run.value().co_processed);
  // The probe pipeline waits for the broadcast mem-move.
  EXPECT_GE(run.value().pipelines[1].stats.start,
            run.value().placement_finish);
}

TEST_F(EngineFacadeTest, MultiLevelJoinDagPlacesTablesPerLevel) {
  // A build downstream of a probe: pipeline 1 probes A and builds B, which
  // pipeline 2 probes. Placement must run one round per level instead of
  // expecting every build to precede the first probe.
  PlanBuilder b("two-level");
  BuildHandle a =
      b.Source("build-a", MakeBatches(1, 50)).HashBuild(Expr::Col(0), {1});
  auto mid = b.Source("mid", MakeBatches(1, 50));
  mid.Probe(a, Expr::Col(0));
  BuildHandle bh = mid.HashBuild(Expr::Col(0), {1});
  auto probe = b.Source("probe", MakeBatches(1, 50));
  probe.Probe(bh, Expr::Col(0));
  probe.Aggregate(nullptr, {AggDef{AggOp::kCount, nullptr}});
  QueryPlan plan = std::move(b).Build();

  ExecutionPolicy policy;
  policy.devices = topo_.GpuDeviceIds();  // placement rounds required
  policy.build_devices = topo_.CpuDeviceIds();
  auto run = eng_.Run(&plan, policy);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  ASSERT_EQ(run.value().pipelines.size(), 3u);
  EXPECT_GT(run.value().pipelines[2].stats.rows_out, 0u);
  EXPECT_GT(run.value().broadcast_bytes, 0u);
}

TEST_F(EngineFacadeTest, OperatorAtATimeAdmissionRejectsBigIntermediates) {
  PlanBuilder b("too-big");
  auto pipe = b.Source("scan", MakeBatches(1, 8));
  pipe.Aggregate(nullptr, {AggDef{AggOp::kCount, nullptr}});
  b.DeclareMaterializedIntermediate(64ull * sim::kGiB, "materialized scan");
  QueryPlan plan = std::move(b).Build();

  ExecutionPolicy policy;
  policy.devices = topo_.GpuDeviceIds();
  policy.model = ExecutionModel::kOperatorAtATime;
  auto run = eng_.Run(&plan, policy);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kNotSupported);
}

TEST_F(EngineFacadeTest, PlansAreSingleShot) {
  PlanBuilder b("once");
  auto pipe = b.Source("scan", MakeBatches(1, 8));
  pipe.Aggregate(nullptr, {AggDef{AggOp::kCount, nullptr}});
  QueryPlan plan = std::move(b).Build();

  ExecutionPolicy policy;
  policy.devices = topo_.CpuDeviceIds();
  ASSERT_TRUE(eng_.Run(&plan, policy).ok());
  const auto again = eng_.Run(&plan, policy);
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(EngineFacadeTest, RejectsPolicyWithoutDevices) {
  PlanBuilder b("no-devices");
  auto pipe = b.Source("scan", MakeBatches(1, 8));
  pipe.Aggregate(nullptr, {AggDef{AggOp::kCount, nullptr}});
  QueryPlan plan = std::move(b).Build();
  ExecutionPolicy policy;  // empty device set
  EXPECT_FALSE(eng_.Run(&plan, policy).ok());
}

// Each broadcast chunk is a link reservation. This plan's build table is
// ~GBs nominal, so a chunk of 0 bytes (clamped to 1) or 1 byte would
// reserve billions of them; Validate rejects both before admission.
TEST_F(EngineFacadeTest, RejectsBroadcastChunksBelowTheFloor) {
  const auto gpu_join = [] {
    PlanBuilder b("gpu-join");
    auto build = b.Source("build", MakeBatches(1, 100));
    build.Scale(1e6);
    BuildHandle h = build.HashBuild(Expr::Col(0), {1});
    auto probe = b.Source("probe", MakeBatches(2, 100));
    probe.Probe(h, Expr::Col(0));
    probe.Aggregate(nullptr, {AggDef{AggOp::kCount, nullptr}});
    return std::move(b).Build();
  };
  ExecutionPolicy policy;
  policy.devices = topo_.GpuDeviceIds();
  policy.build_devices = topo_.CpuDeviceIds();
  policy.async = AsyncOptions::Depth(1);
  for (uint64_t chunk : {0, 1}) {
    policy.async.broadcast_chunk_bytes = chunk;
    QueryPlan plan = gpu_join();
    const auto run = eng_.Run(&plan, policy);
    ASSERT_FALSE(run.ok()) << chunk;
    EXPECT_EQ(run.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(run.status().message().find("broadcast_chunk_bytes"),
              std::string::npos)
        << run.status().ToString();
  }
  // At the floor the same table goes out in a few thousand chunks.
  policy.async.broadcast_chunk_bytes = AsyncOptions::kMinBroadcastChunkBytes;
  QueryPlan plan = gpu_join();
  const auto run = eng_.Run(&plan, policy);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_GT(run.value().broadcast_bytes, sim::kGiB);
}

}  // namespace
}  // namespace hape::engine
