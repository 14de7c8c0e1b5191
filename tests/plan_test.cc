#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "engine/plan.h"
#include "engine/policy.h"
#include "engine/scheduler.h"
#include "lint/diagnostic.h"
#include "sim/topology.h"
#include "storage/column.h"
#include "storage/table.h"

namespace hape::engine {
namespace {

using expr::Expr;

/// Two-column table `name` (k int64 = row % 10, v float64 = 1.0) of `rows`
/// rows.
storage::TablePtr KvTable(const std::string& name, size_t rows) {
  auto schema = std::make_shared<storage::Schema>(std::vector<storage::Field>{
      {"k", storage::DataType::kInt64}, {"v", storage::DataType::kFloat64}});
  std::vector<int64_t> keys(rows);
  for (size_t i = 0; i < rows; ++i) keys[i] = static_cast<int64_t>(i % 10);
  return std::make_shared<storage::Table>(
      name, schema,
      std::vector<storage::ColumnPtr>{
          std::make_shared<storage::Column>(std::move(keys)),
          std::make_shared<storage::Column>(std::vector<double>(rows, 1.0))});
}

/// A scan of both columns of KvTable(name, packets x rows_per_packet), in
/// packets of `rows_per_packet` rows.
PipelineBuilder ScanKv(PlanBuilder* b, const std::string& name, int packets,
                       size_t rows_per_packet) {
  return b->Scan(KvTable(name, packets * rows_per_packet), {"k", "v"},
                 rows_per_packet);
}

// ---- builder round-trip ------------------------------------------------------

TEST(PlanBuilder, RoundTripStructure) {
  PlanBuilder b("round-trip");
  const storage::TablePtr table = KvTable("scan", 128);
  auto pipe = b.Scan(table, {"v", "k"}, 64);
  pipe.Filter(Expr::Gt(Expr::Col(1), Expr::Int(3)));
  AggHandle agg = pipe.Aggregate(nullptr,
                                 {AggDef{AggOp::kCount, nullptr}});
  QueryPlan plan = std::move(b).Build();

  EXPECT_EQ(plan.name(), "round-trip");
  ASSERT_EQ(plan.num_pipelines(), 1u);
  const PlanNode& node = plan.node(0);
  EXPECT_EQ(node.name, "scan");
  // The node records the scan, not its packets.
  EXPECT_EQ(node.source_table, table);
  EXPECT_EQ(node.source_columns, (std::vector<std::string>{"v", "k"}));
  EXPECT_EQ(node.source_chunk_rows, 64u);
  EXPECT_EQ(node.source_rows(), 128u);
  EXPECT_EQ(node.ops.size(), 1u);
  EXPECT_EQ(node.terminal.kind, TerminalSpec::Kind::kAggregate);
  EXPECT_TRUE(node.deps.empty());
  EXPECT_EQ(agg.pipeline(), 0);
  EXPECT_TRUE(plan.Validate().ok());
}

TEST(PlanBuilder, BuildProbeCreatesDependencyEdge) {
  PlanBuilder b("join");
  BuildHandle build =
      ScanKv(&b, "build-side", 1, 32).HashBuild(Expr::Col(0), {1});
  auto probe = ScanKv(&b, "probe-side", 1, 32);
  probe.Probe(build, Expr::Col(0));
  probe.Aggregate(nullptr, {AggDef{AggOp::kCount, nullptr}});
  QueryPlan plan = std::move(b).Build();

  ASSERT_EQ(plan.num_pipelines(), 2u);
  EXPECT_TRUE(plan.node(0).is_build());
  ASSERT_EQ(plan.node(1).deps.size(), 1u);
  EXPECT_EQ(plan.node(1).deps[0], 0);
  EXPECT_EQ(build.pipeline(), 0);
  EXPECT_EQ(plan.node(1).ProbedBuilds(), std::vector<int>{0});
  ASSERT_TRUE(plan.Validate().ok());

  auto order = plan.TopologicalOrder();
  ASSERT_TRUE(order.ok());
  EXPECT_EQ(order.value(), (std::vector<int>{0, 1}));
}

// ---- validation --------------------------------------------------------------

TEST(QueryPlan, ValidateRejectsMissingSink) {
  PlanBuilder b("no-sink");
  ScanKv(&b, "scan", 1, 8);  // no terminal
  QueryPlan plan = std::move(b).Build();
  const char* rule = nullptr;
  const Status st = plan.Validate(nullptr, &rule);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("no sink"), std::string::npos);
  EXPECT_STREQ(rule, lint::kRuleDanglingEdge);
}

TEST(QueryPlan, ValidateRejectsDependencyCycle) {
  PlanBuilder b("cycle");
  auto a = ScanKv(&b, "a", 1, 8);
  auto c = ScanKv(&b, "c", 1, 8);
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
  auto pipe = ScanKv(&b, "scan", 1, 8);
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
      ScanKv(&other, "build", 1, 8).HashBuild(Expr::Col(0), {1});
  QueryPlan other_plan = std::move(other).Build();

  PlanBuilder b("probing");
  auto probe = ScanKv(&b, "probe", 1, 8);
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
  const storage::TablePtr tiny = KvTable("tiny", 3);
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
  auto pipe = ScanKv(&b, "scan", 4, 100);
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
  auto pipe = b.Scan(KvTable("tiny", 3), {"k"}, 2);
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
      ScanKv(&b, "build", 2, 200).HashBuild(Expr::Col(0), {1});
  auto probe = ScanKv(&b, "probe", 2, 200);
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
      ScanKv(&b, "build", 1, 100).HashBuild(Expr::Col(0), {1});
  auto probe = ScanKv(&b, "probe", 2, 100);
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
      ScanKv(&b, "build-a", 1, 50).HashBuild(Expr::Col(0), {1});
  auto mid = ScanKv(&b, "mid", 1, 50);
  mid.Probe(a, Expr::Col(0));
  BuildHandle bh = mid.HashBuild(Expr::Col(0), {1});
  auto probe = ScanKv(&b, "probe", 1, 50);
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
  auto pipe = ScanKv(&b, "scan", 1, 8);
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

/// Exact (hex-float) record of a run's simulated costs: the finish, and
/// per pipeline its times, row counts, traffic and transfer accounting.
std::string CostRecord(const RunStats& rs) {
  std::string s;
  char buf[64];
  const auto d = [&](double v) {
    std::snprintf(buf, sizeof(buf), "%a,", v);
    s += buf;
  };
  const auto u = [&](uint64_t v) { s += std::to_string(v) + ","; };
  d(rs.finish);
  d(rs.placement_finish);
  u(rs.broadcast_bytes);
  for (const PipelineRunStats& p : rs.pipelines) {
    s += p.name + ":";
    d(p.stats.start);
    d(p.stats.finish);
    u(p.stats.packets);
    u(p.stats.rows_in);
    u(p.stats.rows_out);
    const sim::TrafficStats& t = p.stats.traffic;
    for (uint64_t v : {t.dram_seq_read_bytes, t.dram_seq_write_bytes,
                       t.dram_rand_accesses, t.scratchpad_accesses,
                       t.l1_line_accesses, t.tuple_ops, t.atomics}) {
      u(v);
    }
    d(t.write_coalescing);
    d(t.l1_miss_rate);
    u(p.stats.moved_bytes);
    d(p.stats.transfer_busy_s);
    d(p.stats.transfer_exposed_s);
    for (const auto& [dev, busy] : p.stats.device_busy_s) {
      u(static_cast<uint64_t>(dev));
      d(busy);
    }
    s += ";";
  }
  return s;
}

// A plan is data: every run compiles fresh pipelines, sinks and hash
// tables, so one plan runs twice on one engine and once on a fresh one
// with byte-identical groups and bit-identical simulated costs. The build
// is nominally far past the L3, which its own pricing reads: a table kept
// from the first run would price the second run's build differently.
TEST_F(EngineFacadeTest, PlansRunAgainOnAnyEngine) {
  PlanBuilder b("again");
  auto build = ScanKv(&b, "build", 2, 50);
  build.Scale(1e6);
  BuildHandle h = build.HashBuild(Expr::Col(0), {1});
  auto probe = ScanKv(&b, "probe", 4, 100);
  probe.Scale(1e6);
  probe.Probe(h, Expr::Col(0));
  AggHandle agg = probe.Aggregate(Expr::Col(0),
                                  {AggDef{AggOp::kSum, Expr::Col(2)},
                                   AggDef{AggOp::kCount, nullptr}});
  QueryPlan plan = std::move(b).Build();
  const ExecutionPolicy policy =
      ExecutionPolicy::ForConfig(topo_, EngineConfig::kProteusHybrid);

  struct Outcome {
    AggGroups groups;
    std::string costs;
  };
  const auto run = [&](Engine* eng, sim::Topology* topo) {
    topo->Reset();
    auto r = eng->Run(&plan, policy);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? Outcome{agg.result(), CostRecord(r.value())} : Outcome{};
  };
  const Outcome first = run(&eng_, &topo_);
  ASSERT_FALSE(first.groups.empty());
  ASSERT_GT(first.costs.size(), 0u);
  sim::Topology fresh_topo = sim::Topology::PaperServer();
  Engine fresh(&fresh_topo);
  for (const Outcome& again :
       {run(&eng_, &topo_), run(&fresh, &fresh_topo)}) {
    ASSERT_EQ(again.groups.size(), first.groups.size());
    for (auto a = again.groups.begin(), f = first.groups.begin();
         a != again.groups.end(); ++a, ++f) {
      ASSERT_EQ(a->first, f->first);
      ASSERT_EQ(a->second.size(), f->second.size());
      EXPECT_EQ(0, std::memcmp(a->second.data(), f->second.data(),
                               a->second.size() * sizeof(double)))
          << "group " << a->first;
    }
    EXPECT_EQ(again.costs, first.costs);
  }
}

// A plan records its scans and holds no packets: declaring, dumping,
// loading, optimizing and submitting it take no reference to a scanned
// column, and the views a run cuts are gone once Run or RunAll returns.
TEST_F(EngineFacadeTest, PlansHoldNoScanViews) {
  const storage::TablePtr build_table = KvTable("build", 100);
  const storage::TablePtr probe_table = KvTable("probe", 400);
  storage::Catalog catalog;
  ASSERT_TRUE(catalog.Register(build_table).ok());
  ASSERT_TRUE(catalog.Register(probe_table).ok());
  const auto use_counts = [&] {
    std::vector<long> counts;
    for (const storage::TablePtr& t : {build_table, probe_table}) {
      for (int c = 0; c < t->num_columns(); ++c) {
        counts.push_back(t->column(c).use_count());
      }
    }
    return counts;
  };
  const std::vector<long> start = use_counts();

  PlanBuilder b("views");
  BuildHandle h =
      b.Scan(build_table, {"k", "v"}, 30).HashBuild(Expr::Col(0), {1});
  auto probe = b.Scan(probe_table, {"k", "v"}, 64);
  probe.Probe(h, Expr::Col(0));
  AggHandle agg = probe.Aggregate(Expr::Col(0),
                                  {AggDef{AggOp::kSum, Expr::Col(2)}});
  QueryPlan plan = std::move(b).Build();
  EXPECT_EQ(use_counts(), start) << "Scan";

  const ExecutionPolicy policy =
      ExecutionPolicy::ForConfig(topo_, EngineConfig::kProteusHybrid);
  auto dumped = eng_.DumpPlan(plan);
  ASSERT_TRUE(dumped.ok()) << dumped.status().ToString();
  auto loaded = eng_.LoadPlan(dumped.value(), catalog);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(use_counts(), start) << "DumpPlan/LoadPlan";
  ASSERT_TRUE(eng_.Optimize(&plan, policy).ok());
  EXPECT_EQ(use_counts(), start) << "Optimize";

  ASSERT_TRUE(eng_.Run(&plan, policy).ok());
  EXPECT_EQ(agg.result().size(), 10u);
  EXPECT_EQ(use_counts(), start) << "Run";

  eng_.Submit(std::move(plan));
  eng_.Submit(std::move(loaded.value().plan));
  EXPECT_EQ(use_counts(), start) << "Submit";
  topo_.Reset();
  ASSERT_TRUE(eng_.RunAll(policy).ok());
  EXPECT_EQ(agg.result().size(), 10u);
  EXPECT_EQ(use_counts(), start) << "RunAll";
}

TEST_F(EngineFacadeTest, RejectsPolicyWithoutDevices) {
  PlanBuilder b("no-devices");
  auto pipe = ScanKv(&b, "scan", 1, 8);
  pipe.Aggregate(nullptr, {AggDef{AggOp::kCount, nullptr}});
  QueryPlan plan = std::move(b).Build();
  ExecutionPolicy policy;  // empty device set
  EXPECT_FALSE(eng_.Run(&plan, policy).ok());
}

// Validate holds every policy range, so Run refuses what lint flags.
TEST_F(EngineFacadeTest, RejectsOutOfRangePolicyFactors) {
  const struct {
    const char* knob;
    void (*edit)(ExecutionPolicy*);
  } cases[] = {
      {"expected_device_share",
       [](ExecutionPolicy* p) {
         p->expected_device_share = std::numeric_limits<double>::quiet_NaN();
       }},
      {"prefetch_depth",
       [](ExecutionPolicy* p) { p->async.prefetch_depth = -1; }},
  };
  for (const auto& c : cases) {
    PlanBuilder b("ranges");
    auto pipe = ScanKv(&b, "scan", 1, 8);
    pipe.Aggregate(nullptr, {AggDef{AggOp::kCount, nullptr}});
    QueryPlan plan = std::move(b).Build();
    ExecutionPolicy policy;
    policy.devices = topo_.CpuDeviceIds();
    c.edit(&policy);
    const auto run = eng_.Run(&plan, policy);
    ASSERT_FALSE(run.ok()) << c.knob;
    EXPECT_EQ(run.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(run.status().message().find(c.knob), std::string::npos)
        << run.status().ToString();
  }
}

}  // namespace
}  // namespace hape::engine
