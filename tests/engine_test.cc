#include <gtest/gtest.h>

#include <map>

#include "engine/executor.h"
#include "engine/sinks.h"
#include "engine/stages.h"
#include "memory/gather.h"

namespace hape::engine {
namespace {

using expr::Expr;

memory::Batch MakeBatch(std::vector<int64_t> keys, std::vector<double> vals,
                        int node = 0) {
  memory::Batch b;
  b.rows = keys.size();
  b.mem_node = node;
  b.columns = {std::make_shared<storage::Column>(std::move(keys)),
               std::make_shared<storage::Column>(std::move(vals))};
  return b;
}

/// Packet row `i` of column `c`, read through the column's selection.
double At(const memory::Batch& b, int c, size_t i) {
  return b.columns[c]->GetDouble(memory::Row(b.selection(c), i));
}

// ---- batch & gather ----------------------------------------------------------

TEST(Batch, ChunkColumnsSplitsEvenly) {
  auto col = std::make_shared<storage::Column>(
      std::vector<int64_t>{0, 1, 2, 3, 4, 5, 6});
  auto chunks = memory::ChunkColumns({col}, 7, 3, /*mem_node=*/1);
  ASSERT_EQ(chunks.size(), 3u);
  EXPECT_EQ(chunks[0].rows, 3u);
  EXPECT_EQ(chunks[2].rows, 1u);
  EXPECT_EQ(chunks[2].columns[0]->i64()[0], 6);
  EXPECT_EQ(chunks[1].mem_node, 1);
  // Zero-copy: each packet column aliases the source at its chunk's offset.
  for (size_t i = 0; i < chunks.size(); ++i) {
    EXPECT_EQ(chunks[i].columns[0]->i64().data(), col->i64().data() + 3 * i);
  }
}

TEST(Batch, ChunkEmptyYieldsOneEmptyPacket) {
  auto col = std::make_shared<storage::Column>(storage::DataType::kInt64);
  auto chunks = memory::ChunkColumns({col}, 0, 4, 0);
  ASSERT_EQ(chunks.size(), 1u);
  EXPECT_EQ(chunks[0].rows, 0u);
}

TEST(Batch, ByteSizeSumsColumns) {
  auto b = MakeBatch({1, 2}, {0.5, 1.5});
  EXPECT_EQ(b.byte_size(), 2 * 8u + 2 * 8u);
}

TEST(Gather, TakeReordersAndRepeats) {
  storage::Column c(std::vector<int32_t>{5, 6, 7});
  std::vector<uint32_t> rows{2, 0, 2};
  auto out = memory::Take(c, rows);
  EXPECT_EQ(out->i32()[0], 7);
  EXPECT_EQ(out->i32()[1], 5);
  EXPECT_EQ(out->i32()[2], 7);
}

TEST(Gather, SelectRowsAppliesToAllColumns) {
  auto b = MakeBatch({10, 20, 30}, {1, 2, 3});
  const auto before = b.columns;
  memory::SelectRows(&b, {1});
  EXPECT_EQ(b.rows, 1u);
  EXPECT_EQ(b.columns, before);  // narrowed, not copied
  EXPECT_EQ(At(b, 0, 0), 20);
  EXPECT_DOUBLE_EQ(At(b, 1, 0), 2.0);
  EXPECT_EQ(b.byte_size(), 8u + 8u);  // logical: rows x width
}

TEST(Gather, SelectRowsComposesEachSharedSelectionOnce) {
  // Columns 0/1 were narrowed together; 2/3 arrived through their own
  // shared selection (a probe's payload).
  auto b = MakeBatch({10, 20, 30, 40}, {1, 2, 3, 4});
  memory::SelectRows(&b, {3, 1, 0});
  ASSERT_EQ(b.selections[0], b.selections[1]);
  const auto payload = std::make_shared<const memory::Selection>(
      memory::Selection{2, 2, 0});
  b.columns.push_back(std::make_shared<storage::Column>(
      std::vector<int32_t>{7, 8, 9}));
  b.columns.push_back(std::make_shared<storage::Column>(
      std::vector<double>{0.5, 1.5, 2.5}));
  b.selections.push_back(payload);
  b.selections.push_back(payload);

  memory::SelectRows(&b, {2, 0});
  ASSERT_EQ(b.rows, 2u);
  ASSERT_EQ(b.selections.size(), 4u);
  EXPECT_EQ(b.selections[0], b.selections[1]);
  EXPECT_EQ(b.selections[2], b.selections[3]);
  EXPECT_NE(b.selections[0], b.selections[2]);
  EXPECT_EQ(*b.selections[0], (memory::Selection{0, 3}));
  EXPECT_EQ(*b.selections[2], (memory::Selection{0, 2}));
  EXPECT_EQ(At(b, 0, 0), 10);
  EXPECT_EQ(At(b, 0, 1), 40);
  EXPECT_EQ(At(b, 2, 0), 7);
  EXPECT_DOUBLE_EQ(At(b, 3, 1), 2.5);
}

// ---- stages -------------------------------------------------------------------

TEST(Stages, ScanChargesBytes) {
  auto b = MakeBatch({1, 2, 3}, {1, 2, 3});
  sim::TrafficStats t;
  codegen::CpuBackend be{sim::CpuSpec{}};
  ScanStage()(&b, &t, be);
  EXPECT_EQ(t.dram_seq_read_bytes, b.byte_size());
}

TEST(Stages, FilterCompactsAndCharges) {
  auto b = MakeBatch({1, 2, 3, 4}, {1, 2, 3, 4});
  sim::TrafficStats t;
  codegen::CpuBackend be{sim::CpuSpec{}};
  FilterStage(Expr::Gt(Expr::Col(0), Expr::Int(2)))(&b, &t, be);
  EXPECT_EQ(b.rows, 2u);
  EXPECT_EQ(At(b, 0, 0), 3);
  EXPECT_DOUBLE_EQ(At(b, 1, 1), 4.0);
  EXPECT_GT(t.tuple_ops, 0u);
}

TEST(Stages, FilterKeepsEveryColumnPtr) {
  auto b = MakeBatch({1, 2, 3, 4}, {1, 2, 3, 4});
  const auto before = b.columns;
  sim::TrafficStats t;
  codegen::CpuBackend be{sim::CpuSpec{}};
  FilterStage(Expr::Lt(Expr::Col(1), Expr::Double(2.5)))(&b, &t, be);
  ASSERT_EQ(b.rows, 2u);
  EXPECT_EQ(b.columns, before);
  EXPECT_EQ(b.selections[0], b.selections[1]);
}

TEST(Stages, ProjectReplacesColumns) {
  auto b = MakeBatch({1, 2}, {10, 20});
  sim::TrafficStats t;
  codegen::CpuBackend be{sim::CpuSpec{}};
  ProjectStage({Expr::Mul(Expr::Col(0), Expr::Col(1))})(&b, &t, be);
  ASSERT_EQ(b.num_columns(), 1);
  EXPECT_DOUBLE_EQ(b.columns[0]->f64()[1], 40.0);
}

JoinStatePtr MakeJoinState(std::vector<int64_t> keys,
                           std::vector<double> payload) {
  auto state = std::make_shared<JoinState>(keys.size());
  state->payload.columns = {
      std::make_shared<storage::Column>(std::move(payload))};
  state->payload.rows = keys.size();
  for (size_t i = 0; i < keys.size(); ++i) {
    state->ht.Insert(keys[i], static_cast<uint32_t>(i));
  }
  state->nominal_rows = keys.size();
  return state;
}

TEST(Stages, ProbeInnerJoinAppendsPayload) {
  auto state = MakeJoinState({100, 200}, {1.5, 2.5});
  auto b = MakeBatch({200, 300, 100}, {7, 8, 9});
  sim::TrafficStats t;
  codegen::CpuBackend be{sim::CpuSpec{}};
  ProbeStage(state, Expr::Col(0))(&b, &t, be);
  ASSERT_EQ(b.rows, 2u);  // 300 dropped
  ASSERT_EQ(b.num_columns(), 3);
  EXPECT_EQ(At(b, 0, 0), 200);
  EXPECT_DOUBLE_EQ(At(b, 1, 0), 7.0);
  EXPECT_DOUBLE_EQ(At(b, 2, 0), 2.5);  // matched build payload
  EXPECT_EQ(At(b, 0, 1), 100);
  EXPECT_DOUBLE_EQ(At(b, 1, 1), 9.0);
  EXPECT_DOUBLE_EQ(At(b, 2, 1), 1.5);
}

TEST(Stages, ProbeMatchingEveryRowOnceInOrderLeavesThePacket) {
  auto state = MakeJoinState({3, 1, 2}, {30, 10, 20});
  auto b = MakeBatch({1, 2, 3}, {7, 8, 9});
  memory::SelectRows(&b, {0, 1, 2});  // a selection the probe must keep
  const auto columns = b.columns;
  const auto selections = b.selections;
  sim::TrafficStats t;
  codegen::CpuBackend be{sim::CpuSpec{}};
  ProbeStage(state, Expr::Col(0))(&b, &t, be);
  ASSERT_EQ(b.rows, 3u);
  ASSERT_EQ(b.num_columns(), 3);
  EXPECT_EQ(b.columns[0], columns[0]);
  EXPECT_EQ(b.columns[1], columns[1]);
  EXPECT_EQ(b.selections[0], selections[0]);
  EXPECT_EQ(b.selections[1], selections[1]);
  EXPECT_DOUBLE_EQ(At(b, 2, 0), 10.0);
  EXPECT_DOUBLE_EQ(At(b, 2, 2), 30.0);
}

TEST(Stages, ProbePayloadColumnsShareOneSelection) {
  auto state = MakeJoinState({100, 200}, {1.5, 2.5});
  state->payload.columns.push_back(
      std::make_shared<storage::Column>(std::vector<int32_t>{-1, -2}));
  auto b = MakeBatch({200, 300, 200}, {7, 8, 9});
  sim::TrafficStats t;
  codegen::CpuBackend be{sim::CpuSpec{}};
  ProbeStage(state, Expr::Col(0))(&b, &t, be);
  ASSERT_EQ(b.rows, 2u);
  ASSERT_EQ(b.num_columns(), 4);
  EXPECT_EQ(b.columns[2], state->payload.columns[0]);  // not copied
  EXPECT_EQ(b.columns[3], state->payload.columns[1]);
  EXPECT_EQ(b.selections[2], b.selections[3]);
  EXPECT_NE(b.selections[0], b.selections[2]);
  EXPECT_DOUBLE_EQ(At(b, 2, 1), 2.5);
  EXPECT_EQ(At(b, 3, 1), -2);
  EXPECT_DOUBLE_EQ(At(b, 1, 1), 9.0);
}

TEST(Stages, ProbeDuplicateBuildKeysExpand) {
  auto state = MakeJoinState({5, 5}, {1.0, 2.0});
  auto b = MakeBatch({5}, {0});
  sim::TrafficStats t;
  codegen::CpuBackend be{sim::CpuSpec{}};
  ProbeStage(state, Expr::Col(0))(&b, &t, be);
  EXPECT_EQ(b.rows, 2u);
}

TEST(Stages, ProbeKeepingTheRowCountStillNarrows) {
  // Row 0 matches twice and row 1 not at all: as many rows as before, but
  // not each row once.
  auto state = MakeJoinState({5, 5}, {1.0, 2.0});
  auto b = MakeBatch({5, 6}, {0.25, 0.5});
  sim::TrafficStats t;
  codegen::CpuBackend be{sim::CpuSpec{}};
  ProbeStage(state, Expr::Col(0))(&b, &t, be);
  ASSERT_EQ(b.rows, 2u);
  EXPECT_EQ(At(b, 0, 1), 5);
  EXPECT_DOUBLE_EQ(At(b, 1, 1), 0.25);
  EXPECT_DOUBLE_EQ(At(b, 2, 0) + At(b, 2, 1), 3.0);
}

TEST(Stages, ProbeGpuPartitionedAvoidsRandomTraffic) {
  auto state = MakeJoinState({1, 2, 3}, {1, 2, 3});
  state->nominal_rows = 100'000'000;  // big table: random if oblivious
  codegen::GpuBackend gpu{sim::GpuSpec{}};
  {
    auto b = MakeBatch({1, 2}, {0, 0});
    sim::TrafficStats t;
    state->hardware_conscious = false;
    ProbeStage(state, Expr::Col(0))(&b, &t, gpu);
    EXPECT_GT(t.dram_rand_accesses, 0u);
  }
  {
    auto b = MakeBatch({1, 2}, {0, 0});
    sim::TrafficStats t;
    state->hardware_conscious = true;
    ProbeStage(state, Expr::Col(0))(&b, &t, gpu);
    EXPECT_EQ(t.dram_rand_accesses, 0u);
    EXPECT_GT(t.scratchpad_accesses, 0u);
  }
}

// ---- sinks --------------------------------------------------------------------

TEST(Sinks, CollectGathersBatches) {
  CollectSink sink;
  sim::TrafficStats t;
  codegen::CpuBackend be{sim::CpuSpec{}};
  sink.Consume(0, MakeBatch({1}, {1}), &t, be);
  sink.Consume(1, MakeBatch({2, 3}, {2, 3}), &t, be);
  EXPECT_EQ(sink.total_rows(), 3u);
  EXPECT_GT(t.dram_seq_write_bytes, 0u);
}

TEST(Sinks, BuildSinkPopulatesJoinState) {
  auto state = std::make_shared<JoinState>(4);
  BuildSink sink(state, Expr::Col(0), {1});
  sim::TrafficStats t;
  codegen::CpuBackend be{sim::CpuSpec{}};
  sink.Consume(0, MakeBatch({10, 20}, {1.5, 2.5}), &t, be);
  sink.Consume(0, MakeBatch({30}, {3.5}), &t, be);
  sink.Finish(&t);
  EXPECT_EQ(state->ht.size(), 3u);
  EXPECT_EQ(state->payload.rows, 3u);
  bool found = false;
  state->ht.ForEachMatch(30, [&](uint32_t row) {
    found = true;
    EXPECT_DOUBLE_EQ(state->payload.columns[0]->f64()[row], 3.5);
  });
  EXPECT_TRUE(found);
  EXPECT_GT(t.atomics, 0u);
}

TEST(Sinks, HashAggGroupsAcrossWorkers) {
  HashAggSink sink(Expr::Col(0), {AggDef{AggOp::kSum, Expr::Col(1)},
                                  AggDef{AggOp::kCount, nullptr},
                                  AggDef{AggOp::kMin, Expr::Col(1)},
                                  AggDef{AggOp::kMax, Expr::Col(1)}});
  sim::TrafficStats t;
  codegen::CpuBackend be{sim::CpuSpec{}};
  sink.Consume(0, MakeBatch({1, 2, 1}, {10, 20, 30}), &t, be);
  sink.Consume(5, MakeBatch({2, 1}, {5, 1}), &t, be);  // other worker
  sink.Finish(&t);
  const auto& r = sink.result();
  ASSERT_EQ(r.size(), 2u);
  EXPECT_DOUBLE_EQ(r.at(1)[0], 41.0);
  EXPECT_DOUBLE_EQ(r.at(1)[1], 3.0);
  EXPECT_DOUBLE_EQ(r.at(1)[2], 1.0);
  EXPECT_DOUBLE_EQ(r.at(1)[3], 30.0);
  EXPECT_DOUBLE_EQ(r.at(2)[0], 25.0);
}

TEST(Sinks, HashAggNullKeyIsGlobalGroup) {
  HashAggSink sink(nullptr, {AggDef{AggOp::kSum, Expr::Col(1)}});
  sim::TrafficStats t;
  codegen::CpuBackend be{sim::CpuSpec{}};
  sink.Consume(0, MakeBatch({1, 2, 3}, {1, 2, 3}), &t, be);
  sink.Finish(&t);
  ASSERT_EQ(sink.num_groups(), 1u);
  EXPECT_DOUBLE_EQ(sink.result().at(0)[0], 6.0);
}

// ---- executor -------------------------------------------------------------------

class ExecutorTest : public ::testing::Test {
 protected:
  ExecutorTest() : topo_(sim::Topology::PaperServer()), ex_(&topo_) {}
  sim::Topology topo_;
  Executor ex_;
};

TEST_F(ExecutorTest, RunsPipelineAndCounts) {
  Pipeline p;
  for (int i = 0; i < 8; ++i) p.inputs.push_back(MakeBatch({1, 2}, {1, 2}));
  p.stages.push_back(ScanStage());
  auto owned = std::make_unique<CollectSink>();
  CollectSink* sink = owned.get();
  p.sink = std::move(owned);  // pipelines own their sinks
  auto st = ex_.Run(&p, topo_.CpuDeviceIds());
  EXPECT_EQ(st.packets, 8u);
  EXPECT_EQ(st.rows_in, 16u);
  EXPECT_EQ(st.rows_out, 16u);
  EXPECT_EQ(sink->total_rows(), 16u);
  EXPECT_GT(st.finish, 0.0);
}

TEST_F(ExecutorTest, ParallelismReducesSimTime) {
  // Compute-bound pipeline (a cheap-to-ship, expensive-to-process packet
  // mix) so the second socket's cores matter more than the QPI hop.
  auto heavy = Expr::Col(0);
  for (int i = 0; i < 32; ++i) heavy = Expr::Add(heavy, Expr::Col(0));
  auto make = [&](int packets) {
    Pipeline p;
    for (int i = 0; i < packets; ++i) {
      p.inputs.push_back(MakeBatch(std::vector<int64_t>(1000, 1),
                                   std::vector<double>(1000, 1)));
    }
    p.scale = 1000;
    p.stages.push_back(ProjectStage({heavy}));
    return p;
  };
  Pipeline one = make(24), many = make(24);
  auto t_one = ex_.Run(&one, {0});                    // one socket
  auto t_two = ex_.Run(&many, topo_.CpuDeviceIds());  // both sockets
  EXPECT_LT(t_two.seconds(), t_one.seconds());
}

TEST_F(ExecutorTest, GpuPacketsPayTransfer) {
  Pipeline p;
  p.inputs.push_back(MakeBatch(std::vector<int64_t>(1000, 1),
                               std::vector<double>(1000, 1), /*node=*/0));
  p.scale = 1;
  p.stages.push_back(ScanStage());
  auto gpu_only = ex_.Run(&p, topo_.GpuDeviceIds());
  // Time must include at least the PCIe latency.
  EXPECT_GT(gpu_only.seconds(), 4e-6);
}

TEST_F(ExecutorTest, ScaleMultipliesTraffic) {
  auto mk = [&] {
    Pipeline p;
    p.inputs.push_back(MakeBatch(std::vector<int64_t>(100, 1),
                                 std::vector<double>(100, 1)));
    p.stages.push_back(ScanStage());
    return p;
  };
  Pipeline small = mk(), big = mk();
  big.scale = 1000;
  auto ts = ex_.Run(&small, {0});
  auto tb = ex_.Run(&big, {0});
  EXPECT_GT(tb.traffic.dram_seq_read_bytes,
            ts.traffic.dram_seq_read_bytes * 500);
}

/// Records which worker consumed each packet, keyed by the packet's rows.
class WorkerRecordingSink : public Sink {
 public:
  void Consume(int worker, memory::Batch&& batch, sim::TrafficStats*,
               const codegen::Backend&) override {
    worker_of_rows[batch.rows] = worker;
  }
  std::map<size_t, int> worker_of_rows;
};

TEST_F(ExecutorTest, HashPolicyRoutesPacketIToWorkerIModN) {
  // Hybrid: one worker per CPU core, then one per GPU.
  std::vector<int> devices = topo_.CpuDeviceIds();
  for (int g : topo_.GpuDeviceIds()) devices.push_back(g);
  int workers = 0;
  for (int d : devices) {
    const sim::Device& dev = topo_.device(d);
    workers += dev.type == sim::DeviceType::kCpu ? dev.cpu.cores : 1;
  }
  ASSERT_GT(workers, 2);
  Pipeline p;
  p.policy = RoutingPolicy::kHashBased;
  const int packets = 2 * workers + 3;
  for (int i = 0; i < packets; ++i) {  // packet i holds i + 1 rows
    p.inputs.push_back(MakeBatch(std::vector<int64_t>(i + 1, 1),
                                 std::vector<double>(i + 1, 1), i % 2));
  }
  auto owned = std::make_unique<WorkerRecordingSink>();
  const WorkerRecordingSink* sink = owned.get();
  p.sink = std::move(owned);
  EXPECT_EQ(ex_.Run(&p, devices).packets, static_cast<uint64_t>(packets));
  ASSERT_EQ(sink->worker_of_rows.size(), static_cast<size_t>(packets));
  for (const auto& [rows, worker] : sink->worker_of_rows) {
    EXPECT_EQ(worker, static_cast<int>(rows - 1) % workers)
        << "packet " << rows - 1;
  }
}

TEST_F(ExecutorTest, BroadcastMulticastBeatsRepeatedUnicast) {
  const uint64_t bytes = 1ull << 30;
  const sim::SimTime multi = ex_.Broadcast(bytes, 0, {2, 3});
  topo_.Reset();
  sim::SimTime uni = 0;
  for (int node : {2, 3}) {
    uni = std::max(uni, topo_.TransferFinish(0, node, 0, bytes));
  }
  EXPECT_LE(multi, uni);
}

TEST_F(ExecutorTest, VectorAtATimeCostsMore) {
  auto mk = [&](bool vec) {
    Pipeline p;
    p.vector_at_a_time = vec;
    p.scale = 100;
    for (int i = 0; i < 4; ++i) {
      p.inputs.push_back(MakeBatch(std::vector<int64_t>(4096, 1),
                                   std::vector<double>(4096, 1)));
    }
    p.stages.push_back(ScanStage());
    p.stages.push_back(
        FilterStage(Expr::Gt(Expr::Col(0), Expr::Int(0))));
    return p;
  };
  Pipeline jit = mk(false), vec = mk(true);
  EXPECT_LT(ex_.Run(&jit, {0}).seconds(), ex_.Run(&vec, {0}).seconds());
}

TEST_F(ExecutorTest, OperatorAtATimeCostsDeviceMemoryTraffic) {
  auto mk = [&](bool opat) {
    Pipeline p;
    p.operator_at_a_time = opat;
    p.scale = 1000;
    for (int i = 0; i < 4; ++i) {
      p.inputs.push_back(MakeBatch(std::vector<int64_t>(4096, 1),
                                   std::vector<double>(4096, 1), 2));
    }
    p.stages.push_back(ScanStage());
    p.stages.push_back(FilterStage(Expr::Gt(Expr::Col(0), Expr::Int(0))));
    return p;
  };
  Pipeline fused = mk(false), mat = mk(true);
  EXPECT_LT(ex_.Run(&fused, topo_.GpuDeviceIds()).seconds(),
            ex_.Run(&mat, topo_.GpuDeviceIds()).seconds());
}

// ---- locality router: epsilon-free rule -------------------------------------

/// Compute-heavy packets homed on node 0 (socket0's DRAM).
Pipeline MakeComputeHeavyPipeline(int packets) {
  auto heavy = Expr::Col(0);
  for (int i = 0; i < 32; ++i) heavy = Expr::Add(heavy, Expr::Col(0));
  Pipeline p;
  p.policy = RoutingPolicy::kLocalityAware;
  for (int i = 0; i < packets; ++i) {
    p.inputs.push_back(MakeBatch(std::vector<int64_t>(1000, 1),
                                 std::vector<double>(1000, 1)));
  }
  p.scale = 1000;
  p.stages.push_back(ProjectStage({heavy}));
  return p;
}

TEST_F(ExecutorTest, LocalityRoutingOffloadsWhenRemoteWinsDespiteTransfer) {
  // 48 compute-heavy packets on socket0: keeping them all local doubles
  // the serial depth, so a locality router that weighs the QPI shipping
  // cost against the load difference must use socket1 too. (The old rule
  // compared absolute free_at timestamps against a 2x threshold: at a late
  // pipeline start every worker looked "local enough" forever.)
  Pipeline both = MakeComputeHeavyPipeline(48);
  Pipeline local_only = MakeComputeHeavyPipeline(48);
  const sim::SimTime start = 10.0;
  auto st_both = ex_.Run(&both, topo_.CpuDeviceIds(), start);
  topo_.Reset();
  auto st_local = ex_.Run(&local_only, {0}, start);
  EXPECT_LT(st_both.seconds(), st_local.seconds());
}

TEST_F(ExecutorTest, LocalityRoutingIsTimeTranslationInvariant) {
  // Routing decisions must depend on load differences and shipping costs,
  // never on absolute sim time: a run starting at t=25 costs exactly what
  // the same run starting at t=0 costs.
  Pipeline at_zero = MakeComputeHeavyPipeline(30);
  auto st0 = ex_.Run(&at_zero, topo_.CpuDeviceIds(), 0.0);
  topo_.Reset();
  Pipeline late = MakeComputeHeavyPipeline(30);
  auto st1 = ex_.Run(&late, topo_.CpuDeviceIds(), 25.0);
  // Identical decisions; only (t + x) - t floating-point rounding differs.
  EXPECT_NEAR(st0.seconds(), st1.seconds(), 1e-9);
}

TEST(RoutingPolicy, Names) {
  EXPECT_STREQ(RoutingPolicyName(RoutingPolicy::kLoadAware), "load-aware");
  EXPECT_STREQ(RoutingPolicyName(RoutingPolicy::kLocalityAware),
               "locality-aware");
  EXPECT_STREQ(RoutingPolicyName(RoutingPolicy::kHashBased), "hash-based");
}

}  // namespace
}  // namespace hape::engine
