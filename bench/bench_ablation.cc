// Ablations of the design decisions DESIGN.md calls out (beyond the paper's
// figures):
//   A1 router policies (load-aware / locality-aware / hash-based) on a
//      hybrid scan-aggregate — §4.2's routing policy menu;
//   A2 topology-aware multicast broadcast vs naive per-destination unicast —
//      §4.2's broadcast mem-move variant;
//   A3 CPU-side co-partitioning fanout sweep around the planner's choice —
//      §5's "just small enough to fit GPU memory" argument;
//   A4 scratchpad budget sweep for the in-GPU radix join — the
//      fanout-vs-passes trade-off of §4.1.

#include <cstdio>

#include "bench_util.h"
#include "common/logging.h"
#include "coproc/coproc_join.h"
#include "engine/engine.h"
#include "queries/tpch_queries.h"
#include "sim/topology.h"

namespace {

using namespace hape;  // NOLINT

// ---- A1: router policies ----------------------------------------------------

double RunQ6Hybrid(engine::RoutingPolicy routing) {
  static sim::Topology topo = sim::Topology::PaperServer();
  static queries::TpchContext* ctx = [] {
    auto* c = new queries::TpchContext();
    c->topo = &topo;
    c->sf_actual = 0.02;
    HAPE_CHECK(queries::PrepareTpch(c).ok());
    return c;
  }();
  topo.Reset();
  auto lineitem = ctx->catalog.Get("lineitem").value();

  engine::PlanBuilder b("a1-scan-agg");
  auto pipe = b.Scan(
      lineitem, {"l_shipdate", "l_discount", "l_extendedprice"},
      std::max<size_t>(256, static_cast<size_t>(4e6 / ctx->scale())));
  pipe.Scale(ctx->scale());
  pipe.Aggregate(nullptr,
                 {engine::AggDef{engine::AggOp::kSum,
                                 expr::Expr::Mul(expr::Expr::Col(2),
                                                 expr::Expr::Col(1))}});
  engine::QueryPlan plan = std::move(b).Build();

  engine::ExecutionPolicy policy = engine::ExecutionPolicy::ForConfig(
      topo, engine::EngineConfig::kProteusHybrid);
  policy.routing = routing;
  engine::Engine eng(&topo);
  auto stats = eng.Run(&plan, policy);
  HAPE_CHECK(stats.ok()) << stats.status().ToString();
  return stats.value().finish;
}

// ---- A2: broadcast strategies -----------------------------------------------

double BroadcastMulticast(uint64_t bytes) {
  sim::Topology topo = sim::Topology::PaperServer();
  engine::Executor ex(&topo);
  return ex.Broadcast(bytes, 0, {2, 3});
}

double BroadcastUnicast(uint64_t bytes) {
  sim::Topology topo = sim::Topology::PaperServer();
  // Naive: one independent point-to-point transfer per destination; the
  // copy to GPU1 re-sends the payload over QPI even though the multicast
  // could share it.
  sim::SimTime t = 0;
  for (int node : {2, 3}) {
    t = std::max(t, topo.TransferFinish(0, node, 0, bytes));
  }
  return t;
}

void PrintTables() {
  std::printf("== Ablation A1: router policy on hybrid scan-aggregate ==\n");
  for (auto pol : {engine::RoutingPolicy::kLoadAware,
                   engine::RoutingPolicy::kLocalityAware,
                   engine::RoutingPolicy::kHashBased}) {
    std::printf("%-16s %8.3f s\n", engine::RoutingPolicyName(pol),
                RunQ6Hybrid(pol));
  }

  std::printf("\n== Ablation A2: broadcast 1 GiB to both GPUs ==\n");
  std::printf("%-24s %8.3f s\n", "topology multicast",
              BroadcastMulticast(1ull << 30));
  std::printf("%-24s %8.3f s\n", "naive unicast",
              BroadcastUnicast(1ull << 30));

  std::printf(
      "\n== Ablation A3: CPU-side co-partition fanout, 1024M tuples, 1 GPU "
      "==\n");
  {
    bench::JoinData data;
    auto in = data.Make(1024ull << 20, 1u << 19);
    sim::Topology topo = sim::Topology::PaperServer();
    topo.Reset();
    const auto planned = coproc::CoprocRadixJoin(in, &topo, 1);
    std::printf("planner picks %d bits -> %.2f s (cpu %.2f + stream %.2f)\n",
                planned.co_partition_bits, planned.seconds,
                planned.cpu_partition_seconds, planned.stream_seconds);
  }

  std::printf(
      "\n== Ablation A4: scratchpad budget for in-GPU radix join, 32M "
      "tuples ==\n");
  {
    bench::JoinData data;
    auto in = data.Make(32ull << 20, 1u << 19);
    sim::GpuSpec gpu;
    for (uint64_t kb : {8, 16, 32, 64}) {
      const auto plan =
          ops::PlanGpuRadix(in.nominal_r, ops::kJoinTupleBytes, gpu,
                            kb * sim::kKiB);
      const auto out = ops::GpuRadixJoin(in, gpu,
                                         ops::ProbeMemory::kScratchpad,
                                         &plan);
      std::printf(
          "budget %3llu KiB: %d passes, 2^%d partitions -> %7.2f ms\n",
          static_cast<unsigned long long>(kb), plan.passes, plan.total_bits,
          out.seconds * 1e3);
    }
  }
  std::printf("\n");
}

}  // namespace

int main() {
  PrintTables();
  return 0;
}
