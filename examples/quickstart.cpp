// Quickstart: declare a plan with PlanBuilder, run it through the Engine
// facade on the simulated paper server in CPU-only, GPU-only and hybrid
// configurations, and print both the (host-verified) result and the
// simulated times.
//
//   $ ./example_quickstart

#include <cstdio>

#include "engine/engine.h"
#include "sim/topology.h"
#include "storage/datagen.h"

using namespace hape;  // NOLINT — example code

int main() {
  // 1. The simulated server of the paper: 2x12-core Xeon + 2x GTX 1080.
  sim::Topology topo = sim::Topology::PaperServer();
  engine::Engine eng(&topo);

  // 2. Some data: a table of 1M rows of (value, amount), CPU-resident
  //    (node 0).
  const size_t n = 1 << 20;
  auto schema = std::make_shared<storage::Schema>(std::vector<storage::Field>{
      {"value", storage::DataType::kInt64},
      {"amount", storage::DataType::kFloat64}});
  auto table = std::make_shared<storage::Table>(
      "data", schema,
      std::vector<storage::ColumnPtr>{
          std::make_shared<storage::Column>(
              storage::DataGen::UniformInt(n, 0, 99, /*seed=*/1)),
          std::make_shared<storage::Column>(
              storage::DataGen::UniformDouble(n, 0.0, 10.0, /*seed=*/2))},
      /*home_node=*/0);

  // 3. A declarative plan: scan (packets of 16K rows) -> filter(value < 10)
  //    -> sum(amount). Scale(100) lets the cost model treat the 1M rows as
  //    100M. Device placement lives in the ExecutionPolicy, not in the
  //    plan.
  auto run = [&](const char* name, std::vector<int> devices) {
    engine::PlanBuilder b("quickstart");
    auto pipe = b.Scan(table, {"value", "amount"}, 1 << 14);
    pipe.Scale(100.0).Filter(
        expr::Expr::Lt(expr::Expr::Col(0), expr::Expr::Int(10)));
    engine::AggHandle agg = pipe.Aggregate(
        nullptr, {engine::AggDef{engine::AggOp::kSum, expr::Expr::Col(1)},
                  engine::AggDef{engine::AggOp::kCount, nullptr}});
    engine::QueryPlan plan = std::move(b).Build();

    engine::ExecutionPolicy policy;
    policy.devices = std::move(devices);
    topo.Reset();
    auto stats = eng.Run(&plan, policy);
    if (!stats.ok()) {
      std::printf("%-10s %s\n", name, stats.status().ToString().c_str());
      return;
    }
    const auto& aggs = agg.result().at(0);
    std::printf("%-10s sum=%.1f count=%.0f  sim_time=%.2f ms\n", name,
                aggs[0], aggs[1], stats.value().finish * 1e3);
  };

  std::vector<int> cpus = topo.CpuDeviceIds();
  std::vector<int> gpus = topo.GpuDeviceIds();
  std::vector<int> all = cpus;
  all.insert(all.end(), gpus.begin(), gpus.end());

  run("CPU-only", cpus);
  run("GPU-only", gpus);
  run("hybrid", all);
  return 0;
}
