// Demonstrates the HetExchange router's packet-routing policies (§4.2) on a
// hybrid CPU+GPU plan: load-aware, locality-aware and hash-based, with one
// table homed on each CPU socket so locality actually matters. The policy
// is part of the declarative ExecutionPolicy — the plan itself is identical
// across runs.
//
//   $ ./example_routing_policies

#include <cstdio>
#include <string>

#include "engine/engine.h"
#include "sim/topology.h"
#include "storage/datagen.h"

using namespace hape;  // NOLINT — example code

int main() {
  sim::Topology topo = sim::Topology::PaperServer();
  engine::Engine eng(&topo);

  // Half the rows live on socket 0, half on socket 1: one table each.
  const size_t rows = 1 << 17;
  auto make_table = [&](int socket) {
    auto schema =
        std::make_shared<storage::Schema>(std::vector<storage::Field>{
            {"key", storage::DataType::kInt64},
            {"val", storage::DataType::kFloat64}});
    return std::make_shared<storage::Table>(
        "part" + std::to_string(socket), schema,
        std::vector<storage::ColumnPtr>{
            std::make_shared<storage::Column>(storage::DataGen::UniformInt(
                rows, 0, 1 << 20, 3 + 2 * socket)),
            std::make_shared<storage::Column>(storage::DataGen::UniformDouble(
                rows, 0, 1, 4 + 2 * socket))},
        /*home_node=*/socket);
  };
  const storage::TablePtr parts[] = {make_table(0), make_table(1)};

  std::vector<int> devices = topo.CpuDeviceIds();
  for (int g : topo.GpuDeviceIds()) devices.push_back(g);

  std::printf("hybrid scan-aggregate over tables on 2 sockets\n");
  for (auto routing : {engine::RoutingPolicy::kLoadAware,
                       engine::RoutingPolicy::kLocalityAware,
                       engine::RoutingPolicy::kHashBased}) {
    // One scan-aggregate pipeline per table; the two run side by side.
    engine::PlanBuilder b("routing-demo");
    std::vector<engine::AggHandle> aggs;
    for (const storage::TablePtr& part : parts) {
      auto pipe = b.Scan(part, {"key", "val"}, 1 << 12);
      pipe.Scale(500.0);
      aggs.push_back(pipe.Aggregate(
          nullptr, {engine::AggDef{engine::AggOp::kSum, expr::Expr::Col(1)}}));
    }
    engine::QueryPlan plan = std::move(b).Build();

    engine::ExecutionPolicy policy;
    policy.devices = devices;
    policy.routing = routing;
    topo.Reset();
    auto stats = eng.Run(&plan, policy);
    if (!stats.ok()) {
      std::printf("  %-16s %s\n", engine::RoutingPolicyName(routing),
                  stats.status().ToString().c_str());
      continue;
    }
    double sum = 0;
    for (const engine::AggHandle& agg : aggs) sum += agg.result().at(0)[0];
    std::printf("  %-16s %8.2f ms   (sum=%.1f)\n",
                engine::RoutingPolicyName(routing),
                stats.value().finish * 1e3, sum);
  }
  std::printf(
      "\nload-aware balances finish times; locality-aware avoids QPI/PCIe\n"
      "hops; hash-based fixes placement: packet i goes to worker i mod n.\n");
  return 0;
}
