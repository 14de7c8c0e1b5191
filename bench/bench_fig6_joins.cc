// Reproduces Fig. 6: single-device equi-join comparison — partitioned and
// non-partitioned CPU and GPU joins of our engine vs DBMS C and DBMS G —
// over table sizes 1M..128M tuples, data resident in the executing device's
// memory. Expected shape: the hardware-conscious GPU join wins everywhere,
// >3x over the non-partitioned GPU variant at the largest in-GPU size and
// over an order of magnitude against the CPU-side systems at 128M; beyond
// 128M the datasets stop fitting in GPU memory.

#include <cstdio>
#include <functional>

#include "baselines/baseline_joins.h"
#include "bench_util.h"
#include "sim/topology.h"

namespace {

using namespace hape;       // NOLINT
using namespace hape::ops;  // NOLINT

struct Series {
  const char* name;
  std::function<JoinOutcome(const JoinInput&)> run;
};

std::vector<Series> MakeSeries() {
  static sim::Topology topo = sim::Topology::PaperServer();
  sim::CpuSpec cpu;
  sim::GpuSpec gpu;
  return {
      {"Partitioned CPU",
       [cpu](const JoinInput& in) { return CpuRadixJoin(in, cpu, 24); }},
      {"Partitioned GPU",
       [gpu](const JoinInput& in) { return GpuRadixJoin(in, gpu); }},
      {"Non-partitioned CPU",
       [cpu](const JoinInput& in) {
         return CpuNoPartitionJoin(in, cpu, 24);
       }},
      {"Non-partitioned GPU",
       [gpu](const JoinInput& in) { return GpuNoPartitionJoin(in, gpu); }},
      {"DBMS C",
       [cpu](const JoinInput& in) {
         return baselines::DbmsCJoin(in, cpu, 24);
       }},
      {"DBMS G",
       [](const JoinInput& in) {
         topo.Reset();
         return baselines::DbmsGJoin(in, &topo, /*data_gpu_resident=*/true);
       }},
  };
}

void PrintPaperTable() {
  auto series = MakeSeries();
  bench::JoinData data;
  std::printf(
      "== Fig 6: single-device joins, execution time (s); '-' = does not "
      "fit device memory ==\n");
  std::printf("%-8s", "Mtuples");
  for (const auto& s : series) std::printf(" %20s", s.name);
  std::printf("\n");
  for (uint64_t m : {1, 2, 8, 32, 128}) {
    std::printf("%-8llu", static_cast<unsigned long long>(m));
    auto in = data.Make(m << 20, 1u << 19);
    for (const auto& s : series) {
      const auto out = s.run(in);
      if (out.status.ok()) {
        std::printf(" %20.4f", out.seconds);
      } else {
        std::printf(" %20s", "-");
      }
    }
    std::printf("\n");
  }
  std::printf("\n");
}

}  // namespace

int main() {
  PrintPaperTable();
  return 0;
}
