// Reproduces Fig. 7: the out-of-GPU co-processing radix join (§5) on
// CPU-resident data of 256M..2048M tuples per side, with 1 and 2 GPUs,
// against DBMS C and DBMS G. Expected shape: co-processing is PCIe-bound
// and fastest; the second GPU (own PCIe link) gives ~1.7x; DBMS C's
// random-access join stays well below PCIe throughput; DBMS G collapses
// once its hash table no longer fits device memory.

#include <cstdio>

#include "baselines/baseline_joins.h"
#include "bench_util.h"
#include "coproc/coproc_join.h"
#include "sim/topology.h"

namespace {

using namespace hape;  // NOLINT

void PrintPaperTable() {
  sim::Topology topo = sim::Topology::PaperServer();
  sim::CpuSpec cpu;
  bench::JoinData data;
  std::printf(
      "== Fig 7: join co-processing over CPU-resident data, time (s) ==\n");
  std::printf("%-8s %10s %10s %10s %10s   %s\n", "Mtuples", "1 GPU",
              "2 GPUs", "DBMS C", "DBMS G",
              "[1-GPU breakdown: cpu-part + stream]");
  for (uint64_t m : {256, 512, 1024, 2048}) {
    auto in = data.Make(m << 20, 1u << 19);
    topo.Reset();
    const auto c1 = coproc::CoprocRadixJoin(in, &topo, 1);
    topo.Reset();
    const auto c2 = coproc::CoprocRadixJoin(in, &topo, 2);
    const auto dc = baselines::DbmsCJoin(in, cpu, 24);
    topo.Reset();
    const auto dg = baselines::DbmsGJoin(in, &topo);
    std::printf("%-8llu %10.2f %10.2f %10.2f %10.2f   [%.2f + %.2f]\n",
                static_cast<unsigned long long>(m), c1.seconds, c2.seconds,
                dc.seconds, dg.seconds, c1.cpu_partition_seconds,
                c1.stream_seconds);
  }
  std::printf("\n");
}

}  // namespace

int main() {
  PrintPaperTable();
  return 0;
}
