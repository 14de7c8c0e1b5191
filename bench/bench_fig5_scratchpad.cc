// Reproduces Fig. 5: scratchpad (SM) vs L1 vs SM+L1 placement of the
// per-partition hash table during the GPU radix join's build & probe
// ("probing") phase. 32 M tuples per side, equal-size partitions, partition
// size swept 128..4096 elements. The paper's qualitative result: the more
// the join relies on the scratchpad the better; SM is nearly flat (with a
// small degradation below ~1K elements from hardware underutilization),
// while the L1-based variants pay line-granularity over-fetch and pollution.

#include <cstdio>

#include "bench_util.h"
#include "common/bits.h"

namespace {

using namespace hape;           // NOLINT
using namespace hape::ops;      // NOLINT

constexpr uint64_t kTuples = 32ull << 20;

RadixPlan PlanFor(uint64_t elems_per_partition) {
  RadixPlan plan;
  plan.total_bits =
      static_cast<int>(Log2Ceil(kTuples / elems_per_partition));
  plan.partitions = 1ull << plan.total_bits;
  plan.elems_per_partition = elems_per_partition;
  plan.passes = (plan.total_bits + 7) / 8;
  plan.bits_per_pass = plan.passes == 0 ? 0
                                        : (plan.total_bits + plan.passes - 1) /
                                              plan.passes;
  return plan;
}

JoinOutcome Run(bench::JoinData* data, uint64_t elems, ProbeMemory mem) {
  auto in = data->Make(kTuples, 1u << 19);
  const RadixPlan plan = PlanFor(elems);
  sim::GpuSpec gpu;
  return GpuRadixJoin(in, gpu, mem, &plan);
}

void PrintPaperTable() {
  bench::JoinData data;
  std::printf("== Fig 5: GPU radix join probing phase, 32M tuples/side ==\n");
  std::printf("%-10s %10s %10s %10s   (probing-phase ms)\n", "part_size",
              "SM", "SM+L1", "L1");
  for (uint64_t elems = 128; elems <= 4096; elems *= 2) {
    const auto sm = Run(&data, elems, ProbeMemory::kScratchpad);
    const auto sl = Run(&data, elems, ProbeMemory::kScratchpadHeadsL1);
    const auto l1 = Run(&data, elems, ProbeMemory::kL1);
    std::printf("%-10llu %10.2f %10.2f %10.2f\n",
                static_cast<unsigned long long>(elems),
                sm.build_probe_seconds * 1e3, sl.build_probe_seconds * 1e3,
                l1.build_probe_seconds * 1e3);
  }
  std::printf("\n");
}

}  // namespace

int main() {
  PrintPaperTable();
  return 0;
}
