#ifndef HAPE_OPS_JOIN_KERNELS_H_
#define HAPE_OPS_JOIN_KERNELS_H_

#include <cstdint>
#include <span>

#include "common/status.h"
#include "ops/radix_plan.h"
#include "sim/spec.h"
#include "sim/traffic.h"

namespace hape::ops {

/// Where the in-GPU join keeps the per-partition hash table during build &
/// probe (Fig. 5's three variants).
enum class ProbeMemory {
  kScratchpad,         // "SM":   whole table in shared memory
  kL1,                 // "L1":   whole table behind the L1 cache
  kScratchpadHeadsL1,  // "SM+L1": chain heads in shared memory, nodes in L1
};

const char* ProbeMemoryName(ProbeMemory m);

/// Inputs of the §6.2/§6.3 equi-join microbenchmarks: per table one 4-byte
/// key and one 4-byte payload column. `nominal_r/s` are the paper-scale row
/// counts; the host arrays may be a scaled-down sample (the traffic models
/// cost the *nominal* sizes, planning decisions use them too).
struct JoinInput {
  std::span<const int32_t> r_key, r_pay;
  std::span<const int32_t> s_key, s_pay;
  uint64_t nominal_r = 0, nominal_s = 0;

  double ScaleS() const {
    return s_key.empty() ? 1.0 : static_cast<double>(nominal_s) / s_key.size();
  }
};

/// Result of a join kernel: correctness outputs (matches and payload sums,
/// actual-scale, host-verified) plus simulated cost.
struct JoinOutcome {
  Status status = Status::OK();
  uint64_t matches = 0;
  double sum_r_pay = 0, sum_s_pay = 0;
  sim::SimTime seconds = 0;
  /// Phase breakdown for the radix variants: partitioning passes vs the
  /// build & probe phase (Fig. 5 plots only the latter).
  sim::SimTime partition_seconds = 0;
  sim::SimTime build_probe_seconds = 0;
  sim::TrafficStats traffic;
  RadixPlan plan;
};

/// A whole-server CPU spec: `sockets` sockets acting as one device
/// (aggregated cores and DRAM bandwidth). The multi-core CPU joins of Fig. 6
/// use both sockets of the paper's machine.
sim::CpuSpec ServerCpuSpec(const sim::CpuSpec& socket, int sockets);

/// In-GPU partitioned radix join over GPU-resident data (Figs. 3-6):
/// multi-pass partitioning with scratchpad staging and linked-list output
/// buffers, then per-partition build & probe in `mem`. `plan_override`
/// forces a partition count (the Fig. 5 sweep).
JoinOutcome GpuRadixJoin(const JoinInput& in, const sim::GpuSpec& spec,
                         ProbeMemory mem = ProbeMemory::kScratchpad,
                         const RadixPlan* plan_override = nullptr);

/// In-GPU non-partitioned hash join (the hardware-oblivious GPU baseline of
/// Fig. 6): one global chained table in device memory, random-access bound.
JoinOutcome GpuNoPartitionJoin(const JoinInput& in, const sim::GpuSpec& spec);

/// Checks whether the in-GPU join's working set (inputs + partitions or
/// hash table) fits device memory at nominal scale; joins return
/// OutOfMemory status when it does not, mirroring Fig. 6's 128 M cutoff.
Status CheckGpuCapacity(const JoinInput& in, const sim::GpuSpec& spec,
                        bool partitioned);

/// Multi-core CPU radix join (TLB-bounded fanout, partitions sized to L2).
JoinOutcome CpuRadixJoin(const JoinInput& in, const sim::CpuSpec& socket,
                         int workers, int sockets = 2);

/// Multi-core CPU non-partitioned hash join (hardware-oblivious baseline;
/// random DRAM accesses with MLP-bounded latency).
JoinOutcome CpuNoPartitionJoin(const JoinInput& in,
                               const sim::CpuSpec& socket, int workers,
                               int sockets = 2);

namespace detail {

/// Host-side correctness execution shared by all variants: partition both
/// sides on `bits` hash bits (0 == no partitioning), build a chained table
/// per partition, probe. Returns matches/sums plus the chain-node visit
/// count that the traffic models charge per probe.
struct HostJoinCounts {
  uint64_t matches = 0;
  double sum_r = 0, sum_s = 0;
  uint64_t probe_visits = 0;
};
HostJoinCounts HostPartitionedJoin(const JoinInput& in, int bits);

/// Traffic of one GPU partitioning pass over `n` nominal tuples (Fig. 4):
/// scratchpad staging + reorder, linked-list buffer output, coalescing set
/// by the same-partition run length.
sim::TrafficStats GpuPartitionPassTraffic(uint64_t n, int bits,
                                          const sim::GpuSpec& spec,
                                          uint64_t chunk_elems);

/// Traffic of the build & probe phase (Fig. 3) for the given table
/// placement; `visits` is the nominal chain-node visit count.
sim::TrafficStats GpuBuildProbeTraffic(uint64_t nr, uint64_t ns,
                                       uint64_t visits, uint64_t partitions,
                                       ProbeMemory mem,
                                       const sim::GpuSpec& spec,
                                       uint64_t scratchpad_budget);

}  // namespace detail

}  // namespace hape::ops

#endif  // HAPE_OPS_JOIN_KERNELS_H_
