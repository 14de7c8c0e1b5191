#include "ops/join_kernels.h"

#include <algorithm>
#include <vector>

#include "common/hash.h"
#include "common/logging.h"
#include "ops/hash_table.h"

namespace hape::ops {

using sim::MemoryModel;
using sim::TrafficStats;

const char* ProbeMemoryName(ProbeMemory m) {
  switch (m) {
    case ProbeMemory::kScratchpad:
      return "SM";
    case ProbeMemory::kL1:
      return "L1";
    case ProbeMemory::kScratchpadHeadsL1:
      return "SM+L1";
  }
  return "?";
}

sim::CpuSpec ServerCpuSpec(const sim::CpuSpec& socket, int sockets) {
  sim::CpuSpec s = socket;
  s.cores = socket.cores * sockets;
  s.dram_gbps = socket.dram_gbps * sockets;
  s.l3_bytes = socket.l3_bytes * sockets;
  return s;
}

namespace detail {

HostJoinCounts HostPartitionedJoin(const JoinInput& in, int bits) {
  HAPE_CHECK(bits >= 0 && bits < 28);
  HAPE_CHECK(in.r_key.size() == in.r_pay.size());
  HAPE_CHECK(in.s_key.size() == in.s_pay.size());
  const size_t nr = in.r_key.size(), ns = in.s_key.size();
  const uint32_t parts = 1u << bits;

  // Counting-sort both sides into partition order (hash-bit radix, exactly
  // what the multi-pass passes compose to).
  std::vector<uint32_t> r_of(nr), s_of(ns);
  std::vector<uint32_t> r_hist(parts + 1, 0), s_hist(parts + 1, 0);
  for (size_t i = 0; i < nr; ++i) {
    r_of[i] = RadixOf(static_cast<uint64_t>(in.r_key[i]), 0, bits);
    ++r_hist[r_of[i] + 1];
  }
  for (size_t i = 0; i < ns; ++i) {
    s_of[i] = RadixOf(static_cast<uint64_t>(in.s_key[i]), 0, bits);
    ++s_hist[s_of[i] + 1];
  }
  for (uint32_t p = 0; p < parts; ++p) {
    r_hist[p + 1] += r_hist[p];
    s_hist[p + 1] += s_hist[p];
  }
  std::vector<uint32_t> r_rows(nr), s_rows(ns);
  {
    std::vector<uint32_t> r_cur(r_hist.begin(), r_hist.end() - 1);
    std::vector<uint32_t> s_cur(s_hist.begin(), s_hist.end() - 1);
    for (size_t i = 0; i < nr; ++i) r_rows[r_cur[r_of[i]]++] = i;
    for (size_t i = 0; i < ns; ++i) s_rows[s_cur[s_of[i]]++] = i;
  }

  HostJoinCounts out;
  for (uint32_t p = 0; p < parts; ++p) {
    const uint32_t rb = r_hist[p], re = r_hist[p + 1];
    const uint32_t sb = s_hist[p], se = s_hist[p + 1];
    if (rb == re || sb == se) continue;
    // Table row j is the partition's j-th R row, r_rows[rb + j].
    std::vector<int64_t> part_keys(re - rb);
    for (uint32_t i = rb; i < re; ++i) part_keys[i - rb] = in.r_key[r_rows[i]];
    const ChainedHashTable ht(re - rb, part_keys);
    for (uint32_t i = sb; i < se; ++i) {
      const uint32_t srow = s_rows[i];
      const int64_t key = in.s_key[srow];
      out.probe_visits += ht.ForEachMatch(key, [&](uint32_t j) {
        const uint32_t rrow = r_rows[rb + j];
        ++out.matches;
        out.sum_r += in.r_pay[rrow];
        out.sum_s += in.s_pay[srow];
      });
    }
  }
  return out;
}

TrafficStats GpuPartitionPassTraffic(uint64_t n, int bits,
                                     const sim::GpuSpec& spec,
                                     uint64_t chunk_elems) {
  TrafficStats t;
  const uint64_t fanout = 1ULL << bits;
  t.dram_seq_read_bytes = n * kJoinTupleBytes;
  t.dram_seq_write_bytes = n * kJoinTupleBytes;
  // Reordering in the scratchpad gathers same-partition elements, so the
  // average same-destination run is chunk/fanout elements (§4.1).
  const uint64_t run_bytes =
      std::max<uint64_t>(1, chunk_elems / fanout) * kJoinTupleBytes;
  t.write_coalescing =
      MemoryModel::CoalescingEfficiency(run_bytes, spec.cache_line);
  // Stage the chunk (write+read, 2 words per tuple), the scatter step's
  // writes conflict at the bank level when lanes target different partitions.
  const double bf = MemoryModel::BankConflictFactor(
      spec.banks, std::min<uint64_t>(fanout, spec.banks));
  t.scratchpad_accesses =
      static_cast<uint64_t>(n * 2 * (1.0 + bf));
  // Linked-list output buffers: warp-aggregated tail-pointer bumps.
  t.atomics = n / spec.warp_size + fanout;
  t.tuple_ops = n * 6;  // hash + offset arithmetic
  return t;
}

TrafficStats GpuBuildProbeTraffic(uint64_t nr, uint64_t ns, uint64_t visits,
                                  uint64_t partitions, ProbeMemory mem,
                                  const sim::GpuSpec& spec,
                                  uint64_t scratchpad_budget) {
  TrafficStats t;
  t.dram_seq_read_bytes = (nr + ns) * kJoinTupleBytes;  // stream co-partitions
  t.tuple_ops = (nr + ns) * 4 + visits;

  const uint64_t br = std::max<uint64_t>(1, nr / std::max<uint64_t>(
                                                    1, partitions));
  const uint64_t bs = std::max<uint64_t>(1, ns / std::max<uint64_t>(
                                                    1, partitions));
  const uint64_t ht_bytes = GpuHashTableBytes(br, kJoinTupleBytes);
  const double bf = MemoryModel::BankConflictFactor(
      spec.banks, std::min<uint64_t>(NextPow2(br), spec.banks));

  // Resident blocks per SM: bounded by thread slots (256-thread blocks) and,
  // when the table lives in the scratchpad, by its shared-memory footprint.
  const uint64_t max_blocks_thread = spec.max_threads_per_sm / 256;

  switch (mem) {
    case ProbeMemory::kScratchpad: {
      // Build: 2 data words + head update per tuple. Probe: head word +
      // 3 words per visited chain node. All in shared memory.
      t.scratchpad_accesses = static_cast<uint64_t>(
          (nr * 3 + ns * 1 + visits * 3) * bf);
      t.atomics = nr;  // chain-head CAS during build
      break;
    }
    case ProbeMemory::kL1: {
      // Every table access is a line-granular L1 access; misses fetch DRAM
      // sectors. Working set per SM: resident blocks x per-partition table;
      // streamed co-partitions pollute the cache (quarter weight — streams
      // have low reuse distance but still evict).
      const uint64_t blocks_per_sm = max_blocks_thread;
      t.l1_line_accesses = nr * 2 + ns * 1 + visits * 1;
      const uint64_t ws = blocks_per_sm * ht_bytes;
      const uint64_t stream =
          blocks_per_sm * (br + bs) * kJoinTupleBytes / 4;
      t.l1_miss_rate =
          1.0 - MemoryModel::CacheHitRate(spec.l1_bytes_per_sm, ws, stream);
      t.atomics = nr;
      break;
    }
    case ProbeMemory::kScratchpadHeadsL1: {
      // Chain heads in the scratchpad (first probe access conflict-free
      // bandwidth), nodes behind L1.
      const uint64_t head_bytes = NextPow2(br) * 4;
      const uint64_t blocks_per_sm = std::min<uint64_t>(
          max_blocks_thread,
          std::max<uint64_t>(1, scratchpad_budget / std::max<uint64_t>(
                                                        1, head_bytes)));
      t.scratchpad_accesses =
          static_cast<uint64_t>((nr * 1 + ns * 1) * bf);
      t.l1_line_accesses = nr * 1 + visits * 1;
      const uint64_t node_bytes = br * (kJoinTupleBytes + 4);
      const uint64_t ws = blocks_per_sm * node_bytes;
      const uint64_t stream =
          blocks_per_sm * (br + bs) * kJoinTupleBytes / 4;
      t.l1_miss_rate =
          1.0 - MemoryModel::CacheHitRate(spec.l1_bytes_per_sm, ws, stream);
      t.atomics = nr;
      break;
    }
  }
  return t;
}

}  // namespace detail

Status CheckGpuCapacity(const JoinInput& in, const sim::GpuSpec& spec,
                        bool partitioned) {
  const uint64_t data = (in.nominal_r + in.nominal_s) * kJoinTupleBytes;
  uint64_t need;
  if (partitioned) {
    // Inputs + partitioned copy (ping-pong buffers).
    need = data * 2;
  } else {
    // Inputs + global chained hash table over R.
    need = data + ChainedHashTable::NominalBytes(in.nominal_r, 4);
  }
  // ~256 MB reserved for code, buffers, join output staging.
  const uint64_t budget = spec.mem_bytes - 256 * sim::kMiB;
  if (need > budget) {
    return Status::OutOfMemory(
        "in-GPU join working set " + std::to_string(need >> 20) +
        " MiB exceeds device budget " + std::to_string(budget >> 20) +
        " MiB");
  }
  return Status::OK();
}

JoinOutcome GpuRadixJoin(const JoinInput& in, const sim::GpuSpec& spec,
                         ProbeMemory mem, const RadixPlan* plan_override) {
  JoinOutcome out;
  out.status = CheckGpuCapacity(in, spec, /*partitioned=*/true);
  if (!out.status.ok()) return out;

  constexpr uint64_t kScratchBudget = 32 * sim::kKiB;
  out.plan = plan_override != nullptr
                 ? *plan_override
                 : PlanGpuRadix(in.nominal_r, kJoinTupleBytes, spec,
                                kScratchBudget);

  // ---- correctness on the host (scaled data, same hash bits) ----
  // Host partitioning uses min(plan bits, what the actual sample supports):
  // a 1/32 sample cannot fill 2^15 partitions meaningfully, but the join
  // result is invariant to the partition count.
  const int host_bits = std::min<int>(
      out.plan.total_bits,
      static_cast<int>(Log2Floor(std::max<size_t>(1, in.r_key.size() / 64))));
  detail::HostJoinCounts counts = detail::HostPartitionedJoin(in, host_bits);
  out.matches = counts.matches;
  out.sum_r_pay = counts.sum_r;
  out.sum_s_pay = counts.sum_s;

  // ---- simulated cost at nominal scale ----
  const uint64_t nr = in.nominal_r, ns = in.nominal_s;
  const uint64_t visits =
      static_cast<uint64_t>(counts.probe_visits * in.ScaleS());
  const uint64_t chunk_elems = kScratchBudget / kJoinTupleBytes;

  TrafficStats agg;
  for (int p = 0; p < out.plan.passes; ++p) {
    TrafficStats t = detail::GpuPartitionPassTraffic(
        nr + ns, out.plan.bits_per_pass, spec, chunk_elems);
    out.partition_seconds +=
        MemoryModel::GpuTime(spec, t, (nr + ns) / chunk_elems + 1);
    agg += t;
  }
  TrafficStats bp = detail::GpuBuildProbeTraffic(
      nr, ns, visits, out.plan.partitions, mem, spec, kScratchBudget);
  out.build_probe_seconds =
      MemoryModel::GpuTime(spec, bp, out.plan.partitions);
  agg += bp;

  out.traffic = agg;
  out.seconds = out.partition_seconds + out.build_probe_seconds;
  return out;
}

JoinOutcome GpuNoPartitionJoin(const JoinInput& in,
                               const sim::GpuSpec& spec) {
  JoinOutcome out;
  out.status = CheckGpuCapacity(in, spec, /*partitioned=*/false);
  if (!out.status.ok()) return out;

  detail::HostJoinCounts counts = detail::HostPartitionedJoin(in, 0);
  out.matches = counts.matches;
  out.sum_r_pay = counts.sum_r;
  out.sum_s_pay = counts.sum_s;

  const uint64_t nr = in.nominal_r, ns = in.nominal_s;
  const uint64_t visits =
      static_cast<uint64_t>(counts.probe_visits * in.ScaleS());

  // Build kernel: stream R, random node + head writes into device memory.
  TrafficStats build;
  build.dram_seq_read_bytes = nr * kJoinTupleBytes;
  build.dram_rand_accesses = nr * 2;
  build.atomics = nr;
  build.tuple_ops = nr * 4;
  // Probe kernel: stream S, random head + chain-node reads.
  TrafficStats probe;
  probe.dram_seq_read_bytes = ns * kJoinTupleBytes;
  probe.dram_rand_accesses = ns * 1 + visits * 1;
  probe.tuple_ops = ns * 4 + visits;

  const uint64_t blocks = std::max<uint64_t>(1, (nr + ns) / 4096);
  out.seconds = MemoryModel::GpuTime(spec, build, blocks) +
                MemoryModel::GpuTime(spec, probe, blocks);
  out.traffic = build;
  out.traffic += probe;
  return out;
}

JoinOutcome CpuRadixJoin(const JoinInput& in, const sim::CpuSpec& socket,
                         int workers, int sockets) {
  JoinOutcome out;
  const sim::CpuSpec spec = ServerCpuSpec(socket, sockets);
  out.plan = PlanCpuRadix(in.nominal_r, kJoinTupleBytes, socket);

  const int host_bits = std::min<int>(
      out.plan.total_bits,
      static_cast<int>(Log2Floor(std::max<size_t>(1, in.r_key.size() / 64))));
  detail::HostJoinCounts counts = detail::HostPartitionedJoin(in, host_bits);
  out.matches = counts.matches;
  out.sum_r_pay = counts.sum_r;
  out.sum_s_pay = counts.sum_s;

  const uint64_t nr = in.nominal_r, ns = in.nominal_s;
  const uint64_t visits =
      static_cast<uint64_t>(counts.probe_visits * in.ScaleS());

  TrafficStats agg;
  for (int p = 0; p < out.plan.passes; ++p) {
    TrafficStats t;
    t.dram_seq_read_bytes = (nr + ns) * kJoinTupleBytes;
    t.dram_seq_write_bytes = (nr + ns) * kJoinTupleBytes;
    // Software write-combining buffers keep stores near-sequential.
    t.write_coalescing = 0.9;
    t.tuple_ops = (nr + ns) * 6;
    out.partition_seconds += MemoryModel::CpuTime(spec, t, workers);
    agg += t;
  }
  // Build & probe: partitions are L2-resident, so the only DRAM traffic is
  // streaming the partitions once; table accesses are in-cache compute.
  TrafficStats bp;
  bp.dram_seq_read_bytes = (nr + ns) * kJoinTupleBytes;
  bp.tuple_ops = nr * 10 + ns * 8 + visits * 4;
  out.build_probe_seconds = MemoryModel::CpuTime(spec, bp, workers);
  agg += bp;

  out.traffic = agg;
  out.seconds = out.partition_seconds + out.build_probe_seconds;
  return out;
}

JoinOutcome CpuNoPartitionJoin(const JoinInput& in,
                               const sim::CpuSpec& socket, int workers,
                               int sockets) {
  JoinOutcome out;
  const sim::CpuSpec spec = ServerCpuSpec(socket, sockets);

  detail::HostJoinCounts counts = detail::HostPartitionedJoin(in, 0);
  out.matches = counts.matches;
  out.sum_r_pay = counts.sum_r;
  out.sum_s_pay = counts.sum_s;

  const uint64_t nr = in.nominal_r, ns = in.nominal_s;
  const uint64_t visits =
      static_cast<uint64_t>(counts.probe_visits * in.ScaleS());

  TrafficStats build;
  build.dram_seq_read_bytes = nr * kJoinTupleBytes;
  build.dram_rand_accesses = nr * 2;  // node write + head RMW
  build.atomics = nr;
  build.tuple_ops = nr * 6;
  TrafficStats probe;
  probe.dram_seq_read_bytes = ns * kJoinTupleBytes;
  probe.dram_rand_accesses = ns + visits;
  probe.tuple_ops = ns * 6 + visits * 2;

  out.seconds = MemoryModel::CpuTime(spec, build, workers) +
                MemoryModel::CpuTime(spec, probe, workers);
  out.traffic = build;
  out.traffic += probe;
  return out;
}

}  // namespace hape::ops
