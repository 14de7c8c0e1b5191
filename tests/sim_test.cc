#include <gtest/gtest.h>

#include "sim/interconnect.h"
#include "sim/spec.h"
#include "sim/topology.h"
#include "sim/traffic.h"

namespace hape::sim {
namespace {

// ---- memory model -----------------------------------------------------------

TEST(MemoryModel, CpuStreamIsBandwidthBound) {
  CpuSpec cpu;
  TrafficStats t;
  t.dram_seq_read_bytes = static_cast<uint64_t>(GbpsToBytes(cpu.dram_gbps));
  // One socket-bandwidth worth of bytes takes one second regardless of core
  // count (bandwidth does not scale with workers).
  EXPECT_NEAR(MemoryModel::CpuTime(cpu, t, cpu.cores), 1.0, 1e-9);
  EXPECT_NEAR(MemoryModel::CpuTime(cpu, t, 1), 1.0, 1e-9);
}

TEST(MemoryModel, CpuComputeScalesWithWorkers) {
  CpuSpec cpu;
  TrafficStats t;
  t.tuple_ops = 1ull << 32;  // compute-bound
  const double t1 = MemoryModel::CpuTime(cpu, t, 1);
  const double t12 = MemoryModel::CpuTime(cpu, t, 12);
  EXPECT_NEAR(t1 / t12, 12.0, 1e-6);
}

TEST(MemoryModel, CpuWorkersClampedToCores) {
  CpuSpec cpu;
  TrafficStats t;
  t.tuple_ops = 1ull << 30;
  EXPECT_EQ(MemoryModel::CpuTime(cpu, t, 200),
            MemoryModel::CpuTime(cpu, t, cpu.cores));
}

TEST(MemoryModel, CpuRandomAccessOverFetchesCacheLine) {
  CpuSpec cpu;
  TrafficStats seq, rnd;
  seq.dram_seq_read_bytes = 8ull << 20;      // 1M tuples of 8B, streamed
  rnd.dram_rand_accesses = 1ull << 20;       // 1M random 8B accesses
  // Random costs a full 64B line per access: 8x the bytes.
  const double ts = MemoryModel::CpuTime(cpu, seq, 12);
  const double tr = MemoryModel::CpuTime(cpu, rnd, 12);
  EXPECT_GT(tr, ts * 4);
}

TEST(MemoryModel, CpuRandomLatencyBoundWithFewWorkers) {
  CpuSpec cpu;
  TrafficStats t;
  t.dram_rand_accesses = 100'000'000;
  // With 1 worker, MLP-bounded latency dominates bandwidth.
  const double t1 = MemoryModel::CpuTime(cpu, t, 1);
  const double t12 = MemoryModel::CpuTime(cpu, t, 12);
  EXPECT_GT(t1, t12);  // more workers hide more latency
}

TEST(MemoryModel, GpuStreamBandwidthBound) {
  GpuSpec gpu;
  TrafficStats t;
  t.dram_seq_read_bytes = static_cast<uint64_t>(GbpsToBytes(gpu.dram_gbps));
  const double secs = MemoryModel::GpuTimeNoLaunch(gpu, t, 1);
  EXPECT_NEAR(secs, 1.0, 0.01);
}

TEST(MemoryModel, GpuLaunchCostAdds) {
  GpuSpec gpu;
  TrafficStats t;
  EXPECT_NEAR(MemoryModel::GpuTime(gpu, t, 1) -
                  MemoryModel::GpuTimeNoLaunch(gpu, t, 1),
              gpu.kernel_launch_s, 1e-12);
}

TEST(MemoryModel, GpuBlockSchedulingOverheadGrowsWithBlocks) {
  GpuSpec gpu;
  TrafficStats t;
  t.dram_seq_read_bytes = 1 << 20;
  EXPECT_LT(MemoryModel::GpuTimeNoLaunch(gpu, t, 100),
            MemoryModel::GpuTimeNoLaunch(gpu, t, 100'000));
}

TEST(MemoryModel, GpuWriteCoalescingPenalizesShortRuns) {
  GpuSpec gpu;
  TrafficStats good, bad;
  good.dram_seq_write_bytes = bad.dram_seq_write_bytes = 1ull << 30;
  good.write_coalescing = 1.0;
  bad.write_coalescing = 0.25;  // 8B runs against 32B-of-128B transactions
  EXPECT_NEAR(MemoryModel::GpuTimeNoLaunch(gpu, bad, 1) /
                  MemoryModel::GpuTimeNoLaunch(gpu, good, 1),
              4.0, 0.01);
}

TEST(MemoryModel, ScratchpadBeatsL1ForRandomWordAccess) {
  GpuSpec gpu;
  // Same logical access count placed in scratchpad vs behind L1 (all hits).
  TrafficStats sm, l1;
  sm.scratchpad_accesses = 1ull << 30;
  l1.l1_line_accesses = 1ull << 30;
  l1.l1_miss_rate = 0.0;
  // Scratchpad serves `banks` words per SM-cycle; L1 serves one line-access
  // per SM-cycle — the over-fetch argument of §4.1.
  EXPECT_GT(MemoryModel::GpuTimeNoLaunch(gpu, l1, 1) /
                MemoryModel::GpuTimeNoLaunch(gpu, sm, 1),
            8.0);
}

TEST(MemoryModel, L1MissesGoToDram) {
  GpuSpec gpu;
  TrafficStats hit, miss;
  hit.l1_line_accesses = miss.l1_line_accesses = 1ull << 28;
  hit.l1_miss_rate = 0.0;
  miss.l1_miss_rate = 1.0;
  EXPECT_GT(MemoryModel::GpuTimeNoLaunch(gpu, miss, 1),
            MemoryModel::GpuTimeNoLaunch(gpu, hit, 1));
}

// ---- helper models ----------------------------------------------------------

TEST(BankConflicts, BroadcastIsFree) {
  EXPECT_DOUBLE_EQ(MemoryModel::BankConflictFactor(32, 1), 1.0);
  EXPECT_DOUBLE_EQ(MemoryModel::BankConflictFactor(32, 0), 1.0);
}

TEST(BankConflicts, FewTargetsSerialize) {
  EXPECT_GT(MemoryModel::BankConflictFactor(32, 2),
            MemoryModel::BankConflictFactor(32, 32));
  EXPECT_LE(MemoryModel::BankConflictFactor(32, 2), 32.0);
}

TEST(BankConflicts, ManyTargetsApproachEmpiricalFloor) {
  const double f = MemoryModel::BankConflictFactor(32, 4096);
  EXPECT_GE(f, 1.0);
  EXPECT_LE(f, 3.0);
}

TEST(CacheHitRate, FullyResidentHits) {
  EXPECT_DOUBLE_EQ(MemoryModel::CacheHitRate(64 << 10, 16 << 10, 0), 1.0);
}

TEST(CacheHitRate, OversizedWorkingSetMisses) {
  EXPECT_LT(MemoryModel::CacheHitRate(48 << 10, 512 << 10, 0), 0.15);
}

TEST(CacheHitRate, StreamingPollutionReducesHits) {
  const double clean = MemoryModel::CacheHitRate(48 << 10, 48 << 10, 0);
  const double dirty =
      MemoryModel::CacheHitRate(48 << 10, 48 << 10, 48 << 10);
  EXPECT_GT(clean, dirty);
}

TEST(Coalescing, LongRunsAreFree) {
  EXPECT_DOUBLE_EQ(MemoryModel::CoalescingEfficiency(1024, 128), 1.0);
  EXPECT_DOUBLE_EQ(MemoryModel::CoalescingEfficiency(128, 128), 1.0);
}

TEST(Coalescing, ShortRunsWasteTransactions) {
  EXPECT_DOUBLE_EQ(MemoryModel::CoalescingEfficiency(8, 128), 8.0 / 128);
  EXPECT_DOUBLE_EQ(MemoryModel::CoalescingEfficiency(64, 128), 0.5);
}

TEST(TrafficStats, AccumulateWeightsRates) {
  TrafficStats a, b;
  a.dram_seq_write_bytes = 100;
  a.write_coalescing = 1.0;
  b.dram_seq_write_bytes = 300;
  b.write_coalescing = 0.5;
  a += b;
  EXPECT_EQ(a.dram_seq_write_bytes, 400u);
  EXPECT_NEAR(a.write_coalescing, (1.0 * 100 + 0.5 * 300) / 400, 1e-12);
}

TEST(TrafficStats, ToStringMentionsFields) {
  TrafficStats t;
  t.atomics = 7;
  EXPECT_NE(t.ToString().find("atomics=7"), std::string::npos);
}

// ---- interconnect -----------------------------------------------------------

TEST(Link, DurationIsLatencyPlusBytesOverBandwidth) {
  Link link(LinkSpec{12.5, 5 * kUs});
  EXPECT_NEAR(link.Duration(12'500'000'000ull), 1.0 + 5e-6, 1e-9);
}

TEST(Link, TransfersSerialize) {
  Link link(LinkSpec{10.0, 0.0});
  auto w1 = link.Transfer(0, 10'000'000'000ull);  // 1s
  auto w2 = link.Transfer(0, 10'000'000'000ull);  // queued behind w1
  EXPECT_NEAR(w1.finish, 1.0, 1e-9);
  EXPECT_NEAR(w2.start, 1.0, 1e-9);
  EXPECT_NEAR(w2.finish, 2.0, 1e-9);
}

TEST(Link, EarliestRespected) {
  Link link(LinkSpec{10.0, 0.0});
  auto w = link.Transfer(5.0, 1'000'000'000ull);
  EXPECT_NEAR(w.start, 5.0, 1e-12);
}

TEST(Link, StatsAccumulateAndReset) {
  Link link(LinkSpec{10.0, 0.0});
  link.Transfer(0, 1000);
  link.Transfer(0, 2000);
  EXPECT_EQ(link.total_bytes(), 3000u);
  link.Reset();
  EXPECT_EQ(link.total_bytes(), 0u);
  EXPECT_DOUBLE_EQ(link.available_at(), 0.0);
}

// ---- topology ---------------------------------------------------------------

TEST(Topology, PaperServerShape) {
  Topology t = Topology::PaperServer();
  EXPECT_EQ(t.CpuDeviceIds().size(), 2u);
  EXPECT_EQ(t.GpuDeviceIds().size(), 2u);
  EXPECT_EQ(t.num_mem_nodes(), 4);
  EXPECT_EQ(t.num_links(), 3);  // QPI + 2 dedicated PCIe
}

TEST(Topology, GpuCountVariants) {
  EXPECT_EQ(Topology::PaperServerWithGpus(0).GpuDeviceIds().size(), 0u);
  EXPECT_EQ(Topology::PaperServerWithGpus(1).GpuDeviceIds().size(), 1u);
}

TEST(Topology, RoutesAreShortest) {
  Topology t = Topology::PaperServer();
  // socket0 -> its own GPU: one hop.
  EXPECT_EQ(t.Route(0, 2).size(), 1u);
  // socket0 -> socket1's GPU: QPI then PCIe.
  EXPECT_EQ(t.Route(0, 3).size(), 2u);
  // same node: empty.
  EXPECT_TRUE(t.Route(1, 1).empty());
}

TEST(Topology, TransferReservesEveryLinkOnRoute) {
  Topology t = Topology::PaperServer();
  const SimTime f = t.TransferFinish(0, 3, 0, 1ull << 30);
  // Must take at least the PCIe time for 1 GiB.
  EXPECT_GT(f, (1ull << 30) / GbpsToBytes(12.5));
  // Both QPI and GPU1's PCIe are now busy.
  EXPECT_GT(t.link(0).available_at(), 0.0);
  EXPECT_GT(t.link(2).available_at(), 0.0);
  EXPECT_DOUBLE_EQ(t.link(1).available_at(), 0.0);
}

TEST(Topology, LocalTransferIsFree) {
  Topology t = Topology::PaperServer();
  EXPECT_DOUBLE_EQ(t.TransferFinish(0, 0, 3.5, 1 << 30), 3.5);
}

TEST(Topology, ResetClearsLinks) {
  Topology t = Topology::PaperServer();
  t.TransferFinish(0, 2, 0, 1 << 20);
  t.Reset();
  EXPECT_DOUBLE_EQ(t.link(1).available_at(), 0.0);
}

// Roofline property sweep: time is monotone in every traffic dimension.
class RooflineMonotone : public ::testing::TestWithParam<int> {};

TEST_P(RooflineMonotone, GpuTimeMonotoneInEachField) {
  GpuSpec gpu;
  TrafficStats base;
  base.dram_seq_read_bytes = 1 << 20;
  base.tuple_ops = 1 << 18;
  const double t0 = MemoryModel::GpuTimeNoLaunch(gpu, base, 16);
  TrafficStats more = base;
  switch (GetParam()) {
    case 0: more.dram_seq_read_bytes *= 100; break;
    case 1: more.dram_seq_write_bytes += 1 << 28; break;
    case 2: more.dram_rand_accesses += 1 << 24; break;
    case 3: more.scratchpad_accesses += 1ull << 32; break;
    case 4: more.l1_line_accesses += 1ull << 30; more.l1_miss_rate = 0.5; break;
    case 5: more.tuple_ops += 1ull << 36; break;
    case 6: more.atomics += 1ull << 36; break;
  }
  EXPECT_GE(MemoryModel::GpuTimeNoLaunch(gpu, more, 16), t0);
}

INSTANTIATE_TEST_SUITE_P(AllFields, RooflineMonotone,
                         ::testing::Range(0, 7));

}  // namespace
}  // namespace hape::sim
