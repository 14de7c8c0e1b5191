#include <gtest/gtest.h>

#include "ops/hash_table.h"
#include "ops/join_kernels.h"
#include "ops/radix_plan.h"
#include "storage/datagen.h"

namespace hape::ops {
namespace {

// ---- ChainedHashTable ---------------------------------------------------------

TEST(ChainedHashTable, InsertAndFind) {
  const std::vector<int64_t> keys = {42, 43, 42};
  const ChainedHashTable ht(8, keys);
  std::vector<uint32_t> rows;
  ht.ForEachMatch(42, [&](uint32_t r) { rows.push_back(r); });
  // Newest insert first, as a chain walk visits them.
  EXPECT_EQ(rows, (std::vector<uint32_t>{2, 0}));
  rows.clear();
  ht.ForEachMatch(999, [&](uint32_t r) { rows.push_back(r); });
  EXPECT_TRUE(rows.empty());
}

TEST(ChainedHashTable, VisitCountsReflectChains) {
  std::vector<int64_t> keys(100);
  for (int i = 0; i < 100; ++i) keys[i] = i;
  const ChainedHashTable ht(4, keys);
  uint64_t visits = 0;
  for (int i = 0; i < 100; ++i) {
    visits += ht.ForEachMatch(i, [](uint32_t) {});
  }
  // Every key's bucket is scanned whole: 4 buckets of 100 keys hold
  // sum(len^2) >= 100^2 / 4 visits.
  EXPECT_GE(visits, 2500u);
}

TEST(ChainedHashTable, NominalBytesGrowsWithRowsAndPayload) {
  EXPECT_EQ(ChainedHashTable::NominalBytes(0, 8), 0u);
  EXPECT_GT(ChainedHashTable::NominalBytes(1000, 8),
            ChainedHashTable::NominalBytes(1000, 4));
  EXPECT_GT(ChainedHashTable::NominalBytes(2000, 4),
            ChainedHashTable::NominalBytes(1000, 4));
}

// ---- radix planning -------------------------------------------------------------

TEST(RadixPlan, GpuPartitionsUntilScratchpadFits) {
  sim::GpuSpec gpu;
  const auto plan = PlanGpuRadix(32ull << 20, 8, gpu, 32 * sim::kKiB);
  EXPECT_GT(plan.total_bits, 0);
  EXPECT_LE(GpuHashTableBytes(plan.elems_per_partition, 8), 32 * sim::kKiB);
  // One fewer bit must NOT fit (minimality).
  EXPECT_GT(GpuHashTableBytes((32ull << 20) >> (plan.total_bits - 1), 8),
            32 * sim::kKiB);
}

TEST(RadixPlan, GpuTinyInputNeedsNoPartitioning) {
  sim::GpuSpec gpu;
  const auto plan = PlanGpuRadix(100, 8, gpu);
  EXPECT_EQ(plan.passes, 0);
  EXPECT_EQ(plan.partitions, 1u);
}

TEST(RadixPlan, GpuPassCountRespectsMaxBits) {
  sim::GpuSpec gpu;
  const auto plan = PlanGpuRadix(1ull << 30, 8, gpu, 32 * sim::kKiB, 8);
  EXPECT_EQ(plan.passes,
            static_cast<int>(CeilDiv(plan.total_bits, 8)));
  EXPECT_GE(plan.bits_per_pass * plan.passes, plan.total_bits);
}

TEST(RadixPlan, CpuFanoutBoundedByTlb) {
  sim::CpuSpec cpu;
  const auto plan = PlanCpuRadix(32ull << 20, 8, cpu);
  EXPECT_LE(1 << plan.bits_per_pass, cpu.tlb_entries);
  // Final partitions fit L2 with room for the table.
  EXPECT_LE(plan.elems_per_partition * 8 * 2, cpu.l2_bytes);
}

TEST(RadixPlan, BiggerInputsNeedMorePasses) {
  sim::GpuSpec gpu;
  const auto small = PlanGpuRadix(1 << 20, 8, gpu);
  const auto big = PlanGpuRadix(1ull << 31, 8, gpu);
  EXPECT_LE(small.passes, big.passes);
  EXPECT_LT(small.total_bits, big.total_bits);
}

TEST(RadixPlan, CoPartitionFitsGpuBudget) {
  const uint64_t n = 2048ull << 20;
  const uint64_t budget = 8ull << 30;
  const int bits = PlanCoPartitionBits(n, n, 8, budget / 3);
  EXPECT_GT(bits, 0);
  EXPECT_LE(((2 * n) >> bits) * 8 * 3, budget / 3 * (1ull << 0));
  // Minimal: one fewer bit must not fit.
  EXPECT_GT(((2 * n) >> (bits - 1)) * 8 * 3, budget / 3);
}

TEST(RadixPlan, CoPartitionLowFanoutForSmallInputs) {
  EXPECT_EQ(PlanCoPartitionBits(1 << 20, 1 << 20, 8, 8ull << 30), 0);
}

// ---- join correctness across all kernels ----------------------------------------

struct KernelCase {
  const char* name;
  JoinOutcome (*run)(const JoinInput&);
};

// Without this gtest prints the raw struct bytes, i.e. the address of `name`,
// which changes with every load of the binary, so each build would register
// these cases under different test names.
void PrintTo(const KernelCase& c, std::ostream* os) { *os << c.name; }

JoinOutcome RunGpuSm(const JoinInput& in) {
  return GpuRadixJoin(in, sim::GpuSpec{}, ProbeMemory::kScratchpad);
}
JoinOutcome RunGpuL1(const JoinInput& in) {
  return GpuRadixJoin(in, sim::GpuSpec{}, ProbeMemory::kL1);
}
JoinOutcome RunGpuSmL1(const JoinInput& in) {
  return GpuRadixJoin(in, sim::GpuSpec{}, ProbeMemory::kScratchpadHeadsL1);
}
JoinOutcome RunGpuNoPart(const JoinInput& in) {
  return GpuNoPartitionJoin(in, sim::GpuSpec{});
}
JoinOutcome RunCpuRadix(const JoinInput& in) {
  return CpuRadixJoin(in, sim::CpuSpec{}, 24);
}
JoinOutcome RunCpuNoPart(const JoinInput& in) {
  return CpuNoPartitionJoin(in, sim::CpuSpec{}, 24);
}

class JoinKernels : public ::testing::TestWithParam<KernelCase> {};

TEST_P(JoinKernels, UniqueKeysJoinExactlyOnce) {
  const size_t n = 20'000;
  auto rk = storage::DataGen::UniqueShuffled(n, 1);
  auto sk = storage::DataGen::UniqueShuffled(n, 2);
  std::vector<int32_t> r_key(n), r_pay(n), s_key(n), s_pay(n);
  for (size_t i = 0; i < n; ++i) {
    r_key[i] = static_cast<int32_t>(rk[i]);
    r_pay[i] = 1;
    s_key[i] = static_cast<int32_t>(sk[i]);
    s_pay[i] = 2;
  }
  JoinInput in{r_key, r_pay, s_key, s_pay, n, n};
  const auto out = GetParam().run(in);
  ASSERT_TRUE(out.status.ok()) << out.status.ToString();
  EXPECT_EQ(out.matches, n);
  EXPECT_DOUBLE_EQ(out.sum_r_pay, static_cast<double>(n));
  EXPECT_DOUBLE_EQ(out.sum_s_pay, 2.0 * n);
  EXPECT_GT(out.seconds, 0.0);
}

TEST_P(JoinKernels, DisjointKeysProduceNoMatches) {
  std::vector<int32_t> r_key{1, 2, 3}, r_pay{1, 1, 1};
  std::vector<int32_t> s_key{10, 20, 30}, s_pay{2, 2, 2};
  JoinInput in{r_key, r_pay, s_key, s_pay, 3, 3};
  const auto out = GetParam().run(in);
  ASSERT_TRUE(out.status.ok());
  EXPECT_EQ(out.matches, 0u);
}

TEST_P(JoinKernels, DuplicateKeysMultiply) {
  std::vector<int32_t> r_key{7, 7}, r_pay{1, 2};
  std::vector<int32_t> s_key{7, 7, 7}, s_pay{10, 20, 30};
  JoinInput in{r_key, r_pay, s_key, s_pay, 2, 3};
  const auto out = GetParam().run(in);
  ASSERT_TRUE(out.status.ok());
  EXPECT_EQ(out.matches, 6u);
  EXPECT_DOUBLE_EQ(out.sum_r_pay, 3.0 * 3);   // (1+2) x 3 probes
  EXPECT_DOUBLE_EQ(out.sum_s_pay, 60.0 * 2);  // (10+20+30) x 2 builds
}

INSTANTIATE_TEST_SUITE_P(
    AllKernels, JoinKernels,
    ::testing::Values(KernelCase{"gpu_sm", RunGpuSm},
                      KernelCase{"gpu_l1", RunGpuL1},
                      KernelCase{"gpu_sm_l1", RunGpuSmL1},
                      KernelCase{"gpu_nopart", RunGpuNoPart},
                      KernelCase{"cpu_radix", RunCpuRadix},
                      KernelCase{"cpu_nopart", RunCpuNoPart}),
    [](const ::testing::TestParamInfo<KernelCase>& i) {
      return i.param.name;
    });

// ---- model properties ------------------------------------------------------------

JoinInput SampleInput(std::vector<int32_t>* store, uint64_t nominal,
                      size_t actual) {
  store->clear();
  auto k1 = storage::DataGen::UniqueShuffled(actual, 1);
  auto k2 = storage::DataGen::UniqueShuffled(actual, 2);
  store->resize(actual * 4);
  for (size_t i = 0; i < actual; ++i) {
    (*store)[i] = static_cast<int32_t>(k1[i]);
    (*store)[actual + i] = 1;
    (*store)[2 * actual + i] = static_cast<int32_t>(k2[i]);
    (*store)[3 * actual + i] = 2;
  }
  JoinInput in;
  in.r_key = std::span(store->data(), actual);
  in.r_pay = std::span(store->data() + actual, actual);
  in.s_key = std::span(store->data() + 2 * actual, actual);
  in.s_pay = std::span(store->data() + 3 * actual, actual);
  in.nominal_r = in.nominal_s = nominal;
  return in;
}

TEST(JoinModel, GpuPartitionedBeatsNonPartitionedAtScale) {
  std::vector<int32_t> store;
  auto in = SampleInput(&store, 32ull << 20, 1 << 16);
  const auto part = GpuRadixJoin(in, sim::GpuSpec{});
  const auto nopart = GpuNoPartitionJoin(in, sim::GpuSpec{});
  ASSERT_TRUE(part.status.ok());
  ASSERT_TRUE(nopart.status.ok());
  EXPECT_GT(nopart.seconds / part.seconds, 2.0);  // paper: >3x at 32M
}

TEST(JoinModel, ScratchpadBeatsL1Variant) {
  std::vector<int32_t> store;
  auto in = SampleInput(&store, 32ull << 20, 1 << 16);
  const auto sm = GpuRadixJoin(in, sim::GpuSpec{}, ProbeMemory::kScratchpad);
  const auto l1 = GpuRadixJoin(in, sim::GpuSpec{}, ProbeMemory::kL1);
  EXPECT_LT(sm.build_probe_seconds, l1.build_probe_seconds);
}

TEST(JoinModel, SmL1VariantBetweenSmAndL1) {
  std::vector<int32_t> store;
  auto in = SampleInput(&store, 32ull << 20, 1 << 16);
  const auto sm = GpuRadixJoin(in, sim::GpuSpec{}, ProbeMemory::kScratchpad);
  const auto mid =
      GpuRadixJoin(in, sim::GpuSpec{}, ProbeMemory::kScratchpadHeadsL1);
  const auto l1 = GpuRadixJoin(in, sim::GpuSpec{}, ProbeMemory::kL1);
  EXPECT_LE(sm.build_probe_seconds, mid.build_probe_seconds);
  EXPECT_LE(mid.build_probe_seconds, l1.build_probe_seconds);
}

TEST(JoinModel, GpuCapacityCutoffAt128M) {
  std::vector<int32_t> store;
  auto ok = SampleInput(&store, 128ull << 20, 1 << 12);
  EXPECT_TRUE(CheckGpuCapacity(ok, sim::GpuSpec{}, true).ok());
  std::vector<int32_t> store2;
  auto too_big = SampleInput(&store2, 256ull << 20, 1 << 12);
  EXPECT_EQ(CheckGpuCapacity(too_big, sim::GpuSpec{}, true).code(),
            StatusCode::kOutOfMemory);
  const auto out = GpuRadixJoin(too_big, sim::GpuSpec{});
  EXPECT_FALSE(out.status.ok());
}

TEST(JoinModel, TimeMonotoneInNominalSize) {
  std::vector<int32_t> s1, s2;
  auto small = SampleInput(&s1, 8ull << 20, 1 << 14);
  auto big = SampleInput(&s2, 64ull << 20, 1 << 14);
  EXPECT_LT(GpuRadixJoin(small, sim::GpuSpec{}).seconds,
            GpuRadixJoin(big, sim::GpuSpec{}).seconds);
  EXPECT_LT(CpuRadixJoin(small, sim::CpuSpec{}, 24).seconds,
            CpuRadixJoin(big, sim::CpuSpec{}, 24).seconds);
}

TEST(JoinModel, MoreCpuWorkersNeverSlower) {
  std::vector<int32_t> store;
  auto in = SampleInput(&store, 32ull << 20, 1 << 14);
  EXPECT_GE(CpuRadixJoin(in, sim::CpuSpec{}, 1).seconds,
            CpuRadixJoin(in, sim::CpuSpec{}, 24).seconds);
}

TEST(JoinModel, ServerCpuSpecAggregates) {
  sim::CpuSpec one;
  const auto two = ServerCpuSpec(one, 2);
  EXPECT_EQ(two.cores, one.cores * 2);
  EXPECT_DOUBLE_EQ(two.dram_gbps, one.dram_gbps * 2);
}

TEST(JoinModel, ProbeMemoryNames) {
  EXPECT_STREQ(ProbeMemoryName(ProbeMemory::kScratchpad), "SM");
  EXPECT_STREQ(ProbeMemoryName(ProbeMemory::kL1), "L1");
  EXPECT_STREQ(ProbeMemoryName(ProbeMemory::kScratchpadHeadsL1), "SM+L1");
}

TEST(HostJoin, PartitionCountInvariance) {
  // The join result must not depend on the partition bits used.
  const size_t n = 5000;
  auto k1 = storage::DataGen::UniqueShuffled(n, 3);
  std::vector<int32_t> r_key(n), r_pay(n), s_key(n), s_pay(n);
  for (size_t i = 0; i < n; ++i) {
    r_key[i] = static_cast<int32_t>(k1[i] % 1000);  // duplicates
    r_pay[i] = static_cast<int32_t>(i);
    s_key[i] = static_cast<int32_t>(i % 1000);
    s_pay[i] = 1;
  }
  JoinInput in{r_key, r_pay, s_key, s_pay, n, n};
  const auto b0 = detail::HostPartitionedJoin(in, 0);
  for (int bits : {1, 3, 6, 9}) {
    const auto bp = detail::HostPartitionedJoin(in, bits);
    EXPECT_EQ(bp.matches, b0.matches) << bits;
    EXPECT_DOUBLE_EQ(bp.sum_r, b0.sum_r) << bits;
    EXPECT_DOUBLE_EQ(bp.sum_s, b0.sum_s) << bits;
  }
}

}  // namespace
}  // namespace hape::ops
