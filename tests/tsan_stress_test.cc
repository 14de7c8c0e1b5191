// Concurrency stress surface for the ThreadSanitizer CI job. The engine's
// only real parallelism is the packet-transform worker pool
// (kernels::ParallelFor, selected by HAPE_PACKET_THREADS) plus the
// process-wide atomic kernel counters that every plane bumps; these tests
// hammer exactly those paths with enough iterations that a relaxed-ordering
// mistake or an unsynchronized slot write shows up as a TSan report. They
// also run as ordinary tests in the normal suite, where the byte-identity
// assertions double as (weak) determinism checks.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <vector>

#include "codegen/kernels.h"
#include "ops/hash_table.h"
#include "queries/plan_fuzzer.h"
#include "queries/tpch_queries.h"
#include "sim/topology.h"
#include "storage/tpch.h"

namespace hape::codegen {
namespace {

constexpr int kThreads = 4;

/// Restores the process-wide data-plane selection on scope exit.
struct PlaneGuard {
  DataPlaneConfig saved = DataPlane();
  ~PlaneGuard() { SetDataPlane(saved); }
};

// Every index writes only its own slot while all of them bump one shared
// atomic; repeated across rounds so the pool's thread startup/teardown
// handshake is itself exercised many times.
TEST(TsanStress, ParallelForSlotWritesAndSharedAtomic) {
  constexpr size_t kN = 1 << 12;
  constexpr int kRounds = 32;
  std::vector<uint64_t> slots(kN, 0);
  std::atomic<uint64_t> total{0};
  for (int round = 0; round < kRounds; ++round) {
    kernels::ParallelFor(kN, kThreads, [&](size_t i) {
      slots[i] += i + 1;
      total.fetch_add(1, std::memory_order_relaxed);
    });
  }
  EXPECT_EQ(total.load(), kN * static_cast<uint64_t>(kRounds));
  for (size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(slots[i], (i + 1) * static_cast<uint64_t>(kRounds)) << i;
  }
}

// Concurrent readers over one shared ChainedHashTable: each worker hashes
// its own key block, bulk-probes the shared table into private outputs,
// and bumps the process-wide counters (HashKeys/ProbeBulk do so
// internally; the parallel-packet bump is called explicitly). The visit
// counts must match the single-threaded reference exactly.
TEST(TsanStress, ConcurrentProbeBulkOverSharedTable) {
  constexpr size_t kBuildRows = 1 << 14;
  constexpr size_t kBlocks = 64;
  constexpr size_t kBlockKeys = 512;

  ops::ChainedHashTable ht;
  {
    std::vector<int64_t> keys(kBuildRows);
    // Duplicate keys (mod) so probe buckets hold more than one slot.
    for (size_t i = 0; i < kBuildRows; ++i) {
      keys[i] = static_cast<int64_t>(i % (kBuildRows / 2));
    }
    ht = kernels::BuildBulk(kBuildRows, keys.data(), kBuildRows);
  }

  std::vector<uint64_t> visits(kBlocks, 0);
  std::vector<size_t> matches(kBlocks, 0);
  kernels::ParallelFor(kBlocks, kThreads, [&](size_t b) {
    std::vector<int64_t> keys(kBlockKeys);
    for (size_t i = 0; i < kBlockKeys; ++i) {
      keys[i] = static_cast<int64_t>((b * kBlockKeys + i) % kBuildRows);
    }
    std::vector<uint64_t> hashes(kBlockKeys);
    kernels::HashKeys(keys.data(), kBlockKeys, hashes.data());
    std::vector<uint32_t> probe_rows;
    std::vector<uint32_t> build_rows;
    visits[b] = kernels::ProbeBulk(ht, keys.data(), hashes.data(), kBlockKeys,
                                   &probe_rows, &build_rows);
    matches[b] = build_rows.size();
    BumpParallelPackets(1);
  });

  // Single-threaded reference over the same key space.
  uint64_t want_visits = 0;
  size_t want_matches = 0;
  for (size_t b = 0; b < kBlocks; ++b) {
    for (size_t i = 0; i < kBlockKeys; ++i) {
      const int64_t key =
          static_cast<int64_t>((b * kBlockKeys + i) % kBuildRows);
      want_visits += ht.ForEachMatch(key, [&](uint32_t) { ++want_matches; });
    }
  }
  EXPECT_EQ(std::accumulate(visits.begin(), visits.end(), uint64_t{0}),
            want_visits);
  EXPECT_EQ(std::accumulate(matches.begin(), matches.end(), size_t{0}),
            want_matches);
}

// The real product path: a fuzzed join/agg plan executed with parallel
// packet transforms must race-free produce the same result bytes as the
// sequential scalar plane. Under the TSan CI job this drives the whole
// executor handoff (stage closures, packet gathers, sink consume).
TEST(TsanStress, EngineRunWithPacketThreadsMatchesSequential) {
  sim::Topology topo = sim::Topology::PaperServer();
  storage::Catalog catalog;
  storage::tpch::TpchGenerator gen(/*sf=*/0.003, /*seed=*/42,
                                   /*home_node=*/0);
  ASSERT_TRUE(gen.GenerateAll(&catalog).ok());
  engine::Engine eng(&topo);
  PlaneGuard guard;

  for (uint64_t seed : {1u, 7u}) {
    queries::Fuzzer fuzzer(seed);
    const queries::FuzzSpec spec = fuzzer.Generate();

    SetDataPlane({KernelMode::kScalar, 1});
    topo.Reset();
    engine::ExecutionPolicy policy = engine::ExecutionPolicy::ForConfig(
        topo, engine::EngineConfig::kProteusHybrid);
    queries::FuzzPlan ref =
        queries::BuildFuzzPlan(spec, catalog, /*chunk_rows=*/2048);
    ASSERT_TRUE(eng.Optimize(&ref.plan, policy).ok()) << "seed " << seed;
    ASSERT_TRUE(eng.Run(&ref.plan, policy).ok()) << "seed " << seed;
    const queries::Groups expected = ref.agg.result();

    SetDataPlane({KernelMode::kVectorized, kThreads});
    topo.Reset();
    queries::FuzzPlan fp =
        queries::BuildFuzzPlan(spec, catalog, /*chunk_rows=*/2048);
    ASSERT_TRUE(eng.Optimize(&fp.plan, policy).ok()) << "seed " << seed;
    ASSERT_TRUE(eng.Run(&fp.plan, policy).ok()) << "seed " << seed;

    const queries::Groups& got = fp.agg.result();
    ASSERT_EQ(got.size(), expected.size()) << "seed " << seed;
    auto ite = expected.begin();
    for (auto itg = got.begin(); itg != got.end(); ++itg, ++ite) {
      ASSERT_EQ(itg->first, ite->first) << "seed " << seed;
      ASSERT_EQ(itg->second.size(), ite->second.size()) << "seed " << seed;
      ASSERT_EQ(0, std::memcmp(itg->second.data(), ite->second.data(),
                               itg->second.size() * sizeof(double)))
          << "seed " << seed << " group " << itg->first;
    }
  }
}

}  // namespace
}  // namespace hape::codegen
