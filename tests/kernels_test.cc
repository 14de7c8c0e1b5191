// Unit tests for the vectorized data plane (codegen/kernels.h): every
// batch kernel must be *bit-identical* to the scalar reference it
// replaces — same selected rows, same hashes, same probe pairs and visit
// counts, same table layout, same group slots. Sizes are chosen to
// exercise vector remainder lanes (n not a multiple of the SIMD width),
// and the predicate tests include NaN/inf lanes where IEEE compare
// semantics differ between naive vector code and the scalar rules.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <map>
#include <random>
#include <vector>

#include "codegen/calibration.h"
#include "codegen/kernels.h"
#include "common/hash.h"
#include "ops/hash_table.h"

namespace hape::codegen {
namespace {

using kernels::BinOp;

/// Scalar reference for the select kernels: the exact `compare-as-double,
/// keep when true` rule of expr/eval.cc's per-row loop.
bool ScalarCmp(double v, BinOp op, double lit) {
  switch (op) {
    case BinOp::kEq:
      return v == lit;
    case BinOp::kNe:
      return v != lit;
    case BinOp::kLt:
      return v < lit;
    case BinOp::kLe:
      return v <= lit;
    case BinOp::kGt:
      return v > lit;
    case BinOp::kGe:
      return v >= lit;
    default:
      return false;
  }
}

std::vector<double> NoisyDoubles(size_t n, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> dist(-100.0, 100.0);
  std::vector<double> v(n);
  for (size_t i = 0; i < n; ++i) v[i] = dist(rng);
  // Poison special lanes: NaN, +/-inf, signed zero, the literal itself.
  if (n > 16) {
    v[1] = std::numeric_limits<double>::quiet_NaN();
    v[5] = std::numeric_limits<double>::infinity();
    v[7] = -std::numeric_limits<double>::infinity();
    v[11] = 0.0;
    v[13] = -0.0;
    v[n - 1] = std::numeric_limits<double>::quiet_NaN();  // remainder lane
  }
  return v;
}

constexpr BinOp kCmpOps[] = {BinOp::kEq, BinOp::kNe, BinOp::kLt,
                             BinOp::kLe, BinOp::kGt, BinOp::kGe};

TEST(SelectKernels, CmpF64MatchesScalarReferenceIncludingNaN) {
  // 1003 = 4*250 + 3 leaves a remainder after any 4-wide loop. The
  // infinite literals drive the branch-free store to its extremes (e.g.
  // `<= +inf` keeps every non-NaN row, `> +inf` none) in a buffer of
  // exactly n.
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<double> v = NoisyDoubles(1003, 7);
  for (BinOp op : kCmpOps) {
    for (double lit : {-3.5, 0.0, 42.0, inf, -inf}) {
      std::vector<uint32_t> got(v.size());
      const size_t m =
          kernels::SelectCmpF64(v.data(), op, lit, v.size(), got.data());
      std::vector<uint32_t> want;
      for (size_t i = 0; i < v.size(); ++i) {
        if (ScalarCmp(v[i], op, lit)) want.push_back(i);
      }
      got.resize(m);
      ASSERT_EQ(got, want) << "op " << static_cast<int>(op) << " lit " << lit;
    }
  }
}

TEST(SelectKernels, CmpIntColumnsCompareAsDoubles) {
  std::mt19937_64 rng(11);
  std::vector<int32_t> v32(517);
  std::vector<int64_t> v64(517);
  for (size_t i = 0; i < v32.size(); ++i) {
    v32[i] = static_cast<int32_t>(rng() % 200) - 100;
    v64[i] = static_cast<int64_t>(rng() % 2000) - 1000;
  }
  // A fractional literal distinguishes compare-as-double from any integer
  // shortcut: 10 < 10.5 but 11 > 10.5.
  for (BinOp op : kCmpOps) {
    const double lit = 10.5;
    std::vector<uint32_t> got(v32.size());
    size_t m = kernels::SelectCmpI32(v32.data(), op, lit, v32.size(),
                                     got.data());
    std::vector<uint32_t> want;
    for (size_t i = 0; i < v32.size(); ++i) {
      if (ScalarCmp(static_cast<double>(v32[i]), op, lit)) want.push_back(i);
    }
    got.resize(m);
    ASSERT_EQ(got, want) << "i32 op " << static_cast<int>(op);

    std::vector<uint32_t> got64(v64.size());
    m = kernels::SelectCmpI64(v64.data(), op, lit, v64.size(), got64.data());
    want.clear();
    for (size_t i = 0; i < v64.size(); ++i) {
      if (ScalarCmp(static_cast<double>(v64[i]), op, lit)) want.push_back(i);
    }
    got64.resize(m);
    ASSERT_EQ(got64, want) << "i64 op " << static_cast<int>(op);
  }
}

TEST(SelectKernels, NonZeroSelectsNaNAndRejectsBothZeros) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<double> v = {1.0, 0.0, -0.0, nan, -2.5, 0.0, nan};
  std::vector<uint32_t> out(v.size());
  const size_t m = kernels::SelectNonZero(v.data(), v.size(), out.data());
  out.resize(m);
  // NaN != 0 is true, so NaN lanes are selected, exactly like the scalar
  // `v != 0` filter test.
  EXPECT_EQ(out, (std::vector<uint32_t>{0, 3, 4, 6}));

  // The branch-free store's extremes at an odd length, each into a buffer
  // of exactly n: every row kept, then none (both signed zeros).
  const std::vector<double> all(1001, -1.5);
  std::vector<uint32_t> kept(all.size());
  ASSERT_EQ(kernels::SelectNonZero(all.data(), all.size(), kept.data()),
            all.size());
  for (size_t i = 0; i < kept.size(); ++i) ASSERT_EQ(kept[i], i);
  std::vector<double> zeros(1001, 0.0);
  for (size_t i = 1; i < zeros.size(); i += 2) zeros[i] = -0.0;
  std::vector<uint32_t> none(zeros.size());
  EXPECT_EQ(kernels::SelectNonZero(zeros.data(), zeros.size(), none.data()),
            0u);
}

TEST(HashKernels, HashKeysMatchesMurmurPerKey) {
  std::vector<int64_t> keys(777);
  for (size_t i = 0; i < keys.size(); ++i) {
    keys[i] = static_cast<int64_t>(i * i) - 300;
  }
  std::vector<uint64_t> out(keys.size());
  kernels::HashKeys(keys.data(), keys.size(), out.data());
  for (size_t i = 0; i < keys.size(); ++i) {
    ASSERT_EQ(out[i], HashMurmur64(static_cast<uint64_t>(keys[i]))) << i;
  }
}

// ---- hash table: bulk probe / build ----------------------------------------

TEST(ProbeKernels, ProbeBulkIdenticalToForEachMatch) {
  std::mt19937_64 rng(31);
  std::vector<int64_t> build(900);
  for (auto& k : build) k = static_cast<int64_t>(rng() % 300);  // dups
  const ops::ChainedHashTable ht(/*buckets=*/256, build);  // long buckets
  std::vector<int64_t> probe(1001);
  for (auto& k : probe) k = static_cast<int64_t>(rng() % 400);  // misses too
  std::vector<uint64_t> hashes(probe.size());
  kernels::HashKeys(probe.data(), probe.size(), hashes.data());

  std::vector<uint32_t> pr, br;
  const uint64_t visits = kernels::ProbeBulk(ht, probe.data(), hashes.data(),
                                             probe.size(), &pr, &br);

  std::vector<uint32_t> want_pr, want_br;
  uint64_t want_visits = 0;
  for (size_t i = 0; i < probe.size(); ++i) {
    want_visits += ht.ForEachMatch(probe[i], [&](uint32_t row) {
      want_pr.push_back(static_cast<uint32_t>(i));
      want_br.push_back(row);
    });
  }
  EXPECT_EQ(visits, want_visits);
  EXPECT_EQ(pr, want_pr);
  EXPECT_EQ(br, want_br);
}

// Both data planes build the same table: the scalar build, which hashes
// each key itself, and BuildBulk, which fills from bucket ids with
// prefetching, give equal offsets and slots, at sizes around the prefetch
// distance too. BuildBulk counts every key as hashed and inserted.
TEST(BuildKernels, BuildBulkMatchesPerRowInsert) {
  std::mt19937_64 rng(41);
  for (const size_t n : {0, 1, 8, 15, 16, 17, 513}) {
    for (const size_t buckets : {size_t{1}, n}) {
      SCOPED_TRACE(std::to_string(n) + " keys, " + std::to_string(buckets) +
                   " buckets");
      std::vector<int64_t> keys(n);
      for (auto& k : keys) k = static_cast<int64_t>(rng() % 128);
      const ops::ChainedHashTable scalar_ht(buckets, keys);
      const KernelCounterSnapshot before = KernelCounters();
      const ops::ChainedHashTable bulk_ht =
          kernels::BuildBulk(buckets, keys.data(), n);
      const KernelCounterSnapshot after = KernelCounters();
      EXPECT_EQ(after.hashed_keys - before.hashed_keys, n);
      EXPECT_EQ(after.bulk_inserts - before.bulk_inserts, n);

      ASSERT_EQ(bulk_ht.num_buckets(), scalar_ht.num_buckets());
      ASSERT_EQ(scalar_ht.offsets().size(),
                n == 0 ? 0 : scalar_ht.num_buckets() + 1);
      ASSERT_TRUE(std::ranges::equal(bulk_ht.offsets(), scalar_ht.offsets()));
      ASSERT_TRUE(std::ranges::equal(bulk_ht.slots(), scalar_ht.slots()));
    }
  }
}

// ---- grouped accumulation ---------------------------------------------------

TEST(GroupKernels, GroupIndexAssignsSlotsInFirstSeenOrder) {
  // ~12k groups from a 64-entry start: the table grows eleven times, and
  // slots must hold across every growth.
  std::mt19937_64 rng(53);
  kernels::GroupIndex index(/*expected_groups=*/4);
  std::vector<int64_t> keys(60000);
  for (auto& k : keys) k = static_cast<int64_t>(rng() % 12000) - 6000;

  std::map<int64_t, uint32_t> seen;
  std::vector<int64_t> first_seen;
  for (int64_t k : keys) {
    const uint32_t slot = index.SlotOf(k);
    auto it = seen.find(k);
    if (it == seen.end()) {
      ASSERT_EQ(slot, first_seen.size()) << "fresh key must take next slot";
      seen.emplace(k, slot);
      first_seen.push_back(k);
    } else {
      ASSERT_EQ(slot, it->second) << "slot must be stable across growth";
    }
  }
  ASSERT_GE(index.num_groups(), 10000u);
  ASSERT_EQ(index.num_groups(), first_seen.size());
  EXPECT_EQ(index.keys(), first_seen);
}

// ---- parallel packet transforms ---------------------------------------------

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  for (int threads : {1, 2, 4}) {
    std::vector<std::atomic<int>> hits(997);
    kernels::ParallelFor(hits.size(), threads,
                         [&](size_t i) { hits[i].fetch_add(1); });
    for (size_t i = 0; i < hits.size(); ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "index " << i << " threads " << threads;
    }
  }
}

// ---- calibration ------------------------------------------------------------

TEST(Calibration, HarnessMeasuresPositiveRates) {
  // Tiny batch: this is a smoke test of the measurement loop, not a perf
  // assertion (bench_kernels owns the >= 1.0 speedup gates).
  CalibrationHarness::Options o;
  o.rows = 1u << 12;
  o.reps = 1;
  const Calibration c = CalibrationHarness::Measure(o);
  EXPECT_GT(c.filter.scalar_gbps, 0.0);
  EXPECT_GT(c.filter.simd_gbps, 0.0);
  EXPECT_GT(c.hash.simd_gbps, 0.0);
  EXPECT_GT(c.probe.simd_gbps, 0.0);
  EXPECT_GT(c.build.simd_gbps, 0.0);
  EXPECT_GT(c.agg.simd_gbps, 0.0);
}

}  // namespace
}  // namespace hape::codegen
