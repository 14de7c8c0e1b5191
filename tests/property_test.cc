// Property-based tests: invariants that must hold across randomized
// workloads, algorithm choices, and model parameters. Uses parameterized
// gtest sweeps as the property harness.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <map>
#include <numeric>
#include <random>
#include <string>
#include <unordered_map>
#include <vector>

#include "codegen/kernels.h"
#include "common/bits.h"
#include "common/hash.h"
#include "coproc/coproc_join.h"
#include "engine/executor.h"
#include "engine/sinks.h"
#include "engine/stages.h"
#include "expr/eval.h"
#include "memory/gather.h"
#include "ops/join_kernels.h"
#include "sim/topology.h"
#include "storage/datagen.h"

namespace hape {
namespace {

using ops::JoinInput;

struct Workload {
  size_t rows;
  size_t key_domain;  // < rows => duplicates; == rows with shuffle => unique
  double zipf_theta;
  uint64_t seed;
};

class JoinEquivalence : public ::testing::TestWithParam<Workload> {
 protected:
  JoinInput Make(const Workload& w) {
    using storage::DataGen;
    r_key_.resize(w.rows);
    s_key_.resize(w.rows);
    r_pay_.resize(w.rows);
    s_pay_.resize(w.rows);
    const auto rk = w.zipf_theta > 0
                        ? DataGen::Zipf(w.rows, w.key_domain, w.zipf_theta,
                                        w.seed)
                        : DataGen::UniformInt(w.rows, 0,
                                              w.key_domain - 1, w.seed);
    const auto sk = w.zipf_theta > 0
                        ? DataGen::Zipf(w.rows, w.key_domain, w.zipf_theta,
                                        w.seed + 1)
                        : DataGen::UniformInt(w.rows, 0, w.key_domain - 1,
                                              w.seed + 1);
    for (size_t i = 0; i < w.rows; ++i) {
      r_key_[i] = static_cast<int32_t>(rk[i]);
      s_key_[i] = static_cast<int32_t>(sk[i]);
      r_pay_[i] = static_cast<int32_t>(i % 997);
      s_pay_[i] = static_cast<int32_t>(i % 1009);
    }
    JoinInput in;
    in.r_key = r_key_;
    in.r_pay = r_pay_;
    in.s_key = s_key_;
    in.s_pay = s_pay_;
    in.nominal_r = in.nominal_s = w.rows;
    return in;
  }

  // Trusted O(n) nested-map join oracle.
  struct Oracle {
    uint64_t matches = 0;
    double sum_r = 0, sum_s = 0;
  };
  Oracle Reference(const JoinInput& in) {
    std::unordered_map<int32_t, std::pair<uint64_t, double>> build;
    for (size_t i = 0; i < in.r_key.size(); ++i) {
      auto& e = build[in.r_key[i]];
      e.first += 1;
      e.second += in.r_pay[i];
    }
    Oracle o;
    for (size_t i = 0; i < in.s_key.size(); ++i) {
      auto it = build.find(in.s_key[i]);
      if (it == build.end()) continue;
      o.matches += it->second.first;
      o.sum_r += it->second.second;
      o.sum_s += static_cast<double>(in.s_pay[i]) * it->second.first;
    }
    return o;
  }

  std::vector<int32_t> r_key_, r_pay_, s_key_, s_pay_;
};

TEST_P(JoinEquivalence, EveryAlgorithmMatchesOracle) {
  const JoinInput in = Make(GetParam());
  const Oracle want = Reference(in);

  const auto check = [&](const ops::JoinOutcome& out, const char* name) {
    ASSERT_TRUE(out.status.ok()) << name << ": " << out.status.ToString();
    EXPECT_EQ(out.matches, want.matches) << name;
    EXPECT_NEAR(out.sum_r_pay, want.sum_r, 1e-6) << name;
    EXPECT_NEAR(out.sum_s_pay, want.sum_s, 1e-6) << name;
  };
  check(ops::GpuRadixJoin(in, sim::GpuSpec{}), "gpu_radix_sm");
  check(ops::GpuRadixJoin(in, sim::GpuSpec{}, ops::ProbeMemory::kL1),
        "gpu_radix_l1");
  check(ops::GpuNoPartitionJoin(in, sim::GpuSpec{}), "gpu_nopart");
  check(ops::CpuRadixJoin(in, sim::CpuSpec{}, 24), "cpu_radix");
  check(ops::CpuNoPartitionJoin(in, sim::CpuSpec{}, 24), "cpu_nopart");
  sim::Topology topo = sim::Topology::PaperServer();
  check(static_cast<const ops::JoinOutcome&>(
            [&] {
              auto c = coproc::CoprocRadixJoin(in, &topo, 2);
              ops::JoinOutcome o;
              o.status = c.status;
              o.matches = c.matches;
              o.sum_r_pay = c.sum_r_pay;
              o.sum_s_pay = c.sum_s_pay;
              o.seconds = c.seconds;
              return o;
            }()),
        "coproc");
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, JoinEquivalence,
    ::testing::Values(
        Workload{1, 1, 0, 1},                  // single tuple
        Workload{100, 10, 0, 2},               // heavy duplicates
        Workload{1000, 1000, 0, 3},            // uniform
        Workload{5000, 50000, 0, 4},           // sparse (many misses)
        Workload{5000, 500, 0.5, 5},           // mild skew
        Workload{5000, 500, 0.9, 6},           // heavy skew
        Workload{20000, 20000, 0, 7},          // larger uniform
        Workload{4096, 4096, 0, 8},            // pow2 sizes
        Workload{4097, 17, 0, 9}));            // odd sizes, tiny domain

// ---- partitioning invariants ---------------------------------------------------

class PartitionInvariants : public ::testing::TestWithParam<int> {};

TEST_P(PartitionInvariants, EveryKeyLandsInItsPartition) {
  const int bits = GetParam();
  const size_t n = 8192;
  auto keys = storage::DataGen::UniformInt(n, 0, 1 << 20, 11);
  // Ownership: RadixOf assigns each key exactly one partition, stable
  // across calls and consistent under pass composition.
  for (size_t i = 0; i < n; ++i) {
    const uint32_t p = RadixOf(keys[i], 0, bits);
    ASSERT_LT(p, 1u << bits);
    ASSERT_EQ(p, RadixOf(keys[i], 0, bits));
    if (bits >= 2) {
      const int lo = bits / 2, hi = bits - lo;
      const uint32_t p1 = RadixOf(keys[i], 0, lo);
      const uint32_t p2 = RadixOf(keys[i], lo, hi);
      ASSERT_EQ((p2 << lo) | p1, p);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Bits, PartitionInvariants,
                         ::testing::Values(1, 2, 4, 6, 8, 11, 14));

// ---- simulation sanity across sizes --------------------------------------------

class SimScaling : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SimScaling, NominalScalingPreservesOrdering) {
  // The partitioned GPU join must beat the non-partitioned one at every
  // nominal scale that fits the device (the Fig. 6 dominance property).
  const uint64_t nominal = GetParam() << 20;
  const size_t actual = 1 << 13;
  auto rk = storage::DataGen::UniqueShuffled(actual, 1);
  auto sk = storage::DataGen::UniqueShuffled(actual, 2);
  std::vector<int32_t> r_key(actual), r_pay(actual, 1), s_key(actual),
      s_pay(actual, 2);
  for (size_t i = 0; i < actual; ++i) {
    r_key[i] = static_cast<int32_t>(rk[i]);
    s_key[i] = static_cast<int32_t>(sk[i]);
  }
  JoinInput in{r_key, r_pay, s_key, s_pay, nominal, nominal};
  const auto part = ops::GpuRadixJoin(in, sim::GpuSpec{});
  const auto nopart = ops::GpuNoPartitionJoin(in, sim::GpuSpec{});
  ASSERT_TRUE(part.status.ok());
  ASSERT_TRUE(nopart.status.ok());
  EXPECT_LT(part.seconds, nopart.seconds);
}

INSTANTIATE_TEST_SUITE_P(Sizes, SimScaling,
                         ::testing::Values(4, 8, 16, 32, 64, 128));

// ---- discrete-event determinism -------------------------------------------------

TEST(Determinism, JoinKernelsAreBitwiseRepeatable) {
  std::vector<int32_t> store;
  const size_t n = 1 << 14;
  auto k = storage::DataGen::UniqueShuffled(n, 5);
  std::vector<int32_t> r_key(n), r_pay(n, 1), s_key(n), s_pay(n, 2);
  for (size_t i = 0; i < n; ++i) {
    r_key[i] = static_cast<int32_t>(k[i]);
    s_key[i] = static_cast<int32_t>(k[(i + 1) % n]);
  }
  JoinInput in{r_key, r_pay, s_key, s_pay, 64ull << 20, 64ull << 20};
  const auto a = ops::GpuRadixJoin(in, sim::GpuSpec{});
  const auto b = ops::GpuRadixJoin(in, sim::GpuSpec{});
  EXPECT_EQ(a.matches, b.matches);
  EXPECT_EQ(a.seconds, b.seconds);  // bit-identical simulated time
}

TEST(Determinism, CoprocIsRepeatableAfterTopologyReset) {
  std::vector<int32_t> r_key{1, 2, 3}, r_pay{1, 1, 1}, s_key{3, 2, 9},
      s_pay{5, 5, 5};
  JoinInput in{r_key, r_pay, s_key, s_pay, 512ull << 20, 512ull << 20};
  sim::Topology topo = sim::Topology::PaperServer();
  const auto a = coproc::CoprocRadixJoin(in, &topo, 2);
  topo.Reset();
  const auto b = coproc::CoprocRadixJoin(in, &topo, 2);
  EXPECT_EQ(a.seconds, b.seconds);
  EXPECT_EQ(a.matches, b.matches);
}

// ---- vectorized-vs-scalar data-plane differentials --------------------------
//
// Property: every batch kernel of the vectorized data plane is bit-
// identical to the scalar per-row reference it replaces — same selected
// rows, same probe pairs, same visit counts, same group slots — across
// randomized sizes (vector remainder lanes included), key skews, and
// duplicate densities.

struct PlaneWorkload {
  size_t rows;
  size_t key_domain;
  double zipf_theta;
  uint64_t seed;
};

class DataPlaneEquivalence : public ::testing::TestWithParam<PlaneWorkload> {
 protected:
  std::vector<int64_t> Keys(const PlaneWorkload& w, uint64_t salt) const {
    using storage::DataGen;
    const auto k =
        w.zipf_theta > 0
            ? DataGen::Zipf(w.rows, w.key_domain, w.zipf_theta, w.seed + salt)
            : DataGen::UniformInt(w.rows, 0, w.key_domain - 1, w.seed + salt);
    return {k.begin(), k.end()};
  }
};

TEST_P(DataPlaneEquivalence, BulkProbeMatchesScalarChainWalk) {
  const PlaneWorkload w = GetParam();
  const std::vector<int64_t> build = Keys(w, 0);
  const std::vector<int64_t> probe = Keys(w, 1);

  const ops::ChainedHashTable ht(build.size(), build);

  std::vector<uint64_t> hashes(probe.size());
  codegen::kernels::HashKeys(probe.data(), probe.size(), hashes.data());
  std::vector<uint32_t> pr, br;
  const uint64_t visits = codegen::kernels::ProbeBulk(
      ht, probe.data(), hashes.data(), probe.size(), &pr, &br);

  std::vector<uint32_t> want_pr, want_br;
  uint64_t want_visits = 0;
  for (size_t i = 0; i < probe.size(); ++i) {
    want_visits += ht.ForEachMatch(probe[i], [&](uint32_t row) {
      want_pr.push_back(static_cast<uint32_t>(i));
      want_br.push_back(row);
    });
  }
  EXPECT_EQ(visits, want_visits);  // traffic models charge per visit
  EXPECT_EQ(pr, want_pr);
  EXPECT_EQ(br, want_br);
}

// Both data planes build the same table: the scalar build hashes each key
// itself, BuildBulk fills from bucket ids with prefetching.
TEST_P(DataPlaneEquivalence, BulkBuildMatchesPerRowInsert) {
  const PlaneWorkload w = GetParam();
  const std::vector<int64_t> keys = Keys(w, 2);

  const ops::ChainedHashTable scalar_ht(keys.size(), keys);
  const ops::ChainedHashTable bulk_ht =
      codegen::kernels::BuildBulk(keys.size(), keys.data(), keys.size());

  ASSERT_EQ(bulk_ht.num_buckets(), scalar_ht.num_buckets());
  EXPECT_TRUE(std::ranges::equal(bulk_ht.offsets(), scalar_ht.offsets()));
  EXPECT_TRUE(std::ranges::equal(bulk_ht.slots(), scalar_ht.slots()));
}

TEST_P(DataPlaneEquivalence, GroupedAccumulateMatchesOrderedMap) {
  const PlaneWorkload w = GetParam();
  const std::vector<int64_t> keys = Keys(w, 3);

  // Vectorized plane: first-seen dense slots + flat accumulators.
  codegen::kernels::GroupIndex index;
  std::vector<double> accs;
  for (size_t i = 0; i < keys.size(); ++i) {
    const uint32_t slot = index.SlotOf(keys[i]);
    if (slot == accs.size()) accs.push_back(0.0);
    accs[slot] += static_cast<double>(i % 1009);
  }
  // Scalar reference: ordered map, same update order per key.
  std::map<int64_t, double> ref;
  for (size_t i = 0; i < keys.size(); ++i) {
    ref[keys[i]] += static_cast<double>(i % 1009);
  }
  ASSERT_EQ(index.num_groups(), ref.size());
  for (size_t s = 0; s < index.num_groups(); ++s) {
    const auto it = ref.find(index.keys()[s]);
    ASSERT_NE(it, ref.end());
    // Bit-identical, not just close: both planes apply the same updates to
    // each group cell in the same ascending row order.
    EXPECT_EQ(accs[s], it->second) << "group " << index.keys()[s];
  }
}

TEST_P(DataPlaneEquivalence, SelectCmpMatchesScalarPredicate) {
  const PlaneWorkload w = GetParam();
  const std::vector<int64_t> keys = Keys(w, 4);
  const double lit = static_cast<double>(w.key_domain) / 2.0 + 0.5;
  std::vector<uint32_t> got(keys.size());
  const size_t m = codegen::kernels::SelectCmpI64(
      keys.data(), codegen::kernels::BinOp::kLe, lit, keys.size(), got.data());
  got.resize(m);
  std::vector<uint32_t> want;
  for (size_t i = 0; i < keys.size(); ++i) {
    if (static_cast<double>(keys[i]) <= lit) {
      want.push_back(static_cast<uint32_t>(i));
    }
  }
  EXPECT_EQ(got, want);
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, DataPlaneEquivalence,
    ::testing::Values(PlaneWorkload{1, 1, 0, 1},          // degenerate
                      PlaneWorkload{1000, 100, 0, 2},     // heavy dups
                      PlaneWorkload{1003, 4096, 0, 3},    // remainder lanes
                      PlaneWorkload{8192, 8192, 0, 4},    // mostly unique
                      PlaneWorkload{5000, 512, 0.75, 5},  // zipf skew
                      PlaneWorkload{4097, 64, 1.1, 6}));  // hot chains

// ---- join table: contiguous buckets against Fig. 3's chains ---------------
//
// Property: the contiguous-bucket table answers every probe exactly as the
// chained table it replaced — a head per bucket, a node per insert, the
// newest insert first — would: same (probe, build) pairs in the same
// order and the same visit counts, through ProbeBulk and ForEachMatch.

/// The chained table as it was: Insert pushes a node on its bucket's
/// chain; a walk visits every node of the chain.
class ReferenceChainedTable {
 public:
  explicit ReferenceChainedTable(size_t buckets)
      : log_buckets_(Log2Floor(NextPow2(buckets))),
        heads_(NextPow2(buckets), -1) {}

  void Insert(int64_t key, uint32_t row) {
    const uint32_t b = BucketOf(static_cast<uint64_t>(key), log_buckets_);
    keys_.push_back(key);
    rows_.push_back(row);
    next_.push_back(heads_[b]);
    heads_[b] = static_cast<int32_t>(keys_.size() - 1);
  }

  template <typename Fn>
  uint64_t ForEachMatch(int64_t key, Fn&& fn) const {
    uint64_t visits = 0;
    const uint32_t b = BucketOf(static_cast<uint64_t>(key), log_buckets_);
    for (int32_t e = heads_[b]; e >= 0; e = next_[e]) {
      ++visits;
      if (keys_[e] == key) fn(rows_[e]);
    }
    return visits;
  }

 private:
  uint32_t log_buckets_;
  std::vector<int32_t> heads_;
  std::vector<int64_t> keys_;
  std::vector<uint32_t> rows_;
  std::vector<int32_t> next_;
};

struct KeySet {
  const char* name;
  size_t buckets;
  std::vector<int64_t> build;
  std::vector<int64_t> probe;
};

std::vector<KeySet> JoinKeySets() {
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  std::mt19937_64 rng(97);
  const auto uniform = [&](size_t n, int64_t lo, int64_t hi) {
    std::vector<int64_t> v(n);
    for (auto& k : v) {
      k = std::uniform_int_distribution<int64_t>(lo, hi)(rng);
    }
    return v;
  };
  std::vector<KeySet> sets;
  sets.push_back({"duplicates and misses", 512, uniform(700, 0, 299),
                  uniform(1001, 0, 399)});
  sets.push_back({"unique", 4096, uniform(3000, 0, 1 << 30),
                  uniform(2000, 0, 1 << 30)});
  sets.push_back({"every key missing", 256, uniform(300, 0, 99),
                  uniform(500, 1000, 1999)});
  sets.push_back({"empty build", 16, {}, uniform(100, 0, 9)});
  sets.push_back({"empty probe", 16, uniform(100, 0, 9), {}});
  // One bucket holding every key, a few of them more than a staging
  // buffer's worth of times (ProbeBulk spills mid-bucket).
  sets.push_back({"one bucket", 1, uniform(7000, 0, 2), uniform(40, 0, 4)});
  std::vector<int64_t> extremes = {kMin, kMax, 0, -1, kMin, kMax, kMin + 1,
                                   kMax - 1};
  sets.push_back({"extreme keys", 8, extremes,
                  {kMax, kMin, 1, kMin + 1, 0, kMax - 1, -1, kMin, 2}});
  return sets;
}

TEST(JoinTable, ProbesMatchTheChainedTable) {
  for (const KeySet& set : JoinKeySets()) {
    SCOPED_TRACE(set.name);
    ReferenceChainedTable ref(set.buckets);
    for (size_t r = 0; r < set.build.size(); ++r) {
      ref.Insert(set.build[r], static_cast<uint32_t>(r));
    }
    const ops::ChainedHashTable ht(set.buckets, set.build);
    ASSERT_EQ(ht.size(), set.build.size());

    std::vector<uint32_t> want_pr, want_br, walk_pr, walk_br;
    uint64_t want_visits = 0, walk_visits = 0;
    for (size_t i = 0; i < set.probe.size(); ++i) {
      const auto row = static_cast<uint32_t>(i);
      want_visits += ref.ForEachMatch(set.probe[i], [&](uint32_t r) {
        want_pr.push_back(row);
        want_br.push_back(r);
      });
      walk_visits += ht.ForEachMatch(set.probe[i], [&](uint32_t r) {
        walk_pr.push_back(row);
        walk_br.push_back(r);
      });
    }
    EXPECT_EQ(walk_visits, want_visits);
    EXPECT_EQ(walk_pr, want_pr);
    EXPECT_EQ(walk_br, want_br);

    std::vector<uint64_t> hashes(set.probe.size());
    codegen::kernels::HashKeys(set.probe.data(), set.probe.size(),
                               hashes.data());
    std::vector<uint32_t> pr, br;
    const uint64_t visits = codegen::kernels::ProbeBulk(
        ht, set.probe.data(), hashes.data(), set.probe.size(), &pr, &br);
    EXPECT_EQ(visits, want_visits);
    EXPECT_EQ(pr, want_pr);
    EXPECT_EQ(br, want_br);
  }
}

// ---- expressions: the vectorized plane against the scalar one -------------
//
// Property: over generated expression trees — literals on the left, the
// right or both sides of a node; dense and selected i32/i64/f64 columns
// holding NaN, ±0 and ±inf; nested And/Or/Not — the vectorized plane's
// Doubles equal the scalar plane's bit for bit, and its SelectedRows (which
// narrows conjunctions) are exactly the rows whose scalar value is nonzero.

using expr::Expr;
using expr::ExprKind;
using expr::ExprPtr;

class ExprGen {
 public:
  explicit ExprGen(uint64_t seed) : rng_(seed) {}

  /// A packet of rows over dense columns 0-2 (i32, i64, f64) and columns
  /// 3-5 of the same types read through one shared selection.
  memory::Batch Packet() {
    memory::Batch b;
    b.rows = Int(1, 300);
    const size_t owned = b.rows + Int(0, 50);
    for (size_t n : {b.rows, owned}) {
      b.columns.push_back(Ints32(n));
      b.columns.push_back(Ints64(n));
      b.columns.push_back(Doubles(n));
    }
    auto sel = std::make_shared<memory::Selection>(b.rows);
    for (auto& r : *sel) r = static_cast<uint32_t>(Int(0, owned - 1));
    b.selections = {nullptr, nullptr, nullptr, sel, sel, sel};
    return b;
  }

  ExprPtr Tree(int depth) {
    if (depth == 0 || Int(0, 3) == 0) return Leaf();
    switch (Int(0, 5)) {
      case 0: {
        constexpr ExprKind kArith[] = {ExprKind::kAdd, ExprKind::kSub,
                                       ExprKind::kMul, ExprKind::kDiv};
        return Expr::Binary(kArith[Int(0, 3)], Tree(depth - 1),
                            Tree(depth - 1));
      }
      case 1: {
        constexpr ExprKind kCmp[] = {ExprKind::kEq, ExprKind::kNe,
                                     ExprKind::kLt, ExprKind::kLe,
                                     ExprKind::kGt, ExprKind::kGe};
        return Expr::Binary(kCmp[Int(0, 5)], Tree(depth - 1),
                            Tree(depth - 1));
      }
      case 2:
        return Expr::Binary(Coin() ? ExprKind::kAnd : ExprKind::kOr,
                            Tree(depth - 1), Tree(depth - 1));
      case 3:
        return Expr::Not(Tree(depth - 1));
      case 4: {  // a literal on one side or both
        const int side = Int(0, 2);
        return Expr::Binary(
            ExprKind::kMul, side == 1 ? Tree(depth - 1) : Literal(),
            side == 0 ? Tree(depth - 1) : Literal());
      }
      default: {  // a fused `col <cmp> literal` conjunct
        ExprPtr cmp = Expr::Binary(Coin() ? ExprKind::kGe : ExprKind::kNe,
                                   Expr::Col(Int(0, 5)), Literal());
        return Expr::And(std::move(cmp), Tree(depth - 1));
      }
    }
  }

 private:
  int Int(int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng_);
  }
  bool Coin() { return Int(0, 1) == 1; }
  double AnyDouble() {
    constexpr double kInf = std::numeric_limits<double>::infinity();
    const double special[] = {std::nan(""), 0.0, -0.0, kInf, -kInf};
    if (Int(0, 4) == 0) return special[Int(0, 4)];
    return Int(-8, 8) * 0.5;
  }
  ExprPtr Literal() {
    return Coin() ? Expr::Int(Int(-3, 3)) : Expr::Double(AnyDouble());
  }
  ExprPtr Leaf() { return Int(0, 2) == 0 ? Literal() : Expr::Col(Int(0, 5)); }
  storage::ColumnPtr Ints32(size_t n) {
    std::vector<int32_t> v(n);
    for (auto& x : v) x = Int(-3, 3);
    return std::make_shared<storage::Column>(std::move(v));
  }
  storage::ColumnPtr Ints64(size_t n) {
    std::vector<int64_t> v(n);
    for (auto& x : v) x = Int(-3, 3);
    return std::make_shared<storage::Column>(std::move(v));
  }
  storage::ColumnPtr Doubles(size_t n) {
    std::vector<double> v(n);
    for (auto& x : v) x = AnyDouble();
    return std::make_shared<storage::Column>(std::move(v));
  }

  std::mt19937_64 rng_;
};

TEST(ExprPlanes, VectorizedEvaluationMatchesScalarPlane) {
  const codegen::DataPlaneConfig saved = codegen::DataPlane();
  for (uint64_t seed = 1; seed <= 400; ++seed) {
    ExprGen gen(seed);
    const memory::Batch b = gen.Packet();
    const ExprPtr e = gen.Tree(4);
    SCOPED_TRACE("seed " + std::to_string(seed) + ": " + e->ToString());

    codegen::SetDataPlane({codegen::KernelMode::kScalar, 1});
    const std::vector<double> scalar = expr::Eval::Doubles(*e, b);
    codegen::SetDataPlane({codegen::KernelMode::kVectorized, 1});
    const std::vector<double> vec = expr::Eval::Doubles(*e, b);
    ASSERT_EQ(vec.size(), scalar.size());
    for (size_t i = 0; i < b.rows; ++i) {
      ASSERT_EQ(std::bit_cast<uint64_t>(vec[i]),
                std::bit_cast<uint64_t>(scalar[i]))
          << "row " << i << ": " << vec[i] << " vs " << scalar[i];
    }

    std::vector<uint32_t> want;
    for (size_t i = 0; i < b.rows; ++i) {
      if (expr::Eval::ScalarDouble(*e, b, i) != 0) {
        want.push_back(static_cast<uint32_t>(i));
      }
    }
    ASSERT_EQ(expr::Eval::SelectedRows(*e, b), want);
  }
  codegen::SetDataPlane(saved);
}

// ---- late materialization: stage chains against an eager gather -----------
//
// Property: filters and probes that narrow packets by composing selections
// (memory::SelectRows), and sinks that gather only the columns they store,
// give byte-identical sink results and equal traffic to an eager reference
// that gathers every column after every filter and probe (the data plane
// before selections), on both data planes. Packets are views of generated
// i32/i64/f64 columns holding NaN, ±0 and ±inf; chains mix every predicate
// shape, projections, and probes of unique (each row matches once, in
// order), duplicate, partly missing and all-missing build keys.

using engine::JoinState;
using engine::JoinStatePtr;
using engine::Stage;

constexpr int kKeys = 48;  // integer columns hold keys in [-8, kKeys)

enum class StepKind { kFilter, kProject, kProbe };

/// One operation of a generated chain.
struct Step {
  StepKind kind;
  ExprPtr expr;                // filter predicate or probe key
  std::vector<ExprPtr> exprs;  // projection
  JoinStatePtr state;          // probed table
};

Stage LateStage(const Step& s) {
  switch (s.kind) {
    case StepKind::kFilter:
      return engine::FilterStage(s.expr);
    case StepKind::kProject:
      return engine::ProjectStage(s.exprs);
    case StepKind::kProbe:
      return engine::ProbeStage(s.state, s.expr);
  }
  return nullptr;
}

/// The reference: the engine's stage charges the traffic (on a copy of the
/// dense packet, whose output is dropped); a filter or probe then gathers
/// every column of the packet itself, as the data plane did before
/// selections, and a probe gathers the payload it appends.
Stage EagerStage(const Step& s) {
  if (s.kind == StepKind::kProject) return LateStage(s);
  return [s, charge = LateStage(s)](memory::Batch* b, sim::TrafficStats* t,
                                    const codegen::Backend& backend) {
    memory::Batch copy = *b;
    charge(&copy, t, backend);
    std::vector<uint32_t> rows;
    std::vector<uint32_t> build_rows;
    if (s.kind == StepKind::kFilter) {
      rows = expr::Eval::SelectedRows(*s.expr, *b);
    } else {
      const std::vector<int64_t> keys = expr::Eval::Ints(*s.expr, *b);
      for (size_t i = 0; i < b->rows; ++i) {
        s.state->ht.ForEachMatch(keys[i], [&](uint32_t r) {
          rows.push_back(static_cast<uint32_t>(i));
          build_rows.push_back(r);
        });
      }
    }
    ASSERT_TRUE(b->selections.empty());
    for (auto& c : b->columns) c = memory::Take(*c, rows);
    b->rows = rows.size();
    if (s.kind == StepKind::kProbe) {
      for (const auto& c : s.state->payload.columns) {
        b->columns.push_back(memory::Take(*c, build_rows));
      }
    }
  };
}

template <typename T>
void Put(std::string* out, const T& v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof v);
}

/// The type and value bytes of a dense column of `rows` rows.
void PutColumn(std::string* out, const storage::Column& c, size_t rows) {
  EXPECT_EQ(c.size(), rows) << "a stored column is not dense";
  Put(out, static_cast<int>(c.type()));
  Put(out, rows);
  out->append(static_cast<const char*>(c.raw_data()),
              rows * storage::TypeSize(c.type()));
}

void PutBatches(std::string* out, const std::vector<memory::Batch>& bs) {
  for (const memory::Batch& b : bs) {
    EXPECT_TRUE(b.selections.empty()) << "a collected packet kept selections";
    Put(out, b.num_columns());
    for (const auto& c : b.columns) PutColumn(out, *c, b.rows);
  }
}

/// Every field of a pipeline run that the cost model and the caller read.
std::string StatsBytes(const engine::ExecStats& s) {
  std::string out;
  const sim::TrafficStats& t = s.traffic;
  for (uint64_t v : {t.dram_seq_read_bytes, t.dram_seq_write_bytes,
                     t.dram_rand_accesses, t.scratchpad_accesses,
                     t.l1_line_accesses, t.tuple_ops, t.atomics, s.packets,
                     s.rows_in, s.rows_out, s.mem_moves, s.moved_bytes}) {
    Put(&out, v);
  }
  for (double v : {t.write_coalescing, t.l1_miss_rate, s.start, s.finish,
                   s.transfer_busy_s, s.transfer_exposed_s}) {
    Put(&out, v);
  }
  return out;
}

struct ColKind {
  storage::DataType type;
  bool integral;  // finite integers of small magnitude: usable as a key
};

enum class SinkKind { kCollect, kBuildThenProbe, kAggregate };

/// One generated chain: a table, the stages over its packets and a sink.
struct StageChain {
  std::vector<storage::ColumnPtr> table;
  size_t rows = 0;
  size_t chunk_rows = 1;
  std::vector<Step> steps;
  std::vector<ColKind> layout;  // the packet layout after every step
  bool vector_at_a_time = false;
  bool operator_at_a_time = false;
  double scale = 1;
  int devices = 0;  // 0 CPUs, 1 GPUs, 2 both
  SinkKind sink = SinkKind::kCollect;
  ExprPtr key;                       // build or group key (may be null)
  std::vector<int> payload;          // build payload columns
  std::vector<engine::AggDef> aggs;  // aggregate
  std::vector<storage::ColumnPtr> probe_table;  // probes the chain's build
};

class ChainGen {
 public:
  explicit ChainGen(uint64_t seed) : rng_(seed) {}

  StageChain Make() {
    StageChain c;
    c.rows = Int(0, 700);
    // Packets of a few rows make probes whose matches keep the row count
    // without matching each row once, in order.
    c.chunk_rows = Coin() ? Int(1, 4) : Int(5, 256);
    const int cols = Int(2, 4);
    for (int i = 0; i < cols; ++i) {
      const auto t = Type();
      c.table.push_back(Column(t, c.rows));
      c.layout.push_back({t, t != storage::DataType::kFloat64});
    }
    const int steps = Int(1, 6);
    for (int i = 0; i < steps; ++i) {
      const int op = Int(0, 4);
      if (op >= 3 && !Keys(c.layout).empty()) {
        c.steps.push_back(Probe(&c.layout));
      } else if (op == 2) {
        c.steps.push_back(Project(&c.layout));
      } else {
        c.steps.push_back({StepKind::kFilter,
                           Predicate(c.layout), {}, nullptr});
      }
    }
    const int model = Int(0, 3);
    c.vector_at_a_time = model == 1;
    c.operator_at_a_time = model == 2;
    c.scale = Coin() ? 1.0 : 250.0;
    c.devices = Int(0, 2);
    c.sink = static_cast<SinkKind>(Int(0, 2));
    const std::vector<int> keys = Keys(c.layout);
    if (c.sink == SinkKind::kBuildThenProbe) {
      if (keys.empty()) {
        c.sink = SinkKind::kCollect;
      } else {
        c.key = Expr::Col(Pick(keys));
        for (int i = 0; i < static_cast<int>(c.layout.size()); ++i) {
          if (Coin()) c.payload.push_back(i);
        }
        const size_t probe_rows = Int(1, 300);
        c.probe_table = {Column(storage::DataType::kInt64, probe_rows),
                         Column(storage::DataType::kFloat64, probe_rows)};
      }
    }
    if (c.sink == SinkKind::kAggregate) {
      if (!keys.empty() && Coin()) {
        c.key = Expr::Col(Pick(keys));
      }
      const int aggs = Int(1, 3);
      for (int i = 0; i < aggs; ++i) {
        const auto op = static_cast<engine::AggOp>(Int(0, 3));
        c.aggs.push_back({op, op == engine::AggOp::kCount
                                  ? nullptr
                                  : Expr::Col(AnyColumn(c.layout))});
      }
    }
    return c;
  }

 private:
  int Int(int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng_);
  }
  bool Coin() { return Int(0, 1) == 1; }
  storage::DataType Type() { return static_cast<storage::DataType>(Int(0, 2)); }

  double AnyDouble() {
    constexpr double kInf = std::numeric_limits<double>::infinity();
    const double special[] = {std::nan(""), 0.0, -0.0, kInf, -kInf};
    if (Int(0, 6) == 0) return special[Int(0, 4)];
    return Int(-2 * kKeys, 2 * kKeys) * 0.5;
  }

  storage::ColumnPtr Column(storage::DataType t, size_t n) {
    switch (t) {
      case storage::DataType::kInt32: {
        std::vector<int32_t> v(n);
        for (auto& x : v) x = Int(-8, kKeys - 1);
        return std::make_shared<storage::Column>(std::move(v));
      }
      case storage::DataType::kInt64: {
        std::vector<int64_t> v(n);
        for (auto& x : v) x = Int(-8, kKeys - 1);
        return std::make_shared<storage::Column>(std::move(v));
      }
      case storage::DataType::kFloat64: {
        std::vector<double> v(n);
        for (auto& x : v) x = AnyDouble();
        return std::make_shared<storage::Column>(std::move(v));
      }
    }
    return nullptr;
  }

  static std::vector<int> Keys(const std::vector<ColKind>& layout) {
    std::vector<int> keys;
    for (int i = 0; i < static_cast<int>(layout.size()); ++i) {
      if (layout[i].integral) keys.push_back(i);
    }
    return keys;
  }
  int Pick(const std::vector<int>& v) {
    return v[Int(0, static_cast<int>(v.size()) - 1)];
  }
  int AnyColumn(const std::vector<ColKind>& layout) {
    return Int(0, static_cast<int>(layout.size()) - 1);
  }

  ExprPtr Literal() {
    return Coin() ? Expr::Int(Int(-2, kKeys + 2)) : Expr::Double(AnyDouble());
  }
  ExprPtr Compare(ExprPtr l, ExprPtr r) {
    constexpr ExprKind kCmp[] = {ExprKind::kEq, ExprKind::kNe, ExprKind::kLt,
                                 ExprKind::kLe, ExprKind::kGt, ExprKind::kGe};
    return Expr::Binary(kCmp[Int(0, 5)], std::move(l), std::move(r));
  }
  /// `col <cmp> literal` in either operand order: the fused select.
  ExprPtr ColumnCompare(const std::vector<ColKind>& layout) {
    ExprPtr col = Expr::Col(AnyColumn(layout));
    return Coin() ? Compare(col, Literal()) : Compare(Literal(), col);
  }
  ExprPtr Predicate(const std::vector<ColKind>& layout) {
    switch (Int(0, 4)) {
      case 0:
      case 1:
        return ColumnCompare(layout);
      case 2:
        return Expr::Binary(Coin() ? ExprKind::kAnd : ExprKind::kOr,
                            ColumnCompare(layout), ColumnCompare(layout));
      case 3:
        return Expr::Not(ColumnCompare(layout));
      default:
        return Compare(Expr::Add(Expr::Col(AnyColumn(layout)),
                                 Expr::Col(AnyColumn(layout))),
                       Literal());
    }
  }

  Step Project(std::vector<ColKind>* layout) {
    std::vector<ExprPtr> exprs;
    std::vector<ColKind> out;
    const int n = Int(1, 4);
    for (int i = 0; i < n; ++i) {
      const int a = AnyColumn(*layout);
      const int b = AnyColumn(*layout);
      switch (Int(0, 3)) {
        case 0:
        case 1:
          exprs.push_back(Expr::Col(a));
          out.push_back({storage::DataType::kFloat64, (*layout)[a].integral});
          break;
        case 2:  // integral inputs at most double: keys stay small
          exprs.push_back(Expr::Add(Expr::Col(a), Expr::Col(b)));
          out.push_back({storage::DataType::kFloat64,
                         (*layout)[a].integral && (*layout)[b].integral});
          break;
        default:
          exprs.push_back(Expr::Mul(Expr::Col(a), Expr::Double(AnyDouble())));
          out.push_back({storage::DataType::kFloat64, false});
          break;
      }
    }
    *layout = std::move(out);
    return {StepKind::kProject, nullptr, std::move(exprs),
            nullptr};
  }

  Step Probe(std::vector<ColKind>* layout) {
    const std::vector<int> keys = Keys(*layout);
    const ExprPtr key = Expr::Col(Pick(keys));
    std::vector<int64_t> build;
    switch (Int(0, 2)) {
      case 0:  // unique, covering [0, kKeys): rows with such keys match once
        build.resize(kKeys);
        std::iota(build.begin(), build.end(), 0);
        std::shuffle(build.begin(), build.end(), rng_);
        break;
      case 1:  // duplicates, and some keys missing
        for (int i = Int(1, 2 * kKeys); i > 0; --i) {
          build.push_back(Int(0, kKeys + 8));
        }
        break;
      default:  // no probe key matches
        for (int i = Int(1, kKeys); i > 0; --i) {
          build.push_back(Int(10 * kKeys, 11 * kKeys));
        }
        break;
    }
    auto state = std::make_shared<JoinState>(build.size());
    state->ht = ops::ChainedHashTable(build.size(), build);
    for (int i = Int(0, 2); i > 0; --i) {
      const auto t = Type();
      state->payload.columns.push_back(Column(t, build.size()));
      layout->push_back({t, t != storage::DataType::kFloat64});
    }
    state->payload.rows = build.size();
    state->nominal_rows = Coin() ? build.size() : 100'000'000;
    state->hardware_conscious = Coin();
    return {StepKind::kProbe, key, {}, state};
  }

  std::mt19937_64 rng_;
};

/// Run `c` on the current data plane, late or eager; returns the sink's
/// result bytes followed by every pipeline's stats bytes.
std::string RunChain(const StageChain& c, bool eager) {
  sim::Topology topo = sim::Topology::PaperServer();
  engine::Executor ex(&topo);
  std::vector<int> devices = c.devices == 1 ? topo.GpuDeviceIds()
                                            : topo.CpuDeviceIds();
  if (c.devices == 2) {
    for (int g : topo.GpuDeviceIds()) devices.push_back(g);
  }
  engine::Pipeline p;
  p.inputs = memory::ChunkColumns(c.table, c.rows, c.chunk_rows, 0);
  p.scale = c.scale;
  p.vector_at_a_time = c.vector_at_a_time;
  p.operator_at_a_time = c.operator_at_a_time;
  for (const Step& s : c.steps) {
    p.stages.push_back(eager ? EagerStage(s) : LateStage(s));
  }
  std::string out;
  auto batches = std::make_shared<std::vector<memory::Batch>>();
  auto groups = std::make_shared<engine::AggGroups>();
  auto built = std::make_shared<JoinState>(c.rows);
  switch (c.sink) {
    case SinkKind::kCollect:
      p.sink = std::make_unique<engine::CollectSink>(batches);
      break;
    case SinkKind::kBuildThenProbe:
      p.sink = std::make_unique<engine::BuildSink>(built, c.key, c.payload);
      break;
    case SinkKind::kAggregate:
      p.sink = std::make_unique<engine::HashAggSink>(c.key, c.aggs, groups);
      break;
  }
  const std::string stats = StatsBytes(ex.Run(&p, devices));
  PutBatches(&out, *batches);
  for (const auto& [k, vals] : *groups) {
    Put(&out, k);
    for (double v : vals) Put(&out, v);
  }
  if (c.sink == SinkKind::kBuildThenProbe) {
    for (const auto& col : built->payload.columns) {
      PutColumn(&out, *col, built->payload.rows);
    }
    for (uint32_t v : built->ht.offsets()) Put(&out, v);
    for (const ops::ChainedHashTable::Slot& v : built->ht.slots()) {
      Put(&out, v.key);
      Put(&out, v.row);
    }
    built->nominal_rows = built->payload.rows;
    engine::Pipeline probe;
    probe.inputs = memory::ChunkColumns(c.probe_table,
                                        c.probe_table[0]->size(), 64, 0);
    probe.stages.push_back(engine::ProbeStage(built, Expr::Col(0)));
    auto probed = std::make_shared<std::vector<memory::Batch>>();
    probe.sink = std::make_unique<engine::CollectSink>(probed);
    out += StatsBytes(ex.Run(&probe, devices));
    PutBatches(&out, *probed);
  }
  return out + stats;
}

class StageChains : public ::testing::TestWithParam<uint64_t> {};

TEST_P(StageChains, LateMaterializationMatchesEagerGather) {
  const StageChain c = ChainGen(GetParam()).Make();
  const codegen::DataPlaneConfig saved = codegen::DataPlane();
  std::string first_plane;
  for (const auto mode :
       {codegen::KernelMode::kScalar, codegen::KernelMode::kVectorized}) {
    codegen::SetDataPlane({mode, saved.packet_threads});
    const std::string late = RunChain(c, /*eager=*/false);
    const std::string eager = RunChain(c, /*eager=*/true);
    EXPECT_EQ(late, eager) << "seed " << GetParam() << ", "
                           << (mode == codegen::KernelMode::kScalar
                                   ? "scalar"
                                   : "vectorized")
                           << " plane";
    if (first_plane.empty()) {
      first_plane = late;
    } else {
      EXPECT_EQ(late, first_plane) << "seed " << GetParam()
                                   << ": the data planes disagree";
    }
  }
  codegen::SetDataPlane(saved);
}

INSTANTIATE_TEST_SUITE_P(Seeds, StageChains,
                         ::testing::Range<uint64_t>(1, 41));

}  // namespace
}  // namespace hape
