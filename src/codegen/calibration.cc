#include "codegen/calibration.h"

#include <chrono>
#include <cstdint>
#include <map>
#include <vector>

#include "codegen/kernels.h"
#include "common/hash.h"

namespace hape::codegen {

namespace {

/// Best-of-reps wall-clock of fn(), in seconds. `fn` must return a value
/// that depends on the work done (accumulated into a sink) so the compiler
/// can't elide the timed loop.
template <typename Fn>
double BestOf(int reps, uint64_t* sink, Fn&& fn) {
  double best = 1e30;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    *sink += fn();
    const auto t1 = std::chrono::steady_clock::now();
    const double s = std::chrono::duration<double>(t1 - t0).count();
    if (s < best) best = s;
  }
  return best;
}

double Gbps(size_t bytes, double seconds) {
  return seconds > 0 ? static_cast<double>(bytes) / seconds / 1e9 : 0;
}

/// Deterministic synthetic columns (splitmix-style LCG — the harness must
/// not depend on libc rand).
std::vector<int64_t> MakeKeys(size_t n, uint64_t seed, int64_t modulus) {
  std::vector<int64_t> keys(n);
  uint64_t state = seed;
  for (size_t i = 0; i < n; ++i) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    keys[i] = static_cast<int64_t>((state >> 16) % modulus);
  }
  return keys;
}

std::vector<double> MakeDoubles(size_t n, uint64_t seed) {
  std::vector<double> v(n);
  uint64_t state = seed;
  for (size_t i = 0; i < n; ++i) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    v[i] = static_cast<double>(state >> 40);  // [0, 2^24)
  }
  return v;
}

}  // namespace

Calibration CalibrationHarness::Measure() { return Measure(Options()); }

Calibration CalibrationHarness::Measure(const Options& options) {
  const size_t n = options.rows;
  const int reps = options.reps;
  Calibration c;
  uint64_t sink = 0;

  // -- filter: column >= literal, ~50% selectivity -------------------------
  {
    const std::vector<double> col = MakeDoubles(n, 7);
    const double lit = 1u << 23;
    std::vector<uint32_t> sel(n);
    const double scalar_s = BestOf(reps, &sink, [&] {
      // Per-row branchy reference: what the scalar plane's select loop does.
      size_t m = 0;
      for (size_t i = 0; i < n; ++i) {
        if ((col[i] >= lit ? 1.0 : 0.0) != 0) {
          sel[m++] = static_cast<uint32_t>(i);
        }
      }
      return m;
    });
    const double simd_s = BestOf(reps, &sink, [&] {
      return kernels::SelectCmpF64(col.data(), kernels::BinOp::kGe, lit, n,
                                   sel.data());
    });
    c.filter.scalar_gbps = Gbps(n * sizeof(double), scalar_s);
    c.filter.simd_gbps = Gbps(n * sizeof(double), simd_s);
  }

  // -- hash: murmur finalizer over i64 keys --------------------------------
  {
    const std::vector<int64_t> keys = MakeKeys(n, 11, 1 << 30);
    std::vector<uint64_t> hashes(n);
    const double scalar_s = BestOf(reps, &sink, [&] {
      uint64_t acc = 0;
      for (size_t i = 0; i < n; ++i) {
        hashes[i] = HashMurmur64(static_cast<uint64_t>(keys[i]));
        acc ^= hashes[i];
      }
      return acc;
    });
    const double simd_s = BestOf(reps, &sink, [&] {
      kernels::HashKeys(keys.data(), n, hashes.data());
      return hashes[n - 1];
    });
    c.hash.scalar_gbps = Gbps(n * sizeof(int64_t), scalar_s);
    c.hash.simd_gbps = Gbps(n * sizeof(int64_t), simd_s);
  }

  // -- probe: chained table larger than L2, ~1 match per key ---------------
  // The table must not be L2-resident: the bulk kernel's advantage is
  // software prefetching over the random head/entry loads, which only
  // shows up when those loads actually miss.
  {
    const size_t build_n = n / 4;
    const std::vector<int64_t> build_keys =
        MakeKeys(build_n, 13, static_cast<int64_t>(build_n));
    const std::vector<int64_t> probe_keys =
        MakeKeys(n, 17, static_cast<int64_t>(build_n));
    const ops::ChainedHashTable ht(build_n, build_keys);
    std::vector<uint64_t> hashes(n);
    kernels::HashKeys(probe_keys.data(), n, hashes.data());
    std::vector<uint32_t> probe_rows, build_rows;
    const double scalar_s = BestOf(reps, &sink, [&] {
      probe_rows.clear();
      build_rows.clear();
      uint64_t visits = 0;
      for (size_t i = 0; i < n; ++i) {
        visits += ht.ForEachMatch(probe_keys[i], [&](uint32_t row) {
          probe_rows.push_back(static_cast<uint32_t>(i));
          build_rows.push_back(row);
        });
      }
      return visits;
    });
    const double simd_s = BestOf(reps, &sink, [&] {
      probe_rows.clear();
      build_rows.clear();
      return kernels::ProbeBulk(ht, probe_keys.data(), hashes.data(), n,
                                &probe_rows, &build_rows);
    });
    c.probe.scalar_gbps = Gbps(n * sizeof(int64_t), scalar_s);
    c.probe.simd_gbps = Gbps(n * sizeof(int64_t), simd_s);
  }

  // -- build: per-key hashing vs a build from HashKeys' hashes -------------
  {
    const size_t build_n = n / 4;
    const std::vector<int64_t> keys =
        MakeKeys(build_n, 19, static_cast<int64_t>(build_n));
    std::vector<uint64_t> hashes(build_n);
    const double scalar_s = BestOf(reps, &sink, [&] {
      return ops::ChainedHashTable(build_n, keys).size();
    });
    const double simd_s = BestOf(reps, &sink, [&] {
      kernels::HashKeys(keys.data(), build_n, hashes.data());
      return kernels::BuildBulk(build_n, keys.data(), hashes.data(), build_n)
          .size();
    });
    c.build.scalar_gbps = Gbps(build_n * sizeof(int64_t), scalar_s);
    c.build.simd_gbps = Gbps(build_n * sizeof(int64_t), simd_s);
  }

  // -- agg: grouped sum over ~4k groups ------------------------------------
  {
    const std::vector<int64_t> keys = MakeKeys(n, 23, 4096);
    const std::vector<double> vals = MakeDoubles(n, 29);
    const double scalar_s = BestOf(reps, &sink, [&] {
      // The scalar plane's per-row ordered-map accumulate.
      std::map<int64_t, double> groups;
      for (size_t i = 0; i < n; ++i) groups[keys[i]] += vals[i];
      return groups.size();
    });
    const double simd_s = BestOf(reps, &sink, [&] {
      kernels::GroupIndex index(4096);
      std::vector<uint32_t> slots(n);
      for (size_t i = 0; i < n; ++i) slots[i] = index.SlotOf(keys[i]);
      std::vector<double> accs(index.num_groups(), 0.0);
      for (size_t i = 0; i < n; ++i) accs[slots[i]] += vals[i];
      return index.num_groups();
    });
    const size_t bytes = n * (sizeof(int64_t) + sizeof(double));
    c.agg.scalar_gbps = Gbps(bytes, scalar_s);
    c.agg.simd_gbps = Gbps(bytes, simd_s);
  }

  (void)sink;
  return c;
}

}  // namespace hape::codegen
