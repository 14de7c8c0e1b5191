// Vectorized data-plane kernel microbenchmarks: measured scalar-vs-SIMD
// throughput for every kernel class (filter select, murmur hashing,
// chained-table probe/build, grouped accumulate), via
// codegen::CalibrationHarness.
//
// Prints a table and writes BENCH_kernels.json to the working directory:
// per-kernel GB/s + speedup (CI gates the filter and probe speedups at
// >= 1.0 — the SIMD plane must never lose).
//
// These are *wall-clock host* measurements — machine-dependent by design,
// unlike every simulated number elsewhere in the repo. Nothing here feeds
// back into placement or simulated time.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "codegen/calibration.h"
#include "codegen/kernels.h"
#include "common/json.h"
#include "ops/hash_table.h"
#include "storage/datagen.h"

namespace {

using namespace hape;  // NOLINT

struct Row {
  const char* kernel;
  const codegen::KernelRate* rate;
};

void TableAndJson(const codegen::Calibration& cal, size_t rows) {
  const Row rows_out[] = {
      {"filter", &cal.filter}, {"hash", &cal.hash},   {"probe", &cal.probe},
      {"build", &cal.build},   {"agg", &cal.agg},
  };

  std::printf("== Kernel throughput: scalar reference vs dispatched plane "
              "(avx2=%d, %zu rows) ==\n",
              cal.avx2 ? 1 : 0, rows);
  std::printf("%-8s %14s %14s %10s\n", "", "scalar GB/s", "simd GB/s",
              "speedup");
  for (const Row& r : rows_out) {
    std::printf("%-8s %14.3f %14.3f %9.2fx\n", r.kernel,
                r.rate->scalar_gbps, r.rate->simd_gbps, r.rate->speedup());
  }

  JsonWriter w;
  w.BeginObject();
  w.Key("bench");
  w.String("kernels");
  w.Key("avx2");
  w.Bool(cal.avx2);
  w.Key("rows");
  w.Uint(rows);
  w.Key("results");
  w.BeginArray();
  for (const Row& r : rows_out) {
    w.BeginObject();
    w.Key("kernel");
    w.String(r.kernel);
    w.Key("scalar_gbps");
    w.Double(r.rate->scalar_gbps);
    w.Key("simd_gbps");
    w.Double(r.rate->simd_gbps);
    w.Key("speedup");
    w.Double(r.rate->speedup());
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();

  std::ofstream out("BENCH_kernels.json");
  out << w.str() << "\n";
  std::printf("\nwrote BENCH_kernels.json\n\n");
}

// Interactive microbenchmarks (skipped by CI's --benchmark_filter='^$'):
// per-kernel timing through google-benchmark for local profiling runs.

constexpr size_t kRows = 1u << 20;

std::vector<int64_t> BenchKeys(size_t domain) {
  return storage::DataGen::UniformInt(kRows, 0,
                                      static_cast<int64_t>(domain) - 1,
                                      /*seed=*/42);
}

void BM_HashKeys(benchmark::State& state) {
  const std::vector<int64_t> keys = BenchKeys(1 << 20);
  std::vector<uint64_t> out(keys.size());
  for (auto _ : state) {
    codegen::kernels::HashKeys(keys.data(), keys.size(), out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(state.iterations() * keys.size() * 8);
}
BENCHMARK(BM_HashKeys);

void BM_SelectCmpF64(benchmark::State& state) {
  std::vector<double> v(kRows);
  for (size_t i = 0; i < v.size(); ++i) v[i] = static_cast<double>(i % 997);
  std::vector<uint32_t> sel(v.size());
  for (auto _ : state) {
    const size_t m = codegen::kernels::SelectCmpF64(
        v.data(), codegen::kernels::BinOp::kGe, 500.0, v.size(), sel.data());
    benchmark::DoNotOptimize(m);
  }
  state.SetBytesProcessed(state.iterations() * v.size() * 8);
}
BENCHMARK(BM_SelectCmpF64);

void BM_ProbeBulk(benchmark::State& state) {
  const std::vector<int64_t> build = BenchKeys(1 << 18);
  ops::ChainedHashTable ht(build.size());
  for (uint32_t r = 0; r < build.size(); ++r) ht.Insert(build[r], r);
  const std::vector<int64_t> probe = BenchKeys(1 << 19);
  std::vector<uint64_t> hashes(probe.size());
  codegen::kernels::HashKeys(probe.data(), probe.size(), hashes.data());
  std::vector<uint32_t> pr, br;
  for (auto _ : state) {
    pr.clear();
    br.clear();
    const uint64_t visits = codegen::kernels::ProbeBulk(
        ht, probe.data(), hashes.data(), probe.size(), &pr, &br);
    benchmark::DoNotOptimize(visits);
  }
  state.SetBytesProcessed(state.iterations() * probe.size() * 8);
}
BENCHMARK(BM_ProbeBulk);

}  // namespace

int main(int argc, char** argv) {
  codegen::CalibrationHarness::Options opts;
  opts.rows = 1u << 20;
  opts.reps = 5;
  const codegen::Calibration cal =
      codegen::CalibrationHarness::Measure(opts);
  TableAndJson(cal, opts.rows);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
