// Data-plane kernel microbenchmarks: measured throughput of each batch
// kernel against the per-row scalar reference it replaces (filter select,
// murmur hashing, join-table probe and build, grouped accumulate), via
// codegen::CalibrationHarness, and the fused select's cost per row across
// selectivities.
//
// Prints two tables and writes BENCH_kernels.json to the working
// directory: per-kernel GB/s + speedup under "results", and ns per row of
// SelectCmpF64 at 0, 1, 2, 15, 50 and 85% of rows kept under
// "filter_sweep". CI floors the filter speedup at 2.0 (a branchy select
// reads ~1x, the branch-free one ~7-9.5x) and the probe and build
// speedups at 1.0; being host-measured, the program is built but not
// registered with ctest.
//
// These are *wall-clock host* measurements — machine-dependent by design,
// unlike every simulated number elsewhere in the repo. Nothing here feeds
// back into placement or simulated time.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <vector>

#include "codegen/calibration.h"
#include "codegen/kernels.h"
#include "common/json.h"

namespace {

using namespace hape;  // NOLINT

struct Row {
  const char* kernel;
  const codegen::KernelRate* rate;
};

/// The fused select's cost at one share of rows kept.
struct SweepPoint {
  int kept_pct;
  double ns_per_row;
};

/// Best-of-`reps` ns per row of `column < p` over `rows` doubles spread
/// uniformly over [0, 1) in an LCG order, so about p of the rows are kept
/// at positions no branch predictor can learn.
std::vector<SweepPoint> FilterSweep(size_t rows, int reps) {
  std::vector<double> col(rows);
  uint64_t state = 31;
  for (double& x : col) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    x = static_cast<double>(state >> 11) * 0x1p-53;
  }
  std::vector<uint32_t> sel(rows);
  std::vector<SweepPoint> sweep;
  for (int pct : {0, 1, 2, 15, 50, 85}) {
    double best = 1e30;
    for (int r = 0; r < reps; ++r) {
      const auto t0 = std::chrono::steady_clock::now();
      codegen::kernels::SelectCmpF64(col.data(), codegen::kernels::BinOp::kLt,
                                     pct / 100.0, rows, sel.data());
      const auto t1 = std::chrono::steady_clock::now();
      best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
    }
    sweep.push_back({pct, best * 1e9 / static_cast<double>(rows)});
  }
  return sweep;
}

void TableAndJson(const codegen::Calibration& cal,
                  const std::vector<SweepPoint>& sweep, size_t rows) {
  const Row rows_out[] = {
      {"filter", &cal.filter}, {"hash", &cal.hash},   {"probe", &cal.probe},
      {"build", &cal.build},   {"agg", &cal.agg},
  };

  std::printf("== Kernel throughput: scalar reference vs batch kernels "
              "(%zu rows) ==\n", rows);
  std::printf("%-8s %14s %14s %10s\n", "", "scalar GB/s", "simd GB/s",
              "speedup");
  for (const Row& r : rows_out) {
    std::printf("%-8s %14.3f %14.3f %9.2fx\n", r.kernel,
                r.rate->scalar_gbps, r.rate->simd_gbps, r.rate->speedup());
  }

  std::printf("\n== Fused select (SelectCmpF64) by share of rows kept ==\n");
  std::printf("%-8s %14s\n", "kept", "ns/row");
  for (const SweepPoint& p : sweep) {
    std::printf("%7d%% %14.3f\n", p.kept_pct, p.ns_per_row);
  }

  JsonWriter w;
  w.BeginObject();
  w.Key("bench");
  w.String("kernels");
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
  w.Key("filter_sweep");
  w.BeginArray();
  for (const SweepPoint& p : sweep) {
    w.BeginObject();
    w.Key("kept_pct");
    w.Int(p.kept_pct);
    w.Key("ns_per_row");
    w.Double(p.ns_per_row);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();

  std::ofstream out("BENCH_kernels.json");
  out << w.str() << "\n";
  std::printf("\nwrote BENCH_kernels.json\n\n");
}

}  // namespace

int main() {
  codegen::CalibrationHarness::Options opts;
  opts.rows = 1u << 20;
  opts.reps = 5;
  const codegen::Calibration cal =
      codegen::CalibrationHarness::Measure(opts);
  TableAndJson(cal, FilterSweep(opts.rows, opts.reps), opts.rows);
  return 0;
}
