// Data-plane kernel microbenchmarks: measured throughput of each batch
// kernel against the per-row scalar reference it replaces (filter select,
// murmur hashing, chained-table probe/build, grouped accumulate), via
// codegen::CalibrationHarness.
//
// Prints a table and writes BENCH_kernels.json to the working directory:
// per-kernel GB/s + speedup. CI floors the filter speedup at 2.0 (a
// branchy select reads ~1x, the branch-free one ~7-9.5x) and the probe
// speedup at 1.0; being host-measured, the program is built but not
// registered with ctest.
//
// These are *wall-clock host* measurements — machine-dependent by design,
// unlike every simulated number elsewhere in the repo. Nothing here feeds
// back into placement or simulated time.

#include <cstdio>
#include <fstream>

#include "codegen/calibration.h"
#include "common/json.h"

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

  std::printf("== Kernel throughput: scalar reference vs batch kernels "
              "(%zu rows) ==\n", rows);
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

}  // namespace

int main() {
  codegen::CalibrationHarness::Options opts;
  opts.rows = 1u << 20;
  opts.reps = 5;
  const codegen::Calibration cal =
      codegen::CalibrationHarness::Measure(opts);
  TableAndJson(cal, opts.rows);
  return 0;
}
