#ifndef HAPE_CODEGEN_CALIBRATION_H_
#define HAPE_CODEGEN_CALIBRATION_H_

#include <cstddef>

/// Measured per-kernel-class throughput on the host, and the harness that
/// produces it (bench_kernels prints and writes it). The numbers are
/// machine-dependent by construction, so nothing in the engine reads them:
/// placement and every simulated cost stay on the nominal model.

namespace hape::codegen {

/// One kernel class: scalar reference vs batch-kernel throughput in GB/s of
/// input column bytes.
struct KernelRate {
  double scalar_gbps = 0;
  double simd_gbps = 0;
  double speedup() const {
    return scalar_gbps > 0 ? simd_gbps / scalar_gbps : 0;
  }
};

struct Calibration {
  KernelRate filter;  ///< fused compare+select over f64 columns
  KernelRate hash;    ///< HashMurmur64 over i64 keys
  KernelRate probe;   ///< join-table probe (prefetched bulk vs per-row)
  KernelRate build;   ///< join-table build (HashKeys + BuildBulk vs per-key
                      ///< hashing)
  KernelRate agg;     ///< grouped accumulate (GroupIndex vs std::map)
};

/// Times each kernel class on synthetic data (deterministic LCG inputs,
/// best-of-`reps` wall-clock) and returns the measured rates. Wall-clock
/// only — nothing here touches simulated time.
class CalibrationHarness {
 public:
  struct Options {
    size_t rows = 1u << 20;  ///< rows per timed batch
    int reps = 5;            ///< best-of repetitions per measurement
  };

  static Calibration Measure();
  static Calibration Measure(const Options& options);
};

}  // namespace hape::codegen

#endif  // HAPE_CODEGEN_CALIBRATION_H_
