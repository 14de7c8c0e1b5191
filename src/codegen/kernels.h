#ifndef HAPE_CODEGEN_KERNELS_H_
#define HAPE_CODEGEN_KERNELS_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "ops/hash_table.h"

/// Batch-at-a-time data-plane kernels — the "generated code" layer of the
/// engine. Everything in here executes real data on the host; simulated
/// time is charged separately by the stages from TrafficStats, so every
/// kernel must be *bit-identical* to the scalar reference path it replaces
/// (same result bytes, same visit counts). Each kernel has one portable
/// implementation (kernels.cc, built at -O3 with no target-specific flags),
/// so every host runs the same code.

namespace hape::codegen {

/// Which data plane executes packets. kScalar is the original per-row
/// reference implementation and remains the differential oracle; kVectorized
/// routes filters, hashing, probes, builds and grouped accumulation through
/// the batch kernels below.
enum class KernelMode { kScalar, kVectorized };

struct DataPlaneConfig {
  KernelMode mode = KernelMode::kVectorized;
  /// Worker threads for parallel packet *transforms* (executor.cc). <= 1
  /// means sequential. Commit order is deterministic either way.
  int packet_threads = 1;
};

/// Process-wide data-plane selection. Defaults honour the environment:
/// HAPE_DATA_PLANE=scalar|vector and HAPE_PACKET_THREADS=N.
const DataPlaneConfig& DataPlane();
void SetDataPlane(const DataPlaneConfig& config);
inline bool VectorizedPlane() {
  return DataPlane().mode == KernelMode::kVectorized;
}

/// True when the host CPU supports AVX2. No kernel depends on it; benchmarks
/// record it with their host environment.
bool Avx2Available();

/// Monotonic process-wide kernel counters, for tests and benchmarks that
/// assert a fast path actually ran.
struct KernelCounterSnapshot {
  uint64_t filter_rows = 0;       ///< rows pushed through select kernels
  uint64_t hashed_keys = 0;       ///< keys hashed by HashKeys
  uint64_t probed_keys = 0;       ///< keys probed by ProbeBulk
  uint64_t bulk_inserts = 0;      ///< entries inserted by BuildBulk
  /// Always 0: no stage hands a sink its keys' hashes. bench/e2e reads
  /// both fields for its `kernels.hash_cache_hit_rate` metric; they retire
  /// with that metric in the next change to the benchmark.
  uint64_t hash_cache_hits = 0;
  uint64_t hash_cache_misses = 0;
  uint64_t parallel_packets = 0;  ///< packets transformed off-thread
};
KernelCounterSnapshot KernelCounters();
void BumpParallelPackets(uint64_t n);

namespace kernels {

/// Binary operator vocabulary of the kernel layer; expr/eval.cc maps
/// ExprKind to this. Comparison results are 1.0/0.0 doubles, matching the
/// scalar ApplyArith semantics (including NaN: ordered compares are false,
/// kNe is true).
enum class BinOp {
  kAdd,
  kSub,
  kMul,
  kDiv,
  kEq,
  kNe,
  kLt,
  kLe,
  kGt,
  kGe,
  kAnd,
  kOr,
};

// ---- elementwise arithmetic ------------------------------------------------

/// out[i] = l[i] op r[i]. One operation per call (expression trees issue one
/// kernel per node) so the compiler can never contract a*b+c into an FMA —
/// results stay bit-identical to the scalar reference on any build.
void BinaryOpF64(BinOp op, const double* l, const double* r, size_t n,
                 double* out);

// ---- selection vectors -----------------------------------------------------

/// Write the indices i with v[i] != 0, ascending, to out and return their
/// count. out must hold n entries whatever the selectivity: the kernel is
/// branch-free and stores every row's index before it knows whether the
/// row is kept. NaN counts as selected, like the scalar `v != 0` test.
size_t SelectNonZero(const double* v, size_t n, uint32_t* out);

/// Fused compare+select for the dominant predicate shape
/// `column <op> literal`: no intermediate 0/1 buffer is materialized.
/// Integer inputs are compared *as doubles* to preserve the scalar
/// reference's widening semantics. op must be a comparison. As in
/// SelectNonZero, out must hold n entries whatever the selectivity. Row i
/// reads v[i], or v[rows[i]] when `rows` (a column's selection) is given.
size_t SelectCmpF64(const double* v, BinOp op, double lit, size_t n,
                    uint32_t* out, const uint32_t* rows = nullptr);
size_t SelectCmpI64(const int64_t* v, BinOp op, double lit, size_t n,
                    uint32_t* out, const uint32_t* rows = nullptr);
size_t SelectCmpI32(const int32_t* v, BinOp op, double lit, size_t n,
                    uint32_t* out, const uint32_t* rows = nullptr);

// ---- hashing ---------------------------------------------------------------

/// out[i] = HashMurmur64(keys[i]) — the engine-wide hash family, so one
/// hash vector serves chained-table buckets, agg-table slots and radix
/// partitioning alike.
void HashKeys(const int64_t* keys, size_t n, uint64_t* out);

// ---- chained hash table: bulk probe / bulk build ---------------------------

/// Batch probe: for each key (in ascending i, matches within a chain in
/// chain order) append matching (probe=i, build=row) pairs. `hashes` must be
/// HashKeys(keys). Buckets are computed up front and chain heads
/// software-prefetched a fixed distance ahead, which is where the speedup
/// over the pointer-chasing scalar loop comes from. Returns total chain
/// nodes visited, bit-identical to summing ChainedHashTable::ForEachMatch.
uint64_t ProbeBulk(const ops::ChainedHashTable& ht, const int64_t* keys,
                   const uint64_t* hashes, size_t n,
                   std::vector<uint32_t>* probe_rows,
                   std::vector<uint32_t>* build_rows);

/// Batch build: insert keys[i] -> base_row + i for all i, reserving up
/// front. `hashes` as in ProbeBulk. Table state is identical to n calls of
/// Insert().
void BuildBulk(ops::ChainedHashTable* ht, const int64_t* keys,
               const uint64_t* hashes, size_t n, uint32_t base_row);

// ---- grouped accumulation --------------------------------------------------

/// Open-addressing key -> dense-slot index for the hash-agg sink's grouped
/// accumulate. Slots are assigned in first-seen order, so slot ids (and the
/// accumulator layout keyed by them) are a pure function of the key
/// sequence — deterministic across runs and machines.
class GroupIndex {
 public:
  explicit GroupIndex(size_t expected_groups = 0);

  /// Dense slot of `key`, inserting a fresh slot if unseen.
  uint32_t SlotOf(int64_t key);

  size_t num_groups() const { return dense_keys_.size(); }
  /// Keys in first-seen (== slot) order.
  const std::vector<int64_t>& keys() const { return dense_keys_; }

 private:
  void Grow();

  std::vector<int64_t> dense_keys_;
  std::vector<int32_t> table_;  // open-addressing: dense index or -1
  uint64_t mask_ = 0;
};

// ---- parallel packet transforms --------------------------------------------

/// Run fn(0..n-1) across `threads` worker threads (inline when threads <= 1
/// or n < 2). Each index must write only to its own slot; completion of all
/// indices is the only ordering guarantee.
void ParallelFor(size_t n, int threads, const std::function<void(size_t)>& fn);

}  // namespace kernels
}  // namespace hape::codegen

#endif  // HAPE_CODEGEN_KERNELS_H_
