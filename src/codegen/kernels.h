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
  uint64_t filter_rows = 0;       ///< rows the select kernels read
  uint64_t hashed_keys = 0;       ///< keys hashed by HashKeys
  uint64_t probed_keys = 0;       ///< keys probed by ProbeBulk
  uint64_t bulk_inserts = 0;      ///< entries BuildBulk built tables from
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

/// out[i] = l[i] op r[i]; a scalar operand stands for every row. One
/// operation per call (expression trees issue one kernel per node) so the
/// compiler can never contract a*b+c into an FMA — results stay
/// bit-identical to the scalar reference on any build.
void BinaryOpF64(BinOp op, const double* l, const double* r, size_t n,
                 double* out);
void BinaryOpF64(BinOp op, double l, const double* r, size_t n, double* out);
void BinaryOpF64(BinOp op, const double* l, double r, size_t n, double* out);

// ---- selection vectors -----------------------------------------------------

// The select kernels read n candidate packet rows, cand[0..n) (0..n-1 when
// `cand` is null), write the kept ones to out in order and return their
// count. out must hold n entries whatever the selectivity (the kernels are
// branch-free: every row is stored before it is known to be kept); it may
// be cand.

/// Keeps candidate i when v[i] != 0, NaN included (the scalar `v != 0`).
size_t SelectNonZero(const double* v, size_t n, uint32_t* out,
                     const uint32_t* cand = nullptr);

/// Fused compare+select for the dominant predicate shape
/// `column <op> literal`: no intermediate 0/1 buffer is materialized.
/// Integer inputs are compared *as doubles* to preserve the scalar
/// reference's widening semantics. op must be a comparison. Packet row p
/// reads v[p], or v[rows[p]] when `rows` (a column's selection) is given.
size_t SelectCmpF64(const double* v, BinOp op, double lit, size_t n,
                    uint32_t* out, const uint32_t* rows = nullptr,
                    const uint32_t* cand = nullptr);
size_t SelectCmpI64(const int64_t* v, BinOp op, double lit, size_t n,
                    uint32_t* out, const uint32_t* rows = nullptr,
                    const uint32_t* cand = nullptr);
size_t SelectCmpI32(const int32_t* v, BinOp op, double lit, size_t n,
                    uint32_t* out, const uint32_t* rows = nullptr,
                    const uint32_t* cand = nullptr);

// ---- hashing ---------------------------------------------------------------

/// out[i] = HashMurmur64(keys[i]) — the engine-wide hash family, so one
/// hash vector serves chained-table buckets, agg-table slots and radix
/// partitioning alike.
void HashKeys(const int64_t* keys, size_t n, uint64_t* out);

// ---- chained hash table: bulk probe / bulk build ---------------------------

/// Batch probe: for each key (in ascending i, matches within a bucket in
/// slot order, which is chain order) append matching (probe=i, build=row)
/// pairs. `hashes` must be HashKeys(keys). Each key's offsets and first
/// slot are software-prefetched a fixed distance ahead, and its bucket's
/// slot range scanned with a branch-free emission. Returns the slots
/// visited, equal to summing ChainedHashTable::ForEachMatch.
uint64_t ProbeBulk(const ops::ChainedHashTable& ht, const int64_t* keys,
                   const uint64_t* hashes, size_t n,
                   std::vector<uint32_t>* probe_rows,
                   std::vector<uint32_t>* build_rows);

/// Batch build: the table of keys[i] -> row i over NextPow2(`buckets`)
/// buckets from `hashes` (as in ProbeBulk); identical to the scalar build
/// ChainedHashTable(buckets, keys), which hashes each key itself.
ops::ChainedHashTable BuildBulk(size_t buckets, const int64_t* keys,
                                const uint64_t* hashes, size_t n);

// ---- grouped accumulation --------------------------------------------------

/// Open-addressing key -> dense-slot index for the hash-agg sink's grouped
/// accumulate. Slots are assigned in first-seen order, so slot ids (and the
/// accumulator layout keyed by them) are a pure function of the key
/// sequence, whatever the table size. The table stays at most 1/8 full (at
/// least 64 entries), so a lookup almost always ends at its first probe.
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
