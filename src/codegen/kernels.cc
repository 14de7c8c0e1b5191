#include "codegen/kernels.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "codegen/kernels_internal.h"
#include "common/hash.h"
#include "common/logging.h"

namespace hape::codegen {

namespace {

DataPlaneConfig InitFromEnv() {
  DataPlaneConfig c;
  if (const char* mode = std::getenv("HAPE_DATA_PLANE")) {
    c.mode = std::string(mode) == "scalar" ? KernelMode::kScalar
                                           : KernelMode::kVectorized;
  }
  if (const char* threads = std::getenv("HAPE_PACKET_THREADS")) {
    const int n = std::atoi(threads);
    if (n >= 1) c.packet_threads = n;
  }
  return c;
}

DataPlaneConfig& MutableDataPlane() {
  static DataPlaneConfig config = InitFromEnv();
  return config;
}

// Monotonic relaxed counters: exactness across threads matters (tests
// compare before/after deltas), ordering does not.
struct Counters {
  std::atomic<uint64_t> filter_rows{0};
  std::atomic<uint64_t> hashed_keys{0};
  std::atomic<uint64_t> probed_keys{0};
  std::atomic<uint64_t> bulk_inserts{0};
  std::atomic<uint64_t> parallel_packets{0};
};

Counters& GlobalCounters() {
  static Counters c;
  return c;
}

void Bump(std::atomic<uint64_t>& c, uint64_t n) {
  c.fetch_add(n, std::memory_order_relaxed);
}

}  // namespace

const DataPlaneConfig& DataPlane() { return MutableDataPlane(); }

void SetDataPlane(const DataPlaneConfig& config) {
  MutableDataPlane() = config;
}

bool Avx2Available() {
#if defined(__x86_64__) || defined(__i386__)
  static const bool ok =
      kernels::avx2::kCompiled && __builtin_cpu_supports("avx2");
  return ok;
#else
  return false;
#endif
}

KernelCounterSnapshot KernelCounters() {
  const Counters& c = GlobalCounters();
  KernelCounterSnapshot s;
  s.filter_rows = c.filter_rows.load(std::memory_order_relaxed);
  s.hashed_keys = c.hashed_keys.load(std::memory_order_relaxed);
  s.probed_keys = c.probed_keys.load(std::memory_order_relaxed);
  s.bulk_inserts = c.bulk_inserts.load(std::memory_order_relaxed);
  s.parallel_packets = c.parallel_packets.load(std::memory_order_relaxed);
  return s;
}

void BumpParallelPackets(uint64_t n) {
  Bump(GlobalCounters().parallel_packets, n);
}

namespace kernels {

// ---- portable baselines (autovectorized at -O3) ----------------------------

namespace portable {

size_t SelectNonZero(const double* v, size_t n, uint32_t* out) {
  size_t m = 0;
  for (size_t i = 0; i < n; ++i) {
    if (v[i] != 0) out[m++] = static_cast<uint32_t>(i);
  }
  return m;
}

// One branch-free loop per comparison so the compiler vectorizes the
// compare; the conditional append stays scalar but cheap.
#define HAPE_SELECT_LOOP(cond)                        \
  do {                                                \
    size_t m = 0;                                     \
    for (size_t i = 0; i < n; ++i) {                  \
      if (cond) out[m++] = static_cast<uint32_t>(i);  \
    }                                                 \
    return m;                                         \
  } while (0)

size_t SelectCmpF64(const double* v, BinOp op, double lit, size_t n,
                    uint32_t* out) {
  switch (op) {
    case BinOp::kEq:
      HAPE_SELECT_LOOP(v[i] == lit);
    case BinOp::kNe:
      HAPE_SELECT_LOOP(v[i] != lit);
    case BinOp::kLt:
      HAPE_SELECT_LOOP(v[i] < lit);
    case BinOp::kLe:
      HAPE_SELECT_LOOP(v[i] <= lit);
    case BinOp::kGt:
      HAPE_SELECT_LOOP(v[i] > lit);
    case BinOp::kGe:
      HAPE_SELECT_LOOP(v[i] >= lit);
    default:
      HAPE_CHECK(false) << "SelectCmp requires a comparison op";
      return 0;
  }
}

size_t SelectCmpI32(const int32_t* v, BinOp op, double lit, size_t n,
                    uint32_t* out) {
  switch (op) {
    case BinOp::kEq:
      HAPE_SELECT_LOOP(static_cast<double>(v[i]) == lit);
    case BinOp::kNe:
      HAPE_SELECT_LOOP(static_cast<double>(v[i]) != lit);
    case BinOp::kLt:
      HAPE_SELECT_LOOP(static_cast<double>(v[i]) < lit);
    case BinOp::kLe:
      HAPE_SELECT_LOOP(static_cast<double>(v[i]) <= lit);
    case BinOp::kGt:
      HAPE_SELECT_LOOP(static_cast<double>(v[i]) > lit);
    case BinOp::kGe:
      HAPE_SELECT_LOOP(static_cast<double>(v[i]) >= lit);
    default:
      HAPE_CHECK(false) << "SelectCmp requires a comparison op";
      return 0;
  }
}

void HashKeys(const int64_t* keys, size_t n, uint64_t* out) {
  for (size_t i = 0; i < n; ++i) {
    out[i] = HashMurmur64(static_cast<uint64_t>(keys[i]));
  }
}

}  // namespace portable

// ---- runtime dispatch ------------------------------------------------------

namespace {

struct Dispatch {
  size_t (*select_nonzero)(const double*, size_t, uint32_t*);
  size_t (*select_cmp_f64)(const double*, BinOp, double, size_t, uint32_t*);
  size_t (*select_cmp_i32)(const int32_t*, BinOp, double, size_t, uint32_t*);
  void (*hash_keys)(const int64_t*, size_t, uint64_t*);
};

const Dispatch& Impl() {
  static const Dispatch d = [] {
    if (Avx2Available()) {
      return Dispatch{avx2::SelectNonZero, avx2::SelectCmpF64,
                      avx2::SelectCmpI32, avx2::HashKeys};
    }
    return Dispatch{portable::SelectNonZero, portable::SelectCmpF64,
                    portable::SelectCmpI32, portable::HashKeys};
  }();
  return d;
}

}  // namespace

// ---- casts -----------------------------------------------------------------

void CastI32ToF64(const int32_t* in, size_t n, double* out) {
  for (size_t i = 0; i < n; ++i) out[i] = static_cast<double>(in[i]);
}

void CastI64ToF64(const int64_t* in, size_t n, double* out) {
  for (size_t i = 0; i < n; ++i) out[i] = static_cast<double>(in[i]);
}

void CastF64ToI64(const double* in, size_t n, int64_t* out) {
  for (size_t i = 0; i < n; ++i) out[i] = static_cast<int64_t>(in[i]);
}

// ---- elementwise arithmetic ------------------------------------------------

void BinaryOpF64(BinOp op, const double* l, const double* r, size_t n,
                 double* out) {
  switch (op) {
    case BinOp::kAdd:
      for (size_t i = 0; i < n; ++i) out[i] = l[i] + r[i];
      return;
    case BinOp::kSub:
      for (size_t i = 0; i < n; ++i) out[i] = l[i] - r[i];
      return;
    case BinOp::kMul:
      for (size_t i = 0; i < n; ++i) out[i] = l[i] * r[i];
      return;
    case BinOp::kDiv:
      for (size_t i = 0; i < n; ++i) out[i] = l[i] / r[i];
      return;
    case BinOp::kEq:
      for (size_t i = 0; i < n; ++i) out[i] = l[i] == r[i];
      return;
    case BinOp::kNe:
      for (size_t i = 0; i < n; ++i) out[i] = l[i] != r[i];
      return;
    case BinOp::kLt:
      for (size_t i = 0; i < n; ++i) out[i] = l[i] < r[i];
      return;
    case BinOp::kLe:
      for (size_t i = 0; i < n; ++i) out[i] = l[i] <= r[i];
      return;
    case BinOp::kGt:
      for (size_t i = 0; i < n; ++i) out[i] = l[i] > r[i];
      return;
    case BinOp::kGe:
      for (size_t i = 0; i < n; ++i) out[i] = l[i] >= r[i];
      return;
    case BinOp::kAnd:
      for (size_t i = 0; i < n; ++i) out[i] = (l[i] != 0) && (r[i] != 0);
      return;
    case BinOp::kOr:
      for (size_t i = 0; i < n; ++i) out[i] = (l[i] != 0) || (r[i] != 0);
      return;
  }
  HAPE_CHECK(false) << "unknown BinOp";
}

// ---- selection vectors -----------------------------------------------------

size_t SelectNonZero(const double* v, size_t n, uint32_t* out) {
  Bump(GlobalCounters().filter_rows, n);
  return Impl().select_nonzero(v, n, out);
}

size_t SelectCmpF64(const double* v, BinOp op, double lit, size_t n,
                    uint32_t* out) {
  Bump(GlobalCounters().filter_rows, n);
  return Impl().select_cmp_f64(v, op, lit, n, out);
}

size_t SelectCmpI64(const int64_t* v, BinOp op, double lit, size_t n,
                    uint32_t* out) {
  // No AVX2 path: there is no 4-lane i64 -> f64 convert below AVX-512, and
  // the widen-then-compare loop below already autovectorizes the compare.
  Bump(GlobalCounters().filter_rows, n);
  switch (op) {
    case BinOp::kEq:
      HAPE_SELECT_LOOP(static_cast<double>(v[i]) == lit);
    case BinOp::kNe:
      HAPE_SELECT_LOOP(static_cast<double>(v[i]) != lit);
    case BinOp::kLt:
      HAPE_SELECT_LOOP(static_cast<double>(v[i]) < lit);
    case BinOp::kLe:
      HAPE_SELECT_LOOP(static_cast<double>(v[i]) <= lit);
    case BinOp::kGt:
      HAPE_SELECT_LOOP(static_cast<double>(v[i]) > lit);
    case BinOp::kGe:
      HAPE_SELECT_LOOP(static_cast<double>(v[i]) >= lit);
    default:
      HAPE_CHECK(false) << "SelectCmp requires a comparison op";
      return 0;
  }
}

#undef HAPE_SELECT_LOOP

size_t SelectCmpI32(const int32_t* v, BinOp op, double lit, size_t n,
                    uint32_t* out) {
  Bump(GlobalCounters().filter_rows, n);
  return Impl().select_cmp_i32(v, op, lit, n, out);
}

// ---- hashing ---------------------------------------------------------------

void HashKeys(const int64_t* keys, size_t n, uint64_t* out) {
  Bump(GlobalCounters().hashed_keys, n);
  Impl().hash_keys(keys, n, out);
}

// ---- chained hash table: bulk probe / bulk build ---------------------------

uint64_t ProbeBulk(const ops::ChainedHashTable& ht, const int64_t* keys,
                   const uint64_t* hashes, size_t n,
                   std::vector<uint32_t>* probe_rows,
                   std::vector<uint32_t>* build_rows) {
  Bump(GlobalCounters().probed_keys, n);
  const std::span<const int32_t> heads = ht.heads();
  const std::span<const int64_t> ekeys = ht.entry_keys();
  const std::span<const uint32_t> erows = ht.entry_rows();
  const std::span<const int32_t> enext = ht.entry_next();
  const uint32_t log_buckets = ht.log_buckets();

  // Two-stage software pipeline over a ring buffer: the chain-head line of
  // key j+D is prefetched D keys ahead (stage 1), the head itself is read —
  // now cached — and its first entry's key/next/row lines prefetched D/2
  // keys ahead (stage 2), and the walk at key j finds everything resident.
  // The distance is deliberately short: with a long lead (block-at-a-time
  // passes over hundreds of keys) the walk's own random traffic evicts the
  // prefetched lines before they are used and the speedup collapses.
  // Matched pairs are staged in a fixed local buffer and spilled in bulk so
  // the hot walk loop does no vector push_back bookkeeping. Keys are walked
  // in ascending order with chain order preserved and the buffer spills
  // in-order, so the output pairs and the visit count stay bit-identical to
  // the scalar ForEachMatch loop.
  constexpr size_t kDistance = 16;
  constexpr size_t kHalf = kDistance / 2;
  constexpr size_t kBuf = 2048;
  uint32_t ring[kDistance];
  int32_t entry_ring[kDistance];
  uint32_t buf_probe[kBuf];
  uint32_t buf_build[kBuf];
  size_t buffered = 0;
  uint64_t visits = 0;
  const auto flush = [&] {
    probe_rows->insert(probe_rows->end(), buf_probe, buf_probe + buffered);
    build_rows->insert(build_rows->end(), buf_build, buf_build + buffered);
    buffered = 0;
  };
  const auto stage1 = [&](size_t j) {
    const uint32_t b = BucketOfHash(hashes[j], log_buckets);
    ring[j % kDistance] = b;
    __builtin_prefetch(&heads[b], 0, 3);
  };
  const auto stage2 = [&](size_t j) {
    const int32_t e = heads[ring[j % kDistance]];
    entry_ring[j % kDistance] = e;
    if (e >= 0) {
      __builtin_prefetch(&ekeys[e], 0, 3);
      __builtin_prefetch(&enext[e], 0, 3);
      __builtin_prefetch(&erows[e], 0, 3);
    }
  };
  const size_t lead1 = std::min(kDistance, n);
  for (size_t j = 0; j < lead1; ++j) stage1(j);
  const size_t lead2 = std::min(kHalf, n);
  for (size_t j = 0; j < lead2; ++j) stage2(j);
  for (size_t j = 0; j < n; ++j) {
    const int32_t e0 = entry_ring[j % kDistance];  // read before slot reuse
    if (j + kDistance < n) stage1(j + kDistance);
    if (j + kHalf < n) stage2(j + kHalf);
    const int64_t key = keys[j];
    const uint32_t i = static_cast<uint32_t>(j);
    for (int32_t e = e0; e >= 0; e = enext[e]) {
      ++visits;
      if (ekeys[e] == key) {
        if (buffered == kBuf) flush();
        buf_probe[buffered] = i;
        buf_build[buffered] = erows[e];
        ++buffered;
      }
    }
  }
  flush();
  return visits;
}

void BuildBulk(ops::ChainedHashTable* ht, const int64_t* keys,
               const uint64_t* hashes, size_t n, uint32_t base_row) {
  Bump(GlobalCounters().bulk_inserts, n);
  ht->Reserve(ht->size() + n);
  for (size_t i = 0; i < n; ++i) {
    ht->InsertHashed(keys[i], hashes[i], base_row + static_cast<uint32_t>(i));
  }
}

// ---- grouped accumulation --------------------------------------------------

GroupIndex::GroupIndex(size_t expected_groups) {
  uint64_t cap = 16;
  while (cap < expected_groups * 2) cap <<= 1;
  table_.assign(cap, -1);
  mask_ = cap - 1;
  dense_keys_.reserve(expected_groups);
}

uint32_t GroupIndex::SlotOf(int64_t key) {
  uint64_t idx = HashMurmur64(static_cast<uint64_t>(key)) & mask_;
  while (table_[idx] >= 0) {
    if (dense_keys_[table_[idx]] == key) {
      return static_cast<uint32_t>(table_[idx]);
    }
    idx = (idx + 1) & mask_;
  }
  const uint32_t slot = static_cast<uint32_t>(dense_keys_.size());
  dense_keys_.push_back(key);
  table_[idx] = static_cast<int32_t>(slot);
  if (dense_keys_.size() * 4 > table_.size() * 3) Grow();
  return slot;
}

void GroupIndex::Grow() {
  // Re-slot every dense key into a doubled table; slot ids don't change
  // (they are positions in dense_keys_), only the probe table does.
  table_.assign(table_.size() * 2, -1);
  mask_ = table_.size() - 1;
  for (size_t s = 0; s < dense_keys_.size(); ++s) {
    uint64_t idx =
        HashMurmur64(static_cast<uint64_t>(dense_keys_[s])) & mask_;
    while (table_[idx] >= 0) idx = (idx + 1) & mask_;
    table_[idx] = static_cast<int32_t>(s);
  }
}

// ---- parallel packet transforms --------------------------------------------

void ParallelFor(size_t n, int threads,
                 const std::function<void(size_t)>& fn) {
  if (threads <= 1 || n < 2) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  const size_t workers =
      std::min<size_t>(static_cast<size_t>(threads), n);
  // Relaxed is enough for the claim counter: fetch_add RMWs on one atomic
  // are totally ordered (each index claimed exactly once), and the
  // workers' fn() writes are published to the caller by join() below.
  std::atomic<size_t> next{0};
  auto drain = [&] {
    for (size_t i = next.fetch_add(1, std::memory_order_relaxed); i < n;
         i = next.fetch_add(1, std::memory_order_relaxed)) {
      fn(i);
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(workers - 1);
  for (size_t w = 1; w < workers; ++w) pool.emplace_back(drain);
  drain();
  for (std::thread& t : pool) t.join();
}

}  // namespace kernels
}  // namespace hape::codegen
