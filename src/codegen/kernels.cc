#include "codegen/kernels.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

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
  static const bool ok = __builtin_cpu_supports("avx2");
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

// ---- elementwise arithmetic ------------------------------------------------

namespace {

/// out[i] = l(i) op r(i) over operand accessors (a vector or a scalar).
template <typename L, typename R>
void BinaryOp(BinOp op, L l, R r, size_t n, double* out) {
  switch (op) {
    case BinOp::kAdd:
      for (size_t i = 0; i < n; ++i) out[i] = l(i) + r(i);
      return;
    case BinOp::kSub:
      for (size_t i = 0; i < n; ++i) out[i] = l(i) - r(i);
      return;
    case BinOp::kMul:
      for (size_t i = 0; i < n; ++i) out[i] = l(i) * r(i);
      return;
    case BinOp::kDiv:
      for (size_t i = 0; i < n; ++i) out[i] = l(i) / r(i);
      return;
    case BinOp::kEq:
      for (size_t i = 0; i < n; ++i) out[i] = l(i) == r(i);
      return;
    case BinOp::kNe:
      for (size_t i = 0; i < n; ++i) out[i] = l(i) != r(i);
      return;
    case BinOp::kLt:
      for (size_t i = 0; i < n; ++i) out[i] = l(i) < r(i);
      return;
    case BinOp::kLe:
      for (size_t i = 0; i < n; ++i) out[i] = l(i) <= r(i);
      return;
    case BinOp::kGt:
      for (size_t i = 0; i < n; ++i) out[i] = l(i) > r(i);
      return;
    case BinOp::kGe:
      for (size_t i = 0; i < n; ++i) out[i] = l(i) >= r(i);
      return;
    case BinOp::kAnd:
      for (size_t i = 0; i < n; ++i) out[i] = (l(i) != 0) && (r(i) != 0);
      return;
    case BinOp::kOr:
      for (size_t i = 0; i < n; ++i) out[i] = (l(i) != 0) || (r(i) != 0);
      return;
  }
  HAPE_CHECK(false) << "unknown BinOp";
}

auto Vec(const double* v) {
  return [v](size_t i) { return v[i]; };
}

auto Scalar(double x) {
  return [x](size_t) { return x; };
}

}  // namespace

void BinaryOpF64(BinOp op, const double* l, const double* r, size_t n,
                 double* out) {
  BinaryOp(op, Vec(l), Vec(r), n, out);
}

void BinaryOpF64(BinOp op, double l, const double* r, size_t n, double* out) {
  BinaryOp(op, Scalar(l), Vec(r), n, out);
}

void BinaryOpF64(BinOp op, const double* l, double r, size_t n, double* out) {
  BinaryOp(op, Vec(l), Scalar(r), n, out);
}

// ---- selection vectors -----------------------------------------------------

namespace {

/// Branch-free select: every candidate stores its packet row `id(i)` at
/// out[m] and only the predicate advances m, so an unpredictable filter
/// costs no mispredicted branches. m <= i < n at each store: every write
/// stays in the n-entry buffer, and one into the candidates lands on an
/// entry already read. `row(i)` reads candidate i as a double (integer
/// columns widen first, the scalar reference's rule).
template <typename Row, typename Id, typename Keep>
size_t SelectWhere(Row row, Id id, size_t n, uint32_t* out, Keep keep) {
  size_t m = 0;
  for (size_t i = 0; i < n; ++i) {
    const uint32_t p = id(i);
    const bool kept = keep(row(i));
    out[m] = p;
    m += kept;
  }
  return m;
}

template <typename Row, typename Id>
size_t SelectCmp(Row row, Id id, BinOp op, double lit, size_t n,
                 uint32_t* out) {
  switch (op) {
    case BinOp::kEq:
      return SelectWhere(row, id, n, out, [lit](double x) { return x == lit; });
    case BinOp::kNe:
      return SelectWhere(row, id, n, out, [lit](double x) { return x != lit; });
    case BinOp::kLt:
      return SelectWhere(row, id, n, out, [lit](double x) { return x < lit; });
    case BinOp::kLe:
      return SelectWhere(row, id, n, out, [lit](double x) { return x <= lit; });
    case BinOp::kGt:
      return SelectWhere(row, id, n, out, [lit](double x) { return x > lit; });
    case BinOp::kGe:
      return SelectWhere(row, id, n, out, [lit](double x) { return x >= lit; });
    default:
      HAPE_CHECK(false) << "SelectCmp requires a comparison op";
      return 0;
  }
}

uint32_t Identity(size_t i) { return static_cast<uint32_t>(i); }

template <typename T>
size_t SelectCmpColumn(const T* v, const uint32_t* rows, const uint32_t* cand,
                       BinOp op, double lit, size_t n, uint32_t* out) {
  Bump(GlobalCounters().filter_rows, n);
  const auto at = [v](size_t e) { return static_cast<double>(v[e]); };
  const auto of = [cand](size_t i) { return cand[i]; };
  if (cand == nullptr && rows == nullptr) {
    return SelectCmp(at, Identity, op, lit, n, out);
  }
  if (cand == nullptr) {
    return SelectCmp([=](size_t i) { return at(rows[i]); }, Identity, op, lit,
                     n, out);
  }
  if (rows == nullptr) {
    return SelectCmp([=](size_t i) { return at(cand[i]); }, of, op, lit, n,
                     out);
  }
  return SelectCmp([=](size_t i) { return at(rows[cand[i]]); }, of, op, lit,
                   n, out);
}

}  // namespace

size_t SelectNonZero(const double* v, size_t n, uint32_t* out,
                     const uint32_t* cand) {
  Bump(GlobalCounters().filter_rows, n);
  const auto nonzero = [](double x) { return x != 0; };
  if (cand == nullptr) return SelectWhere(Vec(v), Identity, n, out, nonzero);
  return SelectWhere(Vec(v), [cand](size_t i) { return cand[i]; }, n, out,
                     nonzero);
}

size_t SelectCmpF64(const double* v, BinOp op, double lit, size_t n,
                    uint32_t* out, const uint32_t* rows,
                    const uint32_t* cand) {
  return SelectCmpColumn(v, rows, cand, op, lit, n, out);
}

size_t SelectCmpI64(const int64_t* v, BinOp op, double lit, size_t n,
                    uint32_t* out, const uint32_t* rows,
                    const uint32_t* cand) {
  return SelectCmpColumn(v, rows, cand, op, lit, n, out);
}

size_t SelectCmpI32(const int32_t* v, BinOp op, double lit, size_t n,
                    uint32_t* out, const uint32_t* rows,
                    const uint32_t* cand) {
  return SelectCmpColumn(v, rows, cand, op, lit, n, out);
}

// ---- hashing ---------------------------------------------------------------

void HashKeys(const int64_t* keys, size_t n, uint64_t* out) {
  Bump(GlobalCounters().hashed_keys, n);
  for (size_t i = 0; i < n; ++i) {
    out[i] = HashMurmur64(static_cast<uint64_t>(keys[i]));
  }
}

// ---- chained hash table: bulk probe / bulk build ---------------------------

uint64_t ProbeBulk(const ops::ChainedHashTable& ht, const int64_t* keys,
                   const uint64_t* hashes, size_t n,
                   std::vector<uint32_t>* probe_rows,
                   std::vector<uint32_t>* build_rows) {
  Bump(GlobalCounters().probed_keys, n);
  if (ht.size() == 0) return 0;
  const uint32_t* offsets = ht.offsets().data();
  const ops::ChainedHashTable::Slot* slots = ht.slots().data();
  const uint32_t log_buckets = ht.log_buckets();

  // Two-stage software pipeline over a ring buffer: key j+D's offsets line
  // is prefetched D keys ahead (stage 1), its bucket's range read — now
  // cached — and first slot prefetched D/2 keys ahead (stage 2). A longer
  // lead lets the scan's own random traffic evict the prefetched lines.
  // Every slot of a range is staged in a local buffer and kept only if its
  // key matches, with no branch; the first is staged even for an empty
  // bucket (the table ends in a sentinel slot), so buckets of zero and one
  // slot take the same path. The buffer spills in bulk and in order, so
  // pairs and visits equal the ForEachMatch loop's.
  constexpr size_t kDistance = 16;
  constexpr size_t kHalf = kDistance / 2;
  constexpr size_t kBuf = 2048;
  uint32_t bucket_ring[kDistance];
  uint32_t begin_ring[kDistance];
  uint32_t end_ring[kDistance];
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
    bucket_ring[j % kDistance] = b;
    __builtin_prefetch(&offsets[b], 0, 3);
  };
  const auto stage2 = [&](size_t j) {
    const uint32_t b = bucket_ring[j % kDistance];
    begin_ring[j % kDistance] = offsets[b];
    end_ring[j % kDistance] = offsets[b + 1];
    __builtin_prefetch(&slots[offsets[b]], 0, 3);
  };
  const size_t lead1 = std::min(kDistance, n);
  for (size_t j = 0; j < lead1; ++j) stage1(j);
  const size_t lead2 = std::min(kHalf, n);
  for (size_t j = 0; j < lead2; ++j) stage2(j);
  for (size_t j = 0; j < n; ++j) {
    // Read before stage 1 reuses the ring entry.
    const uint32_t begin = begin_ring[j % kDistance];
    const uint32_t end = end_ring[j % kDistance];
    if (j + kDistance < n) stage1(j + kDistance);
    if (j + kHalf < n) stage2(j + kHalf);
    const int64_t key = keys[j];
    const uint32_t i = static_cast<uint32_t>(j);
    visits += end - begin;
    uint32_t s = begin;
    do {
      if (buffered == kBuf) flush();
      buf_probe[buffered] = i;
      buf_build[buffered] = slots[s].row;
      buffered += (s < end) & (slots[s].key == key);
    } while (++s < end);
  }
  flush();
  return visits;
}

ops::ChainedHashTable BuildBulk(size_t buckets, const int64_t* keys,
                                const uint64_t* hashes, size_t n) {
  Bump(GlobalCounters().bulk_inserts, n);
  return ops::ChainedHashTable(buckets, {keys, n}, hashes);
}

// ---- grouped accumulation --------------------------------------------------

GroupIndex::GroupIndex(size_t expected_groups) {
  uint64_t cap = 64;
  while (cap < expected_groups * 8) cap <<= 1;
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
  if (dense_keys_.size() * 8 > table_.size()) Grow();
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
