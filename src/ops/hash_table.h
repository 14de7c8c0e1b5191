#ifndef HAPE_OPS_HASH_TABLE_H_
#define HAPE_OPS_HASH_TABLE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/bits.h"
#include "common/hash.h"

namespace hape::ops {

/// Chained hash table mapping int64 keys to build-side row ids — the
/// structure of Fig. 3 (chain heads + linked nodes). One array of heads and
/// parallel key/row/next arrays; this layout is shared by every join variant
/// in the engine and is what the SM / L1 / SM+L1 placement options of Fig. 5
/// place in the different GPU memories.
class ChainedHashTable {
 public:
  explicit ChainedHashTable(size_t expected_rows)
      : ChainedHashTable(expected_rows, expected_rows) {}

  /// NextPow2(`expected_rows`) buckets, with the entry arrays reserved for
  /// `reserve_rows` inserts. A plan's build table takes its bucket count
  /// from the plan and reserves for every row its source may deliver.
  ChainedHashTable(size_t expected_rows, size_t reserve_rows) {
    const uint64_t buckets = NextPow2(expected_rows == 0 ? 1 : expected_rows);
    log_buckets_ = Log2Floor(buckets);
    heads_.assign(buckets, -1);
    Reserve(reserve_rows);
  }

  /// Preallocate the entry arrays for `expected_rows` inserts so bulk
  /// builds never reallocate mid-insert; inserting beyond the reservation
  /// stays correct (the vectors grow), just slower.
  void Reserve(size_t expected_rows) {
    keys_.reserve(expected_rows);
    rows_.reserve(expected_rows);
    next_.reserve(expected_rows);
  }

  /// Entry capacity currently reserved (bulk build never reallocates while
  /// size() stays within it).
  size_t capacity() const { return keys_.capacity(); }

  void Insert(int64_t key, uint32_t row) {
    InsertHashed(key, HashMurmur64(static_cast<uint64_t>(key)), row);
  }

  /// Insert with a precomputed `hash` == HashMurmur64(key). The bulk-build
  /// kernels hash whole key vectors up front instead of per row.
  void InsertHashed(int64_t key, uint64_t hash, uint32_t row) {
    const uint32_t b = BucketOfHash(hash, log_buckets_);
    keys_.push_back(key);
    rows_.push_back(row);
    next_.push_back(heads_[b]);
    heads_[b] = static_cast<int32_t>(keys_.size() - 1);
  }

  /// Calls fn(build_row) for every entry matching `key`. Returns the number
  /// of chain nodes visited (the traffic models charge one node access per
  /// visit, matching the probe loop of the generated code).
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

  size_t size() const { return keys_.size(); }
  uint64_t num_buckets() const { return heads_.size(); }
  uint32_t log_buckets() const { return log_buckets_; }

  // Raw table layout, exposed for the batch-at-a-time probe kernels
  // (codegen/kernels.h): chain heads plus the parallel entry arrays.
  std::span<const int32_t> heads() const { return heads_; }
  std::span<const int64_t> entry_keys() const { return keys_; }
  std::span<const uint32_t> entry_rows() const { return rows_; }
  std::span<const int32_t> entry_next() const { return next_; }

  /// Bytes this table would occupy at `rows` entries with `payload_bytes`
  /// carried per entry (key + next + payload + one 4-byte head per bucket).
  /// Used for nominal-scale GPU-memory capacity checks.
  static uint64_t NominalBytes(uint64_t rows, uint64_t payload_bytes) {
    if (rows == 0) return 0;
    return rows * (8 + 4 + payload_bytes) + NextPow2(rows) * 4;
  }

 private:
  uint32_t log_buckets_;
  std::vector<int32_t> heads_;
  std::vector<int64_t> keys_;
  std::vector<uint32_t> rows_;
  std::vector<int32_t> next_;
};

}  // namespace hape::ops

#endif  // HAPE_OPS_HASH_TABLE_H_
