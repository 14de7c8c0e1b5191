#ifndef HAPE_OPS_HASH_TABLE_H_
#define HAPE_OPS_HASH_TABLE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/bits.h"
#include "common/hash.h"

namespace hape::ops {

/// Hash table mapping int64 keys to build-side row ids. The simulated
/// costs model the structure of Fig. 3 — a chain head per bucket and a
/// linked node per entry (NominalBytes) — which the SM / L1 / SM+L1
/// placement options of Fig. 5 place in the different GPU memories. The
/// host holds the same chains as contiguous buckets (Balkesen et al.,
/// ICDE 2013): `offsets` (buckets + 1) delimit each bucket's run in one
/// array of {key, row} slots, newest insert first, the order a chain walk
/// visits its nodes. A probe touches the offsets line and a slot line
/// where a chain walk touched a head and three arrays per node; matches
/// and visit counts are the chained table's. The table is immutable,
/// built once from all its keys by a counting sort.
class ChainedHashTable {
 public:
  struct Slot {
    int64_t key;
    uint32_t row;
    friend bool operator==(const Slot&, const Slot&) = default;
  };

  /// An empty table of NextPow2(`buckets`) buckets.
  explicit ChainedHashTable(size_t buckets = 0)
      : log_buckets_(Log2Floor(NextPow2(buckets))) {}

  /// The table of keys[i] -> row i over NextPow2(`buckets`) buckets, by a
  /// counting sort: count per bucket, turn the counts into bucket ends,
  /// then fill each bucket from its end, first key first, so the newest
  /// insert comes first. `hashes`, when given, must be HashMurmur64(keys);
  /// the scalar reference build passes none and hashes each key itself.
  ChainedHashTable(size_t buckets, std::span<const int64_t> keys,
                   const uint64_t* hashes = nullptr)
      : ChainedHashTable(buckets) {
    size_ = keys.size();
    if (size_ == 0) return;
    const auto bucket = [&](size_t i) {
      return BucketOfHash(hashes != nullptr
                              ? hashes[i]
                              : HashMurmur64(static_cast<uint64_t>(keys[i])),
                          log_buckets_);
    };
    offsets_.assign(num_buckets() + 1, 0);
    for (size_t i = 0; i < size_; ++i) ++offsets_[bucket(i)];
    for (size_t b = 1; b < offsets_.size(); ++b) offsets_[b] += offsets_[b - 1];
    // One zeroed slot past the end, so a probe may read a bucket's first
    // slot before it knows the bucket is not empty.
    slots_ = std::make_unique_for_overwrite<Slot[]>(size_ + 1);
    slots_[size_] = Slot{0, 0};
    for (size_t i = 0; i < size_; ++i) {
      slots_[--offsets_[bucket(i)]] = Slot{keys[i], static_cast<uint32_t>(i)};
    }
  }

  /// Calls fn(build_row) for every entry matching `key`. Returns the number
  /// of chain nodes visited, the size of the key's bucket (the traffic
  /// models charge one node access per visit, matching the probe loop of
  /// the generated code).
  template <typename Fn>
  uint64_t ForEachMatch(int64_t key, Fn&& fn) const {
    if (size_ == 0) return 0;
    const uint32_t b = BucketOf(static_cast<uint64_t>(key), log_buckets_);
    for (uint32_t s = offsets_[b]; s < offsets_[b + 1]; ++s) {
      if (slots_[s].key == key) fn(slots_[s].row);
    }
    return offsets_[b + 1] - offsets_[b];
  }

  size_t size() const { return size_; }
  uint64_t num_buckets() const { return uint64_t{1} << log_buckets_; }
  uint32_t log_buckets() const { return log_buckets_; }

  // Raw layout, for the batch probe kernel (codegen/kernels.h): bucket b
  // holds slots [offsets()[b], offsets()[b + 1]); both empty when size 0.
  std::span<const uint32_t> offsets() const { return offsets_; }
  std::span<const Slot> slots() const { return {slots_.get(), size_}; }

  /// Bytes this table would occupy at `rows` entries with `payload_bytes`
  /// carried per entry (key + next + payload + one 4-byte head per bucket).
  /// Used for nominal-scale GPU-memory capacity checks.
  static uint64_t NominalBytes(uint64_t rows, uint64_t payload_bytes) {
    if (rows == 0) return 0;
    return rows * (8 + 4 + payload_bytes) + NextPow2(rows) * 4;
  }

 private:
  uint32_t log_buckets_;
  std::vector<uint32_t> offsets_;
  std::unique_ptr<Slot[]> slots_;
  size_t size_ = 0;
};

}  // namespace hape::ops

#endif  // HAPE_OPS_HASH_TABLE_H_
