#ifndef HAPE_STORAGE_TYPES_H_
#define HAPE_STORAGE_TYPES_H_

#include <cstddef>
#include <cstdint>

namespace hape::storage {

/// Column physical types. Strings are dictionary-encoded to kInt32 at data
/// generation / load time (the engine is a binary columnar engine, §6.4).
/// Dates are encoded as int32 yyyymmdd, whose numeric order matches date
/// order, so range predicates work directly on the encoded value.
enum class DataType : uint8_t {
  kInt32 = 0,
  kInt64 = 1,
  kFloat64 = 2,
};

constexpr size_t TypeSize(DataType t) {
  switch (t) {
    case DataType::kInt32:
      return 4;
    case DataType::kInt64:
      return 8;
    case DataType::kFloat64:
      return 8;
  }
  return 0;
}

/// A double as an int64, defined for every input: truncated toward zero
/// inside [-2^63, 2^63), INT64_MIN for NaN and everything outside — what
/// x86-64's cvttsd2si returns, so results match the plain cast there.
constexpr int64_t DoubleToInt64(double v) {
  return v >= -0x1p63 && v < 0x1p63 ? static_cast<int64_t>(v) : INT64_MIN;
}

constexpr const char* TypeName(DataType t) {
  switch (t) {
    case DataType::kInt32:
      return "int32";
    case DataType::kInt64:
      return "int64";
    case DataType::kFloat64:
      return "float64";
  }
  return "?";
}

}  // namespace hape::storage

#endif  // HAPE_STORAGE_TYPES_H_
