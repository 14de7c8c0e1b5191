#ifndef HAPE_STORAGE_TPCH_H_
#define HAPE_STORAGE_TPCH_H_

#include <array>
#include <cstdint>
#include <string>

#include "storage/table.h"

namespace hape::storage::tpch {

/// Nation / region dictionary codes used by the generator. Matches official
/// TPC-H: 25 nations, 5 regions; region of nation n is kNationRegion[n].
constexpr int kNumNations = 25;
constexpr int kNumRegions = 5;
extern const char* const kNationNames[kNumNations];
extern const char* const kRegionNames[kNumRegions];
extern const int kNationRegion[kNumNations];
/// Dictionary code of region 'ASIA' (used by Q5).
constexpr int32_t kRegionAsia = 2;

/// Dictionary codes for l_returnflag / l_linestatus.
constexpr int32_t kFlagA = 0, kFlagN = 1, kFlagR = 2;
constexpr int32_t kStatusF = 0, kStatusO = 1;

/// Dictionary codes for c_mktsegment (5 segments, uniform). Q3 filters on
/// 'BUILDING'.
constexpr int kNumSegments = 5;
constexpr int32_t kSegBuilding = 0;

/// Encode a date as int32 yyyymmdd (numeric order == date order).
constexpr int32_t Date(int y, int m, int d) { return y * 10000 + m * 100 + d; }

/// Days from 1992-01-01 that generated dates span: the order dates through
/// 1998-08-02, then up to 121 ship days and 30 receipt days after them.
constexpr int64_t kGeneratedDays = 2406 + 121 + 30;
/// yyyymmdd of each of those days: the generator's date table.
extern const std::array<int32_t, kGeneratedDays> kGeneratedDates;

/// Base (scale factor 1) row counts, per the TPC-H specification.
constexpr uint64_t kLineitemSf1 = 6001215;
constexpr uint64_t kOrdersSf1 = 1500000;
constexpr uint64_t kCustomerSf1 = 150000;
constexpr uint64_t kPartSf1 = 200000;
constexpr uint64_t kSupplierSf1 = 10000;

/// Generates a deterministic TPC-H-shaped database at scale factor `sf`
/// (may be fractional, e.g. 0.01 for tests). The generator preserves the
/// properties the four evaluated queries depend on: PK/FK integrity,
/// ~1/7 selectivity per shipdate year, the returnflag/linestatus group
/// structure, uniform nation/region assignment, and the TPC-H price/
/// discount/tax value domains. All tables are created on `home_node`
/// (CPU-resident, as in §6.4).
class TpchGenerator {
 public:
  explicit TpchGenerator(double sf, uint64_t seed = 42, int home_node = 0)
      : sf_(sf), seed_(seed), home_node_(home_node) {}

  /// Generate every table into `catalog` under its TPC-H name
  /// ("lineitem", "orders", ...).
  Status GenerateAll(Catalog* catalog);

  TablePtr Lineitem();
  TablePtr Orders();
  TablePtr Customer();
  TablePtr Supplier();
  TablePtr Nation();
  TablePtr Region();
  TablePtr Part();
  TablePtr Partsupp();

  uint64_t NumLineitem() const { return Scaled(kLineitemSf1); }
  uint64_t NumOrders() const { return Scaled(kOrdersSf1); }
  uint64_t NumCustomer() const { return Scaled(kCustomerSf1); }
  uint64_t NumPart() const { return Scaled(kPartSf1); }
  uint64_t NumSupplier() const { return Scaled(kSupplierSf1); }

 private:
  uint64_t Scaled(uint64_t base) const {
    const uint64_t n = static_cast<uint64_t>(base * sf_);
    return n == 0 ? 1 : n;
  }

  double sf_;
  uint64_t seed_;
  int home_node_;
  // Orders' dates are re-derived for lineitem generation, so cache them.
  std::vector<int32_t> o_orderdate_;
};

}  // namespace hape::storage::tpch

#endif  // HAPE_STORAGE_TPCH_H_
