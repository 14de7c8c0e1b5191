#include "storage/tpch.h"

#include <array>

#include "common/logging.h"
#include "storage/datagen.h"

namespace hape::storage::tpch {

const char* const kNationNames[kNumNations] = {
    "ALGERIA", "ARGENTINA", "BRAZIL", "CANADA", "EGYPT", "ETHIOPIA", "FRANCE",
    "GERMANY", "INDIA", "INDONESIA", "IRAN", "IRAQ", "JAPAN", "JORDAN",
    "KENYA", "MOROCCO", "MOZAMBIQUE", "PERU", "CHINA", "ROMANIA",
    "SAUDI ARABIA", "VIETNAM", "RUSSIA", "UNITED KINGDOM", "UNITED STATES"};
const char* const kRegionNames[kNumRegions] = {"AFRICA", "AMERICA", "ASIA",
                                               "EUROPE", "MIDDLE EAST"};
// Official TPC-H nation -> region mapping.
const int kNationRegion[kNumNations] = {0, 1, 1, 1, 4, 0, 3, 3, 2, 2, 4, 4, 2,
                                        4, 0, 0, 0, 1, 2, 3, 4, 2, 3, 3, 1};

namespace {

// ---- civil date <-> day-index helpers (Howard Hinnant's algorithms) --------

constexpr int64_t DaysFromCivil(int y, int m, int d) {
  y -= m <= 2;
  const int64_t era = (y >= 0 ? y : y - 399) / 400;
  const unsigned yoe = static_cast<unsigned>(y - era * 400);
  const unsigned doy = (153u * (m + (m > 2 ? -3 : 9)) + 2) / 5 + d - 1;
  const unsigned doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
  return era * 146097 + static_cast<int64_t>(doe) - 719468;
}

struct Ymd {
  int y, m, d;
};

constexpr Ymd CivilFromDays(int64_t z) {
  z += 719468;
  const int64_t era = (z >= 0 ? z : z - 146096) / 146097;
  const unsigned doe = static_cast<unsigned>(z - era * 146097);
  const unsigned yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;
  const int64_t y = static_cast<int64_t>(yoe) + era * 400;
  const unsigned doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
  const unsigned mp = (5 * doy + 2) / 153;
  const unsigned d = doy - (153 * mp + 2) / 5 + 1;
  const unsigned m = mp + (mp < 10 ? 3 : -9);
  return Ymd{static_cast<int>(y + (m <= 2)), static_cast<int>(m),
             static_cast<int>(d)};
}

constexpr int64_t kEpochDay = DaysFromCivil(1992, 1, 1);
// Order dates span 1992-01-01 .. 1998-08-02 per the TPC-H spec.
constexpr int64_t kOrderDateSpan = DaysFromCivil(1998, 8, 2) - kEpochDay + 1;


// Official dbgen supplier-for-part formula, so that every (l_partkey,
// l_suppkey) pair generated for lineitem exists in partsupp.
int64_t PartSupp(int64_t partkey, int i, int64_t s /*supplier count*/) {
  return (partkey + (i * (s / 4 + (partkey - 1) / s))) % s + 1;
}

}  // namespace

// Built at compile time, so generation looks dates up instead of dividing.
constexpr std::array<int32_t, kGeneratedDays> kGeneratedDates = [] {
  std::array<int32_t, kGeneratedDays> dates{};
  for (int64_t day = 0; day < kGeneratedDays; ++day) {
    const Ymd ymd = CivilFromDays(kEpochDay + day);
    dates[day] = Date(ymd.y, ymd.m, ymd.d);
  }
  return dates;
}();
static_assert(kGeneratedDays == kOrderDateSpan + 121 + 30);
static_assert(kGeneratedDates.back() == Date(1998, 12, 31));

Status TpchGenerator::GenerateAll(Catalog* catalog) {
  HAPE_RETURN_NOT_OK(catalog->Register(Region()));
  HAPE_RETURN_NOT_OK(catalog->Register(Nation()));
  HAPE_RETURN_NOT_OK(catalog->Register(Supplier()));
  HAPE_RETURN_NOT_OK(catalog->Register(Customer()));
  HAPE_RETURN_NOT_OK(catalog->Register(Part()));
  HAPE_RETURN_NOT_OK(catalog->Register(Partsupp()));
  HAPE_RETURN_NOT_OK(catalog->Register(Orders()));
  HAPE_RETURN_NOT_OK(catalog->Register(Lineitem()));
  return Status::OK();
}

TablePtr TpchGenerator::Region() {
  std::vector<int64_t> key(kNumRegions);
  std::vector<int32_t> name(kNumRegions);
  for (int i = 0; i < kNumRegions; ++i) {
    key[i] = i;
    name[i] = i;  // dictionary code == regionkey
  }
  auto schema = std::make_shared<Schema>(std::vector<Field>{
      {"r_regionkey", DataType::kInt64}, {"r_name", DataType::kInt32}});
  return std::make_shared<Table>(
      "region", schema,
      std::vector<ColumnPtr>{std::make_shared<Column>(std::move(key)),
                             std::make_shared<Column>(std::move(name))},
      home_node_);
}

TablePtr TpchGenerator::Nation() {
  std::vector<int64_t> key(kNumNations), regionkey(kNumNations);
  std::vector<int32_t> name(kNumNations);
  for (int i = 0; i < kNumNations; ++i) {
    key[i] = i;
    regionkey[i] = kNationRegion[i];
    name[i] = i;  // dictionary code == nationkey
  }
  auto schema = std::make_shared<Schema>(std::vector<Field>{
      {"n_nationkey", DataType::kInt64},
      {"n_regionkey", DataType::kInt64},
      {"n_name", DataType::kInt32}});
  return std::make_shared<Table>(
      "nation", schema,
      std::vector<ColumnPtr>{std::make_shared<Column>(std::move(key)),
                             std::make_shared<Column>(std::move(regionkey)),
                             std::make_shared<Column>(std::move(name))},
      home_node_);
}

TablePtr TpchGenerator::Supplier() {
  const uint64_t n = NumSupplier();
  std::vector<int64_t> key(n), nationkey(n);
  Rng rng(seed_ ^ 0x51ULL);
  for (uint64_t i = 0; i < n; ++i) {
    key[i] = static_cast<int64_t>(i) + 1;
    nationkey[i] = static_cast<int64_t>(rng.Below(kNumNations));
  }
  auto schema = std::make_shared<Schema>(std::vector<Field>{
      {"s_suppkey", DataType::kInt64}, {"s_nationkey", DataType::kInt64}});
  return std::make_shared<Table>(
      "supplier", schema,
      std::vector<ColumnPtr>{std::make_shared<Column>(std::move(key)),
                             std::make_shared<Column>(std::move(nationkey))},
      home_node_);
}

TablePtr TpchGenerator::Customer() {
  const uint64_t n = NumCustomer();
  std::vector<int64_t> key(n), nationkey(n);
  std::vector<int32_t> mktsegment(n);
  Rng rng(seed_ ^ 0xc1ULL);
  // Separate stream for the segment so existing columns stay bit-stable.
  Rng seg_rng(seed_ ^ 0xc2ULL);
  for (uint64_t i = 0; i < n; ++i) {
    key[i] = static_cast<int64_t>(i) + 1;
    nationkey[i] = static_cast<int64_t>(rng.Below(kNumNations));
    mktsegment[i] = static_cast<int32_t>(seg_rng.Below(kNumSegments));
  }
  auto schema = std::make_shared<Schema>(std::vector<Field>{
      {"c_custkey", DataType::kInt64},
      {"c_nationkey", DataType::kInt64},
      {"c_mktsegment", DataType::kInt32}});
  return std::make_shared<Table>(
      "customer", schema,
      std::vector<ColumnPtr>{std::make_shared<Column>(std::move(key)),
                             std::make_shared<Column>(std::move(nationkey)),
                             std::make_shared<Column>(std::move(mktsegment))},
      home_node_);
}

TablePtr TpchGenerator::Part() {
  const uint64_t n = NumPart();
  std::vector<int64_t> key(n);
  std::vector<double> price(n);
  Rng rng(seed_ ^ 0x91ULL);
  for (uint64_t i = 0; i < n; ++i) {
    key[i] = static_cast<int64_t>(i) + 1;
    // TPC-H p_retailprice = (90000 + (partkey/10 mod 20001) + 100*(partkey
    // mod 1000)) / 100; a uniform approximation keeps the same domain.
    price[i] = 900.0 + rng.NextDouble() * 1200.0;
  }
  auto schema = std::make_shared<Schema>(std::vector<Field>{
      {"p_partkey", DataType::kInt64}, {"p_retailprice", DataType::kFloat64}});
  return std::make_shared<Table>(
      "part", schema,
      std::vector<ColumnPtr>{std::make_shared<Column>(std::move(key)),
                             std::make_shared<Column>(std::move(price))},
      home_node_);
}

TablePtr TpchGenerator::Partsupp() {
  const uint64_t parts = NumPart();
  const int64_t suppliers = static_cast<int64_t>(NumSupplier());
  std::vector<int64_t> partkey, suppkey;
  std::vector<double> supplycost;
  partkey.reserve(parts * 4);
  suppkey.reserve(parts * 4);
  supplycost.reserve(parts * 4);
  Rng rng(seed_ ^ 0x75ULL);
  for (uint64_t p = 1; p <= parts; ++p) {
    for (int i = 0; i < 4; ++i) {
      partkey.push_back(static_cast<int64_t>(p));
      suppkey.push_back(PartSupp(static_cast<int64_t>(p), i, suppliers));
      supplycost.push_back(1.0 + rng.NextDouble() * 999.0);
    }
  }
  auto schema = std::make_shared<Schema>(std::vector<Field>{
      {"ps_partkey", DataType::kInt64},
      {"ps_suppkey", DataType::kInt64},
      {"ps_supplycost", DataType::kFloat64}});
  return std::make_shared<Table>(
      "partsupp", schema,
      std::vector<ColumnPtr>{std::make_shared<Column>(std::move(partkey)),
                             std::make_shared<Column>(std::move(suppkey)),
                             std::make_shared<Column>(std::move(supplycost))},
      home_node_);
}

TablePtr TpchGenerator::Orders() {
  const uint64_t n = NumOrders();
  std::vector<int64_t> key(n), custkey(n);
  std::vector<int32_t> orderdate(n);
  o_orderdate_.assign(n, 0);
  Rng rng(seed_ ^ 0x01ULL);
  const uint64_t customers = NumCustomer();
  for (uint64_t i = 0; i < n; ++i) {
    key[i] = static_cast<int64_t>(i) + 1;
    custkey[i] = static_cast<int64_t>(rng.Below(customers)) + 1;
    const int64_t day = static_cast<int64_t>(rng.Below(kOrderDateSpan));
    o_orderdate_[i] = static_cast<int32_t>(day);  // day index, cached
    orderdate[i] = kGeneratedDates[day];
  }
  auto schema = std::make_shared<Schema>(std::vector<Field>{
      {"o_orderkey", DataType::kInt64},
      {"o_custkey", DataType::kInt64},
      {"o_orderdate", DataType::kInt32}});
  return std::make_shared<Table>(
      "orders", schema,
      std::vector<ColumnPtr>{std::make_shared<Column>(std::move(key)),
                             std::make_shared<Column>(std::move(custkey)),
                             std::make_shared<Column>(std::move(orderdate))},
      home_node_);
}

TablePtr TpchGenerator::Lineitem() {
  const uint64_t n = NumLineitem();
  const uint64_t orders = NumOrders();
  HAPE_CHECK(!o_orderdate_.empty())
      << "generate orders before lineitem (order dates are correlated)";
  std::vector<int64_t> orderkey(n), partkey(n), suppkey(n);
  std::vector<double> quantity(n), extendedprice(n), discount(n), tax(n);
  std::vector<int32_t> returnflag(n), linestatus(n), shipdate(n);
  Rng rng(seed_ ^ 0x11ULL);
  const uint64_t parts = NumPart();
  const int64_t suppliers = static_cast<int64_t>(NumSupplier());
  constexpr int32_t kCutoff = Date(1995, 6, 17);
  constexpr int64_t kCutoffDay = DaysFromCivil(1995, 6, 17) - kEpochDay;
  for (uint64_t i = 0; i < n; ++i) {
    // ~4 lines per order, clustered like dbgen output (lines of one order
    // are adjacent), which preserves FK integrity and date correlation.
    const uint64_t o = (i * orders) / n;
    orderkey[i] = static_cast<int64_t>(o) + 1;
    const int64_t pk = static_cast<int64_t>(rng.Below(parts)) + 1;
    partkey[i] = pk;
    suppkey[i] = PartSupp(pk, static_cast<int>(rng.Below(4)), suppliers);
    quantity[i] = 1.0 + static_cast<double>(rng.Below(50));
    extendedprice[i] = quantity[i] * (900.0 + rng.NextDouble() * 1200.0);
    discount[i] = 0.01 * static_cast<double>(rng.Below(11));  // 0.00..0.10
    tax[i] = 0.01 * static_cast<double>(rng.Below(9));        // 0.00..0.08
    // shipdate = orderdate + 1..121 days; receiptdate = shipdate + 1..30.
    const int64_t ship_day = o_orderdate_[o] + 1 +
                             static_cast<int64_t>(rng.Below(121));
    shipdate[i] = kGeneratedDates[ship_day];
    const int64_t receipt_day =
        ship_day + 1 + static_cast<int64_t>(rng.Below(30));
    // dbgen rules: returnflag from receiptdate vs 1995-06-17, linestatus
    // from shipdate — the straddle creates the small (N, F) group of Q1.
    returnflag[i] = receipt_day > kCutoffDay
                        ? kFlagN
                        : (rng.Below(2) ? kFlagR : kFlagA);
    linestatus[i] = shipdate[i] > kCutoff ? kStatusO : kStatusF;
  }
  auto schema = std::make_shared<Schema>(std::vector<Field>{
      {"l_orderkey", DataType::kInt64},
      {"l_partkey", DataType::kInt64},
      {"l_suppkey", DataType::kInt64},
      {"l_quantity", DataType::kFloat64},
      {"l_extendedprice", DataType::kFloat64},
      {"l_discount", DataType::kFloat64},
      {"l_tax", DataType::kFloat64},
      {"l_returnflag", DataType::kInt32},
      {"l_linestatus", DataType::kInt32},
      {"l_shipdate", DataType::kInt32}});
  return std::make_shared<Table>(
      "lineitem", schema,
      std::vector<ColumnPtr>{
          std::make_shared<Column>(std::move(orderkey)),
          std::make_shared<Column>(std::move(partkey)),
          std::make_shared<Column>(std::move(suppkey)),
          std::make_shared<Column>(std::move(quantity)),
          std::make_shared<Column>(std::move(extendedprice)),
          std::make_shared<Column>(std::move(discount)),
          std::make_shared<Column>(std::move(tax)),
          std::make_shared<Column>(std::move(returnflag)),
          std::make_shared<Column>(std::move(linestatus)),
          std::make_shared<Column>(std::move(shipdate))},
      home_node_);
}

}  // namespace hape::storage::tpch
