#include <gtest/gtest.h>

#include <cstdlib>
#include <numeric>
#include <set>
#include <unordered_set>

#include "storage/column.h"
#include "storage/datagen.h"
#include "storage/table.h"
#include "storage/tpch.h"

namespace hape::storage {
namespace {

// ---- Column -----------------------------------------------------------------

TEST(Column, TypedConstructionAndAccess) {
  Column c(std::vector<int32_t>{1, 2, 3});
  EXPECT_EQ(c.type(), DataType::kInt32);
  EXPECT_EQ(c.size(), 3u);
  EXPECT_EQ(c.byte_size(), 12u);
  EXPECT_EQ(c.i32()[1], 2);
}

TEST(Column, WideningAccessors) {
  Column i32(std::vector<int32_t>{-5});
  Column i64(std::vector<int64_t>{1ll << 40});
  Column f64(std::vector<double>{2.5});
  EXPECT_EQ(i32.GetInt(0), -5);
  EXPECT_EQ(i64.GetInt(0), 1ll << 40);
  EXPECT_DOUBLE_EQ(i32.GetDouble(0), -5.0);
  EXPECT_DOUBLE_EQ(f64.GetDouble(0), 2.5);
  EXPECT_EQ(f64.GetInt(0), 2);
}

TEST(Column, AppendRespectsType) {
  Column c(DataType::kInt32);
  c.AppendInt(7);
  c.AppendDouble(9.9);  // truncated into int32 storage
  EXPECT_EQ(c.size(), 2u);
  EXPECT_EQ(c.i32()[0], 7);
  EXPECT_EQ(c.i32()[1], 9);
}

TEST(Column, EmptyTypedColumn) {
  Column c(DataType::kFloat64);
  EXPECT_EQ(c.size(), 0u);
  EXPECT_EQ(c.byte_size(), 0u);
}

// ---- Column views -------------------------------------------------------------

TEST(ColumnView, SharesTheOwnersStorage) {
  auto owner = std::make_shared<Column>(std::vector<int32_t>{0, 1, 2, 3, 4, 5});
  auto view = Column::Slice(owner, 2, 3);
  EXPECT_EQ(view->type(), DataType::kInt32);
  EXPECT_EQ(view->raw_data(), static_cast<const char*>(owner->raw_data()) +
                                  2 * sizeof(int32_t));
  EXPECT_EQ(view->i32().data(), owner->i32().data() + 2);
  EXPECT_EQ(view->GetInt(2), 4);
  EXPECT_DOUBLE_EQ(view->GetDouble(0), 2.0);
}

TEST(ColumnView, ReportsItsOwnSize) {
  auto owner = std::make_shared<Column>(std::vector<double>(10, 1.5));
  auto view = Column::Slice(owner, 7, 3);
  EXPECT_EQ(view->size(), 3u);
  EXPECT_EQ(view->byte_size(), 3 * sizeof(double));
  EXPECT_EQ(view->f64().size(), 3u);
  EXPECT_EQ(owner->size(), 10u);
  EXPECT_EQ(Column::Slice(owner, 10, 0)->size(), 0u);
}

TEST(ColumnView, SliceOfASlicePointsAtTheOwner) {
  std::vector<int64_t> values(100);
  std::iota(values.begin(), values.end(), 0);
  auto owner = std::make_shared<Column>(std::move(values));
  auto outer = Column::Slice(owner, 10, 50);
  auto inner = Column::Slice(outer, 5, 20);
  EXPECT_EQ(inner->i64().data(), owner->i64().data() + 15);
  EXPECT_EQ(inner->i64()[0], 15);
  EXPECT_EQ(inner->size(), 20u);
  // The inner view holds the owner, not the outer view.
  std::weak_ptr<Column> outer_alive = outer;
  outer.reset();
  EXPECT_TRUE(outer_alive.expired());
  EXPECT_EQ(inner->i64()[19], 34);
}

TEST(ColumnView, KeepsItsOwnerAlive) {
  auto owner = std::make_shared<Column>(std::vector<int64_t>{7, 8, 9});
  auto view = Column::Slice(owner, 1, 2);
  owner.reset();
  EXPECT_EQ(view->i64()[0], 8);
  EXPECT_EQ(view->i64()[1], 9);
}

TEST(ColumnView, SliceOutOfRangeDies) {
  auto owner = std::make_shared<Column>(std::vector<int64_t>{1, 2, 3});
  EXPECT_DEATH(Column::Slice(owner, 2, 2), "slice");
  EXPECT_DEATH(Column::Slice(owner, 4, 0), "slice");
}

TEST(ColumnView, EveryWriterDiesOnAView) {
  auto i32 = Column::Slice(
      std::make_shared<Column>(std::vector<int32_t>{1, 2, 3}), 0, 2);
  auto i64 = Column::Slice(
      std::make_shared<Column>(std::vector<int64_t>{1, 2, 3}), 1, 2);
  auto f64 = Column::Slice(
      std::make_shared<Column>(std::vector<double>{1, 2, 3}), 0, 3);
  const Column source(std::vector<int64_t>{4, 5});
  const char* kMessage = "read-only column view";
  EXPECT_DEATH(i32->mutable_i32(), kMessage);
  EXPECT_DEATH(i64->mutable_i64(), kMessage);
  EXPECT_DEATH(f64->mutable_f64(), kMessage);
  EXPECT_DEATH(i64->AppendInt(1), kMessage);
  EXPECT_DEATH(f64->AppendDouble(1.0), kMessage);
  EXPECT_DEATH(i64->AppendColumn(source), kMessage);
  EXPECT_DEATH(i32->AppendColumn(Column(DataType::kInt32)), kMessage);
  EXPECT_DEATH(i64->Reserve(8), kMessage);
  EXPECT_DEATH(f64->mutable_raw_data(), kMessage);
}

TEST(ColumnView, AppendColumnAppendsExactlyTheViewsValues) {
  auto i32 = std::make_shared<Column>(std::vector<int32_t>{10, 11, 12, 13});
  auto i64 = std::make_shared<Column>(std::vector<int64_t>{20, 21, 22, 23});
  auto f64 = std::make_shared<Column>(std::vector<double>{0.5, 1.5, 2.5});

  Column a(std::vector<int32_t>{-1});
  a.AppendColumn(*Column::Slice(i32, 1, 2));
  EXPECT_EQ(std::vector<int32_t>(a.i32().begin(), a.i32().end()),
            (std::vector<int32_t>{-1, 11, 12}));

  Column b(DataType::kInt64);
  b.AppendColumn(*Column::Slice(i64, 2, 2));
  EXPECT_EQ(std::vector<int64_t>(b.i64().begin(), b.i64().end()),
            (std::vector<int64_t>{22, 23}));

  Column c(DataType::kFloat64);
  c.AppendColumn(*Column::Slice(f64, 0, 2));
  EXPECT_EQ(std::vector<double>(c.f64().begin(), c.f64().end()),
            (std::vector<double>{0.5, 1.5}));

  // Mixed types widen or narrow row by row, exactly the view's rows.
  Column d(DataType::kFloat64);
  d.AppendColumn(*Column::Slice(i32, 3, 1));
  d.AppendColumn(*Column::Slice(i64, 0, 1));
  Column e(DataType::kInt32);
  e.AppendColumn(*Column::Slice(f64, 1, 2));
  EXPECT_EQ(std::vector<double>(d.f64().begin(), d.f64().end()),
            (std::vector<double>{13.0, 20.0}));
  EXPECT_EQ(std::vector<int32_t>(e.i32().begin(), e.i32().end()),
            (std::vector<int32_t>{1, 2}));
}

TEST(Types, SizesAndNames) {
  EXPECT_EQ(TypeSize(DataType::kInt32), 4u);
  EXPECT_EQ(TypeSize(DataType::kInt64), 8u);
  EXPECT_EQ(TypeSize(DataType::kFloat64), 8u);
  EXPECT_STREQ(TypeName(DataType::kInt64), "int64");
}

// ---- Schema / Table / Catalog ------------------------------------------------

TEST(Schema, IndexLookup) {
  Schema s({{"a", DataType::kInt64}, {"b", DataType::kFloat64}});
  EXPECT_EQ(s.num_fields(), 2);
  EXPECT_EQ(s.IndexOf("b"), 1);
  EXPECT_EQ(s.IndexOf("zzz"), -1);
}

TablePtr TinyTable() {
  auto schema = std::make_shared<Schema>(std::vector<Field>{
      {"k", DataType::kInt64}, {"v", DataType::kFloat64}});
  return std::make_shared<Table>(
      "tiny", schema,
      std::vector<ColumnPtr>{
          std::make_shared<Column>(std::vector<int64_t>{1, 2, 3}),
          std::make_shared<Column>(std::vector<double>{0.5, 1.5, 2.5})});
}

TEST(Table, BasicProperties) {
  auto t = TinyTable();
  EXPECT_EQ(t->num_rows(), 3u);
  EXPECT_EQ(t->num_columns(), 2);
  EXPECT_EQ(t->byte_size(), 3 * 8u + 3 * 8u);
  EXPECT_EQ(t->column("v")->f64()[2], 2.5);
  EXPECT_EQ(t->home_node(), 0);
}

TEST(Catalog, RegisterGetAndDuplicate) {
  Catalog cat;
  ASSERT_TRUE(cat.Register(TinyTable()).ok());
  EXPECT_TRUE(cat.Contains("tiny"));
  EXPECT_TRUE(cat.Get("tiny").ok());
  EXPECT_EQ(cat.Get("nope").status().code(), StatusCode::kKeyError);
  EXPECT_EQ(cat.Register(TinyTable()).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(cat.TableNames().size(), 1u);
}

// ---- generators --------------------------------------------------------------

TEST(Rng, DeterministicAndSeedSensitive) {
  Rng a(1), b(1), c(2);
  EXPECT_EQ(a.Next(), b.Next());
  Rng a2(1);
  EXPECT_NE(a2.Next(), c.Next());
}

TEST(Rng, BelowInRange) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(r.Below(17), 17u);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng r(9);
  for (int i = 0; i < 1000; ++i) {
    const double d = r.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(DataGen, UniqueShuffledIsAPermutation) {
  auto v = DataGen::UniqueShuffled(10'000, 3);
  std::set<int64_t> s(v.begin(), v.end());
  EXPECT_EQ(s.size(), v.size());
  EXPECT_EQ(*s.begin(), 0);
  EXPECT_EQ(*s.rbegin(), 9999);
}

TEST(DataGen, UniqueShuffledActuallyShuffles) {
  auto v = DataGen::UniqueShuffled(10'000, 3);
  size_t fixed = 0;
  for (size_t i = 0; i < v.size(); ++i) fixed += v[i] == (int64_t)i;
  EXPECT_LT(fixed, 30u);
}

TEST(DataGen, UniformIntRespectsBounds) {
  auto v = DataGen::UniformInt(5000, -3, 9, 11);
  for (auto x : v) {
    EXPECT_GE(x, -3);
    EXPECT_LE(x, 9);
  }
}

TEST(DataGen, UniformDoubleRespectsBounds) {
  auto v = DataGen::UniformDouble(5000, 0.05, 0.07, 11);
  for (auto x : v) {
    EXPECT_GE(x, 0.05);
    EXPECT_LT(x, 0.07);
  }
}

TEST(DataGen, ZipfSkewsTowardsSmallKeys) {
  auto v = DataGen::Zipf(50'000, 1000, 0.9, 5);
  size_t head = 0;
  for (auto x : v) {
    ASSERT_GE(x, 0);
    ASSERT_LT(x, 1000);
    head += x < 10;
  }
  // With theta=0.9 the top-10 keys draw far more than 1% of the mass.
  EXPECT_GT(head, v.size() / 10);
}

TEST(DataGen, ZipfThetaZeroIsUniform) {
  auto v = DataGen::Zipf(50'000, 100, 0.0, 5);
  std::vector<int> counts(100, 0);
  for (auto x : v) ++counts[x];
  for (int c : counts) EXPECT_GT(c, 250);  // expected 500 each
}

// ---- TPC-H generator ----------------------------------------------------------

class TpchGen : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    cat_ = new Catalog();
    tpch::TpchGenerator gen(0.01, 42);
    ASSERT_TRUE(gen.GenerateAll(cat_).ok());
  }
  static Catalog* cat_;
};
Catalog* TpchGen::cat_ = nullptr;

TEST_F(TpchGen, AllTablesPresent) {
  for (const char* name : {"lineitem", "orders", "customer", "supplier",
                           "nation", "region", "part", "partsupp"}) {
    EXPECT_TRUE(cat_->Contains(name)) << name;
  }
}

TEST_F(TpchGen, RowCountsScale) {
  EXPECT_EQ(cat_->Get("nation").value()->num_rows(), 25u);
  EXPECT_EQ(cat_->Get("region").value()->num_rows(), 5u);
  EXPECT_EQ(cat_->Get("orders").value()->num_rows(), 15'000u);
  EXPECT_NEAR(cat_->Get("lineitem").value()->num_rows(), 60'012, 5);
  EXPECT_EQ(cat_->Get("partsupp").value()->num_rows(),
            cat_->Get("part").value()->num_rows() * 4);
}

TEST_F(TpchGen, OrdersForeignKeysValid) {
  auto orders = cat_->Get("orders").value();
  const uint64_t customers = cat_->Get("customer").value()->num_rows();
  auto ck = orders->column("o_custkey")->i64();
  for (auto k : ck) {
    ASSERT_GE(k, 1);
    ASSERT_LE(k, (int64_t)customers);
  }
}

TEST_F(TpchGen, LineitemOrderkeysClusteredAndValid) {
  auto l = cat_->Get("lineitem").value();
  auto ok = l.get()->column("l_orderkey")->i64();
  const int64_t orders = cat_->Get("orders").value()->num_rows();
  int64_t prev = 1;
  for (auto k : ok) {
    ASSERT_GE(k, prev);  // clustered like dbgen output
    ASSERT_LE(k, orders);
    prev = k;
  }
}

TEST_F(TpchGen, PartsuppCoversEveryLineitemPair) {
  auto ps = cat_->Get("partsupp").value();
  std::unordered_set<int64_t> pairs;
  auto pk = ps->column("ps_partkey")->i64();
  auto sk = ps->column("ps_suppkey")->i64();
  for (size_t i = 0; i < ps->num_rows(); ++i) {
    pairs.insert(pk[i] * 1'000'000 + sk[i]);
  }
  auto l = cat_->Get("lineitem").value();
  auto lpk = l->column("l_partkey")->i64();
  auto lsk = l->column("l_suppkey")->i64();
  for (size_t i = 0; i < l->num_rows(); ++i) {
    ASSERT_TRUE(pairs.count(lpk[i] * 1'000'000 + lsk[i]))
        << "lineitem row " << i << " has no partsupp entry";
  }
}

TEST_F(TpchGen, ShipdateFollowsOrderdate) {
  auto l = cat_->Get("lineitem").value();
  auto o = cat_->Get("orders").value();
  auto ship = l->column("l_shipdate")->i32();
  auto lok = l->column("l_orderkey")->i64();
  auto odate = o->column("o_orderdate")->i32();
  for (size_t i = 0; i < l->num_rows(); i += 97) {
    EXPECT_GT(ship[i], odate[lok[i] - 1]);
  }
}

TEST_F(TpchGen, ReturnflagRuleMatchesCutoff) {
  auto l = cat_->Get("lineitem").value();
  auto ship = l->column("l_shipdate")->i32();
  auto flag = l->column("l_returnflag")->i32();
  auto status = l->column("l_linestatus")->i32();
  constexpr int32_t kCut = tpch::Date(1995, 6, 17);
  bool saw_nf = false;
  for (size_t i = 0; i < l->num_rows(); ++i) {
    if (ship[i] > kCut) {
      // Shipped after the cutoff: receipt is later still, so flag is N and
      // the line is still open.
      ASSERT_EQ(flag[i], tpch::kFlagN);
      ASSERT_EQ(status[i], tpch::kStatusO);
    } else {
      ASSERT_EQ(status[i], tpch::kStatusF);
      saw_nf |= flag[i] == tpch::kFlagN;  // receipt straddles the cutoff
    }
  }
  // The dbgen receiptdate rule produces the small (N, F) group of Q1.
  EXPECT_TRUE(saw_nf);
}

TEST_F(TpchGen, ValueDomains) {
  auto l = cat_->Get("lineitem").value();
  auto qty = l->column("l_quantity")->f64();
  auto disc = l->column("l_discount")->f64();
  auto tax = l->column("l_tax")->f64();
  for (size_t i = 0; i < l->num_rows(); i += 31) {
    EXPECT_GE(qty[i], 1.0);
    EXPECT_LE(qty[i], 50.0);
    EXPECT_GE(disc[i], 0.0);
    EXPECT_LE(disc[i], 0.10 + 1e-9);
    EXPECT_LE(tax[i], 0.08 + 1e-9);
  }
}

TEST_F(TpchGen, NationRegionMappingIsOfficial) {
  auto n = cat_->Get("nation").value();
  auto nk = n->column("n_nationkey")->i64();
  auto rk = n->column("n_regionkey")->i64();
  for (size_t i = 0; i < n->num_rows(); ++i) {
    EXPECT_EQ(rk[i], tpch::kNationRegion[nk[i]]);
  }
  // INDIA (8), INDONESIA (9), JAPAN (12), CHINA (18), VIETNAM (21) in ASIA.
  EXPECT_EQ(tpch::kNationRegion[8], tpch::kRegionAsia);
  EXPECT_EQ(tpch::kNationRegion[12], tpch::kRegionAsia);
}

TEST_F(TpchGen, DeterministicAcrossRuns) {
  Catalog other;
  tpch::TpchGenerator gen(0.01, 42);
  ASSERT_TRUE(gen.GenerateAll(&other).ok());
  auto a = cat_->Get("lineitem").value()->column("l_extendedprice")->f64();
  auto b = other.Get("lineitem").value()->column("l_extendedprice")->f64();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); i += 101) EXPECT_EQ(a[i], b[i]);
}

TEST(TpchDates, EncodeOrdersLikeDates) {
  EXPECT_LT(tpch::Date(1994, 12, 31), tpch::Date(1995, 1, 1));
  EXPECT_LT(tpch::Date(1995, 1, 31), tpch::Date(1995, 2, 1));
  EXPECT_EQ(tpch::Date(1998, 9, 2), 19980902);
}

}  // namespace
}  // namespace hape::storage
