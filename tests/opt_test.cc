#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <random>
#include <set>
#include <type_traits>
#include <unordered_set>

#include "engine/engine.h"
#include "opt/cardinality.h"
#include "opt/optimizer.h"
#include "opt/stats.h"
#include "queries/tpch_queries.h"
#include "storage/tpch.h"

namespace hape::opt {
namespace {

using expr::Expr;

bool IsIdentity(const std::vector<int>& order) {
  for (size_t i = 0; i < order.size(); ++i) {
    if (order[i] != static_cast<int>(i)) return false;
  }
  return true;
}

/// Index of the pipeline named `name`, -1 when there is none.
int NodeNamed(const engine::QueryPlan& plan, const std::string& name) {
  for (size_t i = 0; i < plan.num_pipelines(); ++i) {
    if (plan.node(static_cast<int>(i)).name == name) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

// ---- statistics layer: golden values on TPC-H (SF 1 nominal) ---------------

/// One generated TPC-H instance: actual SF 0.02 costed as SF 1, shared by
/// the stats and estimator tests.
class TpchStats : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    topo_ = new sim::Topology(sim::Topology::PaperServer());
    ctx_ = new queries::TpchContext();
    ctx_->topo = topo_;
    ctx_->sf_actual = 0.02;
    ctx_->sf_nominal = 1.0;
    ASSERT_TRUE(queries::PrepareTpch(ctx_).ok());
    stats_ = new StatsCatalog();
  }

  /// The fixture catalog's entry of a generated table; reading a column
  /// of it scans that column.
  static std::shared_ptr<const TableStats> Entry(const char* table) {
    return stats_->Entry(ctx_->catalog.Get(table).value());
  }

  static const ColumnStats& Col(const char* table, const char* column) {
    const ColumnStats* cs = Entry(table)->Column(column);
    EXPECT_NE(cs, nullptr);
    return *cs;
  }

  static StatsBinding Bind(const char* table,
                           const std::vector<std::string>& columns) {
    return BindColumns(Entry(table), columns);
  }

  static sim::Topology* topo_;
  static queries::TpchContext* ctx_;
  static StatsCatalog* stats_;
};
sim::Topology* TpchStats::topo_ = nullptr;
queries::TpchContext* TpchStats::ctx_ = nullptr;
StatsCatalog* TpchStats::stats_ = nullptr;

TEST_F(TpchStats, RowCountsScaleToNominal) {
  // Stats hold the stored rows; the nominal view is rows x a plan's scale.
  EXPECT_EQ(Entry("lineitem")->actual_rows(), 120024u);
  EXPECT_EQ(Entry("orders")->actual_rows(), 30000u);
  EXPECT_EQ(Entry("customer")->actual_rows(), 3000u);
}

TEST_F(TpchStats, KeyNdvsAreExact) {
  // Primary keys: NDV equals the table's row count.
  EXPECT_EQ(Col("orders", "o_orderkey").ndv, 30000u);
  EXPECT_EQ(Col("customer", "c_custkey").ndv, 3000u);
  EXPECT_EQ(Col("supplier", "s_suppkey").ndv, 200u);
  EXPECT_EQ(Col("nation", "n_nationkey").ndv, 25u);
  // Foreign keys: NDV equals the referenced table's cardinality.
  EXPECT_EQ(Col("lineitem", "l_orderkey").ndv, 30000u);
  EXPECT_EQ(Col("lineitem", "l_suppkey").ndv, 200u);
  EXPECT_EQ(Col("lineitem", "l_partkey").ndv, 4000u);
}

TEST_F(TpchStats, DomainNdvsAreNarrow) {
  EXPECT_EQ(Col("lineitem", "l_returnflag").ndv, 3u);
  EXPECT_EQ(Col("lineitem", "l_linestatus").ndv, 2u);
  EXPECT_EQ(Col("lineitem", "l_quantity").ndv, 50u);
  EXPECT_EQ(Col("lineitem", "l_discount").ndv, 11u);
  EXPECT_EQ(Col("nation", "n_regionkey").ndv, 5u);
  // ~2400 order dates over the 7 generated years.
  EXPECT_GT(Col("orders", "o_orderdate").ndv, 2000u);
  EXPECT_LT(Col("orders", "o_orderdate").ndv, 2600u);
}

TEST_F(TpchStats, DateRangeSelectivity) {
  const StatsBinding binding =
      Bind("orders", {"o_orderkey", "o_custkey", "o_orderdate"});
  auto pred = Expr::And(Expr::Ge(Expr::Col(2), Expr::Int(19940101)),
                        Expr::Lt(Expr::Col(2), Expr::Int(19950101)));
  // One of seven generated years; the yyyymmdd interpolation lands close.
  const double sel = EstimateSelectivity(*pred, binding);
  EXPECT_NEAR(sel, 1.0 / 7, 0.03);
  // The naive independence estimate would square the range fraction
  // (~0.31); the range-conjunction rule must not.
  EXPECT_LT(sel, 0.2);
}

TEST_F(TpchStats, Q6PredicateSelectivity) {
  const StatsBinding binding =
      Bind("lineitem", {"l_shipdate", "l_discount", "l_quantity"});
  auto pred = Expr::And(
      Expr::And(Expr::Ge(Expr::Col(0), Expr::Int(19940101)),
                Expr::Lt(Expr::Col(0), Expr::Int(19950101))),
      Expr::And(Expr::Between(Expr::Col(1), Expr::Double(0.0499),
                              Expr::Double(0.0701)),
                Expr::Lt(Expr::Col(2), Expr::Double(24.0))));
  // True selectivity at this sample is ~0.0195.
  EXPECT_NEAR(EstimateSelectivity(*pred, binding), 0.0195, 0.01);
}

TEST_F(TpchStats, EqualityAndBooleanRules) {
  const StatsBinding binding = Bind("nation", {"n_nationkey", "n_regionkey"});
  // 1/NDV equality.
  EXPECT_DOUBLE_EQ(
      EstimateSelectivity(*Expr::Eq(Expr::Col(1), Expr::Int(2)), binding),
      0.2);
  // NOT inverts.
  EXPECT_DOUBLE_EQ(
      EstimateSelectivity(*Expr::Not(Expr::Eq(Expr::Col(1), Expr::Int(2))),
                          binding),
      0.8);
  // OR uses inclusion-exclusion.
  auto either = Expr::Or(Expr::Eq(Expr::Col(1), Expr::Int(2)),
                         Expr::Eq(Expr::Col(1), Expr::Int(3)));
  EXPECT_NEAR(EstimateSelectivity(*either, binding), 0.2 + 0.2 - 0.04, 1e-12);
  // Column-column equality: 1/max(ndv).
  EXPECT_DOUBLE_EQ(
      EstimateSelectivity(*Expr::Eq(Expr::Col(0), Expr::Col(1)), binding),
      1.0 / 25);
  // Unbound columns fall back to the default.
  const StatsBinding unbound(1);
  EXPECT_DOUBLE_EQ(
      EstimateSelectivity(*Expr::Eq(Expr::Col(0), Expr::Int(1)), unbound),
      kDefaultSelectivity);
}

TEST_F(TpchStats, CompositeKeyNdv) {
  const StatsBinding binding = Bind("partsupp", {"ps_partkey", "ps_suppkey"});
  auto key = Expr::Add(Expr::Mul(Expr::Col(0), Expr::Int(100000000)),
                       Expr::Col(1));
  // 4000 parts x 200 suppliers, capped by the 16000 rows.
  EXPECT_EQ(EstimateKeyNdv(*key, binding, 16000), 16000u);
  EXPECT_EQ(EstimateKeyNdv(*Expr::Col(1), binding, 16000), 200u);
  EXPECT_EQ(EstimateKeyNdv(*Expr::Int(7), binding, 16000), 1u);
}

// ---- the typed column scan against the set-based reference -----------------

/// The row-at-a-time pass the typed scan replaced: every value of column
/// `c` read through GetDouble into an unordered_set of its bit pattern,
/// min/max folded in row order.
ColumnStats ReferenceCollect(const storage::Table& table, int c) {
  const storage::Column& col = *table.column(c);
  ColumnStats cs;
  cs.name = table.schema().field(c).name;
  cs.row_count = col.size();
  std::unordered_set<uint64_t> distinct;
  distinct.reserve(col.size());
  for (size_t i = 0; i < col.size(); ++i) {
    const double v = col.GetDouble(i);
    if (!cs.has_range) {
      cs.min_value = cs.max_value = v;
      cs.has_range = true;
    } else {
      cs.min_value = std::min(cs.min_value, v);
      cs.max_value = std::max(cs.max_value, v);
    }
    distinct.insert(std::bit_cast<uint64_t>(v));
  }
  cs.ndv = distinct.size();
  return cs;
}

/// Field by field, min/max compared as bit patterns (NaN, -0.0).
void ExpectSameStats(const ColumnStats& want, const ColumnStats& got) {
  SCOPED_TRACE(want.name);
  EXPECT_EQ(got.name, want.name);
  EXPECT_EQ(got.row_count, want.row_count);
  EXPECT_EQ(got.ndv, want.ndv);
  EXPECT_EQ(got.has_range, want.has_range);
  EXPECT_EQ(std::bit_cast<uint64_t>(got.min_value),
            std::bit_cast<uint64_t>(want.min_value));
  EXPECT_EQ(std::bit_cast<uint64_t>(got.max_value),
            std::bit_cast<uint64_t>(want.max_value));
}

/// Reads `table`'s columns one at a time from a fresh catalog entry, each
/// against the reference; a read scans its column and no later one.
void ExpectColumnReadsMatchReference(const storage::TablePtr& table) {
  SCOPED_TRACE(table->name());
  StatsCatalog stats;
  const std::shared_ptr<const TableStats> entry = stats.Entry(table);
  EXPECT_EQ(entry->actual_rows(), table->num_rows());
  for (int c = 0; c < table->num_columns(); ++c) {
    const std::string& name = table->schema().field(c).name;
    EXPECT_EQ(entry->Scanned(name), nullptr);
    ExpectSameStats(ReferenceCollect(*table, c), entry->Column(c));
    EXPECT_EQ(entry->Scanned(name), &entry->Column(c));
  }
}

/// `n` values in runs of equal neighbours, each run drawn from `specials`
/// or from `fresh` (a random value of the column's type).
template <typename T, typename Fresh>
std::vector<T> GenerateRuns(std::mt19937_64* rng, size_t n,
                            const std::vector<T>& specials, Fresh fresh) {
  std::vector<T> out;
  out.reserve(n);
  while (out.size() < n) {
    const T v = (*rng)() % 3 == 0 ? specials[(*rng)() % specials.size()]
                                  : fresh();
    const size_t run = (*rng)() % 4 == 0 ? 1 + (*rng)() % 16 : 1;
    for (size_t i = 0; i < run && out.size() < n; ++i) out.push_back(v);
  }
  return out;
}

TEST(StatsCollect, TypedPassMatchesSetPassOnGeneratedColumns) {
  std::mt19937_64 rng(20261019);
  const auto f64 = [](uint64_t bits) { return std::bit_cast<double>(bits); };
  const std::vector<double> f64_specials{
      0.0, -0.0, 1.0, -1.0, 0.5, 1e300, -1e300,
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::denorm_min(),
      f64(0x7ff8000000000000ULL),  // quiet NaN
      f64(0xfff8000000000000ULL),  // negative quiet NaN
      f64(0x7ff0000000000001ULL),  // NaN with a payload
      f64(0xffffffffffffffffULL),  // all ones: a negative NaN
  };
  const int64_t two53 = int64_t{1} << 53;
  const std::vector<int64_t> i64_specials{
      0, -1, 7, two53, two53 + 1, two53 + 2, -two53 - 1,
      std::numeric_limits<int64_t>::min(), std::numeric_limits<int64_t>::max(),
      std::numeric_limits<int64_t>::max() - 1};
  const std::vector<int32_t> i32_specials{
      0, -1, 7, std::numeric_limits<int32_t>::min(),
      std::numeric_limits<int32_t>::max()};

  for (int trial = 0; trial < 600; ++trial) {
    // Mostly short columns; every fifth is long enough to grow the set,
    // every 50th is empty.
    const size_t max_rows = trial % 5 == 0 ? 5000 : 300;
    const size_t n = trial % 50 == 0 ? 0 : rng() % max_rows;
    // Narrow draws repeat values without being neighbours.
    const uint64_t domain = trial % 2 == 0 ? 50 : ~uint64_t{0};
    auto col = [&](int kind) -> storage::ColumnPtr {
      switch (kind) {
        case 0:
          return std::make_shared<storage::Column>(GenerateRuns<int32_t>(
              &rng, n, i32_specials,
              [&] { return static_cast<int32_t>(rng() % domain); }));
        case 1:
          return std::make_shared<storage::Column>(GenerateRuns<int64_t>(
              &rng, n, i64_specials,
              [&] { return static_cast<int64_t>(rng() % domain); }));
        default:
          return std::make_shared<storage::Column>(GenerateRuns<double>(
              &rng, n, f64_specials, [&] {
                return domain == 50 ? static_cast<double>(rng() % 50) * 0.25
                                    : f64(rng());
              }));
      }
    };
    // Not "t" + std::to_string(trial): GCC 12's -Wrestrict misfires on it.
    const auto table = std::make_shared<storage::Table>(
        std::string("t").append(std::to_string(trial)),
        std::make_shared<storage::Schema>(std::vector<storage::Field>{
            {"a", storage::DataType::kInt32},
            {"b", storage::DataType::kInt64},
            {"c", storage::DataType::kFloat64}}),
        std::vector<storage::ColumnPtr>{col(0), col(1), col(2)});
    ExpectColumnReadsMatchReference(table);
    if (HasFailure()) return;  // one failing trial is enough to read
  }
}

/// A one-column table "t" of `values`.
template <typename T>
storage::TablePtr OneColumnTable(std::vector<T> values) {
  const storage::DataType type =
      std::is_same_v<T, int32_t>   ? storage::DataType::kInt32
      : std::is_same_v<T, int64_t> ? storage::DataType::kInt64
                                   : storage::DataType::kFloat64;
  return std::make_shared<storage::Table>(
      "t",
      std::make_shared<storage::Schema>(
          std::vector<storage::Field>{{"a", type}}),
      std::vector<storage::ColumnPtr>{
          std::make_shared<storage::Column>(std::move(values))});
}

TEST(StatsCollect, IncreasingColumnsMatchSetPass) {
  // Strictly increasing columns take the one-compare-pass shortcut; the
  // near misses (a repeat or a NaN in the middle, -0.0 before 0.0, int64
  // neighbours that widen to one double) must fall through to the set.
  std::mt19937_64 rng(20261020);
  const auto f64 = [](uint64_t bits) { return std::bit_cast<double>(bits); };
  const double inf = std::numeric_limits<double>::infinity();
  const int64_t two53 = int64_t{1} << 53;
  /// `n` distinct draws in increasing order, between `lo` and `hi`.
  const auto rising = [](size_t n, auto lo, auto hi, auto draw) {
    std::set<decltype(draw())> set{lo, hi};
    while (set.size() < n) set.insert(draw());
    return std::vector<decltype(draw())>(set.begin(), set.end());
  };
  const std::vector<int32_t> i32 = rising(
      2000, std::numeric_limits<int32_t>::min(),
      std::numeric_limits<int32_t>::max(),
      [&] { return static_cast<int32_t>(rng()); });
  const std::vector<int64_t> i64 = rising(
      2000, std::numeric_limits<int64_t>::min(),
      std::numeric_limits<int64_t>::max(),
      [&] { return static_cast<int64_t>(rng()); });
  // Finite draws between -inf and +inf.
  const std::vector<double> f64s = rising(2000, -inf, inf, [&] {
    const double v = f64(rng());
    return std::isfinite(v) ? v : 0.0;
  });
  std::vector<int64_t> across53;  // every int64 around 2^53
  for (int64_t v = two53 - 300; v < two53 + 300; ++v) across53.push_back(v);
  const auto with_repeat = [](auto v) {
    v.insert(v.begin() + v.size() / 2, v[v.size() / 2]);
    return v;
  };
  std::vector<double> with_nan = f64s;
  with_nan.insert(with_nan.begin() + 1000, f64(0x7ff8000000000000ULL));

  for (const storage::TablePtr& table : {
           OneColumnTable(i32),
           OneColumnTable(i64),
           OneColumnTable(f64s),
           OneColumnTable(across53),
           OneColumnTable(std::vector<int64_t>{two53 - 1, two53, two53 + 1}),
           OneColumnTable(with_repeat(i32)),
           OneColumnTable(with_repeat(i64)),
           OneColumnTable(with_repeat(f64s)),
           OneColumnTable(with_nan),
           OneColumnTable(std::vector<double>{-1.0, -0.0, 0.0, 1.0}),
           OneColumnTable(std::vector<int32_t>{7}),
           OneColumnTable(std::vector<int64_t>{two53 + 1}),
           OneColumnTable(std::vector<double>{f64(0xfff8000000000000ULL)}),
           OneColumnTable(std::vector<int32_t>{}),
           OneColumnTable(std::vector<int64_t>{}),
           OneColumnTable(std::vector<double>{}),
       }) {
    ExpectColumnReadsMatchReference(table);
    if (HasFailure()) return;
  }
}

TEST_F(TpchStats, TypedPassMatchesSetPassOnEveryTable) {
  for (const std::string& name : ctx_->catalog.TableNames()) {
    ExpectColumnReadsMatchReference(ctx_->catalog.Get(name).value());
  }
}

TEST_F(TpchStats, ScanAtAnotherScaleKeepsTheFirstCollection) {
  // A stand-in with the name and row count of orders and a constant key.
  // The estimator collects it on first sight; a later scan of the real
  // orders at another scale must read that entry, not re-collect.
  const storage::TablePtr orders = ctx_->catalog.Get("orders").value();
  const auto standin = std::make_shared<storage::Table>(
      "orders",
      std::make_shared<storage::Schema>(std::vector<storage::Field>{
          {"o_orderkey", storage::DataType::kInt64}}),
      std::vector<storage::ColumnPtr>{std::make_shared<storage::Column>(
          std::vector<int64_t>(orders->num_rows(), 7))});
  StatsCatalog stats;
  CardinalityEstimator est(&stats);
  for (const auto& [table, scale] :
       {std::pair{standin, 1.0}, std::pair{orders, ctx_->scale()}}) {
    engine::PlanBuilder b("scan");
    b.Scan(table, {"o_orderkey"}, 1 << 16)
        .Scale(scale)
        .Aggregate(nullptr, {engine::AggDef{engine::AggOp::kCount, nullptr}});
    engine::QueryPlan plan = std::move(b).Build();
    ASSERT_TRUE(est.EstimatePlan(plan).ok());
  }
  ASSERT_EQ(stats.num_tables(), 1u);
  EXPECT_EQ(stats.Get("orders")->Column("o_orderkey")->ndv, 1u);
}

TEST_F(TpchStats, EstimatesReadTheTableFirstSeenUnderAName) {
  // As above, but no estimate reads the stand-in's key until a later plan
  // builds on the real orders' key: that read scans the entry's table, the
  // stand-in, not the table the current scan names.
  const storage::TablePtr orders = ctx_->catalog.Get("orders").value();
  const auto standin = std::make_shared<storage::Table>(
      "orders",
      std::make_shared<storage::Schema>(std::vector<storage::Field>{
          {"o_orderkey", storage::DataType::kInt64}}),
      std::vector<storage::ColumnPtr>{std::make_shared<storage::Column>(
          std::vector<int64_t>(orders->num_rows(), 7))});
  const engine::AggDef count{engine::AggOp::kCount, nullptr};
  StatsCatalog stats;
  CardinalityEstimator est(&stats);
  engine::PlanBuilder first("count");
  first.Scan(standin, {"o_orderkey"}, 1 << 16).Aggregate(nullptr, {count});
  ASSERT_TRUE(est.EstimatePlan(std::move(first).Build()).ok());
  ASSERT_EQ(stats.Get("orders")->Scanned("o_orderkey"), nullptr);

  engine::PlanBuilder second("join");
  auto build = second.Scan(orders, {"o_orderkey"}, 1 << 16)
                   .Scale(ctx_->scale())
                   .HashBuild(Expr::Col(0), {});
  auto probe = second.Scan(orders, {"o_orderkey"}, 1 << 16)
                   .Scale(ctx_->scale());
  probe.Probe(build, Expr::Col(0));
  probe.Aggregate(nullptr, {count});
  auto pe = est.EstimatePlan(std::move(second).Build());
  ASSERT_TRUE(pe.ok()) << pe.status().ToString();
  EXPECT_DOUBLE_EQ(pe.value().nodes[0].key_domain_ndv, 1.0);
  const ColumnStats* key = stats.Get("orders")->Scanned("o_orderkey");
  ASSERT_NE(key, nullptr);
  EXPECT_EQ(key->ndv, 1u);
}

TEST_F(TpchStats, OptimizingTheSuiteScansOnlyTheColumnsEstimatesRead) {
  // Filters and build keys read 14 columns of the suite's tables; no other
  // column (l_extendedprice, the costliest, among them) is ever scanned.
  StatsCatalog stats;
  Optimizer optimizer(topo_, &stats);
  const engine::ExecutionPolicy policy = engine::ExecutionPolicy::ForConfig(
      *topo_, engine::EngineConfig::kProteusHybrid);
  for (const queries::BuildFn build :
       {queries::BuildQ1Plan, queries::BuildQ3Plan, queries::BuildQ5Plan,
        queries::BuildQ6Plan, queries::BuildQ9Plan}) {
    Result<queries::BuiltQuery> q = build(ctx_);
    ASSERT_TRUE(q.ok()) << q.status().ToString();
    auto result = optimizer.OptimizePlan(&q.value().plan, policy);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
  }
  std::set<std::pair<std::string, std::string>> scanned;
  for (const std::string& name : ctx_->catalog.TableNames()) {
    const TableStats* ts = stats.Get(name);
    if (ts == nullptr) continue;
    for (const storage::Field& f :
         ctx_->catalog.Get(name).value()->schema().fields()) {
      if (ts->Scanned(f.name) != nullptr) scanned.emplace(name, f.name);
    }
  }
  const std::set<std::pair<std::string, std::string>> read{
      {"customer", "c_custkey"},   {"customer", "c_mktsegment"},
      {"customer", "c_nationkey"}, {"lineitem", "l_discount"},
      {"lineitem", "l_quantity"},  {"lineitem", "l_shipdate"},
      {"nation", "n_nationkey"},   {"nation", "n_regionkey"},
      {"orders", "o_orderdate"},   {"orders", "o_orderkey"},
      {"partsupp", "ps_partkey"},  {"partsupp", "ps_suppkey"},
      {"supplier", "s_nationkey"}, {"supplier", "s_suppkey"}};
  EXPECT_EQ(scanned, read);
}

// ---- cardinality propagation ------------------------------------------------

TEST_F(TpchStats, PropagatesThroughFilterAndJoin) {
  auto orders = ctx_->catalog.Get("orders").value();
  auto lineitem = ctx_->catalog.Get("lineitem").value();

  engine::PlanBuilder b("card");
  auto ords =
      b.Scan(orders, {"o_orderkey", "o_custkey", "o_orderdate"}, 1 << 16)
          .Scale(ctx_->scale())
          .Filter(Expr::And(Expr::Ge(Expr::Col(2), Expr::Int(19940101)),
                            Expr::Lt(Expr::Col(2), Expr::Int(19950101))))
          .HashBuild(Expr::Col(0), {1});
  auto probe = b.Scan(lineitem, {"l_orderkey", "l_extendedprice"}, 1 << 16)
                   .Scale(ctx_->scale());
  probe.Probe(ords, Expr::Col(0));
  probe.Aggregate(nullptr, {engine::AggDef{engine::AggOp::kSum,
                                           Expr::Col(1)}});
  engine::QueryPlan plan = std::move(b).Build();

  StatsCatalog stats;
  CardinalityEstimator est(&stats);
  auto pe = est.EstimatePlan(plan);
  ASSERT_TRUE(pe.ok()) << pe.status().ToString();
  const NodeEstimate& build = pe.value().nodes[0];
  const NodeEstimate& prb = pe.value().nodes[1];
  // ~16.5% of orders survive the 1994 filter.
  EXPECT_NEAR(build.out_rows / build.source_rows, 0.1647, 0.005);
  EXPECT_DOUBLE_EQ(build.key_domain_ndv, 30000.0);
  // PK-FK probe: the probe stream shrinks by the same fraction.
  EXPECT_NEAR(prb.out_rows / prb.source_rows, 0.1647, 0.005);
}

// ---- ordering DP ------------------------------------------------------------

TEST(OrderOps, HoistsSelectiveFilter) {
  // op0: probe (factor 1), op1: cheap filter keeping 10%.
  const std::vector<double> factors{1.0, 0.1};
  const std::vector<double> weights{16.0, 2.0};
  const std::vector<std::vector<int>> deps{{}, {}};
  const auto order = Optimizer::OrderOps(factors, weights, deps, 1);
  EXPECT_EQ(order, (std::vector<int>{1, 0}));
}

TEST(OrderOps, RespectsDependencies) {
  // op1 is very selective but references op0's output columns.
  const std::vector<double> factors{1.0, 0.01};
  const std::vector<double> weights{16.0, 2.0};
  const std::vector<std::vector<int>> deps{{}, {0}};
  const auto order = Optimizer::OrderOps(factors, weights, deps, 1);
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
}

TEST(OrderOps, TiesKeepDeclarationOrder) {
  const std::vector<double> factors{1.0, 1.0, 1.0};
  const std::vector<double> weights{16.0, 16.0, 16.0};
  const std::vector<std::vector<int>> deps{{}, {}, {}};
  const auto order = Optimizer::OrderOps(factors, weights, deps, 3);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(OrderOps, MostReducingJoinFirst) {
  const std::vector<double> factors{1.0, 0.15, 0.5};
  const std::vector<double> weights{16.0, 16.0, 16.0};
  const std::vector<std::vector<int>> deps{{}, {}, {}};
  const auto order = Optimizer::OrderOps(factors, weights, deps, 3);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 0}));
}

TEST(OrderOps, ExpensiveProbeDoesNotJumpCheapFilter) {
  // A mildly reducing probe (0.2) vs a later cheap very-selective filter
  // (0.04) that depends on another probe: with probe >> filter weights the
  // probe must not be hoisted above the filter position chain.
  // ops: 0 probe(1.0), 1 probe(0.2), 2 filter(0.04) dep on 0.
  const std::vector<double> factors{1.0, 0.2, 0.04};
  const std::vector<double> weights{16.0, 16.0, 2.0};
  const std::vector<std::vector<int>> deps{{}, {}, {0}};
  const auto order = Optimizer::OrderOps(factors, weights, deps, 2);
  // Filter right after its dependency, before the 0.2 probe.
  EXPECT_EQ(order, (std::vector<int>{0, 2, 1}));
}

TEST(OrderOps, GreedyFallbackBeyondDpBound) {
  // A costly probe that reduces a little more than a cheap one: the DP
  // weighs it and runs the cheap one first, greedy orders by factor alone.
  const std::vector<double> factors{1.0, 0.5, 0.6, 1.0, 1.0,
                                    1.0, 1.0, 1.0, 1.0};
  const std::vector<double> weights{16.0, 100.0, 1.0, 16.0, 16.0,
                                    16.0, 16.0, 16.0, 16.0};
  const std::vector<std::vector<int>> deps(factors.size());
  // Up to 8 probes the exact DP orders the pipeline...
  EXPECT_EQ(Optimizer::OrderOps(factors, weights, deps, 8),
            (std::vector<int>{2, 1, 0, 3, 4, 5, 6, 7, 8}));
  // ...beyond that the greedy fallback does.
  EXPECT_EQ(Optimizer::OrderOps(factors, weights, deps, 9),
            (std::vector<int>{1, 2, 0, 3, 4, 5, 6, 7, 8}));
}

// ---- cost model -------------------------------------------------------------

TEST(CostModel, GpuSetupMakesTinyPipelinesCpuBound) {
  sim::Topology topo = sim::Topology::PaperServer();
  const std::vector<int> cpus = topo.CpuDeviceIds();
  const std::vector<int> gpus = topo.GpuDeviceIds();
  std::vector<int> all = cpus;
  all.insert(all.end(), gpus.begin(), gpus.end());
  // Tiny pipeline: the fixed GPU setup dominates.
  EXPECT_LT(CostModel::PipelineSeconds(topo, cpus, 1 << 20, 1 << 10),
            CostModel::PipelineSeconds(topo, all, 1 << 20, 1 << 10));
  // Huge pipeline: aggregate bandwidth wins.
  EXPECT_GT(CostModel::PipelineSeconds(topo, cpus, 64ull << 30, 1 << 10),
            CostModel::PipelineSeconds(topo, all, 64ull << 30, 1 << 10));
  EXPECT_TRUE(std::isinf(CostModel::PipelineSeconds(topo, {}, 1, 1)));
}

// Placement is the policy's: Optimize pins no pipeline (a tiny probe stays
// on the hybrid set although the CPU subset prices cheaper) and keeps a
// hand-set run_on.
TEST_F(TpchStats, OptimizeKeepsPolicyAndHandPlacements) {
  auto nation = ctx_->catalog.Get("nation").value();
  const auto tiny_join = [&](const std::vector<int>& run_on) {
    engine::PlanBuilder b("placement");
    auto build = b.Scan(nation, {"n_nationkey", "n_name"}, 1 << 10)
                     .Scale(ctx_->scale())
                     .HashBuild(Expr::Col(0), {1});
    auto probe = b.Scan(nation, {"n_nationkey", "n_regionkey"}, 1 << 10)
                     .Scale(ctx_->scale());
    if (!run_on.empty()) probe.OnDevices(run_on);
    probe.Probe(build, Expr::Col(0));
    probe.Aggregate(nullptr,
                    {engine::AggDef{engine::AggOp::kCount, nullptr}});
    return std::move(b).Build();
  };
  const engine::ExecutionPolicy policy = engine::ExecutionPolicy::ForConfig(
      *topo_, engine::EngineConfig::kProteusHybrid);
  engine::Engine eng(topo_);
  for (const std::vector<int>& run_on :
       {std::vector<int>{}, topo_->GpuDeviceIds()}) {
    engine::QueryPlan plan = tiny_join(run_on);
    auto result = eng.Optimize(&plan, policy);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(plan.node(1).run_on, run_on);
    topo_->Reset();
    auto run = eng.Run(&plan, policy);
    EXPECT_TRUE(run.ok()) << run.status().ToString();
  }
}

TEST_F(TpchStats, CollectSinkPipelinesAreNeverReordered) {
  // CollectSink exposes packets in declaration layout; a probe reorder
  // would silently permute the observable columns, so the optimizer must
  // leave such pipelines alone even when reordering would pay.
  topo_->Reset();
  auto lineitem = ctx_->catalog.Get("lineitem").value();
  auto orders = ctx_->catalog.Get("orders").value();
  auto supplier = ctx_->catalog.Get("supplier").value();
  engine::PlanBuilder b("collect");
  auto ords =
      b.Scan(orders, {"o_orderkey", "o_custkey", "o_orderdate"}, 1 << 14)
          .Scale(ctx_->scale())
          .Filter(Expr::And(Expr::Ge(Expr::Col(2), Expr::Int(19940101)),
                            Expr::Lt(Expr::Col(2), Expr::Int(19950101))))
          .HashBuild(Expr::Col(0), {1});
  auto supp = b.Scan(supplier, {"s_suppkey", "s_nationkey"}, 1 << 14)
                  .Scale(ctx_->scale())
                  .HashBuild(Expr::Col(0), {1});
  auto probe = b.Scan(lineitem, {"l_orderkey", "l_suppkey"}, 1 << 14)
                   .Scale(ctx_->scale());
  // Declared with the non-reducing supplier probe first: a remappable
  // sink would get this flipped, Collect must not.
  probe.Named("collect-probe")
      .Probe(supp, Expr::Col(1))
      .Probe(ords, Expr::Col(0));
  auto collect = probe.Collect();
  engine::QueryPlan plan = std::move(b).Build();

  engine::Engine eng(topo_);
  engine::ExecutionPolicy policy = engine::ExecutionPolicy::ForConfig(
      *topo_, engine::EngineConfig::kProteusCpu);
  auto result = eng.Optimize(&plan, policy);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  for (size_t i = 0; i < plan.num_pipelines(); ++i) {
    EXPECT_TRUE(IsIdentity(result.value().op_order[i]))
        << plan.node(static_cast<int>(i)).name;
  }
  // The plan still probes supplier (pipeline 1) first.
  EXPECT_EQ(plan.node(2).ops.front().build, 1);
  ASSERT_TRUE(eng.Run(&plan, policy).ok());
  // Declared layout: s_nationkey at column 2, o_custkey at column 3.
  ASSERT_FALSE(collect.batches().empty());
  EXPECT_EQ(collect.batches()[0].num_columns(), 4);
}

// ---- end-to-end optimizer decisions on Q5 -----------------------------------

class OptimizerQ5 : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    topo_ = new sim::Topology(sim::Topology::PaperServer());
    ctx_ = new queries::TpchContext();
    ctx_->topo = topo_;
    ctx_->sf_actual = 0.01;
    ctx_->sf_nominal = 100.0;
    ASSERT_TRUE(queries::PrepareTpch(ctx_).ok());
  }
  void SetUp() override {
    topo_->Reset();
    ctx_->plan_mode = queries::PlanMode::kOptimized;
  }
  static sim::Topology* topo_;
  static queries::TpchContext* ctx_;
};
sim::Topology* OptimizerQ5::topo_ = nullptr;
queries::TpchContext* OptimizerQ5::ctx_ = nullptr;

TEST_F(OptimizerQ5, ReordersTheScrambledProbeChain) {
  auto bq = queries::BuildQ5Plan(ctx_);
  ASSERT_TRUE(bq.ok()) << bq.status().ToString();
  engine::QueryPlan& plan = bq.value().plan;
  engine::Engine eng(topo_);
  const engine::ExecutionPolicy policy = engine::ExecutionPolicy::ForConfig(
      *topo_, engine::EngineConfig::kProteusCpu);
  const auto r = eng.Optimize(&plan, policy);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const int probe = NodeNamed(plan, "q5-probe");
  ASSERT_GE(probe, 0);
  const std::vector<int>& order = r.value().op_order[probe];
  ASSERT_EQ(order.size(), 5u);
  // Declared: supp(0), ords(1), cust(2), asia(3), filter(4). The DP puts
  // the selective orders join first and the tiny ASIA probe after the
  // nation-equality filter.
  EXPECT_EQ(order.front(), 1);
  EXPECT_EQ(order[3], 4);
  EXPECT_EQ(order.back(), 3);
  // The plan holds the chain in that order.
  const std::vector<engine::LogicalOp>& ops = plan.node(probe).ops;
  EXPECT_EQ(ops.front().build, NodeNamed(plan, "orders"));
  EXPECT_EQ(ops[3].kind, engine::LogicalOp::Kind::kFilter);
  EXPECT_EQ(ops.back().build, NodeNamed(plan, "nation"));
}

TEST_F(OptimizerQ5, DerivesHeavyMarksAndSizing) {
  auto bq = queries::BuildQ5Plan(ctx_);
  ASSERT_TRUE(bq.ok()) << bq.status().ToString();
  engine::QueryPlan& plan = bq.value().plan;
  engine::Engine eng(topo_);
  const engine::ExecutionPolicy policy = engine::ExecutionPolicy::ForConfig(
      *topo_, engine::EngineConfig::kProteusHybrid);
  ASSERT_TRUE(eng.Optimize(&plan, policy).ok());
  const auto build = [&plan](const char* name) -> const auto& {
    const int i = NodeNamed(plan, name);
    HAPE_CHECK(i >= 0) << name;
    return plan.node(i).terminal;
  };
  // Heavy: customer (~15M rows) and filtered orders (~25M); light:
  // supplier (1M) and the ASIA nations.
  EXPECT_TRUE(build("customer").heavy);
  EXPECT_TRUE(build("orders").heavy);
  EXPECT_FALSE(build("supplier").heavy);
  EXPECT_FALSE(build("nation").heavy);
  // Bucket counts reproduce the hand-declared sizing brackets.
  EXPECT_EQ(build("nation").ht_buckets, 32u);
  EXPECT_EQ(build("supplier").ht_buckets, 128u);
  EXPECT_EQ(build("customer").ht_buckets, 2048u);
  EXPECT_EQ(build("orders").ht_buckets, 4096u);
}

TEST_F(OptimizerQ5, ExplainReportsDecisions) {
  auto lineitem = ctx_->catalog.Get("lineitem").value();
  auto orders = ctx_->catalog.Get("orders").value();
  engine::PlanBuilder b("explain-me");
  auto ords = b.Scan(orders, {"o_orderkey", "o_custkey"}, 1 << 14)
                  .Scale(ctx_->scale())
                  .HashBuild(Expr::Col(0), {1});
  auto probe =
      b.Scan(lineitem, {"l_orderkey", "l_extendedprice"}, 1 << 14)
          .Scale(ctx_->scale());
  probe.Named("probe").Probe(ords, Expr::Col(0));
  probe.Aggregate(nullptr,
                  {engine::AggDef{engine::AggOp::kSum, Expr::Col(1)}});
  engine::QueryPlan plan = std::move(b).Build();

  engine::Engine eng(topo_);
  engine::ExecutionPolicy policy = engine::ExecutionPolicy::ForConfig(
      *topo_, engine::EngineConfig::kProteusCpu);
  ASSERT_TRUE(eng.Optimize(&plan, policy).ok());
  auto run = eng.Run(&plan, policy);
  ASSERT_TRUE(run.ok()) << run.status().ToString();

  // The run document's plan is the optimized plan's document: every
  // decision Optimize wrote into the plan reads back from it.
  auto explained = eng.Explain(plan, run.value());
  ASSERT_TRUE(explained.ok()) << explained.status().ToString();
  auto parsed = JsonParser::Parse(explained.value());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const JsonValue& doc = *parsed.value().Find("plan")->Find("plan");
  EXPECT_EQ(doc.Find("name")->str(), "explain-me");
  const std::vector<JsonValue>& pipes = doc.Find("pipelines")->items();
  ASSERT_EQ(pipes.size(), 2u);
  EXPECT_EQ(pipes[0].Find("source")->Find("table")->str(), "orders");
  EXPECT_EQ(pipes[1].Find("ops")->items()[0].Find("build_pipeline")->number(),
            0.0);
  const engine::TerminalSpec& build = plan.node(0).terminal;
  const JsonValue& sink = *pipes[0].Find("sink");
  EXPECT_EQ(sink.Find("kind")->str(), "hash_build");
  EXPECT_EQ(sink.Find("heavy")->bool_value(), build.heavy);
  EXPECT_EQ(sink.Find("ht_buckets")->number(),
            static_cast<double>(build.ht_buckets));
  EXPECT_EQ(pipes[1].Find("sink")->Find("kind")->str(), "hash_agg");
  for (size_t i = 0; i < pipes.size(); ++i) {
    const engine::PlanNode& n = plan.node(static_cast<int>(i));
    const JsonValue& est = *pipes[i].Find("estimated");
    EXPECT_GT(n.est_out_rows, 0u) << n.name;
    EXPECT_EQ(est.Find("out_rows")->number(),
              static_cast<double>(n.est_out_rows));
    EXPECT_EQ(est.Find("nominal_out_rows")->number(),
              static_cast<double>(n.est_nominal_out_rows));
    EXPECT_EQ(est.Find("cost_seconds")->number(), n.est_cost_seconds);
  }
}

}  // namespace
}  // namespace hape::opt
