#include <gtest/gtest.h>

#include "codegen/kernels.h"
#include "expr/eval.h"
#include "expr/expr.h"
#include "memory/batch.h"
#include "memory/gather.h"

namespace hape::expr {
namespace {

memory::Batch MakeBatch() {
  memory::Batch b;
  b.columns = {
      std::make_shared<storage::Column>(std::vector<int64_t>{1, 2, 3, 4}),
      std::make_shared<storage::Column>(
          std::vector<double>{0.5, 1.5, 2.5, 3.5}),
      std::make_shared<storage::Column>(std::vector<int32_t>{10, 20, 30, 40}),
  };
  b.rows = 4;
  return b;
}

TEST(Expr, LiteralsAndColumns) {
  auto b = MakeBatch();
  EXPECT_DOUBLE_EQ(Eval::ScalarDouble(*Expr::Int(7), b, 0), 7.0);
  EXPECT_DOUBLE_EQ(Eval::ScalarDouble(*Expr::Double(2.25), b, 3), 2.25);
  EXPECT_DOUBLE_EQ(Eval::ScalarDouble(*Expr::Col(1), b, 2), 2.5);
  EXPECT_DOUBLE_EQ(Eval::ScalarDouble(*Expr::Col(2), b, 1), 20.0);
}

TEST(Expr, Arithmetic) {
  auto b = MakeBatch();
  auto e = Expr::Add(Expr::Mul(Expr::Col(0), Expr::Double(2.0)),
                     Expr::Col(1));  // 2k + v
  auto vals = Eval::Doubles(*e, b);
  ASSERT_EQ(vals.size(), 4u);
  EXPECT_DOUBLE_EQ(vals[0], 2.5);
  EXPECT_DOUBLE_EQ(vals[3], 11.5);
  auto d = Expr::Div(Expr::Col(2), Expr::Int(10));
  EXPECT_DOUBLE_EQ(Eval::Doubles(*d, b)[3], 4.0);
  auto s = Expr::Sub(Expr::Col(2), Expr::Col(0));
  EXPECT_DOUBLE_EQ(Eval::Doubles(*s, b)[1], 18.0);
}

TEST(Expr, ComparisonsYieldZeroOne) {
  auto b = MakeBatch();
  auto vals = Eval::Doubles(*Expr::Ge(Expr::Col(0), Expr::Int(3)), b);
  EXPECT_EQ(vals[0], 0.0);
  EXPECT_EQ(vals[2], 1.0);
  EXPECT_EQ(Eval::Doubles(*Expr::Eq(Expr::Col(0), Expr::Int(2)), b)[1], 1.0);
  EXPECT_EQ(Eval::Doubles(*Expr::Ne(Expr::Col(0), Expr::Int(2)), b)[1], 0.0);
  EXPECT_EQ(Eval::Doubles(*Expr::Lt(Expr::Col(0), Expr::Int(2)), b)[0], 1.0);
  EXPECT_EQ(Eval::Doubles(*Expr::Le(Expr::Col(0), Expr::Int(1)), b)[0], 1.0);
  EXPECT_EQ(Eval::Doubles(*Expr::Gt(Expr::Col(0), Expr::Int(3)), b)[3], 1.0);
}

TEST(Expr, BooleanLogic) {
  auto b = MakeBatch();
  auto in_range = Expr::And(Expr::Gt(Expr::Col(0), Expr::Int(1)),
                            Expr::Lt(Expr::Col(0), Expr::Int(4)));
  auto vals = Eval::Doubles(*in_range, b);
  EXPECT_EQ(vals[0], 0.0);
  EXPECT_EQ(vals[1], 1.0);
  EXPECT_EQ(vals[2], 1.0);
  EXPECT_EQ(vals[3], 0.0);
  auto either = Expr::Or(Expr::Eq(Expr::Col(0), Expr::Int(1)),
                         Expr::Eq(Expr::Col(0), Expr::Int(4)));
  EXPECT_EQ(Eval::Doubles(*either, b)[0], 1.0);
  EXPECT_EQ(Eval::Doubles(*either, b)[1], 0.0);
  EXPECT_EQ(Eval::Doubles(*Expr::Not(either), b)[1], 1.0);
}

TEST(Expr, BetweenIsInclusive) {
  auto b = MakeBatch();
  auto e = Expr::Between(Expr::Col(0), Expr::Int(2), Expr::Int(3));
  auto v = Eval::Doubles(*e, b);
  EXPECT_EQ(v[0], 0.0);
  EXPECT_EQ(v[1], 1.0);
  EXPECT_EQ(v[2], 1.0);
  EXPECT_EQ(v[3], 0.0);
}

TEST(Expr, SelectedRowsCompacts) {
  auto b = MakeBatch();
  auto sel =
      Eval::SelectedRows(*Expr::Gt(Expr::Col(1), Expr::Double(1.0)), b);
  ASSERT_EQ(sel.size(), 3u);
  EXPECT_EQ(sel[0], 1u);
  EXPECT_EQ(sel[2], 3u);
}

TEST(Expr, IntsTruncate) {
  auto b = MakeBatch();
  auto v = Eval::Ints(*Expr::Div(Expr::Col(2), Expr::Int(7)), b);
  EXPECT_EQ(v[0], 1);   // 10/7 = 1.43 -> 1
  EXPECT_EQ(v[3], 5);   // 40/7 = 5.7 -> 5
}

TEST(Expr, IntsOnColumnKeepsWidth) {
  memory::Batch b;
  b.columns = {std::make_shared<storage::Column>(
      std::vector<int64_t>{1ll << 60})};
  b.rows = 1;
  EXPECT_EQ(Eval::Ints(*Expr::Col(0), b)[0], 1ll << 60);
}

TEST(Expr, OpCountCountsOperators) {
  EXPECT_EQ(Expr::Col(0)->OpCount(), 0u);
  EXPECT_EQ(Expr::Int(1)->OpCount(), 0u);
  auto e = Expr::Mul(Expr::Col(3),
                     Expr::Sub(Expr::Double(1.0), Expr::Col(4)));
  EXPECT_EQ(e->OpCount(), 2u);
  EXPECT_EQ(Expr::Not(e)->OpCount(), 3u);
}

TEST(Expr, MaxColumn) {
  EXPECT_EQ(Expr::Int(3)->MaxColumn(), -1);
  auto e = Expr::Add(Expr::Col(2), Expr::Mul(Expr::Col(7), Expr::Col(1)));
  EXPECT_EQ(e->MaxColumn(), 7);
}

TEST(Expr, ToStringReadable) {
  auto e = Expr::Le(Expr::Col(6), Expr::Int(19980902));
  EXPECT_EQ(e->ToString(), "($6 <= 19980902)");
}

TEST(Expr, VectorizedMatchesScalar) {
  auto b = MakeBatch();
  auto e = Expr::Add(Expr::Mul(Expr::Col(1), Expr::Col(2)),
                     Expr::Div(Expr::Col(0), Expr::Double(4.0)));
  auto vec = Eval::Doubles(*e, b);
  for (size_t i = 0; i < b.rows; ++i) {
    EXPECT_DOUBLE_EQ(vec[i], Eval::ScalarDouble(*e, b, i));
  }
}

TEST(Expr, ReadsColumnsThroughTheirSelections) {
  const codegen::DataPlaneConfig saved = codegen::DataPlane();
  for (const auto mode :
       {codegen::KernelMode::kScalar, codegen::KernelMode::kVectorized}) {
    codegen::SetDataPlane({mode, 1});
    auto b = MakeBatch();
    memory::SelectRows(&b, {3, 1, 1});  // logical rows: 4, 2, 2
    EXPECT_EQ(Eval::Doubles(*Expr::Col(1), b),
              (std::vector<double>{3.5, 1.5, 1.5}));
    EXPECT_EQ(Eval::Ints(*Expr::Col(2), b),
              (std::vector<int64_t>{40, 20, 20}));
    EXPECT_EQ(Eval::Ints(*Expr::Col(0), b), (std::vector<int64_t>{4, 2, 2}));
    EXPECT_DOUBLE_EQ(Eval::ScalarDouble(*Expr::Col(2), b, 0), 40.0);
    // The fused compare+select, both operand orders, and the generic path.
    EXPECT_EQ(Eval::SelectedRows(*Expr::Lt(Expr::Col(1), Expr::Int(2)), b),
              (std::vector<uint32_t>{1, 2}));
    EXPECT_EQ(Eval::SelectedRows(*Expr::Lt(Expr::Int(30), Expr::Col(2)), b),
              (std::vector<uint32_t>{0}));
    EXPECT_EQ(Eval::SelectedRows(
                  *Expr::And(Expr::Ge(Expr::Col(0), Expr::Int(2)),
                             Expr::Lt(Expr::Col(2), Expr::Int(25))),
                  b),
              (std::vector<uint32_t>{1, 2}));
  }
  codegen::SetDataPlane(saved);
}

TEST(Expr, EmptyBatch) {
  memory::Batch b;
  b.columns = {std::make_shared<storage::Column>(storage::DataType::kInt64)};
  b.rows = 0;
  auto e = Expr::Gt(Expr::Col(0), Expr::Int(0));
  EXPECT_TRUE(Eval::Doubles(*e, b).empty());
  EXPECT_TRUE(Eval::SelectedRows(*e, b).empty());
}

}  // namespace
}  // namespace hape::expr
