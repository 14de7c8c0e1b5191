// Compatibility-mode guarantee of the plan optimizer: on unordered,
// unannotated plan declarations, Engine::Optimize's derived decisions (join
// order, build-side sizing, heavy marks) must reproduce the hand-declared
// plans' simulated cost sequences (Fig. 8 / Fig. 9) exactly — and join
// ordering must never change query *results*, only costs.

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <string>

#include "engine/engine.h"
#include "queries/tpch_queries.h"
#include "storage/tpch.h"

namespace hape::queries {
namespace {

using expr::Expr;

class OptimizerCompat : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    topo_ = new sim::Topology(sim::Topology::PaperServer());
    ctx_ = new TpchContext();
    ctx_->topo = topo_;
    ctx_->sf_actual = 0.01;
    ctx_->sf_nominal = 100.0;
    ASSERT_TRUE(PrepareTpch(ctx_).ok());
  }
  void SetUp() override {
    topo_->Reset();
    ctx_->partitioned_gpu_join = true;
    ctx_->plan_mode = PlanMode::kOptimized;
  }

  QueryResult RunAs(QueryFn fn, EngineConfig config, PlanMode mode) {
    topo_->Reset();
    ctx_->plan_mode = mode;
    return fn(ctx_, config);
  }

  static void ExpectIdentical(const QueryResult& hand,
                              const QueryResult& opt, const char* label) {
    ASSERT_EQ(hand.DidNotFinish(), opt.DidNotFinish())
        << label << ": " << hand.status.ToString() << " vs "
        << opt.status.ToString();
    if (hand.DidNotFinish()) {
      EXPECT_EQ(hand.status.code(), opt.status.code()) << label;
      return;
    }
    // Identical aggregate results...
    ASSERT_EQ(hand.groups.size(), opt.groups.size()) << label;
    for (const auto& [key, vals] : hand.groups) {
      auto it = opt.groups.find(key);
      ASSERT_NE(it, opt.groups.end()) << label << " missing group " << key;
      ASSERT_EQ(vals.size(), it->second.size()) << label;
      for (size_t i = 0; i < vals.size(); ++i) {
        EXPECT_NEAR(vals[i], it->second[i],
                    1e-9 * (1 + std::abs(vals[i])))
            << label << " group " << key;
      }
    }
    // ...and the exact same simulated cost sequence: end-to-end finish,
    // placement traffic, and every pipeline's per-stage record.
    EXPECT_DOUBLE_EQ(hand.seconds, opt.seconds) << label;
    EXPECT_DOUBLE_EQ(hand.exec.placement_finish, opt.exec.placement_finish)
        << label;
    EXPECT_EQ(hand.exec.broadcast_bytes, opt.exec.broadcast_bytes) << label;
    EXPECT_EQ(hand.exec.co_processed, opt.exec.co_processed) << label;
    ASSERT_EQ(hand.exec.pipelines.size(), opt.exec.pipelines.size()) << label;
    std::map<std::string, const engine::PipelineRunStats*> hand_by_name;
    for (const auto& p : hand.exec.pipelines) hand_by_name[p.name] = &p;
    for (const auto& p : opt.exec.pipelines) {
      auto it = hand_by_name.find(p.name);
      ASSERT_NE(it, hand_by_name.end()) << label << " pipeline " << p.name;
      EXPECT_DOUBLE_EQ(it->second->stats.seconds(), p.stats.seconds())
          << label << " pipeline " << p.name;
      EXPECT_EQ(it->second->stats.rows_out, p.stats.rows_out)
          << label << " pipeline " << p.name;
    }
  }

  static sim::Topology* topo_;
  static TpchContext* ctx_;
};
sim::Topology* OptimizerCompat::topo_ = nullptr;
TpchContext* OptimizerCompat::ctx_ = nullptr;

// ---- Fig. 8: every query, every configuration -------------------------------

struct CompatCase {
  const char* name;
  QueryFn run;
};

class CompatAllConfigs
    : public OptimizerCompat,
      public ::testing::WithParamInterface<
          std::tuple<CompatCase, EngineConfig>> {};

TEST_P(CompatAllConfigs, OptimizerReproducesHandDeclaredCosts) {
  const auto& [qc, config] = GetParam();
  const QueryResult hand = RunAs(qc.run, config, PlanMode::kHandDeclared);
  const QueryResult opt = RunAs(qc.run, config, PlanMode::kOptimized);
  ExpectIdentical(hand, opt, qc.name);
}

INSTANTIATE_TEST_SUITE_P(
    Fig8, CompatAllConfigs,
    ::testing::Combine(
        ::testing::Values(CompatCase{"q1", RunQ1}, CompatCase{"q5", RunQ5},
                          CompatCase{"q6", RunQ6}, CompatCase{"q9", RunQ9}),
        ::testing::Values(EngineConfig::kDbmsC, EngineConfig::kProteusCpu,
                          EngineConfig::kProteusHybrid,
                          EngineConfig::kProteusGpu, EngineConfig::kDbmsG)),
    [](const ::testing::TestParamInfo<std::tuple<CompatCase, EngineConfig>>&
           info) {
      std::string s = std::get<0>(info.param).name;
      s += "_";
      s += ConfigName(std::get<1>(info.param));
      for (auto& c : s) {
        if (!isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return s;
    });

// ---- Fig. 9: the partitioned-join switch ------------------------------------

TEST_F(OptimizerCompat, Fig9NonPartitionedVariantAlsoMatches) {
  for (auto config :
       {EngineConfig::kProteusGpu, EngineConfig::kProteusHybrid}) {
    ctx_->partitioned_gpu_join = false;
    const QueryResult hand = RunAs(RunQ5, config, PlanMode::kHandDeclared);
    ctx_->partitioned_gpu_join = false;
    const QueryResult opt = RunAs(RunQ5, config, PlanMode::kOptimized);
    ExpectIdentical(hand, opt, ConfigName(config));
  }
}

// ---- property: join order never changes results -----------------------------

/// Build the same two-join query (lineitem x orders-1994 x supplier, count
/// and revenue) with the probe chain declared in any of its orders, run it
/// optimized, and require identical aggregates.
QueryResult RunPermutedJoins(TpchContext* ctx, EngineConfig config,
                             int permutation) {
  QueryResult r;
  auto lineitem = ctx->catalog.Get("lineitem").value();
  auto orders = ctx->catalog.Get("orders").value();
  auto supplier = ctx->catalog.Get("supplier").value();

  engine::PlanBuilder b("perm" + std::to_string(permutation));
  auto ords =
      b.Scan(orders, {"o_orderkey", "o_custkey", "o_orderdate"}, 1 << 14)
          .Scale(ctx->scale())
          .Filter(Expr::And(Expr::Ge(Expr::Col(2), Expr::Int(19940101)),
                            Expr::Lt(Expr::Col(2), Expr::Int(19950101))))
          .HashBuild(Expr::Col(0), {1});
  auto supp = b.Scan(supplier, {"s_suppkey", "s_nationkey"}, 1 << 14)
                  .Scale(ctx->scale())
                  .HashBuild(Expr::Col(0), {1});

  // Base: 0 l_orderkey, 1 l_suppkey, 2 l_extendedprice.
  auto probe = b.Scan(lineitem, {"l_orderkey", "l_suppkey",
                                 "l_extendedprice"}, 1 << 14)
                   .Scale(ctx->scale());
  probe.Named("perm-probe");
  engine::AggHandle agg;
  if (permutation == 0) {
    probe.Probe(ords, Expr::Col(0))    // +3 o_custkey
        .Probe(supp, Expr::Col(1));    // +4 s_nationkey
    agg = probe.Aggregate(
        Expr::Col(4), {engine::AggDef{engine::AggOp::kSum, Expr::Col(2)},
                       engine::AggDef{engine::AggOp::kCount, nullptr}});
  } else {
    probe.Probe(supp, Expr::Col(1))    // +3 s_nationkey
        .Probe(ords, Expr::Col(0));    // +4 o_custkey
    agg = probe.Aggregate(
        Expr::Col(3), {engine::AggDef{engine::AggOp::kSum, Expr::Col(2)},
                       engine::AggDef{engine::AggOp::kCount, nullptr}});
  }
  engine::QueryPlan plan = std::move(b).Build();

  engine::ExecutionPolicy policy =
      engine::ExecutionPolicy::ForConfig(*ctx->topo, config);
  engine::Engine eng(ctx->topo);
  if (auto opt = eng.Optimize(&plan, policy); !opt.ok()) {
    r.status = opt.status();
    return r;
  }
  auto run = eng.Run(&plan, policy);
  if (!run.ok()) {
    r.status = run.status();
    return r;
  }
  r.exec = std::move(run.value());
  r.seconds = r.exec.finish;
  r.groups = agg.result();
  return r;
}

TEST_F(OptimizerCompat, JoinOrderChoiceNeverChangesResults) {
  for (auto config : {EngineConfig::kProteusCpu, EngineConfig::kProteusHybrid,
                      EngineConfig::kProteusGpu}) {
    topo_->Reset();
    const QueryResult a = RunPermutedJoins(ctx_, config, 0);
    topo_->Reset();
    const QueryResult b = RunPermutedJoins(ctx_, config, 1);
    ASSERT_FALSE(a.DidNotFinish()) << a.status.ToString();
    ASSERT_FALSE(b.DidNotFinish()) << b.status.ToString();
    ASSERT_EQ(a.groups.size(), b.groups.size());
    ASSERT_GT(a.groups.size(), 0u);
    for (const auto& [key, vals] : a.groups) {
      auto it = b.groups.find(key);
      ASSERT_NE(it, b.groups.end()) << "missing group " << key;
      for (size_t i = 0; i < vals.size(); ++i) {
        EXPECT_NEAR(vals[i], it->second[i], 1e-9 * (1 + std::abs(vals[i])));
      }
    }
    // Both declarations converge on the same physical order (the filtered
    // orders join first), so even the costs coincide.
    EXPECT_DOUBLE_EQ(a.seconds, b.seconds) << ConfigName(config);
  }
}

TEST_F(OptimizerCompat, OptimizedQ5MatchesReference) {
  const QueryResult r = RunAs(RunQ5, EngineConfig::kProteusHybrid,
                              PlanMode::kOptimized);
  ASSERT_FALSE(r.DidNotFinish());
  const QueryResult ref = RefQ5(*ctx_);
  ASSERT_EQ(ref.groups.size(), r.groups.size());
  for (const auto& [key, vals] : ref.groups) {
    auto it = r.groups.find(key);
    ASSERT_NE(it, r.groups.end());
    EXPECT_NEAR(vals[0], it->second[0], 1e-9 * (1 + std::abs(vals[0])));
  }
}

}  // namespace
}  // namespace hape::queries
