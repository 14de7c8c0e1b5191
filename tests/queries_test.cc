#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <utility>

#include "codegen/kernels.h"
#include "queries/tpch_queries.h"
#include "storage/tpch.h"

namespace hape::queries {
namespace {

/// Shared fixture: one generated TPC-H instance (SF 0.01 actual, SF 100
/// nominal), reused across all query tests.
class TpchQueries : public ::testing::Test {
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
  }

  static void ExpectSameGroups(const QueryResult& ref, const QueryResult& got,
                               double tol = 1e-9) {
    ASSERT_FALSE(got.DidNotFinish()) << got.status.ToString();
    ASSERT_EQ(ref.groups.size(), got.groups.size());
    for (const auto& [key, vals] : ref.groups) {
      auto it = got.groups.find(key);
      ASSERT_NE(it, got.groups.end()) << "missing group " << key;
      ASSERT_EQ(vals.size(), it->second.size());
      for (size_t i = 0; i < vals.size(); ++i) {
        EXPECT_NEAR(it->second[i] / (std::abs(vals[i]) + 1),
                    vals[i] / (std::abs(vals[i]) + 1), tol)
            << "group " << key << " agg " << i;
      }
    }
  }

  static sim::Topology* topo_;
  static TpchContext* ctx_;
};
sim::Topology* TpchQueries::topo_ = nullptr;
TpchContext* TpchQueries::ctx_ = nullptr;

// ---- correctness across configurations ----------------------------------------

struct QueryCase {
  const char* name;
  QueryFn run;
  QueryResult (*ref)(const TpchContext&);
};

class QueryCorrectness
    : public TpchQueries,
      public ::testing::WithParamInterface<
          std::tuple<QueryCase, EngineConfig>> {};

TEST_P(QueryCorrectness, MatchesScalarReference) {
  const auto& [qc, config] = GetParam();
  topo_->Reset();
  const QueryResult got = qc.run(ctx_, config);
  if (got.DidNotFinish()) {
    // Only the documented DNFs are acceptable: DBMS G on Q1/Q5/Q9 and
    // GPU-only Q9.
    const bool dbmsg_dnf = config == EngineConfig::kDbmsG &&
                           std::string(qc.name) != "q6";
    const bool gpu_q9 = config == EngineConfig::kProteusGpu &&
                        std::string(qc.name) == "q9";
    EXPECT_TRUE(dbmsg_dnf || gpu_q9)
        << qc.name << "/" << ConfigName(config) << " unexpectedly DNF: "
        << got.status.ToString();
    return;
  }
  ExpectSameGroups(qc.ref(*ctx_), got);
}

INSTANTIATE_TEST_SUITE_P(
    AllQueriesAllConfigs, QueryCorrectness,
    ::testing::Combine(
        ::testing::Values(QueryCase{"q1", RunQ1, RefQ1},
                          QueryCase{"q3", RunQ3, RefQ3},
                          QueryCase{"q5", RunQ5, RefQ5},
                          QueryCase{"q6", RunQ6, RefQ6},
                          QueryCase{"q9", RunQ9, RefQ9}),
        ::testing::Values(EngineConfig::kDbmsC, EngineConfig::kProteusCpu,
                          EngineConfig::kProteusHybrid,
                          EngineConfig::kProteusGpu, EngineConfig::kDbmsG)),
    [](const ::testing::TestParamInfo<std::tuple<QueryCase, EngineConfig>>&
           info) {
      std::string s = std::get<0>(info.param).name;
      s += "_";
      s += ConfigName(std::get<1>(info.param));
      for (auto& c : s) {
        if (!isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return s;
    });

// ---- result sanity -------------------------------------------------------------

TEST_F(TpchQueries, Q1HasFourGroups) {
  const auto r = RefQ1(*ctx_);
  EXPECT_EQ(r.groups.size(), 4u);  // (A,F), (N,F), (N,O), (R,F)
}

TEST_F(TpchQueries, Q5GroupsAreAsianNations) {
  const auto r = RefQ5(*ctx_);
  EXPECT_GE(r.groups.size(), 1u);
  EXPECT_LE(r.groups.size(), 5u);  // 5 nations in ASIA
  for (const auto& [k, v] : r.groups) {
    EXPECT_EQ(storage::tpch::kNationRegion[k], storage::tpch::kRegionAsia);
    EXPECT_GT(v[0], 0.0);  // revenue positive
  }
}

TEST_F(TpchQueries, Q6SingleGroupPositive) {
  const auto r = RefQ6(*ctx_);
  ASSERT_EQ(r.groups.size(), 1u);
  EXPECT_GT(r.groups.at(0)[0], 0.0);
}

TEST_F(TpchQueries, Q9CoversNationsAndYears) {
  const auto r = RefQ9(*ctx_);
  EXPECT_GT(r.groups.size(), 25u);  // nations x ~7 years
  for (const auto& [k, v] : r.groups) {
    const int64_t year = k % 10000;
    EXPECT_GE(year, 1992);
    EXPECT_LE(year, 1998);
  }
}

// At SF 0.003 the generator repeats some of partsupp's (partkey, suppkey)
// pairs. The engine's hash join matches every repeat, as SQL does, and the
// reference must too.
TEST_F(TpchQueries, Q9MatchesReferenceWhenPartsuppPairsRepeat) {
  sim::Topology topo = sim::Topology::PaperServer();
  TpchContext ctx;
  ctx.topo = &topo;
  ctx.sf_actual = 0.003;
  ctx.sf_nominal = 100.0;
  ASSERT_TRUE(PrepareTpch(&ctx).ok());
  const storage::Table& ps = *ctx.catalog.Get("partsupp").value();
  std::set<std::pair<int64_t, int64_t>> pairs;
  for (size_t i = 0; i < ps.num_rows(); ++i) {
    pairs.emplace(ps.column("ps_partkey")->i64()[i],
                  ps.column("ps_suppkey")->i64()[i]);
  }
  ASSERT_LT(pairs.size(), ps.num_rows()) << "no (partkey, suppkey) repeats";

  const QueryResult ref = RefQ9(ctx);
  for (EngineConfig config :
       {EngineConfig::kProteusCpu, EngineConfig::kProteusHybrid}) {
    topo.Reset();
    SCOPED_TRACE(ConfigName(config));
    ExpectSameGroups(ref, RunQ9(&ctx, config));
  }
}

/// 64-bit FNV-1a over every byte of every catalog column, table by table in
/// name order.
uint64_t CatalogDigest(const storage::Catalog& catalog) {
  std::vector<std::string> names = catalog.TableNames();
  std::sort(names.begin(), names.end());
  uint64_t h = 14695981039346656037ull;
  for (const std::string& name : names) {
    const storage::Table& t = *catalog.Get(name).value();
    for (int c = 0; c < t.num_columns(); ++c) {
      const storage::Column& col = *t.column(c);
      const auto* p = static_cast<const unsigned char*>(col.raw_data());
      for (uint64_t i = 0; i < col.byte_size(); ++i) {
        h = (h ^ p[i]) * 1099511628211ull;
      }
    }
  }
  return h;
}

// Scan packets are views of the catalog's columns, so a stage or sink that
// wrote into a packet column would corrupt the tables. Run every query
// under every configuration, synchronously and asynchronously, on both
// data planes, and check that no catalog byte moved.
TEST_F(TpchQueries, NoQueryWritesIntoTheCatalog) {
  const uint64_t before = CatalogDigest(ctx_->catalog);
  const codegen::DataPlaneConfig saved_plane = codegen::DataPlane();
  const engine::AsyncOptions saved_async = ctx_->async;
  for (codegen::KernelMode mode :
       {codegen::KernelMode::kVectorized, codegen::KernelMode::kScalar}) {
    codegen::SetDataPlane({mode, saved_plane.packet_threads});
    for (int depth : {0, 1}) {
      ctx_->async = depth > 0 ? engine::AsyncOptions::Depth(depth)
                              : engine::AsyncOptions::Off();
      for (QueryFn q : {RunQ1, RunQ3, RunQ5, RunQ6, RunQ9}) {
        for (EngineConfig config :
             {EngineConfig::kDbmsC, EngineConfig::kProteusCpu,
              EngineConfig::kProteusHybrid, EngineConfig::kProteusGpu,
              EngineConfig::kDbmsG}) {
          topo_->Reset();
          q(ctx_, config);
        }
      }
    }
  }
  codegen::SetDataPlane(saved_plane);
  ctx_->async = saved_async;
  EXPECT_EQ(CatalogDigest(ctx_->catalog), before);
}

// ---- performance shape (Fig. 8) -------------------------------------------------

TEST_F(TpchQueries, ScanBoundQueriesFavorCpu) {
  for (QueryFn q : {static_cast<QueryFn>(RunQ1), static_cast<QueryFn>(RunQ6)}) {
    topo_->Reset();
    const double cpu = q(ctx_, EngineConfig::kProteusCpu).seconds;
    topo_->Reset();
    const double gpu = q(ctx_, EngineConfig::kProteusGpu).seconds;
    EXPECT_GT(gpu / cpu, 2.0);  // paper: >= 2.65x
  }
}

TEST_F(TpchQueries, JoinHeavyQ5FavorsGpu) {
  topo_->Reset();
  const double cpu = RunQ5(ctx_, EngineConfig::kProteusCpu).seconds;
  topo_->Reset();
  const double gpu = RunQ5(ctx_, EngineConfig::kProteusGpu).seconds;
  EXPECT_GT(cpu / gpu, 1.1);  // paper: 1.4x
  EXPECT_LT(cpu / gpu, 2.5);
}

TEST_F(TpchQueries, HybridBestOnEveryQuery) {
  for (QueryFn q : {static_cast<QueryFn>(RunQ1), static_cast<QueryFn>(RunQ5),
                    static_cast<QueryFn>(RunQ6),
                    static_cast<QueryFn>(RunQ9)}) {
    topo_->Reset();
    const double cpu = q(ctx_, EngineConfig::kProteusCpu).seconds;
    topo_->Reset();
    const auto gpu_r = q(ctx_, EngineConfig::kProteusGpu);
    topo_->Reset();
    const double hybrid = q(ctx_, EngineConfig::kProteusHybrid).seconds;
    EXPECT_LE(hybrid, cpu * 1.001);
    if (!gpu_r.DidNotFinish()) {
      EXPECT_LE(hybrid, gpu_r.seconds * 1.001);
    }
  }
}

TEST_F(TpchQueries, Q9HybridCoProcessingDoublesCpuOnly) {
  topo_->Reset();
  const double cpu = RunQ9(ctx_, EngineConfig::kProteusCpu).seconds;
  topo_->Reset();
  const double hybrid = RunQ9(ctx_, EngineConfig::kProteusHybrid).seconds;
  EXPECT_GT(cpu / hybrid, 1.5);  // paper: 2x
}

TEST_F(TpchQueries, Q9GpuOnlyOutOfMemory) {
  topo_->Reset();
  const auto r = RunQ9(ctx_, EngineConfig::kProteusGpu);
  ASSERT_TRUE(r.DidNotFinish());
  EXPECT_EQ(r.status.code(), StatusCode::kOutOfMemory);
}

TEST_F(TpchQueries, DbmsGOnlyRunsQ6) {
  topo_->Reset();
  EXPECT_FALSE(RunQ6(ctx_, EngineConfig::kDbmsG).DidNotFinish());
  for (QueryFn q : {static_cast<QueryFn>(RunQ1), static_cast<QueryFn>(RunQ5),
                    static_cast<QueryFn>(RunQ9)}) {
    topo_->Reset();
    EXPECT_TRUE(q(ctx_, EngineConfig::kDbmsG).DidNotFinish());
  }
}

TEST_F(TpchQueries, DbmsCOverheadLargestOnQ1) {
  // §6.4: multiple aggregates make DBMS C's extra vector passes visible on
  // Q1, while other queries stay comparable to Proteus CPU.
  topo_->Reset();
  const double c1 = RunQ1(ctx_, EngineConfig::kDbmsC).seconds;
  topo_->Reset();
  const double p1 = RunQ1(ctx_, EngineConfig::kProteusCpu).seconds;
  EXPECT_GT(c1 / p1, 1.3);
  topo_->Reset();
  const double c5 = RunQ5(ctx_, EngineConfig::kDbmsC).seconds;
  topo_->Reset();
  const double p5 = RunQ5(ctx_, EngineConfig::kProteusCpu).seconds;
  EXPECT_LT(c5 / p5, c1 / p1);
}

TEST_F(TpchQueries, Fig9PartitionedJoinWinsOnGpuAndHybrid) {
  for (auto config :
       {EngineConfig::kProteusGpu, EngineConfig::kProteusHybrid}) {
    topo_->Reset();
    ctx_->partitioned_gpu_join = false;
    const double nopart = RunQ5(ctx_, config).seconds;
    topo_->Reset();
    ctx_->partitioned_gpu_join = true;
    const double part = RunQ5(ctx_, config).seconds;
    EXPECT_GT(nopart / part, 1.05) << ConfigName(config);
    EXPECT_LT(nopart / part, 3.0) << ConfigName(config);
  }
}

TEST_F(TpchQueries, ConfigNamesStable) {
  EXPECT_STREQ(ConfigName(EngineConfig::kDbmsC), "DBMS C");
  EXPECT_STREQ(ConfigName(EngineConfig::kProteusHybrid), "Proteus Hybrid");
}

}  // namespace
}  // namespace hape::queries
