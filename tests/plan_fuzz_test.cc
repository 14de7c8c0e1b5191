// Plan fuzzer: seeded random generation of valid PlanBuilder DAGs (fused
// filters, FK hash-join probes, build-probes-build chains) over the TPC-H
// generator tables, validated against a trusted scalar reference across
// all five system configurations and async depths 0/1/4.
//
// Results must be *byte-identical* to the reference. That is an honest
// requirement because every aggregated value is integer-valued (keys,
// dates, dictionary codes, counts): IEEE double addition over integers
// below 2^53 is exact, so the merge order the router/worker split imposes
// cannot perturb a single bit. Any mismatch is a real correctness bug in
// the engine's data path, not floating-point noise.
//
// A fixed seed set runs in ctest (and in the CI ASan/UBSan job); the seed
// is printed on failure so a reproducer is one compile away.
//
// The generator, the scalar reference, and the plan lowering live in
// queries/plan_fuzzer.h — the serving-layer workload generator draws from
// the same plan space — so this file is just the verification harness.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "codegen/kernels.h"
#include "engine/engine.h"
#include "engine/plan.h"
#include "engine/scheduler.h"
#include "queries/plan_fuzzer.h"
#include "queries/tpch_queries.h"
#include "storage/tpch.h"

namespace hape::queries {
namespace {

using engine::Engine;
using engine::ExecutionPolicy;

// ---- the harness ------------------------------------------------------------

class PlanFuzz : public ::testing::TestWithParam<uint64_t> {
 protected:
  static void SetUpTestSuite() {
    topo_ = new sim::Topology(sim::Topology::PaperServer());
    catalog_ = new storage::Catalog();
    storage::tpch::TpchGenerator gen(/*sf=*/0.003, /*seed=*/42,
                                     /*home_node=*/0);
    ASSERT_TRUE(gen.GenerateAll(catalog_).ok());
    engine_ = new Engine(topo_);
  }

  static sim::Topology* topo_;
  static storage::Catalog* catalog_;
  static Engine* engine_;
};
sim::Topology* PlanFuzz::topo_ = nullptr;
storage::Catalog* PlanFuzz::catalog_ = nullptr;
Engine* PlanFuzz::engine_ = nullptr;

constexpr EngineConfig kAllConfigs[] = {
    EngineConfig::kDbmsC, EngineConfig::kProteusCpu,
    EngineConfig::kProteusHybrid, EngineConfig::kProteusGpu,
    EngineConfig::kDbmsG};

TEST_P(PlanFuzz, ByteIdenticalToScalarReferenceEverywhere) {
  const uint64_t seed = GetParam();
  Fuzzer fuzzer(seed);
  const FuzzSpec spec = fuzzer.Generate();
  const Groups expected = Reference(spec, *catalog_);

  // Serialization leg: the fuzzed DAG must survive dump -> load as a fixed
  // point (a second dump of the loaded plan is byte-identical), and the
  // loaded plan must run byte-identical to the in-memory one in every cell
  // below.
  std::string dumped;
  {
    FuzzPlan fp = BuildFuzzPlan(spec, *catalog_, /*chunk_rows=*/2048);
    auto d = engine_->DumpPlan(fp.plan);
    ASSERT_TRUE(d.ok()) << "seed " << seed << ": " << d.status().ToString();
    dumped = d.value();
    auto reloaded = engine_->LoadPlan(dumped, *catalog_);
    ASSERT_TRUE(reloaded.ok())
        << "seed " << seed << ": " << reloaded.status().ToString();
    auto d2 = engine_->DumpPlan(reloaded.value().plan);
    ASSERT_TRUE(d2.ok()) << "seed " << seed;
    ASSERT_EQ(dumped, d2.value()) << "seed " << seed;
  }

  for (EngineConfig config : kAllConfigs) {
    for (int depth : {0, 1, 4}) {
      topo_->Reset();
      ExecutionPolicy policy = ExecutionPolicy::ForConfig(*topo_, config);
      policy.async = depth > 0 ? engine::AsyncOptions::Depth(depth)
                               : engine::AsyncOptions::Off();
      FuzzPlan fp = BuildFuzzPlan(spec, *catalog_, /*chunk_rows=*/2048);
      // The optimizer pass is part of the fuzz surface: join reordering,
      // build re-sizing, and heavy marks must never change a byte.
      auto opt = engine_->Optimize(&fp.plan, policy);
      ASSERT_TRUE(opt.ok())
          << "seed " << seed << ": " << opt.status().ToString();
      auto run = engine_->Run(&fp.plan, policy);
      ASSERT_TRUE(run.ok()) << "seed " << seed << " config "
                            << ConfigName(config) << " depth " << depth
                            << ": " << run.status().ToString();

      const Groups& got = fp.agg.result();
      ASSERT_EQ(got.size(), expected.size())
          << "seed " << seed << " config " << ConfigName(config)
          << " depth " << depth;
      auto ite = expected.begin();
      for (auto itg = got.begin(); itg != got.end(); ++itg, ++ite) {
        ASSERT_EQ(itg->first, ite->first) << "seed " << seed;
        ASSERT_EQ(itg->second.size(), ite->second.size()) << "seed " << seed;
        ASSERT_EQ(0, std::memcmp(itg->second.data(), ite->second.data(),
                                 itg->second.size() * sizeof(double)))
            << "seed " << seed << " config " << ConfigName(config)
            << " depth " << depth << " group " << itg->first;
      }

      // Dump -> load -> optimize -> run must reproduce the same bytes.
      topo_->Reset();
      auto loaded = engine_->LoadPlan(dumped, *catalog_);
      ASSERT_TRUE(loaded.ok())
          << "seed " << seed << ": " << loaded.status().ToString();
      auto opt2 = engine_->Optimize(&loaded.value().plan, policy);
      ASSERT_TRUE(opt2.ok())
          << "seed " << seed << ": " << opt2.status().ToString();
      auto run2 = engine_->Run(&loaded.value().plan, policy);
      ASSERT_TRUE(run2.ok()) << "seed " << seed << " config "
                             << ConfigName(config) << " depth " << depth
                             << " (loaded): " << run2.status().ToString();
      const Groups& reloaded = loaded.value().agg().result();
      ASSERT_EQ(reloaded.size(), expected.size())
          << "seed " << seed << " (loaded)";
      auto itr = reloaded.begin();
      for (auto it = expected.begin(); it != expected.end(); ++it, ++itr) {
        ASSERT_EQ(itr->first, it->first) << "seed " << seed << " (loaded)";
        ASSERT_EQ(itr->second.size(), it->second.size())
            << "seed " << seed << " (loaded)";
        ASSERT_EQ(0, std::memcmp(itr->second.data(), it->second.data(),
                                 itr->second.size() * sizeof(double)))
            << "seed " << seed << " config " << ConfigName(config)
            << " depth " << depth << " (loaded) group " << itr->first;
      }
    }
  }
}

// The fixed seed set ctest runs (CI runs it under ASan/UBSan as well).
INSTANTIATE_TEST_SUITE_P(FixedSeeds, PlanFuzz,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u,
                                           34u));

// ---- data-plane differential leg --------------------------------------------

/// Restores the process-wide data-plane selection on scope exit.
struct PlaneGuard {
  codegen::DataPlaneConfig saved = codegen::DataPlane();
  ~PlaneGuard() { codegen::SetDataPlane(saved); }
};

/// Exact (hex-float) signature of a run's simulated cost sequence:
/// per-pipeline start/finish, packet/row counts, full traffic taxonomy,
/// and transfer accounting. Two runs with equal signatures took bit-
/// identical simulated timings everywhere.
std::string CostSignature(const engine::RunStats& rs) {
  std::string s;
  char buf[64];
  const auto d = [&](double v) {
    std::snprintf(buf, sizeof(buf), "%a,", v);
    s += buf;
  };
  const auto u = [&](uint64_t v) {
    std::snprintf(buf, sizeof(buf), "%llu,", (unsigned long long)v);
    s += buf;
  };
  d(rs.finish);
  d(rs.placement_finish);
  u(rs.broadcast_bytes);
  for (const auto& p : rs.pipelines) {
    s += p.name;
    s += ':';
    d(p.stats.start);
    d(p.stats.finish);
    u(p.stats.packets);
    u(p.stats.rows_in);
    u(p.stats.rows_out);
    u(p.stats.traffic.dram_seq_read_bytes);
    u(p.stats.traffic.dram_seq_write_bytes);
    u(p.stats.traffic.dram_rand_accesses);
    u(p.stats.traffic.scratchpad_accesses);
    u(p.stats.traffic.l1_line_accesses);
    d(p.stats.traffic.l1_miss_rate);
    u(p.stats.traffic.tuple_ops);
    u(p.stats.mem_moves);
    u(p.stats.moved_bytes);
    d(p.stats.transfer_busy_s);
    d(p.stats.transfer_exposed_s);
    s += ';';
  }
  return s;
}

/// The tentpole's core contract: the scalar plane, the vectorized plane,
/// and the vectorized plane with parallel packet transforms must produce
/// byte-identical result groups AND bit-identical simulated cost
/// sequences, in every system config at sync and async depths. The scalar
/// plane is the always-on differential oracle for the SIMD kernels. A
/// last leg runs the scalar leg's optimized plan object a second time: a
/// plan holds no run state, so it must come out the same.
TEST_P(PlanFuzz, DataPlanesByteIdenticalWithBitIdenticalCosts) {
  const uint64_t seed = GetParam();
  Fuzzer fuzzer(seed);
  const FuzzSpec spec = fuzzer.Generate();
  PlaneGuard guard;

  struct Leg {
    codegen::KernelMode mode;
    int threads;
    const char* name;
    bool rerun = false;
  };
  const Leg legs[] = {
      {codegen::KernelMode::kScalar, 1, "scalar"},
      {codegen::KernelMode::kVectorized, 1, "vectorized"},
      {codegen::KernelMode::kVectorized, 4, "vectorized+threads"},
      {codegen::KernelMode::kVectorized, 1, "scalar leg's plan again", true},
  };

  for (EngineConfig config : kAllConfigs) {
    for (int depth : {0, 4}) {
      Groups ref_groups;
      std::string ref_costs;
      std::vector<FuzzPlan> plans;  // plans[0]: the scalar leg's
      for (const Leg& leg : legs) {
        codegen::SetDataPlane({leg.mode, leg.threads});
        topo_->Reset();
        ExecutionPolicy policy = ExecutionPolicy::ForConfig(*topo_, config);
        policy.async = depth > 0 ? engine::AsyncOptions::Depth(depth)
                                 : engine::AsyncOptions::Off();
        if (!leg.rerun) {
          plans.push_back(BuildFuzzPlan(spec, *catalog_, /*chunk_rows=*/2048));
          ASSERT_TRUE(engine_->Optimize(&plans.back().plan, policy).ok())
              << leg.name;
        }
        FuzzPlan& fp = leg.rerun ? plans.front() : plans.back();
        const auto before = codegen::KernelCounters();
        auto run = engine_->Run(&fp.plan, policy);
        ASSERT_TRUE(run.ok()) << "seed " << seed << " " << leg.name << ": "
                              << run.status().ToString();
        const auto after = codegen::KernelCounters();
        const std::string costs = CostSignature(run.value());
        if (leg.mode == codegen::KernelMode::kScalar) {
          ref_groups = fp.agg.result();
          ref_costs = costs;
          // The oracle leg must not touch the probe kernels.
          EXPECT_EQ(after.probed_keys, before.probed_keys) << leg.name;
          continue;
        }
        const Groups& got = fp.agg.result();
        ASSERT_EQ(got.size(), ref_groups.size())
            << "seed " << seed << " config " << ConfigName(config)
            << " depth " << depth << " " << leg.name;
        auto itr = ref_groups.begin();
        for (auto itg = got.begin(); itg != got.end(); ++itg, ++itr) {
          ASSERT_EQ(itg->first, itr->first) << "seed " << seed;
          ASSERT_EQ(itg->second.size(), itr->second.size());
          ASSERT_EQ(0, std::memcmp(itg->second.data(), itr->second.data(),
                                   itg->second.size() * sizeof(double)))
              << "seed " << seed << " config " << ConfigName(config)
              << " depth " << depth << " " << leg.name << " group "
              << itg->first;
        }
        EXPECT_EQ(costs, ref_costs)
            << "seed " << seed << " config " << ConfigName(config)
            << " depth " << depth << " " << leg.name
            << ": simulated cost sequence diverged from the scalar plane";
        // Non-empty output downstream of a join means rows flowed through
        // every probe stage, so the bulk probe kernel must have run. (Some
        // seeds filter every packet empty before the first probe — no
        // probe rows, no counter movement.)
        if (!spec.builds.empty() && !ref_groups.empty()) {
          EXPECT_GT(after.probed_keys, before.probed_keys)
              << leg.name << ": bulk probe kernel never ran";
        }
      }
    }
  }
}

// ---- cancellation leg -------------------------------------------------------

/// The cancellation invariant, fuzzed: submit three fuzzed plans under
/// kFifo, cancel a seed-derived one of them before the schedule starts,
/// and the survivors must be byte-identical — result groups AND full
/// simulated cost sequences — to a schedule the cancelled query was never
/// submitted into. Runs in every system config on both data planes (the
/// cancel bookkeeping must not perturb either plane's kernels).
TEST_P(PlanFuzz, CancelledSubsetLeavesSurvivorsByteIdenticalUnderFifo) {
  const uint64_t seed = GetParam();
  std::vector<FuzzSpec> specs;
  for (uint64_t k = 0; k < 3; ++k) {
    Fuzzer fuzzer(seed * 1000003ull + k);
    specs.push_back(fuzzer.Generate());
  }
  const size_t cancel_idx = seed % specs.size();
  PlaneGuard guard;

  for (EngineConfig config : kAllConfigs) {
    for (codegen::KernelMode mode :
         {codegen::KernelMode::kScalar, codegen::KernelMode::kVectorized}) {
      codegen::SetDataPlane({mode, 1});
      const std::string what =
          std::string("seed ") + std::to_string(seed) + " config " +
          ConfigName(config) +
          (mode == codegen::KernelMode::kScalar ? " scalar" : " vectorized");
      ExecutionPolicy policy = ExecutionPolicy::ForConfig(*topo_, config);
      policy.async = engine::AsyncOptions::Depth(1);
      policy.scheduling = engine::SchedulingPolicy::kFifo;

      // Baseline: the survivors alone.
      topo_->Reset();
      Engine base_eng(topo_);
      std::vector<FuzzPlan> base_plans;
      for (size_t i = 0; i < specs.size(); ++i) {
        if (i == cancel_idx) continue;
        base_plans.push_back(
            BuildFuzzPlan(specs[i], *catalog_, /*chunk_rows=*/2048));
        ASSERT_TRUE(base_eng.Optimize(&base_plans.back().plan, policy).ok())
            << what;
        base_eng.Submit(std::move(base_plans.back().plan));
      }
      auto base = base_eng.RunAll(policy);
      ASSERT_TRUE(base.ok()) << what << ": " << base.status().ToString();

      // Full submission with one pre-start cancellation.
      topo_->Reset();
      Engine eng(topo_);
      std::vector<FuzzPlan> plans;
      for (const FuzzSpec& spec : specs) {
        plans.push_back(BuildFuzzPlan(spec, *catalog_, /*chunk_rows=*/2048));
        ASSERT_TRUE(eng.Optimize(&plans.back().plan, policy).ok()) << what;
        eng.Submit(std::move(plans.back().plan));
      }
      ASSERT_TRUE(eng.Cancel(static_cast<int>(cancel_idx)).ok()) << what;
      auto sched = eng.RunAll(policy);
      ASSERT_TRUE(sched.ok()) << what << ": " << sched.status().ToString();
      const engine::ScheduleStats& s = sched.value();
      ASSERT_EQ(s.queries.size(), specs.size()) << what;
      EXPECT_EQ(s.cancelled, 1u) << what;
      EXPECT_EQ(s.shed, 1u) << what;
      EXPECT_EQ(s.completed, specs.size() - 1) << what;

      size_t bi = 0;
      for (size_t i = 0; i < specs.size(); ++i) {
        const engine::QueryRunStats& qs = s.queries[i];
        if (i == cancel_idx) {
          EXPECT_EQ(qs.outcome, engine::QueryOutcome::kCancelled) << what;
          EXPECT_TRUE(qs.shed) << what;
          EXPECT_TRUE(qs.run.pipelines.empty())
              << what << ": a pre-start cancel must run zero pipelines";
          continue;
        }
        const engine::QueryRunStats& bs = base.value().queries[bi];
        // Bit-identical cost sequences on the survivor's private timeline
        // and identical placement on the schedule timeline.
        EXPECT_EQ(CostSignature(qs.run), CostSignature(bs.run))
            << what << " query " << i;
        EXPECT_EQ(qs.admitted, bs.admitted) << what << " query " << i;
        EXPECT_EQ(qs.finish, bs.finish) << what << " query " << i;
        // Byte-identical result groups.
        const Groups& got = plans[i].agg.result();
        const Groups& want = base_plans[bi].agg.result();
        ASSERT_EQ(got.size(), want.size()) << what << " query " << i;
        auto itw = want.begin();
        for (auto itg = got.begin(); itg != got.end(); ++itg, ++itw) {
          ASSERT_EQ(itg->first, itw->first) << what;
          ASSERT_EQ(itg->second.size(), itw->second.size()) << what;
          ASSERT_EQ(0,
                    std::memcmp(itg->second.data(), itw->second.data(),
                                itg->second.size() * sizeof(double)))
              << what << " query " << i << " group " << itg->first;
        }
        ++bi;
      }
    }
  }
}

}  // namespace
}  // namespace hape::queries
