// Schedule pins: one fixed 40-query mix per scheduling policy, plus one
// 500-query kSlaTiered trace, replayed with tracing on and reduced to
// 64-bit FNV-1a digests of
//   - the schedule's Explain document (per-query records, cost sequences,
//     tier percentiles and the metrics snapshot),
//   - the Chrome trace (DumpTrace), and
//   - every query's result bytes.
// Any change to an admission, pick or abort decision, to a lifecycle
// instant, a metric, a cost or a result moves at least one digest, so the
// scheduler can be restructured freely while these stay put.
//
// The mixes are built from the TPC-H builders (SF 0.003 actual, SF 100
// nominal) with explicit SubmitOptions, not serve::GenerateWorkload: its
// arrivals are drawn through std::log, which would tie the digests to one
// math library. kFifo and kFairShare queries all arrive at 0, as those
// policies treat every query. Each mix asserts the situations it is
// meant to cover before it checks its digests, so a digest can never pin
// a mix that silently stopped exercising them.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string_view>
#include <utility>
#include <vector>

#include "engine/engine.h"
#include "engine/scheduler.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "queries/tpch_queries.h"

namespace hape::queries {
namespace {

using engine::Engine;
using engine::ExecutionPolicy;
using engine::QueryOutcome;
using engine::QueryRunStats;
using engine::ScheduleStats;
using engine::SchedulingPolicy;
using engine::SubmitOptions;

/// 64-bit FNV-1a over a sequence of byte ranges.
class Fnv1a {
 public:
  void Add(const void* data, size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) {
      h_ ^= p[i];
      h_ *= 1099511628211ull;
    }
  }
  void Add(std::string_view s) { Add(s.data(), s.size()); }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 14695981039346656037ull;
};

struct Digests {
  uint64_t schedule = 0;
  uint64_t trace = 0;
  uint64_t results = 0;
};

constexpr int kQueries = 40;
/// Query i of every mix is built by kBuilders[i % 5].
constexpr BuildFn kBuilders[] = {BuildQ1Plan, BuildQ3Plan, BuildQ5Plan,
                                 BuildQ6Plan, BuildQ9Plan};

double Counter(const Engine& eng, const char* name) {
  const obs::Counter* c = eng.metrics().FindCounter(name);
  return c == nullptr ? 0 : c->value;
}

class SchedulePins : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    topo_ = new sim::Topology(sim::Topology::PaperServer());
    ctx_ = new TpchContext();
    ctx_->topo = topo_;
    ctx_->sf_actual = 0.003;
    ctx_->sf_nominal = 100.0;
    ASSERT_TRUE(PrepareTpch(ctx_).ok());
  }
  void SetUp() override {
    topo_->Reset();
    eng_ = std::make_unique<Engine>(topo_);
    eng_->SetTraceOptions(obs::TraceOptions{true});
  }

  static ExecutionPolicy Policy(int depth, SchedulingPolicy sched) {
    ExecutionPolicy p = ExecutionPolicy::ForConfig(
        *topo_, engine::EngineConfig::kProteusHybrid);
    p.partitioned_gpu_join = true;
    p.async = engine::AsyncOptions::Depth(depth);
    p.scheduling = sched;
    return p;
  }

  /// Shrink `policy`'s GPU budget to `footprints` staged Q5 footprints.
  static void ShrinkGpuBudget(ExecutionPolicy* policy, double footprints) {
    auto q5 = BuildQ5Plan(ctx_);
    ASSERT_TRUE(q5.ok());
    Engine eng(topo_);
    ASSERT_TRUE(eng.Optimize(&q5.value().plan, *policy).ok());
    const uint64_t fp = engine::Scheduler::EstimatedResidentBytes(
        q5.value().plan, policy->GpuBudget(*topo_));
    ASSERT_GT(fp, 0u);
    const uint64_t budget = static_cast<uint64_t>(
        ExecutionPolicy::StagedBytes(fp) * footprints);
    const int gpu = topo_->GpuDeviceIds().front();
    const uint64_t cap =
        topo_->mem_node(topo_->device(gpu).mem_node).capacity();
    ASSERT_LT(budget, cap);
    policy->device_reserved_bytes = cap - budget;
  }

  /// Build, optimize and submit query `i` of the mix.
  void Submit(int i, const ExecutionPolicy& policy, const SubmitOptions& so) {
    auto bq = kBuilders[i % 5](ctx_);
    ASSERT_TRUE(bq.ok()) << bq.status().ToString();
    ASSERT_TRUE(eng_->Optimize(&bq.value().plan, policy).ok());
    aggs_.push_back(bq.value().agg);
    ASSERT_EQ(eng_->Submit(std::move(bq.value().plan), so), i);
  }

  /// Run the mix and digest its schedule, trace and results.
  ScheduleStats Run(const ExecutionPolicy& policy, Digests* out) {
    auto sched = eng_->RunAll(policy);
    EXPECT_TRUE(sched.ok()) << sched.status().ToString();
    if (!sched.ok()) return {};
    Fnv1a schedule, trace, results;
    schedule.Add(eng_->Explain(sched.value()));
    trace.Add(eng_->DumpTrace());
    for (const engine::AggHandle& agg : aggs_) {
      for (const auto& [key, vals] : agg.result()) {
        results.Add(&key, sizeof(key));
        results.Add(vals.data(), vals.size() * sizeof(double));
      }
    }
    *out = Digests{schedule.value(), trace.value(), results.value()};
    return std::move(sched.value());
  }

  static void ExpectDigests(const Digests& got, const Digests& want) {
    EXPECT_EQ(got.schedule, want.schedule)
        << "schedule digest 0x" << std::hex << got.schedule;
    EXPECT_EQ(got.trace, want.trace)
        << "trace digest 0x" << std::hex << got.trace;
    EXPECT_EQ(got.results, want.results)
        << "results digest 0x" << std::hex << got.results;
  }

  static sim::Topology* topo_;
  static TpchContext* ctx_;
  std::unique_ptr<Engine> eng_;
  std::vector<engine::AggHandle> aggs_;
};
sim::Topology* SchedulePins::topo_ = nullptr;
TpchContext* SchedulePins::ctx_ = nullptr;

// The digests below were captured from these exact mixes. Re-baseline only
// with an intentional scheduling change.

// kFifo: query 7 is cancelled at 0 and shed before its turn; query 2, a Q5
// admitted at ~0.95 s, has a 1.0 s deadline that expires after its second
// pipeline; query 4 meets its deadline.
TEST_F(SchedulePins, Fifo) {
  const ExecutionPolicy policy = Policy(/*depth=*/2, SchedulingPolicy::kFifo);
  for (int i = 0; i < kQueries; ++i) {
    SubmitOptions so;
    if (i == 2) so.deadline_s = 1.0;
    if (i == 4) so.deadline_s = 100.0;
    Submit(i, policy, so);
  }
  ASSERT_TRUE(eng_->Cancel(7).ok());
  Digests got;
  const ScheduleStats s = Run(policy, &got);
  ASSERT_EQ(s.queries.size(), static_cast<size_t>(kQueries));

  const QueryRunStats& shed = s.queries[7];
  EXPECT_EQ(shed.outcome, QueryOutcome::kCancelled);
  EXPECT_TRUE(shed.shed);
  EXPECT_GT(shed.admitted, 0.0);
  const QueryRunStats& aborted = s.queries[2];
  EXPECT_EQ(aborted.outcome, QueryOutcome::kDeadlineExceeded);
  EXPECT_FALSE(aborted.shed);
  EXPECT_EQ(aborted.run.pipelines.size(), 2u);
  EXPECT_EQ(s.queries[4].outcome, QueryOutcome::kCompleted);
  EXPECT_EQ(s.completed, static_cast<uint64_t>(kQueries - 2));

  ExpectDigests(got, {0xb739052127e9478bull, 0x496005c11d51de79ull,
                      0xc9279d1cde74321dull});
}

// kFairShare: a GPU budget of 2.25 staged Q5 footprints packs the mix
// into many admission waves. Query 5 is cancelled at 0 and shed before
// wave packing; query 2 is cancelled at 0.01 s and aborted after its first
// pipeline; query 37's deadline has passed when its wave is admitted, so
// shed_on_deadline drops it at that wave gate.
TEST_F(SchedulePins, FairShare) {
  ExecutionPolicy policy = Policy(/*depth=*/2, SchedulingPolicy::kFairShare);
  policy.expected_device_share = 1.0 / 3;
  policy.serve.shed_on_deadline = true;
  ShrinkGpuBudget(&policy, 2.25);
  for (int i = 0; i < kQueries; ++i) {
    SubmitOptions so;
    so.weight = 1 + i % 3;
    if (i == 37) so.deadline_s = 0.5;
    Submit(i, policy, so);
  }
  ASSERT_TRUE(eng_->Cancel(5).ok());
  ASSERT_TRUE(eng_->Cancel(2, 0.01).ok());
  Digests got;
  const ScheduleStats s = Run(policy, &got);
  ASSERT_EQ(s.queries.size(), static_cast<size_t>(kQueries));

  EXPECT_GE(Counter(*eng_, "scheduler.admission_waves"), 3);
  EXPECT_GT(s.peak_resident_bytes, 0u);
  const QueryRunStats& shed_at_zero = s.queries[5];
  EXPECT_EQ(shed_at_zero.outcome, QueryOutcome::kCancelled);
  EXPECT_TRUE(shed_at_zero.shed);
  EXPECT_EQ(shed_at_zero.admitted, 0.0);
  const QueryRunStats& aborted = s.queries[2];
  EXPECT_EQ(aborted.outcome, QueryOutcome::kCancelled);
  EXPECT_FALSE(aborted.shed);
  EXPECT_EQ(aborted.run.pipelines.size(), 1u);
  const QueryRunStats& shed_at_gate = s.queries[37];
  EXPECT_EQ(shed_at_gate.outcome, QueryOutcome::kDeadlineExceeded);
  EXPECT_TRUE(shed_at_gate.shed);
  EXPECT_GT(shed_at_gate.admitted, shed_at_gate.deadline_s);

  ExpectDigests(got, {0x816708fc975c9c41ull, 0x32bdcaa191e448bdull,
                      0x5667aa2a718bae9bull});
}

// kSlaTiered: arrivals every 0.1 s in tiers 0/1/2, at most three queries
// in flight, a GPU budget of 2.25 staged Q5 footprints, a 1 s aging
// window and shed_on_deadline. Query 10 is cancelled while it waits and
// shed; query 12, a Q5 admitted at ~6.59 s, is cancelled at 6.7 s and
// aborted after its second pipeline; query 20's deadline expires in the ready queue, so it is
// shed. The backlog forces aging promotions and a tier-0 admission
// preempts a lower tier.
TEST_F(SchedulePins, SlaTiered) {
  ExecutionPolicy policy = Policy(/*depth=*/1, SchedulingPolicy::kSlaTiered);
  policy.serve.max_inflight = 3;
  policy.serve.aging_boost_s = 1.0;
  policy.serve.shed_on_deadline = true;
  ShrinkGpuBudget(&policy, 2.25);
  for (int i = 0; i < kQueries; ++i) {
    SubmitOptions so;
    so.tier = i % 3;
    so.weight = 1 + i % 2;
    so.arrival = 0.1 * i;
    if (i == 20) so.deadline_s = so.arrival + 0.05;
    Submit(i, policy, so);
  }
  ASSERT_TRUE(eng_->Cancel(10, 1.5).ok());
  ASSERT_TRUE(eng_->Cancel(12, 6.7).ok());
  Digests got;
  const ScheduleStats s = Run(policy, &got);
  ASSERT_EQ(s.queries.size(), static_cast<size_t>(kQueries));

  EXPECT_GE(Counter(*eng_, "scheduler.aging_promotions"), 1);
  EXPECT_GE(Counter(*eng_, "scheduler.preemptions"), 1);
  EXPECT_GT(s.peak_resident_bytes, 0u);
  const QueryRunStats& shed_cancel = s.queries[10];
  EXPECT_EQ(shed_cancel.outcome, QueryOutcome::kCancelled);
  EXPECT_TRUE(shed_cancel.shed);
  const QueryRunStats& aborted = s.queries[12];
  EXPECT_EQ(aborted.outcome, QueryOutcome::kCancelled);
  EXPECT_FALSE(aborted.shed);
  EXPECT_EQ(aborted.run.pipelines.size(), 2u);
  const QueryRunStats& shed_deadline = s.queries[20];
  EXPECT_EQ(shed_deadline.outcome, QueryOutcome::kDeadlineExceeded);
  EXPECT_TRUE(shed_deadline.shed);
  EXPECT_EQ(s.tiers.size(), 3u);

  ExpectDigests(got, {0x1fc32f1f04caf898ull, 0xd5f9f499de8d889eull,
                      0x7d1109255b891a1aull});
}

// kSlaTiered over a long trace with bench_serve's serving policy: 500
// queries arriving every 0.25 s (its 4 queries per simulated second) in
// tiers weighted 1:2:5, with deadlines 5/10/12 s after arrival by tier,
// at most eight in flight, async depth 1 and shed_on_deadline. The
// schedule resets the link and copy-engine timelines once, so they keep
// every window of the run and late gap searches run over thousands of
// windows; the 40-query mixes above stay in the hundreds. The TPC-H-only
// mix overloads the machine at this rate, so every terminal state shows.
TEST_F(SchedulePins, SlaTieredLongTrace) {
  constexpr int kLongQueries = 500;
  ExecutionPolicy policy = Policy(/*depth=*/1, SchedulingPolicy::kSlaTiered);
  policy.serve.max_inflight = 8;
  policy.serve.aging_boost_s = 120.0;
  policy.serve.shed_on_deadline = true;
  constexpr int kTierOf[8] = {0, 1, 1, 2, 2, 2, 2, 2};
  constexpr double kTierDeadline[3] = {5.0, 10.0, 12.0};
  for (int i = 0; i < kLongQueries; ++i) {
    SubmitOptions so;
    so.tier = kTierOf[i % 8];
    so.arrival = 0.25 * i;
    so.deadline_s = so.arrival + kTierDeadline[so.tier];
    Submit(i, policy, so);
  }
  Digests got;
  const ScheduleStats s = Run(policy, &got);
  ASSERT_EQ(s.queries.size(), static_cast<size_t>(kLongQueries));

  // The regime: one ~137 s schedule issuing ~9.9k copy-engine copies
  // (the 40-query kSlaTiered mix issues ~1.8k over ~25 s). At 8,000 or
  // more the timelines hold thousands of windows.
  uint64_t copies = 0;
  for (int n = 0; n < topo_->num_mem_nodes(); ++n) {
    copies += topo_->copy_engine(n).copies();
  }
  EXPECT_GE(copies, 8000u);
  EXPECT_GT(s.makespan, 0.25 * (kLongQueries - 1));
  EXPECT_GE(Counter(*eng_, "scheduler.preemptions"), 1);
  EXPECT_GE(s.completed, 100u);
  EXPECT_GE(s.shed, 100u);
  EXPECT_GT(s.deadline_exceeded, s.shed);  // some abort mid-flight
  EXPECT_EQ(s.tiers.size(), 3u);

  ExpectDigests(got, {0x884819c41ab57cd8ull, 0xe6741a076c5630d8ull,
                      0x8eab645d5beac91aull});
}

}  // namespace
}  // namespace hape::queries
