// tpch_olap: the paper's query-at-a-time path. Q1/Q3/Q5/Q6/Q9* at SF 0.5
// actual (costed at SF 100) on the hybrid CPU+GPU configuration; each
// query is built, optimized and run on one engine, the topology reset
// before every run so simulated times never drift between reps. The
// kernels and the executor do nearly all the host work and the serving
// front end and scheduler none: the opposite of the serve workloads.
// --seed is the TPC-H data generator's seed.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "codegen/kernels.h"
#include "e2e.h"
#include "queries/tpch_queries.h"

namespace hape::e2e {
namespace {

constexpr double kTpchSf = 0.5;
/// Set-ups per run (data generation + warm-up suite); setup_s is their
/// median.
constexpr int kSetups = 3;

struct TpchQuery {
  queries::BuildFn build;
  queries::QueryResult (*ref)(const queries::TpchContext&);
};

constexpr TpchQuery kSuite[] = {
    {queries::BuildQ1Plan, queries::RefQ1},
    {queries::BuildQ3Plan, queries::RefQ3},
    {queries::BuildQ5Plan, queries::RefQ5},
    {queries::BuildQ6Plan, queries::RefQ6},
    {queries::BuildQ9Plan, queries::RefQ9},
};
constexpr size_t kSuiteSize = std::size(kSuite);

/// Engine counters reported per suite, as deltas over the suite.
constexpr std::pair<const char*, const char*> kEngineCounters[] = {
    {"engine.pipelines", "engine.pipelines"},
    {"engine.packets", "engine.packets"},
    {"sim.moved_bytes", "engine.moved_bytes"},
    {"sim.transfer_busy_s", "engine.transfer_busy_s"},
    {"sim.transfer_exposed_s", "engine.transfer_exposed_s"},
    {"sim.broadcast_bytes", "engine.broadcast_bytes"},
};

/// One pass over the five queries.
struct SuiteRep {
  double build_s = 0;     ///< BuildQxPlan
  double optimize_s = 0;  ///< Engine::Optimize
  double run_s = 0;       ///< Engine::Run
  std::vector<double> frontend_s;  ///< per query: build + optimize
  std::vector<double> sim_s;       ///< per query: simulated seconds
  double dump_trace_s = 0;
  size_t trace_events = 0;
  LayerSample counters;  ///< kEngineCounters + kernels.*
  uint64_t errors = 0;
  uint64_t wrong = 0;

  double host_s() const { return build_s + optimize_s + run_s; }
};

struct TpchSetup {
  std::unique_ptr<queries::TpchContext> ctx;
  std::unique_ptr<engine::Engine> engine;
};

engine::ExecutionPolicy SuitePolicy(const queries::TpchContext& ctx) {
  engine::ExecutionPolicy p = engine::ExecutionPolicy::ForConfig(
      *ctx.topo, engine::EngineConfig::kProteusHybrid);
  p.partitioned_gpu_join = ctx.partitioned_gpu_join;
  p.async = engine::AsyncOptions::Depth(1);
  return p;
}

/// Build, optimize and run every query once. With `refs`, answers are
/// checked against them; with `spans`, every call is recorded and the
/// engine traces the runs, dumping the trace at the end.
SuiteRep RunSuite(TpchSetup* s, const engine::ExecutionPolicy& policy,
                  const std::vector<Groups>* refs, SpanLog* spans) {
  SuiteRep r;
  engine::Engine& eng = *s->engine;
  const bool traced = spans != nullptr;
  eng.SetTraceOptions(obs::TraceOptions{traced});
  const obs::MetricsRegistry before = eng.metrics();
  const codegen::KernelCounterSnapshot k0 = codegen::KernelCounters();
  for (size_t i = 0; i < kSuiteSize; ++i) {
    const int req = static_cast<int>(i);
    const auto timed = [&](const char* name, double* acc, auto fn) {
      const auto t0 = HostClock::now();
      auto out = traced ? spans->Time(name, req, fn) : fn();
      *acc += SecondsSince(t0);
      return out;
    };
    double build = 0;
    Result<queries::BuiltQuery> built = timed(
        "build_plan", &build, [&] { return kSuite[i].build(s->ctx.get()); });
    r.build_s += build;
    if (!built.ok()) {
      ++r.errors;
      continue;
    }
    engine::QueryPlan& plan = built.value().plan;
    double optimize = 0;
    const Status opt = timed("optimize", &optimize, [&] {
      return eng.Optimize(&plan, policy).status();
    });
    r.optimize_s += optimize;
    r.frontend_s.push_back(build + optimize);
    if (!opt.ok()) {
      ++r.errors;
      continue;
    }
    s->ctx->topo->Reset();
    Result<engine::RunStats> run =
        timed("run", &r.run_s, [&] { return eng.Run(&plan, policy); });
    if (!run.ok()) {
      ++r.errors;
      continue;
    }
    r.sim_s.push_back(run.value().finish);
    if (refs != nullptr &&
        !GroupsNear((*refs)[i], built.value().agg.result(), 1e-9)) {
      ++r.wrong;
    }
  }
  r.counters = KernelMetrics(KernelDelta(k0, codegen::KernelCounters()),
                             r.run_s);
  for (const auto& [metric, counter] : kEngineCounters) {
    r.counters[metric] = CounterValue(eng.metrics(), counter) -
                         CounterValue(before, counter);
  }
  if (traced) {
    const auto t0 = HostClock::now();
    const std::string trace = eng.DumpTrace();
    r.dump_trace_s = SecondsSince(t0);
    r.trace_events = eng.tracer().num_events();
    eng.tracer().Clear();
    eng.SetTraceOptions(obs::TraceOptions{false});
  }
  return r;
}

/// Per-layer sample of one untraced suite and its traced twin.
LayerSample LayerMetrics(const SuiteRep& plain, const SuiteRep& traced) {
  LayerSample s = plain.counters;
  s["queries.build_plan_s"] = plain.build_s;
  s["opt.optimize_s"] = plain.optimize_s;
  s["opt.optimize_calls"] = static_cast<double>(kSuiteSize);
  s["engine.run_s"] = plain.run_s;
  s["engine.run_us_per_pipeline"] =
      s["engine.pipelines"] > 0 ? plain.run_s / s["engine.pipelines"] * 1e6
                                : 0;
  s["obs.trace_overhead_s"] = traced.run_s - plain.run_s;
  s["obs.dump_trace_s"] = traced.dump_trace_s;
  s["obs.trace_events"] = static_cast<double>(traced.trace_events);
  return s;
}

}  // namespace

void RunTpchWorkload(const Options& opts, Report* report) {
  sim::Topology topo = sim::Topology::PaperServer();

  // ---- set-up, repeated: data generation + the warm-up suite on a fresh
  // engine, which collects the table statistics ----
  std::vector<double> prepare_s, warmup_s, setup_s;
  TpchSetup setup;
  SuiteRep warm;
  engine::ExecutionPolicy policy;
  MachineSpeed speed;
  for (int i = 0; i < kSetups; ++i) {
    setup = TpchSetup{};  // free the previous tables before timing anew
    speed.Sample();
    setup.ctx = std::make_unique<queries::TpchContext>();
    setup.ctx->topo = &topo;
    setup.ctx->sf_actual = kTpchSf;
    setup.ctx->sf_nominal = 100.0;
    auto t0 = HostClock::now();
    HAPE_CHECK(queries::PrepareTpch(setup.ctx.get(), opts.seed).ok());
    prepare_s.push_back(SecondsSince(t0));
    setup.engine = std::make_unique<engine::Engine>(&topo);
    policy = SuitePolicy(*setup.ctx);
    t0 = HostClock::now();
    warm = RunSuite(&setup, policy, nullptr, nullptr);
    warmup_s.push_back(SecondsSince(t0));
    setup_s.push_back(prepare_s.back() + warmup_s.back());
    std::fprintf(stderr, "tpch_olap: set-up %d: prepare %.3f s + warm-up "
                 "%.3f s\n", i, prepare_s.back(), warmup_s.back());
  }
  std::vector<Groups> refs;
  for (const TpchQuery& q : kSuite) refs.push_back(q.ref(*setup.ctx).groups);

  // ---- timed suites until the time budget is spent; a traced run pairs
  // each with a traced suite ----
  std::vector<SuiteRep> reps;
  std::vector<LayerSample> layers;
  SpanLog spans;
  uint64_t errors = warm.errors;
  uint64_t wrong = 0;
  const auto check = [&](const SuiteRep& r) {
    errors += r.errors;
    wrong += r.wrong;
    if (r.sim_s != warm.sim_s) {
      report->Fail("simulated query times differ from the warm-up suite");
    }
  };
  const auto budget = HostClock::now();
  do {
    speed.Sample();
    reps.push_back(RunSuite(&setup, policy, &refs, nullptr));
    check(reps.back());
    if (opts.trace) {
      const SuiteRep traced = RunSuite(&setup, policy, &refs, &spans);
      check(traced);
      layers.push_back(LayerMetrics(reps.back(), traced));
    }
  } while (SecondsSince(budget) < opts.seconds);

  double host_s = 0;
  std::vector<double> frontend_us;
  for (const SuiteRep& r : reps) {
    host_s += r.host_s();
    for (double f : r.frontend_s) frontend_us.push_back(f * 1e6);
  }
  report->attempted = kSuiteSize * reps.size();
  report->failed = errors + wrong;
  if (errors > 0) report->Fail(std::to_string(errors) + " Status errors");
  if (wrong > 0) report->Fail(std::to_string(wrong) + " wrong answers");
  std::fprintf(stderr, "tpch_olap: %zu timed suites, %.3f s host each\n",
               reps.size(), host_s / static_cast<double>(reps.size()));

  report->Detail("replays", static_cast<double>(reps.size()));
  report->Detail("submit_samples", static_cast<double>(frontend_us.size()));
  report->Detail("setup_s_samples", setup_s);
  report->Detail("sim_query_s", warm.sim_s);

  report->slowdown = speed.slowdown();
  const double qps = static_cast<double>(report->attempted) / host_s;
  report->Detail("machine_slowdown", report->slowdown);
  report->Detail("machine_sample_s", speed.samples_s());

  if (!opts.trace) {
    report->Set("setup_s", Median(setup_s));
    report->Set("host_qps", qps);
    report->Set("submit_us_p50", Percentile(frontend_us, 50));
    report->Set("peak_rss_mb", PeakRssMb());
    report->Set("sim_latency_p95_s", Percentile(warm.sim_s, 95));
    // No deadlines: a query meets its service level when it completes
    // with the right answer.
    report->Set("deadline_met_rate",
                1.0 - static_cast<double>(report->failed) /
                          static_cast<double>(report->attempted));
    return;
  }

  SetMedians(layers, report);
  double sim_suite_s = 0;
  for (double s : warm.sim_s) sim_suite_s += s;
  report->Set("setup.prepare_tpch_s", Median(prepare_s));
  report->Set("setup.warmup_s", Median(warmup_s));
  report->Set("sim.makespan_s", sim_suite_s);
  report->Set("sla.latency_p50_s", Percentile(warm.sim_s, 50));
  if (!opts.spans_out.empty() && !spans.WriteChromeJson(opts.spans_out)) {
    report->Fail("could not write spans to " + opts.spans_out);
  }
}

}  // namespace hape::e2e
