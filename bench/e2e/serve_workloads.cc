// The three serving workloads: open-loop request traces replayed through a
// QueryService under kSlaTiered on the paper's server.
//
//   serve_steady   the reference serving mix (bench_serve's trace at seed
//                  17): 1000 requests, plan cache on, ~98% hits.
//   serve_nocache  the same traces with the plan cache disabled, so every
//                  request takes the optimizer path.
//   serve_long     the serve_steady generator at 2000 requests, where the
//                  scheduler decision loop takes a growing share of host
//                  time.
//
// A run replays several independent traces and pools them. One trace
// draws its 16 fuzz plans from one seed, and those plans alone move host
// time per request by ~10% and the latency percentiles by up to 50% from
// seed to seed; pooled over 6-12 traces the end-to-end metrics move by a
// few percent.
//
// The measured run times QueryService::Submit per request and
// QueryService::Run per replay, tracing off. The traced run replays every
// trace in lockstep through the service and through a bench-side shadow
// of QueryService::Submit made of the same public calls, each wrapped in
// a host-time span, and checks that the shadow schedules exactly what the
// service scheduled.

#include <bit>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "codegen/kernels.h"
#include "common/hash.h"
#include "e2e.h"
#include "engine/scheduler.h"
#include "lint/plan_lint.h"
#include "queries/plan_fuzzer.h"
#include "queries/tpch_queries.h"
#include "serve/plan_cache.h"
#include "serve/query_service.h"
#include "serve/workload.h"

namespace hape::e2e {
namespace {

using serve::PlanCache;
using serve::QueryService;
using serve::WorkloadOptions;
using serve::WorkloadQuery;
using Trace = std::vector<WorkloadQuery>;

/// Actual scale factor of the serving tables (costed at SF 100) and the
/// fixed TPC-H data seed; the request traces are what --seed varies.
constexpr double kServeSf = 0.003;
constexpr uint64_t kDataSeed = 42;
constexpr double kArrivalRateQps = 4.0;
/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 5;
/// Offered rates of the sim-capacity search (sim queries per second).
constexpr double kCapacityRates[] = {2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0, 6.0};
/// Allowed deadline-miss share and backlog drain time of a sustained rate.
constexpr double kCapacityMissLimit = 0.01;
constexpr double kCapacityDrainS = 30.0;
/// Allowed ratio of the shadow's summed front-end spans to the service's
/// Submit host time.
constexpr double kSpanCoverageTolerance = 0.15;
/// Traces a traced run replays: per-layer medians need fewer than the
/// pooled end-to-end metrics, and a lockstep replay costs two.
constexpr int kTracedTraces = 4;

struct ServeWorkload {
  int num_queries;
  size_t cache_capacity;
  int traces;  ///< sub-traces replayed per run
};

ServeWorkload WorkloadFor(const std::string& name) {
  if (name == "serve_nocache") return {1000, 0, 12};
  if (name == "serve_long") return {2000, PlanCache::kDefaultCapacity, 6};
  return {1000, PlanCache::kDefaultCapacity, 12};  // serve_steady
}

/// Generator seed of sub-trace k. Sub-trace 0 is --seed's own trace; the
/// others are spaced far enough apart that the sub-traces of small seeds
/// never coincide.
uint64_t TraceSeed(uint64_t seed, int k) {
  return seed + 1000003ULL * static_cast<uint64_t>(k);
}

WorkloadOptions TraceOptions(int num_queries, uint64_t seed, double rate) {
  WorkloadOptions wo;
  wo.num_queries = num_queries;
  wo.seed = seed;
  wo.arrival_rate_qps = rate;
  wo.tier_weights = {1.0, 2.0, 5.0};
  wo.tier_deadline_s = {5.0, 10.0, 12.0};
  wo.fuzz_pool = 16;
  wo.fuzz_fraction = 0.6;
  return wo;
}

engine::ExecutionPolicy ServingPolicy(const sim::Topology& topo) {
  engine::ExecutionPolicy p = engine::ExecutionPolicy::ForConfig(
      topo, engine::EngineConfig::kProteusHybrid);
  p.async = engine::AsyncOptions::Depth(1);
  p.scheduling = engine::SchedulingPolicy::kSlaTiered;
  p.serve.max_inflight = 8;
  p.serve.aging_boost_s = 120.0;
  p.serve.shed_on_deadline = true;
  return p;
}

Trace Generate(queries::TpchContext* ctx, const WorkloadOptions& wo) {
  auto trace = serve::GenerateWorkload(ctx, wo);
  HAPE_CHECK(trace.ok()) << trace.status().ToString();
  return std::move(trace.value());
}

/// PrepareTpch plus GenerateWorkload of one trace, each timed; the tables
/// are returned. A generated plan holds its scan packets (~0.4 MB per
/// request), so traces are generated right before each replay and dropped
/// after it: only one is ever alive.
std::unique_ptr<queries::TpchContext> SetUp(const WorkloadOptions& trace,
                                            std::vector<double>* prepare_s,
                                            std::vector<double>* generate_s) {
  auto ctx = std::make_unique<queries::TpchContext>();
  ctx->sf_actual = kServeSf;
  ctx->sf_nominal = 100.0;
  auto t0 = HostClock::now();
  HAPE_CHECK(queries::PrepareTpch(ctx.get(), kDataSeed).ok());
  prepare_s->push_back(SecondsSince(t0));
  t0 = HostClock::now();
  const Trace generated = Generate(ctx.get(), trace);
  generate_s->push_back(SecondsSince(t0));
  return ctx;
}

/// Q9* with SQL join semantics: every lineitem row joins every partsupp
/// row of its (partkey, suppkey). queries::RefQ9 keys partsupp by that
/// pair in a map, keeping one row per pair, which only agrees while the
/// pairs are unique; below SF 0.01 the generator repeats some (120 of
/// 2400 at SF 0.003) and the engine's hash join, rightly, matches them all.
Groups RefQ9AllMatches(const queries::TpchContext& ctx) {
  const storage::Catalog& cat = ctx.catalog;
  const storage::Table& l = *cat.Get("lineitem").value();
  const storage::Table& o = *cat.Get("orders").value();
  const storage::Table& s = *cat.Get("supplier").value();
  const storage::Table& ps = *cat.Get("partsupp").value();
  std::unordered_map<int64_t, int32_t> order_year;
  for (size_t i = 0; i < o.num_rows(); ++i) {
    order_year[o.column("o_orderkey")->i64()[i]] =
        o.column("o_orderdate")->i32()[i] / 10000;
  }
  std::unordered_map<int64_t, int64_t> supp_nation;
  for (size_t i = 0; i < s.num_rows(); ++i) {
    supp_nation[s.column("s_suppkey")->i64()[i]] =
        s.column("s_nationkey")->i64()[i];
  }
  std::map<std::pair<int64_t, int64_t>, std::vector<double>> ps_costs;
  for (size_t i = 0; i < ps.num_rows(); ++i) {
    ps_costs[{ps.column("ps_partkey")->i64()[i],
              ps.column("ps_suppkey")->i64()[i]}]
        .push_back(ps.column("ps_supplycost")->f64()[i]);
  }
  const auto lo = l.column("l_orderkey")->i64();
  const auto lp = l.column("l_partkey")->i64();
  const auto ls = l.column("l_suppkey")->i64();
  const auto qty = l.column("l_quantity")->f64();
  const auto price = l.column("l_extendedprice")->f64();
  const auto disc = l.column("l_discount")->f64();
  Groups out;
  for (size_t i = 0; i < l.num_rows(); ++i) {
    auto year = order_year.find(lo[i]);
    auto nation = supp_nation.find(ls[i]);
    auto costs = ps_costs.find({lp[i], ls[i]});
    if (year == order_year.end() || nation == supp_nation.end() ||
        costs == ps_costs.end()) {
      continue;
    }
    std::vector<double>& g = out[nation->second * 10000 + year->second];
    if (g.empty()) g.assign(1, 0.0);
    for (double cost : costs->second) {
      g[0] += price[i] * (1 - disc[i]) - cost * qty[i];
    }
  }
  return out;
}

/// Reference answers of every statement a trace can contain: the scalar
/// TPC-H references and queries::Reference of each fuzz-pool spec, the
/// pool rebuilt with GenerateWorkload's documented (seed, i) rule.
class Oracle {
 public:
  Oracle(const queries::TpchContext& ctx, const WorkloadOptions& wo) {
    tpch_["q1"] = queries::RefQ1(ctx).groups;
    tpch_["q3"] = queries::RefQ3(ctx).groups;
    tpch_["q5"] = queries::RefQ5(ctx).groups;
    tpch_["q6"] = queries::RefQ6(ctx).groups;
    tpch_["q9"] = RefQ9AllMatches(ctx);
    for (int i = 0; i < wo.fuzz_pool; ++i) {
      queries::Fuzzer fuzzer(wo.seed ^ (0x9e3779b97f4a7c15ULL * (i + 1)));
      fuzz_.push_back(queries::Reference(fuzzer.Generate(), ctx.catalog));
    }
  }

  /// True when `got` is the right answer for the request labelled `label`
  /// ("fuzz<i>#<n>" or "q<k>#<n>"): fuzz answers bit-identical, TPC-H
  /// answers within relative 1e-9.
  bool Check(const std::string& label, const Groups& got) const {
    const std::string stmt = label.substr(0, label.find('#'));
    if (stmt.rfind("fuzz", 0) == 0) {
      const size_t i = std::stoul(stmt.substr(4));
      return i < fuzz_.size() && GroupsIdentical(fuzz_[i], got);
    }
    auto it = tpch_.find(stmt);
    return it != tpch_.end() && GroupsNear(it->second, got, 1e-9);
  }

 private:
  std::map<std::string, Groups> tpch_;
  std::vector<Groups> fuzz_;
};

/// Digest of everything two replays of one trace must agree on bit for
/// bit: per query its admission, finish, outcome and tier, plus the
/// makespan, peak GPU residency and every per-tier percentile.
uint64_t ScheduleDigest(const engine::ScheduleStats& s) {
  uint64_t h = 0;
  const auto mix = [&h](uint64_t v) { h = HashCombine(h, v); };
  const auto mix_time = [&mix](double t) { mix(std::bit_cast<uint64_t>(t)); };
  mix_time(s.makespan);
  mix(s.peak_resident_bytes);
  for (const engine::QueryRunStats& q : s.queries) {
    mix(static_cast<uint64_t>(q.id));
    mix_time(q.admitted);
    mix_time(q.finish);
    mix(static_cast<uint64_t>(q.outcome));
    mix(q.shed ? 1 : 0);
    mix(static_cast<uint64_t>(q.tier));
  }
  for (const engine::TierPercentiles& t : s.tiers) {
    mix(t.queries);
    mix(t.completed);
    mix(t.shed);
    for (double p : {t.queue_p50, t.queue_p95, t.queue_p99, t.makespan_p50,
                     t.makespan_p95, t.makespan_p99}) {
      mix_time(p);
    }
  }
  return h;
}

/// Simulated outcomes pooled over the replayed traces.
struct SimOutcomes {
  std::vector<double> latency;        ///< finish - arrival, completed only
  std::vector<double> tier0_latency;  ///< the same, SLA tier 0
  size_t queries = 0;
  size_t missed = 0;  ///< shed, aborted, or completed past the deadline

  void Add(const engine::ScheduleStats& s) {
    for (const engine::QueryRunStats& q : s.queries) {
      if (q.completed()) {
        latency.push_back(q.makespan_s());
        if (q.tier == 0) tier0_latency.push_back(q.makespan_s());
      }
      missed += !q.completed() || (q.deadline_s > 0 && q.finish > q.deadline_s)
                    ? 1
                    : 0;
    }
    queries += s.queries.size();
  }
  double miss_rate() const {
    return queries == 0 ? 0
                        : static_cast<double>(missed) /
                              static_cast<double>(queries);
  }
};

/// Host numbers of one replay through the service.
struct ServiceRep {
  size_t terminal = 0;
  PlanCache::Stats cache;
  obs::MetricsRegistry metrics;
  codegen::KernelCounterSnapshot kernels;  ///< over QueryService::Run
  std::vector<double> submit_s;  ///< per-request QueryService::Submit
  double submit_total_s = 0;
  double run_s = 0;     ///< QueryService::Run
  uint64_t errors = 0;  ///< Submit/Run Status errors
  uint64_t wrong = 0;   ///< completed with a wrong answer

  double host_s() const { return submit_total_s + run_s; }
};

/// One replay of a trace through the service under test: a fresh Engine
/// and QueryService on a topology of their own, so a shadow replay can
/// proceed in lockstep.
class ServiceReplay {
 public:
  ServiceReplay(const queries::TpchContext& ctx,
                const engine::ExecutionPolicy& policy, size_t cache_capacity)
      : service_(&eng_, &ctx.catalog, policy, cache_capacity) {}
  ServiceReplay(const ServiceReplay&) = delete;
  ServiceReplay& operator=(const ServiceReplay&) = delete;

  void Submit(const WorkloadQuery& q) {
    const auto t0 = HostClock::now();
    Result<QueryService::Ticket> t = service_.Submit(q.plan, q.opts);
    const double s = SecondsSince(t0);
    rep_.submit_s.push_back(s);
    rep_.submit_total_s += s;
    tickets_.push_back(t.ok() ? std::optional(t.value()) : std::nullopt);
    rep_.errors += t.ok() ? 0 : 1;
  }

  /// Runs the admitted requests and checks every completed answer against
  /// `oracle` (when given); the schedule goes to `*schedule`. Callers drop
  /// schedules once compared: keeping one per replay grows the heap, which
  /// slows later replays by up to 20%.
  ServiceRep Run(const Oracle* oracle, engine::ScheduleStats* schedule) {
    const codegen::KernelCounterSnapshot k0 = codegen::KernelCounters();
    const auto t0 = HostClock::now();
    Result<engine::ScheduleStats> stats = service_.Run();
    rep_.run_s = SecondsSince(t0);
    rep_.kernels = KernelDelta(k0, codegen::KernelCounters());
    rep_.cache = service_.cache_stats();
    rep_.metrics = eng_.metrics();
    if (!stats.ok()) {
      rep_.errors += tickets_.size();
      *schedule = {};
      return std::move(rep_);
    }
    *schedule = std::move(stats.value());
    rep_.terminal = schedule->queries.size();
    if (oracle == nullptr) return std::move(rep_);

    // Result handles live as long as the engine: check answers here.
    std::vector<const engine::QueryRunStats*> by_id(tickets_.size(), nullptr);
    for (const engine::QueryRunStats& q : schedule->queries) {
      if (q.id >= 0 && static_cast<size_t>(q.id) < by_id.size()) {
        by_id[q.id] = &q;
      }
    }
    for (const auto& t : tickets_) {
      if (!t.has_value()) continue;
      const engine::QueryRunStats* q =
          static_cast<size_t>(t->id) < by_id.size() ? by_id[t->id] : nullptr;
      if (q == nullptr) {
        ++rep_.errors;
      } else if (q->completed() &&
                 !oracle->Check(q->label, t->agg.result())) {
        ++rep_.wrong;
      }
    }
    return std::move(rep_);
  }

 private:
  sim::Topology topo_ = sim::Topology::PaperServer();
  engine::Engine eng_{&topo_};
  QueryService service_;
  std::vector<std::optional<QueryService::Ticket>> tickets_;
  ServiceRep rep_;
};

/// Drops a request's plan once it is submitted, as a client would: a
/// generated plan holds its scan packets (~0.4 MB per request).
void Release(WorkloadQuery* q) {
  const engine::QueryPlan dropped = std::move(q->plan);
}

ServiceRep ReplayService(Trace trace, const queries::TpchContext& ctx,
                         const engine::ExecutionPolicy& policy,
                         size_t cache_capacity, const Oracle* oracle,
                         engine::ScheduleStats* schedule) {
  ServiceReplay replay(ctx, policy, cache_capacity);
  for (WorkloadQuery& q : trace) {
    replay.Submit(q);
    Release(&q);
  }
  return replay.Run(oracle, schedule);
}

/// Host numbers of one replay through the shadow.
struct ShadowRep {
  double run_s = 0;  ///< traced RunAll
  double dump_trace_s = 0;
  size_t trace_events = 0;
  uint64_t load_bytes = 0;
  uint64_t lint_findings = 0;
  uint64_t errors = 0;
  SpanLog spans;
};

/// Front-end span names of one shadow request (children of "submit").
constexpr const char* kFrontEndSpans[] = {
    "fingerprint", "cache_lookup", "load", "optimize",
    "dump", "cache_insert", "lint", "engine_submit"};

/// The bench-side shadow of QueryService::Submit: the same public calls
/// in the same order, each in its own span, and a traced RunAll.
class ShadowReplay {
 public:
  ShadowReplay(const queries::TpchContext& ctx,
               const engine::ExecutionPolicy& policy, size_t cache_capacity)
      : catalog_(ctx.catalog), policy_(policy), cache_(cache_capacity) {
    lint_ctx_.topo = &topo_;
    lint_ctx_.catalog = &catalog_;
    lint_ctx_.policy = &policy_;
  }
  ShadowReplay(const ShadowReplay&) = delete;
  ShadowReplay& operator=(const ShadowReplay&) = delete;

  void Submit(const WorkloadQuery& q, int req) {
    SpanLog& spans = rep_.spans;
    const Status st = spans.Time("submit", req, [&]() -> Status {
      Result<std::string> fp = spans.Time(
          "fingerprint", req, [&] { return eng_.DumpPlan(q.plan); });
      HAPE_RETURN_NOT_OK(fp.status());
      const std::string* cached = spans.Time(
          "cache_lookup", req, [&] { return cache_.Find(fp.value()); });
      // A hit loads the cached optimized document; a miss loads the
      // fingerprint itself, optimizes, and caches the optimized dump.
      const std::string& doc = cached != nullptr ? *cached : fp.value();
      rep_.load_bytes += doc.size();
      Result<engine::LoadedPlan> loaded = spans.Time(
          "load", req, [&] { return eng_.LoadPlan(doc, catalog_); });
      HAPE_RETURN_NOT_OK(loaded.status());
      engine::QueryPlan& plan = loaded.value().plan;
      if (cached == nullptr) {
        HAPE_RETURN_NOT_OK(spans.Time("optimize", req, [&] {
          return eng_.Optimize(&plan, policy_).status();
        }));
        Result<std::string> optimized =
            spans.Time("dump", req, [&] { return eng_.DumpPlan(plan); });
        HAPE_RETURN_NOT_OK(optimized.status());
        spans.Time("cache_insert", req, [&] {
          cache_.Insert(std::move(fp.value()), std::move(optimized.value()));
        });
      }
      if (policy_.lint.enable) {
        lint_ctx_.submit = &q.opts;
        rep_.lint_findings += spans.Time("lint", req, [&] {
          return lint::LintPlan(plan, lint_ctx_).diagnostics().size();
        });
      }
      spans.Time("engine_submit", req,
                 [&] { return eng_.Submit(std::move(plan), q.opts); });
      return Status::OK();
    });
    rep_.errors += st.ok() ? 0 : 1;
  }

  ShadowRep Run(engine::ScheduleStats* schedule) {
    SpanLog& spans = rep_.spans;
    eng_.SetTraceOptions(obs::TraceOptions{true});
    auto t0 = HostClock::now();
    Result<engine::ScheduleStats> stats =
        spans.Time("run_all", -1, [&] { return eng_.RunAll(policy_); });
    rep_.run_s = SecondsSince(t0);
    t0 = HostClock::now();
    const std::string dumped =
        spans.Time("dump_trace", -1, [&] { return eng_.DumpTrace(); });
    rep_.dump_trace_s = SecondsSince(t0);
    rep_.trace_events = eng_.tracer().num_events();
    if (stats.ok()) {
      *schedule = std::move(stats.value());
    } else {
      *schedule = {};
      ++rep_.errors;
    }
    return std::move(rep_);
  }

 private:
  sim::Topology topo_ = sim::Topology::PaperServer();
  engine::Engine eng_{&topo_};
  const storage::Catalog& catalog_;
  const engine::ExecutionPolicy& policy_;
  PlanCache cache_;
  lint::LintContext lint_ctx_;
  ShadowRep rep_;
};

/// Sim-only replays of `seed`'s trace shape at rising offered rates: the
/// highest rate of kCapacityRates below the first one that misses more
/// than kCapacityMissLimit of deadlines or fails to drain its backlog
/// within kCapacityDrainS of the last arrival. 0 when even the lowest
/// rate fails.
double SimCapacityQps(queries::TpchContext* ctx, int num_queries,
                      uint64_t seed, const engine::ExecutionPolicy& policy) {
  double capacity = 0;
  for (double rate : kCapacityRates) {
    Trace trace = Generate(ctx, TraceOptions(num_queries, seed, rate));
    const size_t requests = trace.size();
    const double last_arrival = trace.empty() ? 0 : trace.back().opts.arrival;
    engine::ScheduleStats schedule;
    ReplayService(std::move(trace), *ctx, policy, PlanCache::kDefaultCapacity,
                  nullptr, &schedule);
    SimOutcomes outcomes;
    outcomes.Add(schedule);
    std::fprintf(stderr,
                 "  capacity probe %.1f qps: miss rate %.4f, makespan %.1f s "
                 "(last arrival %.1f s)\n",
                 rate, outcomes.miss_rate(), schedule.makespan, last_arrival);
    if (outcomes.queries != requests ||
        outcomes.miss_rate() > kCapacityMissLimit ||
        schedule.makespan > last_arrival + kCapacityDrainS) {
      break;
    }
    capacity = rate;
  }
  return capacity;
}

/// Per-layer sample of one service replay and its shadow twin.
LayerSample LayerMetrics(const ServiceRep& svc, const ShadowRep& shadow) {
  const auto counter = [&](const char* name) {
    return CounterValue(svc.metrics, name);
  };
  const SpanLog& spans = shadow.spans;
  LayerSample s = KernelMetrics(svc.kernels, svc.run_s);
  s["serve.submit_s"] = svc.submit_total_s;
  s["serve.cache_lookup_s"] = spans.Total("cache_lookup");
  s["serve.cache_hit_rate"] = svc.cache.hit_rate();
  s["serve.cache_evictions"] = static_cast<double>(svc.cache.evictions);
  s["serve.submit_us_p99"] = Percentile(svc.submit_s, 99) * 1e6;
  s["plan_json.fingerprint_s"] = spans.Total("fingerprint");
  s["plan_json.load_s"] = spans.Total("load");
  s["plan_json.load_calls"] = static_cast<double>(spans.Count("load"));
  s["plan_json.load_bytes"] = static_cast<double>(shadow.load_bytes);
  s["plan_json.dump_s"] = spans.Total("dump");
  s["opt.optimize_s"] = spans.Total("optimize");
  s["opt.optimize_calls"] = static_cast<double>(spans.Count("optimize"));
  s["lint.lint_s"] = spans.Total("lint");
  s["lint.findings"] = static_cast<double>(shadow.lint_findings);
  s["engine.submit_s"] = spans.Total("engine_submit");
  s["engine.run_s"] = svc.run_s;
  s["engine.pipelines"] = counter("engine.pipelines");
  s["engine.packets"] = counter("engine.packets");
  s["engine.run_us_per_pipeline"] =
      s["engine.pipelines"] > 0 ? svc.run_s / s["engine.pipelines"] * 1e6 : 0;
  s["scheduler.admissions"] = counter("scheduler.admissions");
  s["scheduler.preemptions"] = counter("scheduler.preemptions");
  s["scheduler.shed"] = counter("scheduler.shed");
  s["scheduler.aging_promotions"] = counter("scheduler.aging_promotions");
  s["sim.moved_bytes"] = counter("engine.moved_bytes");
  s["sim.transfer_busy_s"] = counter("engine.transfer_busy_s");
  s["sim.transfer_exposed_s"] = counter("engine.transfer_exposed_s");
  s["sim.broadcast_bytes"] = counter("engine.broadcast_bytes");
  s["obs.dump_trace_s"] = shadow.dump_trace_s;
  s["obs.trace_events"] = static_cast<double>(shadow.trace_events);
  return s;
}

void Log(const char* phase, int k, const ServiceRep& r) {
  std::fprintf(stderr,
               "  %-8s trace %d: submit %.3f s + run %.3f s = %.3f s host, "
               "%zu terminal, cache %llu/%llu\n",
               phase, k, r.submit_total_s, r.run_s, r.host_s(), r.terminal,
               static_cast<unsigned long long>(r.cache.hits),
               static_cast<unsigned long long>(r.cache.misses));
}

}  // namespace

void RunServeWorkload(const Options& opts, Report* report) {
  const ServeWorkload w = WorkloadFor(opts.workload);
  const engine::ExecutionPolicy policy =
      ServingPolicy(sim::Topology::PaperServer());
  std::vector<WorkloadOptions> traces;
  for (int k = 0; k < (opts.trace ? kTracedTraces : w.traces); ++k) {
    traces.push_back(TraceOptions(w.num_queries, TraceSeed(opts.seed, k),
                                  kArrivalRateQps));
  }

  // ---- set-up, repeated: setup_s is the median ----
  std::vector<double> prepare_s, generate_s, setup_s;
  std::unique_ptr<queries::TpchContext> ctx;
  MachineSpeed speed;
  for (int i = 0; i < kSetups; ++i) {
    ctx.reset();  // free the previous tables before timing anew
    speed.Sample();
    ctx = SetUp(traces.front(), &prepare_s, &generate_s);
    setup_s.push_back(prepare_s.back() + generate_s.back());
  }
  std::fprintf(stderr, "%s: %zu traces x %d requests, set-up %.3f s\n",
               opts.workload.c_str(), traces.size(), w.num_queries,
               Median(setup_s));
  std::vector<Oracle> oracles;
  for (const WorkloadOptions& wo : traces) oracles.emplace_back(*ctx, wo);

  // ---- warm-up: one untimed replay of trace 0 with the plan cache on.
  // Its timed replay must reproduce its schedule bit for bit; under
  // serve_nocache that proves a cache hit schedules like a cold run. ----
  uint64_t errors = 0;
  uint64_t wrong = 0;
  engine::ScheduleStats first;
  speed.Sample();
  auto t0 = HostClock::now();
  const ServiceRep warm =
      ReplayService(Generate(ctx.get(), traces.front()), *ctx, policy,
                    PlanCache::kDefaultCapacity, &oracles.front(), &first);
  const double warmup_s = SecondsSince(t0);
  Log("warm-up", 0, warm);
  errors += warm.errors;
  wrong += warm.wrong;

  // ---- timed: whole passes over the traces until the budget is spent.
  // The first pass records each trace's schedule digest and simulated
  // outcomes; later passes must reproduce the digests. ----
  std::vector<uint64_t> digests;
  SimOutcomes sim;
  std::vector<ServiceRep> reps;
  std::vector<LayerSample> layers;
  std::vector<double> coverage;
  double trace_overhead_s = 0;
  ShadowRep first_shadow;
  const auto budget = HostClock::now();
  do {
    for (int k = 0; k < static_cast<int>(traces.size()); ++k) {
      Trace trace = Generate(ctx.get(), traces[k]);
      speed.Sample();
      engine::ScheduleStats schedule;
      engine::ScheduleStats shadow_schedule;
      std::optional<ShadowRep> shadow;
      if (!opts.trace) {
        reps.push_back(ReplayService(std::move(trace), *ctx, policy,
                                     w.cache_capacity, &oracles[k],
                                     &schedule));
      } else {
        // The shadow replays in lockstep with the service, request by
        // request, alternating which goes first, so both front ends see the
        // same machine and the same cache state.
        ServiceReplay service(*ctx, policy, w.cache_capacity);
        ShadowReplay twin(*ctx, policy, w.cache_capacity);
        for (size_t i = 0; i < trace.size(); ++i) {
          if ((i + k) % 2 == 0) service.Submit(trace[i]);
          twin.Submit(trace[i], static_cast<int>(i));
          if ((i + k) % 2 == 1) service.Submit(trace[i]);
          Release(&trace[i]);
        }
        if (k % 2 == 1) shadow = twin.Run(&shadow_schedule);
        reps.push_back(service.Run(&oracles[k], &schedule));
        if (k % 2 == 0) shadow = twin.Run(&shadow_schedule);
      }
      Log("replay", k, reps.back());
      errors += reps.back().errors;
      wrong += reps.back().wrong;
      const uint64_t digest = ScheduleDigest(schedule);
      if (digests.size() < traces.size()) {
        digests.push_back(digest);
        sim.Add(schedule);
      } else if (digests[k] != digest) {
        report->Fail("trace " + std::to_string(k) +
                     " scheduled differently on a later pass");
      }
      if (k == 0 && digest != ScheduleDigest(first)) {
        report->Fail("trace 0 scheduled differently than its warm-up replay");
      }
      if (!opts.trace) continue;
      errors += shadow->errors;
      if (ScheduleDigest(shadow_schedule) != digest) {
        report->Fail("the shadow replay of trace " + std::to_string(k) +
                     " scheduled differently than QueryService");
      }
      double frontend_s = 0;
      for (const char* name : kFrontEndSpans) {
        frontend_s += shadow->spans.Total(name);
      }
      coverage.push_back(frontend_s / reps.back().submit_total_s);
      trace_overhead_s += shadow->run_s - reps.back().run_s;
      layers.push_back(LayerMetrics(reps.back(), *shadow));
      if (layers.size() == 1) first_shadow = std::move(*shadow);
    }
  } while (SecondsSince(budget) < opts.seconds);

  size_t terminal = 0;
  double host_s = 0;
  std::vector<double> submit_us;
  for (const ServiceRep& r : reps) {
    terminal += r.terminal;
    host_s += r.host_s();
    for (double s : r.submit_s) submit_us.push_back(s * 1e6);
  }
  report->attempted = reps.size() * static_cast<uint64_t>(w.num_queries);
  report->failed = errors + wrong;
  if (errors > 0) report->Fail(std::to_string(errors) + " Status errors");
  if (wrong > 0) report->Fail(std::to_string(wrong) + " wrong answers");

  report->Detail("replays", static_cast<double>(reps.size()));
  report->Detail("submit_samples", static_cast<double>(submit_us.size()));
  report->Detail("latency_samples", static_cast<double>(sim.latency.size()));
  report->Detail("setup_s_samples", setup_s);
  report->Detail("trace0_completed", static_cast<double>(first.completed));
  report->Detail("trace0_shed", static_cast<double>(first.shed));
  report->Detail("trace0_deadline_exceeded",
                 static_cast<double>(first.deadline_exceeded));
  report->Detail("trace0_cache_hits", static_cast<double>(warm.cache.hits));
  report->Detail("trace0_cache_misses",
                 static_cast<double>(warm.cache.misses));

  report->slowdown = speed.slowdown();
  const double qps = static_cast<double>(terminal) / host_s;
  report->Detail("machine_slowdown", report->slowdown);
  report->Detail("machine_sample_s", speed.samples_s());

  if (!opts.trace) {
    report->Set("setup_s", Median(setup_s));
    report->Set("host_qps", qps);
    report->Set("submit_us_p50", Percentile(submit_us, 50));
    report->Set("peak_rss_mb", PeakRssMb());
    report->Set("sim_latency_p95_s", Percentile(sim.latency, 95));
    report->Set("deadline_met_rate", 1.0 - sim.miss_rate());
    return;
  }

  // ---- traced run: per-layer metrics, medians over the replay pairs ----
  const double span_share = Median(coverage);
  report->Detail("shadow_frontend_share_of_submit", coverage);
  if (std::abs(span_share - 1.0) > kSpanCoverageTolerance) {
    report->Fail("shadow front-end spans cover " +
                 std::to_string(span_share) +
                 " of QueryService::Submit host time");
  }
  SetMedians(layers, report);
  // Whichever RunAll of a pair goes second runs ~20% slower. Pairs
  // alternate the order, so the mean difference cancels that and leaves
  // the tracing cost; a median would not.
  report->Set("obs.trace_overhead_s",
              trace_overhead_s / static_cast<double>(layers.size()));
  report->Set("setup.prepare_tpch_s", Median(prepare_s));
  report->Set("setup.generate_workload_s", Median(generate_s));
  report->Set("setup.warmup_s", warmup_s);
  report->Set("sim.peak_resident_bytes",
              static_cast<double>(first.peak_resident_bytes));
  report->Set("sim.makespan_s", first.makespan);
  report->Set("sla.latency_p50_s", Percentile(sim.latency, 50));
  report->Set("sla.deadline_miss_rate", sim.miss_rate());
  report->Set("sla.tier0_latency_p90_s", Percentile(sim.tier0_latency, 90));
  if (opts.workload == "serve_steady") {
    report->Set("sla.capacity_qps",
                SimCapacityQps(ctx.get(), w.num_queries, opts.seed, policy));
  }
  if (!opts.spans_out.empty() &&
      !first_shadow.spans.WriteChromeJson(opts.spans_out)) {
    report->Fail("could not write spans to " + opts.spans_out);
  }
}

}  // namespace hape::e2e
