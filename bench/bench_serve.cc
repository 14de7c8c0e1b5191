// Serving-layer bench: a 1000-query open-loop workload (TPC-H suite +
// fuzzer-pool plans under Poisson arrivals, SLA tiers weighted toward
// best-effort traffic) replayed through a QueryService — plan cache,
// admission control, and the kSlaTiered pipeline-preempting scheduler —
// against an *untiered* baseline: the identical arrival trace with every
// query forced to tier 0 on the same substrate, i.e. plain fair-share
// serving. The tiering claim is that the high-SLA tier's p95 queueing
// delay drops strictly below the untiered p95 without starving the rest.
//
// Besides the stdout table, results go to BENCH_serve.json, and the
// tiered replay's full run trace (every DMA packet, compute slice, and
// scheduling decision) to TRACE_serve.json. Its ctest
// (tools/check_bench_outputs.py) enforces:
//   - the replay is deterministic (a second run of the tiered schedule is
//     bit-identical, per-tier percentiles included — and since the second
//     run records a trace while the first does not, this doubles as proof
//     that tracing never perturbs the simulation),
//   - the trace is deterministic (two traced runs dump identical bytes)
//     and internally consistent (monotone timestamps, arrival <= admit <=
//     complete per query, tier queue percentiles reconciling with the
//     schedule's),
//   - tier 0's p95 queueing delay is strictly below the untiered
//     baseline's overall p95 on the same trace,
//   - the plan cache hit rate is > 0 (repeated statements actually hit),
//   - every query reaches exactly one terminal state (completed, shed at
//     admission, or aborted mid-flight on its expired deadline), and
//   - tier 0's deadline-miss rate is no worse than the untiered
//     baseline's over the same tier-0 population.

#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "common/json.h"
#include "engine/scheduler.h"
#include "queries/tpch_queries.h"
#include "serve/query_service.h"
#include "serve/workload.h"

namespace {

using namespace hape;         // NOLINT
using namespace hape::serve;  // NOLINT

queries::TpchContext* Context() {
  static sim::Topology topo = sim::Topology::PaperServer();
  static queries::TpchContext* ctx = [] {
    auto* c = new queries::TpchContext();
    c->topo = &topo;
    c->sf_actual = 0.003;
    c->sf_nominal = 100.0;
    HAPE_CHECK(PrepareTpch(c).ok());
    return c;
  }();
  return ctx;
}

engine::ExecutionPolicy ServingPolicy() {
  engine::ExecutionPolicy p = engine::ExecutionPolicy::ForConfig(
      *Context()->topo, engine::EngineConfig::kProteusHybrid);
  p.async = engine::AsyncOptions::Depth(1);
  p.scheduling = engine::SchedulingPolicy::kSlaTiered;
  p.serve.max_inflight = 8;
  // Aging well above the expected p99 wait: the promotion is a
  // starvation backstop here, not a scheduling feature under test.
  p.serve.aging_boost_s = 120.0;
  // Graceful degradation: a query whose deadline expired while it queued
  // is shed at the admission decision point instead of burning the
  // machine on an answer nobody is waiting for.
  p.serve.shed_on_deadline = true;
  return p;
}

WorkloadOptions BenchWorkload(int num_queries) {
  WorkloadOptions wo;
  wo.num_queries = num_queries;
  wo.seed = 17;
  wo.arrival_rate_qps = 4.0;
  wo.tier_weights = {1.0, 2.0, 5.0};
  // Tier-weighted deadlines, set inside the best-effort tier's queueing
  // tail so both degradation paths appear in the replay: a few queries
  // expire while queued (shed, never admitted) and a few expire
  // mid-flight (aborted at a pipeline boundary). The overlay never
  // perturbs the arrival/plan draws, so the trace stays comparable to
  // older runs.
  wo.tier_deadline_s = {5.0, 10.0, 12.0};
  wo.fuzz_pool = 16;
  wo.fuzz_fraction = 0.6;
  return wo;
}

struct Replay {
  engine::ScheduleStats stats;
  PlanCache::Stats cache;
  std::string trace_json;    // empty unless the replay was traced
  std::string metrics_json;  // engine MetricsRegistry snapshot
  size_t trace_events = 0;
};

/// Replay the trace through a fresh engine + service. `untiered` forces
/// every request to tier 0 — the baseline of the tiering comparison —
/// without touching arrivals, plans, or anything else. `traced` records
/// the full run trace; it must never change the schedule (the ctest
/// asserts `deterministic_replay`, a traced replay compared bit-for-bit
/// against an untraced one).
Replay Run(const WorkloadOptions& wo, bool untiered, bool traced = false) {
  queries::TpchContext* ctx = Context();
  ctx->topo->Reset();
  engine::Engine eng(ctx->topo);
  if (traced) eng.SetTraceOptions(obs::TraceOptions{true});
  QueryService service(&eng, &ctx->catalog, ServingPolicy());
  auto trace = GenerateWorkload(ctx, wo);
  HAPE_CHECK(trace.ok()) << trace.status().ToString();
  for (WorkloadQuery& q : trace.value()) {
    engine::SubmitOptions so = q.opts;
    if (untiered) so.tier = 0;
    auto t = service.Submit(q.plan, so);
    HAPE_CHECK(t.ok()) << t.status().ToString();
  }
  auto stats = service.Run();
  HAPE_CHECK(stats.ok()) << stats.status().ToString();
  Replay r{std::move(stats.value()), service.cache_stats(), {}, {}, 0};
  r.metrics_json = eng.metrics().ToJson();
  if (traced) {
    r.trace_json = eng.DumpTrace();
    r.trace_events = eng.tracer().num_events();
  }
  return r;
}

void WriteTiers(JsonWriter* w, const engine::ScheduleStats& s) {
  w->Key("tiers");
  w->BeginArray();
  for (const engine::TierPercentiles& t : s.tiers) {
    w->BeginObject();
    w->Key("tier");
    w->Int(t.tier);
    w->Key("queries");
    w->Uint(t.queries);
    w->Key("completed");
    w->Uint(t.completed);
    w->Key("cancelled");
    w->Uint(t.cancelled);
    w->Key("deadline_exceeded");
    w->Uint(t.deadline_exceeded);
    w->Key("shed");
    w->Uint(t.shed);
    w->Key("queue_p50_s");
    w->Double(t.queue_p50);
    w->Key("queue_p95_s");
    w->Double(t.queue_p95);
    w->Key("queue_p99_s");
    w->Double(t.queue_p99);
    w->Key("makespan_p50_s");
    w->Double(t.makespan_p50);
    w->Key("makespan_p95_s");
    w->Double(t.makespan_p95);
    w->Key("makespan_p99_s");
    w->Double(t.makespan_p99);
    w->EndObject();
  }
  w->EndArray();
}

bool SchedulesIdentical(const engine::ScheduleStats& a,
                        const engine::ScheduleStats& b) {
  if (a.makespan != b.makespan || a.queries.size() != b.queries.size() ||
      a.peak_resident_bytes != b.peak_resident_bytes ||
      a.tiers.size() != b.tiers.size()) {
    return false;
  }
  for (size_t i = 0; i < a.queries.size(); ++i) {
    if (a.queries[i].admitted != b.queries[i].admitted ||
        a.queries[i].finish != b.queries[i].finish ||
        a.queries[i].tier != b.queries[i].tier ||
        a.queries[i].copy_engine_bytes != b.queries[i].copy_engine_bytes) {
      return false;
    }
  }
  for (size_t i = 0; i < a.tiers.size(); ++i) {
    if (a.tiers[i].queue_p95 != b.tiers[i].queue_p95 ||
        a.tiers[i].makespan_p99 != b.tiers[i].makespan_p99) {
      return false;
    }
  }
  return true;
}

void ReplayTableAndJson() {
  const int kQueries = 1000;
  const WorkloadOptions wo = BenchWorkload(kQueries);

  std::printf("== Serving: %d-query open-loop replay, tiered vs untiered "
              "==\n",
              kQueries);
  const Replay tiered = Run(wo, /*untiered=*/false);
  const Replay again = Run(wo, /*untiered=*/false, /*traced=*/true);
  const Replay traced2 = Run(wo, /*untiered=*/false, /*traced=*/true);
  const Replay untiered = Run(wo, /*untiered=*/true);

  // `again` traced while `tiered` did not, so schedule equality here also
  // proves tracing is invisible to the simulation.
  const bool deterministic = SchedulesIdentical(tiered.stats, again.stats);
  const bool deterministic_trace = !again.trace_json.empty() &&
                                   again.trace_json == traced2.trace_json;
  HAPE_CHECK(!untiered.stats.tiers.empty());
  const engine::TierPercentiles& base = untiered.stats.tiers[0];

  // Deadline misses: a query that was shed/aborted, or that completed
  // after its (tier-weighted) deadline. The tier-0 population is fixed by
  // the tiered replay's tier assignment and compared by query id — the
  // untiered replay reports every query as tier 0, but ids are submission
  // order and identical across replays.
  const auto missed = [](const engine::QueryRunStats& q) {
    return q.outcome != engine::QueryOutcome::kCompleted ||
           (q.deadline_s > 0 && q.finish > q.deadline_s);
  };
  std::vector<char> is_tier0(kQueries, 0);
  for (const engine::QueryRunStats& q : tiered.stats.queries) {
    if (q.tier == 0 && q.id >= 0 && q.id < kQueries) is_tier0[q.id] = 1;
  }
  uint64_t miss_total = 0;
  uint64_t t0_queries = 0;
  uint64_t t0_miss = 0;
  uint64_t u0_miss = 0;
  for (const engine::QueryRunStats& q : tiered.stats.queries) {
    if (missed(q)) ++miss_total;
    if (q.id >= 0 && q.id < kQueries && is_tier0[q.id]) {
      ++t0_queries;
      if (missed(q)) ++t0_miss;
    }
  }
  for (const engine::QueryRunStats& q : untiered.stats.queries) {
    if (q.id >= 0 && q.id < kQueries && is_tier0[q.id] && missed(q)) {
      ++u0_miss;
    }
  }
  const double t0_rate =
      t0_queries == 0 ? 0.0
                      : static_cast<double>(t0_miss) /
                            static_cast<double>(t0_queries);
  const double u0_rate =
      t0_queries == 0 ? 0.0
                      : static_cast<double>(u0_miss) /
                            static_cast<double>(t0_queries);

  std::printf("%-10s %8s %12s %12s %12s %14s\n", "schedule", "tier",
              "queries", "queue_p50", "queue_p95", "makespan_p95");
  for (const engine::TierPercentiles& t : tiered.stats.tiers) {
    std::printf("%-10s %8d %12llu %12.4f %12.4f %14.4f\n", "tiered",
                t.tier, static_cast<unsigned long long>(t.queries),
                t.queue_p50, t.queue_p95, t.makespan_p95);
  }
  std::printf("%-10s %8d %12llu %12.4f %12.4f %14.4f\n", "untiered",
              base.tier, static_cast<unsigned long long>(base.queries),
              base.queue_p50, base.queue_p95, base.makespan_p95);
  std::printf(
      "\nterminal %zu/%d queries (%llu completed, %llu shed, %llu "
      "cancelled, %llu deadline-exceeded), makespan %.2f s, deterministic "
      "replay: %s, deterministic trace: %s (%zu events)\ndeadline misses: "
      "%llu total; tier-0 rate %.4f tiered vs %.4f untiered\ncache: %llu "
      "hits / %llu misses (%llu entries, %llu evictions, hit rate %.3f)\n",
      tiered.stats.queries.size(), kQueries,
      static_cast<unsigned long long>(tiered.stats.completed),
      static_cast<unsigned long long>(tiered.stats.shed),
      static_cast<unsigned long long>(tiered.stats.cancelled),
      static_cast<unsigned long long>(tiered.stats.deadline_exceeded),
      tiered.stats.makespan, deterministic ? "yes" : "NO",
      deterministic_trace ? "yes" : "NO", again.trace_events,
      static_cast<unsigned long long>(miss_total), t0_rate, u0_rate,
      static_cast<unsigned long long>(tiered.cache.hits),
      static_cast<unsigned long long>(tiered.cache.misses),
      static_cast<unsigned long long>(tiered.cache.entries),
      static_cast<unsigned long long>(tiered.cache.evictions),
      tiered.cache.hit_rate());

  JsonWriter w;
  w.BeginObject();
  w.Key("bench");
  w.String("serve");
  w.Key("num_queries");
  w.Int(kQueries);
  w.Key("terminal");
  w.Uint(tiered.stats.queries.size());
  w.Key("completed");
  w.Uint(tiered.stats.completed);
  w.Key("shed");
  w.Uint(tiered.stats.shed);
  w.Key("cancelled");
  w.Uint(tiered.stats.cancelled);
  w.Key("deadline_exceeded");
  w.Uint(tiered.stats.deadline_exceeded);
  w.Key("deadline_miss");
  w.BeginObject();
  w.Key("total");
  w.Uint(miss_total);
  w.Key("tier0_queries");
  w.Uint(t0_queries);
  w.Key("tier0_missed_tiered");
  w.Uint(t0_miss);
  w.Key("tier0_missed_untiered");
  w.Uint(u0_miss);
  w.Key("tier0_rate_tiered");
  w.Double(t0_rate);
  w.Key("tier0_rate_untiered");
  w.Double(u0_rate);
  w.EndObject();
  w.Key("seed");
  w.Uint(wo.seed);
  w.Key("arrival_rate_qps");
  w.Double(wo.arrival_rate_qps);
  w.Key("deterministic_replay");
  w.Bool(deterministic);
  w.Key("deterministic_trace");
  w.Bool(deterministic_trace);
  w.Key("trace_events");
  w.Uint(again.trace_events);
  w.Key("makespan_s");
  w.Double(tiered.stats.makespan);
  w.Key("peak_resident_bytes");
  w.Uint(tiered.stats.peak_resident_bytes);
  w.Key("cache");
  w.BeginObject();
  w.Key("hits");
  w.Uint(tiered.cache.hits);
  w.Key("misses");
  w.Uint(tiered.cache.misses);
  w.Key("entries");
  w.Uint(tiered.cache.entries);
  w.Key("evictions");
  w.Uint(tiered.cache.evictions);
  w.Key("hit_rate");
  w.Double(tiered.cache.hit_rate());
  w.EndObject();
  // Engine-wide instrument snapshot of the tiered replay (per-link bytes,
  // transfer overlap seconds, scheduler queue-depth histograms, ...).
  w.Key("metrics");
  w.Raw(tiered.metrics_json);
  w.Key("tiered");
  w.BeginObject();
  WriteTiers(&w, tiered.stats);
  w.EndObject();
  w.Key("untiered");
  w.BeginObject();
  WriteTiers(&w, untiered.stats);
  w.EndObject();
  HAPE_CHECK(!tiered.stats.tiers.empty());
  w.Key("high_tier_queue_p95_s");
  w.Double(tiered.stats.tiers[0].queue_p95);
  w.Key("untiered_queue_p95_s");
  w.Double(base.queue_p95);
  w.Key("high_tier_beats_untiered");
  w.Bool(tiered.stats.tiers[0].queue_p95 < base.queue_p95);
  w.EndObject();
  std::ofstream out("BENCH_serve.json");
  out << w.str() << "\n";
  std::ofstream tout("TRACE_serve.json");
  tout << again.trace_json << "\n";
  std::printf("\nwrote BENCH_serve.json and TRACE_serve.json\n\n");
}

}  // namespace

int main() {
  ReplayTableAndJson();
  return 0;
}
