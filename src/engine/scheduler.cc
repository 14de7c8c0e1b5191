#include "engine/scheduler.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <queue>
#include <tuple>
#include <utility>

#include "engine/executor.h"

#include "common/logging.h"
#include "ops/hash_table.h"

namespace hape::engine {

namespace {

/// Sum of one pipeline run's compute seconds over all devices: the unit
/// the weighted-fair-queueing virtual time advances by.
sim::SimTime TotalBusy(const ExecStats& st) {
  sim::SimTime s = 0;
  for (const auto& [dev, busy] : st.device_busy_s) s += busy;
  return s;
}

/// Nearest-rank percentile of an ascending-sorted sample: the value at
/// rank ceil(p * n), clamped to [1, n]. Exact sample values (no
/// interpolation), so percentile invariants are bit-reproducible.
double NearestRank(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0;
  const size_t n = sorted.size();
  size_t rank =
      static_cast<size_t>(std::ceil(p * static_cast<double>(n)));
  if (rank < 1) rank = 1;
  if (rank > n) rank = n;
  return sorted[rank - 1];
}

/// Group the schedule's queries by SLA tier and summarize each tier's
/// queueing-delay and makespan distributions. Runs under every policy:
/// non-tiered schedules report one tier-0 row, which is what makes a
/// tiered run comparable to its untiered baseline on the same trace.
/// Percentiles sample *completed* queries only — a shed query has no
/// meaningful latency — and NearestRank maps an empty sample to 0, so an
/// all-shed tier reports schema-valid zeros, never NaN.
void ComputeTierPercentiles(ScheduleStats* out) {
  std::map<int, std::vector<const QueryRunStats*>> by_tier;
  for (const QueryRunStats& q : out->queries) {
    by_tier[q.tier].push_back(&q);
  }
  out->tiers.clear();
  out->completed = out->cancelled = out->deadline_exceeded = out->shed = 0;
  for (const auto& [tier, qs] : by_tier) {
    TierPercentiles tp;
    tp.tier = tier;
    tp.queries = qs.size();
    std::vector<double> queue, makespan;
    queue.reserve(qs.size());
    makespan.reserve(qs.size());
    for (const QueryRunStats* q : qs) {
      switch (q->outcome) {
        case QueryOutcome::kCompleted:
          ++tp.completed;
          break;
        case QueryOutcome::kCancelled:
          ++tp.cancelled;
          break;
        case QueryOutcome::kDeadlineExceeded:
          ++tp.deadline_exceeded;
          break;
      }
      if (q->shed) ++tp.shed;
      if (!q->completed()) continue;
      queue.push_back(q->queueing_delay_s());
      makespan.push_back(q->makespan_s());
    }
    std::sort(queue.begin(), queue.end());
    std::sort(makespan.begin(), makespan.end());
    tp.queue_p50 = NearestRank(queue, 0.50);
    tp.queue_p95 = NearestRank(queue, 0.95);
    tp.queue_p99 = NearestRank(queue, 0.99);
    tp.makespan_p50 = NearestRank(makespan, 0.50);
    tp.makespan_p95 = NearestRank(makespan, 0.95);
    tp.makespan_p99 = NearestRank(makespan, 0.99);
    out->completed += tp.completed;
    out->cancelled += tp.cancelled;
    out->deadline_exceeded += tp.deadline_exceeded;
    out->shed += tp.shed;
    out->tiers.push_back(tp);
  }
}

/// When — and as what — a query's remaining work must stop: the earlier
/// of its Engine::Cancel time and its deadline (+infinity when neither
/// applies). An explicit cancel wins exact ties, so CutoffOf is the
/// single source of truth for the terminal outcome the scheduler records.
struct Cutoff {
  sim::SimTime at = std::numeric_limits<double>::infinity();
  QueryOutcome outcome = QueryOutcome::kCancelled;
};

Cutoff CutoffOf(const SubmittedQuery& q) {
  const double deadline = q.opts.deadline_s > 0
                              ? q.opts.deadline_s
                              : std::numeric_limits<double>::infinity();
  if (q.cancel_at <= deadline) {
    return Cutoff{q.cancel_at, QueryOutcome::kCancelled};
  }
  return Cutoff{deadline, QueryOutcome::kDeadlineExceeded};
}

/// Should a not-yet-started query be dropped at an admission decision
/// point at time `now`? An explicit cancel always drops (the client no
/// longer wants the result); an expired deadline sheds only under the
/// graceful-degradation knob — otherwise the query is admitted and
/// aborted cooperatively at its first pipeline boundary.
bool DropAtAdmission(const SubmittedQuery& q, const Cutoff& cut,
                     sim::SimTime now, const ExecutionPolicy& policy) {
  return cut.at <= now &&
         (q.cancel_at <= now || policy.serve.shed_on_deadline);
}

/// Copy-engine lane quota for `streams` queries sharing the substrate:
/// only throttle per-query DMA bursts when more queries run at once than
/// the copy engines have channels — below that, the gap-filling lane
/// arbitration interleaves streams fairly on its own, and a hard stripe
/// would idle channels a solo-sized burst could use. Quotas must hold on
/// every engine a transfer may issue from, so they are sized off the
/// least-channeled memory node.
int LaneQuota(sim::Topology* topo, int streams) {
  int channels = topo->copy_engine(0).channels();
  for (int n = 1; n < topo->num_mem_nodes(); ++n) {
    channels = std::min(channels, topo->copy_engine(n).channels());
  }
  return streams > channels ? std::max(1, channels / 2) : 0;
}

}  // namespace

std::vector<std::string> SubmitOptions::Faults() const {
  const auto got = [](double v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), " (got %g)", v);
    return std::string(buf);
  };
  // Each rule is written to accept, so NaN fails it.
  std::vector<std::string> out;
  if (!(std::isfinite(weight) && weight > 0)) {
    out.push_back("fair-share weight must be a finite value > 0" + got(weight));
  }
  if (!(tier >= 0)) {
    out.push_back("SLA tier must be >= 0" + got(tier));
  }
  if (!(std::isfinite(arrival) && arrival >= 0)) {
    out.push_back("arrival time must be finite and >= 0" + got(arrival));
  }
  if (!(std::isfinite(deadline_s) && deadline_s >= 0)) {
    out.push_back("deadline must be finite and >= 0, 0 disables it" +
                  got(deadline_s));
  }
  return out;
}

const char* QueryOutcomeName(QueryOutcome o) {
  switch (o) {
    case QueryOutcome::kCompleted:
      return "completed";
    case QueryOutcome::kCancelled:
      return "cancelled";
    case QueryOutcome::kDeadlineExceeded:
      return "deadline_exceeded";
  }
  return "unknown";
}

uint64_t Scheduler::EstimatedResidentBytes(const QueryPlan& plan,
                                           uint64_t budget) {
  const int num = static_cast<int>(plan.num_pipelines());
  std::vector<char> probed(num, 0);
  for (int i = 0; i < num; ++i) {
    for (int b : plan.node(i).ProbedBuilds()) {
      if (b >= 0 && b < num) probed[b] = 1;  // callers pass unvalidated plans
    }
  }
  uint64_t total = 0;
  uint64_t largest_heavy = 0;
  for (int i = 0; i < num; ++i) {
    const PlanNode& n = plan.node(i);
    if (!n.is_build() || !probed[i]) continue;
    const uint64_t rows =
        n.est_nominal_out_rows > 0
            ? n.est_nominal_out_rows
            : static_cast<uint64_t>(n.source_rows() * n.scale);
    const uint64_t payload_bytes = 8 * n.terminal.payload.size();
    const uint64_t bytes = ops::ChainedHashTable::NominalBytes(rows,
                                                               payload_bytes);
    total += bytes;
    if (n.terminal.heavy) largest_heavy = std::max(largest_heavy, bytes);
  }
  // A plan whose tables cannot fit even alone falls back to §5
  // co-processing: the largest heavy build streams through co-partitioned
  // and only the rest stays resident.
  if (ExecutionPolicy::StagedBytes(total) > static_cast<double>(budget) &&
      largest_heavy > 0) {
    total -= largest_heavy;
  }
  return total;
}

/// One submitted query's passage through the schedule: what every policy
/// decides on, its in-flight execution, and its share of the substrate.
struct Scheduler::Slot {
  SubmittedQuery* q = nullptr;
  Cutoff cut;
  /// Estimated GPU-resident bytes (capped at the budget; 0 when the
  /// policy runs on no GPU or does not share the substrate).
  uint64_t fp = 0;
  /// SubmitOptions::arrival under kSlaTiered; 0 under the other policies,
  /// which treat every query as arriving at 0.
  sim::SimTime arrival = 0;
  Engine::PlanExec ex;
  sim::SimTime admitted = 0;
  /// Progress on the shared timeline: admission, then the finish of the
  /// query's last completed pipeline.
  sim::SimTime progress = 0;
  /// Per-query residency attribution: the GPU bytes this query's
  /// placement rounds put on the devices.
  uint64_t contrib = 0;
  /// Weighted-fair-queueing virtual time (device-seconds / weight).
  double vtime = 0.0;
};

void Scheduler::Arrive(const Slot& s) {
  obs::Tracer& tracer = engine_->tracer_;
  if (!tracer.enabled()) return;
  const SubmittedQuery& q = *s.q;
  tracer.NameThread(obs::kSchedulerPid, obs::QueryTid(q.id), q.opts.label);
  tracer.Instant(obs::kSchedulerPid, obs::QueryTid(q.id), s.arrival,
                 "arrival", "query",
                 obs::TraceAttr{q.id, -1, -1, -1, q.opts.tier, 0, {}, {}});
}

void Scheduler::Shed(Slot* s, sim::SimTime at) {
  s->admitted = at;
  Finish(s, at, s->cut.outcome, /*shed=*/true);
}

Status Scheduler::Admit(Slot* s, sim::SimTime at) {
  const SubmittedQuery& q = *s->q;
  Engine::PlanExec& ex = s->ex;
  HAPE_RETURN_NOT_OK(engine_->BeginPlan(s->q->plan, policy_, &ex));
  ex.trace_query = q.id;
  if (policy_.scheduling != SchedulingPolicy::kFifo) {
    ex.admit = at;
    ex.clocks = &clocks_;
    ex.shared_resident = &shared_resident_;
    ex.dma_stream = q.id;
    ex.dma_lane_quota = quota_;
  }
  s->admitted = at;
  s->progress = at;
  obs::Tracer& tracer = engine_->tracer_;
  if (tracer.enabled()) {
    tracer.Instant(obs::kSchedulerPid, obs::QueryTid(q.id), at, "admit",
                   "query",
                   obs::TraceAttr{q.id, -1, -1, -1, q.opts.tier, 0, {}, {}});
  }
  return Status::OK();
}

Status Scheduler::Step(Slot* s) {
  // The shared counter only ever grows while a pipeline runs, and the
  // growth belongs to the stepped query (its placement round broadcast
  // the tables).
  const uint64_t before = shared_resident_;
  HAPE_RETURN_NOT_OK(engine_->StepPlan(&s->ex));
  HAPE_CHECK(shared_resident_ >= before)
      << "GPU residency accounting went backwards (double-free?)";
  s->contrib += shared_resident_ - before;
  out_.peak_resident_bytes =
      std::max(out_.peak_resident_bytes, shared_resident_);
  engine_->metrics_.GetGauge("scheduler.resident_bytes")
      ->Set(static_cast<double>(shared_resident_));
  const ExecStats& last = s->ex.out.pipelines.back().stats;
  s->vtime += TotalBusy(last) / s->q->opts.weight;
  s->progress = last.finish;
  return Status::OK();
}

void Scheduler::Finish(Slot* s, sim::SimTime finish, QueryOutcome outcome,
                       bool shed) {
  const SubmittedQuery& q = *s->q;
  QueryRunStats qs;
  qs.id = q.id;
  qs.label = q.opts.label;
  qs.weight = q.opts.weight;
  qs.tier = q.opts.tier;
  qs.arrival = s->arrival;
  qs.admitted = s->admitted;
  qs.finish = finish;
  qs.deadline_s = q.opts.deadline_s;
  qs.outcome = outcome;
  qs.shed = shed;
  qs.run = std::move(s->ex.out);
  obs::MetricsRegistry& metrics = engine_->metrics_;
  metrics.GetCounter("scheduler.queries")->Increment();
  if (shed) metrics.GetCounter("scheduler.shed")->Increment();
  if (!qs.completed()) {
    metrics
        .GetCounter(outcome == QueryOutcome::kCancelled
                        ? "scheduler.cancelled"
                        : "scheduler.deadline_exceeded")
        ->Increment();
  }
  obs::Tracer& tracer = engine_->tracer_;
  if (tracer.enabled()) {
    tracer.Instant(obs::kSchedulerPid, obs::QueryTid(q.id), finish,
                   qs.completed() ? "complete" : "cancel", "query",
                   obs::TraceAttr{q.id, -1, -1, -1, q.opts.tier, 0, {},
                                  qs.completed() ? ""
                                                 : QueryOutcomeName(outcome)});
  }
  // A shed query never touched the substrate: nothing to release or
  // merge, and it does not extend the makespan.
  if (!shed) {
    sim::Topology* topo = engine_->topo_;
    for (int n = 0; n < topo->num_mem_nodes(); ++n) {
      qs.copy_engine_bytes +=
          topo->copy_engine(n).stream_stats(s->ex.dma_stream).bytes;
    }
    // The query's tables are released the moment it completes (or
    // aborts), and its compiled pipelines, sinks and hash tables go with
    // them: the results live on in the plan's result cells.
    if (s->contrib > 0) released_.emplace_back(finish, s->contrib);
    s->ex.pipelines = std::vector<Pipeline>();
    s->ex.tables = std::vector<JoinStatePtr>();
    for (const auto& [dev, busy] : qs.run.device_busy_s) {
      out_.device_busy_s[dev] += busy;
    }
    out_.makespan = std::max(out_.makespan, finish);
  }
  out_.queries.push_back(std::move(qs));
}

Result<ScheduleStats> Scheduler::Run(
    const std::vector<SubmittedQuery*>& queries) {
  // Static lint gate per submitted query, submit options included, before
  // any of them touches the substrate. Warn-by-default; under lint.strict
  // one bad query rejects the schedule before admission (nothing ran yet,
  // so nothing is half-consumed).
  for (SubmittedQuery* q : queries) {
    HAPE_RETURN_NOT_OK(
        engine_->LintAdmission(q->plan, policy_, &q->opts, "RunAll"));
  }
  out_.policy = policy_.scheduling;
  sim::Topology* topo = engine_->topo_;
  // kFairShare and kSlaTiered interleave queries on one event-queue
  // substrate, reset once for the whole schedule; kFifo resets it per
  // query instead.
  const bool shared = policy_.scheduling != SchedulingPolicy::kFifo;
  if (shared) {
    if (!policy_.async.enabled()) {
      return Status::InvalidArgument(
          std::string(SchedulingPolicyName(policy_.scheduling)) +
          " scheduling interleaves on the event-queue substrate: the "
          "policy must enable the async executor (AsyncOptions depth >= 1)");
    }
    topo->Reset();
  }

  // Footprint estimates drive the shared policies' GPU-memory admission.
  const uint64_t budget = policy_.GpuBudget(*topo);
  const bool contended = shared && policy_.UsesGpu(*topo);
  std::vector<Slot> slots(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    Slot& s = slots[i];
    s.q = queries[i];
    s.cut = CutoffOf(*s.q);
    s.fp = contended
               ? std::min(EstimatedResidentBytes(s.q->plan, budget),
                          budget)
               : 0;
    if (policy_.scheduling == SchedulingPolicy::kSlaTiered) {
      s.arrival = s.q->opts.arrival;
    }
  }

  Status st = Status::Internal("unknown scheduling policy");
  switch (policy_.scheduling) {
    case SchedulingPolicy::kFifo:
      st = RunFifo(&slots);
      break;
    case SchedulingPolicy::kFairShare:
      st = RunFairShare(&slots);
      break;
    case SchedulingPolicy::kSlaTiered:
      st = RunSlaTiered(&slots);
      break;
  }
  HAPE_RETURN_NOT_OK(st);
  // Report queries in submission order regardless of how they ran.
  std::sort(out_.queries.begin(), out_.queries.end(),
            [](const QueryRunStats& a, const QueryRunStats& b) {
              return a.id < b.id;
            });
  ComputeTierPercentiles(&out_);
  return std::move(out_);
}

Status Scheduler::RunFifo(std::vector<Slot>* slots) {
  // Run-to-completion: each query owns the whole topology while it runs.
  // Resetting link/copy-engine reservations at every query boundary makes
  // each query's cost sequences bit-identical to a standalone Engine::Run
  // — FIFO is the compat baseline, and its makespan is the serial sum.
  sim::SimTime clock = 0;
  for (Slot& s : *slots) {
    Arrive(s);
    // A query dropped before its turn never touches the (per-query reset)
    // topology: the survivors' cost sequences are byte-identical to a
    // schedule the dropped query was never submitted into.
    if (DropAtAdmission(*s.q, s.cut, clock, policy_)) {
      Shed(&s, clock);
      continue;
    }
    engine_->topo_->Reset();
    HAPE_RETURN_NOT_OK(Admit(&s, clock));
    // Cooperative cancellation: the cutoff is honored between pipeline
    // steps (the query runs on a private timeline starting at 0, so its
    // absolute progress is clock + out.finish).
    bool aborted = false;
    while (!s.ex.done()) {
      HAPE_RETURN_NOT_OK(engine_->StepPlan(&s.ex));
      if (!s.ex.done() && clock + s.ex.out.finish >= s.cut.at) {
        aborted = true;
        break;
      }
    }
    // The query ran on a private timeline starting at 0; its schedule
    // window is [clock, clock + finish).
    clock += s.ex.out.finish;
    Finish(&s, clock, aborted ? s.cut.outcome : QueryOutcome::kCompleted);
  }
  return Status::OK();
}

Status Scheduler::RunFairShare(std::vector<Slot>* slots) {
  // Queries dropped before the schedule starts are excluded from wave
  // packing entirely, so the survivors' waves — and therefore their cost
  // sequences — are identical to a schedule the dropped queries never
  // entered.
  std::vector<Slot*> live;
  live.reserve(slots->size());
  for (Slot& s : *slots) {
    if (DropAtAdmission(*s.q, s.cut, /*now=*/0, policy_)) {
      Arrive(s);
      Shed(&s, /*at=*/0);
    } else {
      live.push_back(&s);
    }
  }

  // ---- admission: pack queries into waves whose estimated GPU-resident
  // build bytes co-fit device memory. A finished query releases its
  // residency at completion, so the next wave is admitted at the earliest
  // release that leaves room for its footprint — the queueing delay
  // GPU-memory contention causes. Packing is in submission order (no
  // skip-ahead), so admission is fair and deterministic.
  sim::Topology* topo = engine_->topo_;
  const uint64_t budget = policy_.GpuBudget(*topo);
  std::vector<std::vector<Slot*>> waves;
  std::vector<uint64_t> wave_fp;  // estimated footprint per wave
  for (Slot* s : live) {
    const bool fits =
        !waves.empty() &&
        ExecutionPolicy::StagedBytes(wave_fp.back() + s->fp) <=
            static_cast<double>(budget);
    // Open a new wave when the query does not co-fit the current one. A
    // query that does not fit even an empty wave still gets one of its
    // own (the placement step co-partitions or rejects it at run time).
    if (waves.empty() || (!fits && !waves.back().empty())) {
      waves.emplace_back();
      wave_fp.push_back(0);
    }
    waves.back().push_back(s);
    wave_fp.back() += s->fp;
  }

  // Worker clocks (clocks_) persist across waves: a wave's pipelines
  // naturally queue behind the previous wave's tail work on each worker.
  sim::SimTime wave_gate = 0;

  // Bytes still held at time t are the released_ intervals (release time
  // = the query's completion, bytes = the placements attributed to it)
  // with release > t — a purely functional view, so a query's bytes can
  // never be freed twice.
  const auto held_after = [this](sim::SimTime t) {
    uint64_t s = 0;
    for (const auto& [release, bytes] : released_) {
      if (release > t) s += bytes;
    }
    return s;
  };
  // Bytes carried into the current wave: placements of still-running
  // earlier queries at this wave's admission time (counted against the
  // wave's budget, conservatively never released mid-wave).
  uint64_t carried = 0;

  obs::Tracer& tracer = engine_->tracer_;
  for (size_t w = 0; w < waves.size(); ++w) {
    const std::vector<Slot*>& wave = waves[w];
    shared_resident_ = carried;
    quota_ = LaneQuota(topo, static_cast<int>(wave.size()));
    // Queries whose cutoff passed while they queued for this wave are
    // dropped at the admission decision point (no BeginPlan, no admit
    // event); `terminal` marks wave slots already recorded.
    std::vector<char> terminal(wave.size(), 0);
    sim::SimTime wave_finish = wave_gate;
    engine_->metrics_.GetCounter("scheduler.admission_waves")->Increment();
    if (tracer.enabled()) {
      tracer.Instant(obs::kSchedulerPid, obs::kServiceTid, wave_gate,
                     "admission_wave", "scheduler",
                     obs::TraceAttr{-1, -1, -1, -1, -1, wave_fp[w], {}, {}});
    }
    for (size_t i = 0; i < wave.size(); ++i) {
      Arrive(*wave[i]);
      if (DropAtAdmission(*wave[i]->q, wave[i]->cut, wave_gate, policy_)) {
        Shed(wave[i], wave_gate);
        terminal[i] = 1;
        continue;
      }
      HAPE_RETURN_NOT_OK(Admit(wave[i], wave_gate));
    }

    // ---- weighted fair queueing at pipeline granularity: the next
    // pipeline to issue belongs to the query with the smallest virtual
    // time (accumulated device-seconds / weight); submission order breaks
    // ties. Each issued pipeline runs on the shared event-queue substrate
    // (worker clocks, links, copy engines), so pipelines of different
    // queries overlap in simulated time whenever they use different
    // resources and serialize per worker when they contend.
    //
    // One refinement on plain WFQ: a query whose *next* pipeline is a
    // hash build gets priority over probe pipelines (still by virtual
    // time among builds). Builds are pipeline breakers — small, but they
    // gate their query's probe work — so letting a fat probe segment
    // queue ahead of them pushes the gated query's compute past the
    // schedule tail and idles workers there. Hoisting breakers keeps the
    // bulk of the work (probes) under weighted fairness while the cheap
    // critical-path work clears first.
    //
    // The pick is the lexicographic argmin over (probe-class, vtime,
    // index): builds beat probes, smaller virtual time wins within a
    // class, submission order breaks exact ties. Only the stepped query's
    // key changes per iteration, so a min-heap holding exactly the
    // not-yet-done queries replaces the linear scan — O(log n) per step,
    // which is what keeps thousand-query serving waves tractable.
    const auto next_is_build = [&wave](size_t i) {
      const Engine::PlanExec& ex = wave[i]->ex;
      return ex.plan->node(ex.order[ex.pos]).is_build();
    };
    struct PickKey {
      bool probe;
      double vtime;
      int index;
    };
    struct LaterPick {
      bool operator()(const PickKey& a, const PickKey& b) const {
        if (a.probe != b.probe) return a.probe;  // builds surface first
        if (a.vtime != b.vtime) return a.vtime > b.vtime;
        return a.index > b.index;
      }
    };
    std::priority_queue<PickKey, std::vector<PickKey>, LaterPick> picks;
    for (size_t i = 0; i < wave.size(); ++i) {
      if (terminal[i] == 0 && !wave[i]->ex.done()) {
        picks.push(PickKey{!next_is_build(i), wave[i]->vtime,
                           static_cast<int>(i)});
      }
    }
    while (!picks.empty()) {
      const int pick = picks.top().index;
      picks.pop();
      Slot* s = wave[pick];
      // Cooperative mid-flight abort at the pipeline boundary, checked
      // against the query's own progress: its residency is released
      // immediately, so the next wave's admission gate can move up to the
      // abort instead of the query's natural finish.
      if (s->cut.at <= s->progress) {
        Finish(s, s->progress, s->cut.outcome);
        wave_finish = std::max(wave_finish, s->progress);
        terminal[pick] = 1;
        continue;
      }
      HAPE_RETURN_NOT_OK(Step(s));
      if (!s->ex.done()) {
        picks.push(PickKey{!next_is_build(pick), s->vtime, pick});
      }
    }

    // Every placed byte of this wave is attributed to exactly one query —
    // releasing per query at completion (or abort) can neither double-free
    // nor leak.
    uint64_t attributed = 0;
    for (const Slot* s : wave) attributed += s->contrib;
    HAPE_CHECK(attributed == shared_resident_ - carried)
        << "per-query residency attribution does not cover the wave's "
        << "placements exactly";

    for (size_t i = 0; i < wave.size(); ++i) {
      if (terminal[i] != 0) continue;  // dropped or aborted: recorded above
      const sim::SimTime finish = wave[i]->ex.out.finish;
      Finish(wave[i], finish, QueryOutcome::kCompleted);
      wave_finish = std::max(wave_finish, finish);
    }

    // Admit the next wave at the earliest completion whose releases leave
    // room for its estimated footprint (falling back to the whole wave
    // draining when they never do). Bytes still held at that point are
    // carried into the next wave's budget.
    if (w + 1 < waves.size()) {
      const uint64_t next_fp = wave_fp[w + 1];
      std::vector<sim::SimTime> candidates{wave_gate};
      for (const auto& [release, bytes] : released_) {
        if (release > wave_gate && release < wave_finish) {
          candidates.push_back(release);
        }
      }
      std::sort(candidates.begin(), candidates.end());
      sim::SimTime gate = wave_finish;
      for (sim::SimTime t : candidates) {
        const uint64_t held = held_after(t);
        if (ExecutionPolicy::StagedBytes(held + next_fp) <=
            static_cast<double>(budget)) {
          gate = t;
          break;
        }
      }
      wave_gate = std::max(gate, wave_gate);
      carried = held_after(wave_gate);
    }
  }
  return Status::OK();
}

Status Scheduler::RunSlaTiered(std::vector<Slot>* slots) {
  std::vector<Slot>& qs = *slots;
  const size_t n = qs.size();
  sim::Topology* topo = engine_->topo_;
  const uint64_t budget = policy_.GpuBudget(*topo);
  const int max_inflight = std::max(1, policy_.serve.max_inflight);
  // Channel quota sized for the in-flight cap, not the whole backlog: at
  // most max_inflight streams ever burst DMA concurrently.
  quota_ = LaneQuota(topo, max_inflight);

  // Replay the open-loop arrival trace through an event queue. Events are
  // pushed in submission order, so simultaneous arrivals keep that order
  // (the queue's FIFO tie-break).
  EventQueue<int> arrivals;
  for (size_t i = 0; i < n; ++i) {
    arrivals.Push(qs[i].arrival, static_cast<int>(i));
  }

  std::vector<int> ready;    // arrived, waiting for admission
  std::vector<int> running;  // admitted, not yet done

  // GPU bytes spoken for at time t. A completed query holds its bytes
  // until its finish; a running query other than `self` reserves the
  // larger of what it has placed and its admission estimate (it may still
  // place up to the estimate); the stepped query itself counts only what
  // it has actually placed, so its own placement round is not charged for
  // its own headroom.
  const auto held_for = [&](sim::SimTime t, int self) {
    uint64_t held = 0;
    for (int i : running) {
      held += i == self ? qs[i].contrib : std::max(qs[i].contrib, qs[i].fp);
    }
    for (const auto& [release, bytes] : released_) {
      if (release > t) held += bytes;
    }
    return held;
  };

  // A ready query past the aging window counts as tier 0 from then on —
  // the anti-starvation promotion.
  const auto eff_tier = [&](int i, sim::SimTime t) {
    if (policy_.serve.aging_boost_s > 0 &&
        t - qs[i].arrival >= policy_.serve.aging_boost_s) {
      return 0;
    }
    return qs[i].q->opts.tier;
  };

  obs::Tracer& tracer = engine_->tracer_;
  obs::MetricsRegistry& metrics = engine_->metrics_;
  // Ready-queue depth distribution per SLA tier, observed at every
  // scheduling decision point (pipeline boundaries — the preemption
  // granularity, so the histogram samples exactly where waiting is felt).
  const std::vector<double> kDepthBounds{0, 1, 2, 4, 8, 16, 32, 64, 128,
                                         256};
  std::vector<int> tiers_present;
  for (const Slot& s : qs) {
    if (std::find(tiers_present.begin(), tiers_present.end(),
                  s.q->opts.tier) == tiers_present.end()) {
      tiers_present.push_back(s.q->opts.tier);
    }
  }
  std::sort(tiers_present.begin(), tiers_present.end());
  // One-shot aging promotions (observability; eff_tier stays the source
  // of truth for scheduling).
  std::vector<char> promoted(n, 0);
  int prev_pick = -1;

  sim::SimTime clock = 0;
  while (out_.queries.size() < n) {
    // Nothing visible and nothing running: jump the clock to the next
    // arrival (the open-loop idle gap).
    if (ready.empty() && running.empty()) {
      clock = std::max(clock, arrivals.next_time());
    }
    while (!arrivals.empty() && arrivals.next_time() <= clock) {
      const int i = arrivals.Pop().second;
      ready.push_back(i);
      Arrive(qs[i]);
    }
    // Cooperative mid-flight abort at the pipeline boundary, checked
    // against the decision clock: a running query whose cutoff passed
    // stops at this decision point, and its residency is released
    // *before* this round's admission pass — freed bytes and the
    // in-flight slot are available to the next admission immediately.
    for (size_t r = 0; r < running.size();) {
      const int i = running[r];
      if (qs[i].cut.at <= clock) {
        running.erase(running.begin() + static_cast<ptrdiff_t>(r));
        Finish(&qs[i], clock, qs[i].cut.outcome);
      } else {
        ++r;
      }
    }
    // Graceful degradation: a ready query already past its cancellation
    // (always) or deadline (under serve.shed_on_deadline) is shed at the
    // admission decision point — it would only be admitted to be aborted
    // between its first pipeline steps.
    for (size_t r = 0; r < ready.size();) {
      const int i = ready[r];
      if (DropAtAdmission(*qs[i].q, qs[i].cut, clock, policy_)) {
        ready.erase(ready.begin() + static_cast<ptrdiff_t>(r));
        Shed(&qs[i], clock);
      } else {
        ++r;
      }
    }
    // A ready query crossing the aging window is promoted to tier 0 from
    // then on; record the first crossing.
    for (int i : ready) {
      const SubmittedQuery& q = *qs[i].q;
      if (promoted[i] == 0 && q.opts.tier > 0 && eff_tier(i, clock) == 0) {
        promoted[i] = 1;
        metrics.GetCounter("scheduler.aging_promotions")->Increment();
        if (tracer.enabled()) {
          tracer.Instant(obs::kSchedulerPid, obs::QueryTid(q.id), clock,
                         "aging_promotion", "scheduler",
                         obs::TraceAttr{q.id, -1, -1, -1, q.opts.tier, 0,
                                        {}, {}});
        }
      }
    }
    for (int t : tiers_present) {
      int depth = 0;
      for (int i : ready) {
        if (qs[i].q->opts.tier == t) ++depth;
      }
      metrics
          .GetHistogram("scheduler.ready_depth.tier" + std::to_string(t),
                        kDepthBounds)
          ->Observe(static_cast<double>(depth));
    }

    // ---- admission: strict head-of-line in (effective tier, arrival,
    // id) order. No skip-ahead — a query that does not fit blocks the
    // queue until completions free memory or an in-flight slot, so a
    // large low-tier query can be delayed but never overtaken forever
    // (and aging caps even that delay). A query that does not fit an
    // *idle* machine is admitted solo: the placement step co-partitions
    // or rejects it, exactly as under fair-share.
    std::sort(ready.begin(), ready.end(), [&](int a, int b) {
      const int ta = eff_tier(a, clock);
      const int tb = eff_tier(b, clock);
      if (ta != tb) return ta < tb;
      if (qs[a].arrival != qs[b].arrival) {
        return qs[a].arrival < qs[b].arrival;
      }
      return qs[a].q->id < qs[b].q->id;
    });
    while (!ready.empty() &&
           static_cast<int>(running.size()) < max_inflight) {
      const int i = ready.front();
      const bool fits =
          ExecutionPolicy::StagedBytes(held_for(clock, -1) + qs[i].fp) <=
          static_cast<double>(budget);
      if (!fits && !running.empty()) break;
      HAPE_RETURN_NOT_OK(Admit(&qs[i], clock));
      running.push_back(i);
      ready.erase(ready.begin());
      metrics.GetCounter("scheduler.admissions")->Increment();
    }
    metrics.GetGauge("scheduler.inflight")
        ->Set(static_cast<double>(running.size()));
    if (running.empty()) continue;  // clock jumps to the next arrival

    // ---- pipeline pick: strictly by effective tier, then the fair-share
    // refinement (builds before probes, weighted virtual time, id). Tier
    // outranking vtime is the preemption: once a higher-tier query is
    // admitted, every subsequent pick is its pipeline until it finishes,
    // so lower-tier work yields at the next pipeline boundary. The scan
    // is over at most max_inflight entries.
    int pick = running.front();
    auto key = [&](int i) {
      const Engine::PlanExec& ex = qs[i].ex;
      const bool probe = !ex.plan->node(ex.order[ex.pos]).is_build();
      return std::make_tuple(eff_tier(i, clock), probe, qs[i].vtime,
                             qs[i].q->id);
    };
    for (int i : running) {
      if (key(i) < key(pick)) pick = i;
    }
    // Preemption at the pipeline boundary: a strictly higher-tier query
    // takes the next pick away from the one that was running.
    if (prev_pick >= 0 && pick != prev_pick &&
        std::find(running.begin(), running.end(), prev_pick) !=
            running.end() &&
        eff_tier(pick, clock) < eff_tier(prev_pick, clock)) {
      const SubmittedQuery& prev = *qs[prev_pick].q;
      metrics.GetCounter("scheduler.preemptions")->Increment();
      if (tracer.enabled()) {
        tracer.Instant(obs::kSchedulerPid, obs::QueryTid(prev.id), clock,
                       "preempt", "scheduler",
                       obs::TraceAttr{prev.id, -1, -1, -1, prev.opts.tier, 0,
                                      {}, {}});
      }
    }
    prev_pick = pick;

    // Residency is re-seeded per step from what every other query holds
    // at the decision clock.
    shared_resident_ = held_for(clock, pick);
    HAPE_RETURN_NOT_OK(Step(&qs[pick]));
    // The decision clock advances to the stepped pipeline's finish: the
    // next admission/pick decision happens at a pipeline boundary, which
    // is the preemption granularity.
    clock = std::max(clock, qs[pick].progress);

    if (qs[pick].ex.done()) {
      running.erase(std::find(running.begin(), running.end(), pick));
      Finish(&qs[pick], qs[pick].ex.out.finish, QueryOutcome::kCompleted);
    }
  }
  return Status::OK();
}

}  // namespace hape::engine
