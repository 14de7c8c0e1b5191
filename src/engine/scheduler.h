#ifndef HAPE_ENGINE_SCHEDULER_H_
#define HAPE_ENGINE_SCHEDULER_H_

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/json.h"
#include "common/status.h"
#include "engine/engine.h"
#include "engine/plan.h"
#include "engine/policy.h"

namespace hape::engine {

/// Per-query knobs of Engine::Submit.
struct SubmitOptions {
  /// Fair-share weight: the query's target fraction of every contended
  /// device is weight / (sum of admitted weights). Must be finite and > 0.
  double weight = 1.0;
  /// Display label in ScheduleStats / Explain; defaults to the plan name.
  std::string label;
  /// SLA tier under SchedulingPolicy::kSlaTiered: 0 is the most urgent,
  /// larger values are best-effort. Must be >= 0. The other policies
  /// record it in the stats but do not act on it.
  int tier = 0;
  /// Open-loop arrival time (absolute schedule seconds) under
  /// SchedulingPolicy::kSlaTiered: the query is invisible to admission
  /// before this instant. Must be finite and >= 0. The other policies
  /// treat every query as arriving at 0.
  sim::SimTime arrival = 0;
  /// Completion deadline, absolute schedule seconds. 0 disables the
  /// deadline (the default); a positive value makes every scheduling
  /// policy abort the query cooperatively at the first admission or
  /// pipeline-step decision point past the deadline, releasing its GPU
  /// residency and staged bytes. Under kSlaTiered with
  /// ServeOptions::shed_on_deadline, an already-expired ready query is
  /// shed at admission without running at all. Must be finite and >= 0.
  double deadline_s = 0;

  /// The one checker of the rules above: one message per faulty field, in
  /// declaration order; empty when every field is valid. Engine::RunAll
  /// rejects the first, lint reports each as HL008, and the manifest reader
  /// (queries::ReadManifestQuery) checks the fields it reads.
  std::vector<std::string> Faults() const;
};

/// One entry of the Engine's submission queue.
struct SubmittedQuery {
  SubmittedQuery(int id, QueryPlan plan, SubmitOptions opts)
      : id(id), plan(std::move(plan)), opts(std::move(opts)) {}

  int id;
  QueryPlan plan;
  SubmitOptions opts;
  /// Ran in an earlier RunAll; the next one skips it.
  bool executed = false;
  /// Earliest simulated time an Engine::Cancel takes effect; +infinity
  /// when the query was never cancelled. The scheduler honors it at the
  /// same decision points as the deadline.
  sim::SimTime cancel_at = std::numeric_limits<double>::infinity();
};

/// Terminal state of one scheduled query.
enum class QueryOutcome {
  kCompleted,         ///< ran every pipeline (it may still have missed a
                      ///< deadline; compare finish against deadline_s)
  kCancelled,         ///< stopped by Engine::Cancel before completion
  kDeadlineExceeded,  ///< stopped by the scheduler past its deadline
};

const char* QueryOutcomeName(QueryOutcome o);

/// Execution record of one query of a schedule. `arrival`, `admitted`,
/// and `finish` are absolute schedule times; under kFifo/kFairShare every
/// query arrives at 0, so the queueing delay reduces to the admission
/// time itself (the historical semantic). The nested `run` record is on
/// the timeline the query actually executed on: under kFairShare and
/// kSlaTiered that is the shared absolute timeline (run.finish ==
/// finish), while under kFifo each query runs on a private timeline
/// starting at 0 — bit-exact standalone compat is the point — and its
/// schedule window is [admitted, admitted + run.finish).
struct QueryRunStats {
  int id = -1;
  std::string label;
  double weight = 1.0;
  int tier = 0;
  sim::SimTime arrival = 0;
  /// When the scheduler admitted the query (FIFO: when its turn came;
  /// fair-share: its admission wave's start, delayed when GPU memory for
  /// the wave's build tables was contended; sla-tiered: when the serving
  /// loop let it onto the substrate).
  sim::SimTime admitted = 0;
  sim::SimTime finish = 0;
  /// Bytes this query's transfers moved through the copy engines (its DMA
  /// stream tag, summed over memory nodes).
  uint64_t copy_engine_bytes = 0;
  /// SubmitOptions::deadline_s echoed back (0 = none), so a consumer can
  /// tell a met deadline from a missed-but-completed one.
  double deadline_s = 0;
  /// How the query left the schedule. Cancelled/deadline-exceeded queries
  /// keep whatever partial `run` record they accumulated before the abort.
  QueryOutcome outcome = QueryOutcome::kCompleted;
  /// Terminated at an admission decision point with zero pipelines run
  /// (never touched the substrate). Implies outcome != kCompleted.
  bool shed = false;
  RunStats run;

  sim::SimTime queueing_delay_s() const { return admitted - arrival; }
  sim::SimTime makespan_s() const { return finish - arrival; }
  bool completed() const { return outcome == QueryOutcome::kCompleted; }
};

/// Nearest-rank latency percentiles of one SLA tier's queries. Computed
/// for every scheduling policy (non-tiered schedules put every query in
/// tier 0), so a tiered run is directly comparable to its untiered
/// baseline on the same arrival trace.
struct TierPercentiles {
  int tier = 0;
  uint64_t queries = 0;
  /// Terminal-state counts; completed + cancelled + deadline_exceeded ==
  /// queries, and shed <= cancelled + deadline_exceeded. The percentiles
  /// below sample *completed* queries only (an all-shed tier reports
  /// schema-valid zeros, never NaN).
  uint64_t completed = 0;
  uint64_t cancelled = 0;
  uint64_t deadline_exceeded = 0;
  uint64_t shed = 0;
  double queue_p50 = 0;     ///< queueing delay (admitted - arrival)
  double queue_p95 = 0;
  double queue_p99 = 0;
  double makespan_p50 = 0;  ///< end-to-end latency (finish - arrival)
  double makespan_p95 = 0;
  double makespan_p99 = 0;
};

/// Writes `schedule`'s per-tier table as the "tiers" member: the one tier
/// writer, shared by Explain(schedule) and the serving bench's document.
void WriteTiers(JsonWriter* w, const ScheduleStats& schedule);

/// Outcome of Engine::RunAll: the global makespan plus per-query makespan,
/// queueing delay, and device-share accounting.
struct ScheduleStats {
  SchedulingPolicy policy = SchedulingPolicy::kFifo;
  sim::SimTime makespan = 0;
  /// Compute seconds per device id, summed over all queries. A query's
  /// device share is its own run.device_busy_s over these totals.
  std::map<int, sim::SimTime> device_busy_s;
  /// Largest GPU-resident hash-table byte count the schedule held at once
  /// (kFairShare and kSlaTiered; 0 under kFifo). Admission bounds it by
  /// the GPU budget. A query's residency is released at its completion,
  /// so a later query can be admitted as soon as enough bytes are freed.
  uint64_t peak_resident_bytes = 0;
  std::vector<QueryRunStats> queries;
  /// Per-tier queueing/makespan percentiles, ascending by tier.
  std::vector<TierPercentiles> tiers;
  /// Schedule-wide terminal-state totals (sums of the per-tier counts);
  /// completed + cancelled + deadline_exceeded == queries.size().
  uint64_t completed = 0;
  uint64_t cancelled = 0;
  uint64_t deadline_exceeded = 0;
  uint64_t shed = 0;
};

/// The multi-query scheduler behind Engine::RunAll. One Engine instance
/// admits several QueryPlans and arbitrates workers, GPU memory, and
/// copy-engine channels between them.
///
/// Every query goes through one lifecycle whatever the policy: it
/// arrives, is either shed at an admission decision point or admitted
/// (BeginPlan plus the shared-substrate hooks), is stepped one pipeline
/// at a time, and finishes with exactly one terminal record (completed,
/// or aborted at its cutoff). The Arrive/Shed/Admit/Step/Finish members
/// own the records, counters, trace instants and residency accounting of
/// those events; the three policy loops keep only the rules their
/// policy decides — when to admit, what to step next, and where a
/// cutoff is checked:
///
///   - kFifo: run-to-completion in submission order. Each query gets the
///     whole (freshly reset) topology, so its cost sequences are
///     bit-identical to a standalone Engine::Run and the schedule makespan
///     is the serial sum — the compatibility baseline.
///   - kFairShare: queries are first packed into admission waves so each
///     wave's estimated GPU-resident build bytes fit device memory. A
///     query releases its residency the moment it completes, so the next
///     wave is admitted at the earliest point enough finished queries have
///     freed the bytes its footprint needs — not when the whole previous
///     wave drains (the queueing delay of memory contention).
///     Within a wave, pipelines of different queries
///     interleave on the shared event-queue substrate: worker clocks carry
///     busy state across pipeline and query boundaries, links and copy
///     engines are shared (each query's DMA is tagged with its stream and
///     capped to a channel quota), and the next pipeline to issue always
///     belongs to the admitted query with the smallest weighted virtual
///     time (accumulated device-seconds / weight) — weighted fair queueing
///     at pipeline granularity, with hash builds hoisted ahead of probe
///     segments because they gate their query's remaining parallelism.
///     Requires the async executor (depth >= 1):
///     its admission pass routes packets on a relative timeline, which is
///     what makes per-query results byte-identical regardless of what else
///     shares the machine or in which order queries were submitted.
///   - kSlaTiered: the serving policy. Queries carry an arrival time and
///     an SLA tier; an open-loop admission clock replays the arrivals
///     through an event queue, admits ready queries head-of-line in
///     (tier, arrival, id) order — subject to the GPU-memory budget and
///     ExecutionPolicy::serve.max_inflight — and picks the next pipeline
///     strictly by tier before weighted virtual time, so a newly admitted
///     high-tier query preempts lower tiers at pipeline granularity.
///     Aging (serve.aging_boost_s) promotes long-waiting queries to tier
///     0; together with head-of-line admission this makes the loop
///     starvation-free. Per-query execution runs on the same substrate as
///     kFairShare and stays byte-identical to a standalone run.
class Scheduler {
 public:
  Scheduler(Engine* engine, const ExecutionPolicy& policy)
      : engine_(engine), policy_(policy) {}

  /// Execute `queries` (not-yet-run submissions) and report the schedule.
  /// A Scheduler runs one schedule; Engine::RunAll builds one per call.
  Result<ScheduleStats> Run(const std::vector<SubmittedQuery*>& queries);

  /// Estimated nominal bytes of the GPU-resident hash tables `plan` asks
  /// the placement step for: every probed build's table, sized from the
  /// optimizer's cardinality estimate when present (source rows
  /// otherwise), minus the largest heavy build when the total cannot fit
  /// `budget` anyway (the §5 co-partition fallback streams it instead).
  /// Exposed for tests.
  static uint64_t EstimatedResidentBytes(const QueryPlan& plan,
                                         uint64_t budget);

 private:
  /// One submitted query's passage through the schedule (scheduler.cc).
  struct Slot;

  // ---- policy loops: each keeps only the rules its policy decides ----
  Status RunFifo(std::vector<Slot>* slots);
  Status RunFairShare(std::vector<Slot>* slots);
  Status RunSlaTiered(std::vector<Slot>* slots);

  // ---- the per-query lifecycle all three loops share ----
  /// The "arrival" lifecycle instant, at the slot's arrival.
  void Arrive(const Slot& s);
  /// Zero-work terminal record of a query dropped at an admission
  /// decision point at `at` (its cutoff's outcome, shed=true).
  void Shed(Slot* s, sim::SimTime at);
  /// BeginPlan, the scheduling hooks of the shared-substrate policies
  /// (admission gate, shared worker clocks and GPU residency, DMA stream
  /// and lane quota), and the "admit" instant at `at`.
  Status Admit(Slot* s, sim::SimTime at);
  /// Run the slot's next pipeline on the shared substrate: attribute the
  /// GPU residency it placed, track the peak, and advance the slot's
  /// virtual time and progress.
  Status Step(Slot* s);
  /// Terminal record at `finish`: counters, the "complete" or "cancel"
  /// instant, and, unless shed, the residency release, device-share
  /// merge and makespan.
  void Finish(Slot* s, sim::SimTime finish, QueryOutcome outcome,
              bool shed = false);

  Engine* engine_;
  const ExecutionPolicy& policy_;
  // ---- per-run state (a Scheduler runs one schedule) ----
  ScheduleStats out_;
  /// Worker availability shared by every query on the substrate.
  WorkerClocks clocks_;
  /// Schedule-wide GPU-resident hash-table bytes the placement rounds see.
  uint64_t shared_resident_ = 0;
  /// Copy-engine lane quota of newly admitted queries.
  int quota_ = 0;
  /// Release ledger: (completion or abort time, bytes attributed to the
  /// query) of every finished query that held GPU residency.
  std::vector<std::pair<sim::SimTime, uint64_t>> released_;
};

}  // namespace hape::engine

#endif  // HAPE_ENGINE_SCHEDULER_H_
