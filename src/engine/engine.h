#ifndef HAPE_ENGINE_ENGINE_H_
#define HAPE_ENGINE_ENGINE_H_

#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/status.h"
#include "engine/executor.h"
#include "engine/plan.h"
#include "engine/plan_json.h"
#include "engine/policy.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "opt/optimizer.h"

namespace hape::engine {

// Multi-query scheduling types, defined in engine/scheduler.h.
struct SubmitOptions;
struct SubmittedQuery;
struct ScheduleStats;
class Scheduler;

/// Execution record of one pipeline of a plan run (in execution order).
struct PipelineRunStats {
  std::string name;
  ExecStats stats;
};

/// QueryResult-shaped outcome of Engine::Run.
struct RunStats {
  sim::SimTime finish = 0;
  /// Finish time of the automatic data-placement step (broadcasts and, for
  /// oversized builds, the CPU-side co-partition pass); 0 when no placement
  /// was needed.
  sim::SimTime placement_finish = 0;
  /// Bytes broadcast to device memories during placement (nominal scale).
  uint64_t broadcast_bytes = 0;
  /// True when an oversized heavy build was co-partitioned on the CPU
  /// instead of broadcast (§5 operator-level co-processing).
  bool co_processed = false;
  /// True when the run used the event-driven async executor (depth >= 1).
  bool async = false;
  // ---- mem-move overlap accounting, aggregated over all pipelines ----
  uint64_t mem_moves = 0;
  uint64_t moved_bytes = 0;
  sim::SimTime transfer_busy_s = 0;
  sim::SimTime transfer_exposed_s = 0;
  /// Compute seconds consumed per device id, summed over all pipelines —
  /// the device-share accounting the multi-query scheduler reports.
  std::map<int, sim::SimTime> device_busy_s;
  /// Largest staged-but-unconsumed transfer byte count any worker held at
  /// once (async mode).
  uint64_t peak_staged_bytes = 0;
  sim::SimTime transfer_hidden_s() const {
    return transfer_busy_s - transfer_exposed_s;
  }
  std::vector<PipelineRunStats> pipelines;
};

/// The engine facade: validates a QueryPlan against an ExecutionPolicy,
/// orders its pipelines topologically, inserts the mem-moves the placement
/// requires (hash-table broadcasts, co-partition passes), executes every
/// pipeline, and reports per-pipeline ExecStats. All heterogeneity decisions
/// (which devices, which join flavor, what crosses which interconnect) are
/// taken here — plans stay declarative.
///
/// Two execution paths share the machinery:
///   - Run(plan, policy): one plan owns the whole topology (the historical
///     single-query model, kept bit-exact);
///   - Submit(plan, opts) ... RunAll(policy): several plans are admitted
///     into this Engine instance and the scheduler arbitrates workers, GPU
///     memory, and copy-engine channels between them (see
///     ExecutionPolicy::scheduling and engine/scheduler.h).
class Engine {
 public:
  // Constructor and destructor are out-of-line: Engine holds the
  // submission queue by value, whose entry type lives in scheduler.h.
  explicit Engine(sim::Topology* topo);
  ~Engine();

  /// Execute `plan` under `policy`: compile it into fresh pipelines, sinks
  /// and hash tables, run them, and drop them on return. The plan itself
  /// is left as it was, so it can run again, here or on another engine;
  /// its result handles read this run's results.
  Result<RunStats> Run(QueryPlan* plan, const ExecutionPolicy& policy);

  /// Admit `plan` into this Engine's submission queue for the next RunAll.
  /// Returns the query id (dense, in submission order). Result handles
  /// (AggHandle, CollectHandle) taken against the plan read its results
  /// once the query completes.
  int Submit(QueryPlan plan);
  int Submit(QueryPlan plan, const SubmitOptions& opts);

  /// Cooperatively cancel a submitted query. The one-argument form takes
  /// effect at simulated time 0 (before any of the query's work if it has
  /// not run yet); the two-argument form declares the cancellation at
  /// absolute schedule time `at_s`, so the next RunAll aborts the query at
  /// its first admission or pipeline-step decision point at or after that
  /// instant, releasing its GPU residency and staged-transfer bytes. The
  /// earliest of several Cancel calls wins. Cancelling a query that
  /// already completed an earlier RunAll is a harmless no-op; an unknown
  /// id or a negative/NaN time is InvalidArgument.
  Status Cancel(int query_id);
  Status Cancel(int query_id, sim::SimTime at_s);

  /// Execute every not-yet-run submitted plan under `policy`, arbitrating
  /// the topology between them per policy.scheduling:
  ///   - kFifo: run-to-completion in submission order; each query's cost
  ///     sequences are bit-identical to a standalone Run, the makespan is
  ///     the serial sum (the compat baseline);
  ///   - kFairShare: pipelines of different queries interleave on the
  ///     shared event-queue substrate, admitted in GPU-memory waves;
  ///   - kSlaTiered: the serving policy on the same substrate, with
  ///     open-loop arrivals, tiered head-of-line admission and tier-first
  ///     pipeline picks.
  /// The two shared-substrate policies require AsyncOptions depth >= 1.
  /// RunAll owns the topology: link/copy-engine reservations are reset at
  /// schedule boundaries.
  Result<ScheduleStats> RunAll(const ExecutionPolicy& policy);

  /// Cost-based optimization pass over `plan` before it runs: collects
  /// statistics from the plan's source tables, estimates cardinalities,
  /// reorders join probes, sizes build hash tables, derives heavy-build
  /// marks, and records each pipeline's cost estimate on the policy's
  /// device set (a hand-set run_on is kept). Every decision is written
  /// into the plan; the result adds only the op order each pipeline was
  /// permuted by.
  Result<opt::OptimizeResult> Optimize(QueryPlan* plan,
                                       const ExecutionPolicy& policy);

  /// Execution record of a finished run of `plan`: the plan as DumpPlan
  /// writes it (the "plan" member, which LoadPlan reloads), per-pipeline
  /// start/finish and the mem-move overlap accounting (transfer time
  /// hidden behind compute vs exposed on the critical path) the async
  /// executor reports. Fails with DumpPlan's Status for a plan DumpPlan
  /// refuses.
  Result<std::string> Explain(const QueryPlan& plan,
                              const RunStats& run) const;

  /// Execution record of a finished RunAll: the scheduling policy, global
  /// makespan, and per-query admission time, queueing delay, makespan,
  /// device shares, and run stats.
  std::string Explain(const ScheduleStats& schedule) const;

  /// Serialize `plan` (and optionally the policy it should run under) to a
  /// self-contained JSON document Engine::LoadPlan reconstructs exactly:
  /// pipelines, dependency and build/probe edges, chosen devices, and the
  /// optimizer's decisions (bucket counts, heavy marks, estimates). The
  /// only serialized form of a plan.
  Result<std::string> DumpPlan(const QueryPlan& plan) const;
  Result<std::string> DumpPlan(const QueryPlan& plan,
                               const ExecutionPolicy& policy) const;

  /// Rebuild a dumped plan (plus its policy, when the document carries one)
  /// against `catalog` through PlanJson::Load, validating tables, columns,
  /// probe edges, and device ids against this Engine's topology. Malformed
  /// manifests return Status errors, never crash. Not linted here: lint
  /// runs where the plan is admitted (Run, RunAll, QueryService::Submit).
  Result<LoadedPlan> LoadPlan(std::string_view json,
                              const storage::Catalog& catalog) const;

  Executor& executor() { return executor_; }
  sim::Topology* topology() { return topo_; }

  /// Turn the engine-wide tracer on or off. Enabling names the trace's
  /// process/track grid from the topology (one "process" per mem node,
  /// lanes and workers as tracks, plus a synthetic scheduler process).
  /// Disabled (the default) costs one dead branch per emission site:
  /// every run is byte-identical to an engine without the tracer.
  void SetTraceOptions(const obs::TraceOptions& opts);
  /// The accumulated trace as Chrome trace-event JSON (chrome://tracing /
  /// Perfetto loadable). Deterministic: same seed, same bytes.
  std::string DumpTrace() const { return tracer_.ToChromeJson(); }
  obs::Tracer& tracer() { return tracer_; }
  /// Engine-wide metric instruments, embedded in Explain documents and
  /// snapshotted by benches; shared with the scheduler and serving layer.
  obs::MetricsRegistry& metrics() { return metrics_; }
  const obs::MetricsRegistry& metrics() const { return metrics_; }

 private:
  friend class Scheduler;

  /// One placement round for GPU execution: place every not-yet-placed
  /// probed hash table whose build has finished — broadcast when the
  /// tables fit device memory (with build staging, counting tables already
  /// resident), fall back to §5 co-processing for the largest heavy build
  /// when they don't and the policy includes CPUs, and fail with
  /// OutOfMemory otherwise. Advances `*t` past the placement traffic.
  /// Multi-level join DAGs (a build downstream of a probe) trigger one
  /// round per level.
  struct PlacementState {
    /// Build pipelines whose tables were placed.
    std::set<int> placed;
    uint64_t resident_bytes = 0;
    /// Async mode: per-table device-residency time (broadcast finish, or
    /// co-partition finish), by build pipeline. Probe pipelines gate GPU
    /// compute on the tables they actually probe instead of the whole
    /// placement round.
    std::map<int, sim::SimTime> ready;
  };

  /// In-flight execution of one plan, advanced one pipeline per StepPlan.
  /// Engine::Run drives it to completion in a loop; the multi-query
  /// scheduler interleaves StepPlan calls from several PlanExecs and
  /// injects the scheduling hooks (admission gate, shared worker clocks,
  /// shared GPU residency, DMA stream tags). Default hooks leave the
  /// single-plan path bit-identical to the historical Run.
  struct PlanExec {
    const QueryPlan* plan = nullptr;
    const ExecutionPolicy* policy = nullptr;
    /// The run state BeginPlan compiles: one executor pipeline per plan
    /// node (the scan packets it cuts, stages and a fresh sink) and a fresh
    /// hash table per build (null for other nodes), both by node index.
    std::vector<Pipeline> pipelines;
    std::vector<JoinStatePtr> tables;
    std::vector<int> order;
    size_t pos = 0;
    std::vector<sim::SimTime> finished;
    std::vector<char> ran;
    PlacementState placement;
    sim::SimTime placement_finish = 0;
    bool needs_placement = false;
    RunStats out;
    // ---- scheduler hooks ----
    /// Earliest time any of this plan's work (staging included) may start:
    /// the scheduler's admission gate. 0 = admitted immediately.
    sim::SimTime admit = 0;
    /// Shared cross-query worker availability (null = private workers).
    WorkerClocks* clocks = nullptr;
    /// Shared cross-query GPU-resident hash-table bytes (null = private).
    uint64_t* shared_resident = nullptr;
    /// Copy-engine stream tag / channel quota of this plan's transfers.
    int dma_stream = 0;
    int dma_lane_quota = 0;
    /// Query id stamped onto this plan's trace events (schedulers set it;
    /// a solo Engine::Run leaves it 0).
    int trace_query = 0;

    bool done() const { return pos >= order.size(); }
  };

  /// Static-analysis admission gate (policy.lint): run the lint::LintPlan
  /// + lint::LintPolicy passes over the plan, count findings into the
  /// metrics registry (lint.runs / lint.warnings / lint.errors), log one
  /// summary line when anything fired, and — under policy.lint.strict —
  /// reject error-severity findings with InvalidArgument *before* any
  /// admission work (lint.rejected counts them). `opts` may be null
  /// (single-plan Run has no submit options).
  Status LintAdmission(const QueryPlan& plan, const ExecutionPolicy& policy,
                       const SubmitOptions* opts, const char* where);

  /// Validate `plan` and `policy`, check operator-at-a-time admission, and
  /// initialize `ex` for stepping: compile the plan's run state and empty
  /// its result cells.
  Status BeginPlan(const QueryPlan& plan, const ExecutionPolicy& policy,
                   PlanExec* ex);
  /// Execute the next pipeline in `ex`'s topological order (running a
  /// placement round first if the pipeline probes unplaced tables) and
  /// accumulate its stats into `ex->out`.
  Status StepPlan(PlanExec* ex);

  Status PlaceJoinStates(PlanExec* ex, sim::SimTime* t);

  sim::Topology* topo_;
  obs::Tracer tracer_;
  obs::MetricsRegistry metrics_;
  Executor executor_;
  /// Table statistics cached across Optimize calls: each table is collected
  /// once (tables are immutable; an entry re-collects only if its table's
  /// row count changes, never for the scale a plan runs it at).
  opt::StatsCatalog stats_cache_;
  /// Plans admitted via Submit: plan data and result cells. A query's run
  /// state goes when it finishes; RunAll only runs the not-yet-executed
  /// tail.
  std::vector<SubmittedQuery> submitted_;
};

}  // namespace hape::engine

#endif  // HAPE_ENGINE_ENGINE_H_
