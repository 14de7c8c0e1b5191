#ifndef HAPE_ENGINE_POLICY_H_
#define HAPE_ENGINE_POLICY_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "engine/pipeline.h"
#include "sim/topology.h"

namespace hape::engine {

/// The five system configurations of Fig. 8. Lives in the engine so that a
/// configuration maps to one declarative ExecutionPolicy instead of being
/// re-interpreted by every query (the paper's argument: heterogeneity
/// decisions belong inside the engine, not in the plans).
enum class EngineConfig {
  kDbmsC,          // vectorized CPU commercial baseline
  kProteusCpu,     // our engine, both CPU sockets
  kProteusHybrid,  // our engine, all CPUs + all GPUs
  kProteusGpu,     // our engine, both GPUs
  kDbmsG,          // operator-at-a-time GPU commercial baseline
};

const char* ConfigName(EngineConfig c);

/// Stage-boundary execution model (§2.2): how much of the pipeline stays in
/// registers between operators.
enum class ExecutionModel {
  kJitFused,         // generated code, intermediates stay in registers
  kVectorAtATime,    // DBMS C: cache-resident vector per stage boundary
  kOperatorAtATime,  // DBMS G: full materialization in device memory
};

const char* ExecutionModelName(ExecutionModel m);

/// How Engine::RunAll arbitrates the devices, interconnects, and GPU memory
/// between the QueryPlans admitted via Engine::Submit.
enum class SchedulingPolicy {
  /// Run-to-completion in submission order: each query owns the whole
  /// topology while it runs, so its cost sequences are bit-identical to a
  /// standalone Engine::Run — the compatibility baseline whose makespan is
  /// the serial sum.
  kFifo,
  /// Interleave pipelines from different queries on the shared event-queue
  /// substrate: workers, copy-engine channels, and links are arbitrated
  /// between queries (weighted by SubmitOptions::weight), and queries are
  /// admitted in waves when GPU memory for their build tables is contended.
  /// Requires the async executor (AsyncOptions depth >= 1).
  kFairShare,
  /// The serving policy: queries carry an SLA tier and an arrival time
  /// (SubmitOptions::tier / arrival) and the scheduler runs an open-loop
  /// admission clock — queries become visible at their arrivals, are
  /// admitted in (tier, arrival) order subject to the GPU-memory budget
  /// and ExecutionPolicy::serve.max_inflight, and in-flight queries
  /// interleave on the kFairShare substrate with strictly tier-ordered
  /// pipeline picks (preemption at pipeline granularity: a high-tier
  /// arrival waits at most one pipeline of lower-tier work). Aging
  /// promotes long-waiting queries to tier 0 so low tiers cannot starve.
  /// Requires the async executor (AsyncOptions depth >= 1).
  kSlaTiered,
};

const char* SchedulingPolicyName(SchedulingPolicy p);

/// Asynchronous-execution knob of the event-driven executor. Depth 0 is
/// the synchronous legacy model and reproduces its cost sequences exactly
/// (every packet's mem-move serializes with the consuming worker); depth
/// N >= 1 stages up to N packet transfers per worker ahead of compute on
/// the device copy engines, chunks hash-table broadcasts double-buffered,
/// and lets probe-side staging overlap build pipelines and broadcasts.
struct AsyncOptions {
  /// Per-worker mem-move prefetch depth (in-flight staged packets ahead of
  /// the one being computed). 0 = synchronous.
  int prefetch_depth = 0;

  bool enabled() const { return prefetch_depth > 0; }

  static AsyncOptions Off() { return AsyncOptions{}; }
  static AsyncOptions Depth(int n) {
    AsyncOptions a;
    a.prefetch_depth = n;
    return a;
  }
};

/// Knobs of the SchedulingPolicy::kSlaTiered serving loop. Ignored by the
/// other policies.
struct ServeOptions {
  /// Maximum queries in flight at once: admission holds further arrivals
  /// in the (tier, arrival)-ordered ready queue once this many queries
  /// share the substrate, independent of the GPU-memory budget.
  int max_inflight = 8;
  /// A ready query that has waited this long (simulated seconds since its
  /// arrival) is promoted to tier 0 for admission and pipeline picks, so
  /// a saturating stream of high-tier work cannot starve low tiers.
  /// <= 0 disables aging.
  double aging_boost_s = 10.0;
  /// Graceful degradation: shed a ready query at the admission decision
  /// point when the clock has already passed its SubmitOptions::deadline_s
  /// (it would only be admitted to be aborted between its first pipeline
  /// steps). Off by default; queries without a deadline are never shed.
  bool shed_on_deadline = false;
};

/// Knobs of the static lint pass (lint::LintPlan / lint::LintPolicy) the
/// Engine and serve::QueryService run before admitting a plan. Deliberately
/// *not* serialized into plan/manifest documents: linting is a property of
/// the accepting engine instance, not of the experiment — manifests stay
/// byte-exact across lint configurations.
struct LintOptions {
  /// Run the pass at all. Findings are counted in the metrics registry
  /// (lint.runs / lint.warnings / lint.errors) and summarized in one log
  /// line per admission.
  bool enable = true;
  /// Promote error-severity findings to rejection: Engine::Run / RunAll /
  /// QueryService::Submit refuse the plan with InvalidArgument *before*
  /// admission instead of letting it fail mid-schedule. Warn-by-default so
  /// existing workloads keep running unchanged.
  bool strict = false;
};

/// Declarative description of *where and how* a QueryPlan executes. Derived
/// once (usually via ForConfig) and passed to Engine::Run; queries never
/// switch on the configuration themselves.
struct ExecutionPolicy {
  /// Devices that execute scan/probe pipelines (the router fans packets out
  /// over all of their workers).
  std::vector<int> devices;
  /// Devices that execute pipeline-breaker build pipelines. Build sides are
  /// host-resident and control-flow heavy, so these are the CPU sockets in
  /// every shipped configuration.
  std::vector<int> build_devices;
  RoutingPolicy routing = RoutingPolicy::kLoadAware;
  ExecutionModel model = ExecutionModel::kJitFused;
  /// Fig. 9 switch: execute heavy GPU-side joins as the hardware-conscious
  /// partitioned (radix) join instead of the non-partitioned one.
  bool partitioned_gpu_join = true;
  /// Device memory reserved for code and packet buffers when deciding
  /// whether broadcast hash tables fit a GPU.
  uint64_t device_reserved_bytes = 256 * sim::kMiB;
  /// Event-driven async execution (overlap of mem-moves with compute,
  /// double-buffered broadcasts, inter-pipeline overlap). Off by default:
  /// depth 0 reproduces the synchronous cost sequences exactly.
  AsyncOptions async;
  /// How Engine::RunAll shares the topology between submitted queries.
  /// Ignored by Engine::Run (a single plan always owns the machine).
  SchedulingPolicy scheduling = SchedulingPolicy::kFifo;
  /// Admission/aging knobs of SchedulingPolicy::kSlaTiered.
  ServeOptions serve;
  /// Fraction of each device's workers this query expects to hold when it
  /// runs under SchedulingPolicy::kFairShare (e.g. weight / total weight).
  /// Engine::Optimize prices its per-pipeline cost estimates at this share.
  /// 1.0 = the query owns the machine (every single-query path).
  double expected_device_share = 1.0;
  /// Static-analysis admission pass (see LintOptions). Not serialized.
  LintOptions lint;

  /// The policy of one Fig. 8 configuration on `topo`.
  static ExecutionPolicy ForConfig(const sim::Topology& topo,
                                   EngineConfig config);

  /// The one checker of a policy's devices and ranges: device ids against
  /// `topo` (unknown ids, empty device set, non-CPU build devices), a
  /// prefetch depth >= 0 and a finite expected_device_share > 0.
  /// Fail-fast: the first fault is an InvalidArgument, and `*rule` (when
  /// non-null, set only on failure) names the lint rule it breaks: HL005
  /// for a device fault, HL008 for a range.
  Status Validate(const sim::Topology& topo,
                  const char** rule = nullptr) const;

  bool UsesGpu(const sim::Topology& topo) const;
  bool UsesCpu(const sim::Topology& topo) const;
  /// The smallest GPU memory budget the device set can place a broadcast
  /// build table into (capacity minus device_reserved_bytes); max uint64
  /// when the policy uses no GPU. Scheduler admission and lint's HL006
  /// both size against it. Device ids must be valid (see Validate).
  uint64_t GpuBudget(const sim::Topology& topo) const;
  /// Building a device-resident hash table needs the table plus its staged
  /// build input, so GPU capacity checks count twice the table bytes.
  static constexpr double kBuildStagingFactor = 2.0;
  /// The GPU bytes `table_bytes` of build tables take while they are built:
  /// the one staged-fit rule. Placement broadcasts, scheduler admission and
  /// lint's HL006 accept tables when StagedBytes(bytes) <= GpuBudget.
  static double StagedBytes(uint64_t table_bytes) {
    return kBuildStagingFactor * static_cast<double>(table_bytes);
  }
};

}  // namespace hape::engine

#endif  // HAPE_ENGINE_POLICY_H_
