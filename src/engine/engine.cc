#include "engine/engine.h"

#include <algorithm>
#include <limits>
#include <unordered_set>
#include <utility>

#include "common/logging.h"
#include "engine/scheduler.h"
#include "lint/plan_lint.h"
#include "ops/join_kernels.h"
#include "sim/traffic.h"

namespace hape::engine {

namespace {

/// Bytes per tuple shipped by the CPU-side co-partition pass: the join key
/// plus a row id, matching what the generated co-partitioner materializes.
constexpr uint64_t kCoPartitionTupleBytes = 16;

std::string GiBString(uint64_t bytes) {
  return std::to_string(bytes >> 30);
}

}  // namespace

Engine::Engine(sim::Topology* topo) : topo_(topo), executor_(topo) {
  executor_.set_tracer(&tracer_);
}

Engine::~Engine() = default;

void Engine::SetTraceOptions(const obs::TraceOptions& opts) {
  tracer_.Configure(opts);
  if (!opts.enabled) return;
  // Name the process/track grid up front so the viewer shows hardware
  // names even for tracks that never record an event.
  for (int n = 0; n < topo_->num_mem_nodes(); ++n) {
    tracer_.NameProcess(n, topo_->mem_node(n).name());
    for (int l = 0; l < topo_->copy_engine(n).channels(); ++l) {
      tracer_.NameThread(n, obs::LaneTid(l), "dma-lane" + std::to_string(l));
    }
    tracer_.NameThread(n, obs::kBroadcastTid, "broadcast");
    tracer_.NameThread(n, obs::kSyncTransferTid, "sync-transfer");
  }
  for (const sim::Device& d : topo_->devices()) {
    const int instances =
        d.type == sim::DeviceType::kCpu ? d.cpu.cores : 1;
    for (int i = 0; i < instances; ++i) {
      tracer_.NameThread(
          d.mem_node, obs::WorkerTid(d.id, i),
          instances > 1 ? d.name + "-w" + std::to_string(i) : d.name);
    }
  }
  tracer_.NameProcess(obs::kSchedulerPid, "scheduler");
  tracer_.NameThread(obs::kSchedulerPid, obs::kServiceTid, "service");
}

Status Engine::PlaceJoinStates(PlanExec* ex, sim::SimTime* t) {
  QueryPlan* plan = ex->plan;
  const ExecutionPolicy& policy = *ex->policy;
  PlacementState* placement = &ex->placement;
  RunStats* out = &ex->out;
  // The tables of this round: every state probed by some pipeline whose
  // build pipeline has finished and that is not yet device-resident, in
  // build declaration order (deterministic sums and broadcasts). Builds
  // downstream of a probe (multi-level DAGs) are placed by a later round.
  std::unordered_set<const JoinState*> probed;
  for (size_t i = 0; i < plan->num_pipelines(); ++i) {
    for (const JoinStatePtr& s : plan->node(static_cast<int>(i)).probed) {
      probed.insert(s.get());
    }
  }
  std::vector<int> build_nodes;
  for (size_t i = 0; i < plan->num_pipelines(); ++i) {
    const PlanNode& n = plan->node(static_cast<int>(i));
    if (n.is_build && ex->ran[i] && probed.count(n.built_state.get()) > 0 &&
        placement->placed.count(n.built_state.get()) == 0) {
      build_nodes.push_back(static_cast<int>(i));
    }
  }
  if (build_nodes.empty()) return Status::OK();

  // The round starts once its builds are done (and no earlier than the
  // previous round).
  for (int b : build_nodes) *t = std::max(*t, ex->finished[b]);

  // GPU destinations under this policy.
  std::vector<int> gpu_nodes;
  for (int d : policy.devices) {
    const sim::Device& dev = topo_->device(d);
    if (dev.type != sim::DeviceType::kGpu) continue;
    if (std::find(gpu_nodes.begin(), gpu_nodes.end(), dev.mem_node) ==
        gpu_nodes.end()) {
      gpu_nodes.push_back(dev.mem_node);
    }
  }

  uint64_t total = 0;
  for (int b : build_nodes) total += plan->node(b).built_state->NominalBytes();

  // Under a shared schedule, tables other queries hold resident count
  // against the budget too (ex->placement.resident_bytes was seeded from
  // the schedule's shared residency before this round).
  const uint64_t budget = policy.GpuBudget(*topo_);
  const bool fits =
      policy.build_staging_factor *
          static_cast<double>(placement->resident_bytes + total) <=
      static_cast<double>(budget);

  std::vector<int> heavy_nodes;
  for (int b : build_nodes) {
    if (plan->node(b).heavy_build) heavy_nodes.push_back(b);
  }
  const int from_node =
      plan->node(build_nodes.front()).built_state->location_node;

  if (fits) {
    // Broadcast every table once (topology-aware multicast mem-move, §4.2).
    for (int b : heavy_nodes) {
      plan->mutable_node(b).built_state->hardware_conscious =
          policy.partitioned_gpu_join;
    }
    // Non-partitioned heavy joins hash-partition their build sides across
    // the GPUs, so every probe packet shuffles between devices at each such
    // join (§6.4); the partitioned plan co-partitions once instead.
    for (size_t i = 0; i < plan->num_pipelines(); ++i) {
      PlanNode& n = plan->mutable_node(static_cast<int>(i));
      bool probes_heavy = false;
      for (const JoinStatePtr& s : n.probed) {
        for (int b : heavy_nodes) {
          if (plan->node(b).built_state.get() == s.get()) probes_heavy = true;
        }
      }
      if (probes_heavy) {
        n.pipeline.wire_amplification = policy.partitioned_gpu_join
                                            ? 1.0
                                            : policy.shuffle_wire_amplification;
      }
    }
    if (!policy.async.enabled()) {
      const sim::SimTime bstart = *t;
      *t = executor_.Broadcast(total, from_node, gpu_nodes, *t);
      if (tracer_.enabled()) {
        tracer_.Span(from_node, obs::kBroadcastTid, bstart, *t, "broadcast",
                     "broadcast",
                     obs::TraceAttr{ex->trace_query, -1, -1, -1, -1, total,
                                    {}, {}});
      }
    } else {
      // Async: each table's chunked broadcast starts when *its* build
      // finishes (not at the round barrier), double-buffered across the
      // multicast tree; probe pipelines gate on the tables they probe.
      for (int b : build_nodes) {
        const JoinStatePtr& s = plan->node(b).built_state;
        const sim::SimTime ready = executor_.BroadcastAsync(
            s->NominalBytes(), s->location_node, gpu_nodes, ex->finished[b],
            policy.async.broadcast_chunk_bytes, ex->trace_query);
        placement->ready[s.get()] = ready;
        *t = std::max(*t, ready);
      }
    }
    out->broadcast_bytes += total;
    metrics_.GetCounter("engine.broadcast_bytes")->Add(total);
    for (int b : build_nodes) {
      placement->placed.insert(plan->node(b).built_state.get());
    }
    placement->resident_bytes += total;
    return Status::OK();
  }

  if (policy.UsesCpu(*topo_) && !heavy_nodes.empty() &&
      !policy.build_devices.empty()) {
    // Operator-level co-processing (§5): the largest heavy build is
    // co-partitioned with its probe side on the CPU at low fanout so that
    // each co-partition's table slice fits the GPUs; each co-partition then
    // crosses PCIe once, riding with the probe packets. Charge the CPU-side
    // pass and the broadcast of the remaining (small enough) tables.
    int big = heavy_nodes.front();
    for (int b : heavy_nodes) {
      if (plan->node(b).built_state->NominalBytes() >
          plan->node(big).built_state->NominalBytes()) {
        big = b;
      }
    }
    const JoinStatePtr& big_state = plan->node(big).built_state;
    uint64_t probe_tuples = 0;
    for (size_t i = 0; i < plan->num_pipelines(); ++i) {
      const PlanNode& n = plan->node(static_cast<int>(i));
      for (const JoinStatePtr& s : n.probed) {
        if (s.get() != big_state.get()) continue;
        uint64_t rows = 0;
        for (const memory::Batch& b : n.pipeline.inputs) rows += b.rows;
        probe_tuples += static_cast<uint64_t>(rows * n.pipeline.scale);
        break;
      }
    }
    const uint64_t copart_bytes =
        probe_tuples * kCoPartitionTupleBytes + big_state->NominalBytes();
    sim::TrafficStats pass;
    pass.dram_seq_read_bytes = copart_bytes;
    pass.dram_seq_write_bytes = copart_bytes;
    pass.write_coalescing = 0.9;
    pass.tuple_ops = copart_bytes / 8;
    const sim::CpuSpec server = ops::ServerCpuSpec(
        topo_->device(policy.build_devices.front()).cpu,
        static_cast<int>(policy.build_devices.size()));
    const sim::SimTime pass_seconds =
        sim::MemoryModel::CpuTime(server, pass, server.cores);

    uint64_t rest = 0;
    for (int b : build_nodes) {
      if (b != big) rest += plan->node(b).built_state->NominalBytes();
    }
    if (!policy.async.enabled()) {
      *t += pass_seconds;
      *t = executor_.Broadcast(rest, from_node, gpu_nodes, *t);
    } else {
      // Async: the co-partition pass starts when the oversized build
      // itself finishes; the small tables broadcast chunked from their
      // own build finishes, overlapping the pass.
      const sim::SimTime copart_ready = ex->finished[big] + pass_seconds;
      placement->ready[big_state.get()] = copart_ready;
      sim::SimTime round = copart_ready;
      for (int b : build_nodes) {
        if (b == big) continue;
        const JoinStatePtr& s = plan->node(b).built_state;
        const sim::SimTime ready = executor_.BroadcastAsync(
            s->NominalBytes(), s->location_node, gpu_nodes, ex->finished[b],
            policy.async.broadcast_chunk_bytes, ex->trace_query);
        placement->ready[s.get()] = ready;
        round = std::max(round, ready);
      }
      *t = std::max(*t, round);
    }
    // Co-partitioned execution is inherently partitioned: the heavy joins
    // run hardware-conscious on the GPUs.
    for (int b : heavy_nodes) {
      plan->mutable_node(b).built_state->hardware_conscious = true;
    }
    for (int b : build_nodes) {
      placement->placed.insert(plan->node(b).built_state.get());
    }
    // The co-partitioned table streams through with the probe packets; only
    // the broadcast tables stay resident.
    placement->resident_bytes += rest;
    out->broadcast_bytes += rest;
    out->co_processed = true;
    metrics_.GetCounter("engine.broadcast_bytes")->Add(rest);
    metrics_.GetCounter("engine.co_partitions")->Increment();
    return Status::OK();
  }

  return Status::OutOfMemory(
      "hash tables (" + std::to_string(total >> 20) + " MiB, " +
      std::to_string(policy.build_staging_factor) +
      "x with build staging) exceed GPU memory budget " +
      std::to_string(budget >> 20) + " MiB");
}

Result<opt::OptimizeResult> Engine::Optimize(QueryPlan* plan,
                                             const ExecutionPolicy& policy) {
  opt::Optimizer optimizer(topo_, policy.optimizer, &stats_cache_);
  return optimizer.OptimizePlan(plan, policy);
}

Status Engine::BeginPlan(QueryPlan* plan, const ExecutionPolicy& policy,
                         PlanExec* ex) {
  if (plan->executed()) {
    return Status::InvalidArgument(
        "plan '" + plan->name() +
        "' was already executed (plans consume their input packets)");
  }
  if (Status st = plan->Validate(topo_); !st.ok()) return st;
  if (Status st = policy.Validate(*topo_); !st.ok()) return st;

  // Admission under operator-at-a-time execution: every stage boundary
  // materializes its full output in device memory, so the declared
  // intermediate footprint must fit the smallest device memory used.
  if (policy.model == ExecutionModel::kOperatorAtATime &&
      plan->declared_intermediate_bytes() > 0) {
    uint64_t budget = std::numeric_limits<uint64_t>::max();
    for (int d : policy.devices) {
      budget = std::min(budget,
                        topo_->mem_node(topo_->device(d).mem_node).capacity());
    }
    if (plan->declared_intermediate_bytes() > budget) {
      return Status::NotSupported(
          "operator-at-a-time intermediate of " +
          GiBString(plan->declared_intermediate_bytes()) + " GiB (" +
          plan->declared_intermediate_label() + ") exceeds device memory");
    }
  }

  auto order = plan->TopologicalOrder();
  HAPE_CHECK(order.ok());  // Validate() already checked for cycles
  plan->mark_executed();

  ex->plan = plan;
  ex->policy = &policy;
  ex->order = std::move(order.value());
  ex->pos = 0;
  const int n = static_cast<int>(plan->num_pipelines());
  ex->finished.assign(n, 0);
  ex->ran.assign(n, 0);
  ex->out = RunStats{};
  ex->out.async = policy.async.enabled();
  // Placement is needed only when probes can land on a GPU.
  ex->needs_placement = policy.UsesGpu(*topo_);
  return Status::OK();
}

Status Engine::StepPlan(PlanExec* ex) {
  HAPE_CHECK(!ex->done());
  QueryPlan* plan = ex->plan;
  const ExecutionPolicy& policy = *ex->policy;
  const int idx = ex->order[ex->pos];
  PlanNode& node = plan->mutable_node(idx);

  if (ex->needs_placement) {
    bool unplaced = false;
    for (const JoinStatePtr& s : node.probed) {
      if (ex->placement.placed.count(s.get()) == 0) unplaced = true;
    }
    if (unplaced) {
      // This node's builds are among its deps, so they have finished;
      // the round also places every other finished probed build. Under a
      // shared schedule the round sees (and advances) the schedule-wide
      // residency, so one query's broadcasts count against the next's
      // budget.
      if (ex->shared_resident != nullptr) {
        ex->placement.resident_bytes = *ex->shared_resident;
      }
      sim::SimTime t = std::max(ex->placement_finish, ex->admit);
      if (Status st = PlaceJoinStates(ex, &t); !st.ok()) return st;
      if (ex->shared_resident != nullptr) {
        *ex->shared_resident = ex->placement.resident_bytes;
      }
      ex->placement_finish = t;
      ex->out.placement_finish = t;
    }
  }

  RunOptions run_opts;
  run_opts.async = policy.async;
  run_opts.clocks = ex->clocks;
  run_opts.dma_stream = ex->dma_stream;
  run_opts.dma_lane_quota = ex->dma_lane_quota;
  run_opts.trace_query = ex->trace_query;
  if (!policy.async.enabled()) {
    // Synchronous: staging and compute both wait for the full placement
    // round and every dependency (the legacy barrier).
    sim::SimTime start = node.probed.empty() ? 0 : ex->placement_finish;
    for (int d : node.deps) start = std::max(start, ex->finished[d]);
    start = std::max(start, ex->admit);
    run_opts.start = run_opts.compute_ready = run_opts.compute_ready_host =
        start;
  } else {
    // Async: packet staging may begin as soon as the pipeline's *data*
    // exists — a dependency that only produced a probed hash table
    // gates compute, not mem-moves. CPU workers probe host-resident
    // tables and start at the build finishes; GPU workers wait for the
    // tables they probe to become device-resident (per-table broadcast
    // or co-partition finish), not for the whole placement round.
    sim::SimTime transfer_start = ex->admit;
    sim::SimTime host_gate = 0;
    for (int d : node.deps) {
      const PlanNode& dep = plan->node(d);
      bool builds_probed_state = false;
      if (dep.is_build) {
        for (const JoinStatePtr& s : node.probed) {
          if (s.get() == dep.built_state.get()) builds_probed_state = true;
        }
      }
      if (builds_probed_state) {
        host_gate = std::max(host_gate, ex->finished[d]);
      } else {
        transfer_start = std::max(transfer_start, ex->finished[d]);
      }
    }
    host_gate = std::max(host_gate, transfer_start);
    sim::SimTime gpu_gate = host_gate;
    for (const JoinStatePtr& s : node.probed) {
      auto it = ex->placement.ready.find(s.get());
      if (it != ex->placement.ready.end()) {
        gpu_gate = std::max(gpu_gate, it->second);
      }
    }
    run_opts.start = transfer_start;
    run_opts.compute_ready = gpu_gate;
    run_opts.compute_ready_host = host_gate;
  }

  const std::vector<int>& devices =
      !node.run_on.empty()
          ? node.run_on
          : (node.is_build ? policy.build_devices : policy.devices);
  if (devices.empty()) {
    return Status::InvalidArgument(
        "pipeline '" + node.pipeline.name +
        "' is a build but the policy provides no build devices");
  }
  node.pipeline.policy = policy.routing;
  node.pipeline.vector_at_a_time =
      policy.model == ExecutionModel::kVectorAtATime;
  node.pipeline.operator_at_a_time =
      policy.model == ExecutionModel::kOperatorAtATime;

  const ExecStats st = executor_.Run(&node.pipeline, devices, run_opts);
  ex->finished[idx] = st.finish;
  ex->ran[idx] = 1;
  RunStats& out = ex->out;
  out.finish = std::max(out.finish, st.finish);
  out.mem_moves += st.mem_moves;
  out.moved_bytes += st.moved_bytes;
  out.transfer_busy_s += st.transfer_busy_s;
  out.transfer_exposed_s += st.transfer_exposed_s;
  for (const auto& [dev, busy] : st.device_busy_s) {
    out.device_busy_s[dev] += busy;
  }
  out.peak_staged_bytes = std::max(out.peak_staged_bytes,
                                   st.peak_staged_bytes);
  out.pipelines.push_back(PipelineRunStats{node.pipeline.name, st});

  // Pipeline-granular observability: one counter bump per pipeline (never
  // per packet — the executor hot loop stays untouched) plus a span on
  // the owning query's scheduler track.
  metrics_.GetCounter("engine.pipelines")->Increment();
  metrics_.GetCounter("engine.packets")->Add(static_cast<double>(st.packets));
  metrics_.GetCounter("engine.mem_moves")
      ->Add(static_cast<double>(st.mem_moves));
  metrics_.GetCounter("engine.moved_bytes")
      ->Add(static_cast<double>(st.moved_bytes));
  metrics_.GetCounter("engine.transfer_busy_s")->Add(st.transfer_busy_s);
  metrics_.GetCounter("engine.transfer_exposed_s")->Add(st.transfer_exposed_s);
  metrics_.GetGauge("engine.peak_staged_bytes")
      ->Set(static_cast<double>(st.peak_staged_bytes));
  for (int l = 0; l < topo_->num_links(); ++l) {
    metrics_.GetGauge("interconnect.link" + std::to_string(l) + ".bytes")
        ->Set(static_cast<double>(topo_->link(l).total_bytes()));
  }
  for (int n = 0; n < topo_->num_mem_nodes(); ++n) {
    metrics_.GetGauge("copy_engine.node" + std::to_string(n) + ".bytes")
        ->Set(static_cast<double>(topo_->copy_engine(n).total_bytes()));
  }
  if (tracer_.enabled()) {
    tracer_.Span(obs::kSchedulerPid, obs::QueryTid(ex->trace_query), st.start,
                 st.finish, node.pipeline.name, "pipeline",
                 obs::TraceAttr{ex->trace_query, ex->dma_stream, -1, -1, -1,
                                st.moved_bytes, node.pipeline.name, {}});
  }

  if (node.is_build) {
    node.built_state->nominal_rows = static_cast<uint64_t>(
        node.built_state->payload.rows * node.pipeline.scale);
    node.built_state->location_node =
        topo_->device(devices.front()).mem_node;
  }
  ++ex->pos;
  return Status::OK();
}

Status Engine::LintAdmission(const QueryPlan& plan,
                             const ExecutionPolicy& policy,
                             const SubmitOptions* opts, const char* where) {
  if (!policy.lint.enable) return Status::OK();
  lint::LintContext ctx;
  ctx.topo = topo_;
  ctx.policy = &policy;
  ctx.submit = opts;
  lint::LintReport report = lint::LintPlan(plan, ctx);
  report.Merge(lint::LintPolicy(policy, topo_));
  metrics_.GetCounter("lint.runs")->Add(1);
  if (report.empty()) return Status::OK();
  metrics_.GetCounter("lint.errors")->Add(
      static_cast<double>(report.errors()));
  metrics_.GetCounter("lint.warnings")->Add(
      static_cast<double>(report.warnings()));
  if (policy.lint.strict && report.has_errors()) {
    metrics_.GetCounter("lint.rejected")->Add(1);
    return Status::InvalidArgument(std::string(where) +
                                   ": lint rejected plan '" + plan.name() +
                                   "': " + report.Summary());
  }
  // One summary line per admission, not one per diagnostic: a thousand-
  // query replay must not turn a warning into a log flood.
  HAPE_LOG(Warn) << where << ": lint of plan '" << plan.name()
                 << "': " << report.Summary();
  return Status::OK();
}

Result<RunStats> Engine::Run(QueryPlan* plan, const ExecutionPolicy& policy) {
  HAPE_RETURN_NOT_OK(LintAdmission(*plan, policy, nullptr, "Run"));
  PlanExec ex;
  HAPE_RETURN_NOT_OK(BeginPlan(plan, policy, &ex));
  while (!ex.done()) {
    HAPE_RETURN_NOT_OK(StepPlan(&ex));
  }
  return std::move(ex.out);
}

int Engine::Submit(QueryPlan plan) { return Submit(std::move(plan), {}); }

int Engine::Submit(QueryPlan plan, const SubmitOptions& opts) {
  SubmitOptions o = opts;
  if (o.label.empty()) o.label = plan.name();
  submitted_.emplace_back(static_cast<int>(submitted_.size()),
                          std::move(plan), std::move(o));
  return submitted_.back().id;
}

Status Engine::Cancel(int query_id) { return Cancel(query_id, 0.0); }

Status Engine::Cancel(int query_id, sim::SimTime at_s) {
  if (query_id < 0 || static_cast<size_t>(query_id) >= submitted_.size()) {
    return Status::InvalidArgument("Cancel: unknown query id " +
                                   std::to_string(query_id));
  }
  if (!(at_s >= 0)) {  // rejects NaN too
    return Status::InvalidArgument("Cancel: time must be >= 0");
  }
  SubmittedQuery& q = submitted_[query_id];
  // A query that already ran keeps its results; cancelling it is a no-op
  // (the "cancel after complete" race a serving client cannot avoid).
  if (q.executed) return Status::OK();
  q.cancel_at = std::min(q.cancel_at, at_s);
  return Status::OK();
}

Result<std::string> Engine::DumpPlan(const QueryPlan& plan) const {
  return PlanJson::Dump(plan);
}

Result<std::string> Engine::DumpPlan(const QueryPlan& plan,
                                     const ExecutionPolicy& policy) const {
  return PlanJson::Dump(plan, policy);
}

Result<LoadedPlan> Engine::LoadPlan(std::string_view json,
                                    const storage::Catalog& catalog) const {
  return PlanJson::Load(json, catalog, topo_);
}

Result<ScheduleStats> Engine::RunAll(const ExecutionPolicy& policy) {
  std::vector<SubmittedQuery*> pending;
  for (SubmittedQuery& q : submitted_) {
    if (!q.executed) pending.push_back(&q);
  }
  for (SubmittedQuery* q : pending) {
    if (const auto faults = q->opts.Faults(); !faults.empty()) {
      return Status::InvalidArgument("query '" + q->opts.label +
                                     "': " + faults.front());
    }
  }
  Scheduler scheduler(this, policy);
  auto result = scheduler.Run(pending);
  // Even a failed schedule consumed the plans it started; never retry them.
  for (SubmittedQuery* q : pending) q->executed = true;
  return result;
}

}  // namespace hape::engine
