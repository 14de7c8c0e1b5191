#include "engine/engine.h"

#include <algorithm>
#include <limits>
#include <memory>
#include <utility>

#include "common/logging.h"
#include "engine/scheduler.h"
#include "engine/stages.h"
#include "lint/plan_lint.h"
#include "ops/join_kernels.h"
#include "sim/traffic.h"

namespace hape::engine {

namespace {

/// Bytes per tuple shipped by the CPU-side co-partition pass: the join key
/// plus a row id, matching what the generated co-partitioner materializes.
constexpr uint64_t kCoPartitionTupleBytes = 16;

/// Interconnect amplification charged to pipelines probing heavy build
/// sides that were hash-partitioned across GPUs instead of co-partitioned
/// (§6.4: every probe packet shuffles between devices at each such join).
/// The executor charges packet bytes x pipeline scale x amplification to
/// the wire as a uint64; PlanJson::Load caps a scan at 2^40 nominal rows,
/// so the product stays below 2^64 for packets narrower than 2^23 bytes
/// per nominal row.
constexpr double kShuffleWireAmplification = 2.0;

std::string GiBString(uint64_t bytes) {
  return std::to_string(bytes >> 30);
}

/// One run's executor pipeline for pipeline `i` of `plan` under `policy`:
/// its scan packets (read-only views of the table's columns, cut for this
/// run only), the stages its ops generate (probes against `tables`, by
/// build index) and a fresh sink for its terminal, which fills `tables[i]`
/// or the terminal's result cell (emptied first).
Pipeline Compile(const QueryPlan& plan, int i, const ExecutionPolicy& policy,
                 const std::vector<JoinStatePtr>& tables) {
  const PlanNode& node = plan.node(i);
  const storage::Table& table = *node.source_table;
  std::vector<storage::ColumnPtr> columns;
  columns.reserve(node.source_columns.size());
  for (const auto& c : node.source_columns) columns.push_back(table.column(c));
  Pipeline p;
  p.name = node.name;
  p.inputs = memory::ChunkColumns(columns, table.num_rows(),
                                  node.source_chunk_rows, table.home_node());
  p.scale = node.scale;
  p.policy = policy.routing;
  p.vector_at_a_time = policy.model == ExecutionModel::kVectorAtATime;
  p.operator_at_a_time = policy.model == ExecutionModel::kOperatorAtATime;
  p.stages.push_back(ScanStage());
  for (const LogicalOp& op : node.ops) {
    switch (op.kind) {
      case LogicalOp::Kind::kFilter:
        p.stages.push_back(FilterStage(op.expr));
        break;
      case LogicalOp::Kind::kProject:
        p.stages.push_back(ProjectStage(op.exprs));
        break;
      case LogicalOp::Kind::kProbe:
        p.stages.push_back(ProbeStage(tables[op.build], op.expr));
        break;
    }
  }
  const TerminalSpec& t = node.terminal;
  switch (t.kind) {
    case TerminalSpec::Kind::kBuild:
      p.sink = std::make_unique<BuildSink>(tables[i], t.key, t.payload);
      break;
    case TerminalSpec::Kind::kAggregate:
      t.groups->clear();
      p.sink = std::make_unique<HashAggSink>(t.key, t.aggs, t.groups);
      break;
    case TerminalSpec::Kind::kCollect:
      t.batches->clear();
      p.sink = std::make_unique<CollectSink>(t.batches);
      break;
    case TerminalSpec::Kind::kNone:  // Validate rejects it
      break;
  }
  return p;
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
  const QueryPlan& plan = *ex->plan;
  const ExecutionPolicy& policy = *ex->policy;
  PlacementState* placement = &ex->placement;
  RunStats* out = &ex->out;
  // The tables of this round: every probed build that has finished and is
  // not yet device-resident, in build declaration order (deterministic
  // sums and broadcasts). Builds downstream of a probe (multi-level DAGs)
  // are placed by a later round.
  const int n = static_cast<int>(plan.num_pipelines());
  std::vector<char> probed(n, 0);
  for (int i = 0; i < n; ++i) {
    for (int b : plan.node(i).ProbedBuilds()) probed[b] = 1;
  }
  std::vector<int> build_nodes;
  for (int i = 0; i < n; ++i) {
    if (probed[i] && ex->ran[i] && placement->placed.count(i) == 0) {
      build_nodes.push_back(i);
    }
  }
  if (build_nodes.empty()) return Status::OK();
  const std::vector<JoinStatePtr>& tables = ex->tables;

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
  for (int b : build_nodes) total += tables[b]->NominalBytes();

  // Under a shared schedule, tables other queries hold resident count
  // against the budget too (ex->placement.resident_bytes was seeded from
  // the schedule's shared residency before this round).
  const uint64_t budget = policy.GpuBudget(*topo_);
  const bool fits =
      ExecutionPolicy::StagedBytes(placement->resident_bytes + total) <=
      static_cast<double>(budget);

  std::vector<int> heavy_nodes;
  for (int b : build_nodes) {
    if (plan.node(b).terminal.heavy) heavy_nodes.push_back(b);
  }
  const int from_node = tables[build_nodes.front()]->location_node;

  if (fits) {
    // Broadcast every table once (topology-aware multicast mem-move, §4.2).
    for (int b : heavy_nodes) {
      tables[b]->hardware_conscious = policy.partitioned_gpu_join;
    }
    // Non-partitioned heavy joins hash-partition their build sides across
    // the GPUs, so every probe packet shuffles between devices at each such
    // join (§6.4); the partitioned plan co-partitions once instead.
    for (int i = 0; i < n; ++i) {
      bool probes_heavy = false;
      for (int p : plan.node(i).ProbedBuilds()) {
        for (int b : heavy_nodes) probes_heavy |= p == b;
      }
      if (probes_heavy) {
        ex->pipelines[i].wire_amplification =
            policy.partitioned_gpu_join ? 1.0 : kShuffleWireAmplification;
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
        const JoinState& s = *tables[b];
        const sim::SimTime ready = executor_.BroadcastAsync(
            s.NominalBytes(), s.location_node, gpu_nodes, ex->finished[b],
            ex->trace_query);
        placement->ready[b] = ready;
        *t = std::max(*t, ready);
      }
    }
    out->broadcast_bytes += total;
    metrics_.GetCounter("engine.broadcast_bytes")->Add(total);
    placement->placed.insert(build_nodes.begin(), build_nodes.end());
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
      if (tables[b]->NominalBytes() > tables[big]->NominalBytes()) big = b;
    }
    uint64_t probe_tuples = 0;
    for (int i = 0; i < n; ++i) {
      const PlanNode& node = plan.node(i);
      const std::vector<int> builds = node.ProbedBuilds();
      if (std::find(builds.begin(), builds.end(), big) != builds.end()) {
        probe_tuples += static_cast<uint64_t>(node.source_rows() * node.scale);
      }
    }
    const uint64_t copart_bytes =
        probe_tuples * kCoPartitionTupleBytes + tables[big]->NominalBytes();
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
      if (b != big) rest += tables[b]->NominalBytes();
    }
    if (!policy.async.enabled()) {
      *t += pass_seconds;
      *t = executor_.Broadcast(rest, from_node, gpu_nodes, *t);
    } else {
      // Async: the co-partition pass starts when the oversized build
      // itself finishes; the small tables broadcast chunked from their
      // own build finishes, overlapping the pass.
      const sim::SimTime copart_ready = ex->finished[big] + pass_seconds;
      placement->ready[big] = copart_ready;
      sim::SimTime round = copart_ready;
      for (int b : build_nodes) {
        if (b == big) continue;
        const JoinState& s = *tables[b];
        const sim::SimTime ready = executor_.BroadcastAsync(
            s.NominalBytes(), s.location_node, gpu_nodes, ex->finished[b],
            ex->trace_query);
        placement->ready[b] = ready;
        round = std::max(round, ready);
      }
      *t = std::max(*t, round);
    }
    // Co-partitioned execution is inherently partitioned: the heavy joins
    // run hardware-conscious on the GPUs.
    for (int b : heavy_nodes) tables[b]->hardware_conscious = true;
    placement->placed.insert(build_nodes.begin(), build_nodes.end());
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
      std::to_string(ExecutionPolicy::kBuildStagingFactor) +
      "x with build staging) exceed GPU memory budget " +
      std::to_string(budget >> 20) + " MiB");
}

Result<opt::OptimizeResult> Engine::Optimize(QueryPlan* plan,
                                             const ExecutionPolicy& policy) {
  opt::Optimizer optimizer(topo_, &stats_cache_);
  return optimizer.OptimizePlan(plan, policy);
}

Status Engine::BeginPlan(const QueryPlan& plan, const ExecutionPolicy& policy,
                         PlanExec* ex) {
  if (Status st = plan.Validate(topo_); !st.ok()) return st;
  if (Status st = policy.Validate(*topo_); !st.ok()) return st;

  // Admission under operator-at-a-time execution: every stage boundary
  // materializes its full output in device memory, so the declared
  // intermediate footprint must fit the smallest device memory used.
  if (policy.model == ExecutionModel::kOperatorAtATime &&
      plan.declared_intermediate_bytes() > 0) {
    uint64_t budget = std::numeric_limits<uint64_t>::max();
    for (int d : policy.devices) {
      budget = std::min(budget,
                        topo_->mem_node(topo_->device(d).mem_node).capacity());
    }
    if (plan.declared_intermediate_bytes() > budget) {
      return Status::NotSupported(
          "operator-at-a-time intermediate of " +
          GiBString(plan.declared_intermediate_bytes()) + " GiB (" +
          plan.declared_intermediate_label() + ") exceeds device memory");
    }
  }

  auto order = plan.TopologicalOrder();
  HAPE_CHECK(order.ok());  // Validate() already checked for cycles

  ex->plan = &plan;
  ex->policy = &policy;
  ex->order = std::move(order.value());
  ex->pos = 0;
  const int n = static_cast<int>(plan.num_pipelines());
  ex->tables.assign(n, nullptr);
  for (int i = 0; i < n; ++i) {
    const PlanNode& node = plan.node(i);
    if (node.is_build()) {
      ex->tables[i] = std::make_shared<JoinState>(node.terminal.ht_buckets);
    }
  }
  ex->pipelines.clear();
  ex->pipelines.reserve(n);
  for (int i = 0; i < n; ++i) {
    ex->pipelines.push_back(Compile(plan, i, policy, ex->tables));
  }
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
  const ExecutionPolicy& policy = *ex->policy;
  const int idx = ex->order[ex->pos];
  const PlanNode& node = ex->plan->node(idx);
  const std::vector<int> probed = node.ProbedBuilds();

  if (ex->needs_placement) {
    bool unplaced = false;
    for (int b : probed) {
      if (ex->placement.placed.count(b) == 0) unplaced = true;
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
    sim::SimTime start = probed.empty() ? 0 : ex->placement_finish;
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
      if (std::find(probed.begin(), probed.end(), d) != probed.end()) {
        host_gate = std::max(host_gate, ex->finished[d]);
      } else {
        transfer_start = std::max(transfer_start, ex->finished[d]);
      }
    }
    host_gate = std::max(host_gate, transfer_start);
    sim::SimTime gpu_gate = host_gate;
    for (int b : probed) {
      auto it = ex->placement.ready.find(b);
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
          : (node.is_build() ? policy.build_devices : policy.devices);
  if (devices.empty()) {
    return Status::InvalidArgument(
        "pipeline '" + node.name +
        "' is a build but the policy provides no build devices");
  }

  const ExecStats st = executor_.Run(&ex->pipelines[idx], devices, run_opts);
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
  out.pipelines.push_back(PipelineRunStats{node.name, st});

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
                 st.finish, node.name, "pipeline",
                 obs::TraceAttr{ex->trace_query, ex->dma_stream, -1, -1, -1,
                                st.moved_bytes, node.name, {}});
  }

  if (node.is_build()) {
    JoinState& table = *ex->tables[idx];
    table.nominal_rows =
        static_cast<uint64_t>(table.payload.rows * node.scale);
    table.location_node = topo_->device(devices.front()).mem_node;
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
  HAPE_RETURN_NOT_OK(BeginPlan(*plan, policy, &ex));
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
