#include "common/json.h"
#include "engine/engine.h"
#include "engine/scheduler.h"

namespace hape::engine {

namespace {

const char* OpKindName(LogicalOp::Kind k) {
  switch (k) {
    case LogicalOp::Kind::kFilter:
      return "filter";
    case LogicalOp::Kind::kProject:
      return "project";
    case LogicalOp::Kind::kProbe:
      return "probe";
  }
  return "?";
}

const char* TerminalKindName(TerminalSpec::Kind kind) {
  switch (kind) {
    case TerminalSpec::Kind::kBuild:
      return "hash_build";
    case TerminalSpec::Kind::kAggregate:
      return "hash_agg";
    case TerminalSpec::Kind::kCollect:
      return "collect";
    case TerminalSpec::Kind::kNone:
      break;
  }
  return "none";
}

void IntArray(JsonWriter* w, const std::vector<int>& v) {
  w->BeginArray();
  for (int x : v) w->Int(x);
  w->EndArray();
}

void DeviceBusyArray(JsonWriter* w,
                     const std::map<int, sim::SimTime>& busy,
                     const std::map<int, sim::SimTime>* totals) {
  w->BeginArray();
  for (const auto& [dev, s] : busy) {
    w->BeginObject();
    w->Key("device");
    w->Int(dev);
    w->Key("busy_s");
    w->Double(s);
    if (totals != nullptr) {
      auto it = totals->find(dev);
      const sim::SimTime total = it == totals->end() ? 0 : it->second;
      w->Key("share");
      w->Double(total > 0 ? s / total : 0.0);
    }
    w->EndObject();
  }
  w->EndArray();
}

/// The execution record object shared by Explain(plan, run) and
/// Explain(schedule): top-level run outcome plus per-pipeline timings and
/// the hidden-vs-exposed transfer accounting.
void RunObject(JsonWriter* w, const RunStats& run) {
  w->BeginObject();
  w->Key("async");
  w->Bool(run.async);
  w->Key("finish_s");
  w->Double(run.finish);
  w->Key("placement_finish_s");
  w->Double(run.placement_finish);
  w->Key("broadcast_bytes");
  w->Uint(run.broadcast_bytes);
  w->Key("co_processed");
  w->Bool(run.co_processed);
  // Overlap accounting: how much mem-move time the executor hid behind
  // compute vs exposed on the workers' critical paths.
  w->Key("mem_moves");
  w->Uint(run.mem_moves);
  w->Key("moved_bytes");
  w->Uint(run.moved_bytes);
  w->Key("transfer_busy_s");
  w->Double(run.transfer_busy_s);
  w->Key("transfer_exposed_s");
  w->Double(run.transfer_exposed_s);
  w->Key("transfer_hidden_s");
  w->Double(run.transfer_hidden_s());
  w->Key("peak_staged_bytes");
  w->Uint(run.peak_staged_bytes);
  w->Key("device_busy");
  DeviceBusyArray(w, run.device_busy_s, nullptr);
  w->Key("pipelines");
  w->BeginArray();
  for (const PipelineRunStats& p : run.pipelines) {
    w->BeginObject();
    w->Key("name");
    w->String(p.name);
    w->Key("start_s");
    w->Double(p.stats.start);
    w->Key("finish_s");
    w->Double(p.stats.finish);
    w->Key("packets");
    w->Uint(p.stats.packets);
    w->Key("rows_out");
    w->Uint(p.stats.rows_out);
    w->Key("mem_moves");
    w->Uint(p.stats.mem_moves);
    w->Key("moved_bytes");
    w->Uint(p.stats.moved_bytes);
    w->Key("transfer_busy_s");
    w->Double(p.stats.transfer_busy_s);
    w->Key("transfer_exposed_s");
    w->Double(p.stats.transfer_exposed_s);
    w->Key("transfer_hidden_s");
    w->Double(p.stats.transfer_hidden_s());
    w->EndObject();
  }
  w->EndArray();
  w->EndObject();
}

}  // namespace

std::string Engine::Explain(const QueryPlan& plan,
                            const RunStats& run) const {
  JsonWriter w;
  w.BeginObject();
  w.Key("plan");
  w.String(plan.name());
  w.Key("run");
  RunObject(&w, run);
  // Engine-wide instrument snapshot at explain time (counters cover every
  // run this Engine executed, not just `run`).
  w.Key("metrics");
  metrics_.WriteJson(&w);
  w.Key("explain");
  w.Raw(Explain(plan));
  w.EndObject();
  return w.str();
}

std::string Engine::Explain(const ScheduleStats& schedule) const {
  JsonWriter w;
  w.BeginObject();
  w.Key("schedule");
  w.BeginObject();
  w.Key("policy");
  w.String(SchedulingPolicyName(schedule.policy));
  w.Key("num_queries");
  w.Uint(schedule.queries.size());
  w.Key("makespan_s");
  w.Double(schedule.makespan);
  w.Key("peak_resident_bytes");
  w.Uint(schedule.peak_resident_bytes);
  // Terminal-state totals: completed + cancelled + deadline_exceeded ==
  // num_queries; shed counts the subset dropped at admission with zero
  // pipelines run.
  w.Key("completed");
  w.Uint(schedule.completed);
  w.Key("cancelled");
  w.Uint(schedule.cancelled);
  w.Key("deadline_exceeded");
  w.Uint(schedule.deadline_exceeded);
  w.Key("shed");
  w.Uint(schedule.shed);
  w.Key("device_busy");
  DeviceBusyArray(&w, schedule.device_busy_s, nullptr);
  // Per-SLA-tier latency distributions (nearest-rank percentiles).
  // Non-tiered policies report one tier-0 row over all queries, so tiered
  // and untiered runs of the same trace are directly comparable.
  w.Key("tiers");
  w.BeginArray();
  for (const TierPercentiles& t : schedule.tiers) {
    w.BeginObject();
    w.Key("tier");
    w.Int(t.tier);
    w.Key("queries");
    w.Uint(t.queries);
    w.Key("completed");
    w.Uint(t.completed);
    w.Key("cancelled");
    w.Uint(t.cancelled);
    w.Key("deadline_exceeded");
    w.Uint(t.deadline_exceeded);
    w.Key("shed");
    w.Uint(t.shed);
    w.Key("queue_p50_s");
    w.Double(t.queue_p50);
    w.Key("queue_p95_s");
    w.Double(t.queue_p95);
    w.Key("queue_p99_s");
    w.Double(t.queue_p99);
    w.Key("makespan_p50_s");
    w.Double(t.makespan_p50);
    w.Key("makespan_p95_s");
    w.Double(t.makespan_p95);
    w.Key("makespan_p99_s");
    w.Double(t.makespan_p99);
    w.EndObject();
  }
  w.EndArray();
  w.Key("queries");
  w.BeginArray();
  for (const QueryRunStats& q : schedule.queries) {
    w.BeginObject();
    w.Key("id");
    w.Int(q.id);
    w.Key("label");
    w.String(q.label);
    w.Key("weight");
    w.Double(q.weight);
    w.Key("tier");
    w.Int(q.tier);
    // Per-query schedule accounting: when the query arrived, when the
    // scheduler let it in, how long it queued for the machine, and its
    // end-to-end makespan.
    w.Key("arrival_s");
    w.Double(q.arrival);
    w.Key("admitted_s");
    w.Double(q.admitted);
    w.Key("queueing_delay_s");
    w.Double(q.queueing_delay_s());
    w.Key("finish_s");
    w.Double(q.finish);
    w.Key("makespan_s");
    w.Double(q.makespan_s());
    // Terminal state: "completed", "cancelled", or "deadline_exceeded";
    // `shed` marks admission-point drops (zero pipelines run), and
    // `deadline_s` echoes the submission deadline (0 = none) so a met
    // deadline can be told from a missed-but-completed one.
    w.Key("outcome");
    w.String(QueryOutcomeName(q.outcome));
    w.Key("shed");
    w.Bool(q.shed);
    w.Key("deadline_s");
    w.Double(q.deadline_s);
    w.Key("copy_engine_bytes");
    w.Uint(q.copy_engine_bytes);
    // This query's slice of every device it touched, relative to the
    // schedule-wide busy totals.
    w.Key("device_share");
    DeviceBusyArray(&w, q.run.device_busy_s, &schedule.device_busy_s);
    w.Key("run");
    RunObject(&w, q.run);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  w.Key("metrics");
  metrics_.WriteJson(&w);
  w.EndObject();
  return w.str();
}

std::string Engine::Explain(const QueryPlan& plan) const {
  JsonWriter w;
  w.BeginObject();
  w.Key("plan");
  w.String(plan.name());
  w.Key("num_pipelines");
  w.Uint(plan.num_pipelines());
  if (plan.declared_intermediate_bytes() > 0) {
    w.Key("declared_intermediate_bytes");
    w.Uint(plan.declared_intermediate_bytes());
    w.Key("declared_intermediate_label");
    w.String(plan.declared_intermediate_label());
  }
  w.Key("pipelines");
  w.BeginArray();
  for (size_t i = 0; i < plan.num_pipelines(); ++i) {
    const PlanNode& n = plan.node(static_cast<int>(i));
    w.BeginObject();
    w.Key("id");
    w.Uint(i);
    w.Key("name");
    w.String(n.name);
    w.Key("source");
    w.BeginObject();
    w.Key("table");
    w.String(n.source_table->name());
    w.Key("columns");
    w.BeginArray();
    for (const auto& c : n.source_columns) w.String(c);
    w.EndArray();
    w.EndObject();
    w.Key("deps");
    IntArray(&w, n.deps);
    w.Key("run_on");
    IntArray(&w, n.run_on);
    w.Key("build");
    w.Bool(n.is_build());
    if (n.is_build()) {
      w.Key("heavy");
      w.Bool(n.terminal.heavy);
      if (n.terminal.key != nullptr) {
        w.Key("build_key");
        w.String(n.terminal.key->ToString());
      }
      w.Key("ht_buckets");
      w.Uint(n.terminal.ht_buckets);
    }
    w.Key("scale");
    w.Double(n.scale);
    // Declared vs estimated cardinalities: what the plan said vs what the
    // optimizer derived (estimates are zero until Engine::Optimize ran).
    w.Key("declared");
    w.BeginObject();
    w.Key("source_rows");
    w.Uint(n.source_rows());
    if (n.terminal.declared_rows > 0) {
      w.Key("build_rows");
      w.Uint(n.terminal.declared_rows);
    }
    w.EndObject();
    w.Key("estimated");
    w.BeginObject();
    w.Key("out_rows");
    w.Uint(n.est_out_rows);
    w.Key("nominal_out_rows");
    w.Uint(n.est_nominal_out_rows);
    w.Key("cost_seconds");
    w.Double(n.est_cost_seconds);
    w.EndObject();
    w.Key("ops");
    w.BeginArray();
    for (const LogicalOp& op : n.ops) {
      w.BeginObject();
      w.Key("kind");
      w.String(OpKindName(op.kind));
      if (op.expr != nullptr) {
        w.Key("expr");
        w.String(op.expr->ToString());
      }
      if (op.kind == LogicalOp::Kind::kProbe) {
        w.Key("build_pipeline");
        w.Int(op.build);
        w.Key("appended_cols");
        w.Int(plan.AppendedColumns(op));
      }
      w.EndObject();
    }
    w.EndArray();
    w.Key("sink");
    w.String(TerminalKindName(n.terminal.kind));
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return w.str();
}

}  // namespace hape::engine
