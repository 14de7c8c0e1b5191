#include "common/json.h"
#include "engine/engine.h"
#include "engine/scheduler.h"

namespace hape::engine {

namespace {

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

void WriteTiers(JsonWriter* w, const ScheduleStats& schedule) {
  w->Key("tiers");
  w->BeginArray();
  for (const TierPercentiles& t : schedule.tiers) {
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

Result<std::string> Engine::Explain(const QueryPlan& plan,
                                    const RunStats& run) const {
  HAPE_ASSIGN_OR_RETURN(std::string plan_doc, DumpPlan(plan));
  JsonWriter w;
  w.BeginObject();
  w.Key("plan");
  w.Raw(plan_doc);
  w.Key("run");
  RunObject(&w, run);
  // Engine-wide instrument snapshot at explain time (counters cover every
  // run this Engine executed, not just `run`).
  w.Key("metrics");
  metrics_.WriteJson(&w);
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
  WriteTiers(&w, schedule);
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

}  // namespace hape::engine
