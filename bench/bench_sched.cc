// Multi-query scheduler bench: hybrid TPC-H Q3 + Q5 + Q9* admitted into
// one Engine, back-to-back serial (== kFifo) vs kFairShare concurrent,
// at async staging depths 1 and 2.
//
// Expected shape: at depth 1 each solo run exposes per-packet transfer
// waits and underused build phases, and interleaving the other queries'
// compute into those holes pulls the concurrent makespan well below the
// serial sum (~7% on the paper server). At depth 2 the solo runs already
// hide most transfer time (hybrid utilization is 91-98%), so the win
// narrows — the concurrent makespan approaches the serial sum from
// below as prefetching saturates the machine. A third scenario shrinks
// the GPU budget so two Q5 instances contend for device memory: the
// second is admitted in a later wave and reports a positive queueing
// delay.
//
// Besides the stdout table, results go to BENCH_sched.json. Its ctest
// (tools/check_bench_outputs.py) enforces:
//   - kFifo reproduces the serial sum exactly (bit-exact compat),
//   - the concurrent hybrid makespan is strictly below the serial sum
//     at both depths,
//   - the contended scenario reports a positive queueing delay.

#include <cstdio>
#include <fstream>
#include <vector>

#include "common/json.h"
#include "engine/scheduler.h"
#include "queries/tpch_queries.h"

namespace {

using namespace hape;           // NOLINT
using namespace hape::queries;  // NOLINT

constexpr size_t kPacketRows = 2 << 20;

struct QuerySpec {
  const char* name;
  QueryFn run;
  BuildFn build;
};
constexpr QuerySpec kMix[] = {{"Q3", RunQ3, BuildQ3Plan},
                              {"Q5", RunQ5, BuildQ5Plan},
                              {"Q9*", RunQ9, BuildQ9Plan}};

TpchContext* Context() {
  static sim::Topology topo = sim::Topology::PaperServer();
  static TpchContext* ctx = [] {
    auto* c = new TpchContext();
    c->topo = &topo;
    c->sf_actual = 0.02;
    c->sf_nominal = 100.0;
    c->nominal_packet_rows = kPacketRows;
    HAPE_CHECK(PrepareTpch(c).ok());
    return c;
  }();
  return ctx;
}

engine::ExecutionPolicy MakePolicy(int depth,
                                   engine::SchedulingPolicy sched) {
  engine::ExecutionPolicy p = engine::ExecutionPolicy::ForConfig(
      *Context()->topo, EngineConfig::kProteusHybrid);
  p.async = engine::AsyncOptions::Depth(depth);
  p.scheduling = sched;
  if (sched == engine::SchedulingPolicy::kFairShare) {
    // Each equal-weight query expects a third of the contended CPU pool;
    // the optimizer's cost estimates account for the squeeze.
    p.expected_device_share = 1.0 / (sizeof(kMix) / sizeof(kMix[0]));
  }
  return p;
}

/// Submit the mix into a fresh engine and run the schedule.
engine::ScheduleStats RunSchedule(const engine::ExecutionPolicy& policy) {
  TpchContext* ctx = Context();
  ctx->topo->Reset();
  engine::Engine eng(ctx->topo);
  for (const QuerySpec& q : kMix) {
    auto bq = q.build(ctx);
    HAPE_CHECK(bq.ok()) << bq.status().ToString();
    HAPE_CHECK(eng.Optimize(&bq.value().plan, policy).ok());
    engine::SubmitOptions so;
    so.label = q.name;
    eng.Submit(std::move(bq.value().plan), so);
  }
  auto s = eng.RunAll(policy);
  HAPE_CHECK(s.ok()) << s.status().ToString();
  return std::move(s.value());
}

void WriteQueryStats(JsonWriter* w, const engine::ScheduleStats& s) {
  w->Key("queries");
  w->BeginArray();
  for (const engine::QueryRunStats& q : s.queries) {
    w->BeginObject();
    w->Key("label");
    w->String(q.label);
    w->Key("admitted_s");
    w->Double(q.admitted);
    w->Key("queueing_delay_s");
    w->Double(q.queueing_delay_s());
    w->Key("finish_s");
    w->Double(q.finish);
    w->Key("makespan_s");
    w->Double(q.makespan_s());
    w->Key("copy_engine_bytes");
    w->Uint(q.copy_engine_bytes);
    w->EndObject();
  }
  w->EndArray();
}

void ScheduleTableAndJson() {
  TpchContext* ctx = Context();
  JsonWriter w;
  w.BeginObject();
  w.Key("bench");
  w.String("sched");
  w.Key("config");
  w.String(ConfigName(EngineConfig::kProteusHybrid));
  w.Key("sf_nominal");
  w.Double(ctx->sf_nominal);
  w.Key("packet_rows");
  w.Uint(kPacketRows);
  w.Key("results");
  w.BeginArray();

  std::printf(
      "== Multi-query scheduler: hybrid Q3+Q5+Q9*, serial vs concurrent "
      "==\n");
  std::printf("%-7s %12s %12s %12s %10s\n", "depth", "serial_sum", "fifo",
              "fair-share", "fair/ser");
  for (int depth : {1, 2}) {
    double serial_sum = 0;
    std::vector<double> solo;
    for (const QuerySpec& q : kMix) {
      ctx->topo->Reset();
      ctx->async = engine::AsyncOptions::Depth(depth);
      const QueryResult r = q.run(ctx, EngineConfig::kProteusHybrid);
      HAPE_CHECK(!r.DidNotFinish());
      solo.push_back(r.seconds);
      serial_sum += r.seconds;
    }
    const engine::ScheduleStats fifo =
        RunSchedule(MakePolicy(depth, engine::SchedulingPolicy::kFifo));
    const engine::ScheduleStats fair =
        RunSchedule(MakePolicy(depth, engine::SchedulingPolicy::kFairShare));
    std::printf("%-7d %12.4f %12.4f %12.4f %10.3f\n", depth, serial_sum,
                fifo.makespan, fair.makespan, fair.makespan / serial_sum);

    w.BeginObject();
    w.Key("scenario");
    w.String("mix");
    w.Key("depth");
    w.Int(depth);
    w.Key("serial_sum_s");
    w.Double(serial_sum);
    w.Key("solo_seconds");
    w.BeginArray();
    for (double s : solo) w.Double(s);
    w.EndArray();
    w.Key("fifo_makespan_s");
    w.Double(fifo.makespan);
    w.Key("fair_makespan_s");
    w.Double(fair.makespan);
    WriteQueryStats(&w, fair);
    w.EndObject();
  }

  // Contended scenario: two Q5 instances, GPU budget sized for one. The
  // second is admitted in a later wave — queueing delay from memory
  // contention, not from device time-sharing.
  {
    const int depth = 2;
    engine::ExecutionPolicy policy =
        MakePolicy(depth, engine::SchedulingPolicy::kFairShare);
    ctx->topo->Reset();
    ctx->async = engine::AsyncOptions::Depth(depth);
    engine::Engine eng(ctx->topo);
    const int gpu = ctx->topo->GpuDeviceIds().front();
    const uint64_t cap =
        ctx->topo->mem_node(ctx->topo->device(gpu).mem_node).capacity();
    uint64_t fp = 0;
    for (int i = 0; i < 2; ++i) {
      auto bq = BuildQ5Plan(ctx);
      HAPE_CHECK(bq.ok());
      HAPE_CHECK(eng.Optimize(&bq.value().plan, policy).ok());
      if (i == 0) {
        fp = engine::Scheduler::EstimatedResidentBytes(
            bq.value().plan, cap - policy.device_reserved_bytes);
        policy.device_reserved_bytes =
            cap - static_cast<uint64_t>(
                      engine::ExecutionPolicy::StagedBytes(fp) * 1.5);
      }
      engine::SubmitOptions so;
      so.label = i == 0 ? "Q5-a" : "Q5-b";
      eng.Submit(std::move(bq.value().plan), so);
    }
    auto s = eng.RunAll(policy);
    HAPE_CHECK(s.ok()) << s.status().ToString();
    std::printf(
        "\ncontended twin Q5 (budget for one): Q5-a admitted %.4f s, "
        "Q5-b admitted %.4f s (queued %.4f s)\n",
        s.value().queries[0].admitted, s.value().queries[1].admitted,
        s.value().queries[1].queueing_delay_s());
    w.BeginObject();
    w.Key("scenario");
    w.String("contended");
    w.Key("depth");
    w.Int(depth);
    w.Key("estimated_resident_bytes");
    w.Uint(fp);
    WriteQueryStats(&w, s.value());
    w.EndObject();
  }

  w.EndArray();
  w.EndObject();
  std::ofstream out("BENCH_sched.json");
  out << w.str() << "\n";
  std::printf("\nwrote BENCH_sched.json\n\n");
}

}  // namespace

int main() {
  ScheduleTableAndJson();
  return 0;
}
