// Async-executor ablation: synchronous (depth 0) vs event-driven async
// execution (depth 1/2/4) across the Proteus configurations, TPC-H
// Q1/Q3/Q5/Q6/Q9* at nominal SF 100. Expected shape: scan-heavy queries
// are unchanged (nothing to overlap), the transfer-bound hybrid joins
// (Q5/Q9) finish strictly earlier with depth >= 1 — broadcasts are chunked
// and double-buffered, probe-side staging overlaps builds, and per-packet
// mem-moves hide behind compute.
//
// Besides the stdout table, results go to BENCH_async.json. Its ctest
// (tools/check_bench_outputs.py) enforces two invariants on it: depth 0
// must equal the plain synchronous run exactly, and hybrid Q5/Q9 must be
// strictly faster at every depth >= 1.

#include <cstdio>
#include <fstream>

#include "common/json.h"
#include "queries/tpch_queries.h"

namespace {

using namespace hape;           // NOLINT
using namespace hape::queries;  // NOLINT

constexpr EngineConfig kConfigs[] = {EngineConfig::kProteusCpu,
                                     EngineConfig::kProteusHybrid,
                                     EngineConfig::kProteusGpu};
constexpr const char* kQueryNames[] = {"Q1", "Q3", "Q5", "Q6", "Q9*"};
constexpr QueryFn kQueries[] = {RunQ1, RunQ3, RunQ5, RunQ6, RunQ9};
constexpr int kNumQueries = 5;
constexpr int kDepths[] = {0, 1, 2, 4};

TpchContext* Context() {
  static sim::Topology topo = sim::Topology::PaperServer();
  static TpchContext* ctx = [] {
    auto* c = new TpchContext();
    c->topo = &topo;
    c->sf_actual = 0.02;
    c->sf_nominal = 100.0;
    HAPE_CHECK(PrepareTpch(c).ok());
    return c;
  }();
  return ctx;
}

QueryResult RunAtDepth(int q, EngineConfig config, int depth) {
  TpchContext* ctx = Context();
  ctx->topo->Reset();
  ctx->async = engine::AsyncOptions::Depth(depth);
  return kQueries[q](ctx, config);
}

QueryResult RunPlain(int q, EngineConfig config) {
  TpchContext* ctx = Context();
  ctx->topo->Reset();
  ctx->async = engine::AsyncOptions::Off();
  return kQueries[q](ctx, config);
}

void AblationTableAndJson() {
  std::printf(
      "== Async executor: sync vs depth-N finish time (s), SF100 nominal "
      "==\n");
  std::printf("%-5s %-15s %10s %10s %10s %10s %9s %9s\n", "", "", "sync",
              "d1", "d2", "d4", "d2/sync", "hidden_s");

  JsonWriter w;
  w.BeginObject();
  w.Key("bench");
  w.String("async_ablation");
  w.Key("sf_nominal");
  w.Double(Context()->sf_nominal);
  w.Key("results");
  w.BeginArray();
  for (int q = 0; q < kNumQueries; ++q) {
    for (auto c : kConfigs) {
      const QueryResult plain = RunPlain(q, c);
      double secs[4];
      double hidden_d2 = 0, exposed_d2 = 0;
      bool dnf = plain.DidNotFinish();
      for (int di = 0; di < 4; ++di) {
        const QueryResult r = RunAtDepth(q, c, kDepths[di]);
        dnf = dnf || r.DidNotFinish();
        secs[di] = r.DidNotFinish() ? -1 : r.seconds;
        if (kDepths[di] == 2 && !r.DidNotFinish()) {
          hidden_d2 = r.exec.transfer_hidden_s();
          exposed_d2 = r.exec.transfer_exposed_s;
        }
        w.BeginObject();
        w.Key("query");
        w.String(kQueryNames[q]);
        w.Key("config");
        w.String(ConfigName(c));
        w.Key("depth");
        w.Int(kDepths[di]);
        w.Key("dnf");
        w.Bool(r.DidNotFinish());
        if (!r.DidNotFinish()) {
          w.Key("seconds");
          w.Double(r.seconds);
          w.Key("transfer_hidden_s");
          w.Double(r.exec.transfer_hidden_s());
          w.Key("transfer_exposed_s");
          w.Double(r.exec.transfer_exposed_s);
          w.Key("moved_bytes");
          w.Uint(r.exec.moved_bytes);
        }
        if (!plain.DidNotFinish()) {
          // The plain run carries no AsyncOptions at all: depth 0 must
          // reproduce it exactly (the ctest enforces this).
          w.Key("plain_sync_seconds");
          w.Double(plain.seconds);
        }
        w.EndObject();
      }
      if (!dnf) {
        std::printf("%-5s %-15s %10.4f %10.4f %10.4f %10.4f %9.3f %9.4f\n",
                    kQueryNames[q], ConfigName(c), secs[0], secs[1], secs[2],
                    secs[3], secs[2] / secs[0], hidden_d2);
        (void)exposed_d2;
      } else {
        std::printf("%-5s %-15s %10s\n", kQueryNames[q], ConfigName(c),
                    "DNF");
      }
    }
  }
  w.EndArray();
  w.EndObject();

  std::ofstream out("BENCH_async.json");
  out << w.str() << "\n";
  std::printf("\nwrote BENCH_async.json\n\n");
}

}  // namespace

int main() {
  AblationTableAndJson();
  return 0;
}
