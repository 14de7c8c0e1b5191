// Optimizer ablation: unordered/unannotated plans decided by the
// cost-based optimizer vs the legacy hand-declared plans, across the
// Proteus configurations of Fig. 8 at nominal SF 100. Expected shape: the
// optimizer reproduces the hand-declared cost on every query/configuration
// (ratio 1.00) while freeing the plans of BuildOptions annotations.
//
// Besides the stdout table, results are written to BENCH_optimizer.json so
// future changes can track optimizer-vs-manual cost ratios mechanically.

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
constexpr const char* kQueryNames[] = {"Q1", "Q5", "Q6", "Q9*"};
constexpr QueryFn kQueries[] = {RunQ1, RunQ5, RunQ6, RunQ9};

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

QueryResult RunMode(int q, EngineConfig config, PlanMode mode) {
  TpchContext* ctx = Context();
  ctx->topo->Reset();
  ctx->plan_mode = mode;
  return kQueries[q](ctx, config);
}

void AblationTableAndJson() {
  std::printf(
      "== Optimizer ablation: hand-declared vs optimized plans, SF100 "
      "(nominal), time (s) ==\n");
  std::printf("%-5s %-15s %12s %12s %8s\n", "", "", "hand", "optimized",
              "ratio");

  JsonWriter w;
  w.BeginObject();
  w.Key("bench");
  w.String("optimizer_ablation");
  w.Key("sf_nominal");
  w.Double(Context()->sf_nominal);
  w.Key("results");
  w.BeginArray();
  for (int q = 0; q < 4; ++q) {
    for (auto c : kConfigs) {
      const QueryResult hand = RunMode(q, c, PlanMode::kHandDeclared);
      const QueryResult opt = RunMode(q, c, PlanMode::kOptimized);
      w.BeginObject();
      w.Key("query");
      w.String(kQueryNames[q]);
      w.Key("config");
      w.String(ConfigName(c));
      w.Key("hand_dnf");
      w.Bool(hand.DidNotFinish());
      w.Key("optimized_dnf");
      w.Bool(opt.DidNotFinish());
      if (!hand.DidNotFinish()) {
        w.Key("hand_seconds");
        w.Double(hand.seconds);
      }
      if (!opt.DidNotFinish()) {
        w.Key("optimized_seconds");
        w.Double(opt.seconds);
      }
      if (!hand.DidNotFinish() && !opt.DidNotFinish()) {
        w.Key("optimized_over_hand");
        w.Double(opt.seconds / hand.seconds);
        std::printf("%-5s %-15s %12.3f %12.3f %8.3f\n", kQueryNames[q],
                    ConfigName(c), hand.seconds, opt.seconds,
                    opt.seconds / hand.seconds);
      } else {
        std::printf("%-5s %-15s %12s %12s %8s\n", kQueryNames[q],
                    ConfigName(c), hand.DidNotFinish() ? "DNF" : "ok",
                    opt.DidNotFinish() ? "DNF" : "ok", "-");
      }
      w.EndObject();
    }
  }
  w.EndArray();
  w.EndObject();

  std::ofstream out("BENCH_optimizer.json");
  out << w.str() << "\n";
  std::printf("\nwrote BENCH_optimizer.json\n\n");
}

}  // namespace

int main() {
  AblationTableAndJson();
  return 0;
}
