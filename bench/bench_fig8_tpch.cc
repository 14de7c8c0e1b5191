// Reproduces Fig. 8: end-to-end TPC-H (Q1, Q5, Q6, Q9*) at nominal SF 100
// with CPU-resident data, across the five system configurations: DBMS C,
// Proteus CPUs, Proteus Hybrid, Proteus GPUs, DBMS G. Expected shape:
// CPU-only beats GPU-only on the scan-bound Q1/Q6 (>2.65x), GPU-only wins
// the join-heavy Q5 (~1.4x), hybrid is best everywhere, Q9* runs on GPUs
// only through the hybrid co-processing join (2x over CPU-only), and
// DBMS G finishes only Q6.

#include <cstdio>

#include "queries/tpch_queries.h"

namespace {

using namespace hape;           // NOLINT
using namespace hape::queries;  // NOLINT

constexpr EngineConfig kConfigs[] = {
    EngineConfig::kDbmsC, EngineConfig::kProteusCpu,
    EngineConfig::kProteusHybrid, EngineConfig::kProteusGpu,
    EngineConfig::kDbmsG};
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

void PrintPaperTable() {
  TpchContext* ctx = Context();
  std::printf(
      "== Fig 8: TPC-H SF100 (nominal), CPU-resident data, time (s); DNF = "
      "did not finish ==\n");
  std::printf("%-5s", "");
  for (auto c : kConfigs) std::printf(" %15s", ConfigName(c));
  std::printf("\n");
  for (int q = 0; q < 4; ++q) {
    std::printf("%-5s", kQueryNames[q]);
    for (auto c : kConfigs) {
      ctx->topo->Reset();
      const QueryResult r = kQueries[q](ctx, c);
      if (r.DidNotFinish()) {
        std::printf(" %15s", "DNF");
      } else {
        std::printf(" %15.2f", r.seconds);
      }
    }
    std::printf("\n");
  }
  std::printf("\n");
}

}  // namespace

int main() {
  PrintPaperTable();
  return 0;
}
