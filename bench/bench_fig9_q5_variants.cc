// Reproduces Fig. 9: TPC-H Q5 on the GPU-only and hybrid configurations
// with the heavy GPU-side joins executed either as the hardware-conscious
// partitioned (radix) join or as the hardware-oblivious non-partitioned
// join. Expected shape: the partitioned join wins in both configurations
// (the paper reports 1.44x for GPU-only and 1.23x for hybrid).

#include <cstdio>

#include "queries/tpch_queries.h"

namespace {

using namespace hape;           // NOLINT
using namespace hape::queries;  // NOLINT

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

double RunQ5Variant(EngineConfig config, bool partitioned) {
  TpchContext* ctx = Context();
  ctx->partitioned_gpu_join = partitioned;
  ctx->topo->Reset();
  const QueryResult r = RunQ5(ctx, config);
  HAPE_CHECK(!r.DidNotFinish());
  return r.seconds;
}

void PrintPaperTable() {
  std::printf(
      "== Fig 9: Q5, partitioned vs non-partitioned GPU-side join (s) ==\n");
  std::printf("%-12s %18s %18s %10s\n", "config", "non-partitioned",
              "partitioned", "speedup");
  for (auto cfg :
       {EngineConfig::kProteusGpu, EngineConfig::kProteusHybrid}) {
    const double np = RunQ5Variant(cfg, false);
    const double pt = RunQ5Variant(cfg, true);
    std::printf("%-12s %18.2f %18.2f %9.2fx\n", ConfigName(cfg), np, pt,
                np / pt);
  }
  std::printf("\n");
}

}  // namespace

int main() {
  PrintPaperTable();
  return 0;
}
