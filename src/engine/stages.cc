#include "engine/stages.h"

#include <algorithm>

#include "codegen/kernels.h"
#include "common/logging.h"
#include "expr/eval.h"
#include "memory/gather.h"

namespace hape::engine {

Stage ScanStage() {
  return [](memory::Batch* b, sim::TrafficStats* t,
            const codegen::Backend& backend) {
    (void)backend;
    t->dram_seq_read_bytes += b->byte_size();
    t->tuple_ops += b->rows;  // loop + null-free decode
  };
}

Stage FilterStage(expr::ExprPtr pred) {
  return [pred](memory::Batch* b, sim::TrafficStats* t,
                const codegen::Backend& backend) {
    (void)backend;
    t->tuple_ops += b->rows * (pred->OpCount() + 1);
    auto sel = expr::Eval::SelectedRows(*pred, *b);
    if (sel.size() != b->rows) memory::SelectRows(b, std::move(sel));
  };
}

Stage ProjectStage(std::vector<expr::ExprPtr> exprs) {
  return [exprs = std::move(exprs)](memory::Batch* b, sim::TrafficStats* t,
                 const codegen::Backend& backend) {
    (void)backend;
    uint64_t ops = 0;
    std::vector<storage::ColumnPtr> out;
    out.reserve(exprs.size());
    for (const auto& e : exprs) {
      ops += e->OpCount();
      out.push_back(std::make_shared<storage::Column>(
          expr::Eval::Doubles(*e, *b)));
    }
    t->tuple_ops += b->rows * (ops + 1);
    b->columns = std::move(out);
    b->selections.clear();
  };
}

Stage ProbeStage(JoinStatePtr state, expr::ExprPtr key_expr) {
  return [state, key_expr](memory::Batch* b, sim::TrafficStats* t,
                           const codegen::Backend& backend) {
    std::vector<uint32_t> probe_rows;
    std::vector<uint32_t> build_rows;
    probe_rows.reserve(b->rows);
    build_rows.reserve(b->rows);
    uint64_t visits = 0;
    const std::vector<int64_t> keys = expr::Eval::Ints(*key_expr, *b);
    if (codegen::VectorizedPlane()) {
      // Bulk probe: bucket resolution + software prefetch, selection-vector
      // output. Pair order and visit count are bit-identical to the scalar
      // chain walk below.
      std::vector<uint64_t> hashes(b->rows);
      codegen::kernels::HashKeys(keys.data(), b->rows, hashes.data());
      visits = codegen::kernels::ProbeBulk(state->ht, keys.data(),
                                           hashes.data(), b->rows,
                                           &probe_rows, &build_rows);
    } else {
      for (size_t i = 0; i < b->rows; ++i) {
        visits += state->ht.ForEachMatch(keys[i], [&](uint32_t br) {
          probe_rows.push_back(static_cast<uint32_t>(i));
          build_rows.push_back(br);
        });
      }
    }

    // ---- traffic: the paper's §4.1 taxonomy of probe costs ----
    t->tuple_ops += b->rows * (key_expr->OpCount() + 4) + visits;
    const uint64_t table_bytes = state->NominalBytes();
    if (backend.device_type() == sim::DeviceType::kGpu &&
        state->hardware_conscious) {
      // Partitioned (radix) probe: one extra partitioning pass over the
      // packet (read+write at run-length coalescing), then scratchpad-
      // resident build/probe — no random device-memory traffic.
      const uint64_t key_bytes = b->rows * 8;
      t->dram_seq_read_bytes += key_bytes;
      t->dram_seq_write_bytes += key_bytes;
      t->scratchpad_accesses += (b->rows + visits) * 3 * 2;
    } else if (backend.device_type() == sim::DeviceType::kGpu) {
      // Non-partitioned probe: random head + chain-node accesses in device
      // memory.
      t->dram_rand_accesses += b->rows + visits;
    } else {
      // CPU probe: random DRAM accesses unless the table is cache-resident.
      const sim::CpuSpec cpu;  // socket-level L3 decides residency
      if (table_bytes > cpu.l3_bytes / 2) {
        t->dram_rand_accesses += b->rows + visits;
      } else {
        t->tuple_ops += (b->rows + visits) * 2;
      }
    }

    // ---- output: the packet narrowed to the matched probe rows, unless
    // every key matched exactly once, in order; then the build payload,
    // read through one shared selection of the matched build rows ----
    bool every_row_once = probe_rows.size() == b->rows;
    for (size_t i = 0; every_row_once && i < probe_rows.size(); ++i) {
      every_row_once = probe_rows[i] == i;
    }
    if (!every_row_once) memory::SelectRows(b, std::move(probe_rows));
    b->selections.resize(b->columns.size());
    const auto payload_rows =
        std::make_shared<const memory::Selection>(std::move(build_rows));
    for (const auto& c : state->payload.columns) {
      b->columns.push_back(c);
      b->selections.push_back(payload_rows);
    }
  };
}

}  // namespace hape::engine
