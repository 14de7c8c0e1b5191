#include "opt/optimizer.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/bits.h"
#include "common/logging.h"
#include "ops/hash_table.h"
#include "sim/spec.h"

namespace hape::opt {

using engine::LogicalOp;
using engine::PlanNode;
using engine::QueryPlan;
using engine::TerminalSpec;

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// A build whose estimated nominal table reaches this is "heavy": its GPU
/// probes run the partitioned/co-partitioned flavors (Fig. 9, §5).
constexpr uint64_t kHeavyBuildThresholdBytes = 256ull << 20;

/// Exhaustive ordering DP bound; pipelines with more probes fall back to
/// greedy ordering.
constexpr int kDpMaxJoins = 8;

/// Per-tuple processing weight of an op for the ordering DP. A probe
/// dereferences the hash table (typically a cache-missing random access,
/// worth on the order of a dozen simple ops) on top of evaluating its key;
/// a filter only evaluates its predicate. The asymmetry matters: hoisting
/// a mildly reducing probe above a cheap very-selective filter loses.
constexpr double kProbeMemoryOps = 12.0;

double OpWeight(const LogicalOp& op) {
  switch (op.kind) {
    case LogicalOp::Kind::kFilter:
      return static_cast<double>(op.expr->OpCount() + 1);
    case LogicalOp::Kind::kProbe:
      return static_cast<double>(op.expr->OpCount() + 4) + kProbeMemoryOps;
    case LogicalOp::Kind::kProject: {
      uint64_t ops = 1;
      for (const auto& e : op.exprs) ops += e->OpCount();
      return static_cast<double>(ops);
    }
  }
  return 1.0;
}

/// Bytes of scanned column `col` of `node`.
uint64_t ScannedValueBytes(const PlanNode& node, int col) {
  return storage::TypeSize(
      node.source_table->column(node.source_columns[col])->type());
}

/// Bytes of one build-payload value of `node` (8 for join-appended
/// columns, whose type the plan does not record).
uint64_t PayloadValueBytes(const PlanNode& node, int col) {
  return col < static_cast<int>(node.source_columns.size())
             ? ScannedValueBytes(node, col)
             : 8;
}

}  // namespace

// ---- CostModel --------------------------------------------------------------

double CostModel::PipelineSeconds(const sim::Topology& topo,
                                  const std::vector<int>& devices,
                                  uint64_t nominal_bytes,
                                  uint64_t nominal_ops,
                                  const engine::AsyncOptions& async,
                                  double device_share) {
  if (devices.empty()) return kInf;
  // CPU contributions scale with the share. CPUs are the engine's default
  // (and therefore contended) compute pool — under fair-share scheduling
  // every admitted query's probe work time-shares their cores, so a query
  // effectively streams at share x the socket bandwidth. GPUs stay
  // unscaled: they are explicit per-pipeline offload targets that sit
  // idle unless placement sends work to them, so contention pressure is
  // exactly what should make offloading break even earlier (the
  // heterogeneous pool as a pressure valve). x * 1.0 == x, so share 1.0 is
  // bit-exact with the uncontended model.
  const double cpu_scale =
      device_share > 0 && device_share < 1.0 ? device_share : 1.0;
  double bw = 0;        // aggregate streaming bytes/s
  double ops_rate = 0;  // aggregate simple ops/s
  double setup = 0;     // fixed cost of involving an offload device
  bool gpu = false;
  for (int d : devices) {
    const sim::Device& dev = topo.device(d);
    if (dev.type == sim::DeviceType::kCpu) {
      bw += sim::GbpsToBytes(dev.cpu.dram_gbps) * cpu_scale;
      ops_rate += dev.cpu.cores * dev.cpu.clock_ghz * 1e9 *
                  dev.cpu.ops_per_cycle * cpu_scale;
    } else {
      // Data is host-resident: a GPU ingests at most at the speed of the
      // interconnect it sits behind, and involving it at all costs a
      // kernel launch plus a link round-trip. The fixed part is what makes
      // tiny pipelines (dimension scans) cheaper on a CPU subset.
      gpu = true;
      bw += std::min(sim::GbpsToBytes(dev.gpu.dram_gbps),
                     sim::GbpsToBytes(sim::LinkSpec{}.bandwidth_gbps));
      ops_rate += dev.gpu.num_sms * dev.gpu.clock_ghz * 1e9 *
                  dev.gpu.warp_size;
      setup = std::max(setup, dev.gpu.kernel_launch_s +
                                  sim::LinkSpec{}.latency_s);
    }
  }
  const double s =
      setup + std::max(static_cast<double>(nominal_bytes) / bw,
                       static_cast<double>(nominal_ops) / ops_rate);
  // Async: prefetched staging hides the per-pipeline link round-trip the
  // sync model charges as setup; only the kernel launch stays exposed.
  if (!async.enabled() || !gpu || !std::isfinite(s)) return s;
  return s - sim::LinkSpec{}.latency_s;
}

// ---- op ordering ------------------------------------------------------------

std::vector<int> Optimizer::OrderOps(const std::vector<double>& factors,
                                     const std::vector<double>& weights,
                                     const std::vector<std::vector<int>>& deps,
                                     int num_probes) {
  const int n = static_cast<int>(factors.size());
  std::vector<int> identity(n);
  for (int i = 0; i < n; ++i) identity[i] = i;
  if (n < 2 || n > 63) return identity;  // >63 ops: leave as declared

  auto deps_satisfied = [&](int op, uint64_t applied) {
    for (int d : deps[op]) {
      if ((applied & (1ull << d)) == 0) return false;
    }
    return true;
  };

  if (num_probes > kDpMaxJoins || n > 16) {
    // Greedy: repeatedly apply the available op with the smallest output
    // factor (most reducing first); original order breaks ties.
    std::vector<int> order;
    order.reserve(n);
    uint64_t applied = 0;
    while (static_cast<int>(order.size()) < n) {
      int best = -1;
      for (int i = 0; i < n; ++i) {
        if ((applied & (1ull << i)) != 0 || !deps_satisfied(i, applied)) {
          continue;
        }
        if (best < 0 || factors[i] < factors[best]) best = i;
      }
      HAPE_CHECK(best >= 0) << "cyclic op dependencies";
      order.push_back(best);
      applied |= 1ull << best;
    }
    return order;
  }

  // Exact DP over op subsets, minimizing the weighted intermediate row
  // flow (each op charges weight * its input cardinality, in units of the
  // source). The product of factors is order-invariant, so per-subset
  // cardinality is well defined.
  const uint32_t full = (1u << n) - 1;
  std::vector<double> card(full + 1, 1.0);
  for (uint32_t s = 1; s <= full; ++s) {
    const int bit = std::countr_zero(s);
    card[s] = card[s & (s - 1)] * factors[bit];
  }
  std::vector<double> dp(full + 1, kInf);
  std::vector<int> last(full + 1, -1);
  dp[0] = 0;
  for (uint32_t s = 1; s <= full; ++s) {
    // Descending op index: on cost ties the largest index runs last, which
    // reconstructs to the original declaration order.
    for (int i = n - 1; i >= 0; --i) {
      if ((s & (1u << i)) == 0) continue;
      const uint32_t prev = s & ~(1u << i);
      if (!deps_satisfied(i, prev) || dp[prev] == kInf) continue;
      const double c = dp[prev] + weights[i] * card[prev];
      // Strict improvement only (with a relative margin): on cost ties the
      // first-seen, i.e. largest, index stays last.
      if (c < dp[s] * (1 - 1e-12) - 1e-15) {
        dp[s] = c;
        last[s] = i;
      }
    }
  }
  HAPE_CHECK(last[full] >= 0) << "cyclic op dependencies";
  std::vector<int> order(n);
  uint32_t s = full;
  for (int p = n - 1; p >= 0; --p) {
    order[p] = last[s];
    s &= ~(1u << order[p]);
  }
  return order;
}

Status Optimizer::ReorderNode(QueryPlan* plan, int node_idx,
                              const PlanEstimate& est,
                              std::vector<int>* order) {
  const PlanNode& node = plan->node(node_idx);
  const int n = static_cast<int>(node.ops.size());
  order->resize(n);
  for (int i = 0; i < n; ++i) (*order)[i] = i;
  if (n < 2) return Status::OK();

  if (node.terminal.kind == TerminalSpec::Kind::kCollect) {
    // A collect terminal materializes packets in declaration layout: a
    // reorder would silently permute the observable columns. Leave the
    // pipeline as declared.
    return Status::OK();
  }
  int num_probes = 0;
  for (const LogicalOp& op : node.ops) {
    if (op.kind == LogicalOp::Kind::kProject) {
      // Projection rewrites the packet layout wholesale; reordering across
      // it is not column-stable. Leave such pipelines as declared.
      return Status::OK();
    }
    if (op.kind == LogicalOp::Kind::kProbe) ++num_probes;
  }

  // Producer map: which op appends each column of the final layout.
  const int base = static_cast<int>(node.source_columns.size());
  int total = base;
  for (const LogicalOp& op : node.ops) total += plan->AppendedColumns(op);
  std::vector<int> producer(total, -1);
  {
    int off = base;
    for (int i = 0; i < n; ++i) {
      const int appended = plan->AppendedColumns(node.ops[i]);
      for (int k = 0; k < appended; ++k) producer[off + k] = i;
      off += appended;
    }
  }
  std::vector<std::vector<int>> deps(n);
  std::vector<double> factors(n, 1.0);
  std::vector<double> weights(n, 1.0);
  for (int i = 0; i < n; ++i) {
    factors[i] = est.nodes[node_idx].ops[i].factor;
    weights[i] = OpWeight(node.ops[i]);
    for (int c : node.ops[i].expr->ReferencedColumns()) {
      if (c < 0 || c >= total) {
        return Status::InvalidArgument(
            "pipeline '" + node.name + "' references column $" +
            std::to_string(c) + " outside its layout");
      }
      const int p = producer[c];
      if (p >= 0 && p != i &&
          std::find(deps[i].begin(), deps[i].end(), p) == deps[i].end()) {
        deps[i].push_back(p);
      }
    }
  }

  *order = OrderOps(factors, weights, deps, num_probes);
  bool is_identity = true;
  for (int i = 0; i < n; ++i) is_identity &= (*order)[i] == i;
  if (!is_identity) ApplyOrder(plan, node_idx, *order);
  return Status::OK();
}

void Optimizer::ApplyOrder(QueryPlan* plan, int node_idx,
                           const std::vector<int>& order) {
  PlanNode& node = plan->mutable_node(node_idx);
  const int n = static_cast<int>(node.ops.size());
  const int base = static_cast<int>(node.source_columns.size());

  // Column remapping: probe payloads move to their position in the new
  // probe order; base columns stay put.
  std::vector<int> appended(n);
  int total = base;
  std::vector<int> old_start(n, 0);
  for (int i = 0; i < n; ++i) {
    appended[i] = plan->AppendedColumns(node.ops[i]);
    old_start[i] = total;
    total += appended[i];
  }
  std::vector<int> old_to_new(total);
  for (int c = 0; c < base; ++c) old_to_new[c] = c;
  {
    int off = base;
    for (int i : order) {
      for (int k = 0; k < appended[i]; ++k) {
        old_to_new[old_start[i] + k] = off + k;
      }
      off += appended[i];
    }
  }
  const auto remap = [&old_to_new](expr::ExprPtr* e) {
    if (*e != nullptr) *e = expr::Expr::RemapColumns(*e, old_to_new);
  };

  // Rewrite every expression of the op chain and the terminal against the
  // new layout, and permute the chain.
  for (LogicalOp& op : node.ops) {
    remap(&op.expr);
    for (expr::ExprPtr& e : op.exprs) remap(&e);
  }
  std::vector<LogicalOp> reordered;
  reordered.reserve(n);
  for (int i : order) reordered.push_back(std::move(node.ops[i]));
  node.ops = std::move(reordered);

  TerminalSpec& t = node.terminal;
  remap(&t.key);
  for (int& c : t.payload) {
    HAPE_CHECK(c >= 0 && c < total);
    c = old_to_new[c];
  }
  for (engine::AggDef& a : t.aggs) remap(&a.arg);
}

double Optimizer::EstimateSeconds(const QueryPlan& plan, int node_idx,
                                  const engine::ExecutionPolicy& policy,
                                  const PlanEstimate& est) const {
  const PlanNode& node = plan.node(node_idx);
  const std::vector<int>& base_set =
      node.is_build() ? policy.build_devices : policy.devices;

  // Nominal input footprint (scanned rows x scanned row width) and a
  // coarse per-tuple op count.
  uint64_t row_bytes = 0;
  for (int c = 0; c < static_cast<int>(node.source_columns.size()); ++c) {
    row_bytes += ScannedValueBytes(node, c);
  }
  const uint64_t bytes =
      static_cast<uint64_t>(node.source_rows() * row_bytes * node.scale);
  double ops = est.nodes[node_idx].source_rows;
  for (size_t i = 0; i < node.ops.size(); ++i) {
    const LogicalOp& op = node.ops[i];
    const uint64_t per_tuple =
        (op.expr != nullptr ? op.expr->OpCount() : 1) + 2;
    ops += est.nodes[node_idx].ops[i].in_rows * static_cast<double>(per_tuple);
  }
  const uint64_t nominal_ops = static_cast<uint64_t>(ops * node.scale);

  // Under fair-share scheduling the query holds only a fraction of every
  // device, which the estimate prices in.
  return CostModel::PipelineSeconds(*topo_, base_set, bytes, nominal_ops,
                                    policy.async,
                                    policy.expected_device_share);
}

// ---- the pass ---------------------------------------------------------------

Result<OptimizeResult> Optimizer::OptimizePlan(
    QueryPlan* plan, const engine::ExecutionPolicy& policy) {
  OptimizeResult result;
  result.op_order.resize(plan->num_pipelines());
  if (Status st = plan->Validate(topo_); !st.ok()) return st;
  if (Status st = policy.Validate(*topo_); !st.ok()) return st;

  auto pre = estimator_.EstimatePlan(*plan);
  if (!pre.ok()) return pre.status();

  auto topo_order = plan->TopologicalOrder();
  HAPE_CHECK(topo_order.ok());
  for (int idx : topo_order.value()) {
    HAPE_RETURN_NOT_OK(
        ReorderNode(plan, idx, pre.value(), &result.op_order[idx]));
  }

  // Estimates over the final op order (per-op input cardinalities shift
  // when ops move, the end-of-pipeline totals do not).
  auto post = estimator_.EstimatePlan(*plan);
  if (!post.ok()) return post.status();
  const PlanEstimate& est = post.value();

  for (int idx : topo_order.value()) {
    PlanNode& node = plan->mutable_node(idx);
    node.est_out_rows = static_cast<uint64_t>(est.nodes[idx].out_rows);
    node.est_nominal_out_rows = static_cast<uint64_t>(
        est.nodes[idx].out_rows * node.scale);

    if (node.is_build()) {
      TerminalSpec& t = node.terminal;
      if (t.declared_rows == 0) {
        // Same sizing rule HashBuild applies to declared cardinalities,
        // fed by the estimate instead. Capped at the source, as HashBuild's
        // default is: PlanJson::Load rejects more buckets than that, and
        // the estimate passes it only when a probe in this pipeline
        // multiplies rows.
        t.ht_buckets = NextPow2(
            static_cast<uint64_t>(std::min(
                est.nodes[idx].out_rows,
                static_cast<double>(node.source_rows()))) +
            16);
      }
      uint64_t value_bytes = 0;
      for (int c : t.payload) value_bytes += PayloadValueBytes(node, c);
      const uint64_t table_bytes = ops::ChainedHashTable::NominalBytes(
          node.est_nominal_out_rows, value_bytes);
      t.heavy = table_bytes >= kHeavyBuildThresholdBytes;
    }

    node.est_cost_seconds = EstimateSeconds(*plan, idx, policy, est);
  }
  return result;
}

}  // namespace hape::opt
