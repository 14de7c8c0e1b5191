#include "queries/tpch_queries.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <utility>

#include "common/logging.h"
#include "ops/hash_table.h"
#include "storage/tpch.h"

namespace hape::queries {

using engine::AggDef;
using engine::AggHandle;
using engine::AggOp;
using engine::BuildOptions;
using engine::Engine;
using engine::ExecutionPolicy;
using engine::PipelineBuilder;
using engine::PlanBuilder;
using engine::QueryPlan;
using expr::Expr;
using storage::TablePtr;

namespace {

constexpr int32_t kQ1Cutoff = storage::tpch::Date(1998, 9, 2);
constexpr int32_t kY1994Lo = storage::tpch::Date(1994, 1, 1);
constexpr int32_t kY1995Lo = storage::tpch::Date(1995, 1, 1);
/// Composite-key multiplier for (partkey, suppkey); larger than any suppkey.
constexpr int64_t kPsKeyMul = 100000000;

/// Scan pipeline over `cols` of `table`: packets hold `nominal_packet_rows`
/// paper-scale tuples, i.e. that many divided by the sampling ratio in
/// actual rows.
PipelineBuilder TpchScan(PlanBuilder* b, const TpchContext& ctx,
                         const TablePtr& table,
                         const std::vector<std::string>& cols) {
  const size_t chunk_actual = std::max<size_t>(
      256, static_cast<size_t>(ctx.nominal_packet_rows / ctx.scale()));
  auto pipe = b->Scan(table, cols, chunk_actual);
  pipe.Scale(ctx.scale());
  return pipe;
}

uint64_t NominalRows(const TpchContext& ctx, const TablePtr& t) {
  return static_cast<uint64_t>(t->num_rows() * ctx.scale());
}

/// Planner estimate of a hash table built over `rows` nominal tuples with
/// one 8-byte payload column (the shape of every build in these plans).
uint64_t HashTableBytes(uint64_t rows) {
  return ops::ChainedHashTable::NominalBytes(rows, 8);
}

/// Execute the finished plan through the Engine facade under the
/// configuration's policy and package the result. In kOptimized mode the
/// cost-based optimizer pass decides join order, build sizing and heavy
/// marks before the plan runs.
QueryResult RunPlan(TpchContext* ctx, EngineConfig config, QueryPlan plan,
                    const AggHandle& agg) {
  QueryResult r;
  ExecutionPolicy policy = ExecutionPolicy::ForConfig(*ctx->topo, config);
  policy.partitioned_gpu_join = ctx->partitioned_gpu_join;
  policy.async = ctx->async;
  Engine& eng = EngineFor(ctx);
  if (ctx->plan_mode == PlanMode::kOptimized) {
    if (auto opt = eng.Optimize(&plan, policy); !opt.ok()) {
      r.status = opt.status();
      return r;
    }
  }
  auto run = eng.Run(&plan, policy);
  if (!run.ok()) {
    r.status = run.status();
    return r;
  }
  r.exec = std::move(run.value());
  r.seconds = r.exec.finish;
  r.groups = agg.result();
  return r;
}

/// RunQx = BuildQxPlan + RunPlan.
QueryResult RunBuilt(TpchContext* ctx, EngineConfig config,
                     Result<BuiltQuery> built) {
  if (!built.ok()) {
    QueryResult r;
    r.status = built.status();
    return r;
  }
  return RunPlan(ctx, config, std::move(built.value().plan),
                 built.value().agg);
}

}  // namespace

engine::Engine& EngineFor(TpchContext* ctx) {
  if (ctx->engine == nullptr || ctx->engine->topology() != ctx->topo) {
    ctx->engine = std::make_shared<Engine>(ctx->topo);
  }
  return *ctx->engine;
}

Status PrepareTpch(TpchContext* ctx, uint64_t seed) {
  storage::tpch::TpchGenerator gen(ctx->sf_actual, seed, /*home_node=*/0);
  return gen.GenerateAll(&ctx->catalog);
}

Result<TpchSpec> ReadTpchSpec(const JsonValue& tpch) {
  if (!tpch.is_object()) {
    return Status::InvalidArgument("'tpch' must be an object");
  }
  auto number = [&tpch](const char* key) {
    const JsonValue* v = tpch.Find(key);
    return v != nullptr && v->kind() == JsonValue::Kind::kNumber ? v->number()
                                                                 : NAN;
  };
  TpchSpec spec;
  spec.sf_actual = number("sf_actual");
  spec.sf_nominal = number("sf_nominal");
  for (const double sf : {spec.sf_actual, spec.sf_nominal}) {
    if (!(sf > 0 && std::isfinite(sf))) {
      return Status::InvalidArgument(
          "'tpch' needs finite 'sf_actual' and 'sf_nominal' > 0");
    }
  }
  if (spec.sf_actual > kMaxSfActual) {
    return Status::InvalidArgument(
        "'tpch.sf_actual' must be at most 1: it is the scale the driver "
        "generates in memory ('sf_nominal' sets the costed scale)");
  }
  if (tpch.Has("seed")) {
    // Bounded before the cast: a larger or fractional seed is an author
    // error, and converting it would be undefined behaviour.
    const double seed = number("seed");
    if (!(seed >= 0 && seed <= 9007199254740992.0) ||
        seed != std::floor(seed)) {
      return Status::InvalidArgument(
          "'tpch.seed' must be an integer in [0, 2^53]");
    }
    spec.seed = static_cast<uint64_t>(seed);
  }
  return spec;
}

Status ReadManifestHeader(const JsonValue& doc) {
  if (!doc.is_object()) {
    return Status::InvalidArgument("manifest must be a JSON object");
  }
  if (const JsonValue* f = doc.Find("format");
      f == nullptr || f->kind() != JsonValue::Kind::kString ||
      f->str() != kManifestFormat) {
    return Status::InvalidArgument(std::string("manifest format is not '") +
                                   kManifestFormat + "'");
  }
  if (const JsonValue* ver = doc.Find("version");
      ver != nullptr && (ver->kind() != JsonValue::Kind::kNumber ||
                         ver->number() != kManifestVersion)) {
    return Status::InvalidArgument(
        "manifest schema version drifts from the supported version " +
        std::to_string(kManifestVersion));
  }
  return Status::OK();
}

Result<ManifestQuery> ReadManifestQuery(const JsonValue& entry) {
  if (!entry.is_object()) {
    return Status::InvalidArgument("query entry is not an object");
  }
  ManifestQuery q;
  if (const JsonValue* label = entry.Find("label");
      label != nullptr && label->kind() == JsonValue::Kind::kString) {
    q.submit.label = label->str();
  }
  // Each number is checked alone on default options, whose other fields
  // pass every rule, so a fault names its own field.
  for (const auto& [key, field] :
       {std::pair{"weight", &engine::SubmitOptions::weight},
        std::pair{"deadline_s", &engine::SubmitOptions::deadline_s}}) {
    const JsonValue* v = entry.Find(key);
    if (v == nullptr) continue;
    if (v->kind() != JsonValue::Kind::kNumber) {
      // Not "'" + std::string(key): GCC 12's -Wrestrict misfires on it.
      std::string fault = "'";
      fault.append(key).append("' must be a number");
      q.faults.push_back(std::move(fault));
      continue;
    }
    engine::SubmitOptions alone;
    alone.*field = v->number();
    if (const std::vector<std::string> f = alone.Faults(); !f.empty()) {
      q.faults.push_back(f.front());
    } else {
      q.submit.*field = v->number();
    }
  }
  q.plan = entry.Find("plan");
  return q;
}

// ---- Q1: scan-heavy multi-aggregate ----------------------------------------

Result<BuiltQuery> BuildQ1Plan(TpchContext* ctx) {
  auto lineitem = ctx->catalog.Get("lineitem");
  if (!lineitem.ok()) return lineitem.status();

  PlanBuilder b("q1");
  // Columns: 0 flag, 1 status, 2 qty, 3 extprice, 4 discount, 5 tax,
  // 6 shipdate.
  auto pipe = TpchScan(&b, *ctx, lineitem.value(),
                       {"l_returnflag", "l_linestatus", "l_quantity",
                        "l_extendedprice", "l_discount", "l_tax",
                        "l_shipdate"});
  pipe.Named("q1");
  pipe.Filter(Expr::Le(Expr::Col(6), Expr::Int(kQ1Cutoff)));
  auto disc_price = Expr::Mul(Expr::Col(3),
                              Expr::Sub(Expr::Double(1.0), Expr::Col(4)));
  auto charge = Expr::Mul(disc_price,
                          Expr::Add(Expr::Double(1.0), Expr::Col(5)));
  AggHandle agg = pipe.Aggregate(
      Expr::Add(Expr::Mul(Expr::Col(0), Expr::Int(2)), Expr::Col(1)),
      {AggDef{AggOp::kSum, Expr::Col(2)},      // sum_qty
       AggDef{AggOp::kSum, Expr::Col(3)},      // sum_base_price
       AggDef{AggOp::kSum, disc_price},        // sum_disc_price
       AggDef{AggOp::kSum, charge},            // sum_charge
       AggDef{AggOp::kSum, Expr::Col(4)},      // sum_discount (for avg)
       AggDef{AggOp::kCount, nullptr}});       // count(*)
  // Q1's selection keeps ~98% of lineitem at ~44 B/tuple: an
  // operator-at-a-time execution must materialize a ~26 GB intermediate in
  // device memory — Fig. 8's DBMS G DNF.
  b.DeclareMaterializedIntermediate(
      static_cast<uint64_t>(NominalRows(*ctx, lineitem.value()) * 0.98) * 44,
      "Q1 selection output");
  return BuiltQuery(std::move(b).Build(), agg);
}

QueryResult RunQ1(TpchContext* ctx, EngineConfig config) {
  return RunBuilt(ctx, config, BuildQ1Plan(ctx));
}

// ---- Q6: selective scan + single aggregate ----------------------------------

Result<BuiltQuery> BuildQ6Plan(TpchContext* ctx) {
  auto lineitem = ctx->catalog.Get("lineitem");
  if (!lineitem.ok()) return lineitem.status();

  PlanBuilder b("q6");
  // Columns: 0 shipdate, 1 discount, 2 quantity, 3 extendedprice.
  auto pipe = TpchScan(&b, *ctx, lineitem.value(),
                       {"l_shipdate", "l_discount", "l_quantity",
                        "l_extendedprice"});
  pipe.Named("q6");
  auto pred = Expr::And(
      Expr::And(Expr::Ge(Expr::Col(0), Expr::Int(kY1994Lo)),
                Expr::Lt(Expr::Col(0), Expr::Int(kY1995Lo))),
      Expr::And(Expr::Between(Expr::Col(1), Expr::Double(0.0499),
                              Expr::Double(0.0701)),
                Expr::Lt(Expr::Col(2), Expr::Double(24.0))));
  pipe.Filter(pred);
  AggHandle agg = pipe.Aggregate(
      nullptr, {AggDef{AggOp::kSum, Expr::Mul(Expr::Col(3), Expr::Col(1))}});
  // Q6's selection keeps ~2% of lineitem — the one intermediate DBMS G can
  // hold, which is why it finishes only this query.
  b.DeclareMaterializedIntermediate(
      static_cast<uint64_t>(NominalRows(*ctx, lineitem.value()) * 0.02) * 32,
      "Q6 selection output");
  return BuiltQuery(std::move(b).Build(), agg);
}

QueryResult RunQ6(TpchContext* ctx, EngineConfig config) {
  return RunBuilt(ctx, config, BuildQ6Plan(ctx));
}

// ---- Q3: shipping-priority, two FK joins with reducing filters --------------

Result<BuiltQuery> BuildQ3Plan(TpchContext* ctx) {
  auto lineitem = ctx->catalog.Get("lineitem");
  auto orders = ctx->catalog.Get("orders");
  auto customer = ctx->catalog.Get("customer");
  for (const auto* t : {&lineitem, &orders, &customer}) {
    if (!t->ok()) return t->status();
  }
  constexpr int32_t kQ3Date = storage::tpch::Date(1995, 3, 15);

  PlanBuilder b("q3");
  // Build side 1: customers of the BUILDING segment (custkey only; the
  // probe uses it as a semi-join, carrying the segment code as payload).
  auto cust = TpchScan(&b, *ctx, customer.value(),
                       {"c_custkey", "c_mktsegment"})
                  .Filter(Expr::Eq(Expr::Col(1),
                                   Expr::Int(storage::tpch::kSegBuilding)))
                  .HashBuild(Expr::Col(0), {1});
  // Build side 2: orders before the cutoff, semi-joined to the BUILDING
  // customers (a build downstream of a probe: a multi-level join DAG), key
  // orderkey carrying o_orderdate.
  auto ords =
      TpchScan(&b, *ctx, orders.value(),
               {"o_orderkey", "o_custkey", "o_orderdate"})
          .Filter(Expr::Lt(Expr::Col(2), Expr::Int(kQ3Date)))
          .Probe(cust, Expr::Col(1))  // +3 c_mktsegment
          .HashBuild(Expr::Col(0), {2});

  // Probe pipeline over lineitem shipped after the cutoff.
  // Columns: 0 l_orderkey, 1 l_extendedprice, 2 l_discount, 3 l_shipdate.
  auto probe = TpchScan(&b, *ctx, lineitem.value(),
                        {"l_orderkey", "l_extendedprice", "l_discount",
                         "l_shipdate"});
  probe.Named("q3-probe");
  probe.Probe(ords, Expr::Col(0))  // +4 o_orderdate
      .Filter(Expr::Gt(Expr::Col(3), Expr::Int(kQ3Date)));
  // Group by l_orderkey (it determines o_orderdate and o_shippriority —
  // the latter is constant 0 in dbgen); carry the orderdate as an
  // aggregate so the result exposes all Q3 output columns.
  AggHandle agg = probe.Aggregate(
      Expr::Col(0),
      {AggDef{AggOp::kSum,
              Expr::Mul(Expr::Col(1),
                        Expr::Sub(Expr::Double(1.0), Expr::Col(2)))},
       AggDef{AggOp::kMax, Expr::Col(4)}});
  // Both joins keep ~30% x 20% of lineitem; operator-at-a-time
  // materializes the date-filtered scan output in device memory.
  b.DeclareMaterializedIntermediate(
      static_cast<uint64_t>(NominalRows(*ctx, lineitem.value()) * 0.54) * 40,
      "Q3 selection output");
  return BuiltQuery(std::move(b).Build(), agg);
}

QueryResult RunQ3(TpchContext* ctx, EngineConfig config) {
  return RunBuilt(ctx, config, BuildQ3Plan(ctx));
}

// ---- Q5: join-heavy, group by nation ----------------------------------------

Result<BuiltQuery> BuildQ5Plan(TpchContext* ctx) {
  auto lineitem = ctx->catalog.Get("lineitem");
  auto orders = ctx->catalog.Get("orders");
  auto customer = ctx->catalog.Get("customer");
  auto supplier = ctx->catalog.Get("supplier");
  auto nation = ctx->catalog.Get("nation");
  for (const auto* t : {&lineitem, &orders, &customer, &supplier, &nation}) {
    if (!t->ok()) return t->status();
  }

  PlanBuilder b("q5");
  const bool hand = ctx->plan_mode == PlanMode::kHandDeclared;

  // Build side 1: nations of region ASIA (regionkey dictionary-folded).
  auto asia =
      TpchScan(&b, *ctx, nation.value(),
               {"n_nationkey", "n_regionkey", "n_name"})
          .Filter(Expr::Eq(Expr::Col(1),
                           Expr::Int(storage::tpch::kRegionAsia)))
          .HashBuild(Expr::Col(0), {2},
                     hand ? BuildOptions{/*expected_rows=*/static_cast<
                                             uint64_t>(
                                             nation.value()->num_rows() * 0.3),
                                         /*heavy=*/false}
                          : BuildOptions{});
  // Build side 2: customer (custkey -> nationkey). ~15M build tuples at
  // SF 100 (hand plans mark it heavy; the optimizer derives that).
  auto cust = TpchScan(&b, *ctx, customer.value(),
                       {"c_custkey", "c_nationkey"})
                  .HashBuild(Expr::Col(0), {1},
                             hand ? BuildOptions{/*expected_rows=*/
                                                 customer.value()->num_rows(),
                                                 /*heavy=*/true}
                                  : BuildOptions{});
  // Build side 3: orders restricted to 1994 (orderkey -> custkey).
  auto ords =
      TpchScan(&b, *ctx, orders.value(),
               {"o_orderkey", "o_custkey", "o_orderdate"})
          .Filter(Expr::And(Expr::Ge(Expr::Col(2), Expr::Int(kY1994Lo)),
                            Expr::Lt(Expr::Col(2), Expr::Int(kY1995Lo))))
          .HashBuild(Expr::Col(0), {1},
                     hand ? BuildOptions{/*expected_rows=*/static_cast<
                                             uint64_t>(
                                             orders.value()->num_rows() * 0.2),
                                         /*heavy=*/true}
                          : BuildOptions{});
  // Build side 4: supplier (suppkey -> nationkey).
  auto supp = TpchScan(&b, *ctx, supplier.value(),
                       {"s_suppkey", "s_nationkey"})
                  .HashBuild(Expr::Col(0), {1});

  // Probe pipeline over lineitem.
  // Columns: 0 l_orderkey, 1 l_suppkey, 2 l_extendedprice, 3 l_discount.
  auto probe = TpchScan(&b, *ctx, lineitem.value(),
                        {"l_orderkey", "l_suppkey", "l_extendedprice",
                         "l_discount"});
  probe.Named("q5-probe");
  if (hand) {
    // Hand-tuned probe chain: the selective orders join first, the
    // nation-equality filter as soon as both sides are bound, the tiny
    // ASIA semi-join last.
    probe.Probe(ords, Expr::Col(0))   // +4 o_custkey
        .Probe(cust, Expr::Col(4))    // +5 c_nationkey
        .Probe(supp, Expr::Col(1))    // +6 s_nationkey
        .Filter(Expr::Eq(Expr::Col(5), Expr::Col(6)))
        .Probe(asia, Expr::Col(6));   // +7 n_name
  } else {
    // Unordered declaration: joins in an arbitrary (deliberately poor)
    // order, the reducing filter last. Engine::Optimize re-derives the
    // efficient sequence from cardinality estimates.
    probe.Probe(supp, Expr::Col(1))   // +4 s_nationkey
        .Probe(ords, Expr::Col(0))    // +5 o_custkey
        .Probe(cust, Expr::Col(5))    // +6 c_nationkey
        .Probe(asia, Expr::Col(4))    // +7 n_name
        .Filter(Expr::Eq(Expr::Col(6), Expr::Col(4)));
  }
  // Either chain ends with n_name at column 7 and the lineitem price/
  // discount columns untouched at 2/3.
  AggHandle agg = probe.Aggregate(
      Expr::Col(7),
      {AggDef{AggOp::kSum,
              Expr::Mul(Expr::Col(2),
                        Expr::Sub(Expr::Double(1.0), Expr::Col(3)))}});
  // Snowflake join DAG with CPU-resident inputs: operator-at-a-time
  // execution materializes every join's matches (~9 GiB) in device memory.
  b.DeclareMaterializedIntermediate(
      static_cast<uint64_t>(NominalRows(*ctx, lineitem.value()) * 0.2) * 80,
      "materialized join matches");
  return BuiltQuery(std::move(b).Build(), agg);
}

QueryResult RunQ5(TpchContext* ctx, EngineConfig config) {
  return RunBuilt(ctx, config, BuildQ5Plan(ctx));
}

// ---- Q9*: join-heavy with an out-of-GPU build side --------------------------

Result<BuiltQuery> BuildQ9Plan(TpchContext* ctx) {
  auto lineitem = ctx->catalog.Get("lineitem");
  auto orders = ctx->catalog.Get("orders");
  auto supplier = ctx->catalog.Get("supplier");
  auto partsupp = ctx->catalog.Get("partsupp");
  for (const auto* t : {&lineitem, &orders, &supplier, &partsupp}) {
    if (!t->ok()) return t->status();
  }

  PlanBuilder b("q9");
  const bool hand = ctx->plan_mode == PlanMode::kHandDeclared;

  // Build sides: the *unfiltered* orders table is the problem child —
  // ~3.4 GiB of hash table at SF 100 (§6.4: Q9's intermediate results push
  // hash-table requirements past GPU memory). The engine's placement step
  // reacts: broadcast is impossible, so GPU-only DNFs and hybrid falls back
  // to the §5 co-processing join.
  auto ords = TpchScan(&b, *ctx, orders.value(),
                       {"o_orderkey", "o_orderdate"})
                  .HashBuild(Expr::Col(0), {1},
                             hand ? BuildOptions{/*expected_rows=*/
                                                 orders.value()->num_rows(),
                                                 /*heavy=*/true}
                                  : BuildOptions{});
  auto supp = TpchScan(&b, *ctx, supplier.value(),
                       {"s_suppkey", "s_nationkey"})
                  .HashBuild(Expr::Col(0), {1});
  auto ps = TpchScan(&b, *ctx, partsupp.value(),
                     {"ps_partkey", "ps_suppkey", "ps_supplycost"})
                .HashBuild(Expr::Add(Expr::Mul(Expr::Col(0),
                                               Expr::Int(kPsKeyMul)),
                                     Expr::Col(1)),
                           {2},
                           hand ? BuildOptions{/*expected_rows=*/
                                               partsupp.value()->num_rows(),
                                               /*heavy=*/true}
                                : BuildOptions{});

  // Probe pipeline over lineitem.
  // Columns: 0 l_orderkey, 1 l_partkey, 2 l_suppkey, 3 l_quantity,
  // 4 l_extendedprice, 5 l_discount.
  auto probe = TpchScan(&b, *ctx, lineitem.value(),
                        {"l_orderkey", "l_partkey", "l_suppkey",
                         "l_quantity", "l_extendedprice", "l_discount"});
  probe.Named("q9-probe");
  AggHandle agg;
  const auto ps_probe_key = [] {
    return Expr::Add(Expr::Mul(Expr::Col(1), Expr::Int(kPsKeyMul)),
                     Expr::Col(2));
  };
  if (hand) {
    probe.Probe(ords, Expr::Col(0))    // +6 o_orderdate
        .Probe(supp, Expr::Col(2))     // +7 s_nationkey
        .Probe(ps, ps_probe_key());    // +8 ps_supplycost
    // amount = extprice*(1-discount) - supplycost*quantity
    auto amount = Expr::Sub(
        Expr::Mul(Expr::Col(4), Expr::Sub(Expr::Double(1.0), Expr::Col(5))),
        Expr::Mul(Expr::Col(8), Expr::Col(3)));
    // group key = nationkey * 10000 + year(o_orderdate)
    agg = probe.Aggregate(
        Expr::Add(Expr::Mul(Expr::Col(7), Expr::Int(10000)),
                  Expr::Div(Expr::Col(6), Expr::Int(10000))),
        {AggDef{AggOp::kSum, amount}});
  } else {
    // Unordered declaration (all three joins are non-reducing FK lookups;
    // the optimizer keeps whatever order ties in cost).
    probe.Probe(ps, ps_probe_key())    // +6 ps_supplycost
        .Probe(supp, Expr::Col(2))     // +7 s_nationkey
        .Probe(ords, Expr::Col(0));    // +8 o_orderdate
    auto amount = Expr::Sub(
        Expr::Mul(Expr::Col(4), Expr::Sub(Expr::Double(1.0), Expr::Col(5))),
        Expr::Mul(Expr::Col(6), Expr::Col(3)));
    agg = probe.Aggregate(
        Expr::Add(Expr::Mul(Expr::Col(7), Expr::Int(10000)),
                  Expr::Div(Expr::Col(8), Expr::Int(10000))),
        {AggDef{AggOp::kSum, amount}});
  }
  // Build sides (full orders + partsupp) plus materialized join matches.
  b.DeclareMaterializedIntermediate(
      HashTableBytes(NominalRows(*ctx, orders.value())) +
          HashTableBytes(NominalRows(*ctx, partsupp.value())) +
          NominalRows(*ctx, lineitem.value()) * 16,
      "build sides (full orders + partsupp) plus intermediates");
  return BuiltQuery(std::move(b).Build(), agg);
}

QueryResult RunQ9(TpchContext* ctx, EngineConfig config) {
  return RunBuilt(ctx, config, BuildQ9Plan(ctx));
}

// ---- trusted scalar references ----------------------------------------------

QueryResult RefQ1(const TpchContext& ctx) {
  QueryResult r;
  auto res = ctx.catalog.Get("lineitem");
  HAPE_CHECK(res.ok());
  const storage::Table& l = *res.value();
  auto flag = l.column("l_returnflag")->i32();
  auto status = l.column("l_linestatus")->i32();
  auto qty = l.column("l_quantity")->f64();
  auto price = l.column("l_extendedprice")->f64();
  auto disc = l.column("l_discount")->f64();
  auto tax = l.column("l_tax")->f64();
  auto ship = l.column("l_shipdate")->i32();
  for (size_t i = 0; i < l.num_rows(); ++i) {
    if (ship[i] > kQ1Cutoff) continue;
    auto& g = r.groups[flag[i] * 2 + status[i]];
    if (g.empty()) g.assign(6, 0.0);
    g[0] += qty[i];
    g[1] += price[i];
    g[2] += price[i] * (1 - disc[i]);
    g[3] += price[i] * (1 - disc[i]) * (1 + tax[i]);
    g[4] += disc[i];
    g[5] += 1;
  }
  return r;
}

QueryResult RefQ6(const TpchContext& ctx) {
  QueryResult r;
  auto res = ctx.catalog.Get("lineitem");
  HAPE_CHECK(res.ok());
  const storage::Table& l = *res.value();
  auto ship = l.column("l_shipdate")->i32();
  auto disc = l.column("l_discount")->f64();
  auto qty = l.column("l_quantity")->f64();
  auto price = l.column("l_extendedprice")->f64();
  double sum = 0;
  for (size_t i = 0; i < l.num_rows(); ++i) {
    if (ship[i] >= kY1994Lo && ship[i] < kY1995Lo && disc[i] >= 0.0499 &&
        disc[i] <= 0.0701 && qty[i] < 24.0) {
      sum += price[i] * disc[i];
    }
  }
  r.groups[0] = {sum};
  return r;
}

QueryResult RefQ3(const TpchContext& ctx) {
  QueryResult r;
  const storage::Table& l = *ctx.catalog.Get("lineitem").value();
  const storage::Table& o = *ctx.catalog.Get("orders").value();
  const storage::Table& c = *ctx.catalog.Get("customer").value();
  constexpr int32_t kQ3Date = storage::tpch::Date(1995, 3, 15);

  std::unordered_map<int64_t, bool> building;
  {
    auto ck = c.column("c_custkey")->i64();
    auto seg = c.column("c_mktsegment")->i32();
    for (size_t i = 0; i < c.num_rows(); ++i) {
      if (seg[i] == storage::tpch::kSegBuilding) building[ck[i]] = true;
    }
  }
  std::unordered_map<int64_t, int32_t> order_date;  // filtered + semi-joined
  {
    auto ok = o.column("o_orderkey")->i64();
    auto ck = o.column("o_custkey")->i64();
    auto od = o.column("o_orderdate")->i32();
    for (size_t i = 0; i < o.num_rows(); ++i) {
      if (od[i] < kQ3Date && building.count(ck[i]) > 0) {
        order_date[ok[i]] = od[i];
      }
    }
  }
  auto lo = l.column("l_orderkey")->i64();
  auto price = l.column("l_extendedprice")->f64();
  auto disc = l.column("l_discount")->f64();
  auto ship = l.column("l_shipdate")->i32();
  for (size_t i = 0; i < l.num_rows(); ++i) {
    if (ship[i] <= kQ3Date) continue;
    auto it = order_date.find(lo[i]);
    if (it == order_date.end()) continue;
    auto& g = r.groups[lo[i]];
    if (g.empty()) g.assign(2, 0.0);
    g[0] += price[i] * (1 - disc[i]);
    g[1] = std::max(g[1], static_cast<double>(it->second));
  }
  return r;
}

QueryResult RefQ5(const TpchContext& ctx) {
  QueryResult r;
  const storage::Table& l = *ctx.catalog.Get("lineitem").value();
  const storage::Table& o = *ctx.catalog.Get("orders").value();
  const storage::Table& c = *ctx.catalog.Get("customer").value();
  const storage::Table& s = *ctx.catalog.Get("supplier").value();
  const storage::Table& n = *ctx.catalog.Get("nation").value();

  std::unordered_map<int64_t, int64_t> asia_name;  // nationkey -> name code
  {
    auto nk = n.column("n_nationkey")->i64();
    auto rk = n.column("n_regionkey")->i64();
    auto nm = n.column("n_name")->i32();
    for (size_t i = 0; i < n.num_rows(); ++i) {
      if (rk[i] == storage::tpch::kRegionAsia) asia_name[nk[i]] = nm[i];
    }
  }
  std::unordered_map<int64_t, int64_t> cust_nation;
  {
    auto ck = c.column("c_custkey")->i64();
    auto nk = c.column("c_nationkey")->i64();
    for (size_t i = 0; i < c.num_rows(); ++i) cust_nation[ck[i]] = nk[i];
  }
  std::unordered_map<int64_t, int64_t> supp_nation;
  {
    auto sk = s.column("s_suppkey")->i64();
    auto nk = s.column("s_nationkey")->i64();
    for (size_t i = 0; i < s.num_rows(); ++i) supp_nation[sk[i]] = nk[i];
  }
  std::unordered_map<int64_t, int64_t> order_cust;  // filtered to 1994
  {
    auto ok = o.column("o_orderkey")->i64();
    auto ck = o.column("o_custkey")->i64();
    auto od = o.column("o_orderdate")->i32();
    for (size_t i = 0; i < o.num_rows(); ++i) {
      if (od[i] >= kY1994Lo && od[i] < kY1995Lo) order_cust[ok[i]] = ck[i];
    }
  }
  auto lo = l.column("l_orderkey")->i64();
  auto ls = l.column("l_suppkey")->i64();
  auto price = l.column("l_extendedprice")->f64();
  auto disc = l.column("l_discount")->f64();
  for (size_t i = 0; i < l.num_rows(); ++i) {
    auto oit = order_cust.find(lo[i]);
    if (oit == order_cust.end()) continue;
    auto cit = cust_nation.find(oit->second);
    if (cit == cust_nation.end()) continue;
    auto sit = supp_nation.find(ls[i]);
    if (sit == supp_nation.end()) continue;
    if (cit->second != sit->second) continue;
    auto ait = asia_name.find(sit->second);
    if (ait == asia_name.end()) continue;
    auto& g = r.groups[ait->second];
    if (g.empty()) g.assign(1, 0.0);
    g[0] += price[i] * (1 - disc[i]);
  }
  return r;
}

QueryResult RefQ9(const TpchContext& ctx) {
  QueryResult r;
  const storage::Table& l = *ctx.catalog.Get("lineitem").value();
  const storage::Table& o = *ctx.catalog.Get("orders").value();
  const storage::Table& s = *ctx.catalog.Get("supplier").value();
  const storage::Table& ps = *ctx.catalog.Get("partsupp").value();

  std::unordered_map<int64_t, int32_t> order_date;
  {
    auto ok = o.column("o_orderkey")->i64();
    auto od = o.column("o_orderdate")->i32();
    for (size_t i = 0; i < o.num_rows(); ++i) order_date[ok[i]] = od[i];
  }
  std::unordered_map<int64_t, int64_t> supp_nation;
  {
    auto sk = s.column("s_suppkey")->i64();
    auto nk = s.column("s_nationkey")->i64();
    for (size_t i = 0; i < s.num_rows(); ++i) supp_nation[sk[i]] = nk[i];
  }
  // Every partsupp row of a (partkey, suppkey) pair joins, as in SQL and
  // the engine's hash join: at small scale factors the generator repeats
  // some pairs.
  std::unordered_multimap<int64_t, double> ps_cost;
  {
    auto pk = ps.column("ps_partkey")->i64();
    auto sk = ps.column("ps_suppkey")->i64();
    auto sc = ps.column("ps_supplycost")->f64();
    for (size_t i = 0; i < ps.num_rows(); ++i) {
      ps_cost.emplace(pk[i] * kPsKeyMul + sk[i], sc[i]);
    }
  }
  auto lo = l.column("l_orderkey")->i64();
  auto lp = l.column("l_partkey")->i64();
  auto lsup = l.column("l_suppkey")->i64();
  auto qty = l.column("l_quantity")->f64();
  auto price = l.column("l_extendedprice")->f64();
  auto disc = l.column("l_discount")->f64();
  for (size_t i = 0; i < l.num_rows(); ++i) {
    auto oit = order_date.find(lo[i]);
    if (oit == order_date.end()) continue;
    auto sit = supp_nation.find(lsup[i]);
    if (sit == supp_nation.end()) continue;
    const auto [first, last] =
        ps_cost.equal_range(lp[i] * kPsKeyMul + lsup[i]);
    if (first == last) continue;
    const int64_t key = sit->second * 10000 + oit->second / 10000;
    auto& g = r.groups[key];
    if (g.empty()) g.assign(1, 0.0);
    for (auto pit = first; pit != last; ++pit) {
      g[0] += price[i] * (1 - disc[i]) - pit->second * qty[i];
    }
  }
  return r;
}

}  // namespace hape::queries
