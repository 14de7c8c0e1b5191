#include "engine/plan_json.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "common/bits.h"
#include "lint/diagnostic.h"

namespace hape::engine {

namespace {

// ---- small typed accessors over parsed documents ----------------------------
// Every malformed-manifest path must surface as a Status (never a crash), so
// all member access goes through these.

Status Bad(const std::string& where, const std::string& what) {
  return Status::InvalidArgument("plan JSON: " + where + ": " + what);
}

/// A failure under a lint rule other than the document-shape default
/// (HL011) Load reports through `why`.
Status Bad(const char** why, const char* rule, const std::string& where,
           const std::string& what) {
  *why = rule;
  return Bad(where, what);
}

Result<const JsonValue*> GetMember(const JsonValue& obj, const char* key,
                                   const std::string& where) {
  if (!obj.is_object()) return Bad(where, "expected an object");
  const JsonValue* v = obj.Find(key);
  if (v == nullptr) return Bad(where, "missing key '" + std::string(key) + "'");
  return v;
}

Result<std::string> GetString(const JsonValue& obj, const char* key,
                              const std::string& where) {
  HAPE_ASSIGN_OR_RETURN(const JsonValue* v, GetMember(obj, key, where));
  if (v->kind() != JsonValue::Kind::kString) {
    return Bad(where, "'" + std::string(key) + "' must be a string");
  }
  return v->str();
}

Result<double> GetNumber(const JsonValue& obj, const char* key,
                         const std::string& where) {
  HAPE_ASSIGN_OR_RETURN(const JsonValue* v, GetMember(obj, key, where));
  if (v->kind() != JsonValue::Kind::kNumber) {
    return Bad(where, "'" + std::string(key) + "' must be a number");
  }
  return v->number();
}

/// Safe bound for double -> signed/unsigned integer casts (exactly
/// representable, comfortably inside every target range). Larger or
/// fractional numbers in a manifest are author errors, not values any
/// writer emits; casting them would be UB (float-cast-overflow).
constexpr double kMaxIntegerNumber = 9007199254740992.0;  // 2^53
/// Bound for int-typed policy knobs (prefetch depth, serve in-flight cap):
/// keeps the int64 -> int narrowing from wrapping onto a plausible value.
constexpr int64_t kMaxSmallKnob = 1 << 30;
/// Ceiling of a scan's nominal rows (table rows x pipeline scale), about
/// 1,800x the lineitem rows of SF 100. It keeps every rows x scale cast to
/// uint64 in range: the optimizer's est_nominal_out_rows, a built table's
/// nominal_rows (Engine::StepPlan), Scheduler::EstimatedResidentBytes, and
/// with the engine's shuffle amplification of 2 the executor's wire bytes
/// of packets narrower than 2^23 bytes per nominal row.
constexpr double kMaxNominalRows = 1099511627776.0;  // 2^40

Result<int64_t> GetInt(const JsonValue& obj, const char* key,
                       const std::string& where) {
  HAPE_ASSIGN_OR_RETURN(double d, GetNumber(obj, key, where));
  if (!(d >= -kMaxIntegerNumber && d <= kMaxIntegerNumber) ||
      d != std::floor(d)) {
    return Bad(where, "'" + std::string(key) + "' must be an integer");
  }
  return static_cast<int64_t>(d);
}

/// Optional scalar readers: leave *out unchanged when the key is absent.
Status ReadOptNumber(const JsonValue& obj, const char* key, double* out,
                     const std::string& where) {
  const JsonValue* v = obj.Find(key);
  if (v == nullptr) return Status::OK();
  if (v->kind() != JsonValue::Kind::kNumber) {
    return Bad(where, "'" + std::string(key) + "' must be a number");
  }
  *out = v->number();
  return Status::OK();
}

Status ReadOptBool(const JsonValue& obj, const char* key, bool* out,
                   const std::string& where) {
  const JsonValue* v = obj.Find(key);
  if (v == nullptr) return Status::OK();
  if (v->kind() != JsonValue::Kind::kBool) {
    return Bad(where, "'" + std::string(key) + "' must be a bool");
  }
  *out = v->bool_value();
  return Status::OK();
}

template <typename T>
Status ReadOptUint(const JsonValue& obj, const char* key, T* out,
                   const std::string& where) {
  const JsonValue* v = obj.Find(key);
  if (v == nullptr) return Status::OK();
  if (v->kind() != JsonValue::Kind::kNumber || v->number() < 0 ||
      v->number() > kMaxIntegerNumber ||
      v->number() != std::floor(v->number())) {
    return Bad(where,
               "'" + std::string(key) + "' must be a non-negative integer");
  }
  *out = static_cast<T>(v->number());
  return Status::OK();
}

Result<std::vector<int>> ReadIntArray(const JsonValue& obj, const char* key,
                                      const std::string& where) {
  std::vector<int> out;
  const JsonValue* v = obj.Find(key);
  if (v == nullptr) return out;  // absent == empty
  if (!v->is_array()) {
    return Bad(where, "'" + std::string(key) + "' must be an array");
  }
  for (const JsonValue& item : v->items()) {
    // Bounded to int: indices and device ids must survive the cast without
    // wrapping onto a *valid* value (2^32 must not alias pipeline 0).
    const double d =
        item.kind() == JsonValue::Kind::kNumber ? item.number() : NAN;
    if (!(d >= -2147483648.0 && d <= 2147483647.0) || d != std::floor(d)) {
      return Bad(where, "'" + std::string(key) + "' must hold integers");
    }
    out.push_back(static_cast<int>(d));
  }
  return out;
}

void WriteIntArray(JsonWriter* w, const std::vector<int>& v) {
  w->BeginArray();
  for (int x : v) w->Int(x);
  w->EndArray();
}

// ---- enum name tables --------------------------------------------------------
// Writer names reuse the engine's canonical *Name() functions; the parse
// direction lives here.

template <typename E, size_t N>
Result<E> ParseEnum(const std::string& name,
                    const std::pair<const char*, E> (&table)[N],
                    const char* what) {
  for (const auto& [n, v] : table) {
    if (name == n) return v;
  }
  return Status::InvalidArgument("plan JSON: unknown " + std::string(what) +
                                 " '" + name + "'");
}

constexpr std::pair<const char*, RoutingPolicy> kRoutingNames[] = {
    {"load-aware", RoutingPolicy::kLoadAware},
    {"locality-aware", RoutingPolicy::kLocalityAware},
    {"hash-based", RoutingPolicy::kHashBased},
};

constexpr std::pair<const char*, ExecutionModel> kModelNames[] = {
    {"jit-fused", ExecutionModel::kJitFused},
    {"vector-at-a-time", ExecutionModel::kVectorAtATime},
    {"operator-at-a-time", ExecutionModel::kOperatorAtATime},
};

constexpr std::pair<const char*, SchedulingPolicy> kSchedulingNames[] = {
    {"fifo", SchedulingPolicy::kFifo},
    {"fair-share", SchedulingPolicy::kFairShare},
    {"sla-tiered", SchedulingPolicy::kSlaTiered},
};

constexpr std::pair<const char*, AggOp> kAggOpNames[] = {
    {"sum", AggOp::kSum},
    {"count", AggOp::kCount},
    {"min", AggOp::kMin},
    {"max", AggOp::kMax},
};

const char* AggOpName(AggOp op) {
  switch (op) {
    case AggOp::kSum:
      return "sum";
    case AggOp::kCount:
      return "count";
    case AggOp::kMin:
      return "min";
    case AggOp::kMax:
      return "max";
  }
  return "?";
}

/// Operator spellings indexed by ExprKind (matches Expr::ToString).
constexpr const char* kExprOpNames[] = {"col", "int", "double", "+",  "-",
                                        "*",   "/",   "==",     "!=", "<",
                                        "<=",  ">",   ">=",     "&&", "||",
                                        "!"};

/// Int literals round-trip through the double-backed number representation
/// only below 2^53; larger magnitudes are written as decimal strings.
constexpr int64_t kExactIntBound = int64_t{1} << 53;

// ---- expression (de)serialization -------------------------------------------

void WriteExprOrNull(JsonWriter* w, const expr::ExprPtr& e) {
  if (e == nullptr) {
    w->Null();
  } else {
    PlanJson::WriteExpr(w, e);
  }
}

Result<expr::ExprPtr> ReadExpr(const JsonValue& v, const char** why) {
  HAPE_ASSIGN_OR_RETURN(const std::string op, GetString(v, "op", "expression"));
  if (op == "col") {
    HAPE_ASSIGN_OR_RETURN(const int64_t col, GetInt(v, "col", "expression"));
    if (col < 0) {
      return Bad(why, lint::kRuleColumnOutOfRange, "expression",
                 "negative column index");
    }
    return expr::Expr::Col(static_cast<int>(col));
  }
  if (op == "int") {
    HAPE_ASSIGN_OR_RETURN(const JsonValue* val,
                          GetMember(v, "v", "int literal"));
    if (val->kind() == JsonValue::Kind::kString) {
      // Magnitudes beyond 2^53 travel as decimal strings (see WriteExpr).
      errno = 0;
      char* end = nullptr;
      const char* begin = val->str().c_str();
      const long long parsed = std::strtoll(begin, &end, 10);
      if (errno != 0 || end == begin || *end != '\0') {
        return Bad("expression", "malformed int literal '" + val->str() + "'");
      }
      return expr::Expr::Int(parsed);
    }
    const double d =
        val->kind() == JsonValue::Kind::kNumber ? val->number() : NAN;
    if (!(d >= -kMaxIntegerNumber && d <= kMaxIntegerNumber) ||
        d != std::floor(d)) {
      return Bad("expression",
                 "int literal 'v' must be an integer (use the string form "
                 "for magnitudes beyond 2^53)");
    }
    return expr::Expr::Int(static_cast<int64_t>(d));
  }
  if (op == "double") {
    HAPE_ASSIGN_OR_RETURN(const double d, GetNumber(v, "v", "double literal"));
    return expr::Expr::Double(d);
  }
  if (op == "!") {
    HAPE_ASSIGN_OR_RETURN(const JsonValue* args, GetMember(v, "args", "!"));
    if (!args->is_array() || args->items().size() != 1) {
      return Bad("expression", "'!' takes exactly one argument");
    }
    HAPE_ASSIGN_OR_RETURN(expr::ExprPtr c, ReadExpr(args->items()[0], why));
    return expr::Expr::Not(std::move(c));
  }
  for (size_t k = static_cast<size_t>(expr::ExprKind::kAdd);
       k < static_cast<size_t>(expr::ExprKind::kNot); ++k) {
    if (op != kExprOpNames[k]) continue;
    HAPE_ASSIGN_OR_RETURN(const JsonValue* args,
                          GetMember(v, "args", "operator " + op));
    if (!args->is_array() || args->items().size() != 2) {
      return Bad("expression", "operator '" + op + "' takes two arguments");
    }
    HAPE_ASSIGN_OR_RETURN(expr::ExprPtr l, ReadExpr(args->items()[0], why));
    HAPE_ASSIGN_OR_RETURN(expr::ExprPtr r, ReadExpr(args->items()[1], why));
    return expr::Expr::Binary(static_cast<expr::ExprKind>(k), std::move(l),
                              std::move(r));
  }
  return Bad("expression", "unknown operator '" + op + "'");
}

Result<expr::ExprPtr> ReadExprOrNull(const JsonValue& v, const char** why) {
  if (v.kind() == JsonValue::Kind::kNull) return expr::ExprPtr{};
  return ReadExpr(v, why);
}

// ---- sink + op writers -------------------------------------------------------

Status WriteSink(JsonWriter* w, const QueryPlan& plan, const PlanNode& n) {
  const TerminalSpec& t = n.terminal;
  w->BeginObject();
  w->Key("kind");
  switch (t.kind) {
    case TerminalSpec::Kind::kBuild:
      w->String("hash_build");
      w->Key("key");
      WriteExprOrNull(w, t.key);
      w->Key("payload_cols");
      WriteIntArray(w, t.payload);
      w->Key("declared_build_rows");
      w->Uint(t.declared_rows);
      w->Key("heavy");
      w->Bool(t.heavy);
      w->Key("ht_buckets");
      w->Uint(t.ht_buckets);
      break;
    case TerminalSpec::Kind::kAggregate:
      w->String("hash_agg");
      w->Key("key");
      WriteExprOrNull(w, t.key);
      w->Key("aggs");
      w->BeginArray();
      for (const AggDef& a : t.aggs) {
        w->BeginObject();
        w->Key("op");
        w->String(AggOpName(a.op));
        w->Key("arg");
        WriteExprOrNull(w, a.arg);
        w->EndObject();
      }
      w->EndArray();
      break;
    case TerminalSpec::Kind::kCollect:
      w->String("collect");
      break;
    case TerminalSpec::Kind::kNone:
      return Status::InvalidArgument("plan '" + plan.name() + "' pipeline '" +
                                     n.name + "' has no sink");
  }
  w->EndObject();
  return Status::OK();
}

Status WritePlanObject(JsonWriter* w, const QueryPlan& plan) {
  w->BeginObject();
  w->Key("name");
  w->String(plan.name());
  if (plan.declared_intermediate_bytes() > 0) {
    w->Key("declared_intermediate_bytes");
    w->Uint(plan.declared_intermediate_bytes());
    w->Key("declared_intermediate_label");
    w->String(plan.declared_intermediate_label());
  }
  w->Key("pipelines");
  w->BeginArray();
  for (size_t i = 0; i < plan.num_pipelines(); ++i) {
    const PlanNode& n = plan.node(static_cast<int>(i));
    w->BeginObject();
    w->Key("id");
    w->Uint(i);
    w->Key("name");
    w->String(n.name);
    w->Key("source");
    w->BeginObject();
    w->Key("table");
    w->String(n.source_table->name());
    w->Key("columns");
    w->BeginArray();
    for (const auto& c : n.source_columns) w->String(c);
    w->EndArray();
    w->Key("chunk_rows");
    w->Uint(n.source_chunk_rows);
    w->EndObject();
    w->Key("scale");
    w->Double(n.scale);
    w->Key("deps");
    WriteIntArray(w, n.deps);
    w->Key("run_on");
    WriteIntArray(w, n.run_on);
    w->Key("ops");
    w->BeginArray();
    for (const LogicalOp& op : n.ops) {
      w->BeginObject();
      w->Key("kind");
      switch (op.kind) {
        case LogicalOp::Kind::kFilter:
          w->String("filter");
          w->Key("expr");
          PlanJson::WriteExpr(w, op.expr);
          break;
        case LogicalOp::Kind::kProject:
          w->String("project");
          w->Key("exprs");
          w->BeginArray();
          for (const auto& e : op.exprs) PlanJson::WriteExpr(w, e);
          w->EndArray();
          break;
        case LogicalOp::Kind::kProbe: {
          w->String("probe");
          if (op.build < 0) {
            return Status::NotSupported(
                "plan '" + plan.name() + "' pipeline '" + n.name +
                "' probes a hash table with no build pipeline in this plan");
          }
          w->Key("build_pipeline");
          w->Int(op.build);
          w->Key("key");
          PlanJson::WriteExpr(w, op.expr);
          break;
        }
      }
      w->EndObject();
    }
    w->EndArray();
    w->Key("sink");
    HAPE_RETURN_NOT_OK(WriteSink(w, plan, n));
    // Optimizer outputs ride along so a dumped optimized plan reloads with
    // its sizing, estimates, and heavy marks intact.
    w->Key("estimated");
    w->BeginObject();
    w->Key("out_rows");
    w->Uint(n.est_out_rows);
    w->Key("nominal_out_rows");
    w->Uint(n.est_nominal_out_rows);
    w->Key("cost_seconds");
    w->Double(n.est_cost_seconds);
    w->EndObject();
    w->EndObject();
  }
  w->EndArray();
  w->EndObject();
  return Status::OK();
}

Result<std::string> DumpImpl(const QueryPlan& plan,
                             const ExecutionPolicy* policy) {
  JsonWriter w;
  w.BeginObject();
  w.Key("format");
  w.String(PlanJson::kFormat);
  w.Key("version");
  w.Int(PlanJson::kVersion);
  w.Key("plan");
  HAPE_RETURN_NOT_OK(WritePlanObject(&w, plan));
  if (policy != nullptr) {
    w.Key("policy");
    PlanJson::WritePolicy(&w, *policy);
  }
  w.EndObject();
  return w.str();
}

// ---- load --------------------------------------------------------------------
// Every reader below reports failures as Status errors; the ones whose
// cause is not the document's shape also name their lint rule through
// `why` (Load's out-parameter; HL011 unless a check says otherwise).

/// Parsed-but-not-yet-applied view of one pipeline document.
struct PipeDoc {
  const JsonValue* v = nullptr;
  std::string where;
  std::string name;
  storage::TablePtr table;
  std::vector<std::string> columns;
  size_t chunk_rows = 0;
  double scale = 1.0;
  std::vector<int> deps;
  std::vector<int> run_on;
  const JsonValue* ops = nullptr;
  const JsonValue* sink = nullptr;
  std::string sink_kind;
  /// build_pipeline of every probe op (in range; Validate checks the rest).
  std::vector<int> probe_refs;
  /// A hash_build's dumped bucket count (0: HashBuild's default).
  uint64_t ht_buckets = 0;
};

Status ParsePipeDoc(const JsonValue& v, size_t index, size_t num_pipelines,
                    const storage::Catalog& catalog, PipeDoc* out,
                    const char** why) {
  out->v = &v;
  out->where = "pipeline #" + std::to_string(index);
  if (!v.is_object()) return Bad(out->where, "expected an object");
  if (const JsonValue* id = v.Find("id");
      id != nullptr && (id->kind() != JsonValue::Kind::kNumber ||
                        id->number() != static_cast<double>(index))) {
    return Bad(out->where, "'id' does not match the pipeline's array position");
  }
  HAPE_ASSIGN_OR_RETURN(out->name, GetString(v, "name", out->where));
  out->where = "pipeline '" + out->name + "'";

  HAPE_ASSIGN_OR_RETURN(const JsonValue* source,
                        GetMember(v, "source", out->where));
  HAPE_ASSIGN_OR_RETURN(const std::string table_name,
                        GetString(*source, "table", out->where + " source"));
  auto table = catalog.Get(table_name);
  if (!table.ok()) {
    return Bad(why, lint::kRuleUnknownTableOrColumn, out->where,
               "unknown table '" + table_name + "'");
  }
  out->table = table.value();
  HAPE_ASSIGN_OR_RETURN(const JsonValue* cols,
                        GetMember(*source, "columns", out->where + " source"));
  if (!cols->is_array() || cols->items().empty()) {
    return Bad(out->where, "source 'columns' must be a non-empty array");
  }
  for (const JsonValue& c : cols->items()) {
    if (c.kind() != JsonValue::Kind::kString) {
      return Bad(out->where, "source 'columns' must hold strings");
    }
    if (out->table->schema().IndexOf(c.str()) < 0) {
      return Bad(why, lint::kRuleUnknownTableOrColumn, out->where,
                 "table '" + table_name + "' has no column '" + c.str() + "'");
    }
    out->columns.push_back(c.str());
  }
  HAPE_ASSIGN_OR_RETURN(const int64_t chunk,
                        GetInt(*source, "chunk_rows", out->where + " source"));
  if (chunk <= 0) {
    return Bad(why, lint::kRuleInvalidParameter, out->where,
               "'chunk_rows' must be positive");
  }
  out->chunk_rows = static_cast<size_t>(chunk);

  HAPE_RETURN_NOT_OK(ReadOptNumber(v, "scale", &out->scale, out->where));
  // An empty table counts as one row, so the ceiling bounds its scale too.
  const double rows = std::max<double>(1, out->table->num_rows());
  if (!(out->scale > 0 && rows * out->scale <= kMaxNominalRows)) {
    return Bad(why, lint::kRuleInvalidParameter, out->where,
               "'scale' must be positive and keep the scan at most 2^40 "
               "nominal rows");
  }
  HAPE_ASSIGN_OR_RETURN(out->deps, ReadIntArray(v, "deps", out->where));
  HAPE_ASSIGN_OR_RETURN(out->run_on, ReadIntArray(v, "run_on", out->where));

  HAPE_ASSIGN_OR_RETURN(out->ops, GetMember(v, "ops", out->where));
  if (!out->ops->is_array()) return Bad(out->where, "'ops' must be an array");
  for (const JsonValue& op : out->ops->items()) {
    HAPE_ASSIGN_OR_RETURN(const std::string kind,
                          GetString(op, "kind", out->where + " op"));
    if (kind == "probe") {
      HAPE_ASSIGN_OR_RETURN(
          const int64_t build,
          GetInt(op, "build_pipeline", out->where + " probe op"));
      if (build < 0 || build >= static_cast<int64_t>(num_pipelines)) {
        return Bad(why, lint::kRuleDanglingEdge, out->where,
                   "probes unknown pipeline #" + std::to_string(build));
      }
      out->probe_refs.push_back(static_cast<int>(build));
    } else if (kind != "filter" && kind != "project") {
      return Bad(out->where, "unknown op kind '" + kind + "'");
    }
  }

  HAPE_ASSIGN_OR_RETURN(out->sink, GetMember(v, "sink", out->where));
  HAPE_ASSIGN_OR_RETURN(out->sink_kind,
                        GetString(*out->sink, "kind", out->where + " sink"));
  if (out->sink_kind != "hash_build" && out->sink_kind != "hash_agg" &&
      out->sink_kind != "collect") {
    return Bad(out->where, "unknown sink kind '" + out->sink_kind + "'");
  }
  if (out->sink_kind == "hash_build") {
    HAPE_RETURN_NOT_OK(
        ReadOptUint(*out->sink, "ht_buckets", &out->ht_buckets, out->where));
    // The bucket count sizes a table every run allocates, so a hand-edited
    // one must get an error, not a multi-gigabyte allocation. Its ceiling
    // is that of a table sized for its whole scanned source: the
    // NextPow2(rows + 16) buckets HashBuild gives it and Optimize never
    // exceeds.
    const uint64_t ceiling = NextPow2(out->table->num_rows() + 16);
    if (out->ht_buckets > ceiling) {
      return Bad(why, lint::kRuleInvalidParameter, out->where,
                 "'ht_buckets' exceeds the " + std::to_string(ceiling) +
                     " buckets of a table sized for all of '" +
                     out->table->name() + "'");
    }
  }
  return Status::OK();
}

/// Applies one pipeline's dependency edges, op chain and terminal to its
/// PipelineBuilder, collecting aggregate handles into `aggs`. Column
/// references and probe targets are left to QueryPlan::Validate.
Status ApplyPipeDoc(const PipeDoc& doc, PipelineBuilder* pipe,
                    std::map<int, AggHandle>* aggs, const char** why) {
  // Replay the dumped dependency list first: it is the complete set (probe
  // edges included), and After() keeps first-occurrence order, so the
  // reloaded node's deps match the dump byte-for-byte — the Probe() calls
  // below then dedup against it. (Applying probes first would reorder deps
  // for plans that declared After() before a Probe.)
  for (int d : doc.deps) pipe->After(d);

  size_t probe_idx = 0;
  for (const JsonValue& op : doc.ops->items()) {
    const std::string kind = op.Find("kind")->str();
    if (kind == "filter") {
      HAPE_ASSIGN_OR_RETURN(const JsonValue* e,
                            GetMember(op, "expr", doc.where + " filter op"));
      HAPE_ASSIGN_OR_RETURN(expr::ExprPtr pred, ReadExpr(*e, why));
      pipe->Filter(std::move(pred));
    } else if (kind == "project") {
      HAPE_ASSIGN_OR_RETURN(const JsonValue* es,
                            GetMember(op, "exprs", doc.where + " project op"));
      if (!es->is_array()) {
        return Bad(doc.where, "project 'exprs' must be an array");
      }
      std::vector<expr::ExprPtr> exprs;
      for (const JsonValue& e : es->items()) {
        HAPE_ASSIGN_OR_RETURN(expr::ExprPtr p, ReadExpr(e, why));
        exprs.push_back(std::move(p));
      }
      pipe->Project(std::move(exprs));
    } else {  // probe (kinds and build refs were checked during parsing)
      HAPE_ASSIGN_OR_RETURN(const JsonValue* k,
                            GetMember(op, "key", doc.where + " probe op"));
      HAPE_ASSIGN_OR_RETURN(expr::ExprPtr key, ReadExpr(*k, why));
      pipe->Probe(doc.probe_refs[probe_idx++], std::move(key));
    }
  }

  const JsonValue& sink = *doc.sink;
  if (doc.sink_kind == "hash_agg") {
    HAPE_ASSIGN_OR_RETURN(const JsonValue* kv,
                          GetMember(sink, "key", doc.where + " sink"));
    HAPE_ASSIGN_OR_RETURN(expr::ExprPtr key, ReadExprOrNull(*kv, why));
    HAPE_ASSIGN_OR_RETURN(const JsonValue* av,
                          GetMember(sink, "aggs", doc.where + " sink"));
    if (!av->is_array() || av->items().empty()) {
      return Bad(doc.where, "'aggs' must be a non-empty array");
    }
    std::vector<AggDef> defs;
    for (const JsonValue& a : av->items()) {
      HAPE_ASSIGN_OR_RETURN(const std::string op_name,
                            GetString(a, "op", doc.where + " agg"));
      HAPE_ASSIGN_OR_RETURN(const AggOp op,
                            ParseEnum(op_name, kAggOpNames, "aggregate op"));
      HAPE_ASSIGN_OR_RETURN(const JsonValue* arg,
                            GetMember(a, "arg", doc.where + " agg"));
      HAPE_ASSIGN_OR_RETURN(expr::ExprPtr arg_expr, ReadExprOrNull(*arg, why));
      if (op != AggOp::kCount && arg_expr == nullptr) {
        return Bad(doc.where, "aggregate '" + op_name + "' needs an 'arg'");
      }
      defs.push_back(AggDef{op, std::move(arg_expr)});
    }
    (*aggs)[pipe->id()] = pipe->Aggregate(std::move(key), std::move(defs));
  } else if (doc.sink_kind == "collect") {
    pipe->Collect();
  } else {  // hash_build
    HAPE_ASSIGN_OR_RETURN(const JsonValue* kv,
                          GetMember(sink, "key", doc.where + " sink"));
    HAPE_ASSIGN_OR_RETURN(expr::ExprPtr key, ReadExpr(*kv, why));
    HAPE_ASSIGN_OR_RETURN(std::vector<int> payload,
                          ReadIntArray(sink, "payload_cols", doc.where));
    BuildOptions opts;
    HAPE_RETURN_NOT_OK(ReadOptUint(sink, "declared_build_rows",
                                   &opts.expected_rows, doc.where));
    HAPE_RETURN_NOT_OK(ReadOptBool(sink, "heavy", &opts.heavy, doc.where));
    pipe->HashBuild(std::move(key), std::move(payload), opts);
  }
  return Status::OK();
}

Result<LoadedPlan> LoadDocument(const JsonValue& doc,
                                const storage::Catalog& catalog,
                                const sim::Topology* topo, const char** why) {
  if (!doc.is_object()) return Bad("document", "expected an object");
  if (const JsonValue* f = doc.Find("format");
      f != nullptr && (f->kind() != JsonValue::Kind::kString ||
                       f->str() != PlanJson::kFormat)) {
    return Bad("document", "unsupported format (expected '" +
                               std::string(PlanJson::kFormat) + "')");
  }
  // Schema versioning: an absent "version" implies the current schema; a
  // present one must match exactly (unknown versions are rejected so stale
  // plan-cache fingerprints and hand-edited manifests fail loudly).
  if (const JsonValue* ver = doc.Find("version"); ver != nullptr) {
    if (ver->kind() != JsonValue::Kind::kNumber ||
        ver->number() != static_cast<double>(PlanJson::kVersion)) {
      return Bad("document", "unsupported schema version (expected " +
                                 std::to_string(PlanJson::kVersion) + ")");
    }
  }
  HAPE_ASSIGN_OR_RETURN(const JsonValue* pv,
                        GetMember(doc, "plan", "document"));
  HAPE_ASSIGN_OR_RETURN(const std::string name,
                        GetString(*pv, "name", "plan"));
  HAPE_ASSIGN_OR_RETURN(const JsonValue* pipelines,
                        GetMember(*pv, "pipelines", "plan"));
  if (!pipelines->is_array() || pipelines->items().empty()) {
    return Bad("plan '" + name + "'", "'pipelines' must be a non-empty array");
  }

  const size_t n = pipelines->items().size();
  std::vector<PipeDoc> docs(n);
  for (size_t i = 0; i < n; ++i) {
    HAPE_RETURN_NOT_OK(
        ParsePipeDoc(pipelines->items()[i], i, n, catalog, &docs[i], why));
  }

  PlanBuilder builder(name);
  std::map<int, AggHandle> aggs;
  for (const PipeDoc& d : docs) {
    PipelineBuilder pipe = builder.Scan(d.table, d.columns, d.chunk_rows);
    pipe.Named(d.name).Scale(d.scale);
    if (!d.run_on.empty()) pipe.OnDevices(d.run_on);
    HAPE_RETURN_NOT_OK(ApplyPipeDoc(d, &pipe, &aggs, why));
  }

  uint64_t intermediate = 0;
  HAPE_RETURN_NOT_OK(ReadOptUint(*pv, "declared_intermediate_bytes",
                                 &intermediate, "plan"));
  if (intermediate > 0) {
    std::string label;
    if (const JsonValue* l = pv->Find("declared_intermediate_label");
        l != nullptr && l->kind() == JsonValue::Kind::kString) {
      label = l->str();
    }
    builder.DeclareMaterializedIntermediate(intermediate, std::move(label));
  }

  LoadedPlan out(std::move(builder).Build());
  out.aggs = std::move(aggs);

  // Restore the optimizer's outputs so a dumped optimized plan reloads
  // with its bucket counts, estimates (and the residency accounting
  // derived from them) intact. Counts are powers of two, so a dumped one
  // comes back unchanged.
  for (size_t i = 0; i < n; ++i) {
    PlanNode& node = out.plan.mutable_node(static_cast<int>(i));
    if (docs[i].ht_buckets > 0) {
      node.terminal.ht_buckets = NextPow2(docs[i].ht_buckets);
    }
    const JsonValue* est = docs[i].v->Find("estimated");
    if (est == nullptr) continue;
    HAPE_RETURN_NOT_OK(
        ReadOptUint(*est, "out_rows", &node.est_out_rows, docs[i].where));
    HAPE_RETURN_NOT_OK(ReadOptUint(*est, "nominal_out_rows",
                                   &node.est_nominal_out_rows, docs[i].where));
    HAPE_RETURN_NOT_OK(ReadOptNumber(*est, "cost_seconds",
                                     &node.est_cost_seconds, docs[i].where));
  }

  HAPE_RETURN_NOT_OK(out.plan.Validate(topo, why));

  if (const JsonValue* pol = doc.Find("policy")) {
    HAPE_ASSIGN_OR_RETURN(out.policy, PlanJson::ReadPolicy(*pol));
    out.has_policy = true;
    if (topo != nullptr) {
      HAPE_RETURN_NOT_OK(out.policy.Validate(*topo, why));
    }
  }
  return out;
}

}  // namespace

// ---- public API --------------------------------------------------------------

void PlanJson::WriteExpr(JsonWriter* w, const expr::ExprPtr& e) {
  HAPE_CHECK(e != nullptr) << "cannot serialize a null expression";
  w->BeginObject();
  w->Key("op");
  w->String(kExprOpNames[static_cast<int>(e->kind())]);
  switch (e->kind()) {
    case expr::ExprKind::kColRef:
      w->Key("col");
      w->Int(e->col_index());
      break;
    case expr::ExprKind::kLitInt: {
      const int64_t v = e->int_value();
      w->Key("v");
      if (v > kExactIntBound || v < -kExactIntBound) {
        w->String(std::to_string(v));
      } else {
        w->Int(v);
      }
      break;
    }
    case expr::ExprKind::kLitDouble:
      w->Key("v");
      w->Double(e->double_value());
      break;
    default:
      w->Key("args");
      w->BeginArray();
      for (const auto& c : e->children()) WriteExpr(w, c);
      w->EndArray();
  }
  w->EndObject();
}

void PlanJson::WritePolicy(JsonWriter* w, const ExecutionPolicy& policy) {
  w->BeginObject();
  w->Key("devices");
  WriteIntArray(w, policy.devices);
  w->Key("build_devices");
  WriteIntArray(w, policy.build_devices);
  w->Key("routing");
  w->String(RoutingPolicyName(policy.routing));
  w->Key("model");
  w->String(ExecutionModelName(policy.model));
  w->Key("partitioned_gpu_join");
  w->Bool(policy.partitioned_gpu_join);
  w->Key("device_reserved_bytes");
  w->Uint(policy.device_reserved_bytes);
  w->Key("async");
  w->BeginObject();
  w->Key("prefetch_depth");
  w->Int(policy.async.prefetch_depth);
  w->EndObject();
  w->Key("scheduling");
  w->String(SchedulingPolicyName(policy.scheduling));
  w->Key("serve");
  w->BeginObject();
  w->Key("max_inflight");
  w->Int(policy.serve.max_inflight);
  w->Key("aging_boost_s");
  w->Double(policy.serve.aging_boost_s);
  w->Key("shed_on_deadline");
  w->Bool(policy.serve.shed_on_deadline);
  w->EndObject();
  w->Key("expected_device_share");
  w->Double(policy.expected_device_share);
  w->EndObject();
}

Result<ExecutionPolicy> PlanJson::ReadPolicy(const JsonValue& v) {
  if (!v.is_object()) return Bad("policy", "expected an object");
  ExecutionPolicy p;
  HAPE_ASSIGN_OR_RETURN(p.devices, ReadIntArray(v, "devices", "policy"));
  HAPE_ASSIGN_OR_RETURN(p.build_devices,
                        ReadIntArray(v, "build_devices", "policy"));
  if (const JsonValue* s = v.Find("routing")) {
    if (s->kind() != JsonValue::Kind::kString) {
      return Bad("policy", "'routing' must be a string");
    }
    HAPE_ASSIGN_OR_RETURN(p.routing,
                          ParseEnum(s->str(), kRoutingNames, "routing policy"));
  }
  if (const JsonValue* s = v.Find("model")) {
    if (s->kind() != JsonValue::Kind::kString) {
      return Bad("policy", "'model' must be a string");
    }
    HAPE_ASSIGN_OR_RETURN(p.model,
                          ParseEnum(s->str(), kModelNames, "execution model"));
  }
  HAPE_RETURN_NOT_OK(ReadOptBool(v, "partitioned_gpu_join",
                                 &p.partitioned_gpu_join, "policy"));
  HAPE_RETURN_NOT_OK(ReadOptUint(v, "device_reserved_bytes",
                                 &p.device_reserved_bytes, "policy"));
  if (const JsonValue* a = v.Find("async")) {
    if (!a->is_object()) return Bad("policy", "'async' must be an object");
    int64_t depth = p.async.prefetch_depth;
    HAPE_RETURN_NOT_OK(ReadOptUint(*a, "prefetch_depth", &depth, "async"));
    if (depth > kMaxSmallKnob) {
      return Bad("async", "'prefetch_depth' is implausibly large");
    }
    p.async.prefetch_depth = static_cast<int>(depth);
  }
  if (const JsonValue* s = v.Find("scheduling")) {
    if (s->kind() != JsonValue::Kind::kString) {
      return Bad("policy", "'scheduling' must be a string");
    }
    HAPE_ASSIGN_OR_RETURN(
        p.scheduling,
        ParseEnum(s->str(), kSchedulingNames, "scheduling policy"));
  }
  if (const JsonValue* s = v.Find("serve")) {
    if (!s->is_object()) return Bad("policy", "'serve' must be an object");
    int64_t inflight = p.serve.max_inflight;
    HAPE_RETURN_NOT_OK(ReadOptUint(*s, "max_inflight", &inflight, "serve"));
    if (inflight > kMaxSmallKnob) {
      return Bad("serve", "'max_inflight' is implausibly large");
    }
    p.serve.max_inflight = static_cast<int>(inflight);
    HAPE_RETURN_NOT_OK(ReadOptNumber(*s, "aging_boost_s",
                                     &p.serve.aging_boost_s, "serve"));
    HAPE_RETURN_NOT_OK(ReadOptBool(*s, "shed_on_deadline",
                                   &p.serve.shed_on_deadline, "serve"));
  }
  HAPE_RETURN_NOT_OK(ReadOptNumber(v, "expected_device_share",
                                   &p.expected_device_share, "policy"));
  return p;
}

Result<std::string> PlanJson::Dump(const QueryPlan& plan) {
  return DumpImpl(plan, nullptr);
}

Result<std::string> PlanJson::Dump(const QueryPlan& plan,
                                   const ExecutionPolicy& policy) {
  return DumpImpl(plan, &policy);
}

Result<LoadedPlan> PlanJson::Load(std::string_view json,
                                  const storage::Catalog& catalog,
                                  const sim::Topology* topo,
                                  const char** rule) {
  Result<JsonValue> doc = JsonParser::Parse(json);
  if (!doc.ok()) {
    if (rule != nullptr) *rule = lint::kRuleUnreadable;
    return doc.status();
  }
  return Load(doc.value(), catalog, topo, rule);
}

Result<LoadedPlan> PlanJson::Load(const JsonValue& doc,
                                  const storage::Catalog& catalog,
                                  const sim::Topology* topo,
                                  const char** rule) {
  const char* why = lint::kRuleSchemaDrift;
  Result<LoadedPlan> out = LoadDocument(doc, catalog, topo, &why);
  if (!out.ok() && rule != nullptr) *rule = why;
  return out;
}

}  // namespace hape::engine
