// Schema tests for the engine's JSON documents (the plan document DumpPlan
// writes, Engine::Explain's run and schedule records, the trace): each is
// parsed back through common/json.h and validated structurally (required
// keys, kinds, cross-field consistency) instead of with string goldens.
// Also unit-tests the JSON parser itself against the writer.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/json.h"
#include "engine/engine.h"
#include "engine/scheduler.h"
#include "queries/tpch_queries.h"
#include "storage/tpch.h"

namespace hape::queries {
namespace {

using engine::Engine;
using engine::ExecutionPolicy;
using engine::ScheduleStats;
using engine::SchedulingPolicy;

// ---- JSON parser unit tests -------------------------------------------------

TEST(JsonParser, RoundTripsWriterOutput) {
  JsonWriter w;
  w.BeginObject();
  w.Key("s");
  w.String("a \"quoted\"\nline\tand \\ backslash");
  w.Key("i");
  w.Int(-42);
  w.Key("u");
  w.Uint(18446744073709551615ull);
  w.Key("d");
  w.Double(0.30009299038461529);
  w.Key("b");
  w.Bool(true);
  w.Key("n");
  w.Null();
  w.Key("arr");
  w.BeginArray();
  w.Int(1);
  w.BeginObject();
  w.Key("nested");
  w.Bool(false);
  w.EndObject();
  w.EndArray();
  w.EndObject();

  auto parsed = JsonParser::Parse(w.str());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const JsonValue& v = parsed.value();
  ASSERT_TRUE(v.is_object());
  EXPECT_EQ(v.Find("s")->str(), "a \"quoted\"\nline\tand \\ backslash");
  EXPECT_DOUBLE_EQ(v.Find("i")->number(), -42.0);
  EXPECT_DOUBLE_EQ(v.Find("d")->number(), 0.30009299038461529);
  EXPECT_TRUE(v.Find("b")->bool_value());
  EXPECT_EQ(v.Find("n")->kind(), JsonValue::Kind::kNull);
  ASSERT_TRUE(v.Find("arr")->is_array());
  ASSERT_EQ(v.Find("arr")->items().size(), 2u);
  EXPECT_FALSE(v.Find("arr")->items()[1].Find("nested")->bool_value());
  EXPECT_FALSE(v.Has("missing"));
}

TEST(JsonParser, RejectsMalformedDocuments) {
  for (const char* bad :
       {"", "{", "[1,", "{\"a\"}", "{\"a\":}", "tru", "1 2", "{\"a\":1,}",
        "\"unterminated", "nul"}) {
    EXPECT_FALSE(JsonParser::Parse(bad).ok()) << bad;
  }
}

TEST(JsonParser, DecodesUnicodeEscapesToUtf8) {
  // \uXXXX escapes >= 0x80 used to be rejected outright; they must decode
  // to UTF-8, including surrogate pairs for code points above the BMP.
  auto v = JsonParser::Parse(
      R"(["\u00e9", "\u20ac", "\ud83d\ude80", "caf\u00e9 \u65e5\u672c\u8a9e"])");
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  const auto& items = v.value().items();
  EXPECT_EQ(items[0].str(), "\xC3\xA9");              // é
  EXPECT_EQ(items[1].str(), "\xE2\x82\xAC");          // €
  EXPECT_EQ(items[2].str(), "\xF0\x9F\x9A\x80");      // U+1F680 🚀
  EXPECT_EQ(items[3].str(),
            "caf\xC3\xA9 \xE6\x97\xA5\xE6\x9C\xAC\xE8\xAA\x9E");
}

TEST(JsonParser, RejectsBrokenSurrogatePairs) {
  for (const char* bad :
       {R"("\ud83d")",           // lone high surrogate
        R"("\ude00")",           // lone low surrogate
        R"("\ud83dx")",          // high surrogate followed by a raw char
        R"("\ud83dA")",          // high surrogate, then a non-escape char
        R"("\ud8")",             // truncated escape
        R"("\ud83d\ude")"}) {    // truncated low half
    EXPECT_FALSE(JsonParser::Parse(bad).ok()) << bad;
  }
}

TEST(JsonWriter, NonAsciiStringsRoundTripWithParser) {
  // The writer passes non-ASCII bytes through raw (valid UTF-8 in, valid
  // UTF-8 out); the parser must hand back the identical bytes — the
  // property non-ASCII query labels in plan manifests rely on.
  const std::string label = "q5-\xCE\xBA\xCF\x8C\xCF\x83\xCE\xBC\xCE\xBF"
                            "\xCF\x82 \xF0\x9F\x9A\x80\ttab";
  JsonWriter w;
  w.BeginObject();
  w.Key("label");
  w.String(label);
  w.EndObject();
  auto parsed = JsonParser::Parse(w.str());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value().Find("label")->str(), label);
}

TEST(JsonParser, ParsesNumbersExactly) {
  auto v = JsonParser::Parse("[0, -1, 3.5, 1e3, 2.25e-2, 4503599627370496]");
  ASSERT_TRUE(v.ok());
  const auto& items = v.value().items();
  EXPECT_DOUBLE_EQ(items[0].number(), 0.0);
  EXPECT_DOUBLE_EQ(items[1].number(), -1.0);
  EXPECT_DOUBLE_EQ(items[2].number(), 3.5);
  EXPECT_DOUBLE_EQ(items[3].number(), 1000.0);
  EXPECT_DOUBLE_EQ(items[4].number(), 0.0225);
  EXPECT_DOUBLE_EQ(items[5].number(), 4503599627370496.0);
}

// ---- Explain schema ---------------------------------------------------------

class ExplainSchema : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    topo_ = new sim::Topology(sim::Topology::PaperServer());
    ctx_ = new TpchContext();
    ctx_->topo = topo_;
    ctx_->sf_actual = 0.01;
    ctx_->sf_nominal = 100.0;
    ASSERT_TRUE(PrepareTpch(ctx_).ok());
  }
  void SetUp() override { topo_->Reset(); }

  static void ExpectKeys(const JsonValue& obj,
                         const std::vector<const char*>& keys,
                         const std::string& where) {
    ASSERT_TRUE(obj.is_object()) << where;
    for (const char* k : keys) {
      EXPECT_TRUE(obj.Has(k)) << where << " missing key '" << k << "'";
    }
  }

  static sim::Topology* topo_;
  static TpchContext* ctx_;
};
sim::Topology* ExplainSchema::topo_ = nullptr;
TpchContext* ExplainSchema::ctx_ = nullptr;

void ExpectRunObject(const JsonValue& run, const std::string& where) {
  ASSERT_TRUE(run.is_object()) << where;
  for (const char* k :
       {"async", "finish_s", "placement_finish_s", "broadcast_bytes",
        "co_processed", "mem_moves", "moved_bytes", "transfer_busy_s",
        "transfer_exposed_s", "transfer_hidden_s", "peak_staged_bytes",
        "device_busy", "pipelines"}) {
    EXPECT_TRUE(run.Has(k)) << where << " missing key '" << k << "'";
  }
  // The hidden-vs-exposed split must be internally consistent.
  EXPECT_NEAR(run.Find("transfer_busy_s")->number() -
                  run.Find("transfer_exposed_s")->number(),
              run.Find("transfer_hidden_s")->number(), 1e-9)
      << where;
  ASSERT_TRUE(run.Find("pipelines")->is_array()) << where;
  for (const JsonValue& p : run.Find("pipelines")->items()) {
    for (const char* k :
         {"name", "start_s", "finish_s", "packets", "rows_out", "mem_moves",
          "moved_bytes", "transfer_busy_s", "transfer_exposed_s",
          "transfer_hidden_s"}) {
      EXPECT_TRUE(p.Has(k)) << where << " pipeline missing '" << k << "'";
    }
  }
  for (const JsonValue& d : run.Find("device_busy")->items()) {
    EXPECT_TRUE(d.Has("device")) << where;
    EXPECT_TRUE(d.Has("busy_s")) << where;
  }
}

TEST_F(ExplainSchema, PlanDocumentHasRequiredStructure) {
  ctx_->async = engine::AsyncOptions::Off();
  auto bq = BuildQ5Plan(ctx_);
  ASSERT_TRUE(bq.ok());
  Engine& eng = EngineFor(ctx_);
  const ExecutionPolicy policy =
      ExecutionPolicy::ForConfig(*topo_, EngineConfig::kProteusHybrid);
  ASSERT_TRUE(eng.Optimize(&bq.value().plan, policy).ok());

  auto dumped = eng.DumpPlan(bq.value().plan);
  ASSERT_TRUE(dumped.ok()) << dumped.status().ToString();
  auto parsed = JsonParser::Parse(dumped.value());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const JsonValue& doc = parsed.value();
  ExpectKeys(doc, {"format", "version", "plan"}, "plan doc");
  EXPECT_EQ(doc.Find("format")->str(), engine::PlanJson::kFormat);
  EXPECT_EQ(doc.Find("version")->number(), engine::PlanJson::kVersion);
  ExpectKeys(*doc.Find("plan"), {"name", "pipelines"}, "plan");
  const JsonValue& pipelines = *doc.Find("plan")->Find("pipelines");
  ASSERT_TRUE(pipelines.is_array());
  ASSERT_EQ(pipelines.items().size(), bq.value().plan.num_pipelines());
  bool saw_build = false, saw_probe_op = false;
  for (const JsonValue& p : pipelines.items()) {
    ExpectKeys(p,
               {"id", "name", "source", "scale", "deps", "run_on", "ops",
                "sink", "estimated"},
               "pipeline");
    ExpectKeys(*p.Find("source"), {"table", "columns", "chunk_rows"},
               "source");
    ExpectKeys(*p.Find("estimated"),
               {"out_rows", "nominal_out_rows", "cost_seconds"}, "estimated");
    const JsonValue& sink = *p.Find("sink");
    ExpectKeys(sink, {"kind"}, "sink");
    if (sink.Find("kind")->str() == "hash_build") {
      saw_build = true;
      ExpectKeys(sink, {"key", "payload_cols", "heavy", "ht_buckets"},
                 "build sink");
    }
    for (const JsonValue& op : p.Find("ops")->items()) {
      ASSERT_TRUE(op.Has("kind"));
      if (op.Find("kind")->str() == "probe") {
        saw_probe_op = true;
        ExpectKeys(op, {"build_pipeline", "key"}, "probe op");
      }
    }
  }
  EXPECT_TRUE(saw_build);
  EXPECT_TRUE(saw_probe_op);
}

void ExpectMetricsObject(const JsonValue& m, const std::string& where) {
  ASSERT_TRUE(m.is_object()) << where;
  for (const char* k : {"counters", "gauges", "histograms"}) {
    ASSERT_TRUE(m.Has(k)) << where << " missing '" << k << "'";
    ASSERT_TRUE(m.Find(k)->is_object()) << where << " '" << k << "'";
  }
  for (const auto& [name, g] : m.Find("gauges")->members()) {
    for (const char* k : {"value", "high_water"}) {
      EXPECT_TRUE(g.Has(k)) << where << " gauge " << name << " missing '"
                            << k << "'";
    }
  }
  for (const auto& [name, h] : m.Find("histograms")->members()) {
    for (const char* k : {"count", "sum", "min", "max", "bounds", "buckets"}) {
      EXPECT_TRUE(h.Has(k)) << where << " histogram " << name
                            << " missing '" << k << "'";
    }
    // One bucket per bound plus the +inf overflow bucket.
    EXPECT_EQ(h.Find("buckets")->items().size(),
              h.Find("bounds")->items().size() + 1)
        << where << " histogram " << name;
  }
}

TEST_F(ExplainSchema, RunDocumentCarriesOverlapAccounting) {
  ExecutionPolicy policy =
      ExecutionPolicy::ForConfig(*topo_, EngineConfig::kProteusHybrid);
  policy.async = engine::AsyncOptions::Depth(2);
  auto bq = BuildQ5Plan(ctx_);
  ASSERT_TRUE(bq.ok());
  Engine& eng = EngineFor(ctx_);
  engine::QueryPlan& plan = bq.value().plan;
  ASSERT_TRUE(eng.Optimize(&plan, policy).ok());
  auto run = eng.Run(&plan, policy);
  ASSERT_TRUE(run.ok()) << run.status().ToString();

  auto explained = eng.Explain(plan, run.value());
  ASSERT_TRUE(explained.ok()) << explained.status().ToString();
  auto parsed = JsonParser::Parse(explained.value());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const JsonValue& doc = parsed.value();
  ExpectKeys(doc, {"plan", "run", "metrics"}, "run doc");
  EXPECT_EQ(doc.members().size(), 3u);
  ExpectRunObject(*doc.Find("run"), "run");
  ExpectMetricsObject(*doc.Find("metrics"), "run doc metrics");
  EXPECT_TRUE(doc.Find("run")->Find("async")->bool_value());

  // The "plan" member is DumpPlan's document, byte for byte, and it
  // reloads into a plan that dumps to the same bytes.
  auto dumped = eng.DumpPlan(plan);
  ASSERT_TRUE(dumped.ok()) << dumped.status().ToString();
  const std::string head = "{\"plan\":" + dumped.value() + ",\"run\":";
  EXPECT_EQ(explained.value().substr(0, head.size()), head);
  auto loaded = eng.LoadPlan(dumped.value(), ctx_->catalog);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  auto redumped = eng.DumpPlan(loaded.value().plan);
  ASSERT_TRUE(redumped.ok()) << redumped.status().ToString();
  EXPECT_EQ(redumped.value(), dumped.value());
}

TEST_F(ExplainSchema, RunDocumentFailsWithDumpPlansStatus) {
  // A probe through another plan's BuildHandle names no build of this
  // plan, so the plan has no document: Explain returns DumpPlan's Status.
  engine::PlanBuilder other("other");
  engine::BuildHandle foreign =
      other.Scan(ctx_->catalog.Get("customer").value(), {"c_custkey"}, 1024)
          .HashBuild(expr::Expr::Col(0), {0});
  engine::QueryPlan other_plan = std::move(other).Build();
  engine::PlanBuilder b("foreign-probe");
  auto probe =
      b.Scan(ctx_->catalog.Get("orders").value(), {"o_custkey"}, 1024);
  probe.Probe(foreign, expr::Expr::Col(0));
  probe.Aggregate(nullptr, {engine::AggDef{engine::AggOp::kCount, nullptr}});
  engine::QueryPlan plan = std::move(b).Build();

  Engine& eng = EngineFor(ctx_);
  const auto dumped = eng.DumpPlan(plan);
  ASSERT_FALSE(dumped.ok());
  EXPECT_EQ(dumped.status().code(), StatusCode::kNotSupported);
  const auto explained = eng.Explain(plan, engine::RunStats{});
  ASSERT_FALSE(explained.ok());
  EXPECT_EQ(explained.status().code(), dumped.status().code());
  EXPECT_EQ(explained.status().ToString(), dumped.status().ToString());
}

TEST_F(ExplainSchema, ScheduleDocumentCarriesPerQueryFields) {
  ExecutionPolicy policy =
      ExecutionPolicy::ForConfig(*topo_, EngineConfig::kProteusHybrid);
  policy.async = engine::AsyncOptions::Depth(2);
  policy.scheduling = SchedulingPolicy::kFairShare;
  Engine eng(topo_);
  for (BuildFn build : {BuildQ3Plan, BuildQ5Plan}) {
    auto bq = build(ctx_);
    ASSERT_TRUE(bq.ok());
    ASSERT_TRUE(eng.Optimize(&bq.value().plan, policy).ok());
    eng.Submit(std::move(bq.value().plan));
  }
  auto sched = eng.RunAll(policy);
  ASSERT_TRUE(sched.ok()) << sched.status().ToString();

  auto parsed = JsonParser::Parse(eng.Explain(sched.value()));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const JsonValue& doc = parsed.value();
  ASSERT_TRUE(doc.Has("schedule"));
  ASSERT_TRUE(doc.Has("metrics"));
  ExpectMetricsObject(*doc.Find("metrics"), "schedule doc metrics");
  // Instruments the scheduler always feeds under any policy.
  const JsonValue& counters = *doc.Find("metrics")->Find("counters");
  EXPECT_TRUE(counters.Has("scheduler.queries"));
  EXPECT_TRUE(counters.Has("engine.pipelines"));
  const JsonValue& s = *doc.Find("schedule");
  ExpectKeys(s, {"policy", "num_queries", "makespan_s",
                 "peak_resident_bytes", "completed", "cancelled",
                 "deadline_exceeded", "shed", "device_busy", "tiers",
                 "queries"},
             "schedule");
  EXPECT_EQ(s.Find("policy")->str(), "fair-share");
  // No cancellations here: every query completed.
  EXPECT_EQ(s.Find("completed")->number(), s.Find("num_queries")->number());
  EXPECT_EQ(s.Find("cancelled")->number(), 0.0);
  EXPECT_EQ(s.Find("shed")->number(), 0.0);
  // Per-tier percentile rows partition the queries (everything lands in
  // tier 0 under the legacy policies).
  ASSERT_TRUE(s.Find("tiers")->is_array());
  uint64_t tiered_queries = 0;
  for (const JsonValue& t : s.Find("tiers")->items()) {
    ExpectKeys(t,
               {"tier", "queries", "completed", "cancelled",
                "deadline_exceeded", "shed", "queue_p50_s", "queue_p95_s",
                "queue_p99_s", "makespan_p50_s", "makespan_p95_s",
                "makespan_p99_s"},
               "schedule tier");
    tiered_queries += static_cast<uint64_t>(t.Find("queries")->number());
  }
  EXPECT_EQ(tiered_queries,
            static_cast<uint64_t>(s.Find("num_queries")->number()));
  const auto& queries = s.Find("queries")->items();
  ASSERT_EQ(queries.size(),
            static_cast<size_t>(s.Find("num_queries")->number()));
  for (const JsonValue& q : queries) {
    ExpectKeys(q,
               {"id", "label", "weight", "tier", "arrival_s", "admitted_s",
                "queueing_delay_s", "finish_s", "makespan_s", "outcome",
                "shed", "deadline_s", "copy_engine_bytes", "device_share",
                "run"},
               "schedule query");
    EXPECT_EQ(q.Find("outcome")->str(), "completed");
    EXPECT_FALSE(q.Find("shed")->bool_value());
    ExpectRunObject(*q.Find("run"), "schedule query run");
    // Shares are fractions of the schedule totals.
    for (const JsonValue& d : q.Find("device_share")->items()) {
      ExpectKeys(d, {"device", "busy_s", "share"}, "device_share");
      EXPECT_GE(d.Find("share")->number(), 0.0);
      EXPECT_LE(d.Find("share")->number(), 1.0 + 1e-12);
    }
    // Every query's makespan bounds the schedule's.
    EXPECT_LE(q.Find("makespan_s")->number(),
              s.Find("makespan_s")->number() + 1e-12);
  }
}

// Degenerate percentile samples must stay schema-valid and NaN-free
// through the whole Explain path: a tier whose only query was cancelled
// before running has an *empty* completed sample (all percentiles pin to
// 0), and a single-completed-query tier pins p50 == p95 == p99 to that
// one sample. NaN would not survive JsonParser::Parse, so a parseable
// document is itself the NaN-free proof.
TEST_F(ExplainSchema, DegeneratePercentileSamplesStayFiniteInExplain) {
  ExecutionPolicy policy =
      ExecutionPolicy::ForConfig(*topo_, EngineConfig::kProteusHybrid);
  policy.async = engine::AsyncOptions::Depth(1);
  policy.scheduling = SchedulingPolicy::kSlaTiered;
  Engine eng(topo_);
  // Tier 0: one query that completes. Tier 3: one query cancelled at t=0
  // — its tier's completed sample is empty.
  engine::SubmitOptions ok;
  ok.tier = 0;
  auto bq = BuildQ6Plan(ctx_);
  ASSERT_TRUE(bq.ok());
  ASSERT_TRUE(eng.Optimize(&bq.value().plan, policy).ok());
  eng.Submit(std::move(bq.value().plan), ok);
  engine::SubmitOptions doomed;
  doomed.tier = 3;
  auto bq2 = BuildQ6Plan(ctx_);
  ASSERT_TRUE(bq2.ok());
  ASSERT_TRUE(eng.Optimize(&bq2.value().plan, policy).ok());
  const int victim = eng.Submit(std::move(bq2.value().plan), doomed);
  ASSERT_TRUE(eng.Cancel(victim).ok());

  auto sched = eng.RunAll(policy);
  ASSERT_TRUE(sched.ok()) << sched.status().ToString();
  auto parsed = JsonParser::Parse(eng.Explain(sched.value()));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const JsonValue& s = *parsed.value().Find("schedule");
  EXPECT_EQ(s.Find("cancelled")->number(), 1.0);
  EXPECT_EQ(s.Find("shed")->number(), 1.0);
  ASSERT_EQ(s.Find("tiers")->items().size(), 2u);
  const JsonValue& completed_tier = s.Find("tiers")->items()[0];
  const JsonValue& cancelled_tier = s.Find("tiers")->items()[1];
  // Single-element sample: every percentile is that element.
  EXPECT_EQ(completed_tier.Find("completed")->number(), 1.0);
  EXPECT_EQ(completed_tier.Find("makespan_p50_s")->number(),
            completed_tier.Find("makespan_p99_s")->number());
  EXPECT_EQ(completed_tier.Find("queue_p50_s")->number(),
            completed_tier.Find("queue_p99_s")->number());
  // Empty sample (the tier's only query never completed): pinned zeros.
  EXPECT_EQ(cancelled_tier.Find("tier")->number(), 3.0);
  EXPECT_EQ(cancelled_tier.Find("completed")->number(), 0.0);
  EXPECT_EQ(cancelled_tier.Find("shed")->number(), 1.0);
  for (const char* k : {"queue_p50_s", "queue_p95_s", "queue_p99_s",
                        "makespan_p50_s", "makespan_p95_s",
                        "makespan_p99_s"}) {
    EXPECT_EQ(cancelled_tier.Find(k)->number(), 0.0) << k;
  }
  // The cancelled query's record carries its terminal outcome.
  for (const JsonValue& q : s.Find("queries")->items()) {
    if (static_cast<int>(q.Find("id")->number()) == victim) {
      EXPECT_EQ(q.Find("outcome")->str(), "cancelled");
      EXPECT_TRUE(q.Find("shed")->bool_value());
    } else {
      EXPECT_EQ(q.Find("outcome")->str(), "completed");
    }
  }
}

// The DumpTrace document follows the Chrome trace-event format: metadata
// records up front, and every event record fully keyed with monotone
// timestamps — the structural contract CI's trace-validation step and any
// external viewer (chrome://tracing, Perfetto) both rely on.
TEST_F(ExplainSchema, TraceDocumentFollowsChromeEventSchema) {
  ExecutionPolicy policy =
      ExecutionPolicy::ForConfig(*topo_, EngineConfig::kProteusHybrid);
  policy.async = engine::AsyncOptions::Depth(1);
  policy.scheduling = SchedulingPolicy::kFairShare;
  Engine eng(topo_);
  eng.SetTraceOptions(obs::TraceOptions{true});
  for (BuildFn build : {BuildQ3Plan, BuildQ5Plan}) {
    auto bq = build(ctx_);
    ASSERT_TRUE(bq.ok());
    ASSERT_TRUE(eng.Optimize(&bq.value().plan, policy).ok());
    eng.Submit(std::move(bq.value().plan));
  }
  ASSERT_TRUE(eng.RunAll(policy).ok());
  ASSERT_GT(eng.tracer().num_events(), 0u);

  auto parsed = JsonParser::Parse(eng.DumpTrace());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const JsonValue& doc = parsed.value();
  EXPECT_EQ(doc.Find("displayTimeUnit")->str(), "ms");
  ASSERT_TRUE(doc.Find("traceEvents")->is_array());
  bool saw_metadata = false, saw_span = false, saw_instant = false;
  bool in_metadata_prefix = true;
  double prev_ts = -1;
  for (const JsonValue& e : doc.Find("traceEvents")->items()) {
    ASSERT_TRUE(e.Has("ph"));
    const std::string& ph = e.Find("ph")->str();
    if (ph == "M") {
      EXPECT_TRUE(in_metadata_prefix) << "metadata after event records";
      saw_metadata = true;
      EXPECT_TRUE(e.Find("name")->str() == "process_name" ||
                  e.Find("name")->str() == "thread_name");
      ASSERT_TRUE(e.Find("args")->Has("name"));
      continue;
    }
    in_metadata_prefix = false;
    ExpectKeys(e, {"name", "cat", "pid", "tid", "ts", "args"}, "trace event");
    const double ts = e.Find("ts")->number();
    EXPECT_GE(ts, prev_ts) << "trace timestamps must be monotone";
    prev_ts = ts;
    if (ph == "X") {
      saw_span = true;
      ASSERT_TRUE(e.Has("dur"));
      EXPECT_GE(e.Find("dur")->number(), 0.0);
    } else {
      ASSERT_EQ(ph, "i");
      saw_instant = true;
      EXPECT_EQ(e.Find("s")->str(), "t");
    }
  }
  EXPECT_TRUE(saw_metadata);
  EXPECT_TRUE(saw_span);
  EXPECT_TRUE(saw_instant);
}

}  // namespace
}  // namespace hape::queries
