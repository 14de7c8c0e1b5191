// Executes an experiment manifest: a checked-in JSON file naming the TPC-H
// scale, an ExecutionPolicy, and N serialized QueryPlans that are Submitted
// into one Engine and scheduled together — a BENCH_sched-style concurrent
// run reproducible from a file instead of C++ that rebuilds the plans.
//
//   $ ./example_manifest_run examples/manifests/mix_q3_q5_q9.json
//   $ ./example_manifest_run --trace t.json examples/manifests/mix.json
//   $ ./example_manifest_run --write examples/manifests/mix_q3_q5_q9.json
//
// --write regenerates the built-in manifest (hybrid fair-share mix of
// Q3 + Q5 + Q9* at async depth 1) by dumping the PlanBuilder plans through
// Engine::DumpPlan.
//
// Each query entry takes an optional "deadline_s" (absolute simulated
// seconds, 0 = none): past the cutoff the scheduler sheds the query at an
// admission decision point or aborts it at the next pipeline boundary,
// and the run table reports the outcome per query.

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.h"
#include "engine/plan_json.h"
#include "engine/scheduler.h"
#include "queries/tpch_queries.h"
#include "storage/tpch.h"

using namespace hape;           // NOLINT — example code
using namespace hape::queries;  // NOLINT

namespace {

int Fail(const std::string& what) {
  std::fprintf(stderr, "manifest_run: %s\n", what.c_str());
  return 1;
}

int WriteManifest(const char* path) {
  sim::Topology topo = sim::Topology::PaperServer();
  TpchContext ctx;
  ctx.topo = &topo;
  ctx.sf_actual = 0.01;
  ctx.sf_nominal = 100.0;
  if (const Status st = PrepareTpch(&ctx); !st.ok()) {
    return Fail("generation failed: " + st.ToString());
  }

  engine::ExecutionPolicy policy =
      engine::ExecutionPolicy::ForConfig(topo, EngineConfig::kProteusHybrid);
  policy.async = engine::AsyncOptions::Depth(1);
  policy.scheduling = engine::SchedulingPolicy::kFairShare;
  policy.expected_device_share = 1.0 / 3;

  engine::Engine& eng = EngineFor(&ctx);
  JsonWriter w;
  w.BeginObject();
  w.Key("format");
  w.String(kManifestFormat);
  w.Key("version");
  w.Int(kManifestVersion);
  w.Key("tpch");
  w.BeginObject();
  w.Key("sf_actual");
  w.Double(ctx.sf_actual);
  w.Key("sf_nominal");
  w.Double(ctx.sf_nominal);
  w.Key("seed");
  w.Uint(42);
  w.EndObject();
  w.Key("policy");
  engine::PlanJson::WritePolicy(&w, policy);
  w.Key("queries");
  w.BeginArray();
  struct Entry {
    const char* label;
    BuildFn build;
    double weight;
  };
  for (const Entry& e : {Entry{"q3", BuildQ3Plan, 1.0},
                         Entry{"q5", BuildQ5Plan, 1.0},
                         Entry{"q9", BuildQ9Plan, 1.0}}) {
    auto bq = e.build(&ctx);
    if (!bq.ok()) return Fail(bq.status().ToString());
    auto dumped = eng.DumpPlan(bq.value().plan);
    if (!dumped.ok()) return Fail(dumped.status().ToString());
    w.BeginObject();
    w.Key("label");
    w.String(e.label);
    w.Key("weight");
    w.Double(e.weight);
    w.Key("plan");
    w.Raw(dumped.value());
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();

  std::ofstream out(path);
  if (!out) return Fail(std::string("cannot write ") + path);
  out << w.str() << "\n";
  std::printf("wrote %s (%zu bytes)\n", path, w.str().size() + 1);
  return 0;
}

int RunManifest(const char* path, const char* trace_path) {
  std::ifstream in(path);
  if (!in) return Fail(std::string("cannot read ") + path);
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();

  auto parsed = JsonParser::Parse(text);
  if (!parsed.ok()) return Fail(parsed.status().ToString());
  const JsonValue& doc = parsed.value();
  if (const Status st = ReadManifestHeader(doc); !st.ok()) {
    return Fail(st.ToString());
  }

  // TPC-H context at the manifest's scale (plans chunk their scans in
  // actual rows, so the generated tables must match the dump).
  const JsonValue* tpch = doc.Find("tpch");
  if (tpch == nullptr) return Fail("missing 'tpch' object");
  auto spec = ReadTpchSpec(*tpch);
  if (!spec.ok()) return Fail(spec.status().ToString());
  sim::Topology topo = sim::Topology::PaperServer();
  TpchContext ctx;
  ctx.topo = &topo;
  ctx.sf_actual = spec.value().sf_actual;
  ctx.sf_nominal = spec.value().sf_nominal;
  if (const Status st = PrepareTpch(&ctx, spec.value().seed); !st.ok()) {
    return Fail("generation failed: " + st.ToString());
  }
  std::printf("TPC-H generated at SF %.3g, costed as SF %.0f\n",
              ctx.sf_actual, ctx.sf_nominal);

  const JsonValue* pol = doc.Find("policy");
  if (pol == nullptr) return Fail("missing 'policy' object");
  auto policy = engine::PlanJson::ReadPolicy(*pol);
  if (!policy.ok()) return Fail(policy.status().ToString());
  if (const Status st = policy.value().Validate(topo); !st.ok()) {
    return Fail(st.ToString());
  }

  const JsonValue* queries = doc.Find("queries");
  if (queries == nullptr || !queries->is_array() ||
      queries->items().empty()) {
    return Fail("'queries' must be a non-empty array");
  }

  engine::Engine eng(&topo);
  if (trace_path != nullptr) eng.SetTraceOptions(obs::TraceOptions{true});
  std::vector<engine::AggHandle> handles;
  std::vector<char> has_agg;  // collect-terminal plans have no agg handle
  std::vector<std::string> labels;
  for (const JsonValue& entry : queries->items()) {
    auto q = ReadManifestQuery(entry);
    if (!q.ok()) return Fail(q.status().ToString());
    if (!q.value().faults.empty()) return Fail(q.value().faults.front());
    if (q.value().plan == nullptr) return Fail("query entry without a 'plan'");
    auto loaded = engine::PlanJson::Load(*q.value().plan, ctx.catalog, &topo);
    if (!loaded.ok()) return Fail(loaded.status().ToString());
    if (const auto opt = eng.Optimize(&loaded.value().plan, policy.value());
        !opt.ok()) {
      return Fail(opt.status().ToString());
    }
    const engine::SubmitOptions& so = q.value().submit;
    const bool agg = !loaded.value().aggs.empty();
    handles.push_back(agg ? loaded.value().agg() : engine::AggHandle{});
    has_agg.push_back(agg ? 1 : 0);
    labels.push_back(so.label.empty() ? loaded.value().plan.name()
                                      : so.label);
    eng.Submit(std::move(loaded.value().plan), so);
  }

  auto sched = eng.RunAll(policy.value());
  if (!sched.ok()) return Fail(sched.status().ToString());
  const engine::ScheduleStats& s = sched.value();

  std::printf("\n%zu queries under %s scheduling, makespan %.3f s, "
              "peak resident %llu MiB\n\n",
              s.queries.size(),
              engine::SchedulingPolicyName(s.policy), s.makespan,
              static_cast<unsigned long long>(s.peak_resident_bytes >> 20));
  std::printf("%-8s %10s %12s %10s %-18s %10s\n", "query", "admit s",
              "queue s", "finish s", "outcome", "groups");
  for (size_t i = 0; i < s.queries.size(); ++i) {
    const engine::QueryRunStats& q = s.queries[i];
    std::printf("%-8s %10.3f %12.3f %10.3f %-18s ", labels[i].c_str(),
                q.admitted, q.queueing_delay_s(), q.finish,
                engine::QueryOutcomeName(q.outcome));
    if (has_agg[i]) {
      std::printf("%10llu\n",
                  static_cast<unsigned long long>(handles[i].result().size()));
    } else {
      std::printf("%10s\n", "-");
    }
  }

  // The machine-readable record, for diffing runs.
  std::ofstream out("MANIFEST_schedule.json");
  out << eng.Explain(s) << "\n";
  std::printf("\nschedule record written to MANIFEST_schedule.json\n");
  if (trace_path != nullptr) {
    std::ofstream tout(trace_path);
    tout << eng.DumpTrace() << "\n";
    std::printf("trace (%zu events) written to %s\n",
                eng.tracer().num_events(), trace_path);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 3 && std::strcmp(argv[1], "--write") == 0) {
    return WriteManifest(argv[2]);
  }
  if (argc == 4 && std::strcmp(argv[1], "--trace") == 0) {
    return RunManifest(argv[3], argv[2]);
  }
  if (argc == 2) return RunManifest(argv[1], nullptr);
  std::fprintf(stderr,
               "usage: %s [--trace out.json] <manifest.json>\n"
               "       %s --write <manifest.json>\n",
               argv[0], argv[0]);
  return 1;
}
