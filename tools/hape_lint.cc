// hape_lint: static analysis of experiment manifests.
//
//   $ hape_lint examples/manifests/mix_q3_q5_q9.json
//   $ hape_lint --json report.json a.json b.json
//   $ hape_lint --rules
//
// Runs lint::LintManifestText over each manifest: the manifest's own
// fields (format/version drift, the tpch block, submit parameters,
// duplicate labels, the policy) and, per query, PlanJson::Load of the plan
// document followed by the full LintPlan pass on the loaded plan (structure
// and column widths through QueryPlan::Validate, catalog resolution,
// placement, GPU admission-budget fit, deadline reachability). The plans
// are checked against the TPC-H dataset the manifest's tpch block names;
// without a usable block they are not checked, and the report says so.
//
// Human-readable findings go to stderr; the JSON report (one object per
// file, the shape LintReport::ToJson pins) goes to stdout or --json PATH.
// Exit status: 0 = no error-severity findings, 1 = at least one error,
// 2 = usage or I/O failure. CI runs this over every checked-in manifest.

#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "common/json.h"
#include "lint/plan_lint.h"
#include "queries/tpch_queries.h"
#include "sim/topology.h"

using namespace hape;           // NOLINT — tool code
using namespace hape::queries;  // NOLINT

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: hape_lint [--json <path|->] [--rules] "
               "<manifest.json>...\n");
  return 2;
}

void PrintRules() {
  std::printf("%-7s %-8s %s\n", "code", "severity", "rule");
  for (const lint::RuleInfo& r : lint::RuleTable()) {
    std::printf("%-7s %-8s %s\n", r.code, lint::SeverityName(r.severity),
                r.title);
  }
}

/// TPC-H contexts keyed by (sf_actual, sf_nominal, seed): manifests linted
/// in one run often share one scale, and generation dominates the tool's
/// runtime.
class ContextCache {
 public:
  /// The catalog for `text`'s tpch block, or nullptr when the manifest has
  /// no usable block (the caller lints without a catalog then).
  const storage::Catalog* For(const std::string& text) {
    auto parsed = JsonParser::Parse(text);
    if (!parsed.ok() || !parsed.value().is_object()) return nullptr;
    const JsonValue* tpch = parsed.value().Find("tpch");
    if (tpch == nullptr) return nullptr;
    auto spec = ReadTpchSpec(*tpch);
    if (!spec.ok()) return nullptr;
    const auto [sf_actual, sf_nominal, seed] = spec.value();

    const auto key = std::make_tuple(sf_actual, sf_nominal, seed);
    if (auto it = cache_.find(key); it != cache_.end()) {
      return &it->second->catalog;
    }
    auto ctx = std::make_unique<TpchContext>();
    ctx->topo = topo_;
    ctx->sf_actual = sf_actual;
    ctx->sf_nominal = sf_nominal;
    if (const Status st = PrepareTpch(ctx.get(), seed); !st.ok()) {
      std::fprintf(stderr, "hape_lint: tpch generation failed: %s\n",
                   st.ToString().c_str());
      return nullptr;
    }
    auto [it, inserted] = cache_.emplace(key, std::move(ctx));
    (void)inserted;
    return &it->second->catalog;
  }

  explicit ContextCache(sim::Topology* topo) : topo_(topo) {}

 private:
  sim::Topology* topo_;
  std::map<std::tuple<double, double, uint64_t>, std::unique_ptr<TpchContext>>
      cache_;
};

}  // namespace

int main(int argc, char** argv) {
  const char* json_path = nullptr;
  std::vector<const char*> files;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--rules") == 0) {
      PrintRules();
      return 0;
    }
    if (std::strcmp(argv[i], "--json") == 0) {
      if (++i >= argc) return Usage();
      json_path = argv[i];
    } else if (argv[i][0] == '-') {
      return Usage();
    } else {
      files.push_back(argv[i]);
    }
  }
  if (files.empty()) return Usage();

  sim::Topology topo = sim::Topology::PaperServer();
  ContextCache contexts(&topo);

  JsonWriter report;
  report.BeginObject();
  report.Key("files");
  report.BeginArray();
  size_t total_errors = 0;
  size_t total_warnings = 0;
  bool io_failure = false;

  for (const char* path : files) {
    std::ifstream in(path);
    lint::LintReport r;
    if (!in) {
      r.Add(lint::kRuleUnreadable, path, "cannot read file");
      io_failure = true;
    } else {
      std::stringstream buf;
      buf << in.rdbuf();
      const std::string text = buf.str();
      r = lint::LintManifestText(text, &topo, contexts.For(text));
    }

    for (const lint::Diagnostic& d : r.diagnostics()) {
      std::fprintf(stderr, "%s: %s: %s [%s] %s%s%s\n", path,
                   lint::SeverityName(d.severity), d.path.c_str(),
                   d.code.c_str(), d.message.c_str(),
                   d.hint.empty() ? "" : " — ", d.hint.c_str());
    }
    std::fprintf(stderr, "%s: %s\n", path, r.Summary().c_str());
    total_errors += r.errors();
    total_warnings += r.warnings();

    report.BeginObject();
    report.Key("file");
    report.String(path);
    report.Key("report");
    r.ToJson(&report);
    report.EndObject();
  }

  report.EndArray();
  report.Key("errors");
  report.Uint(total_errors);
  report.Key("warnings");
  report.Uint(total_warnings);
  report.EndObject();

  if (json_path == nullptr || std::strcmp(json_path, "-") == 0) {
    std::printf("%s\n", report.str().c_str());
  } else {
    std::ofstream out(json_path);
    if (!out) {
      std::fprintf(stderr, "hape_lint: cannot write %s\n", json_path);
      return 2;
    }
    out << report.str() << "\n";
  }

  if (io_failure) return 2;
  return total_errors > 0 ? 1 : 0;
}
