#include "lint/diagnostic.h"

#include <cstring>
#include <sstream>

namespace hape::lint {

const char* SeverityName(Severity s) {
  switch (s) {
    case Severity::kNote:
      return "note";
    case Severity::kWarning:
      return "warning";
    case Severity::kError:
      return "error";
  }
  return "error";
}

const std::vector<RuleInfo>& RuleTable() {
  static const std::vector<RuleInfo> kTable = {
      {kRuleUnreadable, Severity::kError,
       "document unreadable or not valid JSON"},
      {kRuleDanglingEdge, Severity::kError,
       "dangling dependency or probe edge (unknown or non-build target)"},
      {kRuleCyclicPlan, Severity::kError,
       "cycle in the dependency/probe graph"},
      {kRuleColumnOutOfRange, Severity::kError,
       "expression or sink references a column index past the pipeline width"},
      {kRuleUnknownTableOrColumn, Severity::kError,
       "scan references a table or column absent from the catalog"},
      {kRuleInfeasiblePlacement, Severity::kError,
       "device placement infeasible for the topology or policy"},
      {kRuleGpuOvercommit, Severity::kError,
       "estimated resident build bytes exceed the GPU admission budget"},
      {kRuleUnreachableDeadline, Severity::kWarning,
       "deadline unreachable given cost-model estimates"},
      {kRuleInvalidParameter, Severity::kError,
       "invalid submit/manifest parameter (weight, deadline, scale)"},
      {kRulePolicyNeedsAsync, Severity::kError,
       "scheduling policy requires knobs the policy disables"},
      {kRuleIgnoredServeKnob, Severity::kWarning,
       "serve knob has no effect under the configured scheduling policy"},
      {kRuleSchemaDrift, Severity::kError,
       "document format/version drift from what this build writes"},
      {kRuleSuspiciousExpr, Severity::kWarning,
       "suspicious expression (non-boolean predicate, constant key)"},
      {kRuleDuplicateLabel, Severity::kWarning,
       "duplicate query label in one manifest"},
      {kRuleBuildAnnotation, Severity::kWarning,
       "retired: declared build rows past the source are HL008"},
  };
  return kTable;
}

Severity RuleSeverity(const char* code) {
  for (const RuleInfo& r : RuleTable()) {
    if (std::strcmp(r.code, code) == 0) return r.severity;
  }
  return Severity::kError;
}

void LintReport::Add(Severity severity, const char* code, std::string path,
                     std::string message, std::string hint) {
  Diagnostic d;
  d.severity = severity;
  d.code = code;
  d.path = std::move(path);
  d.message = std::move(message);
  d.hint = std::move(hint);
  diags_.push_back(std::move(d));
}

void LintReport::Add(const char* code, std::string path, std::string message,
                     std::string hint) {
  Add(RuleSeverity(code), code, std::move(path), std::move(message),
      std::move(hint));
}

void LintReport::Merge(const LintReport& other) {
  diags_.insert(diags_.end(), other.diags_.begin(), other.diags_.end());
}

size_t LintReport::errors() const {
  size_t n = 0;
  for (const Diagnostic& d : diags_) {
    if (d.severity == Severity::kError) ++n;
  }
  return n;
}

size_t LintReport::warnings() const {
  size_t n = 0;
  for (const Diagnostic& d : diags_) {
    if (d.severity == Severity::kWarning) ++n;
  }
  return n;
}

bool LintReport::Has(const char* code) const {
  for (const Diagnostic& d : diags_) {
    if (d.code == code) return true;
  }
  return false;
}

std::string LintReport::Summary() const {
  std::ostringstream out;
  out << errors() << " error(s), " << warnings() << " warning(s)";
  // Lead with the first error if any, else the first diagnostic: the one
  // line a Status message has room for should name the blocking finding.
  const Diagnostic* first = nullptr;
  for (const Diagnostic& d : diags_) {
    if (d.severity == Severity::kError) {
      first = &d;
      break;
    }
  }
  if (first == nullptr && !diags_.empty()) first = &diags_.front();
  if (first != nullptr) {
    out << "; first: " << first->code << " " << first->path << ": "
        << first->message;
  }
  return out.str();
}

void LintReport::ToJson(JsonWriter* w) const {
  w->BeginObject();
  w->Key("diagnostics");
  w->BeginArray();
  for (const Diagnostic& d : diags_) {
    w->BeginObject();
    w->Key("severity");
    w->String(SeverityName(d.severity));
    w->Key("code");
    w->String(d.code);
    w->Key("path");
    w->String(d.path);
    w->Key("message");
    w->String(d.message);
    w->Key("hint");
    w->String(d.hint);
    w->EndObject();
  }
  w->EndArray();
  w->Key("errors");
  w->Uint(errors());
  w->Key("warnings");
  w->Uint(warnings());
  w->EndObject();
}

std::string LintReport::ToJsonString() const {
  JsonWriter w;
  ToJson(&w);
  return w.str();
}

}  // namespace hape::lint
