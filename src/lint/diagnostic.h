#ifndef HAPE_LINT_DIAGNOSTIC_H_
#define HAPE_LINT_DIAGNOSTIC_H_

#include <cstddef>
#include <string>
#include <vector>

#include "common/json.h"

namespace hape::lint {

/// How bad a finding is. kError findings describe plans/policies/manifests
/// that will fail, deadlock admission, or silently misbehave at run time;
/// kWarning findings are legal but suspicious (unreachable deadlines,
/// ignored knobs); kNote is informational context attached by a pass.
enum class Severity { kNote, kWarning, kError };

const char* SeverityName(Severity s);

/// Stable rule identifiers (HL###). Every diagnostic carries exactly one.
/// The numeric ranges group by subject: HL00x structure, HL0[1-6] plan
/// semantics, HL0[7-9]/HL01x scheduling and serving, HL011+ documents.
/// Codes are append-only: never renumber a shipped rule.
inline constexpr const char* kRuleUnreadable = "HL000";
inline constexpr const char* kRuleDanglingEdge = "HL001";
inline constexpr const char* kRuleCyclicPlan = "HL002";
inline constexpr const char* kRuleColumnOutOfRange = "HL003";
inline constexpr const char* kRuleUnknownTableOrColumn = "HL004";
inline constexpr const char* kRuleInfeasiblePlacement = "HL005";
inline constexpr const char* kRuleGpuOvercommit = "HL006";
inline constexpr const char* kRuleUnreachableDeadline = "HL007";
inline constexpr const char* kRuleInvalidParameter = "HL008";
inline constexpr const char* kRulePolicyNeedsAsync = "HL009";
inline constexpr const char* kRuleIgnoredServeKnob = "HL010";
inline constexpr const char* kRuleSchemaDrift = "HL011";
inline constexpr const char* kRuleSuspiciousExpr = "HL012";
inline constexpr const char* kRuleDuplicateLabel = "HL013";
/// Retired: nothing reports it. Declared build rows past the source are
/// HL008 (QueryPlan::Validate).
inline constexpr const char* kRuleBuildAnnotation = "HL014";

/// One row of the shipped rule table (CLI --rules, README).
struct RuleInfo {
  const char* code;
  Severity severity;
  const char* title;
};

/// All shipped rules, ascending by code.
const std::vector<RuleInfo>& RuleTable();

/// Default severity of `code`; kError for unknown codes (fail safe).
Severity RuleSeverity(const char* code);

/// One finding of the lint pass: where it is (a human-readable node/query
/// path like "plan 'q5' pipeline #4 op #2"), what rule fired, and what to
/// do about it.
struct Diagnostic {
  Severity severity = Severity::kWarning;
  std::string code;     ///< HL### rule identifier
  std::string path;     ///< node / query / document path
  std::string message;  ///< what is wrong
  std::string hint;     ///< how to fix it (may be empty)
};

/// The outcome of linting one subject (a plan, a policy, a manifest).
/// Accumulates diagnostics across passes; serializes to the stable JSON
/// shape the CLI emits and the golden tests pin.
class LintReport {
 public:
  void Add(Severity severity, const char* code, std::string path,
           std::string message, std::string hint = "");
  /// Add with the rule's default severity (RuleSeverity).
  void Add(const char* code, std::string path, std::string message,
           std::string hint = "");
  /// Append every diagnostic of `other`.
  void Merge(const LintReport& other);

  const std::vector<Diagnostic>& diagnostics() const { return diags_; }
  size_t errors() const;
  size_t warnings() const;
  bool has_errors() const { return errors() > 0; }
  bool empty() const { return diags_.empty(); }

  /// True when any diagnostic carries `code`.
  bool Has(const char* code) const;

  /// "<N> error(s), <M> warning(s); first: HL### <message>" — the compact
  /// form embedded in Status messages and log lines.
  std::string Summary() const;

  /// {"diagnostics":[{severity,code,path,message,hint},...],
  ///  "errors":N,"warnings":N}
  void ToJson(JsonWriter* w) const;
  std::string ToJsonString() const;

 private:
  std::vector<Diagnostic> diags_;
};

}  // namespace hape::lint

#endif  // HAPE_LINT_DIAGNOSTIC_H_
