#ifndef CEP2ASP_ANALYSIS_DIAGNOSTIC_H_
#define CEP2ASP_ANALYSIS_DIAGNOSTIC_H_

#include <string>
#include <vector>

#include "common/status.h"

namespace cep2asp {

/// Severity of a diagnostic. Errors describe plans/graphs that would
/// produce wrong matches (or none) if executed; executors refuse to run
/// them. Warnings flag suspicious-but-runnable constructs. Infos report
/// facts about an otherwise-fine plan (e.g. why a forward edge was not
/// chained) that only matter when tuning. Appended, never reordered —
/// the underlying values are stable.
enum class DiagnosticSeverity : uint8_t { kWarning, kError, kInfo };

const char* DiagnosticSeverityToString(DiagnosticSeverity severity);

/// Stable diagnostic identifiers, one per lint rule. The numeric ranges
/// partition by analysis layer:
///   1xx — SEA pattern rules        (analysis/pattern_rules)
///   2xx — logical-plan rules       (analysis/plan_rules)
///   3xx — job-graph rules          (analysis/graph_rules, chain_rules)
/// Codes render as "CEP2ASP-E201" / "CEP2ASP-W305" / "CEP2ASP-I315"; the
/// letter is the severity, the number is stable across releases (tests
/// and downstream tooling match on it).
enum class DiagnosticCode : int {
  // --- pattern layer (1xx) -----------------------------------------------
  kPatternNoRoot = 100,             // E: pattern has no structure tree
  kPatternWindowNotPositive = 101,  // E: WITHIN window <= 0
  kPatternSlideInvalid = 102,       // E: slide <= 0 or slide > window
  kPatternFilterUnsatisfiable = 103,// W: atom filter can never hold
  kPatternIterCountInvalid = 104,   // E: ITER with m < 1
  kPatternIterConstraintUnused = 105,// W: consecutive constraint with m == 1
  kPatternPredicateVarOutOfRange = 106,  // E: WHERE references bad position
  kPatternPushdownMissed = 107,     // W: single-variable cross predicate

  // --- logical-plan layer (2xx) ------------------------------------------
  kPlanNodeMalformed = 200,         // E: wrong input count for node kind
  kPlanWindowSpanMismatch = 201,    // E: node window != plan window
  kPlanWindowSpecInvalid = 202,     // E: size/slide not a valid window
  kPlanPredicateIndexOutOfRange = 203,  // E: predicate outside tuple arity
  kPlanSeqOrderLost = 204,          // E: SEQ order not enforced by plan
  kPlanIntermediateJoinDuplicates = 205,  // E: inner join without dedup_pairs
  kPlanRootJoinDeduplicated = 206,  // W: root join suppresses duplicates
  kPlanJoinKeyMismatch = 207,       // E: join sides keyed differently
  kPlanJoinInputUnkeyed = 208,      // W: join input has no key assignment
  kPlanAggregateMinCountInvalid = 209,   // W: min_count < 1 fires always
  kPlanReorderInvalid = 210,        // E: reorder permutation not a bijection
  kPlanUnionArityMismatch = 211,    // E: union inputs differ in arity
  kPlanJoinPositionsOverlap = 212,  // E: join sides share match positions
  kPlanKeyAttrNonIntegral = 213,    // W: continuous-valued partition key

  // --- job-graph layer (3xx) ---------------------------------------------
  kGraphInputPortUnfed = 301,       // E: operator input port has no edge
  kGraphInputPortMultiplyFed = 302, // E: >1 edge into one input port
  kGraphCycle = 303,                // E: graph is not acyclic
  kGraphNoSource = 304,             // E: no source nodes at all
  kGraphSourceUnconnected = 305,    // W: source output goes nowhere
  kGraphOperatorUnreachable = 306,  // W: no source upstream (no watermarks)
  kGraphTerminalNotSink = 307,      // W: results dropped at non-sink
  kGraphStatefulUnkeyed = 308,      // W: keyed state, unpartitioned input
  kGraphFanInAccountingBroken = 309,// E: num_input_edges != actual edges
  kGraphWindowSpanMismatch = 310,   // E: sliding operators disagree on spec
  kGraphWindowSpecInvalid = 311,    // E: windowed operator spec invalid
  kGraphKeyedParallelNotHashed = 312,  // E: parallel keyed op, non-hash edge
  kGraphParallelismExceedsKeys = 313,  // W: parallelism > distinct keys
  kGraphParallelUnsupported = 314,  // E: parallelism > 1 where unsupported
  kGraphForwardEdgeNotChained = 315,// I: forward edge left unfused (why)
  // 316 is retired (it flagged the removed thread-per-subtask engine
  // oversubscribing the host); the number is not reused.
  kGraphExprCompilation = 317,      // I: filter/map expression-exec report
  kGraphFilterAlwaysFalse = 318,    // E: filter provably rejects everything
  kGraphFilterAlwaysTrue = 319,     // W: filter provably passes everything
  kGraphRangeReport = 320,          // I: derived attribute-range/selectivity
  kGraphExprVerifyFailed = 321,     // E: compiled bytecode fails verification
  kGraphColumnarStatus = 322,       // I: per-edge columnar/row-major/shim
};

/// Severity a code always carries (the letter in its rendered name).
DiagnosticSeverity DiagnosticCodeSeverity(DiagnosticCode code);

/// Renders the stable identifier, e.g. "CEP2ASP-E201".
std::string DiagnosticCodeName(DiagnosticCode code);

/// One-line rule description for the registry listing (plan_lint --codes).
const char* DiagnosticCodeDescription(DiagnosticCode code);

/// All registered codes, ascending (registry enumeration for tooling).
const std::vector<DiagnosticCode>& AllDiagnosticCodes();

/// \brief One analyzer finding: a coded, located, human-readable message.
struct Diagnostic {
  DiagnosticCode code = DiagnosticCode::kPatternNoRoot;
  DiagnosticSeverity severity = DiagnosticSeverity::kError;
  /// Where in the artifact the rule fired, e.g. "atom e2", "plan node
  /// win-join[3]", "node 4 (win-join) port 1".
  std::string location;
  std::string message;

  /// "CEP2ASP-E201 [plan node win-join] window (5,1) != plan window (10,1)".
  std::string ToString() const;
};

/// \brief Ordered collection of diagnostics produced by an analysis pass.
class DiagnosticReport {
 public:
  DiagnosticReport() = default;

  void Add(DiagnosticCode code, std::string location, std::string message);

  /// Appends every diagnostic of `other`.
  void Merge(const DiagnosticReport& other);

  const std::vector<Diagnostic>& diagnostics() const { return diagnostics_; }
  bool empty() const { return diagnostics_.empty(); }

  int error_count() const;
  int warning_count() const;
  int info_count() const;
  bool has_errors() const { return error_count() > 0; }

  /// True when some diagnostic carries `code`.
  bool Has(DiagnosticCode code) const;

  /// First E-level diagnostic, or nullptr.
  const Diagnostic* FirstError() const;

  /// Converts the report to a Status: OK when error-free, otherwise
  /// FailedPrecondition carrying the first error's code and message.
  Status ToStatus() const;

  /// Multi-line rendering, one diagnostic per line; "" when empty.
  std::string ToString() const;

 private:
  std::vector<Diagnostic> diagnostics_;
};

}  // namespace cep2asp

#endif  // CEP2ASP_ANALYSIS_DIAGNOSTIC_H_
