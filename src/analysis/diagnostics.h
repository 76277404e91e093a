#ifndef MSQL_ANALYSIS_DIAGNOSTICS_H_
#define MSQL_ANALYSIS_DIAGNOSTICS_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace msql::analysis {

// ---------------------------------------------------------------------------
// Diagnostics framework
//
// Every finding produced by the MSQL semantic checker (MS1xx), the DOL plan
// verifier (DL2xx), and the parser/expander error paths is a `Diagnostic`:
// a machine-readable code, a severity, a source span pointing at the
// offending token, a human message, and an optional fix hint. Diagnostics
// render in two forms: a single line for logs and Status payloads, and a
// multi-line "pretty" form that excerpts the source line with a caret.
// ---------------------------------------------------------------------------

enum class Severity {
  kNote,
  kWarning,
  kError,
};

std::string_view SeverityName(Severity severity);

/// Position of a token in the analyzed source. Lines and columns are
/// 1-based (matching relational::sql::Token); line 0 means "unknown".
struct SourceSpan {
  int line = 0;
  int column = 0;
  int length = 1;

  static SourceSpan At(int line, int column, int length = 1) {
    return SourceSpan{line, column, length};
  }

  bool known() const { return line > 0; }

  /// "line 3 col 14", or "" when unknown. Matches Token::Where().
  std::string ToString() const;
};

/// Error-code taxonomy. MS1xx = MSQL semantic errors (checker + parser +
/// expander); DL2xx = DOL plan errors (verifier). See DESIGN.md §8.
namespace diag {
// -- MS1xx: MSQL semantic ---------------------------------------------------
inline constexpr std::string_view kUnknownDatabase = "MS101";
inline constexpr std::string_view kUnknownTable = "MS102";
inline constexpr std::string_view kUnknownColumn = "MS103";
inline constexpr std::string_view kLetTypeMismatch = "MS104";
inline constexpr std::string_view kEmptyWildcard = "MS105";
inline constexpr std::string_view kOptionalNowhere = "MS106";
inline constexpr std::string_view kOptionalEverywhere = "MS107";
inline constexpr std::string_view kDuplicateEffectiveName = "MS108";
inline constexpr std::string_view kCompOnNonVital = "MS109";
inline constexpr std::string_view kCompUnknownDatabase = "MS110";
inline constexpr std::string_view kVitalSetUnenforceable = "MS111";
inline constexpr std::string_view kLetTargetMissing = "MS112";
inline constexpr std::string_view kLetArityMismatch = "MS113";
inline constexpr std::string_view kServiceNotIncorporated = "MS114";
// -- DL2xx: DOL plan --------------------------------------------------------
inline constexpr std::string_view kStateTestUndefinedTask = "DL201";
inline constexpr std::string_view kUnsatisfiableStateTest = "DL202";
inline constexpr std::string_view kUnreachableBranch = "DL203";
inline constexpr std::string_view kChannelNeverUsed = "DL204";
inline constexpr std::string_view kChannelNeverClosed = "DL205";
inline constexpr std::string_view kUndefinedChannel = "DL206";
inline constexpr std::string_view kDecisionOnUnpreparedTask = "DL207";
inline constexpr std::string_view kCompensateWithoutBlock = "DL208";
inline constexpr std::string_view kVitalTaskUncovered = "DL209";
inline constexpr std::string_view kDuplicateTaskName = "DL210";
// -- DL3xx: conflict & deadlock analysis ------------------------------------
inline constexpr std::string_view kLockOrderInversion = "DL301";
inline constexpr std::string_view kSelfDeadlock = "DL302";
inline constexpr std::string_view kExclusiveHeldAcrossRetry = "DL303";
inline constexpr std::string_view kUncommittedIntraRead = "DL304";
inline constexpr std::string_view kWideTwoPcBracket = "DL305";
inline constexpr std::string_view kOpaqueTaskSql = "DL306";
inline constexpr std::string_view kParallelSiblingWrites = "DL307";
inline constexpr std::string_view kDdlOnSharedTable = "DL308";
}  // namespace diag

struct Diagnostic {
  std::string code;
  Severity severity = Severity::kError;
  SourceSpan span;
  std::string message;
  std::string fix_hint;

  /// Single-line form: `error[MS101] line 1 col 5: message`.
  std::string Render() const;

  /// Multi-line form excerpting the offending source line:
  ///
  ///   error[MS103] line 2 col 12: column 'ratee' resolves in no database
  ///     2 | SELECT ratee FROM flights
  ///       |        ^~~~~
  ///     help: did you mean 'rate'?
  std::string RenderPretty(std::string_view source) const;
};

/// Ordered list of diagnostics with severity accounting.
class DiagnosticList {
 public:
  Diagnostic& Add(std::string_view code, Severity severity, SourceSpan span,
                  std::string message, std::string fix_hint = "");
  void Append(const DiagnosticList& other);

  const std::vector<Diagnostic>& items() const { return items_; }
  bool empty() const { return items_.empty(); }
  size_t size() const { return items_.size(); }
  size_t error_count() const;
  size_t warning_count() const;
  bool has_errors() const { return error_count() > 0; }

  /// First diagnostic carrying `code`, or nullptr.
  const Diagnostic* Find(std::string_view code) const;

  /// All diagnostics, one single-line rendering per line.
  std::string RenderAll() const;

  /// OK when no errors; otherwise an InvalidArgument status whose message
  /// is the single-line rendering of every error-severity diagnostic.
  Status ToStatus() const;

 private:
  std::vector<Diagnostic> items_;
};

}  // namespace msql::analysis

#endif  // MSQL_ANALYSIS_DIAGNOSTICS_H_
