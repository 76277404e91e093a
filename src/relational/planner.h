#ifndef MSQL_RELATIONAL_PLANNER_H_
#define MSQL_RELATIONAL_PLANNER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "relational/binder.h"
#include "relational/value.h"

namespace msql::relational {

class Index;
class Table;

/// One FROM source as the planner sees it beyond its scope entry: size
/// and (for base tables) index access. Views pass a null `table` — they
/// are materialized before planning, so `row_count` is exact but no
/// index paths exist.
struct PlannerSource {
  size_t row_count = 0;
  const Table* table = nullptr;  // null for views
};

/// A single-source conjunct evaluated on that source's rows before the
/// join. Conjunct pointers borrow from the statement's bound WHERE and
/// are only valid while it outlives the plan.
struct PushedFilter {
  size_t source = 0;
  const BoundExpr* conjunct = nullptr;
};

/// How one base table's rows are fetched. Chosen by ChooseAccessPath
/// for SELECT sources, the naive single-table path and UPDATE/DELETE
/// alike, so every statement kind reads a table the same way.
///   - kScan: every live row, in RowId order.
///   - kEqual: the rows whose indexed column equals `key`. The equality
///     conjunct is consumed by the SELECT planner — lookup and predicate
///     agree on Value::Compare equality, so re-evaluating it would be
///     redundant.
///   - kRange: the rows whose indexed column lies in the inclusive
///     [`lo`, `hi`]; a NULL end is unbounded. The range conjuncts stay
///     filters and are re-evaluated on every fetched row, so a bound
///     that over-fetches never changes a result.
/// A probe fetches RowIds in ascending order, so it yields rows in the
/// order a scan would.
struct AccessPath {
  enum class Kind { kScan, kEqual, kRange };
  Kind kind = Kind::kScan;
  const Index* index = nullptr;
  std::string index_name;
  std::string column;
  Value key;                            // kEqual
  Value lo, hi;                         // kRange
  const BoundExpr* conjunct = nullptr;  // kEqual: the consumed conjunct

  bool is_probe() const { return kind != Kind::kScan; }

  /// "scan", "index probe <idx> [<col> = <key>]" or
  /// "index range <idx> [<col> >= <lo> AND <col> <= <hi>]" (an
  /// unbounded end is left out).
  std::string Explain() const;
};

/// Splits a bound predicate into its top-level AND conjuncts, appended
/// to `out` in left-to-right source order. A non-AND expression is its
/// own single conjunct. Because SQL's three-valued AND is TRUE iff every
/// conjunct is TRUE, a filter point may evaluate the conjuncts
/// independently and keep a row only when all of them hold.
void SplitConjuncts(const BoundExpr& e, std::vector<const BoundExpr*>* out);

/// Picks the access path for `table`, whose columns sit in the bound
/// scope from slot `first_slot` on, from a statement's top-level AND
/// conjuncts:
///   - the first `col = literal` (either operand order) on an indexed
///     column becomes an equality probe;
///   - else the `<`, `<=`, `>`, `>=` bounds against literals on the
///     first bounded indexed column merge into one inclusive range
///     (strict bounds on INTEGER columns tighten by one);
///   - else the table is scanned.
/// A NULL literal never probes (`= NULL` is never TRUE), and neither
/// does a literal that does not coerce losslessly to the column type
/// (Value::CoerceTo, e.g. `id >= 2.5` on INTEGER) or an INTEGER key of
/// magnitude >= 2^53 (Value::Compare compares numbers as doubles), so
/// the scan and its predicate decide. A conjunct the binder flags as
/// may-fail — mismatched operand types (`id = '7'`, `grp > 3` on TEXT),
/// division, a built-in call with wrong argument classes
/// (`LENGTH(id)`), a scalar subquery, a column outside the table — or
/// one that is not boolean makes the whole choice a scan: a probe
/// evaluates the WHERE on fewer rows and could miss an error the scan
/// raises. Pure analysis — no locks, no data access.
AccessPath ChooseAccessPath(const std::vector<const BoundExpr*>& conjuncts,
                            const Table& table, size_t first_slot);

/// One step of the join pipeline: bring `source` into the joined prefix.
/// With equi-keys the step is a build/probe hash join (build side = the
/// new source); without, a nested-loop cross step. `residual` holds the
/// conjuncts first decidable at this step (all referenced sources now
/// joined) that did not become hash keys.
struct JoinStep {
  size_t source = 0;
  struct EquiKey {
    size_t prefix_pos = 0;  // combined-row slot on the joined side
    size_t source_pos = 0;  // combined-row slot on the new source
    const BoundExpr* conjunct = nullptr;
  };
  std::vector<EquiKey> keys;
  std::vector<const BoundExpr*> residual;
  double estimated_rows = 0.0;  // of this source, after pushed filters
};

/// Physical plan for one SELECT: per-source access paths and filters,
/// a join order, and the leftover predicate. All conjunct pointers
/// borrow from the statement's bound WHERE.
struct SelectPlan {
  std::vector<std::string> source_names;
  std::vector<size_t> source_offsets;  // combined-row offset per source
  std::vector<size_t> source_widths;
  std::vector<double> estimated_rows;  // per source, after pushed filters

  std::vector<PushedFilter> filters;
  std::vector<AccessPath> access;  // per source; views always scan
  std::vector<JoinStep> steps;       // steps[0] seeds the pipeline
  /// Conjuncts only decidable on the fully joined row: scalar
  /// subqueries and expressions naming no source. Evaluated on the
  /// combined row, as the naive path evaluates them.
  std::vector<const BoundExpr*> final_residual;

  int64_t pushed_conjuncts = 0;
  int64_t equi_conjuncts = 0;

  /// Non-empty when the planner declined the statement (a WHERE conjunct
  /// names a column that did not bind); the executor then runs the
  /// naive cross-product join, which owns the error surfacing.
  std::string fallback_reason;

  size_t num_sources() const { return source_names.size(); }

  /// Deterministic human-readable rendering (the `\plan` / EXPLAIN
  /// text). Stable across runs for golden tests.
  std::string Explain() const;
};

/// Rewrites a SELECT into a physical plan from its WHERE (null for none)
/// bound against `scope`, one PlannerSource per scope source: splits the
/// WHERE into top-level AND conjuncts, attributes each to the sources
/// its column slots fall in, pushes single-source conjuncts below the
/// join, chooses each base table's access path from its pushed
/// conjuncts (ChooseAccessPath), turns two-source `a.x = b.y` conjuncts
/// into hash-join keys, and orders joins greedily by estimated
/// cardinality (smallest estimated source first, preferring sources
/// hash-connected to the joined prefix). Pure analysis — no locks, no
/// data access.
SelectPlan PlanSelect(const BoundExpr* where, const BindScope& scope,
                      const std::vector<PlannerSource>& sources);

}  // namespace msql::relational

#endif  // MSQL_RELATIONAL_PLANNER_H_
