#ifndef MSQL_RELATIONAL_BINDER_H_
#define MSQL_RELATIONAL_BINDER_H_

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "relational/schema.h"
#include "relational/sql/ast.h"

namespace msql::relational {

/// Resolves a FROM table name to its schema.
using SchemaResolver =
    std::function<Result<const TableSchema*>(std::string_view table)>;

/// The columns a statement's expressions can name: its FROM sources side
/// by side, in FROM order. A column's slot is its position in that
/// combined row. INSERT ... VALUES binds against the empty scope.
class BindScope {
 public:
  /// Appends `schema`'s columns under the effective (alias-or-table)
  /// name `name`, already lower-cased. `schema` must outlive the scope.
  void AddSource(std::string name, const TableSchema* schema);

  size_t num_sources() const { return sources_.size(); }
  const std::string& name(size_t source) const {
    return sources_[source].name;
  }
  const TableSchema& schema(size_t source) const {
    return *sources_[source].schema;
  }
  /// The first slot of `source`.
  size_t offset(size_t source) const { return sources_[source].offset; }
  /// Number of slots of all sources together.
  size_t width() const { return width_; }

  /// The source whose columns hold `slot`.
  size_t SourceOf(size_t slot) const;
  const ColumnDef& column(size_t slot) const;

  /// The one name resolver: the slot `qualifier.name` denotes (the
  /// qualifier may be empty), matched case-insensitively. Fails with
  /// NotFound "unknown column 'q.n'" or InvalidArgument "ambiguous column
  /// reference 'n'" (an unqualified name in several sources).
  Result<size_t> Resolve(std::string_view qualifier,
                         std::string_view name) const;

 private:
  struct Source {
    std::string name;
    const TableSchema* schema = nullptr;
    size_t offset = 0;
  };
  std::vector<Source> sources_;
  size_t width_ = 0;
};

/// An expression bound to a scope: the AST node plus what binding found
/// out about it. Every consumer reads this form: the evaluator its slots,
/// the planner its slots and may-fail flags, schema inference its types.
///
/// Errors stay lazy. A column that does not resolve keeps its resolve
/// error here, and the evaluator raises it only when that column is
/// evaluated on a row — so a statement over an empty table raises none.
struct BoundExpr {
  static constexpr size_t kNoSlot = static_cast<size_t>(-1);

  ExprKind kind = ExprKind::kColumnRef;
  /// The AST node: operators, literals, names and SQL text. Null for a
  /// column a '*' select item expanded to.
  const Expr* expr = nullptr;
  /// A resolved column: its slot in the scope's combined row. An
  /// aggregate call of a SELECT's items, HAVING or ORDER BY: its position
  /// in BoundSelect::aggregates. Otherwise kNoSlot.
  size_t slot = kNoSlot;
  /// Static result type: a column's declared type; INTEGER for INTEGER
  /// op INTEGER arithmetic and REAL for other arithmetic; BOOLEAN for
  /// comparisons, logic, LIKE, IN, BETWEEN and IS NULL; unary minus and
  /// one-argument SUM/MIN/MAX/ABS take their operand's type; COUNT and
  /// LENGTH are INTEGER, AVG and ROUND REAL, UPPER and LOWER TEXT; a
  /// scalar subquery takes its output column's type. kNull for the NULL
  /// literal (schema inference writes it as TEXT) and where the type is
  /// unknown, in which case `error` says why.
  Type type = Type::kNull;
  /// False only when evaluating the node fails on no row of the scope:
  /// every operand never fails and has the class its operator checks
  /// (numbers for arithmetic and unary minus, text for LIKE, booleans for
  /// AND/OR/NOT, comparable classes for comparisons, IN and BETWEEN;
  /// NULL passes every check), and built-in calls have the right arity
  /// and argument classes. Division, aggregates, scalar subqueries and
  /// unresolved columns may always fail. Stored values always have
  /// their column's type, which makes the flag hold on every row.
  bool may_fail = true;
  /// Why `type` is unknown: a column's resolve error, or the first error
  /// on the path that types the node (an operand's, an unknown
  /// function's, a scalar subquery's). Only a column's error is ever
  /// raised at run time; schema inference raises a select item's.
  Status error;
  /// Operands, in AST order (IN: operand, then the list; BETWEEN:
  /// operand, lo, hi). A scalar subquery has none: it binds its own
  /// scope when it runs.
  std::vector<BoundExpr> args;
};

/// Binds expressions against one scope. Binding never fails: errors are
/// stored in the nodes (see BoundExpr).
class Binder {
 public:
  /// `resolve` types scalar subqueries by inferring their schema.
  Binder(const BindScope* scope, SchemaResolver resolve)
      : scope_(scope), resolve_(std::move(resolve)) {}

  BoundExpr Bind(const Expr& e) const;
  /// Binds an optional clause (WHERE, HAVING) onto the heap, where its
  /// nodes never move; null for a null `e`.
  std::unique_ptr<BoundExpr> BindOptional(const Expr* e) const;

 private:
  void BindFunction(const FunctionCallExpr& f, BoundExpr* out) const;

  const BindScope* scope_;
  SchemaResolver resolve_;
};

/// A SELECT with every clause bound against its FROM scope. Nodes never
/// move once bound (WHERE and HAVING live on the heap), so `aggregates`
/// and conjunct pointers stay valid while the BoundSelect lives.
struct BoundSelect {
  struct Item {
    std::string name;  // output column name
    BoundExpr expr;
  };
  struct OrderKey {
    /// The output column a bare, unqualified name matches (it sorts by
    /// the output value), else kNoSlot and `expr` is evaluated.
    size_t output = BoundExpr::kNoSlot;
    BoundExpr expr;
    bool descending = false;
  };

  BindScope scope;
  std::vector<Item> items;  // '*' expanded: one per output column
  std::unique_ptr<BoundExpr> where;  // null without WHERE
  std::vector<BoundExpr> group_by;
  std::unique_ptr<BoundExpr> having;  // null without HAVING
  std::vector<OrderKey> order_by;
  /// Every aggregate call of the items, HAVING and ORDER BY, numbered by
  /// its `slot`. An aggregate nested in another's argument, in WHERE or
  /// in GROUP BY is not listed and fails when evaluated.
  std::vector<const BoundExpr*> aggregates;
  /// GROUP BY, HAVING or an aggregate among the items.
  bool aggregating = false;
};

/// Binds every clause of `select` against `scope`, its already resolved
/// FROM sources, and expands '*' items. Fails only on a '*' whose
/// qualifier names no source.
Result<BoundSelect> BindSelect(const SelectStmt& select, BindScope scope,
                               const SchemaResolver& resolve);

/// The output schema of a SELECT without running it (view schemas): one
/// column per bound item, named like the result column and typed by its
/// bound type. A '*' column keeps its declared definition. Unlike
/// execution this raises eagerly: an unknown FROM table, a '*' that
/// matches nothing, or a select item whose type is unknown.
Result<TableSchema> InferSelectSchema(std::string_view name,
                                      const SelectStmt& select,
                                      const SchemaResolver& resolve);

}  // namespace msql::relational

#endif  // MSQL_RELATIONAL_BINDER_H_
