#ifndef MSQL_RELATIONAL_EXPR_EVAL_H_
#define MSQL_RELATIONAL_EXPR_EVAL_H_

#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "relational/binder.h"
#include "relational/sql/ast.h"
#include "relational/table.h"

namespace msql::relational {

/// Evaluates bound expressions (relational/binder.h) against rows.
///
/// A column reads its slot; name resolution happened once, at binding.
/// A column that did not resolve raises its stored resolve error here,
/// so errors still surface only on a row that is actually evaluated.
/// Operand type checks stay dynamic: they see the values, NULLs
/// included. Aggregate calls are *not* computed here — the executor
/// precomputes them per group and supplies their values indexed by the
/// calls' aggregate slots. A callback evaluates scalar subqueries (the
/// executor closes over the database and transaction).
class ExprEvaluator {
 public:
  using SubqueryFn = std::function<Result<Value>(const SelectStmt&)>;

  /// Rows hold the scope's slots from `first_slot` on: the whole
  /// combined row (0), or one FROM source's own row (its offset).
  explicit ExprEvaluator(SubqueryFn subquery_fn, size_t first_slot = 0)
      : subquery_fn_(std::move(subquery_fn)), first_slot_(first_slot) {}

  /// Supplies precomputed aggregate values (per current group).
  void set_aggregate_values(const Row* values) { aggregate_values_ = values; }

  /// Evaluates `e` against `row`.
  Result<Value> Eval(const BoundExpr& e, const Row& row) const;

  /// Evaluates `e` and collapses three-valued logic at a filter point:
  /// returns true iff the result is boolean TRUE (NULL and FALSE filter
  /// the row out, as SQL prescribes).
  Result<bool> EvalPredicate(const BoundExpr& e, const Row& row) const;

  /// SQL LIKE with '%' (any run) and '_' (any single char), matching
  /// case-sensitively as standard SQL does.
  static bool LikeMatch(std::string_view pattern, std::string_view text);

 private:
  Result<Value> EvalUnary(const BoundExpr& e, const Row& row) const;
  Result<Value> EvalBinary(const BoundExpr& e, const Row& row) const;
  Result<Value> EvalFunction(const BoundExpr& e, const Row& row) const;
  Result<Value> EvalComparison(BinaryOp op, const Value& left,
                               const Value& right) const;
  Result<Value> EvalArithmetic(BinaryOp op, const Value& left,
                               const Value& right) const;

  SubqueryFn subquery_fn_;
  size_t first_slot_;
  const Row* aggregate_values_ = nullptr;
};

}  // namespace msql::relational

#endif  // MSQL_RELATIONAL_EXPR_EVAL_H_
