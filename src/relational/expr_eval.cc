#include "relational/expr_eval.h"

#include <cmath>

#include "common/string_util.h"

namespace msql::relational {

bool ExprEvaluator::LikeMatch(std::string_view pattern,
                              std::string_view text) {
  size_t p = 0, t = 0;
  size_t star = std::string_view::npos;
  size_t star_t = 0;
  while (t < text.size()) {
    if (p < pattern.size() &&
        (pattern[p] == '%' || pattern[p] == '_' || pattern[p] == text[t])) {
      if (pattern[p] == '%') {
        star = p;
        star_t = t;
        ++p;
      } else {
        ++p;
        ++t;
      }
    } else if (star != std::string_view::npos) {
      p = star + 1;
      t = ++star_t;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '%') ++p;
  return p == pattern.size();
}

Result<Value> ExprEvaluator::Eval(const BoundExpr& e, const Row& row) const {
  switch (e.kind) {
    case ExprKind::kLiteral:
      return static_cast<const LiteralExpr&>(*e.expr).value();
    case ExprKind::kColumnRef: {
      if (e.slot == BoundExpr::kNoSlot) return e.error;
      if (e.slot < first_slot_ || e.slot - first_slot_ >= row.size()) {
        return Status::Internal("column slot " + std::to_string(e.slot) +
                                " outside the evaluated row");
      }
      return row[e.slot - first_slot_];
    }
    case ExprKind::kUnary:
      return EvalUnary(e, row);
    case ExprKind::kBinary:
      return EvalBinary(e, row);
    case ExprKind::kFunctionCall:
      return EvalFunction(e, row);
    case ExprKind::kScalarSubquery: {
      if (!subquery_fn_) {
        return Status::ExecutionError(
            "scalar subquery not supported in this context");
      }
      return subquery_fn_(
          static_cast<const ScalarSubqueryExpr&>(*e.expr).select());
    }
    case ExprKind::kInList: {
      MSQL_ASSIGN_OR_RETURN(Value operand, Eval(e.args[0], row));
      if (operand.is_null()) return Value::Null_();
      bool saw_null = false;
      for (size_t i = 1; i < e.args.size(); ++i) {
        MSQL_ASSIGN_OR_RETURN(Value v, Eval(e.args[i], row));
        if (v.is_null()) {
          saw_null = true;
          continue;
        }
        MSQL_ASSIGN_OR_RETURN(Value eq,
                              EvalComparison(BinaryOp::kEq, operand, v));
        if (eq.is_boolean() && eq.AsBoolean()) {
          return Value::Boolean(
              !static_cast<const InListExpr&>(*e.expr).negated());
        }
      }
      if (saw_null) return Value::Null_();  // SQL: unknown membership
      return Value::Boolean(static_cast<const InListExpr&>(*e.expr).negated());
    }
    case ExprKind::kBetween: {
      MSQL_ASSIGN_OR_RETURN(Value v, Eval(e.args[0], row));
      MSQL_ASSIGN_OR_RETURN(Value lo, Eval(e.args[1], row));
      MSQL_ASSIGN_OR_RETURN(Value hi, Eval(e.args[2], row));
      if (v.is_null() || lo.is_null() || hi.is_null()) return Value::Null_();
      MSQL_ASSIGN_OR_RETURN(Value ge, EvalComparison(BinaryOp::kGe, v, lo));
      MSQL_ASSIGN_OR_RETURN(Value le, EvalComparison(BinaryOp::kLe, v, hi));
      bool inside = ge.is_boolean() && ge.AsBoolean() && le.is_boolean() &&
                    le.AsBoolean();
      return Value::Boolean(
          static_cast<const BetweenExpr&>(*e.expr).negated() ? !inside
                                                             : inside);
    }
  }
  return Status::Internal("unhandled expression kind");
}

Result<bool> ExprEvaluator::EvalPredicate(const BoundExpr& e,
                                          const Row& row) const {
  MSQL_ASSIGN_OR_RETURN(Value v, Eval(e, row));
  if (v.is_null()) return false;
  if (!v.is_boolean()) {
    return Status::ExecutionError("predicate does not evaluate to BOOLEAN: " +
                                  e.expr->ToSql());
  }
  return v.AsBoolean();
}

Result<Value> ExprEvaluator::EvalUnary(const BoundExpr& e,
                                       const Row& row) const {
  switch (static_cast<const UnaryExpr&>(*e.expr).op()) {
    case UnaryOp::kIsNull: {
      MSQL_ASSIGN_OR_RETURN(Value v, Eval(e.args[0], row));
      return Value::Boolean(v.is_null());
    }
    case UnaryOp::kIsNotNull: {
      MSQL_ASSIGN_OR_RETURN(Value v, Eval(e.args[0], row));
      return Value::Boolean(!v.is_null());
    }
    case UnaryOp::kNot: {
      MSQL_ASSIGN_OR_RETURN(Value v, Eval(e.args[0], row));
      if (v.is_null()) return Value::Null_();
      if (!v.is_boolean()) {
        return Status::ExecutionError("NOT applied to non-boolean");
      }
      return Value::Boolean(!v.AsBoolean());
    }
    case UnaryOp::kNegate: {
      MSQL_ASSIGN_OR_RETURN(Value v, Eval(e.args[0], row));
      if (v.is_null()) return Value::Null_();
      if (v.is_integer()) return Value::Integer(-v.AsInteger());
      if (v.is_real()) return Value::Real(-v.AsReal());
      return Status::ExecutionError("unary minus applied to non-numeric");
    }
  }
  return Status::Internal("unhandled unary op");
}

Result<Value> ExprEvaluator::EvalBinary(const BoundExpr& e,
                                        const Row& row) const {
  const BinaryOp op = static_cast<const BinaryExpr&>(*e.expr).op();
  // AND/OR implement SQL three-valued logic with short-circuit where the
  // outcome is already determined.
  if (op == BinaryOp::kAnd || op == BinaryOp::kOr) {
    MSQL_ASSIGN_OR_RETURN(Value left, Eval(e.args[0], row));
    bool is_and = op == BinaryOp::kAnd;
    if (left.is_boolean()) {
      if (is_and && !left.AsBoolean()) return Value::Boolean(false);
      if (!is_and && left.AsBoolean()) return Value::Boolean(true);
    } else if (!left.is_null()) {
      return Status::ExecutionError("AND/OR applied to non-boolean");
    }
    MSQL_ASSIGN_OR_RETURN(Value right, Eval(e.args[1], row));
    if (right.is_boolean()) {
      if (is_and && !right.AsBoolean()) return Value::Boolean(false);
      if (!is_and && right.AsBoolean()) return Value::Boolean(true);
    } else if (!right.is_null()) {
      return Status::ExecutionError("AND/OR applied to non-boolean");
    }
    if (left.is_null() || right.is_null()) return Value::Null_();
    return Value::Boolean(is_and);  // TRUE AND TRUE / FALSE OR FALSE
  }
  MSQL_ASSIGN_OR_RETURN(Value left, Eval(e.args[0], row));
  MSQL_ASSIGN_OR_RETURN(Value right, Eval(e.args[1], row));
  switch (op) {
    case BinaryOp::kEq:
    case BinaryOp::kNe:
    case BinaryOp::kLt:
    case BinaryOp::kLe:
    case BinaryOp::kGt:
    case BinaryOp::kGe:
      return EvalComparison(op, left, right);
    case BinaryOp::kAdd:
    case BinaryOp::kSub:
    case BinaryOp::kMul:
    case BinaryOp::kDiv:
      return EvalArithmetic(op, left, right);
    case BinaryOp::kLike: {
      if (left.is_null() || right.is_null()) return Value::Null_();
      if (!left.is_text() || !right.is_text()) {
        return Status::ExecutionError("LIKE requires text operands");
      }
      return Value::Boolean(LikeMatch(right.AsText(), left.AsText()));
    }
    default:
      return Status::Internal("unhandled binary op");
  }
}

Result<Value> ExprEvaluator::EvalComparison(BinaryOp op, const Value& left,
                                            const Value& right) const {
  if (left.is_null() || right.is_null()) return Value::Null_();
  bool comparable =
      (left.is_numeric() && right.is_numeric()) ||
      (left.is_text() && right.is_text()) ||
      (left.is_boolean() && right.is_boolean());
  if (!comparable) {
    return Status::ExecutionError(
        std::string("cannot compare ") + std::string(TypeName(left.type())) +
        " with " + std::string(TypeName(right.type())));
  }
  int c = left.Compare(right);
  switch (op) {
    case BinaryOp::kEq: return Value::Boolean(c == 0);
    case BinaryOp::kNe: return Value::Boolean(c != 0);
    case BinaryOp::kLt: return Value::Boolean(c < 0);
    case BinaryOp::kLe: return Value::Boolean(c <= 0);
    case BinaryOp::kGt: return Value::Boolean(c > 0);
    case BinaryOp::kGe: return Value::Boolean(c >= 0);
    default:
      return Status::Internal("not a comparison op");
  }
}

Result<Value> ExprEvaluator::EvalArithmetic(BinaryOp op, const Value& left,
                                            const Value& right) const {
  if (left.is_null() || right.is_null()) return Value::Null_();
  if (!left.is_numeric() || !right.is_numeric()) {
    return Status::ExecutionError("arithmetic requires numeric operands");
  }
  bool both_int = left.is_integer() && right.is_integer();
  if (both_int) {
    int64_t a = left.AsInteger();
    int64_t b = right.AsInteger();
    switch (op) {
      case BinaryOp::kAdd: return Value::Integer(a + b);
      case BinaryOp::kSub: return Value::Integer(a - b);
      case BinaryOp::kMul: return Value::Integer(a * b);
      case BinaryOp::kDiv:
        if (b == 0) return Status::ExecutionError("division by zero");
        return Value::Integer(a / b);
      default:
        return Status::Internal("not an arithmetic op");
    }
  }
  double a = left.NumericAsReal();
  double b = right.NumericAsReal();
  switch (op) {
    case BinaryOp::kAdd: return Value::Real(a + b);
    case BinaryOp::kSub: return Value::Real(a - b);
    case BinaryOp::kMul: return Value::Real(a * b);
    case BinaryOp::kDiv:
      if (b == 0.0) return Status::ExecutionError("division by zero");
      return Value::Real(a / b);
    default:
      return Status::Internal("not an arithmetic op");
  }
}

Result<Value> ExprEvaluator::EvalFunction(const BoundExpr& e,
                                          const Row& row) const {
  const std::string& name = static_cast<const FunctionCallExpr&>(*e.expr).name();
  if (FunctionCallExpr::IsAggregateName(name)) {
    if (aggregate_values_ != nullptr && e.slot < aggregate_values_->size()) {
      return (*aggregate_values_)[e.slot];
    }
    return Status::ExecutionError("aggregate " + name +
                                  " used outside aggregating context");
  }
  // Scalar functions.
  std::vector<Value> args;
  args.reserve(e.args.size());
  for (const auto& a : e.args) {
    MSQL_ASSIGN_OR_RETURN(Value v, Eval(a, row));
    args.push_back(std::move(v));
  }
  auto need_args = [&](size_t n) -> Status {
    if (args.size() != n) {
      return Status::ExecutionError(name + " expects " + std::to_string(n) +
                                    " argument(s)");
    }
    return Status::OK();
  };
  if (name == "UPPER" || name == "LOWER") {
    MSQL_RETURN_IF_ERROR(need_args(1));
    if (args[0].is_null()) return Value::Null_();
    if (!args[0].is_text()) {
      return Status::ExecutionError(name + " requires a text argument");
    }
    return Value::Text(name == "UPPER" ? ToUpper(args[0].AsText())
                                       : ToLower(args[0].AsText()));
  }
  if (name == "LENGTH") {
    MSQL_RETURN_IF_ERROR(need_args(1));
    if (args[0].is_null()) return Value::Null_();
    if (!args[0].is_text()) {
      return Status::ExecutionError("LENGTH requires a text argument");
    }
    return Value::Integer(static_cast<int64_t>(args[0].AsText().size()));
  }
  if (name == "ABS") {
    MSQL_RETURN_IF_ERROR(need_args(1));
    if (args[0].is_null()) return Value::Null_();
    if (args[0].is_integer()) {
      return Value::Integer(std::abs(args[0].AsInteger()));
    }
    if (args[0].is_real()) return Value::Real(std::fabs(args[0].AsReal()));
    return Status::ExecutionError("ABS requires a numeric argument");
  }
  if (name == "ROUND") {
    if (args.size() == 1) {
      if (args[0].is_null()) return Value::Null_();
      if (!args[0].is_numeric()) {
        return Status::ExecutionError("ROUND requires a numeric argument");
      }
      return Value::Real(std::round(args[0].NumericAsReal()));
    }
    MSQL_RETURN_IF_ERROR(need_args(2));
    if (args[0].is_null() || args[1].is_null()) return Value::Null_();
    if (!args[0].is_numeric() || !args[1].is_integer()) {
      return Status::ExecutionError("ROUND requires (numeric, integer)");
    }
    double scale = std::pow(10.0, static_cast<double>(args[1].AsInteger()));
    return Value::Real(std::round(args[0].NumericAsReal() * scale) /
                       scale);
  }
  return Status::ExecutionError("unknown function " + name);
}

}  // namespace msql::relational
