#include "relational/binder.h"

#include "common/string_util.h"

namespace msql::relational {

namespace {

bool IsNumber(Type t) { return t == Type::kInteger || t == Type::kReal; }

/// `e` never fails and yields NULL or a value of `want`'s class (INTEGER
/// and REAL are one class, numbers).
bool Yields(const BoundExpr& e, Type want) {
  return !e.may_fail && (e.type == Type::kNull || e.type == want ||
                         (IsNumber(e.type) && IsNumber(want)));
}

/// Neither side fails and the evaluator can compare their values.
bool Comparable(const BoundExpr& a, const BoundExpr& b) {
  return !a.may_fail && !b.may_fail &&
         (a.type == Type::kNull || Yields(b, a.type));
}

/// Output column name of a select item: alias, column name, or the
/// lower-cased expression text.
std::string OutputName(const SelectItem& item) {
  if (!item.alias.empty()) return item.alias;
  if (item.expr->kind() == ExprKind::kColumnRef) {
    return static_cast<const ColumnRefExpr&>(*item.expr).name();
  }
  return ToLower(item.expr->ToSql());
}

/// Numbers the aggregate calls of `e` into `out` (not those nested in an
/// aggregate's argument: aggregates do not nest).
void NumberAggregates(BoundExpr* e, std::vector<const BoundExpr*>* out) {
  if (e->kind == ExprKind::kFunctionCall &&
      FunctionCallExpr::IsAggregateName(
          static_cast<const FunctionCallExpr&>(*e->expr).name())) {
    e->slot = out->size();
    out->push_back(e);
    return;
  }
  for (auto& arg : e->args) NumberAggregates(&arg, out);
}

}  // namespace

void BindScope::AddSource(std::string name, const TableSchema* schema) {
  sources_.push_back(Source{std::move(name), schema, width_});
  width_ += schema->num_columns();
}

size_t BindScope::SourceOf(size_t slot) const {
  size_t s = 0;
  while (s + 1 < sources_.size() && sources_[s + 1].offset <= slot) ++s;
  return s;
}

const ColumnDef& BindScope::column(size_t slot) const {
  const Source& src = sources_[SourceOf(slot)];
  return src.schema->column(slot - src.offset);
}

Result<size_t> BindScope::Resolve(std::string_view qualifier,
                                  std::string_view name) const {
  size_t found = BoundExpr::kNoSlot;
  for (const Source& src : sources_) {
    if (!qualifier.empty() && !EqualsIgnoreCase(src.name, qualifier)) {
      continue;
    }
    auto idx = src.schema->FindColumn(name);
    if (!idx.has_value()) continue;
    if (found != BoundExpr::kNoSlot) {
      return Status::InvalidArgument("ambiguous column reference '" +
                                     std::string(name) + "'");
    }
    found = src.offset + *idx;
  }
  if (found == BoundExpr::kNoSlot) {
    std::string full = qualifier.empty()
                           ? std::string(name)
                           : std::string(qualifier) + "." + std::string(name);
    return Status::NotFound("unknown column '" + full + "'");
  }
  return found;
}

BoundExpr Binder::Bind(const Expr& e) const {
  BoundExpr b;
  b.kind = e.kind();
  b.expr = &e;
  switch (e.kind()) {
    case ExprKind::kLiteral:
      b.type = static_cast<const LiteralExpr&>(e).value().type();
      b.may_fail = false;
      break;
    case ExprKind::kColumnRef: {
      const auto& ref = static_cast<const ColumnRefExpr&>(e);
      Result<size_t> slot = scope_->Resolve(ref.qualifier(), ref.name());
      if (!slot.ok()) {
        b.error = slot.status();
        break;
      }
      b.slot = *slot;
      b.type = scope_->column(b.slot).type;
      b.may_fail = false;
      break;
    }
    case ExprKind::kUnary: {
      const auto& u = static_cast<const UnaryExpr&>(e);
      b.args.push_back(Bind(u.operand()));
      const BoundExpr& x = b.args[0];
      switch (u.op()) {
        case UnaryOp::kIsNull:
        case UnaryOp::kIsNotNull:
          b.type = Type::kBoolean;
          b.may_fail = x.may_fail;
          break;
        case UnaryOp::kNot:
          b.type = Type::kBoolean;
          b.may_fail = !Yields(x, Type::kBoolean);
          break;
        case UnaryOp::kNegate:
          b.type = x.type;
          b.error = x.error;
          b.may_fail = !Yields(x, Type::kInteger);
          break;
      }
      break;
    }
    case ExprKind::kBinary: {
      const auto& bin = static_cast<const BinaryExpr&>(e);
      b.args.push_back(Bind(bin.left()));
      b.args.push_back(Bind(bin.right()));
      const BoundExpr& l = b.args[0];
      const BoundExpr& r = b.args[1];
      b.type = Type::kBoolean;
      switch (bin.op()) {
        case BinaryOp::kAnd:
        case BinaryOp::kOr:
          b.may_fail = !Yields(l, Type::kBoolean) || !Yields(r, Type::kBoolean);
          break;
        case BinaryOp::kLike:
          b.may_fail = !Yields(l, Type::kText) || !Yields(r, Type::kText);
          break;
        case BinaryOp::kAdd:
        case BinaryOp::kSub:
        case BinaryOp::kMul:
        case BinaryOp::kDiv:
          b.type = l.type == Type::kInteger && r.type == Type::kInteger
                       ? Type::kInteger
                       : Type::kReal;
          b.error = !l.error.ok() ? l.error : r.error;
          // Division can always fail: by zero.
          b.may_fail = bin.op() == BinaryOp::kDiv ||
                       !Yields(l, Type::kInteger) ||
                       !Yields(r, Type::kInteger);
          break;
        default:  // comparisons
          b.may_fail = !Comparable(l, r);
          break;
      }
      break;
    }
    case ExprKind::kFunctionCall:
      BindFunction(static_cast<const FunctionCallExpr&>(e), &b);
      break;
    case ExprKind::kScalarSubquery: {
      Result<TableSchema> schema = InferSelectSchema(
          "subquery", static_cast<const ScalarSubqueryExpr&>(e).select(),
          resolve_);
      if (!schema.ok()) {
        b.error = schema.status();
      } else if (schema->num_columns() != 1) {
        b.error = Status::InvalidArgument(
            "scalar subquery must have one output column");
      } else {
        b.type = schema->column(0).type;
      }
      break;
    }
    case ExprKind::kInList: {
      const auto& in = static_cast<const InListExpr&>(e);
      b.args.push_back(Bind(in.operand()));
      for (const auto& item : in.list()) b.args.push_back(Bind(*item));
      b.type = Type::kBoolean;
      b.may_fail = b.args[0].may_fail;
      for (size_t i = 1; i < b.args.size(); ++i) {
        if (!Comparable(b.args[0], b.args[i])) b.may_fail = true;
      }
      break;
    }
    case ExprKind::kBetween: {
      const auto& bt = static_cast<const BetweenExpr&>(e);
      b.args.push_back(Bind(bt.operand()));
      b.args.push_back(Bind(bt.lo()));
      b.args.push_back(Bind(bt.hi()));
      b.type = Type::kBoolean;
      b.may_fail = !Comparable(b.args[0], b.args[1]) ||
                   !Comparable(b.args[0], b.args[2]);
      break;
    }
  }
  return b;
}

std::unique_ptr<BoundExpr> Binder::BindOptional(const Expr* e) const {
  return e != nullptr ? std::make_unique<BoundExpr>(Bind(*e)) : nullptr;
}

void Binder::BindFunction(const FunctionCallExpr& f, BoundExpr* out) const {
  for (const auto& arg : f.args()) out->args.push_back(Bind(*arg));
  const std::vector<BoundExpr>& args = out->args;
  const std::string& name = f.name();
  // Takes the type (and type error) of the single argument, REAL for
  // any other arity.
  auto operand_type = [&] {
    if (args.size() != 1) {
      out->type = Type::kReal;
      return;
    }
    out->type = args[0].type;
    out->error = args[0].error;
  };
  const bool one_arg = args.size() == 1;
  if (name == "COUNT") {
    out->type = Type::kInteger;
  } else if (name == "AVG") {
    out->type = Type::kReal;
  } else if (name == "SUM" || name == "MIN" || name == "MAX") {
    operand_type();
  } else if (name == "UPPER" || name == "LOWER" || name == "LENGTH") {
    out->type = name == "LENGTH" ? Type::kInteger : Type::kText;
    out->may_fail = !one_arg || !Yields(args[0], Type::kText);
  } else if (name == "ABS") {
    operand_type();
    out->may_fail = !one_arg || !Yields(args[0], Type::kInteger);
  } else if (name == "ROUND") {
    // ROUND(number) or ROUND(number, integer places).
    out->type = Type::kReal;
    const bool places_ok =
        one_arg || (args.size() == 2 && !args[1].may_fail &&
                    (args[1].type == Type::kInteger ||
                     args[1].type == Type::kNull));
    out->may_fail = args.empty() || !Yields(args[0], Type::kReal) ||
                    !places_ok;
  } else {
    out->error =
        Status::ExecutionError("cannot infer type of function " + name);
  }
}

Result<BoundSelect> BindSelect(const SelectStmt& select, BindScope scope,
                               const SchemaResolver& resolve) {
  BoundSelect out;
  out.scope = std::move(scope);
  const BindScope& sc = out.scope;
  const Binder binder(&sc, resolve);
  for (const auto& item : select.items) {
    if (!item.is_star) {
      out.items.push_back({OutputName(item), binder.Bind(*item.expr)});
      continue;
    }
    bool matched = false;
    for (size_t s = 0; s < sc.num_sources(); ++s) {
      if (!item.star_qualifier.empty() &&
          !EqualsIgnoreCase(sc.name(s), item.star_qualifier)) {
        continue;
      }
      matched = true;
      for (size_t c = 0; c < sc.schema(s).num_columns(); ++c) {
        BoundExpr col;
        col.slot = sc.offset(s) + c;
        col.type = sc.schema(s).column(c).type;
        col.may_fail = false;
        out.items.push_back({sc.schema(s).column(c).name, std::move(col)});
      }
    }
    if (!matched) {
      return Status::NotFound("'*' qualifier '" + item.star_qualifier +
                              "' does not match any FROM table");
    }
  }
  out.where = binder.BindOptional(select.where.get());
  for (const auto& g : select.group_by) {
    out.group_by.push_back(binder.Bind(*g));
  }
  out.having = binder.BindOptional(select.having.get());
  for (const auto& ob : select.order_by) {
    BoundSelect::OrderKey key;
    key.expr = binder.Bind(*ob.expr);
    key.descending = ob.descending;
    const auto* ref = ob.expr->kind() == ExprKind::kColumnRef
                          ? static_cast<const ColumnRefExpr*>(ob.expr.get())
                          : nullptr;
    for (size_t c = 0; ref != nullptr && ref->qualifier().empty() &&
                       c < out.items.size();
         ++c) {
      if (EqualsIgnoreCase(out.items[c].name, ref->name())) {
        key.output = c;
        break;
      }
    }
    out.order_by.push_back(std::move(key));
  }

  for (auto& item : out.items) NumberAggregates(&item.expr, &out.aggregates);
  out.aggregating = !out.aggregates.empty() || !out.group_by.empty() ||
                    out.having != nullptr;
  if (out.having != nullptr) NumberAggregates(out.having.get(), &out.aggregates);
  for (auto& key : out.order_by) NumberAggregates(&key.expr, &out.aggregates);
  return out;
}

Result<TableSchema> InferSelectSchema(std::string_view name,
                                      const SelectStmt& select,
                                      const SchemaResolver& resolve) {
  BindScope scope;
  for (const auto& ref : select.from) {
    MSQL_ASSIGN_OR_RETURN(const TableSchema* schema, resolve(ref.table));
    scope.AddSource(ToLower(ref.EffectiveName()), schema);
  }
  MSQL_ASSIGN_OR_RETURN(BoundSelect bound,
                        BindSelect(select, std::move(scope), resolve));
  std::vector<ColumnDef> columns;
  for (const auto& item : bound.items) {
    if (item.expr.expr == nullptr) {  // a '*' column
      columns.push_back(bound.scope.column(item.expr.slot));
      continue;
    }
    MSQL_RETURN_IF_ERROR(item.expr.error);
    ColumnDef def;
    def.name = item.name;
    def.type = item.expr.type == Type::kNull ? Type::kText : item.expr.type;
    columns.push_back(std::move(def));
  }
  return TableSchema::Create(std::string(name), std::move(columns));
}

}  // namespace msql::relational
