#include "relational/planner.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>

#include "common/string_util.h"
#include "relational/index.h"
#include "relational/table.h"

namespace msql::relational {

namespace {

/// Case-insensitive column lookup, matching RowBinding's resolution.
std::optional<size_t> FindColumnOf(const TableSchema& schema,
                                   const std::string& name) {
  const auto& cols = schema.columns();
  for (size_t i = 0; i < cols.size(); ++i) {
    if (EqualsIgnoreCase(cols[i].name, name)) return i;
  }
  return std::nullopt;
}

/// Sources a column reference can bind to (same matching rule as the
/// executor's RowBinding: qualifier against effective name, then the
/// column must exist).
std::vector<size_t> MatchSources(const ColumnRefExpr& ref,
                                 const std::vector<PlannerSource>& sources) {
  std::vector<size_t> out;
  for (size_t i = 0; i < sources.size(); ++i) {
    if (!ref.qualifier().empty() &&
        !EqualsIgnoreCase(sources[i].effective_name, ref.qualifier())) {
      continue;
    }
    if (FindColumnOf(*sources[i].schema, ref.name()).has_value()) {
      out.push_back(i);
    }
  }
  return out;
}

/// Per-conjunct classification computed once up front.
struct ConjunctInfo {
  const Expr* expr = nullptr;
  std::vector<size_t> source_set;  // sorted, unique
  bool has_subquery = false;
  // `a.x = b.y` shape with both sides bare single-source column refs on
  // distinct sources (hash-join candidate).
  bool is_equi_pair = false;
  size_t left_source = 0, right_source = 0;
  size_t left_pos = 0, right_pos = 0;  // combined-row positions
  bool consumed = false;
};

std::string FormatEst(double est) {
  return std::to_string(static_cast<long long>(std::llround(est)));
}

/// A comparison `col op literal` on an indexed column of the table, the
/// literal already coerced to the column's type and `op` mirrored when
/// the literal was written on the left.
struct IndexedBound {
  const Expr* conjunct = nullptr;
  const Index* index = nullptr;
  std::string column;
  BinaryOp op = BinaryOp::kEq;
  Value literal;
};

BinaryOp Mirror(BinaryOp op) {
  switch (op) {
    case BinaryOp::kLt: return BinaryOp::kGt;
    case BinaryOp::kLe: return BinaryOp::kGe;
    case BinaryOp::kGt: return BinaryOp::kLt;
    case BinaryOp::kGe: return BinaryOp::kLe;
    default: return op;
  }
}

std::optional<IndexedBound> AsIndexedBound(const Expr& conjunct,
                                           const Table& table) {
  if (conjunct.kind() != ExprKind::kBinary) return std::nullopt;
  const auto& b = static_cast<const BinaryExpr&>(conjunct);
  BinaryOp op = b.op();
  if (op != BinaryOp::kEq && op != BinaryOp::kLt && op != BinaryOp::kLe &&
      op != BinaryOp::kGt && op != BinaryOp::kGe) {
    return std::nullopt;
  }
  const Expr* col = &b.left();
  const Expr* lit = &b.right();
  if (col->kind() != ExprKind::kColumnRef) {
    std::swap(col, lit);
    op = Mirror(op);
  }
  if (col->kind() != ExprKind::kColumnRef ||
      lit->kind() != ExprKind::kLiteral) {
    return std::nullopt;
  }
  const auto& ref = static_cast<const ColumnRefExpr&>(*col);
  const Value& literal = static_cast<const LiteralExpr&>(*lit).value();
  if (literal.is_null()) return std::nullopt;  // never TRUE
  const Index* index = table.FindIndexOnColumn(ref.name());
  if (index == nullptr) return std::nullopt;
  Result<Value> coerced =
      literal.CoerceTo(table.schema().column(index->column_index()).type);
  if (!coerced.ok()) return std::nullopt;
  // Value::Compare orders numbers as doubles, exact on integers only
  // below 2^53. Past that the predicate and the B+-tree's exact integer
  // key order disagree, so such a key is no bound.
  constexpr int64_t kExactInDouble = int64_t{1} << 53;
  if (coerced->is_integer() && (coerced->AsInteger() >= kExactInDouble ||
                                coerced->AsInteger() <= -kExactInDouble)) {
    return std::nullopt;
  }
  return IndexedBound{&conjunct, index, ToLower(ref.name()), op,
                      *std::move(coerced)};
}

/// Operand classes of ExprEvaluator's type checks; kNull is the NULL
/// literal (and a NULL-typed column), which every check accepts.
enum class TypeClass { kNull, kNumber, kText, kBoolean };

TypeClass ClassOf(Type type) {
  switch (type) {
    case Type::kInteger:
    case Type::kReal: return TypeClass::kNumber;
    case Type::kText: return TypeClass::kText;
    case Type::kBoolean: return TypeClass::kBoolean;
    case Type::kNull: break;
  }
  return TypeClass::kNull;
}

/// The class `e` evaluates to when evaluating it on a row of `table`
/// (named `effective_name`) can never fail, else nullopt. Mirrors the
/// evaluator's checks: comparisons, IN and BETWEEN need comparable
/// operands, AND/OR/NOT booleans, arithmetic and unary minus numbers,
/// LIKE text. Division (by zero), function calls, scalar subqueries and
/// columns outside the table count as fallible. Stored values always
/// have their column's type, so the check holds for every row.
std::optional<TypeClass> InfallibleClass(const Expr& e, const Table& table,
                                         std::string_view effective_name) {
  auto sub = [&](const Expr& x) {
    return InfallibleClass(x, table, effective_name);
  };
  auto is = [](std::optional<TypeClass> t, TypeClass want) {
    return t.has_value() && (*t == want || *t == TypeClass::kNull);
  };
  auto comparable = [](std::optional<TypeClass> a,
                       std::optional<TypeClass> b) {
    return a.has_value() && b.has_value() &&
           (*a == TypeClass::kNull || *b == TypeClass::kNull || *a == *b);
  };
  constexpr std::optional<TypeClass> kFallible;
  switch (e.kind()) {
    case ExprKind::kLiteral:
      return ClassOf(static_cast<const LiteralExpr&>(e).value().type());
    case ExprKind::kColumnRef: {
      const auto& ref = static_cast<const ColumnRefExpr&>(e);
      if (!ref.qualifier().empty() &&
          !EqualsIgnoreCase(ref.qualifier(), effective_name)) {
        return kFallible;
      }
      auto idx = FindColumnOf(table.schema(), ref.name());
      if (!idx.has_value()) return kFallible;
      return ClassOf(table.schema().column(*idx).type);
    }
    case ExprKind::kUnary: {
      const auto& u = static_cast<const UnaryExpr&>(e);
      auto operand = sub(u.operand());
      switch (u.op()) {
        case UnaryOp::kIsNull:
        case UnaryOp::kIsNotNull:
          if (operand.has_value()) return TypeClass::kBoolean;
          return kFallible;
        case UnaryOp::kNot:
          if (is(operand, TypeClass::kBoolean)) return TypeClass::kBoolean;
          return kFallible;
        case UnaryOp::kNegate:
          if (is(operand, TypeClass::kNumber)) return TypeClass::kNumber;
          return kFallible;
      }
      return kFallible;
    }
    case ExprKind::kBinary: {
      const auto& b = static_cast<const BinaryExpr&>(e);
      auto l = sub(b.left());
      auto r = sub(b.right());
      switch (b.op()) {
        case BinaryOp::kAnd:
        case BinaryOp::kOr:
          if (is(l, TypeClass::kBoolean) && is(r, TypeClass::kBoolean)) {
            return TypeClass::kBoolean;
          }
          return kFallible;
        case BinaryOp::kEq:
        case BinaryOp::kNe:
        case BinaryOp::kLt:
        case BinaryOp::kLe:
        case BinaryOp::kGt:
        case BinaryOp::kGe:
          if (comparable(l, r)) return TypeClass::kBoolean;
          return kFallible;
        case BinaryOp::kAdd:
        case BinaryOp::kSub:
        case BinaryOp::kMul:
          if (is(l, TypeClass::kNumber) && is(r, TypeClass::kNumber)) {
            return TypeClass::kNumber;
          }
          return kFallible;
        case BinaryOp::kLike:
          if (is(l, TypeClass::kText) && is(r, TypeClass::kText)) {
            return TypeClass::kBoolean;
          }
          return kFallible;
        default:
          return kFallible;
      }
    }
    case ExprKind::kInList: {
      const auto& in = static_cast<const InListExpr&>(e);
      auto operand = sub(in.operand());
      for (const auto& item : in.list()) {
        if (!comparable(operand, sub(*item))) return kFallible;
      }
      if (!operand.has_value()) return kFallible;
      return TypeClass::kBoolean;
    }
    case ExprKind::kBetween: {
      const auto& bt = static_cast<const BetweenExpr&>(e);
      auto operand = sub(bt.operand());
      if (comparable(operand, sub(bt.lo())) &&
          comparable(operand, sub(bt.hi()))) {
        return TypeClass::kBoolean;
      }
      return kFallible;
    }
    default:
      return kFallible;
  }
}

/// A strict bound on an INTEGER column as the inclusive one it equals
/// (`> 4` is `>= 5`); other types keep the value, over-fetching the
/// boundary key for the re-evaluated filter to drop.
Value InclusiveBound(const IndexedBound& bound) {
  const Value& v = bound.literal;
  if (!v.is_integer()) return v;
  if (bound.op == BinaryOp::kGt &&
      v.AsInteger() < std::numeric_limits<int64_t>::max()) {
    return Value::Integer(v.AsInteger() + 1);
  }
  if (bound.op == BinaryOp::kLt &&
      v.AsInteger() > std::numeric_limits<int64_t>::min()) {
    return Value::Integer(v.AsInteger() - 1);
  }
  return v;
}

}  // namespace

std::string AccessPath::Explain() const {
  switch (kind) {
    case Kind::kScan:
      return "scan";
    case Kind::kEqual:
      return "index probe " + index_name + " [" + column + " = " +
             key.ToSqlLiteral() + "]";
    case Kind::kRange: {
      std::string bounds;
      if (!lo.is_null()) bounds = column + " >= " + lo.ToSqlLiteral();
      if (!hi.is_null()) {
        if (!bounds.empty()) bounds += " AND ";
        bounds += column + " <= " + hi.ToSqlLiteral();
      }
      return "index range " + index_name + " [" + bounds + "]";
    }
  }
  return "scan";
}

AccessPath ChooseAccessPath(const std::vector<const Expr*>& conjuncts,
                            const Table& table,
                            std::string_view effective_name) {
  AccessPath path;
  std::vector<IndexedBound> bounds;
  for (const Expr* c : conjuncts) {
    // A conjunct that may fail forces a scan: a probe would evaluate
    // it on fewer rows and could miss the error a scan raises.
    auto type = InfallibleClass(*c, table, effective_name);
    if (!type.has_value() || (*type != TypeClass::kBoolean &&
                              *type != TypeClass::kNull)) {
      return path;
    }
    if (auto bound = AsIndexedBound(*c, table)) {
      bounds.push_back(*std::move(bound));
    }
  }
  if (bounds.empty()) return path;
  auto equal = std::find_if(bounds.begin(), bounds.end(), [](const auto& b) {
    return b.op == BinaryOp::kEq;
  });
  const IndexedBound& chosen = equal != bounds.end() ? *equal : bounds[0];
  path.index = chosen.index;
  path.index_name = chosen.index->name();
  path.column = chosen.column;
  if (chosen.op == BinaryOp::kEq) {
    path.kind = AccessPath::Kind::kEqual;
    path.key = chosen.literal;
    path.conjunct = chosen.conjunct;
    return path;
  }
  // Intersect every bound on the chosen index: the highest lower bound
  // and the lowest upper bound.
  path.kind = AccessPath::Kind::kRange;
  for (const IndexedBound& b : bounds) {
    if (b.index != path.index) continue;
    Value v = InclusiveBound(b);
    if (b.op == BinaryOp::kGt || b.op == BinaryOp::kGe) {
      if (path.lo.is_null() || v.Compare(path.lo) > 0) path.lo = std::move(v);
    } else if (path.hi.is_null() || v.Compare(path.hi) < 0) {
      path.hi = std::move(v);
    }
  }
  return path;
}

std::string SelectPlan::Explain() const {
  if (!fallback_reason.empty()) {
    return "plan: naive cross-product fallback (" + fallback_reason + ")\n";
  }
  std::string out = "plan: " + std::to_string(num_sources()) +
                    " source(s), " + std::to_string(pushed_conjuncts) +
                    " pushed conjunct(s), " + std::to_string(equi_conjuncts) +
                    " equi-join key(s)\n";
  for (size_t i = 0; i < num_sources(); ++i) {
    out += "  source " + std::to_string(i) + " (" + source_names[i] + "): ";
    out += access[i].Explain();
    for (const auto& f : filters) {
      if (f.source == i) out += "; filter " + f.conjunct->ToSql();
    }
    out += "; est " + FormatEst(estimated_rows[i]) + " row(s)\n";
  }
  out += "join order:\n";
  for (size_t k = 0; k < steps.size(); ++k) {
    const JoinStep& step = steps[k];
    out += "  [" + std::to_string(k) + "] ";
    if (k == 0) {
      out += "start";
    } else if (!step.keys.empty()) {
      out += "hash join";
    } else {
      out += "nested loop";
    }
    out += " source " + std::to_string(step.source) + " (" +
           source_names[step.source] + ")";
    for (size_t j = 0; j < step.keys.size(); ++j) {
      out += (j == 0 ? " on " : " and ") + step.keys[j].conjunct->ToSql();
    }
    for (const auto* residual : step.residual) {
      out += "; residual " + residual->ToSql();
    }
    out += "\n";
  }
  for (const auto* residual : final_residual) {
    out += "final filter: " + residual->ToSql() + "\n";
  }
  return out;
}

Result<SelectPlan> PlanSelect(const SelectStmt& stmt,
                              const std::vector<PlannerSource>& sources) {
  SelectPlan plan;
  size_t offset = 0;
  for (const auto& src : sources) {
    plan.source_names.push_back(src.effective_name);
    plan.source_offsets.push_back(offset);
    plan.source_widths.push_back(src.schema->num_columns());
    offset += src.schema->num_columns();
  }

  // -- Conjunct classification -------------------------------------------
  std::vector<ConjunctInfo> conjuncts;
  if (stmt.where != nullptr) {
    std::vector<const Expr*> split;
    SplitConjuncts(*stmt.where, &split);
    for (const Expr* c : split) {
      ConjunctInfo info;
      info.expr = c;
      info.has_subquery = ContainsScalarSubquery(*c);
      if (info.has_subquery) {
        // Uncorrelated subqueries cannot see the outer row, but their
        // conjunct must still be judged on fully joined rows.
        conjuncts.push_back(std::move(info));
        continue;
      }
      std::vector<const ColumnRefExpr*> refs;
      CollectColumnRefs(*c, &refs);
      for (const ColumnRefExpr* ref : refs) {
        std::vector<size_t> matches = MatchSources(*ref, sources);
        if (matches.size() != 1) {
          // Unknown or ambiguous name: the naive path owns the (row-
          // dependent) error surfacing, so don't second-guess it.
          plan.fallback_reason = matches.empty()
                                     ? "unresolved column '" +
                                           ref->FullName() + "' in WHERE"
                                     : "ambiguous column '" +
                                           ref->FullName() + "' in WHERE";
          return plan;
        }
        info.source_set.push_back(matches[0]);
      }
      std::sort(info.source_set.begin(), info.source_set.end());
      info.source_set.erase(
          std::unique(info.source_set.begin(), info.source_set.end()),
          info.source_set.end());
      // Hash-join candidate: `colA = colB` across two sources.
      if (info.source_set.size() == 2 && c->kind() == ExprKind::kBinary) {
        const auto& b = static_cast<const BinaryExpr&>(*c);
        if (b.op() == BinaryOp::kEq &&
            b.left().kind() == ExprKind::kColumnRef &&
            b.right().kind() == ExprKind::kColumnRef) {
          const auto& lref = static_cast<const ColumnRefExpr&>(b.left());
          const auto& rref = static_cast<const ColumnRefExpr&>(b.right());
          size_t ls = MatchSources(lref, sources)[0];
          size_t rs = MatchSources(rref, sources)[0];
          info.is_equi_pair = true;
          info.left_source = ls;
          info.right_source = rs;
          info.left_pos = plan.source_offsets[ls] +
                          *FindColumnOf(*sources[ls].schema, lref.name());
          info.right_pos = plan.source_offsets[rs] +
                           *FindColumnOf(*sources[rs].schema, rref.name());
        }
      }
      conjuncts.push_back(std::move(info));
    }
  }

  // Distribute: single-source conjuncts push below the join; zero-source
  // (constants) and subquery conjuncts stay on the joined row.
  for (auto& info : conjuncts) {
    if (info.has_subquery || info.source_set.empty()) {
      plan.final_residual.push_back(info.expr);
      info.consumed = true;
    } else if (info.source_set.size() == 1) {
      plan.filters.push_back(PushedFilter{info.source_set[0], info.expr});
      ++plan.pushed_conjuncts;
      info.consumed = true;
    }
  }

  // -- Access paths -------------------------------------------------------
  // Each base table's path comes from its own pushed conjuncts. An
  // equality probe consumes its conjunct; range conjuncts stay filters.
  plan.access.assign(sources.size(), AccessPath{});
  for (size_t i = 0; i < sources.size(); ++i) {
    if (sources[i].table == nullptr) continue;
    std::vector<const Expr*> pushed;
    for (const auto& f : plan.filters) {
      if (f.source == i) pushed.push_back(f.conjunct);
    }
    AccessPath& path = plan.access[i];
    path = ChooseAccessPath(pushed, *sources[i].table,
                            sources[i].effective_name);
    if (path.kind == AccessPath::Kind::kEqual) {
      std::erase_if(plan.filters, [&](const PushedFilter& f) {
        return f.conjunct == path.conjunct;
      });
      --plan.pushed_conjuncts;
    }
  }

  // -- Cardinality estimates ---------------------------------------------
  // Textbook selectivities: an equality probe yields rows/distinct-keys
  // (a range probe's conjuncts are still filters, counted below), a pushed
  // equality keeps 1/10, any other pushed filter 1/3. Estimates are
  // clamped to >= 1 row post-filter: an empty or heavily filtered source
  // still pays per-step bookkeeping and must never look cost-free, or
  // `est 0 row(s)` propagates through joins that still scan the other
  // side.
  plan.estimated_rows.assign(sources.size(), 0.0);
  for (size_t i = 0; i < sources.size(); ++i) {
    double est = static_cast<double>(sources[i].row_count);
    const AccessPath& path = plan.access[i];
    if (path.kind == AccessPath::Kind::kEqual) {
      est /= static_cast<double>(
          std::max<size_t>(1, path.index->distinct_keys()));
    }
    for (const auto& f : plan.filters) {
      if (f.source != i) continue;
      bool is_eq = f.conjunct->kind() == ExprKind::kBinary &&
                   static_cast<const BinaryExpr&>(*f.conjunct).op() ==
                       BinaryOp::kEq;
      est /= is_eq ? 10.0 : 3.0;
    }
    plan.estimated_rows[i] = std::max(est, 1.0);
  }

  // -- Greedy join ordering ----------------------------------------------
  // Start from the smallest estimated source; repeatedly join the
  // smallest source hash-connected to the prefix (falling back to the
  // smallest remaining source as a nested-loop cross step). Each step
  // consumes every conjunct whose sources are now all joined: equi pairs
  // with one side on the new source become hash keys, the rest become
  // the step's residual filter.
  std::vector<bool> joined(sources.size(), false);
  // Static hash-connectivity degree: how many unconsumed equi-join
  // pairs touch source i. Used as the first tie-breaker so that, when
  // estimates tie, the plan anchors on the source with the most join
  // partners instead of whichever came first in the FROM clause.
  auto connectivity = [&](size_t i) -> int {
    int degree = 0;
    for (const auto& info : conjuncts) {
      if (info.consumed || !info.is_equi_pair) continue;
      if (info.left_source == info.right_source) continue;
      if (info.left_source == i || info.right_source == i) ++degree;
    }
    return degree;
  };
  auto smallest = [&](bool need_connection) -> int {
    int best = -1;
    for (size_t i = 0; i < sources.size(); ++i) {
      if (joined[i]) continue;
      if (need_connection) {
        bool connected = false;
        for (const auto& info : conjuncts) {
          if (info.consumed || !info.is_equi_pair) continue;
          size_t a = info.left_source, b = info.right_source;
          if ((a == i && joined[b]) || (b == i && joined[a])) {
            connected = true;
            break;
          }
        }
        if (!connected) continue;
      }
      if (best < 0) {
        best = static_cast<int>(i);
        continue;
      }
      // Primary: smallest estimate. Ties break by hash-connectivity
      // (higher degree first), then by source name — never by FROM
      // position, which would make plans (and rows_scanned) depend on
      // clause order.
      const double est_i = plan.estimated_rows[i];
      const double est_best = plan.estimated_rows[best];
      bool better = est_i < est_best;
      if (est_i == est_best) {
        const int deg_i = connectivity(i);
        const int deg_best = connectivity(static_cast<size_t>(best));
        better = deg_i > deg_best ||
                 (deg_i == deg_best &&
                  plan.source_names[i] <
                      plan.source_names[static_cast<size_t>(best)]);
      }
      if (better) best = static_cast<int>(i);
    }
    return best;
  };

  for (size_t n = 0; n < sources.size(); ++n) {
    int next = n == 0 ? smallest(false) : smallest(true);
    if (next < 0) next = smallest(false);  // disconnected: cross step
    JoinStep step;
    step.source = static_cast<size_t>(next);
    step.estimated_rows = plan.estimated_rows[step.source];
    joined[step.source] = true;
    for (auto& info : conjuncts) {
      if (info.consumed) continue;
      bool covered = true;
      for (size_t s : info.source_set) {
        if (!joined[s]) covered = false;
      }
      if (!covered) continue;
      if (info.is_equi_pair &&
          (info.left_source == step.source ||
           info.right_source == step.source) &&
          info.left_source != info.right_source && n > 0) {
        JoinStep::EquiKey key;
        key.conjunct = info.expr;
        if (info.left_source == step.source) {
          key.source_pos = info.left_pos;
          key.prefix_pos = info.right_pos;
        } else {
          key.source_pos = info.right_pos;
          key.prefix_pos = info.left_pos;
        }
        step.keys.push_back(key);
        ++plan.equi_conjuncts;
      } else {
        step.residual.push_back(info.expr);
      }
      info.consumed = true;
    }
    plan.steps.push_back(std::move(step));
  }

  return plan;
}

}  // namespace msql::relational
