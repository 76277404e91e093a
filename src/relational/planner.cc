#include "relational/planner.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>

#include "relational/index.h"
#include "relational/table.h"

namespace msql::relational {

namespace {

/// The column nodes of `e`, in evaluation order. A scalar subquery has
/// no bound operands: its names bind to its own FROM scope.
void CollectColumns(const BoundExpr& e, std::vector<const BoundExpr*>* out) {
  if (e.kind == ExprKind::kColumnRef) out->push_back(&e);
  for (const auto& arg : e.args) CollectColumns(arg, out);
}

bool ContainsSubquery(const BoundExpr& e) {
  if (e.kind == ExprKind::kScalarSubquery) return true;
  for (const auto& arg : e.args) {
    if (ContainsSubquery(arg)) return true;
  }
  return false;
}

/// Per-conjunct classification computed once up front.
struct ConjunctInfo {
  const BoundExpr* expr = nullptr;
  std::vector<size_t> source_set;  // sorted, unique
  bool has_subquery = false;
  // `a.x = b.y` shape with both sides bare single-source column refs on
  // distinct sources (hash-join candidate).
  bool is_equi_pair = false;
  size_t left_source = 0, right_source = 0;
  size_t left_pos = 0, right_pos = 0;  // combined-row slots
  bool consumed = false;
};

std::string FormatEst(double est) {
  return std::to_string(static_cast<long long>(std::llround(est)));
}

/// A comparison `col op literal` on an indexed column of the table, the
/// literal already coerced to the column's type and `op` mirrored when
/// the literal was written on the left.
struct IndexedBound {
  const BoundExpr* conjunct = nullptr;
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

std::optional<IndexedBound> AsIndexedBound(const BoundExpr& conjunct,
                                           const Table& table,
                                           size_t first_slot) {
  if (conjunct.kind != ExprKind::kBinary) return std::nullopt;
  BinaryOp op = static_cast<const BinaryExpr&>(*conjunct.expr).op();
  if (op != BinaryOp::kEq && op != BinaryOp::kLt && op != BinaryOp::kLe &&
      op != BinaryOp::kGt && op != BinaryOp::kGe) {
    return std::nullopt;
  }
  const BoundExpr* col = &conjunct.args[0];
  const BoundExpr* lit = &conjunct.args[1];
  if (col->kind != ExprKind::kColumnRef) {
    std::swap(col, lit);
    op = Mirror(op);
  }
  if (col->kind != ExprKind::kColumnRef || lit->kind != ExprKind::kLiteral) {
    return std::nullopt;
  }
  const std::string& column =
      table.schema().column(col->slot - first_slot).name;
  const Value& literal = static_cast<const LiteralExpr&>(*lit->expr).value();
  if (literal.is_null()) return std::nullopt;  // never TRUE
  const Index* index = table.FindIndexOnColumn(column);
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
  return IndexedBound{&conjunct, index, column, op, *std::move(coerced)};
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

void SplitConjuncts(const BoundExpr& e,
                    std::vector<const BoundExpr*>* out) {
  if (e.kind == ExprKind::kBinary &&
      static_cast<const BinaryExpr&>(*e.expr).op() == BinaryOp::kAnd) {
    SplitConjuncts(e.args[0], out);
    SplitConjuncts(e.args[1], out);
    return;
  }
  out->push_back(&e);
}

AccessPath ChooseAccessPath(const std::vector<const BoundExpr*>& conjuncts,
                            const Table& table, size_t first_slot) {
  AccessPath path;
  std::vector<IndexedBound> bounds;
  for (const BoundExpr* c : conjuncts) {
    // A conjunct that may fail forces a scan: a probe would evaluate
    // it on fewer rows and could miss the error a scan raises.
    if (c->may_fail ||
        (c->type != Type::kBoolean && c->type != Type::kNull)) {
      return path;
    }
    if (auto bound = AsIndexedBound(*c, table, first_slot)) {
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
      if (f.source == i) out += "; filter " + f.conjunct->expr->ToSql();
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
      out += (j == 0 ? " on " : " and ") +
             step.keys[j].conjunct->expr->ToSql();
    }
    for (const auto* residual : step.residual) {
      out += "; residual " + residual->expr->ToSql();
    }
    out += "\n";
  }
  for (const auto* residual : final_residual) {
    out += "final filter: " + residual->expr->ToSql() + "\n";
  }
  return out;
}

SelectPlan PlanSelect(const BoundExpr* where, const BindScope& scope,
                      const std::vector<PlannerSource>& sources) {
  SelectPlan plan;
  for (size_t i = 0; i < scope.num_sources(); ++i) {
    plan.source_names.push_back(scope.name(i));
    plan.source_offsets.push_back(scope.offset(i));
    plan.source_widths.push_back(scope.schema(i).num_columns());
  }

  // -- Conjunct classification -------------------------------------------
  std::vector<ConjunctInfo> conjuncts;
  std::vector<const BoundExpr*> split;
  if (where != nullptr) SplitConjuncts(*where, &split);
  for (const BoundExpr* c : split) {
    ConjunctInfo info;
    info.expr = c;
    info.has_subquery = ContainsSubquery(*c);
    if (info.has_subquery) {
      // Uncorrelated subqueries cannot see the outer row, but their
      // conjunct must still be judged on fully joined rows.
      conjuncts.push_back(std::move(info));
      continue;
    }
    std::vector<const BoundExpr*> columns;
    CollectColumns(*c, &columns);
    for (const BoundExpr* col : columns) {
      if (col->slot == BoundExpr::kNoSlot) {
        // Unknown or ambiguous name: the naive path owns the (row-
        // dependent) error surfacing, so don't second-guess it.
        plan.fallback_reason =
            std::string(col->error.code() == StatusCode::kNotFound
                            ? "unresolved"
                            : "ambiguous") +
            " column '" +
            static_cast<const ColumnRefExpr&>(*col->expr).FullName() +
            "' in WHERE";
        return plan;
      }
      info.source_set.push_back(scope.SourceOf(col->slot));
    }
    std::sort(info.source_set.begin(), info.source_set.end());
    info.source_set.erase(
        std::unique(info.source_set.begin(), info.source_set.end()),
        info.source_set.end());
    // Hash-join candidate: `colA = colB` across two sources.
    if (info.source_set.size() == 2 && c->kind == ExprKind::kBinary &&
        static_cast<const BinaryExpr&>(*c->expr).op() == BinaryOp::kEq &&
        c->args[0].kind == ExprKind::kColumnRef &&
        c->args[1].kind == ExprKind::kColumnRef) {
      info.is_equi_pair = true;
      info.left_pos = c->args[0].slot;
      info.right_pos = c->args[1].slot;
      info.left_source = scope.SourceOf(info.left_pos);
      info.right_source = scope.SourceOf(info.right_pos);
    }
    conjuncts.push_back(std::move(info));
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
    std::vector<const BoundExpr*> pushed;
    for (const auto& f : plan.filters) {
      if (f.source == i) pushed.push_back(f.conjunct);
    }
    AccessPath& path = plan.access[i];
    path = ChooseAccessPath(pushed, *sources[i].table, scope.offset(i));
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
      bool is_eq = f.conjunct->kind == ExprKind::kBinary &&
                   static_cast<const BinaryExpr&>(*f.conjunct->expr).op() ==
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
