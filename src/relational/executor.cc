#include "relational/executor.h"

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <unordered_map>

#include "common/string_util.h"
#include "relational/index.h"

namespace msql::relational {

namespace {

/// Group key / distinct key: rows compared by strict Value equality.
struct RowKeyLess {
  bool operator()(const Row& a, const Row& b) const {
    size_t n = std::min(a.size(), b.size());
    for (size_t i = 0; i < n; ++i) {
      int c = a[i].Compare(b[i]);
      if (c != 0) return c < 0;
    }
    return a.size() < b.size();
  }
};

/// Aggregate accumulator for one aggregate call in one group.
class AggAccumulator {
 public:
  explicit AggAccumulator(const FunctionCallExpr* call) : call_(call) {}

  /// COUNT(*): counts the row itself, NULLs and all — there is no
  /// argument to inspect, so NULL rows are never skipped.
  Status AccumulateStar() {
    ++count_;
    return Status::OK();
  }

  Status Accumulate(const Value& v) {
    if (v.is_null()) return Status::OK();  // SQL: aggregates skip NULLs
    ++count_;
    const std::string& name = call_->name();
    if (name == "COUNT") return Status::OK();
    if (name == "SUM" || name == "AVG") {
      if (!v.is_numeric()) {
        return Status::ExecutionError(name + " over non-numeric value");
      }
      if (v.is_real()) saw_real_ = true;
      sum_real_ += v.NumericAsReal();
      sum_int_ += v.is_integer() ? v.AsInteger() : 0;
      return Status::OK();
    }
    if (name == "MIN") {
      if (!has_minmax_ || v.Compare(minmax_) < 0) minmax_ = v;
      has_minmax_ = true;
      return Status::OK();
    }
    if (name == "MAX") {
      if (!has_minmax_ || v.Compare(minmax_) > 0) minmax_ = v;
      has_minmax_ = true;
      return Status::OK();
    }
    return Status::Internal("unknown aggregate " + name);
  }

  Value Finish() const {
    const std::string& name = call_->name();
    if (name == "COUNT") return Value::Integer(count_);
    if (count_ == 0) return Value::Null_();  // empty group → NULL
    if (name == "SUM") {
      return saw_real_ ? Value::Real(sum_real_) : Value::Integer(sum_int_);
    }
    if (name == "AVG") {
      return Value::Real(sum_real_ / static_cast<double>(count_));
    }
    return minmax_;  // MIN / MAX
  }

 private:
  const FunctionCallExpr* call_;
  int64_t count_ = 0;
  double sum_real_ = 0.0;
  int64_t sum_int_ = 0;
  bool saw_real_ = false;
  Value minmax_;
  bool has_minmax_ = false;
};

/// Hash-join key hashing, consistent with Value::Compare equality:
/// numerics normalize to double (collapsing -0.0 into 0.0) so that
/// hash-equal always agrees with Compare == 0 across INTEGER/REAL.
/// NULL keys never reach the hash table — SQL `=` is never TRUE on
/// NULL, so both sides drop NULL-keyed rows before hashing.
struct JoinKeyHash {
  size_t operator()(const Row& key) const {
    size_t h = 0x9e3779b97f4a7c15ULL;
    for (const Value& v : key) {
      size_t e = 0;
      if (v.is_numeric()) {
        double d = v.NumericAsReal();
        if (d == 0.0) d = 0.0;  // -0.0 and 0.0 compare equal
        e = std::hash<double>{}(d);
      } else if (v.is_boolean()) {
        e = std::hash<bool>{}(v.AsBoolean());
      } else if (v.is_text()) {
        e = std::hash<std::string>{}(v.AsText());
      }
      h ^= e + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    }
    return h;
  }
};

struct JoinKeyEq {
  bool operator()(const Row& a, const Row& b) const {
    if (a.size() != b.size()) return false;
    for (size_t i = 0; i < a.size(); ++i) {
      if (a[i].Compare(b[i]) != 0) return false;
    }
    return true;
  }
};

/// A row mid-join: the combined row (full SELECT width, NULL-padded in
/// the not-yet-joined slots) plus the per-source ordinal of each part.
/// Sorting the final rows by the ordinal tuple in FROM order reproduces
/// the naive odometer's output order exactly.
struct JoinedRow {
  Row row;
  std::vector<uint32_t> ord;
};

}  // namespace

Status Executor::CheckQualifier(const TableRef& ref) const {
  if (!ref.database.empty() &&
      !EqualsIgnoreCase(ref.database, db_->name())) {
    return Status::NotFound("table reference '" + ref.FullName() +
                            "' names database '" + ref.database +
                            "' but this session is connected to '" +
                            db_->name() + "'");
  }
  return Status::OK();
}

std::string Executor::LockKey(const std::string& table) const {
  return db_->name() + "." + table;
}

Status Executor::RejectViewTarget(const TableRef& ref) const {
  if (db_->HasView(ref.table)) {
    return Status::InvalidArgument("'" + ToLower(ref.table) +
                                   "' is a view; views cannot be "
                                   "modified");
  }
  return Status::OK();
}

Result<ResultSet> Executor::Execute(const Statement& stmt) {
  if (txn_->state() != TxnState::kActive) {
    return Status::TransactionError(
        "statement issued against a transaction in state " +
        std::string(TxnStateName(txn_->state())));
  }
  switch (stmt.kind()) {
    case StatementKind::kSelect:
      return ExecuteSelect(static_cast<const SelectStmt&>(stmt));
    case StatementKind::kInsert:
      return ExecuteInsert(static_cast<const InsertStmt&>(stmt));
    case StatementKind::kUpdate:
      return ExecuteUpdate(static_cast<const UpdateStmt&>(stmt));
    case StatementKind::kDelete:
      return ExecuteDelete(static_cast<const DeleteStmt&>(stmt));
    case StatementKind::kCreateTable:
      return ExecuteCreateTable(static_cast<const CreateTableStmt&>(stmt));
    case StatementKind::kDropTable:
      return ExecuteDropTable(static_cast<const DropTableStmt&>(stmt));
    case StatementKind::kCreateView:
      return ExecuteCreateView(static_cast<const CreateViewStmt&>(stmt));
    case StatementKind::kDropView:
      return ExecuteDropView(static_cast<const DropViewStmt&>(stmt));
    case StatementKind::kCreateIndex:
      return ExecuteCreateIndex(static_cast<const CreateIndexStmt&>(stmt));
    case StatementKind::kDropIndex:
      return ExecuteDropIndex(static_cast<const DropIndexStmt&>(stmt));
    default:
      return Status::InvalidArgument(
          "statement kind not executable at database level: " +
          stmt.ToSql());
  }
}

Result<Value> Executor::EvalScalarSubquery(const SelectStmt& stmt) {
  MSQL_ASSIGN_OR_RETURN(ResultSet rs, ExecuteSelect(stmt));
  if (rs.columns.size() != 1) {
    return Status::ExecutionError(
        "scalar subquery must produce exactly one column, got " +
        std::to_string(rs.columns.size()));
  }
  if (rs.rows.empty()) return Value::Null_();
  if (rs.rows.size() > 1) {
    return Status::ExecutionError(
        "scalar subquery produced more than one row");
  }
  return rs.rows[0][0];
}

SchemaResolver Executor::BaseTables() const {
  return [db = db_](std::string_view t) -> Result<const TableSchema*> {
    MSQL_ASSIGN_OR_RETURN(const Table* base, db->GetTableConst(t));
    return &base->schema();
  };
}

ExprEvaluator Executor::Evaluator(size_t first_slot) {
  return ExprEvaluator(
      [this](const SelectStmt& sub) { return EvalScalarSubquery(sub); },
      first_slot);
}

Result<ResultSet> Executor::ExecuteSelect(const SelectStmt& stmt) {
  if (stmt.from.empty()) {
    return Status::ExecutionError("SELECT without FROM is not supported");
  }
  std::vector<ResolvedSource> sources;
  int64_t recursive_scanned = 0;
  MSQL_ASSIGN_OR_RETURN(
      BindScope scope, ResolveSources(stmt, &sources, &recursive_scanned));
  MSQL_ASSIGN_OR_RETURN(BoundSelect bound,
                        BindSelect(stmt, std::move(scope), BaseTables()));
  if (bound.items.empty()) {
    return Status::ExecutionError("empty select list");
  }
  ExprEvaluator evaluator = Evaluator();

  // Materialize the filtered join: planned (pushdown + index probes +
  // hash joins) by default, the naive cross product when disabled or
  // when the planner declines the statement.
  int64_t rows_scanned = 0;
  int64_t rows_evaluated = 0;
  std::string plan_text;
  std::vector<Row> matched_rows;
  if (options_.metrics != nullptr) options_.metrics->Inc("sql.selects");
  bool planned = options_.use_planner;
  if (planned) {
    SelectPlan plan;
    {
      obs::ScopedSpan plan_span(options_.tracer, "sql.plan", "sql");
      plan = PlanSelect(bound.where.get(), bound.scope,
                        ToPlannerSources(sources));
      if (plan_span.active() && !plan.fallback_reason.empty()) {
        plan_span.Annotate("fallback", plan.fallback_reason);
      }
    }
    if (options_.collect_plan_text) plan_text = plan.Explain();
    if (plan.fallback_reason.empty()) {
      MSQL_ASSIGN_OR_RETURN(
          matched_rows,
          RunPlannedJoin(plan, &sources, &rows_scanned, &rows_evaluated));
    } else {
      if (options_.metrics != nullptr) {
        options_.metrics->Inc("sql.plan.fallbacks");
      }
      planned = false;
    }
  }
  if (!planned) {
    MSQL_ASSIGN_OR_RETURN(matched_rows,
                          RunNaiveJoin(bound.where.get(), &sources,
                                       &rows_scanned, &rows_evaluated));
  }
  rows_scanned += recursive_scanned;
  if (options_.metrics != nullptr) {
    options_.metrics->Observe("sql.rows_evaluated", rows_evaluated);
  }

  ResultSet out;
  out.rows_scanned = rows_scanned;
  out.rows_evaluated = rows_evaluated;
  out.plan_text = std::move(plan_text);
  for (const auto& item : bound.items) out.columns.push_back(item.name);

  // Pairs of (output row, source row used for ORDER BY evaluation).
  std::vector<std::pair<Row, Row>> produced;

  if (!bound.aggregating) {
    for (const auto& src_row : matched_rows) {
      Row out_row;
      out_row.reserve(bound.items.size());
      for (const auto& item : bound.items) {
        MSQL_ASSIGN_OR_RETURN(Value v, evaluator.Eval(item.expr, src_row));
        out_row.push_back(std::move(v));
      }
      produced.emplace_back(std::move(out_row), src_row);
    }
  } else {
    // Group rows. With no GROUP BY there is a single global group (which
    // exists even over zero input rows, per SQL).
    std::map<Row, std::vector<Row>, RowKeyLess> groups;
    if (bound.group_by.empty()) {
      groups[Row{}] = std::move(matched_rows);
    } else {
      for (auto& src_row : matched_rows) {
        Row key;
        key.reserve(bound.group_by.size());
        for (const auto& g : bound.group_by) {
          MSQL_ASSIGN_OR_RETURN(Value v, evaluator.Eval(g, src_row));
          key.push_back(std::move(v));
        }
        groups[std::move(key)].push_back(std::move(src_row));
      }
    }

    for (auto& [key, group_rows] : groups) {
      (void)key;
      // Compute each aggregate over the group, in aggregate-slot order.
      Row agg_values;
      agg_values.reserve(bound.aggregates.size());
      for (const BoundExpr* call : bound.aggregates) {
        const auto& f = static_cast<const FunctionCallExpr&>(*call->expr);
        AggAccumulator acc(&f);
        for (const auto& row : group_rows) {
          if (f.star()) {
            MSQL_RETURN_IF_ERROR(acc.AccumulateStar());
          } else {
            if (call->args.size() != 1) {
              return Status::ExecutionError(f.name() +
                                            " expects one argument");
            }
            MSQL_ASSIGN_OR_RETURN(Value v,
                                  evaluator.Eval(call->args[0], row));
            MSQL_RETURN_IF_ERROR(acc.Accumulate(v));
          }
        }
        agg_values.push_back(acc.Finish());
      }
      evaluator.set_aggregate_values(&agg_values);

      // Representative row for evaluating grouped columns; empty groups
      // (global aggregate over no rows) use an all-NULL row.
      Row representative;
      if (!group_rows.empty()) {
        representative = group_rows.front();
      } else {
        representative.assign(bound.scope.width(), Value::Null_());
      }

      bool keep = true;
      if (bound.having != nullptr) {
        MSQL_ASSIGN_OR_RETURN(
            keep, evaluator.EvalPredicate(*bound.having, representative));
      }
      if (keep) {
        Row out_row;
        out_row.reserve(bound.items.size());
        for (const auto& item : bound.items) {
          MSQL_ASSIGN_OR_RETURN(Value v,
                                evaluator.Eval(item.expr, representative));
          out_row.push_back(std::move(v));
        }
        produced.emplace_back(std::move(out_row), representative);
      }
      evaluator.set_aggregate_values(nullptr);
    }
  }

  // DISTINCT.
  if (stmt.distinct) {
    std::set<Row, RowKeyLess> seen;
    std::vector<std::pair<Row, Row>> unique;
    for (auto& pr : produced) {
      if (seen.insert(pr.first).second) unique.push_back(std::move(pr));
    }
    produced = std::move(unique);
  }

  // ORDER BY: keys evaluated against the source/representative row;
  // a bare column name that matches an output column sorts by output.
  if (!bound.order_by.empty()) {
    struct Keyed {
      Row keys;
      Row out_row;
    };
    std::vector<Keyed> keyed;
    keyed.reserve(produced.size());
    for (auto& pr : produced) {
      Keyed k;
      for (const auto& ob : bound.order_by) {
        if (ob.output != BoundExpr::kNoSlot) {
          k.keys.push_back(pr.first[ob.output]);
          continue;
        }
        MSQL_ASSIGN_OR_RETURN(Value key_value,
                              evaluator.Eval(ob.expr, pr.second));
        k.keys.push_back(std::move(key_value));
      }
      k.out_row = std::move(pr.first);
      keyed.push_back(std::move(k));
    }
    std::stable_sort(keyed.begin(), keyed.end(),
                     [&](const Keyed& a, const Keyed& b) {
                       for (size_t i = 0; i < a.keys.size(); ++i) {
                         int c = a.keys[i].Compare(b.keys[i]);
                         if (c != 0) {
                           return bound.order_by[i].descending ? c > 0
                                                               : c < 0;
                         }
                       }
                       return false;
                     });
    out.rows.reserve(keyed.size());
    for (auto& k : keyed) out.rows.push_back(std::move(k.out_row));
  } else {
    out.rows.reserve(produced.size());
    for (auto& pr : produced) out.rows.push_back(std::move(pr.first));
  }
  return out;
}

Result<BindScope> Executor::ResolveSources(
    const SelectStmt& stmt, std::vector<ResolvedSource>* sources,
    int64_t* recursive_scanned) {
  for (const auto& ref : stmt.from) {
    MSQL_RETURN_IF_ERROR(CheckQualifier(ref));
    MSQL_RETURN_IF_ERROR(locks_->Acquire(txn_, LockKey(ref.table),
                                         LockManager::Mode::kShared));
    ResolvedSource source;
    source.effective_name = ToLower(ref.EffectiveName());
    if (db_->HasView(ref.table)) {
      MSQL_ASSIGN_OR_RETURN(const SelectStmt* definition,
                            db_->GetView(ref.table));
      MSQL_ASSIGN_OR_RETURN(
          source.schema,
          InferSelectSchema(ToLower(ref.table), *definition, BaseTables()));
      MSQL_ASSIGN_OR_RETURN(ResultSet materialized,
                            ExecuteSelect(*definition));
      if (materialized.columns.size() != source.schema.num_columns()) {
        return Status::Internal("view schema/materialization mismatch");
      }
      // Materializing the view cost real base-table scans; fold them
      // into this statement's accounting instead of dropping them.
      *recursive_scanned += materialized.rows_scanned;
      source.rows = std::move(materialized.rows);
    } else {
      MSQL_ASSIGN_OR_RETURN(const Table* table,
                            db_->GetTableConst(ref.table));
      source.schema = table->schema();
      // Rows are fetched by the join runner once an access path is
      // chosen (scan or index probe).
      source.table = table;
    }
    sources->push_back(std::move(source));
  }
  // The scope points into `sources`, which is complete: it no longer
  // reallocates.
  BindScope scope;
  for (const auto& src : *sources) {
    scope.AddSource(src.effective_name, &src.schema);
  }
  return scope;
}

Result<std::vector<Row>> Executor::RunNaiveJoin(
    const BoundExpr* where, std::vector<ResolvedSource>* sources,
    int64_t* rows_scanned, int64_t* rows_evaluated) {
  // Only a single-table query chooses an index path here; a naive join
  // scans every source.
  std::vector<AccessPath> paths(sources->size());
  if (sources->size() == 1 && sources->front().table != nullptr) {
    paths[0] = ChoosePathForWhere(*sources->front().table, where);
  }
  const ExprEvaluator evaluator = Evaluator();
  MSQL_RETURN_IF_ERROR(FetchSources(paths, sources, rows_scanned));

  // Nested loops over the cross product, one WHERE evaluation per
  // combined row.
  std::vector<Row> matched_rows;
  std::vector<size_t> idx(sources->size(), 0);
  bool done = false;
  for (const auto& src : *sources) {
    if (src.rows.empty()) done = true;  // empty cross product
  }
  while (!done) {
    Row combined;
    for (size_t i = 0; i < sources->size(); ++i) {
      const Row& part = (*sources)[i].rows[idx[i]];
      combined.insert(combined.end(), part.begin(), part.end());
    }
    ++*rows_evaluated;
    bool keep = true;
    if (where != nullptr) {
      MSQL_ASSIGN_OR_RETURN(keep, evaluator.EvalPredicate(*where, combined));
    }
    if (keep) matched_rows.push_back(std::move(combined));
    // Advance the odometer.
    size_t level = sources->size();
    while (level > 0) {
      --level;
      if (++idx[level] < (*sources)[level].rows.size()) break;
      idx[level] = 0;
      if (level == 0) done = true;
    }
  }
  return matched_rows;
}

Result<std::vector<Row>> Executor::RunPlannedJoin(
    const SelectPlan& plan, std::vector<ResolvedSource>* sources,
    int64_t* rows_scanned, int64_t* rows_evaluated) {
  obs::ScopedSpan join_span(options_.tracer, "sql.join", "sql");
  if (join_span.active()) {
    join_span.Annotate("sources",
                       static_cast<int64_t>(plan.num_sources()));
    join_span.Annotate("pushed_conjuncts", plan.pushed_conjuncts);
    join_span.Annotate("equi_keys", plan.equi_conjuncts);
  }
  if (options_.metrics != nullptr) {
    options_.metrics->Inc("sql.pushdown.conjuncts", plan.pushed_conjuncts);
  }

  MSQL_RETURN_IF_ERROR(FetchSources(plan.access, sources, rows_scanned));

  // An empty raw source empties the cross product before any predicate
  // runs — short-circuit exactly like the naive odometer does, so
  // predicate errors surface (or not) identically.
  for (const auto& src : *sources) {
    if (src.rows.empty()) return std::vector<Row>{};
  }

  // Pushed filters: evaluate single-source conjuncts on the source's
  // own rows, before any join; their slots all fall in that source.
  for (size_t i = 0; i < sources->size(); ++i) {
    bool has_filter = false;
    for (const auto& f : plan.filters) {
      if (f.source == i) has_filter = true;
    }
    if (!has_filter) continue;
    auto& src = (*sources)[i];
    const ExprEvaluator local_eval = Evaluator(plan.source_offsets[i]);
    std::vector<Row> kept;
    kept.reserve(src.rows.size());
    for (auto& row : src.rows) {
      ++*rows_evaluated;
      bool keep = true;
      for (const auto& f : plan.filters) {
        if (f.source != i) continue;
        MSQL_ASSIGN_OR_RETURN(keep,
                              local_eval.EvalPredicate(*f.conjunct, row));
        if (!keep) break;
      }
      if (keep) kept.push_back(std::move(row));
    }
    src.rows = std::move(kept);
  }

  size_t total_width = 0;
  for (size_t w : plan.source_widths) total_width += w;

  // The join pipeline. Each step widens the joined prefix by one source:
  // hash build/probe when the planner found equi-keys, nested loops
  // otherwise. Rows stay at full combined width (NULL-padded in slots
  // not yet joined) so residuals read their combined-row slots.
  const ExprEvaluator evaluator = Evaluator();
  std::vector<JoinedRow> prefix;
  for (size_t k = 0; k < plan.steps.size() && (k == 0 || !prefix.empty());
       ++k) {
    const JoinStep& step = plan.steps[k];
    const auto& src = (*sources)[step.source];
    const size_t off = plan.source_offsets[step.source];
    if (k == 0) {
      prefix.reserve(src.rows.size());
      for (size_t r = 0; r < src.rows.size(); ++r) {
        JoinedRow j;
        j.row.assign(total_width, Value::Null_());
        std::copy(src.rows[r].begin(), src.rows[r].end(),
                  j.row.begin() + static_cast<ptrdiff_t>(off));
        j.ord.assign(sources->size(), 0);
        j.ord[step.source] = static_cast<uint32_t>(r);
        prefix.push_back(std::move(j));
      }
      continue;
    }

    // Extends prefix row `p` with source row `r`, applies the step's
    // residual conjuncts, and appends survivors to `next`.
    std::vector<JoinedRow> next;
    auto emit = [&](const JoinedRow& p, size_t r) -> Status {
      ++*rows_evaluated;
      JoinedRow j;
      j.row = p.row;
      std::copy(src.rows[r].begin(), src.rows[r].end(),
                j.row.begin() + static_cast<ptrdiff_t>(off));
      j.ord = p.ord;
      j.ord[step.source] = static_cast<uint32_t>(r);
      bool keep = true;
      for (const BoundExpr* res : step.residual) {
        MSQL_ASSIGN_OR_RETURN(keep, evaluator.EvalPredicate(*res, j.row));
        if (!keep) break;
      }
      if (keep) next.push_back(std::move(j));
      return Status::OK();
    };

    if (!step.keys.empty()) {
      if (options_.metrics != nullptr) {
        options_.metrics->Inc("sql.join.hash");
      }
      // The step's key of `row`, read at `pos(key part)`; none when a
      // part is NULL (NULL never equi-joins).
      auto key_of = [&](const Row& row, auto pos) -> std::optional<Row> {
        Row key;
        key.reserve(step.keys.size());
        for (const auto& kk : step.keys) {
          if (row[pos(kk)].is_null()) return std::nullopt;
          key.push_back(row[pos(kk)]);
        }
        return key;
      };
      // Build on the new source, probe with the prefix.
      std::unordered_map<Row, std::vector<uint32_t>, JoinKeyHash, JoinKeyEq>
          built;
      built.reserve(src.rows.size());
      for (size_t r = 0; r < src.rows.size(); ++r) {
        auto key = key_of(src.rows[r],
                          [&](const auto& kk) { return kk.source_pos - off; });
        if (key) built[std::move(*key)].push_back(static_cast<uint32_t>(r));
      }
      for (const auto& p : prefix) {
        auto key = key_of(p.row, [](const auto& kk) { return kk.prefix_pos; });
        auto it = key ? built.find(*key) : built.end();
        if (it == built.end()) continue;
        for (uint32_t r : it->second) {
          MSQL_RETURN_IF_ERROR(emit(p, r));
        }
      }
    } else {
      if (options_.metrics != nullptr) {
        options_.metrics->Inc("sql.join.nested_loop");
      }
      for (const auto& p : prefix) {
        for (size_t r = 0; r < src.rows.size(); ++r) {
          MSQL_RETURN_IF_ERROR(emit(p, r));
        }
      }
    }
    prefix = std::move(next);
  }

  // Restore the naive output order (FROM-major odometer order), then
  // apply the conjuncts only decidable on fully joined rows.
  std::sort(prefix.begin(), prefix.end(),
            [](const JoinedRow& a, const JoinedRow& b) {
              return a.ord < b.ord;
            });
  std::vector<Row> matched_rows;
  matched_rows.reserve(prefix.size());
  for (auto& j : prefix) {
    bool keep = true;
    for (const BoundExpr* res : plan.final_residual) {
      MSQL_ASSIGN_OR_RETURN(keep, evaluator.EvalPredicate(*res, j.row));
      if (!keep) break;
    }
    if (keep) matched_rows.push_back(std::move(j.row));
  }
  return matched_rows;
}

std::vector<PlannerSource> Executor::ToPlannerSources(
    const std::vector<ResolvedSource>& sources) {
  std::vector<PlannerSource> out;
  out.reserve(sources.size());
  for (const auto& src : sources) {
    PlannerSource ps;
    ps.row_count = src.table != nullptr ? src.table->live_row_count()
                                        : src.rows.size();
    ps.table = src.table;
    out.push_back(ps);
  }
  return out;
}

AccessPath Executor::ChoosePathForWhere(const Table& table,
                                        const BoundExpr* where) {
  if (where == nullptr) return AccessPath{};
  std::vector<const BoundExpr*> conjuncts;
  SplitConjuncts(*where, &conjuncts);
  return ChooseAccessPath(conjuncts, table, 0);
}

Status Executor::ForEachRow(const Table& table, const AccessPath& path,
                            const RowVisitor& fn) {
  if (!path.is_probe()) return table.Scan(fn);
  if (options_.metrics != nullptr) options_.metrics->Inc("sql.index_probes");
  MSQL_ASSIGN_OR_RETURN(std::vector<RowId> ids,
                        path.kind == AccessPath::Kind::kEqual
                            ? path.index->LookupIds(path.key)
                            : path.index->LookupRange(path.lo, path.hi));
  for (RowId id : ids) {
    MSQL_ASSIGN_OR_RETURN(Row row, table.ReadRow(id));
    MSQL_RETURN_IF_ERROR(fn(id, std::move(row)));
  }
  return Status::OK();
}

Status Executor::FetchSources(const std::vector<AccessPath>& paths,
                              std::vector<ResolvedSource>* sources,
                              int64_t* rows_scanned) {
  for (size_t i = 0; i < sources->size(); ++i) {
    ResolvedSource& src = (*sources)[i];
    if (src.table != nullptr) {  // a view is already materialized
      if (!paths[i].is_probe()) src.rows.reserve(src.table->live_row_count());
      MSQL_RETURN_IF_ERROR(
          ForEachRow(*src.table, paths[i], [&](RowId, Row row) {
            src.rows.push_back(std::move(row));
            return Status::OK();
          }));
    }
    *rows_scanned += static_cast<int64_t>(src.rows.size());
  }
  return Status::OK();
}

Result<std::string> Executor::Explain(const Statement& stmt) {
  obs::ScopedSpan plan_span(options_.tracer, "sql.plan", "sql");
  if (stmt.kind() == StatementKind::kUpdate ||
      stmt.kind() == StatementKind::kDelete) {
    const bool update = stmt.kind() == StatementKind::kUpdate;
    const TableRef& ref =
        update ? static_cast<const UpdateStmt&>(stmt).table
               : static_cast<const DeleteStmt&>(stmt).table;
    const Expr* where =
        update ? static_cast<const UpdateStmt&>(stmt).where.get()
               : static_cast<const DeleteStmt&>(stmt).where.get();
    MSQL_RETURN_IF_ERROR(CheckQualifier(ref));
    MSQL_RETURN_IF_ERROR(RejectViewTarget(ref));
    MSQL_RETURN_IF_ERROR(locks_->Acquire(txn_, LockKey(ref.table),
                                         LockManager::Mode::kShared));
    MSQL_ASSIGN_OR_RETURN(const Table* table, db_->GetTableConst(ref.table));
    const std::string effective = ToLower(ref.EffectiveName());
    BindScope scope;
    scope.AddSource(effective, &table->schema());
    auto bound = Binder(&scope, BaseTables()).BindOptional(where);
    std::string out = std::string("plan: ") +
                      (update ? "update " : "delete ") + effective + ": " +
                      ChoosePathForWhere(*table, bound.get()).Explain();
    if (where != nullptr) out += "; filter " + where->ToSql();
    return out + "\n";
  }
  if (stmt.kind() != StatementKind::kSelect) {
    return Status::InvalidArgument(
        "EXPLAIN requires a SELECT, UPDATE or DELETE statement");
  }
  const auto& select = static_cast<const SelectStmt&>(stmt);
  if (select.from.empty()) {
    return Status::ExecutionError("SELECT without FROM is not supported");
  }
  std::vector<ResolvedSource> sources;
  int64_t recursive_scanned = 0;
  MSQL_ASSIGN_OR_RETURN(
      BindScope scope, ResolveSources(select, &sources, &recursive_scanned));
  auto where = Binder(&scope, BaseTables()).BindOptional(select.where.get());
  return PlanSelect(where.get(), scope, ToPlannerSources(sources)).Explain();
}

Result<ResultSet> Executor::ExecuteInsert(const InsertStmt& stmt) {
  MSQL_RETURN_IF_ERROR(CheckQualifier(stmt.table));
  MSQL_RETURN_IF_ERROR(RejectViewTarget(stmt.table));
  MSQL_RETURN_IF_ERROR(locks_->Acquire(txn_, LockKey(stmt.table.table),
                                       LockManager::Mode::kExclusive));
  MSQL_ASSIGN_OR_RETURN(Table * table, db_->GetTable(stmt.table.table));
  const TableSchema& schema = table->schema();

  // Resolve target column positions.
  std::vector<size_t> positions;
  if (stmt.columns.empty()) {
    for (size_t i = 0; i < schema.num_columns(); ++i) positions.push_back(i);
  } else {
    for (const auto& col : stmt.columns) {
      auto idx = schema.FindColumn(col);
      if (!idx.has_value()) {
        return Status::NotFound("column '" + col + "' not in table '" +
                                schema.table_name() + "'");
      }
      positions.push_back(*idx);
    }
  }

  // Collect the rows to insert.
  std::vector<Row> new_rows;
  if (stmt.select_source != nullptr) {
    MSQL_ASSIGN_OR_RETURN(ResultSet src, ExecuteSelect(*stmt.select_source));
    for (auto& row : src.rows) new_rows.push_back(std::move(row));
  } else {
    // VALUES binds against the empty scope: a column name in it fails
    // when evaluated.
    const BindScope no_columns;
    const Binder binder(&no_columns, BaseTables());
    const ExprEvaluator evaluator = Evaluator();
    Row no_row;
    for (const auto& exprs : stmt.values_rows) {
      Row row;
      row.reserve(exprs.size());
      for (const auto& e : exprs) {
        MSQL_ASSIGN_OR_RETURN(Value v,
                              evaluator.Eval(binder.Bind(*e), no_row));
        row.push_back(std::move(v));
      }
      new_rows.push_back(std::move(row));
    }
  }

  int64_t inserted = 0;
  for (auto& provided : new_rows) {
    if (provided.size() != positions.size()) {
      return Status::InvalidArgument(
          "INSERT provides " + std::to_string(provided.size()) +
          " values for " + std::to_string(positions.size()) + " columns");
    }
    Row full(schema.num_columns(), Value::Null_());
    for (size_t i = 0; i < positions.size(); ++i) {
      full[positions[i]] = std::move(provided[i]);
    }
    MSQL_ASSIGN_OR_RETURN(RowId id, table->Insert(std::move(full)));
    UndoRecord rec;
    rec.kind = UndoRecord::Kind::kInsert;
    rec.database = db_->name();
    rec.table = schema.table_name();
    rec.row_id = id;
    txn_->RecordUndo(std::move(rec));
    ++inserted;
  }
  ResultSet out;
  out.rows_affected = inserted;
  return out;
}

Result<ResultSet> Executor::ExecuteUpdate(const UpdateStmt& stmt) {
  return ExecuteWrite(stmt.table, stmt.where.get(), &stmt.assignments);
}

Result<ResultSet> Executor::ExecuteDelete(const DeleteStmt& stmt) {
  return ExecuteWrite(stmt.table, stmt.where.get(), nullptr);
}

Result<ResultSet> Executor::ExecuteWrite(
    const TableRef& ref, const Expr* where,
    const std::vector<Assignment>* assignments) {
  MSQL_RETURN_IF_ERROR(CheckQualifier(ref));
  MSQL_RETURN_IF_ERROR(RejectViewTarget(ref));
  MSQL_RETURN_IF_ERROR(locks_->Acquire(txn_, LockKey(ref.table),
                                       LockManager::Mode::kExclusive));
  MSQL_ASSIGN_OR_RETURN(Table * table, db_->GetTable(ref.table));
  const TableSchema& schema = table->schema();

  BindScope scope;
  scope.AddSource(ToLower(ref.EffectiveName()), &schema);
  const Binder binder(&scope, BaseTables());
  const auto bound_where = binder.BindOptional(where);
  const ExprEvaluator evaluator = Evaluator();

  // Resolve assignment targets and bind their values.
  std::vector<size_t> targets;
  std::vector<BoundExpr> values;
  if (assignments != nullptr) {
    for (const auto& a : *assignments) {
      auto idx = schema.FindColumn(a.column);
      if (!idx.has_value()) {
        return Status::NotFound("column '" + a.column + "' not in table '" +
                                schema.table_name() + "'");
      }
      targets.push_back(*idx);
      values.push_back(binder.Bind(*a.value));
    }
  }

  // Phase 1: fetch rows along the chosen access path, keep those that
  // satisfy the full WHERE, and compute every new image against the
  // pre-statement state. Scalar subqueries in WHERE/SET therefore see a
  // consistent snapshot, and a SET on the indexed column cannot move a
  // row into the range still being read.
  const AccessPath path = ChoosePathForWhere(*table, bound_where.get());
  struct Change {
    RowId id;
    Row new_row;  // UPDATE only
  };
  std::vector<Change> changes;
  int64_t fetched = 0;
  MSQL_RETURN_IF_ERROR(
      ForEachRow(*table, path, [&](RowId id, Row row) -> Status {
        ++fetched;
        bool keep = true;
        if (bound_where != nullptr) {
          MSQL_ASSIGN_OR_RETURN(keep,
                                evaluator.EvalPredicate(*bound_where, row));
        }
        if (!keep) return Status::OK();
        Change change{id, {}};
        if (assignments != nullptr) {
          change.new_row = row;
          for (size_t i = 0; i < values.size(); ++i) {
            MSQL_ASSIGN_OR_RETURN(change.new_row[targets[i]],
                                  evaluator.Eval(values[i], row));
          }
        }
        changes.push_back(std::move(change));
        return Status::OK();
      }));

  // Phase 2: apply.
  for (auto& change : changes) {
    UndoRecord rec;
    if (assignments != nullptr) {
      rec.kind = UndoRecord::Kind::kUpdate;
      MSQL_ASSIGN_OR_RETURN(
          rec.before, table->Update(change.id, std::move(change.new_row)));
    } else {
      rec.kind = UndoRecord::Kind::kDelete;
      MSQL_ASSIGN_OR_RETURN(rec.before, table->Delete(change.id));
    }
    rec.database = db_->name();
    rec.table = schema.table_name();
    rec.row_id = change.id;
    txn_->RecordUndo(std::move(rec));
  }
  ResultSet out;
  out.rows_affected = static_cast<int64_t>(changes.size());
  // A probe reports the rows it fetched. A scan reports the live rows
  // after the statement: the LAM charges this figure to the simulated
  // clock, so it must not move.
  out.rows_scanned = path.is_probe()
                         ? fetched
                         : static_cast<int64_t>(table->live_row_count());
  return out;
}

Result<ResultSet> Executor::ExecuteCreateTable(const CreateTableStmt& stmt) {
  MSQL_RETURN_IF_ERROR(CheckQualifier(stmt.table));
  std::vector<ColumnDef> cols;
  cols.reserve(stmt.columns.size());
  for (const auto& spec : stmt.columns) {
    ColumnDef def;
    def.name = spec.name;
    MSQL_ASSIGN_OR_RETURN(def.type, TypeFromName(spec.type_name));
    def.width = spec.width;
    cols.push_back(std::move(def));
  }
  MSQL_ASSIGN_OR_RETURN(TableSchema schema,
                        TableSchema::Create(stmt.table.table, std::move(cols)));
  MSQL_RETURN_IF_ERROR(locks_->Acquire(txn_, LockKey(schema.table_name()),
                                       LockManager::Mode::kExclusive));
  MSQL_RETURN_IF_ERROR(db_->CreateTable(std::move(schema)));
  if (options_.record_ddl_undo) {
    UndoRecord rec;
    rec.kind = UndoRecord::Kind::kCreateTable;
    rec.database = db_->name();
    rec.table = ToLower(stmt.table.table);
    txn_->RecordUndo(std::move(rec));
  }
  ResultSet out;
  out.rows_affected = 0;
  return out;
}

Result<ResultSet> Executor::ExecuteDropTable(const DropTableStmt& stmt) {
  MSQL_RETURN_IF_ERROR(CheckQualifier(stmt.table));
  MSQL_RETURN_IF_ERROR(locks_->Acquire(txn_, LockKey(ToLower(stmt.table.table)),
                                       LockManager::Mode::kExclusive));
  MSQL_ASSIGN_OR_RETURN(auto dropped, db_->DropTable(stmt.table.table));
  if (options_.record_ddl_undo) {
    UndoRecord rec;
    rec.kind = UndoRecord::Kind::kDropTable;
    rec.database = db_->name();
    rec.table = dropped->schema().table_name();
    rec.dropped_table = std::move(dropped);
    txn_->RecordUndo(std::move(rec));
  }
  ResultSet out;
  out.rows_affected = 0;
  return out;
}

Result<ResultSet> Executor::ExecuteCreateView(const CreateViewStmt& stmt) {
  MSQL_RETURN_IF_ERROR(locks_->Acquire(txn_, LockKey(ToLower(stmt.name)),
                                       LockManager::Mode::kExclusive));
  // Validate the definition against the current schemas (so a broken
  // view is rejected at creation, not at first scan).
  MSQL_RETURN_IF_ERROR(
      InferSelectSchema(ToLower(stmt.name), *stmt.definition, BaseTables())
          .status());
  MSQL_RETURN_IF_ERROR(
      db_->CreateView(stmt.name, stmt.definition->CloneSelect()));
  if (options_.record_ddl_undo) {
    UndoRecord rec;
    rec.kind = UndoRecord::Kind::kCreateView;
    rec.database = db_->name();
    rec.table = ToLower(stmt.name);
    txn_->RecordUndo(std::move(rec));
  }
  ResultSet out;
  out.rows_affected = 0;
  return out;
}

Result<ResultSet> Executor::ExecuteDropView(const DropViewStmt& stmt) {
  MSQL_RETURN_IF_ERROR(locks_->Acquire(txn_, LockKey(ToLower(stmt.name)),
                                       LockManager::Mode::kExclusive));
  MSQL_ASSIGN_OR_RETURN(auto dropped, db_->DropView(stmt.name));
  if (options_.record_ddl_undo) {
    UndoRecord rec;
    rec.kind = UndoRecord::Kind::kDropView;
    rec.database = db_->name();
    rec.table = ToLower(stmt.name);
    rec.dropped_view = std::move(dropped);
    txn_->RecordUndo(std::move(rec));
  }
  ResultSet out;
  out.rows_affected = 0;
  return out;
}

Result<ResultSet> Executor::ExecuteCreateIndex(const CreateIndexStmt& stmt) {
  MSQL_RETURN_IF_ERROR(CheckQualifier(stmt.table));
  MSQL_RETURN_IF_ERROR(RejectViewTarget(stmt.table));
  MSQL_RETURN_IF_ERROR(locks_->Acquire(txn_, LockKey(ToLower(stmt.table.table)),
                                       LockManager::Mode::kExclusive));
  MSQL_ASSIGN_OR_RETURN(Table * table, db_->GetTable(stmt.table.table));
  MSQL_RETURN_IF_ERROR(table->CreateIndex(stmt.name, stmt.column));
  if (options_.record_ddl_undo) {
    UndoRecord rec;
    rec.kind = UndoRecord::Kind::kCreateIndex;
    rec.database = db_->name();
    rec.table = table->schema().table_name();
    rec.index_name = ToLower(stmt.name);
    txn_->RecordUndo(std::move(rec));
  }
  ResultSet out;
  out.rows_affected = 0;
  return out;
}

Result<ResultSet> Executor::ExecuteDropIndex(const DropIndexStmt& stmt) {
  MSQL_RETURN_IF_ERROR(CheckQualifier(stmt.table));
  MSQL_RETURN_IF_ERROR(locks_->Acquire(txn_, LockKey(ToLower(stmt.table.table)),
                                       LockManager::Mode::kExclusive));
  MSQL_ASSIGN_OR_RETURN(Table * table, db_->GetTable(stmt.table.table));
  MSQL_ASSIGN_OR_RETURN(std::string column, table->DropIndex(stmt.name));
  if (options_.record_ddl_undo) {
    UndoRecord rec;
    rec.kind = UndoRecord::Kind::kDropIndex;
    rec.database = db_->name();
    rec.table = table->schema().table_name();
    rec.index_name = ToLower(stmt.name);
    rec.index_column = std::move(column);
    txn_->RecordUndo(std::move(rec));
  }
  ResultSet out;
  out.rows_affected = 0;
  return out;
}

}  // namespace msql::relational
