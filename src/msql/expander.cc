#include "msql/expander.h"

#include <algorithm>

#include "analysis/diagnostics.h"
#include "common/string_util.h"

namespace msql::lang {

namespace {

/// Renders a span-carrying expander error in the diagnostics format so
/// messages point at the offending token (satellite of DESIGN.md §8).
Status ExpansionError(std::string_view code, int line, int column,
                      int length, std::string message,
                      std::string fix_hint = "") {
  analysis::Diagnostic d;
  d.code = std::string(code);
  d.severity = analysis::Severity::kError;
  d.span = analysis::SourceSpan::At(line, column, length);
  d.message = std::move(message);
  d.fix_hint = std::move(fix_hint);
  return Status::InvalidArgument(d.Render());
}

}  // namespace

using relational::ColumnRefExpr;
using relational::Expr;
using relational::ExprKind;
using relational::ExprPtr;
using relational::SelectStmt;
using relational::Statement;
using relational::StatementKind;
using relational::StatementPtr;

namespace {

// ---------------------------------------------------------------------------
// Identifier collection
// ---------------------------------------------------------------------------

void CollectExpr(const Expr& e, std::set<std::string>* tables,
                 std::map<std::string, bool>* columns);

void CollectSelect(const SelectStmt& stmt, std::set<std::string>* tables,
                   std::map<std::string, bool>* columns) {
  for (const auto& ref : stmt.from) tables->insert(ref.table);
  for (const auto& item : stmt.items) {
    if (item.expr != nullptr) CollectExpr(*item.expr, tables, columns);
  }
  if (stmt.where != nullptr) CollectExpr(*stmt.where, tables, columns);
  for (const auto& g : stmt.group_by) CollectExpr(*g, tables, columns);
  if (stmt.having != nullptr) CollectExpr(*stmt.having, tables, columns);
  for (const auto& ob : stmt.order_by) {
    CollectExpr(*ob.expr, tables, columns);
  }
}

void NoteColumn(const std::string& name, bool optional,
                std::map<std::string, bool>* columns) {
  auto [it, inserted] = columns->emplace(name, optional);
  if (!inserted) it->second = it->second && optional;
}

void CollectExpr(const Expr& e, std::set<std::string>* tables,
                 std::map<std::string, bool>* columns) {
  switch (e.kind()) {
    case ExprKind::kLiteral:
      return;
    case ExprKind::kColumnRef: {
      const auto& ref = static_cast<const ColumnRefExpr&>(e);
      NoteColumn(ref.name(), ref.optional_column(), columns);
      return;
    }
    case ExprKind::kUnary:
      CollectExpr(static_cast<const relational::UnaryExpr&>(e).operand(),
                  tables, columns);
      return;
    case ExprKind::kBinary: {
      const auto& b = static_cast<const relational::BinaryExpr&>(e);
      CollectExpr(b.left(), tables, columns);
      CollectExpr(b.right(), tables, columns);
      return;
    }
    case ExprKind::kFunctionCall: {
      const auto& f = static_cast<const relational::FunctionCallExpr&>(e);
      for (const auto& a : f.args()) CollectExpr(*a, tables, columns);
      return;
    }
    case ExprKind::kScalarSubquery:
      CollectSelect(
          static_cast<const relational::ScalarSubqueryExpr&>(e).select(),
          tables, columns);
      return;
    case ExprKind::kInList: {
      const auto& in = static_cast<const relational::InListExpr&>(e);
      CollectExpr(in.operand(), tables, columns);
      for (const auto& item : in.list()) {
        CollectExpr(*item, tables, columns);
      }
      return;
    }
    case ExprKind::kBetween: {
      const auto& bt = static_cast<const relational::BetweenExpr&>(e);
      CollectExpr(bt.operand(), tables, columns);
      CollectExpr(bt.lo(), tables, columns);
      CollectExpr(bt.hi(), tables, columns);
      return;
    }
  }
}

// ---------------------------------------------------------------------------
// Rewriting
// ---------------------------------------------------------------------------

using NameMap = std::map<std::string, std::string>;

Status RewriteExpr(Expr* e, const NameMap& table_map,
                   const NameMap& column_map);

Status RewriteSelect(SelectStmt* stmt, const NameMap& table_map,
                     const NameMap& column_map) {
  for (auto& ref : stmt->from) {
    auto it = table_map.find(ref.table);
    if (it != table_map.end()) ref.table = it->second;
  }
  // Select items: a dropped optional column removes its item.
  std::vector<relational::SelectItem> kept;
  for (auto& item : stmt->items) {
    if (item.expr != nullptr &&
        item.expr->kind() == ExprKind::kColumnRef) {
      auto* ref = static_cast<ColumnRefExpr*>(item.expr.get());
      auto col_it = column_map.find(ref->name());
      if (col_it != column_map.end()) {
        if (col_it->second.empty()) continue;  // dropped optional column
        if (item.alias.empty()) item.alias = SemanticAlias(ref->name());
        ref->set_name(col_it->second);
      }
      ref->clear_optional();
      auto q_it = table_map.find(ref->qualifier());
      if (q_it != table_map.end()) ref->set_qualifier(q_it->second);
      kept.push_back(std::move(item));
      continue;
    }
    if (item.expr != nullptr) {
      MSQL_RETURN_IF_ERROR(
          RewriteExpr(item.expr.get(), table_map, column_map));
    }
    kept.push_back(std::move(item));
  }
  if (kept.empty() && !stmt->items.empty()) {
    return Status::InvalidArgument(
        "all select items were dropped as optional columns");
  }
  stmt->items = std::move(kept);
  if (stmt->where != nullptr) {
    MSQL_RETURN_IF_ERROR(
        RewriteExpr(stmt->where.get(), table_map, column_map));
  }
  for (auto& g : stmt->group_by) {
    MSQL_RETURN_IF_ERROR(RewriteExpr(g.get(), table_map, column_map));
  }
  if (stmt->having != nullptr) {
    MSQL_RETURN_IF_ERROR(
        RewriteExpr(stmt->having.get(), table_map, column_map));
  }
  for (auto& ob : stmt->order_by) {
    MSQL_RETURN_IF_ERROR(RewriteExpr(ob.expr.get(), table_map, column_map));
  }
  return Status::OK();
}

Status RewriteExpr(Expr* e, const NameMap& table_map,
                   const NameMap& column_map) {
  switch (e->kind()) {
    case ExprKind::kLiteral:
      return Status::OK();
    case ExprKind::kColumnRef: {
      auto* ref = static_cast<ColumnRefExpr*>(e);
      auto it = column_map.find(ref->name());
      if (it != column_map.end()) {
        if (it->second.empty()) {
          return Status::InvalidArgument(
              "optional column '" + ref->name() +
              "' does not resolve and is used outside the select list");
        }
        ref->set_name(it->second);
      }
      ref->clear_optional();
      auto q_it = table_map.find(ref->qualifier());
      if (q_it != table_map.end()) ref->set_qualifier(q_it->second);
      return Status::OK();
    }
    case ExprKind::kUnary:
      return RewriteExpr(
          static_cast<relational::UnaryExpr*>(e)->mutable_operand(),
          table_map, column_map);
    case ExprKind::kBinary: {
      auto* b = static_cast<relational::BinaryExpr*>(e);
      MSQL_RETURN_IF_ERROR(
          RewriteExpr(b->mutable_left(), table_map, column_map));
      return RewriteExpr(b->mutable_right(), table_map, column_map);
    }
    case ExprKind::kFunctionCall: {
      auto* f = static_cast<relational::FunctionCallExpr*>(e);
      for (auto& a : f->mutable_args()) {
        MSQL_RETURN_IF_ERROR(RewriteExpr(a.get(), table_map, column_map));
      }
      return Status::OK();
    }
    case ExprKind::kScalarSubquery: {
      auto* sub = static_cast<relational::ScalarSubqueryExpr*>(e);
      return RewriteSelect(sub->mutable_select(), table_map, column_map);
    }
    case ExprKind::kInList: {
      auto* in = static_cast<relational::InListExpr*>(e);
      MSQL_RETURN_IF_ERROR(
          RewriteExpr(in->mutable_operand(), table_map, column_map));
      for (auto& item : in->mutable_list()) {
        MSQL_RETURN_IF_ERROR(
            RewriteExpr(item.get(), table_map, column_map));
      }
      return Status::OK();
    }
    case ExprKind::kBetween: {
      auto* bt = static_cast<relational::BetweenExpr*>(e);
      MSQL_RETURN_IF_ERROR(
          RewriteExpr(bt->mutable_operand(), table_map, column_map));
      MSQL_RETURN_IF_ERROR(
          RewriteExpr(bt->mutable_lo(), table_map, column_map));
      return RewriteExpr(bt->mutable_hi(), table_map, column_map);
    }
  }
  return Status::Internal("unhandled expression kind in rewrite");
}

/// Cartesian-product iterator over per-name candidate lists.
class ComboIterator {
 public:
  explicit ComboIterator(
      const std::vector<std::pair<std::string, std::vector<std::string>>>&
          candidates)
      : candidates_(candidates), indices_(candidates.size(), 0) {
    for (const auto& [name, cands] : candidates_) {
      if (cands.empty()) exhausted_ = true;
    }
  }

  bool exhausted() const { return exhausted_; }

  NameMap Current() const {
    NameMap map;
    for (size_t i = 0; i < candidates_.size(); ++i) {
      map[candidates_[i].first] = candidates_[i].second[indices_[i]];
    }
    return map;
  }

  void Advance() {
    size_t level = candidates_.size();
    while (level > 0) {
      --level;
      if (++indices_[level] < candidates_[level].second.size()) return;
      indices_[level] = 0;
      if (level == 0) exhausted_ = true;
    }
    if (candidates_.empty()) exhausted_ = true;
  }

 private:
  const std::vector<std::pair<std::string, std::vector<std::string>>>&
      candidates_;
  std::vector<size_t> indices_;
  bool exhausted_ = false;
};

}  // namespace

std::string SemanticAlias(const std::string& written_name) {
  if (!HasWildcard(written_name)) return written_name;
  std::string out;
  for (char c : written_name) {
    if (c != '%') out += c;
  }
  return out.empty() ? "col" : out;
}

void CollectIdentifiers(const Statement& stmt,
                        std::set<std::string>* tables,
                        std::map<std::string, bool>* columns) {
  switch (stmt.kind()) {
    case StatementKind::kSelect:
      CollectSelect(static_cast<const SelectStmt&>(stmt), tables, columns);
      return;
    case StatementKind::kInsert: {
      const auto& ins = static_cast<const relational::InsertStmt&>(stmt);
      tables->insert(ins.table.table);
      for (const auto& col : ins.columns) NoteColumn(col, false, columns);
      for (const auto& row : ins.values_rows) {
        for (const auto& e : row) CollectExpr(*e, tables, columns);
      }
      if (ins.select_source != nullptr) {
        CollectSelect(*ins.select_source, tables, columns);
      }
      return;
    }
    case StatementKind::kUpdate: {
      const auto& upd = static_cast<const relational::UpdateStmt&>(stmt);
      tables->insert(upd.table.table);
      for (const auto& a : upd.assignments) {
        NoteColumn(a.column, false, columns);
        CollectExpr(*a.value, tables, columns);
      }
      if (upd.where != nullptr) CollectExpr(*upd.where, tables, columns);
      return;
    }
    case StatementKind::kDelete: {
      const auto& del = static_cast<const relational::DeleteStmt&>(stmt);
      tables->insert(del.table.table);
      if (del.where != nullptr) CollectExpr(*del.where, tables, columns);
      return;
    }
    default:
      // DDL and transaction-control statements carry literal names that
      // are never expanded.
      return;
  }
}

Status RewriteIdentifiers(Statement* stmt, const NameMap& table_map,
                          const NameMap& column_map) {
  switch (stmt->kind()) {
    case StatementKind::kSelect:
      return RewriteSelect(static_cast<SelectStmt*>(stmt), table_map,
                           column_map);
    case StatementKind::kInsert: {
      auto* ins = static_cast<relational::InsertStmt*>(stmt);
      auto it = table_map.find(ins->table.table);
      if (it != table_map.end()) ins->table.table = it->second;
      for (auto& col : ins->columns) {
        auto col_it = column_map.find(col);
        if (col_it != column_map.end()) {
          if (col_it->second.empty()) {
            return Status::InvalidArgument(
                "optional column '" + col + "' cannot be an INSERT target");
          }
          col = col_it->second;
        }
      }
      for (auto& row : ins->values_rows) {
        for (auto& e : row) {
          MSQL_RETURN_IF_ERROR(RewriteExpr(e.get(), table_map, column_map));
        }
      }
      if (ins->select_source != nullptr) {
        MSQL_RETURN_IF_ERROR(RewriteSelect(ins->select_source.get(),
                                           table_map, column_map));
      }
      return Status::OK();
    }
    case StatementKind::kUpdate: {
      auto* upd = static_cast<relational::UpdateStmt*>(stmt);
      auto it = table_map.find(upd->table.table);
      if (it != table_map.end()) upd->table.table = it->second;
      for (auto& a : upd->assignments) {
        auto col_it = column_map.find(a.column);
        if (col_it != column_map.end()) {
          if (col_it->second.empty()) {
            return Status::InvalidArgument(
                "optional column '" + a.column +
                "' cannot be an UPDATE target");
          }
          a.column = col_it->second;
        }
        MSQL_RETURN_IF_ERROR(
            RewriteExpr(a.value.get(), table_map, column_map));
      }
      if (upd->where != nullptr) {
        MSQL_RETURN_IF_ERROR(
            RewriteExpr(upd->where.get(), table_map, column_map));
      }
      return Status::OK();
    }
    case StatementKind::kDelete: {
      auto* del = static_cast<relational::DeleteStmt*>(stmt);
      auto it = table_map.find(del->table.table);
      if (it != table_map.end()) del->table.table = it->second;
      if (del->where != nullptr) {
        MSQL_RETURN_IF_ERROR(
            RewriteExpr(del->where.get(), table_map, column_map));
      }
      return Status::OK();
    }
    default:
      return Status::OK();
  }
}

Result<ExpansionResult> Expander::Expand(const MsqlQuery& query) const {
  ExpansionResult out;
  MSQL_RETURN_IF_ERROR(ExpandInto(query, &out));
  return out;
}

Status Expander::ExpandInto(const MsqlQuery& query,
                            ExpansionResult* out) const {
  const auto& entries = query.use.entries;
  if (entries.empty()) {
    return Status::InvalidArgument(
        "query has an empty scope (no USE databases resolved)");
  }
  // Scope databases must be unique by effective name.
  {
    std::set<std::string> seen;
    for (const auto& e : entries) {
      if (!seen.insert(e.EffectiveName()).second) {
        return ExpansionError(
            analysis::diag::kDuplicateEffectiveName, e.line, e.column,
            static_cast<int>(e.database.size()),
            "database or alias '" + e.EffectiveName() +
                "' appears twice in the USE scope",
            "give the second occurrence a distinct alias");
      }
    }
  }
  // LET targets must align with the scope.
  if (query.let.has_value()) {
    for (const auto& binding : query.let->bindings) {
      if (binding.targets.size() != entries.size()) {
        return ExpansionError(
            analysis::diag::kLetArityMismatch, binding.line, binding.column,
            static_cast<int>(binding.variable_path.empty()
                                 ? 1
                                 : binding.variable_path[0].size()),
            "LET " + Join(binding.variable_path, ".") + " provides " +
                std::to_string(binding.targets.size()) + " targets for " +
                std::to_string(entries.size()) + " scope databases",
            "LET targets bind positionally: give one per USE entry");
      }
    }
  }

  NameInventory inventory;
  CollectIdentifiers(*query.body, &inventory.tables, &inventory.columns);

  for (size_t i = 0; i < entries.size(); ++i) {
    MSQL_ASSIGN_OR_RETURN(StatementPtr stmt,
                          ExpandForDatabase(query, i, inventory));
    if (stmt == nullptr) {
      out->non_pertinent.push_back(entries[i].EffectiveName());
      continue;
    }
    ElementaryQuery eq;
    eq.database = entries[i].database;
    eq.effective_name = entries[i].EffectiveName();
    eq.vital = entries[i].vital;
    eq.statement = std::move(stmt);
    out->queries.push_back(std::move(eq));
  }

  // Attach compensating actions as the checker's HasComp counts them: a
  // COMP naming a database covers every alias of it, and one naming an
  // alias overrides that for its subquery. A later clause for the same
  // name wins.
  for (const auto& comp : query.comps) {
    bool named = false;
    for (const auto& eq : out->queries) {
      named = named || EqualsIgnoreCase(eq.effective_name, comp.database) ||
              EqualsIgnoreCase(eq.database, comp.database);
    }
    if (!named) {
      return ExpansionError(
          analysis::diag::kCompUnknownDatabase, comp.line, comp.column,
          static_cast<int>(comp.database.size()),
          "COMP clause names '" + comp.database +
              "', which has no subquery in this multiple query");
    }
  }
  for (bool by_alias : {false, true}) {
    for (const auto& comp : query.comps) {
      for (auto& eq : out->queries) {
        if (EqualsIgnoreCase(by_alias ? eq.effective_name : eq.database,
                             comp.database)) {
          eq.compensation = comp.action->Clone();
        }
      }
    }
  }
  return Status::OK();
}

Result<StatementPtr> Expander::ExpandForDatabase(
    const MsqlQuery& query, size_t entry_index,
    const NameInventory& inventory) const {
  const UseEntry& entry = query.use.entries[entry_index];
  const std::string& db = entry.database;
  if (!gdd_->HasDatabase(db)) {
    analysis::Diagnostic d;
    d.code = std::string(analysis::diag::kUnknownDatabase);
    d.severity = analysis::Severity::kError;
    d.span = analysis::SourceSpan::At(entry.line, entry.column,
                                      static_cast<int>(db.size()));
    d.message = "database '" + db + "' is not in the GDD (IMPORT it first)";
    return Status::NotFound(d.Render());
  }

  // DDL bodies are replicated verbatim (multidatabase table definition).
  if (query.body->kind() == StatementKind::kCreateTable) {
    return query.body->Clone();
  }
  if (query.body->kind() == StatementKind::kDropTable) {
    const auto& drop =
        static_cast<const relational::DropTableStmt&>(*query.body);
    if (!gdd_->HasTable(db, drop.table.table)) return StatementPtr(nullptr);
    return query.body->Clone();
  }

  // LET maps for this database.
  NameMap table_let;
  NameMap column_let;
  if (query.let.has_value()) {
    for (const auto& binding : query.let->bindings) {
      const auto& target = binding.targets[entry_index];
      for (size_t c = 0; c < binding.variable_path.size(); ++c) {
        NameMap& map = (c == 0) ? table_let : column_let;
        const std::string& var = binding.variable_path[c];
        auto [it, inserted] = map.emplace(var, target[c]);
        if (!inserted && it->second != target[c]) {
          return Status::InvalidArgument(
              "semantic variable '" + var +
              "' is bound twice with different targets");
        }
      }
    }
  }

  // Table candidates.
  std::vector<std::pair<std::string, std::vector<std::string>>> table_cands;
  for (const auto& t : inventory.tables) {
    std::vector<std::string> cands;
    auto let_it = table_let.find(t);
    if (let_it != table_let.end()) {
      if (gdd_->HasTable(db, let_it->second)) cands.push_back(let_it->second);
    } else if (HasWildcard(t)) {
      MSQL_ASSIGN_OR_RETURN(cands, gdd_->MatchTables(db, t));
    } else if (gdd_->HasTable(db, t)) {
      cands.push_back(t);
    }
    if (cands.empty()) return StatementPtr(nullptr);  // non-pertinent
    table_cands.emplace_back(t, std::move(cands));
  }

  std::vector<StatementPtr> pertinent;
  std::set<std::string> pertinent_sql;  // dedupe identical rewrites

  for (ComboIterator tables_it(table_cands); !tables_it.exhausted();
       tables_it.Advance()) {
    NameMap table_map = tables_it.Current();
    // The set of local tables this combination reads/writes.
    std::vector<const relational::TableSchema*> local_tables;
    for (const auto& [written, local] : table_map) {
      MSQL_ASSIGN_OR_RETURN(const relational::TableSchema* schema,
                            gdd_->GetTable(db, local));
      local_tables.push_back(schema);
    }

    auto column_exists = [&](const std::string& name) {
      for (const auto* schema : local_tables) {
        if (schema->HasColumn(name)) return true;
      }
      return false;
    };

    // Column candidates under this table combination.
    std::vector<std::pair<std::string, std::vector<std::string>>> col_cands;
    bool combo_dead = false;
    for (const auto& [name, optional] : inventory.columns) {
      std::vector<std::string> cands;
      auto let_it = column_let.find(name);
      if (let_it != column_let.end()) {
        if (column_exists(let_it->second)) cands.push_back(let_it->second);
      } else if (HasWildcard(name)) {
        std::set<std::string> uniq;
        for (const auto* schema : local_tables) {
          for (const auto& m : schema->MatchColumns(name)) uniq.insert(m);
        }
        cands.assign(uniq.begin(), uniq.end());
      } else if (column_exists(name)) {
        cands.push_back(name);
      }
      if (cands.empty()) {
        if (optional) {
          cands.push_back("");  // dropped optional column
        } else {
          combo_dead = true;
          break;
        }
      }
      col_cands.emplace_back(name, std::move(cands));
    }
    if (combo_dead) continue;

    for (ComboIterator cols_it(col_cands); !cols_it.exhausted();
         cols_it.Advance()) {
      NameMap column_map = cols_it.Current();
      StatementPtr candidate = query.body->Clone();
      Status rewritten =
          RewriteIdentifiers(candidate.get(), table_map, column_map);
      if (!rewritten.ok()) continue;  // substitution not pertinent
      std::string sql = candidate->ToSql();
      if (pertinent_sql.insert(sql).second) {
        pertinent.push_back(std::move(candidate));
      }
    }
  }

  if (pertinent.empty()) return StatementPtr(nullptr);
  if (pertinent.size() > 1) {
    std::string alternatives;
    for (const auto& p : pertinent) alternatives += "\n  " + p->ToSql();
    return Status::InvalidArgument(
        "multiple query is ambiguous on database '" + db + "' — " +
        std::to_string(pertinent.size()) +
        " pertinent substitutions remain after disambiguation:" +
        alternatives);
  }
  return std::move(pertinent[0]);
}

}  // namespace msql::lang
