#ifndef MSQL_RELATIONAL_EXECUTOR_H_
#define MSQL_RELATIONAL_EXECUTOR_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "relational/database.h"
#include "relational/expr_eval.h"
#include "relational/planner.h"
#include "relational/result_set.h"
#include "relational/sql/ast.h"
#include "relational/txn.h"

namespace msql::relational {

/// Execution switches derived from the engine's capability profile.
struct ExecutorOptions {
  /// When true, DDL statements append undo records (Ingres-like DDL
  /// rollback); when false the caller is responsible for the Oracle-like
  /// "DDL commits prior work" dance before invoking the executor.
  bool record_ddl_undo = true;
  /// When true (default), SELECTs run through the local planner:
  /// predicate pushdown, per-source index probes, hash equi-joins. When
  /// false, the original naive cross-product join runs — kept as the
  /// differential-testing oracle.
  bool use_planner = true;
  /// Fill ResultSet::plan_text with the plan's EXPLAIN rendering.
  bool collect_plan_text = false;
  /// Optional observability sinks (null = no instrumentation). The
  /// executor emits "sql.plan"/"sql.join" spans and join-strategy
  /// counters when these are enabled.
  obs::Tracer* tracer = nullptr;
  obs::MetricsRegistry* metrics = nullptr;
};

/// Executes parsed SQL statements against one local database inside a
/// transaction. All data modifications append undo records to `txn`;
/// all table access goes through `locks` (shared for reads, exclusive
/// for writes) with the no-wait conflict policy.
///
/// Every statement binds its expressions once against its FROM scope
/// (relational/binder.h) before touching a row: each column gets a slot
/// in the combined row, each node a type and a may-fail flag. The
/// evaluator reads the slots, the planner the slots and flags. Resolve
/// errors stay in the bound nodes and surface only on an evaluated row.
///
/// SELECT runs through the local planner (relational/planner.h):
/// single-source conjuncts are pushed below the join, each base table
/// is read along the access path ChooseAccessPath picks (scan, index
/// equality or index range), and `a.x = b.y` conjuncts drive
/// build/probe hash joins in a greedy cardinality order. UPDATE and
/// DELETE read their target along the same chooser's path. The
/// original naive executor (full cross product, one WHERE evaluation
/// per combined row) is preserved behind ExecutorOptions::use_planner
/// as the semantics oracle for differential tests.
class Executor {
 public:
  Executor(Database* db, Transaction* txn, LockManager* locks,
           ExecutorOptions options = {})
      : db_(db), txn_(txn), locks_(locks), options_(options) {}

  /// Dispatches on statement kind. Transaction-control verbs are not
  /// handled here (the engine owns the transaction lifecycle).
  Result<ResultSet> Execute(const Statement& stmt);

  Result<ResultSet> ExecuteSelect(const SelectStmt& stmt);
  Result<ResultSet> ExecuteInsert(const InsertStmt& stmt);
  Result<ResultSet> ExecuteUpdate(const UpdateStmt& stmt);
  Result<ResultSet> ExecuteDelete(const DeleteStmt& stmt);
  Result<ResultSet> ExecuteCreateTable(const CreateTableStmt& stmt);
  Result<ResultSet> ExecuteDropTable(const DropTableStmt& stmt);
  Result<ResultSet> ExecuteCreateView(const CreateViewStmt& stmt);
  Result<ResultSet> ExecuteDropView(const DropViewStmt& stmt);
  Result<ResultSet> ExecuteCreateIndex(const CreateIndexStmt& stmt);
  Result<ResultSet> ExecuteDropIndex(const DropIndexStmt& stmt);

  /// EXPLAIN: the deterministic text rendering of the plan, without
  /// running it. A SELECT is resolved and planned (views are still
  /// materialized — their cardinality feeds the join-order estimates);
  /// an UPDATE or DELETE renders its target's chosen access path. Any
  /// other statement is refused.
  Result<std::string> Explain(const Statement& stmt);

 private:
  /// One resolved FROM source: schema, effective name, and (for views)
  /// pre-materialized rows. Base-table rows are fetched later, once the
  /// plan has chosen an access path.
  struct ResolvedSource {
    std::string effective_name;
    TableSchema schema;
    std::vector<Row> rows;
    const Table* table = nullptr;  // null for views
  };

  /// Locks and resolves every FROM source, materializing views
  /// (accumulating their recursive scan cost into `recursive_scanned`),
  /// and returns the statement's binding scope over them.
  Result<BindScope> ResolveSources(const SelectStmt& stmt,
                                   std::vector<ResolvedSource>* sources,
                                   int64_t* recursive_scanned);

  /// The planned SELECT pipeline: fetch per access path, filter pushed
  /// conjuncts per source, run the hash/nested-loop join steps, apply
  /// the final residual. Produces joined rows in FROM-major order.
  Result<std::vector<Row>> RunPlannedJoin(const SelectPlan& plan,
                                          std::vector<ResolvedSource>* sources,
                                          int64_t* rows_scanned,
                                          int64_t* rows_evaluated);

  /// The preserved naive oracle: full cross product, one WHERE
  /// evaluation per combined row.
  Result<std::vector<Row>> RunNaiveJoin(const BoundExpr* where,
                                        std::vector<ResolvedSource>* sources,
                                        int64_t* rows_scanned,
                                        int64_t* rows_evaluated);

  static std::vector<PlannerSource> ToPlannerSources(
      const std::vector<ResolvedSource>& sources);

  /// The schemas of this database's base tables, by name.
  SchemaResolver BaseTables() const;

  /// An evaluator whose scalar subqueries run through this executor.
  ExprEvaluator Evaluator(size_t first_slot = 0);

  /// The row source of every statement: visits the rows of `table`
  /// along `path` in RowId order — one pass over the store for a scan,
  /// one read per returned RowId for a probe (which counts one
  /// `sql.index_probes`).
  Status ForEachRow(const Table& table, const AccessPath& path,
                    const RowVisitor& fn);

  /// Materializes each base-table source along `paths[i]` (views are
  /// already materialized) and adds every source's row count to
  /// `rows_scanned`.
  Status FetchSources(const std::vector<AccessPath>& paths,
                      std::vector<ResolvedSource>* sources,
                      int64_t* rows_scanned);

  /// The access path of a single-table statement (UPDATE, DELETE, a
  /// naive one-source SELECT) from its whole bound WHERE; a scan without
  /// one.
  static AccessPath ChoosePathForWhere(const Table& table,
                                       const BoundExpr* where);

  /// UPDATE (`assignments` set) or DELETE (`assignments` null): collects
  /// every matching row and its new image first, then applies them.
  Result<ResultSet> ExecuteWrite(const TableRef& ref, const Expr* where,
                                 const std::vector<Assignment>* assignments);

  /// Evaluates a scalar subquery: one column, at most one row; zero rows
  /// yield SQL NULL.
  Result<Value> EvalScalarSubquery(const SelectStmt& stmt);

  /// Rejects DML whose target names a view.
  Status RejectViewTarget(const TableRef& ref) const;

  /// Checks an optional db qualifier against the executor's database.
  Status CheckQualifier(const TableRef& ref) const;

  /// Lock key "db.table".
  std::string LockKey(const std::string& table) const;

  Database* db_;
  Transaction* txn_;
  LockManager* locks_;
  ExecutorOptions options_;
};

}  // namespace msql::relational

#endif  // MSQL_RELATIONAL_EXECUTOR_H_
