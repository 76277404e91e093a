#ifndef MSQL_RELATIONAL_DATABASE_H_
#define MSQL_RELATIONAL_DATABASE_H_

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "relational/sql/ast.h"
#include "relational/table.h"

namespace msql::relational {

class StorageManager;

/// A named collection of tables — one Local Conceptual Schema (LCS).
///
/// All names are canonicalized to lower case. DROP returns ownership of
/// the dropped table so the transaction manager can restore it if the
/// engine's capability profile makes DDL rollbackable (§3.2.2).
///
/// With a StorageManager attached, catalog changes are WAL-logged and
/// new tables are paged; without one the database is purely in-memory
/// (the original engine behavior).
class Database {
 public:
  explicit Database(std::string name);

  /// Routes subsequent DDL through `mgr` (nullptr to detach). Recovery
  /// attaches only after rebuilding the catalog, so the rebuild itself
  /// is not re-logged.
  void AttachStorageManager(StorageManager* mgr) { storage_mgr_ = mgr; }

  const std::string& name() const { return name_; }

  /// Tables in name order (deterministic iteration for IMPORT and tests).
  std::vector<std::string> TableNames() const;

  /// Table names matching an MSQL '%' wildcard pattern.
  std::vector<std::string> MatchTables(std::string_view pattern) const;

  bool HasTable(std::string_view table) const;

  /// Mutable/const access to a table.
  Result<Table*> GetTable(std::string_view table);
  Result<const Table*> GetTableConst(std::string_view table) const;

  /// Creates an empty table with the given schema.
  Status CreateTable(TableSchema schema);

  /// Removes the table and returns it (for DDL undo logs).
  Result<std::unique_ptr<Table>> DropTable(std::string_view table);

  /// Re-attaches a previously dropped table (DDL rollback).
  Status RestoreTable(std::unique_ptr<Table> table);

  // -- Views ----------------------------------------------------------------
  // Local (LDBS-level) views: named SELECT definitions, materialized at
  // query time. Their definitions are exportable through IMPORT VIEW.

  bool HasView(std::string_view view) const;

  /// Registers a view; the name must not collide with a table or view.
  Status CreateView(std::string_view view,
                    std::unique_ptr<SelectStmt> definition);

  /// Removes the view, returning its definition (for DDL undo logs).
  Result<std::unique_ptr<SelectStmt>> DropView(std::string_view view);

  Result<const SelectStmt*> GetView(std::string_view view) const;

 private:
  std::string name_;
  StorageManager* storage_mgr_ = nullptr;  // non-owning; null = in-memory
  std::map<std::string, std::unique_ptr<Table>> tables_;
  std::map<std::string, std::unique_ptr<SelectStmt>> views_;
};

}  // namespace msql::relational

#endif  // MSQL_RELATIONAL_DATABASE_H_
