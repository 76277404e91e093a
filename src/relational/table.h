#ifndef MSQL_RELATIONAL_TABLE_H_
#define MSQL_RELATIONAL_TABLE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "relational/schema.h"
#include "relational/value.h"

namespace msql::relational {

class Index;

/// A row is a vector of values positionally aligned with a TableSchema.
using Row = std::vector<Value>;

/// Stable identifier of a row inside one table (slot index). A slot is
/// only reused after its row has been tombstoned, and transaction undo
/// applies in reverse order, so undo records still name rows
/// unambiguously: any undo touching a reused slot is preceded by the
/// undo of the operations that reused it.
using RowId = uint64_t;

/// Visitor of a scan: called once per live row, in RowId order. A
/// non-OK status stops the scan and is returned by it.
using RowVisitor = std::function<Status(RowId, Row)>;

/// Where a Table's rows live: the vector store of an in-memory table
/// (table.cc) or the WAL-logged heap of TableStorage (storage_engine.h).
/// The Table picks every RowId and keeps the rowid bookkeeping and the
/// index maintenance; the store holds rows at the ids it is given. Read,
/// Replace and Erase are only asked about live ids, Put about free ones.
/// Put and Replace take the row by value: the Table hands it over, so an
/// in-memory store moves it into place instead of copying it.
class RowStore {
 public:
  virtual ~RowStore() = default;

  virtual Result<Row> Read(RowId id) const = 0;
  virtual Status Put(RowId id, Row row) = 0;
  /// Replace and Erase return the row's before-image.
  virtual Result<Row> Replace(RowId id, Row row) = 0;
  virtual Result<Row> Erase(RowId id) = 0;
  /// Visits every live row in RowId order.
  virtual Status Scan(const RowVisitor& fn) const = 0;
  /// Visits every id with an entry, live or tombstoned, ascending.
  virtual Status ScanEntries(
      const std::function<Status(RowId, bool live)>& fn) const = 0;

  /// A new empty index of this store's kind over `column`; `log_ddl`
  /// false re-creates one whose DDL is already durable.
  virtual Result<std::unique_ptr<Index>> NewIndex(const std::string& name,
                                                  const TableSchema& schema,
                                                  size_t column,
                                                  bool log_ddl) = 0;
  virtual Status OnDropIndex(const std::string& name) = 0;
};

/// A relation: schema, rows in a RowStore, and secondary indexes.
///
/// The store is picked once, when the table is made: the constructor
/// gives an in-memory vector store, Open a caller-owned one (the paged
/// heap of a database with storage attached). Nothing above the table
/// sees which. The table itself keeps the rowid bookkeeping (next id,
/// free list, live count) and maintains every index, in one code path
/// for both stores.
///
/// Mutations go through the RowId-based primitives so that the
/// transaction manager can record precise undo information (the inverse
/// primitive).
class Table {
 public:
  /// An empty in-memory table.
  explicit Table(TableSchema schema);
  ~Table();

  /// A table over `store` (not owned), with its rowid bookkeeping
  /// rebuilt from the store's entries — empty for CREATE TABLE, the
  /// surviving rows for recovery.
  static Result<std::unique_ptr<Table>> Open(TableSchema schema,
                                             RowStore* store);

  Table(const Table&) = delete;
  Table& operator=(const Table&) = delete;

  const TableSchema& schema() const { return schema_; }

  /// Number of live (non-deleted) rows.
  size_t live_row_count() const { return live_count_; }

  /// Upper bound on RowIds ever allocated.
  RowId slot_count() const { return next_rowid_; }

  /// Tombstoned slots currently available for reuse by Insert.
  size_t free_slot_count() const { return free_slots_.size(); }

  /// True if `id` names a live row.
  bool IsLive(RowId id) const {
    return id < next_rowid_ && free_slots_.count(id) == 0;
  }

  /// The live row at `id`, materialized.
  Result<Row> ReadRow(RowId id) const;

  /// Visits every live row in RowId order (one pass over the store).
  Status Scan(const RowVisitor& fn) const;

  /// Appends a row after coercing each value to its column type.
  /// Fails if the arity or a value type does not match.
  Result<RowId> Insert(Row row);

  /// Re-occupies a previously deleted slot with its original content
  /// (transaction undo of a delete). Fails if the slot is live or was
  /// never allocated.
  Status ResurrectRow(RowId id, Row row);

  /// Tombstones a live row, returning its content for the undo log.
  Result<Row> Delete(RowId id);

  /// Replaces a live row's content, returning the before-image.
  Result<Row> Update(RowId id, Row new_row);

  // -- Secondary indexes ------------------------------------------------

  /// Creates an index named `index_name` over `column`, populated from
  /// the current rows. Fails on duplicate name or unknown column.
  /// Recovery passes `log_ddl` false: the catalog record that mandates
  /// the index is already in the WAL.
  Status CreateIndex(std::string_view index_name, std::string_view column,
                     bool log_ddl = true);

  /// Drops the index (its column name is returned so DDL undo can
  /// rebuild it).
  Result<std::string> DropIndex(std::string_view index_name);

  bool HasIndex(std::string_view index_name) const;
  std::vector<std::string> IndexNames() const;

  /// An index over the named column, or nullptr.
  const Index* FindIndexOnColumn(std::string_view column) const;

 private:
  Table(TableSchema schema, RowStore* store);

  /// Checks arity and coerces values to the schema's column types.
  Result<Row> Normalize(Row row) const;

  /// The values of `row`'s indexed columns, one per index in `indexes_`
  /// order: what index maintenance reads once the row itself has moved
  /// into the store.
  std::vector<Value> IndexKeys(const Row& row) const;
  Status IndexInsert(const std::vector<Value>& keys, RowId id);
  Status IndexErase(const std::vector<Value>& keys, RowId id);

  TableSchema schema_;
  std::unique_ptr<RowStore> owned_store_;  // the in-memory vector store
  RowStore* store_;                        // owned_store_ or caller's
  /// Tombstoned slots eligible for reuse, lowest first (deterministic).
  /// Without this, update/delete-heavy sessions grow the store
  /// monotonically: unbounded memory and ever-slower scans.
  std::set<RowId> free_slots_;
  /// First never-allocated rowid.
  RowId next_rowid_ = 0;
  size_t live_count_ = 0;
  std::map<std::string, std::unique_ptr<Index>> indexes_;
};

}  // namespace msql::relational

#endif  // MSQL_RELATIONAL_TABLE_H_
