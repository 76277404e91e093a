#ifndef MSQL_RELATIONAL_STORAGE_ENGINE_H_
#define MSQL_RELATIONAL_STORAGE_ENGINE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "relational/index.h"
#include "relational/schema.h"
#include "relational/table.h"
#include "relational/txn.h"
#include "relational/value.h"
#include "storage/btree.h"
#include "storage/buffer_manager.h"
#include "storage/disk_manager.h"
#include "storage/heap_file.h"
#include "storage/wal.h"

namespace msql::relational {

class StorageManager;

/// How a LocalEngine persists its databases.
struct StorageConfig {
  /// Directory holding the WAL and every heap/index file.
  std::string root_dir;
  /// Buffer pool size in 4 KiB frames — the engine's entire page-cache
  /// memory budget, shared by all files of the root.
  size_t buffer_pool_pages = 64;
};

/// Paged persistence of one table incarnation (one heap file): the
/// RowStore of every table in a database with storage attached. A
/// "drop then re-create" of the same table name gets a fresh
/// TableStorage with a distinct file (stems embed the creating DDL
/// record's LSN), so an aborted re-create can never clobber the old
/// incarnation's data. Owned by the StorageManager; the Table object
/// holds a non-owning pointer. Each mutation appends its WAL record
/// (attributed to the manager's current transaction) first, then
/// changes the heap on the same LSN.
class TableStorage final : public RowStore {
 public:
  TableStorage(StorageManager* mgr, std::string db, std::string table,
               std::string path);
  ~TableStorage() override;

  TableStorage(const TableStorage&) = delete;
  TableStorage& operator=(const TableStorage&) = delete;

  /// Opens the heap file, formatting it when empty.
  Status OpenOrCreate();

  const std::string& db() const { return db_; }
  const std::string& table() const { return table_; }
  storage::HeapFile* heap() { return heap_.get(); }

  Result<Row> Read(RowId id) const override;
  Status Put(RowId id, Row row) override;
  Result<Row> Replace(RowId id, Row row) override;
  Result<Row> Erase(RowId id) override;
  Status Scan(const RowVisitor& fn) const override;
  Status ScanEntries(
      const std::function<Status(RowId, bool)>& fn) const override;
  Result<std::unique_ptr<Index>> NewIndex(const std::string& name,
                                          const TableSchema& schema,
                                          size_t column,
                                          bool log_ddl) override;
  Status OnDropIndex(const std::string& name) override;

 private:
  StorageManager* mgr_;
  std::string db_;
  std::string table_;
  std::string path_;
  std::unique_ptr<storage::DiskManager> disk_;
  uint32_t file_id_ = 0;
  std::unique_ptr<storage::HeapFile> heap_;
};

/// Page-backed secondary index: a B+-tree over order-preserving key
/// encodings with the rowid appended (multimap semantics through
/// unique composite keys). Carries no LSNs — after a crash the tree is
/// rebuilt wholesale from a heap scan, so runtime maintenance never
/// needs logging.
class BtreeIndex : public Index {
 public:
  BtreeIndex(std::string name, size_t column_index, Type column_type,
             StorageManager* mgr, std::string path);
  ~BtreeIndex() override;

  /// Opens the file and resets the tree to empty (callers repopulate).
  Status OpenOrReset();

  Status Insert(const Value& key, RowId id) override;
  Status Erase(const Value& key, RowId id) override;
  Result<std::vector<RowId>> LookupIds(const Value& key) const override;
  /// One B+-tree ScanRange over the order-preserving key encodings.
  Result<std::vector<RowId>> LookupRange(const Value& lo,
                                         const Value& hi) const override;
  size_t distinct_keys() const override { return distinct_; }

 private:
  /// Any composite entry whose value part equals `prefix`?
  Result<bool> AnyWithPrefix(const std::string& prefix) const;

  Type column_type_;
  StorageManager* mgr_;
  std::string path_;
  std::unique_ptr<storage::DiskManager> disk_;
  uint32_t file_id_ = 0;
  std::unique_ptr<storage::BTree> tree_;
  /// Maintained incrementally (planner selectivity input); exact.
  size_t distinct_ = 0;
};

// -- Recovery report ---------------------------------------------------------

struct RecoveredIndexInfo {
  std::string name;
  std::string column;
};

struct RecoveredTableInfo {
  TableSchema schema;
  TableStorage* storage = nullptr;
  std::vector<RecoveredIndexInfo> indexes;
};

struct RecoveredViewInfo {
  std::string name;
  std::string sql;
};

struct RecoveredDatabaseInfo {
  std::map<std::string, RecoveredTableInfo> tables;
  std::vector<RecoveredViewInfo> views;
};

/// A transaction that crashed in the 2PC prepared state. The engine
/// re-creates its session and transaction, re-acquires its exclusive
/// locks and rebuilds its undo log from WAL before-images, so the
/// coordinator can still resolve it either way.
struct PreparedTxnImage {
  TxnId txn_id = 0;
  uint64_t session_id = 0;
  std::string db;
  /// Undo records in execution order (Transaction applies in reverse).
  std::vector<UndoRecord> undo;
  /// "db.table" resources to re-lock exclusively.
  std::vector<std::string> lock_keys;
};

struct RecoveryReport {
  std::map<std::string, RecoveredDatabaseInfo> databases;
  std::vector<PreparedTxnImage> prepared;
  TxnId max_txn_id = 0;
  uint64_t max_session_id = 0;
};

// -- Storage manager ---------------------------------------------------------

/// Durability brain of one LocalEngine: owns the buffer pool, the WAL
/// and every TableStorage, and turns engine/transaction events into
/// log records. Protocol invariants (see DESIGN.md §15):
///   - WAL before data: every heap change appends its logical record
///     first and stamps the record's LSN on the heap entry.
///   - No-steal: pages dirtied by a transaction cannot reach disk until
///     the transaction's outcome record is durable (pool ReleaseTxn is
///     called only after the WAL flush in OnCommit/OnAbort/OnPrepare),
///     so recovery is pure redo — no page-level undo exists.
///   - Compensation: logical undo performed during rollback is logged
///     as transaction-0 records (always redone), which keeps a
///     prepared-then-aborted transaction's flushed pages correct.
///   - The WAL is never truncated; recovery replays it from the start,
///     which also makes it the only catalog (DDL records rebuild the
///     schema; no separate catalog file can get out of sync).
class StorageManager {
 public:
  explicit StorageManager(StorageConfig config);
  ~StorageManager();

  StorageManager(const StorageManager&) = delete;
  StorageManager& operator=(const StorageManager&) = delete;

  /// Creates the root directory if needed and opens the WAL.
  Status Open();

  const StorageConfig& config() const { return config_; }
  storage::BufferManager& pool() { return pool_; }
  storage::WriteAheadLog& wal() { return wal_; }
  void SetMetrics(obs::MetricsRegistry* metrics) {
    pool_.SetMetrics(metrics);
    wal_.SetMetrics(metrics);
  }
  /// Emits "storage.checkpoint"/"storage.recover" spans (and forwards
  /// to the pool's eviction and the WAL's flush spans). Nullptr stops.
  void SetTracer(obs::Tracer* tracer) {
    tracer_ = tracer;
    pool_.SetTracer(tracer);
    wal_.SetTracer(tracer);
  }

  // -- Transaction context (set by the engine around execution) ----------

  void SetCurrentTxn(TxnId txn, uint64_t session, std::string db);
  void ClearCurrentTxn();
  /// During rollback, mutations are compensations: logged as
  /// transaction 0 (always redone) and DDL logging is suppressed.
  /// `txn` is the transaction being undone; compensations against
  /// incarnations that transaction itself created are not logged at
  /// all (replay discards the whole incarnation, and the table name
  /// binds to an older incarnation there, so such a record would
  /// corrupt it).
  void SetUndoMode(bool on, TxnId txn = 0) {
    undo_mode_ = on;
    undo_txn_ = on ? txn : 0;
  }
  bool undo_mode() const { return undo_mode_; }
  /// Transaction that page writes are attributed to right now.
  TxnId effective_txn() const { return undo_mode_ ? 0 : current_txn_; }

  // -- Transaction outcomes ----------------------------------------------

  /// Logs COMMIT, flushes, releases the no-steal holds and applies the
  /// transaction's buffered DDL (dropped storages are destroyed).
  /// Transactions that never logged anything skip the WAL entirely.
  Status OnCommit(TxnId txn);
  /// Logs ABORT (the caller has already applied undo — with undo mode
  /// set — so compensations precede this record), flushes, releases
  /// holds and reverses the buffered DDL.
  Status OnAbort(TxnId txn);
  /// Forces BEGIN if missing, logs PREPARE, flushes and releases the
  /// no-steal holds: a prepared transaction's effects are durable and
  /// its pages may reach disk (compensations handle a later abort).
  Status OnPrepare(TxnId txn, uint64_t session, const std::string& db);

  /// WAL flush, bounded page writeback, checkpoint record. `max_pages`
  /// caps the writeback so tests can crash mid-checkpoint.
  Status Checkpoint(size_t max_pages = SIZE_MAX);

  /// Power-cut simulation: the pool and the unflushed WAL tail vanish;
  /// completed page writes survive (see DESIGN.md §15 crash model).
  void SimulateCrash();

  /// Replays the entire WAL: rebuilds the catalog from DDL records,
  /// redoes committed/prepared/compensation DML under per-entry LSN
  /// guards, and reports prepared transactions for the engine to
  /// re-instate. Indexes are not populated here — the engine rebuilds
  /// them through Table::CreateIndex.
  Result<RecoveryReport> Recover();

  // -- Catalog hooks (called from engine / Database / Table) -------------

  Status OnCreateDatabase(const std::string& db);
  Status OnDropDatabase(const std::string& db);

  /// Logs CREATE TABLE, creates the incarnation's heap file and
  /// registers it under the current transaction's DDL delta.
  Result<TableStorage*> CreateTableStorage(const std::string& db,
                                           const TableSchema& schema);
  /// Logs DROP TABLE and detaches the storage into the transaction's
  /// delta (the file is only discarded at commit, so rollback can
  /// re-attach it). No-op in undo mode.
  Status OnDropTable(const std::string& db, const std::string& table);

  Status OnDropIndex(const std::string& db, const std::string& table,
                     const std::string& index);
  Status OnCreateView(const std::string& db, const std::string& view,
                      const std::string& sql);
  Status OnDropView(const std::string& db, const std::string& view);

  /// Opens an empty paged index (logging CREATE INDEX when `log` and
  /// not in undo mode); the table populates it.
  Result<std::unique_ptr<Index>> BuildIndex(TableStorage* storage,
                                            const std::string& index_name,
                                            const std::string& column_name,
                                            size_t column_index,
                                            Type column_type, bool log);

  // -- DML logging (called by TableStorage) ------------------------------

  Result<uint64_t> LogInsert(const std::string& db, const std::string& table,
                             RowId id, const std::string& bytes);
  Result<uint64_t> LogUpdate(const std::string& db, const std::string& table,
                             RowId id, const std::string& before,
                             const std::string& after);
  Result<uint64_t> LogDelete(const std::string& db, const std::string& table,
                             RowId id, const std::string& before);

 private:
  struct DroppedStorage {
    std::string key;
    std::unique_ptr<TableStorage> storage;
    /// The same transaction also created it — destroy on abort too.
    bool created_by_txn = false;
  };
  struct TxnDelta {
    std::vector<std::string> created;
    std::vector<DroppedStorage> dropped;
  };

  /// Lazily logs BEGIN for the current transaction (so read-only
  /// transactions never touch the WAL).
  Status EnsureBegun();
  /// True while undoing `undo_txn_` and `db.table` currently binds to
  /// an incarnation that very transaction created: the compensation
  /// must stay out of the WAL (see SetUndoMode).
  bool UndoTargetsOwnIncarnation(const std::string& db,
                                 const std::string& table) const;
  Result<uint64_t> AppendDdl(uint8_t op, const std::string& db,
                             const std::string& a, const std::string& b,
                             const std::string& c,
                             const TableSchema* schema);
  /// Applies or reverses a transaction's buffered DDL delta.
  void ApplyDelta(TxnId txn, bool commit);
  std::string HeapPath(const std::string& db, const std::string& table,
                       uint64_t lsn) const;
  std::string BtreePath(const std::string& db, const std::string& table,
                        const std::string& index, const std::string& tag) const;

  StorageConfig config_;
  storage::BufferManager pool_;
  storage::WriteAheadLog wal_;
  obs::Tracer* tracer_ = nullptr;

  TxnId current_txn_ = 0;
  uint64_t current_session_ = 0;
  std::string current_db_;
  bool undo_mode_ = false;
  TxnId undo_txn_ = 0;
  /// Transactions with a durable-or-buffered BEGIN record.
  std::set<TxnId> begun_;

  std::map<TxnId, TxnDelta> deltas_;
  /// "db.table" → live storage (current incarnation).
  std::map<std::string, std::unique_ptr<TableStorage>> tables_;
  /// Distinct file stems for unlogged index builds (undo / rebuild).
  uint64_t unlogged_counter_ = 0;
};

}  // namespace msql::relational

#endif  // MSQL_RELATIONAL_STORAGE_ENGINE_H_
