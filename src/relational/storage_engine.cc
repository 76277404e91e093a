#include "relational/storage_engine.h"

#include <algorithm>
#include <filesystem>

#include "relational/row_serde.h"
#include "storage/page.h"

namespace msql::relational {

namespace {

// kDdl payload operation codes.
constexpr uint8_t kDdlCreateDb = 1;
constexpr uint8_t kDdlDropDb = 2;
constexpr uint8_t kDdlCreateTable = 3;
constexpr uint8_t kDdlDropTable = 4;
constexpr uint8_t kDdlCreateIndex = 5;
constexpr uint8_t kDdlDropIndex = 6;
constexpr uint8_t kDdlCreateView = 7;
constexpr uint8_t kDdlDropView = 8;

void AppendU32(std::string* out, uint32_t v) {
  char buf[4];
  storage::StoreU32(buf, v);
  out->append(buf, 4);
}

void AppendU64(std::string* out, uint64_t v) {
  char buf[8];
  storage::StoreU64(buf, v);
  out->append(buf, 8);
}

void AppendStr(std::string* out, std::string_view s) {
  AppendU32(out, static_cast<uint32_t>(s.size()));
  out->append(s);
}

/// Cursor over a WAL payload; any overrun poisons the reader.
struct Reader {
  std::string_view data;
  size_t pos = 0;
  bool ok = true;

  uint8_t U8() {
    if (pos + 1 > data.size()) return Fail<uint8_t>();
    return static_cast<uint8_t>(data[pos++]);
  }
  uint32_t U32() {
    if (pos + 4 > data.size()) return Fail<uint32_t>();
    uint32_t v = storage::LoadU32(data.data() + pos);
    pos += 4;
    return v;
  }
  uint64_t U64() {
    if (pos + 8 > data.size()) return Fail<uint64_t>();
    uint64_t v = storage::LoadU64(data.data() + pos);
    pos += 8;
    return v;
  }
  std::string Str() {
    uint32_t len = U32();
    if (!ok || pos + len > data.size()) return Fail<std::string>();
    std::string s(data.substr(pos, len));
    pos += len;
    return s;
  }

  template <typename T>
  T Fail() {
    ok = false;
    return T{};
  }
};

Status MalformedRecord(uint64_t lsn) {
  return Status::Corrupted("malformed WAL payload at LSN " +
                           std::to_string(lsn));
}

void AppendSchema(std::string* out, const TableSchema& schema) {
  AppendU32(out, static_cast<uint32_t>(schema.num_columns()));
  for (const ColumnDef& col : schema.columns()) {
    AppendStr(out, col.name);
    out->push_back(static_cast<char>(col.type));
    AppendU32(out, static_cast<uint32_t>(col.width));
  }
}

Result<TableSchema> ReadSchema(Reader* r, const std::string& table,
                               uint64_t lsn) {
  uint32_t ncols = r->U32();
  std::vector<ColumnDef> cols;
  cols.reserve(ncols);
  for (uint32_t i = 0; i < ncols && r->ok; ++i) {
    ColumnDef col;
    col.name = r->Str();
    col.type = static_cast<Type>(r->U8());
    col.width = static_cast<int>(r->U32());
    cols.push_back(std::move(col));
  }
  if (!r->ok) return MalformedRecord(lsn);
  return TableSchema::Create(table, std::move(cols));
}

/// Upper bound of the composite-entry range for one encoded value: the
/// rowid suffix is exactly 8 bytes, so prefix + 8×0xff dominates them.
std::string PrefixHi(const std::string& prefix) {
  std::string hi = prefix;
  hi.append(8, '\xff');
  return hi;
}

}  // namespace

// -- TableStorage ------------------------------------------------------------

TableStorage::TableStorage(StorageManager* mgr, std::string db,
                           std::string table, std::string path)
    : mgr_(mgr),
      db_(std::move(db)),
      table_(std::move(table)),
      path_(std::move(path)) {}

TableStorage::~TableStorage() {
  if (disk_ != nullptr && disk_->is_open()) {
    mgr_->pool().DiscardFile(file_id_);
    disk_->Close();
  }
}

Status TableStorage::OpenOrCreate() {
  disk_ = std::make_unique<storage::DiskManager>();
  MSQL_RETURN_IF_ERROR(disk_->Open(path_));
  file_id_ = mgr_->pool().RegisterFile(disk_.get());
  heap_ = std::make_unique<storage::HeapFile>(&mgr_->pool(), file_id_);
  if (disk_->page_count() == 0) return heap_->Create();
  return heap_->Open();
}

Result<Row> TableStorage::Read(RowId id) const {
  MSQL_ASSIGN_OR_RETURN(std::string bytes, heap_->Get(id));
  return DeserializeRow(bytes);
}

Status TableStorage::Put(RowId id, Row row) {
  std::string bytes = SerializeRow(row);
  MSQL_ASSIGN_OR_RETURN(uint64_t lsn,
                        mgr_->LogInsert(db_, table_, id, bytes));
  return heap_->Put(id, lsn, mgr_->effective_txn(), bytes);
}

Result<Row> TableStorage::Replace(RowId id, Row row) {
  MSQL_ASSIGN_OR_RETURN(Row before, Read(id));
  std::string after_bytes = SerializeRow(row);
  MSQL_ASSIGN_OR_RETURN(
      uint64_t lsn,
      mgr_->LogUpdate(db_, table_, id, SerializeRow(before), after_bytes));
  MSQL_RETURN_IF_ERROR(
      heap_->Put(id, lsn, mgr_->effective_txn(), after_bytes));
  return before;
}

Result<Row> TableStorage::Erase(RowId id) {
  MSQL_ASSIGN_OR_RETURN(Row before, Read(id));
  MSQL_ASSIGN_OR_RETURN(
      uint64_t lsn, mgr_->LogDelete(db_, table_, id, SerializeRow(before)));
  MSQL_RETURN_IF_ERROR(heap_->Delete(id, lsn, mgr_->effective_txn()));
  return before;
}

Status TableStorage::Scan(const RowVisitor& fn) const {
  return heap_->ScanLive(
      [&](uint64_t rowid, std::string_view bytes) -> Status {
        MSQL_ASSIGN_OR_RETURN(Row row, DeserializeRow(bytes));
        return fn(rowid, std::move(row));
      });
}

Status TableStorage::ScanEntries(
    const std::function<Status(RowId, bool)>& fn) const {
  return heap_->ScanEntries([&](uint64_t rowid, uint16_t flags) {
    return fn(rowid, flags == 1);
  });
}

Result<std::unique_ptr<Index>> TableStorage::NewIndex(
    const std::string& name, const TableSchema& schema, size_t column,
    bool log_ddl) {
  return mgr_->BuildIndex(this, name, schema.column(column).name, column,
                          schema.column(column).type, log_ddl);
}

Status TableStorage::OnDropIndex(const std::string& name) {
  return mgr_->OnDropIndex(db_, table_, name);
}

// -- BtreeIndex --------------------------------------------------------------

BtreeIndex::BtreeIndex(std::string name, size_t column_index,
                       Type column_type, StorageManager* mgr,
                       std::string path)
    : Index(std::move(name), column_index),
      column_type_(column_type),
      mgr_(mgr),
      path_(std::move(path)) {}

BtreeIndex::~BtreeIndex() {
  if (disk_ != nullptr && disk_->is_open()) {
    mgr_->pool().DiscardFile(file_id_);
    disk_->Close();
  }
}

Status BtreeIndex::OpenOrReset() {
  disk_ = std::make_unique<storage::DiskManager>();
  MSQL_RETURN_IF_ERROR(disk_->Open(path_));
  file_id_ = mgr_->pool().RegisterFile(disk_.get());
  tree_ = std::make_unique<storage::BTree>(&mgr_->pool(), file_id_);
  return tree_->Reset();
}

Result<bool> BtreeIndex::AnyWithPrefix(const std::string& prefix) const {
  bool found = false;
  MSQL_RETURN_IF_ERROR(tree_->ScanRange(prefix, PrefixHi(prefix),
                                        [&](std::string_view) {
                                          found = true;
                                          return false;
                                        }));
  return found;
}

Status BtreeIndex::Insert(const Value& key, RowId id) {
  std::string prefix = EncodeIndexKey(key);
  MSQL_ASSIGN_OR_RETURN(bool existed, AnyWithPrefix(prefix));
  MSQL_RETURN_IF_ERROR(tree_->Insert(EncodeIndexEntry(key, id)));
  if (!existed) ++distinct_;
  return Status::OK();
}

Status BtreeIndex::Erase(const Value& key, RowId id) {
  std::string prefix = EncodeIndexKey(key);
  MSQL_RETURN_IF_ERROR(tree_->Erase(EncodeIndexEntry(key, id)));
  MSQL_ASSIGN_OR_RETURN(bool any, AnyWithPrefix(prefix));
  if (!any && distinct_ > 0) --distinct_;
  return Status::OK();
}

Result<std::vector<RowId>> BtreeIndex::LookupIds(const Value& key) const {
  Value probe = key;
  if (!key.is_null()) {
    auto coerced = key.CoerceTo(column_type_);
    // An uncoercible probe can never equal a stored (column-typed)
    // value — same verdict a full scan's predicate would reach.
    if (!coerced.ok()) return std::vector<RowId>{};
    probe = *std::move(coerced);
  }
  std::string prefix = EncodeIndexKey(probe);
  std::vector<RowId> ids;
  MSQL_RETURN_IF_ERROR(
      tree_->ScanRange(prefix, PrefixHi(prefix), [&](std::string_view entry) {
        ids.push_back(DecodeIndexEntryRowId(entry));
        return true;
      }));
  return ids;
}

Result<std::vector<RowId>> BtreeIndex::LookupRange(const Value& lo,
                                                   const Value& hi) const {
  // NULL keys encode as 0x00 and every other type tag is in 0x01..0x04,
  // so "\x01" and "\xff" bracket all non-NULL keys of the column.
  std::string lo_key = "\x01";
  std::string hi_key = "\xff";
  if (!lo.is_null()) {
    MSQL_ASSIGN_OR_RETURN(Value bound, lo.CoerceTo(column_type_));
    lo_key = EncodeIndexKey(bound);
  }
  if (!hi.is_null()) {
    MSQL_ASSIGN_OR_RETURN(Value bound, hi.CoerceTo(column_type_));
    hi_key = PrefixHi(EncodeIndexKey(bound));
  }
  std::vector<RowId> ids;
  if (lo_key > hi_key) return ids;
  MSQL_RETURN_IF_ERROR(
      tree_->ScanRange(lo_key, hi_key, [&](std::string_view entry) {
        ids.push_back(DecodeIndexEntryRowId(entry));
        return true;
      }));
  std::sort(ids.begin(), ids.end());
  return ids;
}

// -- StorageManager ----------------------------------------------------------

StorageManager::StorageManager(StorageConfig config)
    : config_(std::move(config)), pool_(config_.buffer_pool_pages) {}

StorageManager::~StorageManager() = default;

Status StorageManager::Open() {
  std::error_code ec;
  std::filesystem::create_directories(config_.root_dir, ec);
  if (ec) {
    return Status::Internal("cannot create storage root '" +
                            config_.root_dir + "': " + ec.message());
  }
  return wal_.Open(config_.root_dir + "/wal.log");
}

void StorageManager::SetCurrentTxn(TxnId txn, uint64_t session,
                                   std::string db) {
  current_txn_ = txn;
  current_session_ = session;
  current_db_ = std::move(db);
}

void StorageManager::ClearCurrentTxn() {
  current_txn_ = 0;
  current_session_ = 0;
  current_db_.clear();
}

std::string StorageManager::HeapPath(const std::string& db,
                                     const std::string& table,
                                     uint64_t lsn) const {
  return config_.root_dir + "/" + db + "." + table + "." +
         std::to_string(lsn) + ".heap";
}

std::string StorageManager::BtreePath(const std::string& db,
                                      const std::string& table,
                                      const std::string& index,
                                      const std::string& tag) const {
  return config_.root_dir + "/" + db + "." + table + "." + index + "." +
         tag + ".btree";
}

Status StorageManager::EnsureBegun() {
  TxnId txn = effective_txn();
  if (txn == 0 || begun_.count(txn) > 0) return Status::OK();
  std::string payload;
  AppendU64(&payload, txn);
  AppendU64(&payload, current_session_);
  AppendStr(&payload, current_db_);
  MSQL_RETURN_IF_ERROR(
      wal_.Append(storage::WalRecordType::kBegin, std::move(payload))
          .status());
  begun_.insert(txn);
  return Status::OK();
}

bool StorageManager::UndoTargetsOwnIncarnation(
    const std::string& db, const std::string& table) const {
  if (!undo_mode_ || undo_txn_ == 0) return false;
  auto it = deltas_.find(undo_txn_);
  if (it == deltas_.end()) return false;
  const std::vector<std::string>& created = it->second.created;
  return std::find(created.begin(), created.end(), db + "." + table) !=
         created.end();
}

Result<uint64_t> StorageManager::LogInsert(const std::string& db,
                                           const std::string& table,
                                           RowId id,
                                           const std::string& bytes) {
  if (UndoTargetsOwnIncarnation(db, table)) return uint64_t{0};
  MSQL_RETURN_IF_ERROR(EnsureBegun());
  std::string payload;
  AppendU64(&payload, effective_txn());
  AppendStr(&payload, db);
  AppendStr(&payload, table);
  AppendU64(&payload, id);
  AppendStr(&payload, bytes);
  return wal_.Append(storage::WalRecordType::kInsert, std::move(payload));
}

Result<uint64_t> StorageManager::LogUpdate(const std::string& db,
                                           const std::string& table,
                                           RowId id,
                                           const std::string& before,
                                           const std::string& after) {
  if (UndoTargetsOwnIncarnation(db, table)) return uint64_t{0};
  MSQL_RETURN_IF_ERROR(EnsureBegun());
  std::string payload;
  AppendU64(&payload, effective_txn());
  AppendStr(&payload, db);
  AppendStr(&payload, table);
  AppendU64(&payload, id);
  AppendStr(&payload, before);
  AppendStr(&payload, after);
  return wal_.Append(storage::WalRecordType::kUpdate, std::move(payload));
}

Result<uint64_t> StorageManager::LogDelete(const std::string& db,
                                           const std::string& table,
                                           RowId id,
                                           const std::string& before) {
  if (UndoTargetsOwnIncarnation(db, table)) return uint64_t{0};
  MSQL_RETURN_IF_ERROR(EnsureBegun());
  std::string payload;
  AppendU64(&payload, effective_txn());
  AppendStr(&payload, db);
  AppendStr(&payload, table);
  AppendU64(&payload, id);
  AppendStr(&payload, before);
  return wal_.Append(storage::WalRecordType::kDelete, std::move(payload));
}

Result<uint64_t> StorageManager::AppendDdl(uint8_t op, const std::string& db,
                                           const std::string& a,
                                           const std::string& b,
                                           const std::string& c,
                                           const TableSchema* schema) {
  MSQL_RETURN_IF_ERROR(EnsureBegun());
  std::string payload;
  AppendU64(&payload, effective_txn());
  payload.push_back(static_cast<char>(op));
  AppendStr(&payload, db);
  AppendStr(&payload, a);
  AppendStr(&payload, b);
  AppendStr(&payload, c);
  if (schema != nullptr) {
    AppendSchema(&payload, *schema);
  } else {
    AppendU32(&payload, 0);
  }
  return wal_.Append(storage::WalRecordType::kDdl, std::move(payload));
}

Status StorageManager::OnCreateDatabase(const std::string& db) {
  MSQL_RETURN_IF_ERROR(
      AppendDdl(kDdlCreateDb, db, "", "", "", nullptr).status());
  // Administrative, outside any transaction: make it durable now.
  return wal_.Flush();
}

Status StorageManager::OnDropDatabase(const std::string& db) {
  MSQL_RETURN_IF_ERROR(
      AppendDdl(kDdlDropDb, db, "", "", "", nullptr).status());
  std::string prefix = db + ".";
  for (auto it = tables_.begin(); it != tables_.end();) {
    if (it->first.compare(0, prefix.size(), prefix) == 0) {
      it = tables_.erase(it);
    } else {
      ++it;
    }
  }
  return wal_.Flush();
}

Result<TableStorage*> StorageManager::CreateTableStorage(
    const std::string& db, const TableSchema& schema) {
  const std::string& table = schema.table_name();
  std::string key = db + "." + table;
  if (tables_.count(key) > 0) {
    return Status::Internal("storage for '" + key + "' already exists");
  }
  std::string path;
  if (undo_mode_) {
    path = HeapPath(db, table + ".u" + std::to_string(++unlogged_counter_),
                    0);
  } else {
    MSQL_ASSIGN_OR_RETURN(
        uint64_t lsn, AppendDdl(kDdlCreateTable, db, table, "", "", &schema));
    path = HeapPath(db, table, lsn);
  }
  auto ts = std::make_unique<TableStorage>(this, db, table, path);
  MSQL_RETURN_IF_ERROR(ts->OpenOrCreate());
  TableStorage* raw = ts.get();
  tables_[key] = std::move(ts);
  if (!undo_mode_ && current_txn_ != 0) {
    deltas_[current_txn_].created.push_back(key);
  }
  return raw;
}

Status StorageManager::OnDropTable(const std::string& db,
                                   const std::string& table) {
  // During rollback the creating transaction's delta already owns the
  // teardown; the catalog record would be a lie (the drop is the undo
  // of a create that recovery will discard wholesale).
  if (undo_mode_) return Status::OK();
  std::string key = db + "." + table;
  auto it = tables_.find(key);
  if (it == tables_.end()) {
    return Status::Internal("drop of unknown table storage '" + key + "'");
  }
  MSQL_RETURN_IF_ERROR(
      AppendDdl(kDdlDropTable, db, table, "", "", nullptr).status());
  if (current_txn_ == 0) {
    tables_.erase(it);
    return Status::OK();
  }
  TxnDelta& delta = deltas_[current_txn_];
  bool created_here =
      std::find(delta.created.begin(), delta.created.end(), key) !=
      delta.created.end();
  delta.dropped.push_back({key, std::move(it->second), created_here});
  tables_.erase(it);
  return Status::OK();
}

Status StorageManager::OnDropIndex(const std::string& db,
                                   const std::string& table,
                                   const std::string& index) {
  if (undo_mode_) return Status::OK();
  return AppendDdl(kDdlDropIndex, db, table, index, "", nullptr).status();
}

Status StorageManager::OnCreateView(const std::string& db,
                                    const std::string& view,
                                    const std::string& sql) {
  if (undo_mode_) return Status::OK();
  return AppendDdl(kDdlCreateView, db, view, sql, "", nullptr).status();
}

Status StorageManager::OnDropView(const std::string& db,
                                  const std::string& view) {
  if (undo_mode_) return Status::OK();
  return AppendDdl(kDdlDropView, db, view, "", "", nullptr).status();
}

Result<std::unique_ptr<Index>> StorageManager::BuildIndex(
    TableStorage* storage, const std::string& index_name,
    const std::string& column_name, size_t column_index, Type column_type,
    bool log) {
  std::string path;
  if (log && !undo_mode_) {
    MSQL_ASSIGN_OR_RETURN(
        uint64_t lsn,
        AppendDdl(kDdlCreateIndex, storage->db(), storage->table(),
                  index_name, column_name, nullptr));
    path = BtreePath(storage->db(), storage->table(), index_name,
                     std::to_string(lsn));
  } else {
    path = BtreePath(storage->db(), storage->table(), index_name,
                     "u" + std::to_string(++unlogged_counter_));
  }
  auto index = std::make_unique<BtreeIndex>(index_name, column_index,
                                            column_type, this, path);
  MSQL_RETURN_IF_ERROR(index->OpenOrReset());
  return std::unique_ptr<Index>(std::move(index));
}

void StorageManager::ApplyDelta(TxnId txn, bool commit) {
  auto it = deltas_.find(txn);
  if (it == deltas_.end()) return;
  TxnDelta& delta = it->second;
  if (commit) {
    // Creations stand; dropped incarnations are gone for good (their
    // files are never deleted, just closed and forgotten).
    delta.dropped.clear();
  } else {
    // Reverse order: a re-created name must vanish before the dropped
    // original is re-attached.
    for (auto key = delta.created.rbegin(); key != delta.created.rend();
         ++key) {
      tables_.erase(*key);
    }
    for (auto dropped = delta.dropped.rbegin();
         dropped != delta.dropped.rend(); ++dropped) {
      if (dropped->created_by_txn) {
        dropped->storage.reset();
      } else {
        tables_[dropped->key] = std::move(dropped->storage);
      }
    }
  }
  deltas_.erase(it);
}

Status StorageManager::OnCommit(TxnId txn) {
  if (begun_.count(txn) > 0) {
    std::string payload;
    AppendU64(&payload, txn);
    MSQL_RETURN_IF_ERROR(
        wal_.Append(storage::WalRecordType::kCommit, std::move(payload))
            .status());
    MSQL_RETURN_IF_ERROR(wal_.Flush());
    begun_.erase(txn);
  }
  pool_.ReleaseTxn(txn);
  ApplyDelta(txn, /*commit=*/true);
  return Status::OK();
}

Status StorageManager::OnAbort(TxnId txn) {
  if (begun_.count(txn) > 0) {
    std::string payload;
    AppendU64(&payload, txn);
    MSQL_RETURN_IF_ERROR(
        wal_.Append(storage::WalRecordType::kAbort, std::move(payload))
            .status());
    MSQL_RETURN_IF_ERROR(wal_.Flush());
    begun_.erase(txn);
  }
  pool_.ReleaseTxn(txn);
  ApplyDelta(txn, /*commit=*/false);
  return Status::OK();
}

Status StorageManager::OnPrepare(TxnId txn, uint64_t session,
                                 const std::string& db) {
  if (begun_.count(txn) == 0) {
    // Force BEGIN even for a read-only transaction: the prepared state
    // itself (session identity included) must survive a crash.
    std::string payload;
    AppendU64(&payload, txn);
    AppendU64(&payload, session);
    AppendStr(&payload, db);
    MSQL_RETURN_IF_ERROR(
        wal_.Append(storage::WalRecordType::kBegin, std::move(payload))
            .status());
    begun_.insert(txn);
  }
  std::string payload;
  AppendU64(&payload, txn);
  MSQL_RETURN_IF_ERROR(
      wal_.Append(storage::WalRecordType::kPrepare, std::move(payload))
          .status());
  MSQL_RETURN_IF_ERROR(wal_.Flush());
  pool_.ReleaseTxn(txn);
  return Status::OK();
}

Status StorageManager::Checkpoint(size_t max_pages) {
  obs::ScopedSpan span(tracer_, "storage.checkpoint", "storage");
  const int64_t writes_before = pool_.page_writes();
  MSQL_RETURN_IF_ERROR(wal_.Flush());
  MSQL_RETURN_IF_ERROR(pool_.FlushEligible(max_pages));
  std::string payload;
  AppendU64(&payload, 0);
  MSQL_RETURN_IF_ERROR(
      wal_.Append(storage::WalRecordType::kCheckpoint, std::move(payload))
          .status());
  Status flushed = wal_.Flush();
  span.Annotate("pages_written", pool_.page_writes() - writes_before);
  span.Annotate("flushed_lsn", static_cast<int64_t>(wal_.flushed_lsn()));
  return flushed;
}

void StorageManager::SimulateCrash() {
  pool_.DropAll();
  wal_.DropUnflushed();
  tables_.clear();
  deltas_.clear();
  begun_.clear();
  current_txn_ = 0;
  current_session_ = 0;
  current_db_.clear();
  undo_mode_ = false;
}

Result<RecoveryReport> StorageManager::Recover() {
  obs::ScopedSpan span(tracer_, "storage.recover", "storage");
  tables_.clear();
  deltas_.clear();
  begun_.clear();
  undo_mode_ = false;
  current_txn_ = 0;
  pool_.DropAll();

  MSQL_ASSIGN_OR_RETURN(std::vector<storage::WalRecord> records,
                        wal_.ReadAll());
  span.Annotate("wal_records", static_cast<int64_t>(records.size()));

  // Pass 1: transaction fates and identities. A transaction with no
  // outcome record was active at the crash — its records are discarded
  // (no-steal guarantees none of its pages reached disk, and any that
  // did after a PREPARE are repaired by replayed compensations).
  enum class Fate { kActive, kCommitted, kAborted, kPrepared };
  std::map<uint64_t, Fate> fate;
  struct TxnIdent {
    uint64_t session = 0;
    std::string db;
  };
  std::map<uint64_t, TxnIdent> ident;
  RecoveryReport report;

  for (const storage::WalRecord& rec : records) {
    Reader r{rec.payload};
    uint64_t txn = r.U64();
    if (!r.ok) return MalformedRecord(rec.lsn);
    report.max_txn_id = std::max<TxnId>(report.max_txn_id, txn);
    switch (rec.type) {
      case storage::WalRecordType::kBegin: {
        TxnIdent id;
        id.session = r.U64();
        id.db = r.Str();
        if (!r.ok) return MalformedRecord(rec.lsn);
        report.max_session_id = std::max(report.max_session_id, id.session);
        ident[txn] = std::move(id);
        fate.emplace(txn, Fate::kActive);
        break;
      }
      case storage::WalRecordType::kCommit:
        fate[txn] = Fate::kCommitted;
        break;
      case storage::WalRecordType::kAbort:
        fate[txn] = Fate::kAborted;
        break;
      case storage::WalRecordType::kPrepare:
        fate[txn] = Fate::kPrepared;
        break;
      default:
        fate.emplace(txn, Fate::kActive);
        break;
    }
  }

  auto applied = [&](uint64_t txn) {
    if (txn == 0) return true;
    Fate f = fate[txn];
    return f == Fate::kCommitted || f == Fate::kPrepared;
  };
  auto is_prepared = [&](uint64_t txn) {
    return txn != 0 && fate[txn] == Fate::kPrepared;
  };

  std::map<uint64_t, PreparedTxnImage> prepared;
  std::map<uint64_t, std::set<std::string>> prepared_locks;
  for (const auto& [txn, f] : fate) {
    if (f != Fate::kPrepared) continue;
    PreparedTxnImage image;
    image.txn_id = txn;
    image.session_id = ident[txn].session;
    image.db = ident[txn].db;
    prepared[txn] = std::move(image);
  }

  // Pass 2: catalog replay + LSN-guarded redo, in log order.
  for (const storage::WalRecord& rec : records) {
    Reader r{rec.payload};
    uint64_t txn = r.U64();
    switch (rec.type) {
      case storage::WalRecordType::kDdl: {
        uint8_t op = r.U8();
        std::string db = r.Str();
        std::string a = r.Str();
        std::string b = r.Str();
        std::string c = r.Str();
        if (!r.ok) return MalformedRecord(rec.lsn);
        if (!applied(txn)) break;
        switch (op) {
          case kDdlCreateDb:
            report.databases[db];
            break;
          case kDdlDropDb: {
            std::string prefix = db + ".";
            for (auto it = tables_.begin(); it != tables_.end();) {
              if (it->first.compare(0, prefix.size(), prefix) == 0) {
                it = tables_.erase(it);
              } else {
                ++it;
              }
            }
            report.databases.erase(db);
            break;
          }
          case kDdlCreateTable: {
            MSQL_ASSIGN_OR_RETURN(TableSchema schema,
                                  ReadSchema(&r, a, rec.lsn));
            auto ts = std::make_unique<TableStorage>(this, db, a,
                                                     HeapPath(db, a, rec.lsn));
            MSQL_RETURN_IF_ERROR(ts->OpenOrCreate());
            // The durable tail pointer may lag data pages that
            // committed rows already occupy; never append over them.
            MSQL_RETURN_IF_ERROR(ts->heap()->ResetTail());
            RecoveredTableInfo info;
            info.schema = std::move(schema);
            info.storage = ts.get();
            tables_[db + "." + a] = std::move(ts);
            report.databases[db].tables[a] = std::move(info);
            if (is_prepared(txn)) {
              UndoRecord u;
              u.kind = UndoRecord::Kind::kCreateTable;
              u.database = db;
              u.table = a;
              prepared[txn].undo.push_back(std::move(u));
              prepared_locks[txn].insert(db + "." + a);
            }
            break;
          }
          case kDdlDropTable:
            tables_.erase(db + "." + a);
            report.databases[db].tables.erase(a);
            break;
          case kDdlCreateIndex: {
            auto& table_info = report.databases[db].tables[a];
            table_info.indexes.push_back({b, c});
            if (is_prepared(txn)) {
              UndoRecord u;
              u.kind = UndoRecord::Kind::kCreateIndex;
              u.database = db;
              u.table = a;
              u.index_name = b;
              prepared[txn].undo.push_back(std::move(u));
              prepared_locks[txn].insert(db + "." + a);
            }
            break;
          }
          case kDdlDropIndex: {
            auto& indexes = report.databases[db].tables[a].indexes;
            indexes.erase(
                std::remove_if(indexes.begin(), indexes.end(),
                               [&](const RecoveredIndexInfo& info) {
                                 return info.name == b;
                               }),
                indexes.end());
            break;
          }
          case kDdlCreateView: {
            report.databases[db].views.push_back({a, b});
            if (is_prepared(txn)) {
              UndoRecord u;
              u.kind = UndoRecord::Kind::kCreateView;
              u.database = db;
              u.table = a;
              prepared[txn].undo.push_back(std::move(u));
            }
            break;
          }
          case kDdlDropView: {
            auto& views = report.databases[db].views;
            views.erase(std::remove_if(views.begin(), views.end(),
                                       [&](const RecoveredViewInfo& info) {
                                         return info.name == a;
                                       }),
                        views.end());
            break;
          }
          default:
            return MalformedRecord(rec.lsn);
        }
        break;
      }
      case storage::WalRecordType::kInsert:
      case storage::WalRecordType::kUpdate:
      case storage::WalRecordType::kDelete: {
        std::string db = r.Str();
        std::string table = r.Str();
        uint64_t rowid = r.U64();
        if (!r.ok) return MalformedRecord(rec.lsn);
        if (!applied(txn)) break;
        auto it = tables_.find(db + "." + table);
        // A compensation can reference a table whose creating
        // transaction was discarded; its data was discarded with it.
        if (it == tables_.end()) break;
        TableStorage* ts = it->second.get();
        if (rec.type == storage::WalRecordType::kInsert) {
          std::string bytes = r.Str();
          if (!r.ok) return MalformedRecord(rec.lsn);
          MSQL_RETURN_IF_ERROR(ts->heap()->RedoPut(rowid, rec.lsn, bytes));
          if (is_prepared(txn)) {
            UndoRecord u;
            u.kind = UndoRecord::Kind::kInsert;
            u.database = db;
            u.table = table;
            u.row_id = rowid;
            prepared[txn].undo.push_back(std::move(u));
            prepared_locks[txn].insert(db + "." + table);
          }
        } else if (rec.type == storage::WalRecordType::kUpdate) {
          std::string before = r.Str();
          std::string after = r.Str();
          if (!r.ok) return MalformedRecord(rec.lsn);
          MSQL_RETURN_IF_ERROR(ts->heap()->RedoPut(rowid, rec.lsn, after));
          if (is_prepared(txn)) {
            UndoRecord u;
            u.kind = UndoRecord::Kind::kUpdate;
            u.database = db;
            u.table = table;
            u.row_id = rowid;
            MSQL_ASSIGN_OR_RETURN(u.before, DeserializeRow(before));
            prepared[txn].undo.push_back(std::move(u));
            prepared_locks[txn].insert(db + "." + table);
          }
        } else {
          std::string before = r.Str();
          if (!r.ok) return MalformedRecord(rec.lsn);
          MSQL_RETURN_IF_ERROR(ts->heap()->RedoDelete(rowid, rec.lsn));
          if (is_prepared(txn)) {
            UndoRecord u;
            u.kind = UndoRecord::Kind::kDelete;
            u.database = db;
            u.table = table;
            u.row_id = rowid;
            MSQL_ASSIGN_OR_RETURN(u.before, DeserializeRow(before));
            prepared[txn].undo.push_back(std::move(u));
            prepared_locks[txn].insert(db + "." + table);
          }
        }
        break;
      }
      default:
        break;
    }
  }

  for (auto& [txn, image] : prepared) {
    image.lock_keys.assign(prepared_locks[txn].begin(),
                           prepared_locks[txn].end());
    // The eventual COMMIT/ROLLBACK must reach the WAL even if the
    // recovered transaction does nothing further.
    begun_.insert(txn);
    report.prepared.push_back(std::move(image));
  }
  return report;
}

}  // namespace msql::relational
