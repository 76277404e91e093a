#include "relational/engine.h"

#include "common/string_util.h"
#include "relational/binder.h"
#include "relational/sql/parser.h"

namespace msql::relational {

CapabilityProfile CapabilityProfile::IngresLike() {
  CapabilityProfile p;
  p.dbms_family = "ingres";
  p.supports_two_phase_commit = true;
  p.supports_multiple_databases = true;
  p.ddl_rollbackable = true;
  p.ddl_commits_prior_work = false;
  return p;
}

CapabilityProfile CapabilityProfile::OracleLike() {
  CapabilityProfile p;
  p.dbms_family = "oracle";
  p.supports_two_phase_commit = true;
  p.supports_multiple_databases = true;
  p.ddl_rollbackable = false;
  p.ddl_commits_prior_work = true;
  return p;
}

CapabilityProfile CapabilityProfile::SybaseLike() {
  CapabilityProfile p;
  p.dbms_family = "sybase";
  p.supports_two_phase_commit = false;
  p.supports_multiple_databases = false;
  p.ddl_rollbackable = false;
  p.ddl_commits_prior_work = false;
  return p;
}

LocalEngine::LocalEngine(std::string service_name, CapabilityProfile profile)
    : service_name_(ToLower(service_name)), profile_(std::move(profile)) {}

void LocalEngine::SetFailureProbability(double p, uint64_t seed) {
  failure_probability_ = p;
  failure_rng_ = Rng(seed);
}

Status LocalEngine::AttachStorage(StorageConfig config) {
  if (storage_ != nullptr) {
    return Status::InvalidArgument("service '" + service_name_ +
                                   "' already has storage attached");
  }
  if (!databases_.empty()) {
    return Status::InvalidArgument(
        "storage must be attached before any database exists on '" +
        service_name_ + "'");
  }
  auto mgr = std::make_unique<StorageManager>(std::move(config));
  MSQL_RETURN_IF_ERROR(mgr->Open());
  storage_ = std::move(mgr);
  if (metrics_ != nullptr) storage_->SetMetrics(metrics_);
  if (tracer_ != nullptr) storage_->SetTracer(tracer_);
  return Status::OK();
}

Status LocalEngine::Checkpoint(size_t max_pages) {
  if (storage_ == nullptr) {
    return Status::InvalidArgument("service '" + service_name_ +
                                   "' has no storage to checkpoint");
  }
  return storage_->Checkpoint(max_pages);
}

void LocalEngine::SimulateCrash() {
  // Process state vanishes: sessions, transactions, locks and the
  // in-memory catalog. Destroy databases before the storage crash so
  // paged index destructors still find the pool alive.
  sessions_.clear();
  LockManager::WaitPolicy policy = locks_.wait_policy();
  locks_ = LockManager();
  locks_.set_wait_policy(policy);
  databases_.clear();
  corrupted_dbs_.clear();
  fail_point_ = FailPoint::kNone;
  if (storage_ != nullptr) storage_->SimulateCrash();
}

Status LocalEngine::Recover() {
  if (storage_ == nullptr) {
    return Status::InvalidArgument("service '" + service_name_ +
                                   "' has no storage to recover from");
  }
  MSQL_ASSIGN_OR_RETURN(RecoveryReport report, storage_->Recover());

  // Rebuild the catalog. Databases stay detached from the storage
  // manager until fully rebuilt, so restoring tables/views/indexes is
  // not re-logged.
  for (auto& [db_name, info] : report.databases) {
    auto db = std::make_unique<Database>(db_name);
    for (auto& [table_name, tinfo] : info.tables) {
      MSQL_ASSIGN_OR_RETURN(
          std::unique_ptr<Table> table,
          Table::Open(std::move(tinfo.schema), tinfo.storage));
      for (const RecoveredIndexInfo& index : tinfo.indexes) {
        MSQL_RETURN_IF_ERROR(
            table->CreateIndex(index.name, index.column, /*log_ddl=*/false));
      }
      MSQL_RETURN_IF_ERROR(db->RestoreTable(std::move(table)));
    }
    for (const RecoveredViewInfo& view : info.views) {
      MSQL_ASSIGN_OR_RETURN(StatementPtr stmt, ParseSql(view.sql));
      if (stmt->kind() != StatementKind::kSelect) {
        return Status::Corrupted("recovered view '" + view.name +
                                 "' does not parse as a SELECT");
      }
      std::unique_ptr<SelectStmt> select(
          static_cast<SelectStmt*>(stmt.release()));
      MSQL_RETURN_IF_ERROR(db->CreateView(view.name, std::move(select)));
    }
    db->AttachStorageManager(storage_.get());
    databases_[db_name] = std::move(db);
  }

  // Re-instate transactions that crashed prepared: their effects are
  // durable and their locks must still exclude other work until the
  // coordinator resolves them.
  for (PreparedTxnImage& img : report.prepared) {
    Session s;
    s.id = img.session_id;
    s.db_name = img.db;
    s.txn = std::make_unique<Transaction>(img.txn_id);
    for (UndoRecord& rec : img.undo) s.txn->RecordUndo(std::move(rec));
    s.txn->set_state(TxnState::kPrepared);
    s.explicit_txn = true;
    s.last_state = TxnState::kPrepared;
    for (const std::string& key : img.lock_keys) {
      MSQL_RETURN_IF_ERROR(
          locks_.Acquire(s.txn.get(), key, LockManager::Mode::kExclusive));
    }
    SessionId id = s.id;
    sessions_.emplace(id, std::move(s));
  }

  if (report.max_txn_id >= next_txn_id_) next_txn_id_ = report.max_txn_id + 1;
  if (report.max_session_id >= next_session_id_) {
    next_session_id_ = report.max_session_id + 1;
  }
  ClearCorruption();
  return Status::OK();
}

Status LocalEngine::CreateDatabase(std::string_view name) {
  std::string key = ToLower(name);
  if (databases_.count(key) > 0) {
    return Status::AlreadyExists("database '" + key +
                                 "' already exists on service '" +
                                 service_name_ + "'");
  }
  if (!profile_.supports_multiple_databases && !databases_.empty()) {
    return Status::InvalidArgument(
        "service '" + service_name_ +
        "' is NOCONNECT and already serves its single database");
  }
  auto db = std::make_unique<Database>(key);
  if (storage_ != nullptr) {
    MSQL_RETURN_IF_ERROR(storage_->OnCreateDatabase(key));
    db->AttachStorageManager(storage_.get());
  }
  databases_.emplace(key, std::move(db));
  return Status::OK();
}

Status LocalEngine::DropDatabase(std::string_view name) {
  std::string key = ToLower(name);
  if (databases_.erase(key) == 0) {
    return Status::NotFound("database '" + key + "' does not exist on '" +
                            service_name_ + "'");
  }
  if (storage_ != nullptr) {
    // After the Database (and its paged index objects) are gone, drop
    // the heap storages and log the DDL.
    MSQL_RETURN_IF_ERROR(storage_->OnDropDatabase(key));
  }
  return Status::OK();
}

bool LocalEngine::HasDatabase(std::string_view name) const {
  return databases_.count(ToLower(name)) > 0;
}

Result<Database*> LocalEngine::GetDatabase(std::string_view name) {
  auto it = databases_.find(ToLower(name));
  if (it == databases_.end()) {
    return Status::NotFound("database '" + std::string(name) +
                            "' does not exist on '" + service_name_ + "'");
  }
  return it->second.get();
}

Result<const Database*> LocalEngine::GetDatabaseConst(
    std::string_view name) const {
  auto it = databases_.find(ToLower(name));
  if (it == databases_.end()) {
    return Status::NotFound("database '" + std::string(name) +
                            "' does not exist on '" + service_name_ + "'");
  }
  return static_cast<const Database*>(it->second.get());
}

std::vector<std::string> LocalEngine::DatabaseNames() const {
  std::vector<std::string> out;
  out.reserve(databases_.size());
  for (const auto& [name, db] : databases_) out.push_back(name);
  return out;
}

Result<SessionId> LocalEngine::OpenSession(std::string_view db_name) {
  std::string key = ToLower(db_name);
  if (key.empty()) {
    if (!profile_.supports_multiple_databases && databases_.size() == 1) {
      key = databases_.begin()->first;
    } else {
      return Status::InvalidArgument(
          "a database name is required to open a session on CONNECT "
          "service '" + service_name_ + "'");
    }
  }
  if (databases_.count(key) == 0) {
    return Status::NotFound("database '" + key + "' does not exist on '" +
                            service_name_ + "'");
  }
  Session s;
  s.id = next_session_id_++;
  s.db_name = key;
  SessionId id = s.id;
  sessions_.emplace(id, std::move(s));
  return id;
}

Status LocalEngine::CloseSession(SessionId session) {
  auto it = sessions_.find(session);
  if (it == sessions_.end()) {
    return Status::NotFound("no such session " + std::to_string(session));
  }
  // Abort any open transaction (a vanished client must not hold locks).
  if (it->second.txn != nullptr) {
    MSQL_RETURN_IF_ERROR(AbortTxn(&it->second));
  }
  sessions_.erase(it);
  return Status::OK();
}

Result<TableSchema> LocalEngine::DescribeView(std::string_view db_name,
                                              std::string_view view) const {
  MSQL_ASSIGN_OR_RETURN(const Database* db, GetDatabaseConst(db_name));
  MSQL_ASSIGN_OR_RETURN(const SelectStmt* definition, db->GetView(view));
  return InferSelectSchema(
      ToLower(view), *definition,
      [db](std::string_view t) -> Result<const TableSchema*> {
        MSQL_ASSIGN_OR_RETURN(const Table* base, db->GetTableConst(t));
        return &base->schema();
      });
}

Result<LocalEngine::Session*> LocalEngine::FindSession(SessionId id) {
  auto it = sessions_.find(id);
  if (it == sessions_.end()) {
    return Status::NotFound("no such session " + std::to_string(id));
  }
  return &it->second;
}

Result<const LocalEngine::Session*> LocalEngine::FindSessionConst(
    SessionId id) const {
  auto it = sessions_.find(id);
  if (it == sessions_.end()) {
    return Status::NotFound("no such session " + std::to_string(id));
  }
  return &it->second;
}

bool LocalEngine::ShouldFail(FailPoint point) {
  if (fail_point_ == point) {
    fail_point_ = FailPoint::kNone;
    ++stats_.injected_failures;
    return true;
  }
  if (failure_probability_ > 0.0 &&
      failure_rng_.NextBool(failure_probability_)) {
    ++stats_.injected_failures;
    return true;
  }
  return false;
}

Status LocalEngine::AbortTxn(Session* session) {
  Transaction* txn = session->txn.get();
  // kNextUndo is consumed directly (not via ShouldFail) so it never
  // perturbs the probabilistic failure stream seeded chaos tests pin.
  size_t fail_after = SIZE_MAX;
  if (fail_point_ == FailPoint::kNextUndo) {
    fail_point_ = FailPoint::kNone;
    ++stats_.injected_failures;
    fail_after = txn->undo_log_size() / 2;
  }
  const TxnId txn_id = txn->id();
  // Undo applied against paged tables must be logged as compensation
  // (transaction 0), not as new work of the dying transaction.
  if (storage_ != nullptr) storage_->SetUndoMode(true, txn_id);
  Status undo = txn->ApplyUndo(databases_, fail_after);
  if (storage_ != nullptr) {
    storage_->SetUndoMode(false);
    if (undo.ok()) {
      // Logs ABORT after the compensations, flushes and releases the
      // no-steal holds. A failure here is a durability failure: treat
      // it like a failed undo (the poison path below).
      undo = storage_->OnAbort(txn_id);
    }
    // On a failed undo the transaction stays unresolved in the WAL —
    // recovery discards it wholesale, completing the rollback.
  }
  locks_.ReleaseAll(txn);
  txn->set_state(TxnState::kAborted);
  session->last_state = TxnState::kAborted;
  session->txn.reset();
  session->explicit_txn = false;
  ++stats_.rollbacks;
  if (!undo.ok()) {
    // The database now holds a mix of done and undone effects of this
    // transaction. Poison it: every later statement refuses cleanly
    // instead of reading half-rolled-back rows.
    std::string diag = "rollback of transaction " + std::to_string(txn_id) +
                       " failed mid-undo (" + undo.message() + ")";
    corrupted_dbs_[session->db_name] = diag;
    return Status::Corrupted("database '" + session->db_name + "' on '" +
                             service_name_ + "': " + diag);
  }
  return undo;
}

Status LocalEngine::CommitTxn(Session* session) {
  Transaction* txn = session->txn.get();
  if (storage_ != nullptr) {
    // COMMIT record + WAL flush before any lock is released; read-only
    // transactions never logged BEGIN and skip the WAL entirely.
    MSQL_RETURN_IF_ERROR(storage_->OnCommit(txn->id()));
  }
  txn->DiscardUndo();
  locks_.ReleaseAll(txn);
  txn->set_state(TxnState::kCommitted);
  session->last_state = TxnState::kCommitted;
  session->txn.reset();
  session->explicit_txn = false;
  ++stats_.commits;
  return Status::OK();
}

Status LocalEngine::Begin(SessionId session_id) {
  MSQL_ASSIGN_OR_RETURN(Session * session, FindSession(session_id));
  if (session->txn != nullptr) {
    return Status::TransactionError("transaction already open on session " +
                                    std::to_string(session_id));
  }
  session->txn = std::make_unique<Transaction>(next_txn_id_++);
  session->explicit_txn = true;
  session->last_state = TxnState::kActive;
  return Status::OK();
}

Status LocalEngine::Prepare(SessionId session_id) {
  MSQL_ASSIGN_OR_RETURN(Session * session, FindSession(session_id));
  if (!profile_.supports_two_phase_commit) {
    return Status::TransactionError(
        "service '" + service_name_ +
        "' runs in automatic-commit mode and has no prepared-to-commit "
        "state");
  }
  if (session->txn == nullptr ||
      session->txn->state() != TxnState::kActive) {
    return Status::TransactionError(
        "PREPARE requires an active transaction");
  }
  if (ShouldFail(FailPoint::kNextPrepare)) {
    Status undo = AbortTxn(session);
    if (!undo.ok()) return undo;
    return Status::Aborted("injected failure at prepare on '" +
                           service_name_ + "'");
  }
  if (storage_ != nullptr) {
    // PREPARE must be durable before the promise is made; on failure
    // the transaction simply stays active.
    MSQL_RETURN_IF_ERROR(storage_->OnPrepare(session->txn->id(),
                                             session->id, session->db_name));
  }
  session->txn->set_state(TxnState::kPrepared);
  session->last_state = TxnState::kPrepared;
  ++stats_.prepares;
  return Status::OK();
}

Status LocalEngine::Commit(SessionId session_id) {
  MSQL_ASSIGN_OR_RETURN(Session * session, FindSession(session_id));
  if (session->txn == nullptr) {
    return Status::TransactionError("COMMIT without an open transaction");
  }
  if (ShouldFail(FailPoint::kNextCommit)) {
    Status undo = AbortTxn(session);
    if (!undo.ok()) return undo;
    return Status::Aborted("injected failure at commit on '" +
                           service_name_ + "'");
  }
  return CommitTxn(session);
}

Status LocalEngine::Rollback(SessionId session_id) {
  MSQL_ASSIGN_OR_RETURN(Session * session, FindSession(session_id));
  if (session->txn == nullptr) {
    return Status::TransactionError("ROLLBACK without an open transaction");
  }
  return AbortTxn(session);
}

Result<TxnState> LocalEngine::GetTxnState(SessionId session_id) const {
  MSQL_ASSIGN_OR_RETURN(const Session* session,
                        FindSessionConst(session_id));
  if (session->txn != nullptr) return session->txn->state();
  return session->last_state;
}

bool LocalEngine::IsCorrupted(std::string_view db_name) const {
  return corrupted_dbs_.count(ToLower(db_name)) > 0;
}

std::vector<SessionId> LocalEngine::BlockingSessions() const {
  std::vector<SessionId> out;
  for (TxnId blocker : locks_.last_conflict()) {
    for (const auto& [id, session] : sessions_) {
      if (session.txn != nullptr && session.txn->id() == blocker) {
        out.push_back(id);
        break;
      }
    }
  }
  return out;
}

Result<ResultSet> LocalEngine::Execute(SessionId session,
                                       std::string_view sql) {
  MSQL_ASSIGN_OR_RETURN(StatementPtr stmt, ParseSql(sql));
  return ExecuteStatement(session, *stmt);
}

Result<ResultSet> LocalEngine::ExecuteStatement(SessionId session_id,
                                                const Statement& stmt) {
  MSQL_ASSIGN_OR_RETURN(Session * session, FindSession(session_id));
  // A half-rolled-back database serves nothing until repaired: neither
  // reads (inconsistent rows) nor writes (compounding the damage).
  if (auto it = corrupted_dbs_.find(session->db_name);
      it != corrupted_dbs_.end()) {
    return Status::Corrupted("database '" + session->db_name + "' on '" +
                             service_name_ +
                             "' requires recovery: " + it->second);
  }
  switch (stmt.kind()) {
    case StatementKind::kBegin: {
      MSQL_RETURN_IF_ERROR(Begin(session_id));
      return ResultSet{};
    }
    case StatementKind::kCommit: {
      MSQL_RETURN_IF_ERROR(Commit(session_id));
      return ResultSet{};
    }
    case StatementKind::kRollback: {
      MSQL_RETURN_IF_ERROR(Rollback(session_id));
      return ResultSet{};
    }
    case StatementKind::kPrepare: {
      MSQL_RETURN_IF_ERROR(Prepare(session_id));
      return ResultSet{};
    }
    case StatementKind::kCreateDatabase: {
      const auto& cd = static_cast<const CreateDatabaseStmt&>(stmt);
      MSQL_RETURN_IF_ERROR(CreateDatabase(cd.name));
      return ResultSet{};
    }
    case StatementKind::kDropDatabase: {
      const auto& dd = static_cast<const DropDatabaseStmt&>(stmt);
      MSQL_RETURN_IF_ERROR(DropDatabase(dd.name));
      return ResultSet{};
    }
    default:
      break;
  }

  // A statement against a prepared (or otherwise non-active) transaction
  // is a protocol violation: refuse it without touching the transaction,
  // which keeps its prepared-to-commit promise intact.
  if (session->txn != nullptr &&
      session->txn->state() != TxnState::kActive) {
    return Status::TransactionError(
        "statement issued against a transaction in state " +
        std::string(TxnStateName(session->txn->state())));
  }

  // Injected statement failure: abort like a local conflict would.
  if (ShouldFail(FailPoint::kNextStatement)) {
    if (session->txn != nullptr) {
      MSQL_RETURN_IF_ERROR(AbortTxn(session));
    }
    return Status::Aborted("injected statement failure on '" +
                           service_name_ + "'");
  }

  bool is_ddl = stmt.kind() == StatementKind::kCreateTable ||
                stmt.kind() == StatementKind::kDropTable ||
                stmt.kind() == StatementKind::kCreateView ||
                stmt.kind() == StatementKind::kDropView ||
                stmt.kind() == StatementKind::kCreateIndex ||
                stmt.kind() == StatementKind::kDropIndex;

  // Oracle-like DDL: commit all prior uncommitted work first; the DDL
  // itself then runs in its own immediately-committed transaction.
  if (is_ddl && profile_.ddl_commits_prior_work &&
      session->txn != nullptr) {
    MSQL_RETURN_IF_ERROR(CommitTxn(session));
    // Session stays "in" the explicit transaction from the client's
    // point of view; a fresh local transaction opens for later work.
    MSQL_RETURN_IF_ERROR(Begin(session_id));
    MSQL_ASSIGN_OR_RETURN(session, FindSession(session_id));
  }

  bool autocommit = session->txn == nullptr;
  if (autocommit) {
    session->txn = std::make_unique<Transaction>(next_txn_id_++);
    session->explicit_txn = false;
    session->last_state = TxnState::kActive;
  }

  MSQL_ASSIGN_OR_RETURN(auto result, ExecuteInTxn(session, stmt));

  // DDL that cannot be rolled back commits immediately even inside an
  // explicit transaction on Oracle-like engines. The commit decision
  // keys off explicit_txn rather than the autocommit flag above: a
  // statement that parked on a busy lock left its implicit transaction
  // open, and its retry must still commit it even though the retry saw
  // session->txn != nullptr at entry.
  bool force_commit_now =
      is_ddl && profile_.ddl_commits_prior_work && session->explicit_txn;
  if (!session->explicit_txn || force_commit_now) {
    MSQL_RETURN_IF_ERROR(CommitTxn(session));
    if (force_commit_now) {
      MSQL_RETURN_IF_ERROR(Begin(session_id));
    }
  }
  return result;
}

Result<std::string> LocalEngine::ExplainSql(SessionId session_id,
                                            std::string_view sql) {
  MSQL_ASSIGN_OR_RETURN(Session * session, FindSession(session_id));
  MSQL_ASSIGN_OR_RETURN(StatementPtr stmt, ParseSql(sql));
  MSQL_ASSIGN_OR_RETURN(Database * db, GetDatabase(session->db_name));
  ExecutorOptions options;
  options.record_ddl_undo = profile_.ddl_rollbackable;
  options.use_planner = use_planner_;
  options.tracer = tracer_;
  options.metrics = metrics_;
  if (session->txn != nullptr) {
    if (session->txn->state() != TxnState::kActive) {
      return Status::TransactionError(
          "EXPLAIN issued against a transaction in state " +
          std::string(TxnStateName(session->txn->state())));
    }
    Executor executor(db, session->txn.get(), &locks_, options);
    return executor.Explain(*stmt);
  }
  // No open transaction: plan under a short-lived read transaction
  // (view materialization still takes and releases shared locks).
  Transaction txn(next_txn_id_++);
  Executor executor(db, &txn, &locks_, options);
  Result<std::string> text = executor.Explain(*stmt);
  locks_.ReleaseAll(&txn);
  return text;
}

Result<ResultSet> LocalEngine::ExecuteInTxn(Session* session,
                                            const Statement& stmt) {
  MSQL_ASSIGN_OR_RETURN(Database * db, GetDatabase(session->db_name));
  ExecutorOptions options;
  options.record_ddl_undo = profile_.ddl_rollbackable;
  options.use_planner = use_planner_;
  options.collect_plan_text = collect_plan_text_;
  options.tracer = tracer_;
  options.metrics = metrics_;
  Executor executor(db, session->txn.get(), &locks_, options);
  if (storage_ != nullptr) {
    storage_->SetCurrentTxn(session->txn->id(), session->id,
                            session->db_name);
  }
  auto result = executor.Execute(stmt);
  if (storage_ != nullptr) storage_->ClearCurrentTxn();
  ++stats_.statements_executed;
  if (!result.ok()) {
    // A would-block verdict is not a failure: the transaction stays
    // open (holding the locks it already has — hold-and-wait is what
    // makes deadlock real) and the whole statement is retried from
    // scratch once a blocker releases. Safe because the executor takes
    // every lock before its first mutation.
    if (result.status().code() == StatusCode::kBusy) {
      return result.status();
    }
    // Any other failure aborts the enclosing local transaction.
    Status undo = AbortTxn(session);
    if (!undo.ok()) return undo;
    return result.status();
  }
  if (result->IsQueryResult()) {
    stats_.rows_read += static_cast<int64_t>(result->rows.size());
  } else {
    stats_.rows_written += result->rows_affected;
  }
  return result;
}

}  // namespace msql::relational
