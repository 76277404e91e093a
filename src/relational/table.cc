#include "relational/table.h"

#include <optional>
#include <utility>

#include "common/string_util.h"
#include "relational/index.h"

namespace msql::relational {

namespace {

/// The in-memory row store: one optional row per slot.
class VectorStore final : public RowStore {
 public:
  Result<Row> Read(RowId id) const override { return *slots_[id]; }
  Status Put(RowId id, Row row) override {
    if (id >= slots_.size()) slots_.resize(id + 1);
    slots_[id] = std::move(row);
    return Status::OK();
  }
  Result<Row> Replace(RowId id, Row row) override {
    return std::exchange(*slots_[id], std::move(row));
  }
  Result<Row> Erase(RowId id) override {
    Row old = std::move(*slots_[id]);
    slots_[id].reset();
    return old;
  }
  Status Scan(const RowVisitor& fn) const override {
    for (RowId id = 0; id < slots_.size(); ++id) {
      if (slots_[id].has_value()) MSQL_RETURN_IF_ERROR(fn(id, *slots_[id]));
    }
    return Status::OK();
  }
  Status ScanEntries(
      const std::function<Status(RowId, bool)>& fn) const override {
    for (RowId id = 0; id < slots_.size(); ++id) {
      MSQL_RETURN_IF_ERROR(fn(id, slots_[id].has_value()));
    }
    return Status::OK();
  }
  Result<std::unique_ptr<Index>> NewIndex(const std::string& name,
                                          const TableSchema&, size_t column,
                                          bool) override {
    return std::unique_ptr<Index>(std::make_unique<MapIndex>(name, column));
  }
  Status OnDropIndex(const std::string&) override { return Status::OK(); }

 private:
  std::vector<std::optional<Row>> slots_;
};

}  // namespace

Table::Table(TableSchema schema)
    : schema_(std::move(schema)),
      owned_store_(std::make_unique<VectorStore>()),
      store_(owned_store_.get()) {}

Table::Table(TableSchema schema, RowStore* store)
    : schema_(std::move(schema)), store_(store) {}

Table::~Table() = default;

Result<std::unique_ptr<Table>> Table::Open(TableSchema schema,
                                           RowStore* store) {
  std::unique_ptr<Table> table(new Table(std::move(schema), store));
  // Ids without a live entry — tombstoned, or gaps left by discarded
  // transactions — are reusable.
  MSQL_RETURN_IF_ERROR(
      store->ScanEntries([&](RowId id, bool live) -> Status {
        while (table->next_rowid_ < id) {
          table->free_slots_.insert(table->next_rowid_++);
        }
        if (!live) table->free_slots_.insert(id);
        table->live_count_ += live ? 1 : 0;
        table->next_rowid_ = id + 1;
        return Status::OK();
      }));
  return table;
}

Result<Row> Table::Normalize(Row row) const {
  if (row.size() != schema_.num_columns()) {
    return Status::InvalidArgument(
        "row arity " + std::to_string(row.size()) + " does not match table '" +
        schema_.table_name() + "' with " +
        std::to_string(schema_.num_columns()) + " columns");
  }
  for (size_t i = 0; i < row.size(); ++i) {
    MSQL_ASSIGN_OR_RETURN(row[i], row[i].CoerceTo(schema_.column(i).type));
  }
  return row;
}

Result<Row> Table::ReadRow(RowId id) const {
  if (!IsLive(id)) {
    return Status::Internal("read of dead slot " + std::to_string(id));
  }
  return store_->Read(id);
}

Status Table::Scan(const RowVisitor& fn) const { return store_->Scan(fn); }

Result<RowId> Table::Insert(Row row) {
  MSQL_ASSIGN_OR_RETURN(Row normalized, Normalize(std::move(row)));
  // Reuse the lowest tombstoned slot so slot_count() stays bounded by
  // the high-water mark of live rows, not by total inserts.
  RowId id = free_slots_.empty() ? next_rowid_ : *free_slots_.begin();
  const std::vector<Value> keys = IndexKeys(normalized);
  MSQL_RETURN_IF_ERROR(store_->Put(id, std::move(normalized)));
  Status indexed = IndexInsert(keys, id);
  if (!indexed.ok()) {
    // Compensate the store write so the slot is not half-born; a paged
    // store logs the compensation like any other mutation.
    (void)store_->Erase(id);
    return indexed;
  }
  if (id == next_rowid_) {
    ++next_rowid_;
  } else {
    free_slots_.erase(id);
  }
  ++live_count_;
  return id;
}

Status Table::ResurrectRow(RowId id, Row row) {
  if (id >= next_rowid_) {
    return Status::Internal("resurrect of unknown slot " + std::to_string(id));
  }
  if (IsLive(id)) {
    return Status::Internal("resurrect of live slot " + std::to_string(id));
  }
  const std::vector<Value> keys = IndexKeys(row);
  MSQL_RETURN_IF_ERROR(store_->Put(id, std::move(row)));
  free_slots_.erase(id);
  ++live_count_;
  return IndexInsert(keys, id);
}

Result<Row> Table::Delete(RowId id) {
  if (!IsLive(id)) {
    return Status::Internal("delete of dead slot " + std::to_string(id));
  }
  MSQL_ASSIGN_OR_RETURN(Row old, store_->Erase(id));
  free_slots_.insert(id);
  --live_count_;
  MSQL_RETURN_IF_ERROR(IndexErase(IndexKeys(old), id));
  return old;
}

Result<Row> Table::Update(RowId id, Row new_row) {
  if (!IsLive(id)) {
    return Status::Internal("update of dead slot " + std::to_string(id));
  }
  MSQL_ASSIGN_OR_RETURN(Row normalized, Normalize(std::move(new_row)));
  const std::vector<Value> keys = IndexKeys(normalized);
  MSQL_ASSIGN_OR_RETURN(Row old, store_->Replace(id, std::move(normalized)));
  MSQL_RETURN_IF_ERROR(IndexErase(IndexKeys(old), id));
  MSQL_RETURN_IF_ERROR(IndexInsert(keys, id));
  return old;
}

Status Table::CreateIndex(std::string_view index_name,
                          std::string_view column, bool log_ddl) {
  std::string key = ToLower(index_name);
  if (indexes_.count(key) > 0) {
    return Status::AlreadyExists("index '" + key + "' already exists on '" +
                                 schema_.table_name() + "'");
  }
  auto col = schema_.FindColumn(column);
  if (!col.has_value()) {
    return Status::NotFound("column '" + std::string(column) +
                            "' not in table '" + schema_.table_name() + "'");
  }
  MSQL_ASSIGN_OR_RETURN(std::unique_ptr<Index> index,
                        store_->NewIndex(key, schema_, *col, log_ddl));
  MSQL_RETURN_IF_ERROR(Scan([&](RowId id, Row row) {
    return index->Insert(row[*col], id);
  }));
  indexes_.emplace(std::move(key), std::move(index));
  return Status::OK();
}

Result<std::string> Table::DropIndex(std::string_view index_name) {
  auto it = indexes_.find(ToLower(index_name));
  if (it == indexes_.end()) {
    return Status::NotFound("index '" + std::string(index_name) +
                            "' does not exist on '" + schema_.table_name() +
                            "'");
  }
  std::string column = schema_.column(it->second->column_index()).name;
  MSQL_RETURN_IF_ERROR(store_->OnDropIndex(it->first));
  indexes_.erase(it);
  return column;
}

bool Table::HasIndex(std::string_view index_name) const {
  return indexes_.count(ToLower(index_name)) > 0;
}

std::vector<std::string> Table::IndexNames() const {
  std::vector<std::string> names;
  names.reserve(indexes_.size());
  for (const auto& [name, index] : indexes_) names.push_back(name);
  return names;
}

const Index* Table::FindIndexOnColumn(std::string_view column) const {
  auto col = schema_.FindColumn(column);
  if (!col.has_value()) return nullptr;
  for (const auto& [name, index] : indexes_) {
    if (index->column_index() == *col) return index.get();
  }
  return nullptr;
}

std::vector<Value> Table::IndexKeys(const Row& row) const {
  std::vector<Value> keys;
  keys.reserve(indexes_.size());
  for (const auto& [name, index] : indexes_) {
    keys.push_back(row[index->column_index()]);
  }
  return keys;
}

Status Table::IndexInsert(const std::vector<Value>& keys, RowId id) {
  size_t k = 0;
  for (auto it = indexes_.begin(); it != indexes_.end(); ++it, ++k) {
    Status status = it->second->Insert(keys[k], id);
    if (!status.ok()) {
      // Back out the entries already made so no index half-covers the
      // row (best effort; the transaction is about to abort anyway).
      size_t u = 0;
      for (auto undo = indexes_.begin(); undo != it; ++undo, ++u) {
        (void)undo->second->Erase(keys[u], id);
      }
      return status;
    }
  }
  return Status::OK();
}

Status Table::IndexErase(const std::vector<Value>& keys, RowId id) {
  Status first_error = Status::OK();
  size_t k = 0;
  for (const auto& [name, index] : indexes_) {
    Status status = index->Erase(keys[k++], id);
    if (!status.ok() && first_error.ok()) first_error = status;
  }
  return first_error;
}

}  // namespace msql::relational
