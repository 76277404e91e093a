#ifndef MSQL_RELATIONAL_INDEX_H_
#define MSQL_RELATIONAL_INDEX_H_

#include <algorithm>
#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "common/result.h"
#include "relational/table.h"
#include "relational/value.h"

namespace msql::relational {

/// Ordered secondary index over one column: value → live RowIds.
///
/// Maintained eagerly by the owning Table on every insert/delete/update.
/// The planner's access-path chooser (ChooseAccessPath) reads it for
/// every statement kind: equality probes through LookupIds, inclusive
/// range probes through LookupRange. Both return RowIds in ascending
/// order, so a probe yields rows in the order a scan would. NULL keys
/// are indexed too, which keeps maintenance uniform, but no probe
/// returns them: `= NULL` never probes and ranges skip NULLs.
///
/// The table's row store makes the index (RowStore::NewIndex): MapIndex
/// below for the vector store, BtreeIndex (storage_engine.h) for the
/// paged heap. Callers see only this interface.
class Index {
 public:
  Index(std::string name, size_t column_index)
      : name_(std::move(name)), column_index_(column_index) {}
  virtual ~Index() = default;

  Index(const Index&) = delete;
  Index& operator=(const Index&) = delete;

  const std::string& name() const { return name_; }
  size_t column_index() const { return column_index_; }

  virtual Status Insert(const Value& key, RowId id) = 0;
  virtual Status Erase(const Value& key, RowId id) = 0;

  /// RowIds whose column equals `key`, ascending (empty when none).
  virtual Result<std::vector<RowId>> LookupIds(const Value& key) const = 0;

  /// RowIds whose non-NULL column lies in the inclusive [lo, hi],
  /// ascending. A NULL `lo` or `hi` leaves that end unbounded; lo > hi
  /// is an empty range. Bounds must coerce to the column type.
  virtual Result<std::vector<RowId>> LookupRange(const Value& lo,
                                                 const Value& hi) const = 0;

  /// Number of distinct keys (planner selectivity input); exact.
  virtual size_t distinct_keys() const = 0;

 private:
  std::string name_;
  size_t column_index_;
};

/// The in-memory index: a std::map from key to its ascending RowIds.
class MapIndex final : public Index {
 public:
  using Index::Index;

  Status Insert(const Value& key, RowId id) override {
    auto& ids = entries_[key];
    ids.insert(std::upper_bound(ids.begin(), ids.end(), id), id);
    return Status::OK();
  }

  Status Erase(const Value& key, RowId id) override {
    auto it = entries_.find(key);
    if (it == entries_.end()) return Status::OK();
    auto& ids = it->second;
    auto pos = std::lower_bound(ids.begin(), ids.end(), id);
    if (pos != ids.end() && *pos == id) ids.erase(pos);
    if (ids.empty()) entries_.erase(it);
    return Status::OK();
  }

  Result<std::vector<RowId>> LookupIds(const Value& key) const override {
    auto it = entries_.find(key);
    if (it == entries_.end()) return std::vector<RowId>{};
    return it->second;
  }

  Result<std::vector<RowId>> LookupRange(const Value& lo,
                                         const Value& hi) const override {
    std::vector<RowId> ids;
    auto it = lo.is_null() ? entries_.upper_bound(Value::Null_())
                           : entries_.lower_bound(lo);
    for (; it != entries_.end(); ++it) {
      if (!hi.is_null() && it->first.Compare(hi) > 0) break;
      ids.insert(ids.end(), it->second.begin(), it->second.end());
    }
    std::sort(ids.begin(), ids.end());
    return ids;
  }

  size_t distinct_keys() const override { return entries_.size(); }

 private:
  struct ValueLess {
    bool operator()(const Value& a, const Value& b) const {
      return a.Compare(b) < 0;
    }
  };
  std::map<Value, std::vector<RowId>, ValueLess> entries_;
};

}  // namespace msql::relational

#endif  // MSQL_RELATIONAL_INDEX_H_
