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
/// The base class is the in-memory implementation (a std::map). Paged
/// tables substitute BtreeIndex (storage_engine.h), which overrides the
/// virtual surface with a page-backed B+-tree; the executor and planner
/// only use that surface (LookupIds / LookupRange / distinct_keys), so
/// they work against either.
class Index {
 public:
  Index(std::string name, size_t column_index)
      : name_(std::move(name)), column_index_(column_index) {}
  virtual ~Index() = default;

  Index(const Index&) = delete;
  Index& operator=(const Index&) = delete;

  const std::string& name() const { return name_; }
  size_t column_index() const { return column_index_; }

  virtual Status Insert(const Value& key, RowId id) {
    auto& ids = entries_[key];
    ids.insert(std::upper_bound(ids.begin(), ids.end(), id), id);
    return Status::OK();
  }

  virtual Status Erase(const Value& key, RowId id) {
    auto it = entries_.find(key);
    if (it == entries_.end()) return Status::OK();
    auto& ids = it->second;
    auto pos = std::lower_bound(ids.begin(), ids.end(), id);
    if (pos != ids.end() && *pos == id) ids.erase(pos);
    if (ids.empty()) entries_.erase(it);
    return Status::OK();
  }

  /// RowIds whose column equals `key`, ascending (empty when none).
  virtual Result<std::vector<RowId>> LookupIds(const Value& key) const {
    const std::vector<RowId>* ids = Lookup(key);
    if (ids == nullptr) return std::vector<RowId>{};
    return *ids;
  }

  /// RowIds whose non-NULL column lies in the inclusive [lo, hi],
  /// ascending. A NULL `lo` or `hi` leaves that end unbounded; lo > hi
  /// is an empty range. Bounds must coerce to the column type.
  virtual Result<std::vector<RowId>> LookupRange(const Value& lo,
                                                 const Value& hi) const {
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

  /// In-memory probe returning a stable pointer (nullptr when none).
  /// Only meaningful on the base implementation — paged callers go
  /// through LookupIds.
  const std::vector<RowId>* Lookup(const Value& key) const {
    auto it = entries_.find(key);
    return it == entries_.end() ? nullptr : &it->second;
  }

  virtual size_t distinct_keys() const { return entries_.size(); }

 protected:
  struct ValueLess {
    bool operator()(const Value& a, const Value& b) const {
      return a.Compare(b) < 0;
    }
  };
  std::string name_;
  size_t column_index_;
  std::map<Value, std::vector<RowId>, ValueLess> entries_;
};

}  // namespace msql::relational

#endif  // MSQL_RELATIONAL_INDEX_H_
