#ifndef MSQL_MDBS_GLOBAL_DATA_DICTIONARY_H_
#define MSQL_MDBS_GLOBAL_DATA_DICTIONARY_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "relational/schema.h"

namespace msql::mdbs {

/// Per-column statistics gathered by ANALYZE against the local engine.
struct ColumnStats {
  /// Number of distinct non-NULL values observed.
  int64_t distinct_values = 0;
  /// Display renderings of the smallest/largest non-NULL value (empty
  /// when the column held only NULLs or the table was empty).
  std::string min_value;
  std::string max_value;
  /// Average wire bytes per value (display bytes + per-value framing),
  /// matching the LamResponse::WireBytes accounting so transfer-cost
  /// estimates line up with what netsim actually charges.
  double avg_width_bytes = 0.0;
};

/// Per-table statistics snapshot. `version` bumps on every re-ANALYZE;
/// `schema_generation` records the GDD schema generation the snapshot
/// was taken against, so a re-IMPORT makes the stats detectably stale.
struct TableStats {
  int64_t row_count = 0;
  /// Average wire bytes per full tuple (sum of column avg widths).
  double avg_row_bytes = 0.0;
  int64_t version = 0;
  uint64_t schema_generation = 0;
  /// column name → stats.
  std::map<std::string, ColumnStats> columns;
};

/// One database known at the multidatabase level: its serving service
/// and the (possibly partial) schemas imported for its tables.
struct GddDatabase {
  std::string name;
  std::string service;
  /// table name → imported schema (possibly a partial column list).
  std::map<std::string, relational::TableSchema> tables;
  /// table name → ANALYZE statistics (absent until analyzed).
  std::map<std::string, TableStats> stats;
  /// table name → schema generation, bumped every time PutTable
  /// replaces the definition. Stats carrying an older generation are
  /// stale and the optimizer falls back to the paper heuristics.
  std::map<std::string, uint64_t> schema_generations;
  /// table name → rows written (INSERT/UPDATE/DELETE) since the last
  /// ANALYZE snapshot. Schema generation alone misses pure data churn:
  /// heavy DML on an unchanged schema would otherwise never invalidate
  /// the snapshot and the cost model would plan on stale row counts.
  std::map<std::string, int64_t> write_churn;
};

/// The Global Data Dictionary: "a repository for the names of the
/// database objects that are visible at the multidatabase level ...
/// names of tables together with the names, types and widths of their
/// columns" (§3.1). It powers multiple-identifier detection and the
/// substitution of implicit semantic variables.
class GlobalDataDictionary {
 public:
  /// Registers a database served by `service` (idempotent when already
  /// registered with the same service; error on a conflicting service —
  /// database names must be unique inside the federation).
  Status RegisterDatabase(std::string_view database,
                          std::string_view service);

  bool HasDatabase(std::string_view database) const;
  Result<const GddDatabase*> GetDatabase(std::string_view database) const;
  std::vector<std::string> DatabaseNames() const;

  /// Inserts or replaces a table definition ("The IMPORT operation
  /// replaces the definition of previously imported database objects").
  Status PutTable(std::string_view database,
                  relational::TableSchema schema);

  Status RemoveTable(std::string_view database, std::string_view table);
  bool HasTable(std::string_view database, std::string_view table) const;
  Result<const relational::TableSchema*> GetTable(
      std::string_view database, std::string_view table) const;

  // -- Statistics catalog (ANALYZE) ---------------------------------------

  /// Records an ANALYZE snapshot for `database.table`. The table must
  /// already be imported (kNotFound otherwise). The dictionary manages
  /// versioning: the stored snapshot's `version` is the previous
  /// version + 1 and its `schema_generation` is stamped to the table's
  /// current generation, marking the stats fresh.
  Status PutTableStats(std::string_view database, std::string_view table,
                       TableStats stats);

  /// Stats for `database.table`; kNotFound when the database, table or
  /// snapshot does not exist. The snapshot may be stale — check
  /// TableStatsFresh before trusting it for optimization.
  Result<const TableStats*> GetTableStats(std::string_view database,
                                          std::string_view table) const;

  /// True iff a stats snapshot exists, was taken against the table's
  /// current schema generation (i.e. no re-IMPORT since), and the
  /// write churn recorded since the snapshot stays under the staleness
  /// threshold.
  bool TableStatsFresh(std::string_view database,
                       std::string_view table) const;

  /// Records `rows` rows written to `database.table` by committed DML.
  /// Unknown objects are ignored (writes through unimported paths
  /// cannot stale anything). Resets on the next PutTableStats.
  void RecordWriteChurn(std::string_view database, std::string_view table,
                        int64_t rows);

  /// Rows written to `database.table` since its last ANALYZE (0 when
  /// never written or just analyzed).
  int64_t WriteChurn(std::string_view database,
                     std::string_view table) const;

  /// Staleness threshold: stats go stale once churn exceeds
  /// max(`floor_rows`, `fraction` × analyzed row count). Defaults: 0.2
  /// and 64 — a fifth of the table must change (or 64 rows for small
  /// tables) before the optimizer drops back to the paper heuristics.
  void set_stats_churn_limit(double fraction, int64_t floor_rows) {
    churn_fraction_ = fraction;
    churn_floor_rows_ = floor_rows;
  }
  double stats_churn_fraction() const { return churn_fraction_; }
  int64_t stats_churn_floor_rows() const { return churn_floor_rows_; }

  /// Table names in `database` matching an MSQL '%' pattern.
  Result<std::vector<std::string>> MatchTables(
      std::string_view database, std::string_view pattern) const;

  /// Column names of `database.table` matching an MSQL '%' pattern.
  Result<std::vector<std::string>> MatchColumns(
      std::string_view database, std::string_view table,
      std::string_view pattern) const;

  // -- Multidatabases (virtual databases, §2) -----------------------------

  /// Registers a *multidatabase*: a virtual database name that stands
  /// for a set of member databases ("creation and manipulation of ...
  /// virtual databases"). Members must already be in the GDD and the
  /// name must not collide with a database or another multidatabase.
  Status CreateMultidatabase(std::string_view name,
                             std::vector<std::string> members);

  Status DropMultidatabase(std::string_view name);
  bool HasMultidatabase(std::string_view name) const;

  /// Member databases of `name` (in declaration order).
  Result<const std::vector<std::string>*> GetMultidatabase(
      std::string_view name) const;

  /// Total number of imported tables across all databases.
  size_t TotalTableCount() const;

  /// Human-readable dump for diagnostics and examples.
  std::string ToString() const;

 private:
  std::map<std::string, GddDatabase> databases_;
  std::map<std::string, std::vector<std::string>> multidatabases_;
  double churn_fraction_ = 0.2;
  int64_t churn_floor_rows_ = 64;
};

}  // namespace msql::mdbs

#endif  // MSQL_MDBS_GLOBAL_DATA_DICTIONARY_H_
