// Differential test for the access-path chooser: one seeded random
// DML/SELECT workload runs on three engines — in-memory without
// indexes, in-memory with indexes, and paged with B+-tree indexes. Index
// equality and range probes must never change an answer: every
// statement must succeed or fail alike (same Status text), return the
// same rows in the same order and the same rows_affected, and the final
// tables must be identical row for row. Each statement runs on the
// planned or the naive path (the same on all three engines), so both
// callers of the chooser are covered.
#include <gtest/gtest.h>
#include <unistd.h>

#include <array>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "relational/engine.h"

namespace msql::relational {
namespace {

constexpr int kMaxId = 30;

class AccessPathDiffTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  void SetUp() override {
    root_ = std::filesystem::temp_directory_path() /
            ("msql_access_path_diff_" + std::to_string(::getpid()) + "_" +
             std::to_string(GetParam()));
    std::filesystem::remove_all(root_);
    for (size_t e = 0; e < engines_.size(); ++e) {
      engines_[e] = std::make_unique<LocalEngine>(
          "e" + std::to_string(e), CapabilityProfile::IngresLike());
    }
    StorageConfig config;
    config.root_dir = root_.string();
    config.buffer_pool_pages = 8;  // small enough to evict during a run
    ASSERT_TRUE(engines_[2]->AttachStorage(config).ok());
    for (size_t e = 0; e < engines_.size(); ++e) {
      ASSERT_TRUE(engines_[e]->CreateDatabase("db").ok());
      sessions_[e] = *engines_[e]->OpenSession("db");
    }
  }

  void TearDown() override {
    for (auto& engine : engines_) engine.reset();
    std::filesystem::remove_all(root_);
  }

  /// Runs `sql` on all three engines and requires identical outcomes.
  void Run(const std::string& sql, bool planner = true) {
    std::array<Result<ResultSet>, 3> results = {
        Status::Internal("not run"), Status::Internal("not run"),
        Status::Internal("not run")};
    for (size_t e = 0; e < engines_.size(); ++e) {
      engines_[e]->set_use_planner(planner);
      results[e] = engines_[e]->Execute(sessions_[e], sql);
      engines_[e]->set_use_planner(true);
    }
    for (size_t e = 1; e < engines_.size(); ++e) {
      ASSERT_EQ(results[e].ok(), results[0].ok())
          << kNames[e] << ": " << sql << "\n  unindexed: "
          << results[0].status() << "\n  " << kNames[e] << ": "
          << results[e].status();
      if (!results[0].ok()) {
        EXPECT_EQ(results[e].status().ToString(),
                  results[0].status().ToString())
            << kNames[e] << ": " << sql;
        continue;
      }
      EXPECT_EQ(*results[e], *results[0])
          << kNames[e] << ": " << sql << "\n  unindexed:\n"
          << results[0]->ToString() << "  " << kNames[e] << ":\n"
          << results[e]->ToString();
    }
    ++statements_;
  }

  /// DDL on the indexed engines only.
  void Index(const std::string& sql) {
    for (size_t e = 1; e < engines_.size(); ++e) {
      auto rs = engines_[e]->Execute(sessions_[e], sql);
      ASSERT_TRUE(rs.ok()) << sql << " -> " << rs.status();
    }
  }

  static constexpr std::array<const char*, 3> kNames = {
      "unindexed", "indexed", "paged"};
  std::array<std::unique_ptr<LocalEngine>, 3> engines_;
  std::array<SessionId, 3> sessions_{};
  std::filesystem::path root_;
  int statements_ = 0;
};

std::string Num(Rng* rng, int lo = 0, int hi = kMaxId) {
  return std::to_string(rng->NextInRange(lo, hi));
}

std::string Grp(Rng* rng) { return "'g" + Num(rng, 0, 3) + "'"; }

/// One WHERE predicate. `typed_only` leaves out the shapes that fail at
/// run time, for use inside explicit transactions.
std::string Predicate(Rng* rng, bool typed_only) {
  const std::string a = Num(rng);
  const std::string b = Num(rng);
  switch (rng->NextBelow(typed_only ? 21 : 27)) {
    case 0: return "id = " + a;
    case 1: return a + " = id";
    case 2: return "id = NULL";
    case 3: return "id = " + a + ".0";
    case 4: return a + " <= id";
    case 5: return "id > " + a + " AND id < " + b;  // empty when a >= b
    case 6: return "id >= " + a;
    case 7: return "id < " + a;
    case 8: return "id >= " + a + ".5 AND id <= " + b;  // 2.5 is no bound
    case 9: return "grp = " + Grp(rng);
    case 10: return "grp >= " + Grp(rng) + " AND grp < " + Grp(rng);
    case 11: return "v > " + a + ".25";
    case 12: return "id >= " + a + " AND v < " + b + ".5";
    case 13: return "id IS NULL OR id = " + a;
    case 14: return "id <= " + a + " AND " + b + " > id AND id >= 3";
    // Past INTEGER's range: no bound, and no undefined cast.
    case 15: return "id < 1e19";
    case 16: return "id >= -1e19 AND id < " + a;
    case 17: return "id = 1e19";
    // At 2^53 Value::Compare (doubles) and exact keys part ways.
    case 18: return "id = 9007199254740992";
    case 19: return "id > 9007199254740992 AND id <= 9007199254740993";
    // A built-in call on the right argument class cannot fail: it probes.
    case 20: return "id = " + a + " AND LENGTH(grp) = 2";
    // Shapes that fail on some rows, next to an indexable bound.
    case 21: return "id = '" + a + "'";  // INTEGER vs TEXT
    case 22: return "grp > 3 AND id = " + a;  // TEXT vs INTEGER
    case 23: return "id = " + a + " AND grp > 3";
    case 24: return "grp + 1 > 2 AND id >= " + a;  // arithmetic on TEXT
    case 25: return "LENGTH(id) = 3 AND id = " + a;  // LENGTH of INTEGER
    default: return "ghost = 1 AND id = " + a;  // unknown column
  }
}

/// An id: mostly small, sometimes NULL, 2^53 or 2^53 + 1.
std::string Id(Rng* rng) {
  if (rng->NextBool(0.1)) return "NULL";
  if (rng->NextBool(0.05)) {
    return rng->NextBool(0.5) ? "9007199254740992" : "9007199254740993";
  }
  return Num(rng);
}

std::string Value3(Rng* rng) {
  const std::string id = Id(rng);
  const std::string grp = rng->NextBool(0.1) ? "NULL" : Grp(rng);
  return "(" + id + ", " + grp + ", " + Num(rng, 0, 99) + ".5)";
}

/// One DML or SELECT statement.
std::string Statement(Rng* rng, bool typed_only) {
  const std::string where = " WHERE " + Predicate(rng, typed_only);
  switch (rng->NextBelow(8)) {
    case 0: return "SELECT id, grp, v FROM t" + where;
    case 1: return "SELECT COUNT(*), MIN(v) FROM t" + where;
    case 2: return "UPDATE t SET id = id + 1 WHERE id = " + Num(rng);
    case 3: return "UPDATE t SET v = v + 1.0, grp = " + Grp(rng) + where;
    case 4: return "UPDATE t SET id = id - 2" + where;
    case 5: return "DELETE FROM t" + where;
    default: return "INSERT INTO t VALUES " + Value3(rng);
  }
}

TEST_P(AccessPathDiffTest, IndexedAndPagedEnginesAgreeWithUnindexed) {
  Rng rng(GetParam());
  Run("CREATE TABLE t (id INTEGER, grp TEXT, v REAL)");
  Index("CREATE INDEX t_id ON t (id)");
  Index("CREATE INDEX t_grp ON t (grp)");
  std::string load = "INSERT INTO t VALUES ";
  for (int r = 0; r < 60; ++r) load += (r > 0 ? ", " : "") + Value3(&rng);
  Run(load);

  for (int step = 0; step < 120; ++step) {
    const bool planner = rng.NextBool(0.75);
    if (rng.NextBool(0.15)) {
      // An explicit transaction of indexed writes, then COMMIT or
      // ROLLBACK: undo must restore rows and index entries alike.
      Run("BEGIN");
      const int writes = static_cast<int>(rng.NextInRange(1, 3));
      for (int w = 0; w < writes; ++w) {
        Run(rng.NextBool(0.5)
                ? "UPDATE t SET id = id + 1 WHERE " + Predicate(&rng, true)
                : "DELETE FROM t WHERE " + Predicate(&rng, true),
            planner);
        Run("INSERT INTO t VALUES " + Value3(&rng));
      }
      Run("SELECT id, grp, v FROM t WHERE " + Predicate(&rng, true), planner);
      Run(rng.NextBool(0.6) ? "ROLLBACK" : "COMMIT");
    } else {
      Run(Statement(&rng, false), planner);
    }
    if (HasFatalFailure()) return;
    if (step % 20 == 19) Run("SELECT id, grp, v FROM t");
  }
  // Final tables, in storage (RowId) order and sorted.
  Run("SELECT id, grp, v FROM t");
  Run("SELECT id, grp, v FROM t ORDER BY id, grp, v");
  EXPECT_GT(statements_, 120);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AccessPathDiffTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace msql::relational
