// Secondary indexes of the local engines: maintenance under DML and
// transactions, the executor's access-path selection, and DDL undo.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "relational/engine.h"
#include "relational/index.h"
#include "relational/storage_engine.h"

namespace msql::relational {
namespace {

class IndexTest : public ::testing::Test {
 protected:
  void SetUp() override {
    engine_ = std::make_unique<LocalEngine>(
        "svc", CapabilityProfile::IngresLike());
    ASSERT_TRUE(engine_->CreateDatabase("db").ok());
    session_ = *engine_->OpenSession("db");
    Exec("CREATE TABLE t (id INTEGER, grp TEXT, v REAL)");
    std::string insert = "INSERT INTO t VALUES ";
    for (int i = 0; i < 50; ++i) {
      if (i > 0) insert += ", ";
      insert += "(" + std::to_string(i) + ", 'g" +
                std::to_string(i % 5) + "', " + std::to_string(i) + ".5)";
    }
    Exec(insert);
  }

  ResultSet Exec(std::string_view sql) {
    auto result = engine_->Execute(session_, sql);
    EXPECT_TRUE(result.ok()) << sql << " -> " << result.status();
    return result.ok() ? std::move(*result) : ResultSet{};
  }

  const Table* GetT() {
    auto db = engine_->GetDatabase("db");
    return *(*db)->GetTableConst("t");
  }

  std::unique_ptr<LocalEngine> engine_;
  SessionId session_ = 0;
};

TEST_F(IndexTest, CreateDropLifecycle) {
  Exec("CREATE INDEX idx_id ON t (id)");
  EXPECT_TRUE(GetT()->HasIndex("idx_id"));
  EXPECT_EQ(GetT()->IndexNames(), (std::vector<std::string>{"idx_id"}));
  // Duplicate name / unknown column rejected.
  EXPECT_FALSE(
      engine_->Execute(session_, "CREATE INDEX idx_id ON t (v)").ok());
  EXPECT_FALSE(
      engine_->Execute(session_, "CREATE INDEX idx2 ON t (ghost)").ok());
  Exec("DROP INDEX idx_id ON t");
  EXPECT_FALSE(GetT()->HasIndex("idx_id"));
  EXPECT_FALSE(
      engine_->Execute(session_, "DROP INDEX idx_id ON t").ok());
}

TEST_F(IndexTest, ProbeCutsScannedRows) {
  ResultSet scan = Exec("SELECT v FROM t WHERE id = 7");
  EXPECT_EQ(scan.rows_scanned, 50);
  Exec("CREATE INDEX idx_id ON t (id)");
  ResultSet probe = Exec("SELECT v FROM t WHERE id = 7");
  EXPECT_EQ(probe.rows_scanned, 1);
  // Identical answers either way.
  ASSERT_EQ(probe.rows.size(), 1u);
  EXPECT_EQ(probe.rows[0][0], scan.rows[0][0]);
}

TEST_F(IndexTest, ProbeWorksWithExtraConjunctsAndReversedOperands) {
  Exec("CREATE INDEX idx_grp ON t (grp)");
  ResultSet rs = Exec(
      "SELECT id FROM t WHERE v > 10 AND 'g3' = grp ORDER BY id");
  EXPECT_EQ(rs.rows_scanned, 10);  // one group out of five
  ASSERT_GT(rs.rows.size(), 0u);
  for (const auto& row : rs.rows) {
    EXPECT_EQ(row[0].AsInteger() % 5, 3);
  }
}

TEST_F(IndexTest, RangeProbesAndJoinsProbe) {
  Exec("CREATE INDEX idx_id ON t (id)");
  // `id > 47` on INTEGER is the inclusive range [48, +inf): two rows.
  EXPECT_EQ(Exec("SELECT id FROM t WHERE id > 47").rows_scanned, 2);
  // Multi-table FROM probes too since the planner pushes `col = literal`
  // conjuncts to their source (the old executor scanned 100 rows here).
  EXPECT_EQ(
      Exec("SELECT a.id FROM t a, t b WHERE a.id = 1 AND b.id = 1")
          .rows_scanned,
      2);
}

TEST_F(IndexTest, MaintainedAcrossDml) {
  Exec("CREATE INDEX idx_grp ON t (grp)");
  Exec("INSERT INTO t VALUES (100, 'g3', 1.0)");
  EXPECT_EQ(Exec("SELECT id FROM t WHERE grp = 'g3'").rows.size(), 11u);
  Exec("UPDATE t SET grp = 'g9' WHERE id = 100");
  EXPECT_EQ(Exec("SELECT id FROM t WHERE grp = 'g3'").rows.size(), 10u);
  EXPECT_EQ(Exec("SELECT id FROM t WHERE grp = 'g9'").rows.size(), 1u);
  Exec("DELETE FROM t WHERE grp = 'g9'");
  EXPECT_EQ(Exec("SELECT id FROM t WHERE grp = 'g9'").rows.size(), 0u);
}

TEST_F(IndexTest, MaintainedAcrossRollback) {
  Exec("CREATE INDEX idx_grp ON t (grp)");
  ASSERT_TRUE(engine_->Begin(session_).ok());
  Exec("UPDATE t SET grp = 'moved' WHERE grp = 'g0'");
  EXPECT_EQ(Exec("SELECT id FROM t WHERE grp = 'moved'").rows.size(), 10u);
  ASSERT_TRUE(engine_->Rollback(session_).ok());
  // Undo restored the before-images AND their index entries.
  EXPECT_EQ(Exec("SELECT id FROM t WHERE grp = 'moved'").rows.size(), 0u);
  EXPECT_EQ(Exec("SELECT id FROM t WHERE grp = 'g0'").rows.size(), 10u);
}

TEST_F(IndexTest, IndexDdlRollsBack) {
  ASSERT_TRUE(engine_->Begin(session_).ok());
  Exec("CREATE INDEX idx_id ON t (id)");
  ASSERT_TRUE(engine_->Rollback(session_).ok());
  EXPECT_FALSE(GetT()->HasIndex("idx_id"));

  Exec("CREATE INDEX idx_id ON t (id)");
  ASSERT_TRUE(engine_->Begin(session_).ok());
  Exec("DROP INDEX idx_id ON t");
  ASSERT_TRUE(engine_->Rollback(session_).ok());
  EXPECT_TRUE(GetT()->HasIndex("idx_id"));
  // And the rebuilt index still answers probes correctly.
  EXPECT_EQ(Exec("SELECT v FROM t WHERE id = 3").rows_scanned, 1);
}

TEST_F(IndexTest, NullProbeNeverMatches) {
  Exec("CREATE INDEX idx_grp ON t (grp)");
  Exec("INSERT INTO t (id, v) VALUES (200, 1.0)");  // grp NULL
  // `grp = NULL` is UNKNOWN for every row — including the NULL-keyed one.
  EXPECT_EQ(Exec("SELECT id FROM t WHERE grp = NULL").rows.size(), 0u);
  // IS NULL still finds it (via scan).
  EXPECT_EQ(Exec("SELECT id FROM t WHERE grp IS NULL").rows.size(), 1u);
}

TEST_F(IndexTest, IndexStructureDirectly) {
  MapIndex index("i", 0);
  auto ids = [&](const Value& key) { return *index.LookupIds(key); };
  index.Insert(Value::Integer(1), 10);
  index.Insert(Value::Integer(1), 11);
  index.Insert(Value::Integer(2), 12);
  EXPECT_EQ(index.distinct_keys(), 2u);
  EXPECT_EQ(ids(Value::Integer(1)), (std::vector<RowId>{10, 11}));
  index.Erase(Value::Integer(1), 10);
  EXPECT_EQ(ids(Value::Integer(1)), (std::vector<RowId>{11}));
  index.Erase(Value::Integer(1), 11);
  EXPECT_TRUE(ids(Value::Integer(1)).empty());
  EXPECT_TRUE(ids(Value::Integer(9)).empty());
  EXPECT_EQ(index.distinct_keys(), 1u);
  // Cross-numeric keys compare like values: 2 == 2.0.
  EXPECT_EQ(ids(Value::Real(2.0)), (std::vector<RowId>{12}));
}

TEST_F(IndexTest, PointWritesProbeAndCountFetchedRows) {
  Exec("CREATE INDEX idx_id ON t (id)");
  ResultSet updated = Exec("UPDATE t SET v = 0.0 WHERE id = 7");
  EXPECT_EQ(updated.rows_affected, 1);
  EXPECT_EQ(updated.rows_scanned, 1);
  ResultSet deleted = Exec("DELETE FROM t WHERE id >= 40 AND id < 45");
  EXPECT_EQ(deleted.rows_affected, 5);
  EXPECT_EQ(deleted.rows_scanned, 5);
  // Without a usable bound the statement scans and reports the live rows
  // left after it, as before.
  ResultSet scanned = Exec("DELETE FROM t WHERE v = 0.0");
  EXPECT_EQ(scanned.rows_affected, 1);
  EXPECT_EQ(scanned.rows_scanned, 44);
}

TEST_F(IndexTest, SetOnIndexedColumnSeesPreStatementRows) {
  Exec("CREATE INDEX idx_id ON t (id)");
  // Both phases: every new image is computed before any is applied, so
  // rows moved up by the SET are not fetched again.
  ResultSet rs = Exec("UPDATE t SET id = id + 1 WHERE id >= 10 AND id <= 12");
  EXPECT_EQ(rs.rows_affected, 3);
  EXPECT_EQ(Exec("SELECT id FROM t WHERE id >= 10 AND id <= 13").rows.size(),
            4u);
  EXPECT_EQ(Exec("SELECT id FROM t WHERE id = 10").rows.size(), 0u);
}

// LookupRange on both index implementations: the std::map one of an
// in-memory table and the B+-tree of a paged table.
class IndexRangeTest : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override {
    engine_ = std::make_unique<LocalEngine>(
        "svc", CapabilityProfile::IngresLike());
    if (GetParam()) {
      // A parameterized test's name has a '/'; keep the directory flat
      // so TearDown removes all of it.
      std::string name =
          ::testing::UnitTest::GetInstance()->current_test_info()->name();
      std::replace(name.begin(), name.end(), '/', '_');
      root_ = std::filesystem::temp_directory_path() /
              ("msql_index_range_" + std::to_string(::getpid()) + "_" + name);
      std::filesystem::remove_all(root_);
      StorageConfig config;
      config.root_dir = root_.string();
      config.buffer_pool_pages = 16;
      ASSERT_TRUE(engine_->AttachStorage(config).ok());
    }
    ASSERT_TRUE(engine_->CreateDatabase("db").ok());
    session_ = *engine_->OpenSession("db");
  }
  void TearDown() override {
    engine_.reset();
    if (!root_.empty()) std::filesystem::remove_all(root_);
  }

  void Exec(std::string_view sql) {
    auto result = engine_->Execute(session_, sql);
    ASSERT_TRUE(result.ok()) << sql << " -> " << result.status();
  }

  /// Table k (key <type>) with `keys` inserted in order (RowId i holds
  /// keys[i]) and an index on key.
  const Index* Load(const std::string& type,
                    const std::vector<std::string>& keys) {
    Exec("CREATE TABLE k (key " + type + ")");
    for (const auto& key : keys) Exec("INSERT INTO k VALUES (" + key + ")");
    Exec("CREATE INDEX k_key ON k (key)");
    auto db = engine_->GetDatabase("db");
    const Table* table = *(*db)->GetTableConst("k");
    const Index* index = table->FindIndexOnColumn("key");
    EXPECT_EQ(dynamic_cast<const BtreeIndex*>(index) != nullptr, GetParam());
    return index;
  }

  static std::vector<RowId> Range(const Index* index, const Value& lo,
                                  const Value& hi) {
    auto ids = index->LookupRange(lo, hi);
    EXPECT_TRUE(ids.ok()) << ids.status();
    return ids.ok() ? *ids : std::vector<RowId>{};
  }

  std::unique_ptr<LocalEngine> engine_;
  SessionId session_ = 0;
  std::filesystem::path root_;
};

using Ids = std::vector<RowId>;
const Value kUnbounded = Value::Null_();

TEST_P(IndexRangeTest, NegativeIntegersOrderAcrossTheSignBit) {
  const Index* index = Load("INTEGER", {"3", "-1", "0", "-7", "5", "-2"});
  ASSERT_NE(index, nullptr);
  EXPECT_EQ(Range(index, Value::Integer(-2), Value::Integer(0)),
            (Ids{1, 2, 5}));
  EXPECT_EQ(Range(index, Value::Integer(-100), Value::Integer(-3)), (Ids{3}));
  EXPECT_EQ(Range(index, Value::Integer(-1), Value::Integer(4)),
            (Ids{0, 1, 2}));
}

TEST_P(IndexRangeTest, OneSidedBounds) {
  const Index* index = Load("INTEGER", {"3", "-1", "0", "-7", "5", "-2"});
  ASSERT_NE(index, nullptr);
  EXPECT_EQ(Range(index, Value::Integer(0), kUnbounded), (Ids{0, 2, 4}));
  EXPECT_EQ(Range(index, kUnbounded, Value::Integer(-1)), (Ids{1, 3, 5}));
  EXPECT_EQ(Range(index, kUnbounded, kUnbounded), (Ids{0, 1, 2, 3, 4, 5}));
}

TEST_P(IndexRangeTest, RealKeysIncludingNegativeZero) {
  const Index* index =
      Load("REAL", {"2.25", "-1.5", "0.0", "-0.0", "3.5", "-0.25"});
  ASSERT_NE(index, nullptr);
  // -0.0 compares equal to 0.0, so both fall inside either bound.
  EXPECT_EQ(Range(index, Value::Real(0.0), Value::Real(3.0)), (Ids{0, 2, 3}));
  EXPECT_EQ(Range(index, Value::Real(-1.0), Value::Real(0.0)),
            (Ids{2, 3, 5}));
  EXPECT_EQ(Range(index, Value::Real(-2.0), Value::Real(-1.5)), (Ids{1}));
  auto zeros = index->LookupIds(Value::Real(0.0));
  ASSERT_TRUE(zeros.ok());
  EXPECT_EQ(*zeros, (Ids{2, 3}));
}

TEST_P(IndexRangeTest, TextKeysWhereOneIsAPrefixOfAnother) {
  const Index* index =
      Load("TEXT", {"'abc'", "'ab'", "'b'", "'a'", "'abd'", "'ab c'"});
  ASSERT_NE(index, nullptr);
  EXPECT_EQ(Range(index, Value::Text("ab"), Value::Text("ab")), (Ids{1}));
  EXPECT_EQ(Range(index, Value::Text("ab"), Value::Text("abc")),
            (Ids{0, 1, 5}));
  EXPECT_EQ(Range(index, Value::Text("a"), Value::Text("ab")), (Ids{1, 3}));
  EXPECT_EQ(Range(index, Value::Text("abc"), kUnbounded), (Ids{0, 2, 4}));
}

TEST_P(IndexRangeTest, NullKeysAreNeverReturned) {
  const Index* index = Load("INTEGER", {"NULL", "4", "NULL", "-9", "0"});
  ASSERT_NE(index, nullptr);
  EXPECT_EQ(Range(index, kUnbounded, kUnbounded), (Ids{1, 3, 4}));
  EXPECT_EQ(Range(index, kUnbounded, Value::Integer(0)), (Ids{3, 4}));
  EXPECT_EQ(Range(index, Value::Integer(-9), kUnbounded), (Ids{1, 3, 4}));
}

TEST_P(IndexRangeTest, EmptyRanges) {
  const Index* index = Load("INTEGER", {"1", "5", "9"});
  ASSERT_NE(index, nullptr);
  EXPECT_TRUE(Range(index, Value::Integer(2), Value::Integer(4)).empty());
  EXPECT_TRUE(Range(index, Value::Integer(6), Value::Integer(2)).empty());
  EXPECT_TRUE(Range(index, Value::Integer(10), kUnbounded).empty());
  EXPECT_TRUE(Range(index, kUnbounded, Value::Integer(0)).empty());
}

TEST_P(IndexRangeTest, FetchesAreAscendingAfterSlotReuse) {
  const Index* index = Load("INTEGER", {"7", "7", "3", "7"});
  ASSERT_NE(index, nullptr);
  Exec("DELETE FROM k WHERE key = 3");
  Exec("INSERT INTO k VALUES (7)");  // reuses slot 2
  auto equal = index->LookupIds(Value::Integer(7));
  ASSERT_TRUE(equal.ok());
  EXPECT_EQ(*equal, (Ids{0, 1, 2, 3}));
  EXPECT_EQ(Range(index, Value::Integer(0), Value::Integer(9)),
            (Ids{0, 1, 2, 3}));
}

INSTANTIATE_TEST_SUITE_P(BothIndexes, IndexRangeTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Btree" : "Map";
                         });

}  // namespace
}  // namespace msql::relational
