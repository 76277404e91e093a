// Values, schemas, tables and result sets of the local engine substrate.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <limits>
#include <memory>

#include "relational/result_set.h"
#include "relational/schema.h"
#include "relational/storage_engine.h"
#include "relational/table.h"
#include "relational/value.h"

namespace msql::relational {
namespace {

TEST(ValueTest, TypePredicates) {
  EXPECT_TRUE(Value::Null_().is_null());
  EXPECT_TRUE(Value::Integer(1).is_integer());
  EXPECT_TRUE(Value::Real(1.5).is_real());
  EXPECT_TRUE(Value::Text("x").is_text());
  EXPECT_TRUE(Value::Boolean(true).is_boolean());
  EXPECT_TRUE(Value::Integer(1).is_numeric());
  EXPECT_TRUE(Value::Real(1.0).is_numeric());
  EXPECT_FALSE(Value::Text("1").is_numeric());
}

TEST(ValueTest, CrossNumericEquality) {
  EXPECT_EQ(Value::Integer(2), Value::Real(2.0));
  EXPECT_NE(Value::Integer(2), Value::Real(2.5));
  EXPECT_EQ(Value::Null_(), Value::Null_());  // strict equality for tests
  EXPECT_NE(Value::Null_(), Value::Integer(0));
}

TEST(ValueTest, CompareTotalOrder) {
  EXPECT_LT(Value::Null_().Compare(Value::Integer(-100)), 0);
  EXPECT_EQ(Value::Integer(3).Compare(Value::Real(3.0)), 0);
  EXPECT_GT(Value::Text("b").Compare(Value::Text("a")), 0);
  EXPECT_LT(Value::Boolean(false).Compare(Value::Boolean(true)), 0);
}

TEST(ValueTest, SqlLiterals) {
  EXPECT_EQ(Value::Null_().ToSqlLiteral(), "NULL");
  EXPECT_EQ(Value::Integer(-7).ToSqlLiteral(), "-7");
  EXPECT_EQ(Value::Real(2.0).ToSqlLiteral(), "2.0");
  EXPECT_EQ(Value::Text("o'hare").ToSqlLiteral(), "'o''hare'");
  EXPECT_EQ(Value::Boolean(true).ToSqlLiteral(), "TRUE");
}

TEST(ValueTest, CoerceWidensIntToReal) {
  auto v = Value::Integer(4).CoerceTo(Type::kReal);
  ASSERT_TRUE(v.ok());
  EXPECT_TRUE(v->is_real());
  EXPECT_DOUBLE_EQ(v->AsReal(), 4.0);
}

TEST(ValueTest, CoerceExactRealToInt) {
  auto ok = Value::Real(5.0).CoerceTo(Type::kInteger);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok->AsInteger(), 5);
  EXPECT_FALSE(Value::Real(5.5).CoerceTo(Type::kInteger).ok());
}

TEST(ValueTest, CoerceRejectsRealOutsideIntegerRange) {
  auto lowest = Value::Real(-0x1p63).CoerceTo(Type::kInteger);
  ASSERT_TRUE(lowest.ok());
  EXPECT_EQ(lowest->AsInteger(), std::numeric_limits<int64_t>::min());
  EXPECT_FALSE(Value::Real(0x1p63).CoerceTo(Type::kInteger).ok());
  EXPECT_FALSE(Value::Real(1e19).CoerceTo(Type::kInteger).ok());
  EXPECT_FALSE(Value::Real(-1e19).CoerceTo(Type::kInteger).ok());
  EXPECT_FALSE(Value::Real(HUGE_VAL).CoerceTo(Type::kInteger).ok());
}

TEST(ValueTest, CoerceRejectsCrossFamilies) {
  EXPECT_FALSE(Value::Text("9").CoerceTo(Type::kInteger).ok());
  EXPECT_FALSE(Value::Integer(1).CoerceTo(Type::kText).ok());
  // NULL fits everywhere.
  EXPECT_TRUE(Value::Null_().CoerceTo(Type::kText).ok());
}

TEST(TypeTest, NamesRoundTrip) {
  EXPECT_EQ(*TypeFromName("integer"), Type::kInteger);
  EXPECT_EQ(*TypeFromName("INT"), Type::kInteger);
  EXPECT_EQ(*TypeFromName("REAL"), Type::kReal);
  EXPECT_EQ(*TypeFromName("varchar"), Type::kText);
  EXPECT_EQ(*TypeFromName("bool"), Type::kBoolean);
  EXPECT_FALSE(TypeFromName("blob").ok());
}

TableSchema MakeCarsSchema() {
  auto schema = TableSchema::Create(
      "Cars", {{"Code", Type::kInteger, 0},
               {"CarType", Type::kText, 16},
               {"Rate", Type::kReal, 0}});
  EXPECT_TRUE(schema.ok());
  return *schema;
}

TEST(SchemaTest, NamesCanonicalizedToLower) {
  TableSchema schema = MakeCarsSchema();
  EXPECT_EQ(schema.table_name(), "cars");
  EXPECT_EQ(schema.column(0).name, "code");
  EXPECT_TRUE(schema.HasColumn("CODE"));
  EXPECT_EQ(*schema.FindColumn("carTYPE"), 1u);
  EXPECT_FALSE(schema.FindColumn("nope").has_value());
}

TEST(SchemaTest, DuplicateColumnRejected) {
  auto bad = TableSchema::Create("t", {{"a", Type::kInteger, 0},
                                       {"A", Type::kText, 0}});
  EXPECT_FALSE(bad.ok());
}

TEST(SchemaTest, MatchColumnsWildcard) {
  TableSchema schema = MakeCarsSchema();
  EXPECT_EQ(schema.MatchColumns("%code"),
            (std::vector<std::string>{"code"}));
  EXPECT_EQ(schema.MatchColumns("c%"),
            (std::vector<std::string>{"code", "cartype"}));
  EXPECT_TRUE(schema.MatchColumns("z%").empty());
}

TEST(SchemaTest, ProjectPreservesOrder) {
  TableSchema schema = MakeCarsSchema();
  auto projected = schema.Project({"rate", "code"});
  ASSERT_TRUE(projected.ok());
  EXPECT_EQ(projected->column(0).name, "rate");
  EXPECT_EQ(projected->column(1).name, "code");
  EXPECT_FALSE(schema.Project({"ghost"}).ok());
}

Row ReadOk(const Table& table, RowId id) {
  auto row = table.ReadRow(id);
  EXPECT_TRUE(row.ok()) << row.status();
  return row.ok() ? *std::move(row) : Row{};
}

/// Live RowIds in scan order.
std::vector<RowId> ScanIds(const Table& table) {
  std::vector<RowId> ids;
  EXPECT_TRUE(table
                  .Scan([&](RowId id, Row) {
                    ids.push_back(id);
                    return Status::OK();
                  })
                  .ok());
  return ids;
}

TEST(TableTest, InsertCoercesAndCounts) {
  Table table(MakeCarsSchema());
  auto id = table.Insert({Value::Integer(1), Value::Text("suv"),
                          Value::Integer(40)});  // int→real coercion
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(table.live_row_count(), 1u);
  EXPECT_TRUE(ReadOk(table, *id)[2].is_real());
}

TEST(TableTest, InsertRejectsBadArityAndType) {
  Table table(MakeCarsSchema());
  EXPECT_FALSE(table.Insert({Value::Integer(1)}).ok());
  EXPECT_FALSE(table.Insert({Value::Text("x"), Value::Text("y"),
                             Value::Real(1.0)}).ok());
  EXPECT_EQ(table.live_row_count(), 0u);
}

TEST(TableTest, ScanSkipsTombstones) {
  Table table(MakeCarsSchema());
  RowId a = *table.Insert(
      {Value::Integer(1), Value::Text("a"), Value::Real(1.0)});
  RowId b = *table.Insert(
      {Value::Integer(2), Value::Text("b"), Value::Real(2.0)});
  ASSERT_TRUE(table.Delete(a).ok());
  std::vector<Row> rows;
  ASSERT_TRUE(table
                  .Scan([&](RowId id, Row row) {
                    EXPECT_EQ(id, b);
                    rows.push_back(std::move(row));
                    return Status::OK();
                  })
                  .ok());
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0], Value::Integer(2));
}

// The slot, resurrect, update and delete cases run over both row
// stores: an in-memory table and a table over a paged heap must hand
// out the same RowIds and agree on slot_count, free_slot_count,
// live_row_count and scan order.
class StoreTableTest : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override {
    if (!GetParam()) {
      table_ = std::make_unique<Table>(MakeCarsSchema());
      return;
    }
    // A parameterized test's name has a '/'; keep the directory flat so
    // TearDown removes all of it.
    std::string name =
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::replace(name.begin(), name.end(), '/', '_');
    root_ = std::filesystem::temp_directory_path() /
            ("msql_table_" + std::to_string(::getpid()) + "_" + name);
    std::filesystem::remove_all(root_);
    StorageConfig config;
    config.root_dir = root_.string();
    config.buffer_pool_pages = 16;
    storage_ = std::make_unique<StorageManager>(config);
    ASSERT_TRUE(storage_->Open().ok());
    auto heap = storage_->CreateTableStorage("db", MakeCarsSchema());
    ASSERT_TRUE(heap.ok()) << heap.status();
    auto table = Table::Open(MakeCarsSchema(), *heap);
    ASSERT_TRUE(table.ok()) << table.status();
    table_ = std::move(*table);
  }
  void TearDown() override {
    table_.reset();
    storage_.reset();
    if (!root_.empty()) std::filesystem::remove_all(root_);
  }

  std::filesystem::path root_;
  std::unique_ptr<StorageManager> storage_;
  std::unique_ptr<Table> table_;
};

TEST_P(StoreTableTest, DeleteAndResurrectRoundTrip) {
  Table& table = *table_;
  RowId id = *table.Insert(
      {Value::Integer(7), Value::Text("van"), Value::Real(30.0)});
  auto removed = table.Delete(id);
  ASSERT_TRUE(removed.ok());
  EXPECT_FALSE(table.IsLive(id));
  EXPECT_EQ(table.live_row_count(), 0u);
  EXPECT_TRUE(ScanIds(table).empty());
  ASSERT_TRUE(table.ResurrectRow(id, *removed).ok());
  EXPECT_TRUE(table.IsLive(id));
  EXPECT_EQ(ReadOk(table, id)[0], Value::Integer(7));
  EXPECT_EQ(ScanIds(table), (std::vector<RowId>{id}));
  // Double resurrect is an internal error, and so is resurrecting a slot
  // that was never allocated.
  EXPECT_FALSE(table.ResurrectRow(id, *removed).ok());
  EXPECT_FALSE(table.ResurrectRow(table.slot_count(), *removed).ok());
  EXPECT_EQ(table.slot_count(), 1u);
  EXPECT_EQ(table.live_row_count(), 1u);
}

TEST_P(StoreTableTest, UpdateReturnsBeforeImage) {
  Table& table = *table_;
  RowId id = *table.Insert(
      {Value::Integer(1), Value::Text("suv"), Value::Real(40.0)});
  auto before = table.Update(
      id, {Value::Integer(1), Value::Text("suv"), Value::Real(44.0)});
  ASSERT_TRUE(before.ok());
  EXPECT_EQ((*before)[2], Value::Real(40.0));
  EXPECT_EQ(ReadOk(table, id)[2], Value::Real(44.0));
}

TEST_P(StoreTableTest, InsertReusesTombstonedSlots) {
  Table& table = *table_;
  std::vector<RowId> ids;
  for (int i = 0; i < 4; ++i) {
    ids.push_back(*table.Insert(
        {Value::Integer(i), Value::Text("t"), Value::Real(1.0)}));
  }
  EXPECT_EQ(table.slot_count(), 4u);
  ASSERT_TRUE(table.Delete(ids[1]).ok());
  ASSERT_TRUE(table.Delete(ids[3]).ok());
  EXPECT_EQ(table.free_slot_count(), 2u);
  EXPECT_EQ(ScanIds(table), (std::vector<RowId>{0, 2}));

  // The next insert takes the lowest tombstoned slot instead of growing
  // the slot array.
  RowId reused = *table.Insert(
      {Value::Integer(10), Value::Text("r"), Value::Real(2.0)});
  EXPECT_EQ(reused, ids[1]);
  EXPECT_EQ(table.slot_count(), 4u);
  EXPECT_EQ(table.free_slot_count(), 1u);
  RowId reused2 = *table.Insert(
      {Value::Integer(11), Value::Text("r"), Value::Real(2.0)});
  EXPECT_EQ(reused2, ids[3]);
  EXPECT_EQ(table.free_slot_count(), 0u);

  // Only once the free list drains does the table grow again.
  RowId grown = *table.Insert(
      {Value::Integer(12), Value::Text("g"), Value::Real(3.0)});
  EXPECT_EQ(grown, 4u);
  EXPECT_EQ(table.slot_count(), 5u);

  // Churning delete/insert in a loop must not leak slots.
  for (int i = 0; i < 100; ++i) {
    RowId id = *table.Insert(
        {Value::Integer(100 + i), Value::Text("x"), Value::Real(1.0)});
    ASSERT_TRUE(table.Delete(id).ok());
  }
  EXPECT_LE(table.slot_count(), 6u);
  EXPECT_EQ(table.live_row_count(), 5u);
  EXPECT_EQ(ScanIds(table), (std::vector<RowId>{0, 1, 2, 3, 4}));
  EXPECT_EQ(ReadOk(table, ids[1])[0], Value::Integer(10));
}

INSTANTIATE_TEST_SUITE_P(BothStores, StoreTableTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Heap" : "Vector";
                         });

TEST(ResultSetTest, ToStringRendersTable) {
  ResultSet rs;
  rs.columns = {"a", "longer"};
  rs.rows = {{Value::Integer(1), Value::Text("x")}};
  std::string rendered = rs.ToString();
  EXPECT_NE(rendered.find("| a | longer |"), std::string::npos);
  EXPECT_NE(rendered.find("(1 rows)"), std::string::npos);
}

TEST(ResultSetTest, DmlRendering) {
  ResultSet rs;
  rs.rows_affected = 3;
  EXPECT_EQ(rs.ToString(), "(3 rows affected)\n");
  EXPECT_FALSE(rs.IsQueryResult());
}

TEST(ResultSetTest, SortRowsIsDeterministic) {
  ResultSet rs;
  rs.columns = {"v"};
  rs.rows = {{Value::Integer(3)}, {Value::Integer(1)}, {Value::Integer(2)}};
  rs.SortRows();
  EXPECT_EQ(rs.rows[0][0], Value::Integer(1));
  EXPECT_EQ(rs.rows[2][0], Value::Integer(3));
}

}  // namespace
}  // namespace msql::relational
