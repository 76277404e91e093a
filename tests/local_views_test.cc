// Local (LDBS-level) views and the IMPORT VIEW path of the §3.1
// grammar: schema inference, materialization, DDL undo, and export to
// the multidatabase level.
#include <gtest/gtest.h>

#include <memory>

#include "core/mdbs_system.h"
#include "relational/engine.h"
#include "relational/binder.h"
#include "relational/sql/parser.h"

namespace msql::relational {
namespace {

class LocalViewsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    engine_ = std::make_unique<LocalEngine>(
        "svc", CapabilityProfile::IngresLike());
    ASSERT_TRUE(engine_->CreateDatabase("db").ok());
    session_ = *engine_->OpenSession("db");
    Exec("CREATE TABLE cars (code INTEGER, cartype TEXT, rate REAL, "
         "carst TEXT)");
    Exec("INSERT INTO cars VALUES (1, 'suv', 40.0, 'available'), "
         "(2, 'van', 30.0, 'rented'), (3, 'suv', 55.0, 'available')");
  }

  ResultSet Exec(std::string_view sql) {
    auto result = engine_->Execute(session_, sql);
    EXPECT_TRUE(result.ok()) << sql << " -> " << result.status();
    return result.ok() ? std::move(*result) : ResultSet{};
  }

  std::unique_ptr<LocalEngine> engine_;
  SessionId session_ = 0;
};

TEST_F(LocalViewsTest, CreateScanDrop) {
  Exec("CREATE VIEW avail AS SELECT code, rate FROM cars "
       "WHERE carst = 'available'");
  ResultSet rs = Exec("SELECT * FROM avail ORDER BY code");
  EXPECT_EQ(rs.columns, (std::vector<std::string>{"code", "rate"}));
  ASSERT_EQ(rs.rows.size(), 2u);
  EXPECT_EQ(rs.rows[1][0], Value::Integer(3));
  Exec("DROP VIEW avail");
  EXPECT_FALSE(engine_->Execute(session_, "SELECT * FROM avail").ok());
}

TEST_F(LocalViewsTest, ViewReflectsBaseTableChanges) {
  Exec("CREATE VIEW avail AS SELECT code FROM cars "
       "WHERE carst = 'available'");
  EXPECT_EQ(Exec("SELECT COUNT(*) FROM avail").rows[0][0],
            Value::Integer(2));
  Exec("UPDATE cars SET carst = 'available' WHERE code = 2");
  EXPECT_EQ(Exec("SELECT COUNT(*) FROM avail").rows[0][0],
            Value::Integer(3));
}

TEST_F(LocalViewsTest, ViewJoinsAndFilters) {
  Exec("CREATE VIEW suvs AS SELECT code, rate FROM cars "
       "WHERE cartype = 'suv'");
  // A view can join against a base table.
  ResultSet rs = Exec(
      "SELECT suvs.code FROM suvs, cars "
      "WHERE suvs.code = cars.code AND cars.carst = 'available' "
      "ORDER BY suvs.code");
  ASSERT_EQ(rs.rows.size(), 2u);
  // And the outer query can aggregate over it.
  EXPECT_EQ(Exec("SELECT MAX(rate) FROM suvs").rows[0][0],
            Value::Real(55.0));
}

TEST_F(LocalViewsTest, ViewWithComputedColumns) {
  Exec("CREATE VIEW pricing AS SELECT code, rate * 2 AS weekend_rate, "
       "COUNT(*) AS n FROM cars GROUP BY code, rate");
  ResultSet rs = Exec("SELECT weekend_rate FROM pricing WHERE code = 1");
  ASSERT_EQ(rs.rows.size(), 1u);
  EXPECT_EQ(rs.rows[0][0], Value::Real(80.0));
}

TEST_F(LocalViewsTest, ViewsAreReadOnly) {
  Exec("CREATE VIEW avail AS SELECT code FROM cars");
  EXPECT_FALSE(
      engine_->Execute(session_, "UPDATE avail SET code = 9").ok());
  EXPECT_FALSE(
      engine_->Execute(session_, "DELETE FROM avail").ok());
  EXPECT_FALSE(
      engine_->Execute(session_, "INSERT INTO avail VALUES (9)").ok());
}

TEST_F(LocalViewsTest, NameCollisionsRejected) {
  EXPECT_FALSE(engine_
                   ->Execute(session_,
                             "CREATE VIEW cars AS SELECT code FROM cars")
                   .ok());
  Exec("CREATE VIEW v AS SELECT code FROM cars");
  EXPECT_FALSE(engine_
                   ->Execute(session_,
                             "CREATE VIEW v AS SELECT rate FROM cars")
                   .ok());
  EXPECT_FALSE(engine_
                   ->Execute(session_,
                             "CREATE TABLE v (x INTEGER)")
                   .ok());
}

TEST_F(LocalViewsTest, BrokenDefinitionRejectedAtCreation) {
  EXPECT_FALSE(engine_
                   ->Execute(session_,
                             "CREATE VIEW bad AS SELECT ghost FROM cars")
                   .ok());
  EXPECT_FALSE(engine_
                   ->Execute(session_,
                             "CREATE VIEW bad AS SELECT code FROM ghost")
                   .ok());
}

TEST_F(LocalViewsTest, ViewDdlRollsBackOnIngresLikeEngines) {
  ASSERT_TRUE(engine_->Begin(session_).ok());
  Exec("CREATE VIEW v AS SELECT code FROM cars");
  ASSERT_TRUE(engine_->Rollback(session_).ok());
  EXPECT_FALSE(engine_->Execute(session_, "SELECT * FROM v").ok());

  Exec("CREATE VIEW v AS SELECT code FROM cars");
  ASSERT_TRUE(engine_->Begin(session_).ok());
  Exec("DROP VIEW v");
  ASSERT_TRUE(engine_->Rollback(session_).ok());
  EXPECT_TRUE(engine_->Execute(session_, "SELECT * FROM v").ok());
}

TEST_F(LocalViewsTest, DescribeViewInfersSchema) {
  Exec("CREATE VIEW pricing AS SELECT code, rate * 2 AS wk, "
       "UPPER(cartype) AS ty, COUNT(*) AS n FROM cars "
       "GROUP BY code, rate, cartype");
  auto schema = engine_->DescribeView("db", "pricing");
  ASSERT_TRUE(schema.ok()) << schema.status();
  ASSERT_EQ(schema->num_columns(), 4u);
  EXPECT_EQ(schema->column(0).type, Type::kInteger);  // code
  EXPECT_EQ(schema->column(1).type, Type::kReal);     // rate * 2
  EXPECT_EQ(schema->column(2).type, Type::kText);     // UPPER(...)
  EXPECT_EQ(schema->column(3).type, Type::kInteger);  // COUNT(*)
}

TEST(SchemaInferTest, ExpressionTypes) {
  auto schema = *TableSchema::Create(
      "t", {{"i", Type::kInteger, 0}, {"r", Type::kReal, 0},
            {"s", Type::kText, 0}});
  SchemaResolver resolve =
      [&](std::string_view) -> Result<const TableSchema*> {
    return &schema;
  };
  auto infer = [&](const std::string& items) {
    auto stmt = ParseSql("SELECT " + items + " FROM t");
    EXPECT_TRUE(stmt.ok()) << stmt.status();
    return InferSelectSchema(
        "v", static_cast<const SelectStmt&>(**stmt), resolve);
  };
  auto s1 = infer("i + i, i + r, i = r, NOT (i = r), s LIKE 'x%'");
  ASSERT_TRUE(s1.ok()) << s1.status();
  EXPECT_EQ(s1->column(0).type, Type::kInteger);
  EXPECT_EQ(s1->column(1).type, Type::kReal);
  EXPECT_EQ(s1->column(2).type, Type::kBoolean);
  EXPECT_EQ(s1->column(3).type, Type::kBoolean);
  EXPECT_EQ(s1->column(4).type, Type::kBoolean);

  auto s2 = infer("SUM(i), AVG(i), MIN(s), LENGTH(s), "
                  "(SELECT MAX(r) FROM t)");
  ASSERT_TRUE(s2.ok()) << s2.status();
  EXPECT_EQ(s2->column(0).type, Type::kInteger);
  EXPECT_EQ(s2->column(1).type, Type::kReal);
  EXPECT_EQ(s2->column(2).type, Type::kText);
  EXPECT_EQ(s2->column(3).type, Type::kInteger);
  EXPECT_EQ(s2->column(4).type, Type::kReal);

  auto star = infer("*");
  ASSERT_TRUE(star.ok());
  EXPECT_EQ(star->num_columns(), 3u);

  EXPECT_FALSE(infer("ghost").ok());
}

// --- IMPORT VIEW end to end --------------------------------------------------

TEST(ImportViewTest, ViewExportsToTheFederation) {
  core::MultidatabaseSystem sys;
  ASSERT_TRUE(
      sys.AddService("svc", "site1", CapabilityProfile::IngresLike()).ok());
  auto engine = *sys.GetEngine("svc");
  ASSERT_TRUE(engine->CreateDatabase("d").ok());
  ASSERT_TRUE(sys.RunLocalSql(
                     "svc", "d",
                     "CREATE TABLE secret (id INTEGER, who TEXT, "
                     "salary REAL);"
                     "INSERT INTO secret VALUES (1, 'ann', 10.0), "
                     "(2, 'bob', 20.0);"
                     "CREATE VIEW pub AS SELECT id, who FROM secret")
                  .ok());
  ASSERT_TRUE(sys.Execute("INCORPORATE SERVICE svc SITE site1 CONNECTMODE "
                          "CONNECT COMMITMODE NOCOMMIT CREATE NOCOMMIT "
                          "INSERT NOCOMMIT DROP NOCOMMIT")
                  .ok());
  // Import only the public view — not the secret base table.
  ASSERT_TRUE(
      sys.Execute("IMPORT DATABASE d FROM SERVICE svc VIEW pub").ok());
  EXPECT_TRUE(sys.gdd().HasTable("d", "pub"));
  EXPECT_FALSE(sys.gdd().HasTable("d", "secret"));

  // Multidatabase queries read through the view.
  auto report = sys.Execute("USE d SELECT who FROM pub WHERE id = 2");
  ASSERT_TRUE(report.ok()) << report.status();
  ASSERT_EQ(report->multitable.size(), 1u);
  ASSERT_EQ(report->multitable.elements[0].table.rows.size(), 1u);
  EXPECT_EQ(report->multitable.elements[0].table.rows[0][0],
            Value::Text("bob"));

  // Partial view import.
  ASSERT_TRUE(sys.Execute("IMPORT DATABASE d FROM SERVICE svc VIEW pub "
                          "COLUMN id")
                  .ok());
  EXPECT_EQ((*sys.gdd().GetTable("d", "pub"))->num_columns(), 1u);

  // Unknown view fails.
  EXPECT_FALSE(
      sys.Execute("IMPORT DATABASE d FROM SERVICE svc VIEW ghost").ok());
}

}  // namespace
}  // namespace msql::relational
