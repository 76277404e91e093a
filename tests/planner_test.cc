// Local query planner: predicate pushdown, index probes inside joins,
// hash equi-joins, plan rendering, and scan/evaluation accounting.
// The naive cross-product executor survives behind
// LocalEngine::set_use_planner(false) as the semantics oracle; several
// tests here run both paths and require identical answers.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "relational/engine.h"

namespace msql::relational {
namespace {

class PlannerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    engine_ = std::make_unique<LocalEngine>(
        "svc", CapabilityProfile::IngresLike());
    ASSERT_TRUE(engine_->CreateDatabase("db").ok());
    session_ = *engine_->OpenSession("db");
  }

  ResultSet Exec(std::string_view sql) {
    auto result = engine_->Execute(session_, sql);
    EXPECT_TRUE(result.ok()) << sql << " -> " << result.status();
    return result.ok() ? std::move(*result) : ResultSet{};
  }

  /// Runs `sql` on the naive cross-product path, restoring the planner.
  ResultSet ExecNaive(std::string_view sql) {
    engine_->set_use_planner(false);
    ResultSet rs = Exec(sql);
    engine_->set_use_planner(true);
    return rs;
  }

  std::string Explain(std::string_view sql) {
    auto text = engine_->ExplainSql(session_, sql);
    EXPECT_TRUE(text.ok()) << sql << " -> " << text.status();
    return text.ok() ? *text : "";
  }

  /// The paper's flights/seats shape: a small airline schema with an
  /// equi-join and per-source predicates.
  void SeedFlights() {
    Exec("CREATE TABLE flights (fno INTEGER, dep TEXT, price REAL)");
    Exec("CREATE TABLE seats (fno INTEGER, class TEXT, avail INTEGER)");
    Exec("INSERT INTO flights VALUES (1, 'jfk', 150.0), (2, 'lax', 90.0),"
         " (3, 'jfk', 210.0), (4, 'ord', 120.0), (5, 'jfk', 75.0),"
         " (6, 'lax', 60.0)");
    Exec("INSERT INTO seats VALUES (1, 'y', 4), (1, 'f', 0), (2, 'y', 9),"
         " (3, 'y', 2), (3, 'f', 1), (4, 'y', 0), (5, 'y', 7),"
         " (6, 'f', 3)");
  }

  std::unique_ptr<LocalEngine> engine_;
  SessionId session_ = 0;
};

TEST_F(PlannerTest, GoldenExplainForPaperStyleJoin) {
  SeedFlights();
  std::string text = Explain(
      "SELECT f.fno, s.class FROM flights f, seats s "
      "WHERE f.fno = s.fno AND f.dep = 'jfk' AND s.avail > 0");
  EXPECT_EQ(text,
            "plan: 2 source(s), 2 pushed conjunct(s), 1 equi-join key(s)\n"
            "  source 0 (f): scan; filter f.dep = 'jfk'; est 1 row(s)\n"
            "  source 1 (s): scan; filter s.avail > 0; est 3 row(s)\n"
            "join order:\n"
            "  [0] start source 0 (f)\n"
            "  [1] hash join source 1 (s) on f.fno = s.fno\n");
}

TEST_F(PlannerTest, GoldenExplainWithIndexProbeAndFallback) {
  SeedFlights();
  Exec("CREATE INDEX idx_fno ON flights (fno)");
  std::string probed = Explain(
      "SELECT f.price, s.class FROM flights f, seats s "
      "WHERE f.fno = 3 AND s.fno = 3");
  EXPECT_EQ(probed,
            "plan: 2 source(s), 1 pushed conjunct(s), 0 equi-join key(s)\n"
            "  source 0 (f): index probe idx_fno [fno = 3]; est 1 row(s)\n"
            "  source 1 (s): scan; filter s.fno = 3; est 1 row(s)\n"
            "join order:\n"
            // Both sources estimate 1 row; with no equi-join edges the
            // tie breaks on source name ("f" < "s"), never FROM position.
            "  [0] start source 0 (f)\n"
            "  [1] nested loop source 1 (s)\n");
  // A WHERE naming an unknown column declines to plan; the naive path
  // owns the error surfacing.
  std::string fallback =
      Explain("SELECT f.fno FROM flights f WHERE ghost = 1");
  EXPECT_EQ(fallback,
            "plan: naive cross-product fallback (unresolved column "
            "'ghost' in WHERE)\n");
}

TEST_F(PlannerTest, JoinOrderTieBreaksByNameNotFromPosition) {
  // Both sources estimate the same row count and no equi-join edge
  // favors either, so the starting source is decided by name alone.
  // Before the fix the planner kept whichever source appeared first in
  // the FROM clause, so `FROM beta, alpha` started on beta.
  Exec("CREATE TABLE beta (x INTEGER)");
  Exec("CREATE TABLE alpha (x INTEGER)");
  Exec("INSERT INTO beta VALUES (1), (2)");
  Exec("INSERT INTO alpha VALUES (3), (4)");
  EXPECT_EQ(Explain("SELECT beta.x, alpha.x FROM beta, alpha"),
            "plan: 2 source(s), 0 pushed conjunct(s), 0 equi-join key(s)\n"
            "  source 0 (beta): scan; est 2 row(s)\n"
            "  source 1 (alpha): scan; est 2 row(s)\n"
            "join order:\n"
            "  [0] start source 1 (alpha)\n"
            "  [1] nested loop source 0 (beta)\n");
  // Permuting the FROM clause must not change the chosen anchor.
  EXPECT_EQ(Explain("SELECT beta.x, alpha.x FROM alpha, beta"),
            "plan: 2 source(s), 0 pushed conjunct(s), 0 equi-join key(s)\n"
            "  source 0 (alpha): scan; est 2 row(s)\n"
            "  source 1 (beta): scan; est 2 row(s)\n"
            "join order:\n"
            "  [0] start source 0 (alpha)\n"
            "  [1] nested loop source 1 (beta)\n");
  const std::string sql = "SELECT beta.x, alpha.x FROM beta, alpha";
  ResultSet planned = Exec(sql);
  ResultSet naive = ExecNaive(sql);
  EXPECT_EQ(planned, naive);  // reordering never leaks into the answer
}

TEST_F(PlannerTest, EmptySourceEstimatesClampToOneRow) {
  // Regression: an empty table used to estimate 0 rows, making it look
  // cost-free and letting `est 0 row(s)` propagate through join steps
  // that still scan the other side. Estimates clamp to >= 1 post-filter.
  Exec("CREATE TABLE empty_t (id INTEGER)");
  Exec("CREATE TABLE full_t (id INTEGER)");
  Exec("INSERT INTO full_t VALUES (1), (2), (3)");
  EXPECT_EQ(Explain("SELECT empty_t.id, full_t.id FROM full_t, empty_t "
                    "WHERE empty_t.id = full_t.id"),
            "plan: 2 source(s), 0 pushed conjunct(s), 1 equi-join key(s)\n"
            "  source 0 (full_t): scan; est 3 row(s)\n"
            "  source 1 (empty_t): scan; est 1 row(s)\n"
            "join order:\n"
            "  [0] start source 1 (empty_t)\n"
            "  [1] hash join source 0 (full_t) on empty_t.id = full_t.id\n");
  ResultSet planned = Exec(
      "SELECT empty_t.id, full_t.id FROM full_t, empty_t "
      "WHERE empty_t.id = full_t.id");
  EXPECT_TRUE(planned.rows.empty());
}

TEST_F(PlannerTest, PlannedJoinMatchesNaiveAnswerAndOrder) {
  SeedFlights();
  const std::string sql =
      "SELECT f.fno, f.price, s.class FROM flights f, seats s "
      "WHERE f.fno = s.fno AND s.avail > 0 AND f.price < 200.0";
  ResultSet planned = Exec(sql);
  ResultSet naive = ExecNaive(sql);
  EXPECT_EQ(planned, naive);  // identical rows in identical order
  EXPECT_GT(naive.rows_evaluated, planned.rows_evaluated);
}

TEST_F(PlannerTest, DuplicateJoinKeysPreserveCrossProductOrder) {
  // Multiple matches on both sides: the hash join must reproduce the
  // odometer's FROM-major row order, not hash-bucket order.
  Exec("CREATE TABLE l (k INTEGER, tag TEXT)");
  Exec("CREATE TABLE r (k INTEGER, tag TEXT)");
  Exec("INSERT INTO l VALUES (1, 'l1'), (2, 'l2'), (1, 'l3'), (2, 'l4')");
  Exec("INSERT INTO r VALUES (2, 'r1'), (1, 'r2'), (1, 'r3')");
  const std::string sql =
      "SELECT l.tag, r.tag FROM l, r WHERE l.k = r.k";
  ResultSet planned = Exec(sql);
  ResultSet naive = ExecNaive(sql);
  ASSERT_EQ(planned.rows.size(), 6u);
  EXPECT_EQ(planned, naive);
}

TEST_F(PlannerTest, IndexProbeWorksInMultiTableSelect) {
  // Regression for the old `stmt.from.size() == 1` gate: creating an
  // index on the filtered table must cut rows_scanned even when the
  // SELECT joins another table.
  Exec("CREATE TABLE big (id INTEGER, v REAL)");
  std::string insert = "INSERT INTO big VALUES ";
  for (int i = 0; i < 100; ++i) {
    if (i > 0) insert += ", ";
    insert += "(" + std::to_string(i) + ", " + std::to_string(i) + ".5)";
  }
  Exec(insert);
  Exec("CREATE TABLE u (k INTEGER)");
  Exec("INSERT INTO u VALUES (7), (8), (9), (10)");

  const std::string sql =
      "SELECT big.v, u.k FROM big, u WHERE big.id = 7 AND big.id = u.k";
  ResultSet unindexed = Exec(sql);
  EXPECT_EQ(unindexed.rows_scanned, 104);
  Exec("CREATE INDEX idx_id ON big (id)");
  ResultSet indexed = Exec(sql);
  EXPECT_EQ(indexed.rows_scanned, 1 + 4);  // probe big, scan u
  EXPECT_LT(indexed.rows_scanned, unindexed.rows_scanned);
  EXPECT_EQ(indexed, unindexed);
  ASSERT_EQ(indexed.rows.size(), 1u);
}

TEST_F(PlannerTest, ViewScansIncludeRecursiveBaseTableCost) {
  Exec("CREATE TABLE t (id INTEGER, v REAL)");
  std::string insert = "INSERT INTO t VALUES ";
  for (int i = 0; i < 100; ++i) {
    if (i > 0) insert += ", ";
    insert += "(" + std::to_string(i) + ", 1.0)";
  }
  Exec(insert);
  Exec("CREATE VIEW allt AS SELECT id, v FROM t");
  // 100 base rows scanned to materialize the view + 100 view rows
  // scanned by the outer SELECT. The old accounting dropped the
  // recursive half and reported 100.
  EXPECT_EQ(Exec("SELECT id FROM allt").rows_scanned, 200);
  EXPECT_EQ(ExecNaive("SELECT id FROM allt").rows_scanned, 200);
}

TEST_F(PlannerTest, NullJoinKeysNeverMatch) {
  Exec("CREATE TABLE l (k INTEGER)");
  Exec("CREATE TABLE r (k INTEGER)");
  Exec("INSERT INTO l VALUES (1), (NULL), (2)");
  Exec("INSERT INTO r VALUES (NULL), (1), (1)");
  const std::string sql = "SELECT l.k, r.k FROM l, r WHERE l.k = r.k";
  ResultSet planned = Exec(sql);
  ResultSet naive = ExecNaive(sql);
  EXPECT_EQ(planned.rows.size(), 2u);  // 1 matches twice; NULLs never
  EXPECT_EQ(planned, naive);
}

TEST_F(PlannerTest, ThreeWayEquiChainCollapsesRowsEvaluated) {
  for (const char* name : {"t1", "t2", "t3"}) {
    Exec("CREATE TABLE " + std::string(name) + " (id INTEGER, v REAL)");
    std::string insert = "INSERT INTO " + std::string(name) + " VALUES ";
    for (int i = 0; i < 20; ++i) {
      if (i > 0) insert += ", ";
      insert += "(" + std::to_string(i) + ", " + std::to_string(i) + ".0)";
    }
    Exec(insert);
  }
  const std::string sql =
      "SELECT t1.id, t3.v FROM t1, t2, t3 "
      "WHERE t1.id = t2.id AND t2.id = t3.id";
  ResultSet planned = Exec(sql);
  ResultSet naive = ExecNaive(sql);
  ASSERT_EQ(planned.rows.size(), 20u);
  EXPECT_EQ(planned, naive);
  EXPECT_EQ(naive.rows_evaluated, 20 * 20 * 20);
  // Hash steps touch only genuine key matches: 20 candidates per step.
  EXPECT_LE(planned.rows_evaluated, 2 * 20);
  EXPECT_GE(naive.rows_evaluated, 10 * planned.rows_evaluated);
}

TEST_F(PlannerTest, AggregatesAndDistinctAgreeWithNaivePath) {
  SeedFlights();
  for (const char* sql :
       {"SELECT DISTINCT f.dep FROM flights f, seats s "
        "WHERE f.fno = s.fno ORDER BY f.dep",
        "SELECT f.dep, COUNT(*), MIN(s.avail) FROM flights f, seats s "
        "WHERE f.fno = s.fno GROUP BY f.dep ORDER BY f.dep",
        "SELECT COUNT(*) FROM flights f, seats s "
        "WHERE f.fno = s.fno AND s.avail > (SELECT MIN(avail) FROM "
        "seats)"}) {
    ResultSet planned = Exec(sql);
    ResultSet naive = ExecNaive(sql);
    EXPECT_EQ(planned, naive) << sql;
  }
}

TEST_F(PlannerTest, FallbackErrorsMatchNaiveErrors) {
  SeedFlights();
  const std::string sql =
      "SELECT f.fno FROM flights f, seats s WHERE ghost = 1";
  auto planned = engine_->Execute(session_, sql);
  engine_->set_use_planner(false);
  auto naive = engine_->Execute(session_, sql);
  engine_->set_use_planner(true);
  ASSERT_FALSE(planned.ok());
  ASSERT_FALSE(naive.ok());
  EXPECT_EQ(planned.status().ToString(), naive.status().ToString());
}

TEST_F(PlannerTest, ExplainRefusesInsertAndDdl) {
  SeedFlights();
  for (const char* sql : {"INSERT INTO flights VALUES (7, 'sfo', 1.0)",
                          "CREATE INDEX idx_dep ON flights (dep)"}) {
    auto text = engine_->ExplainSql(session_, sql);
    EXPECT_FALSE(text.ok()) << sql;
    EXPECT_EQ(text.status().code(), StatusCode::kInvalidArgument) << sql;
  }
}

TEST_F(PlannerTest, GoldenExplainForRangeProbe) {
  SeedFlights();
  Exec("CREATE INDEX idx_fno ON flights (fno)");
  // Strict INTEGER bounds tighten to inclusive ones, either operand
  // order merges into one range, and the range conjuncts stay filters.
  EXPECT_EQ(Explain("SELECT f.dep FROM flights f "
                    "WHERE f.fno > 1 AND 5 > f.fno AND f.fno <= 9"),
            "plan: 1 source(s), 3 pushed conjunct(s), 0 equi-join key(s)\n"
            "  source 0 (f): index range idx_fno [fno >= 2 AND fno <= 4]; "
            "filter f.fno > 1; filter 5 > f.fno; filter f.fno <= 9; "
            "est 1 row(s)\n"
            "join order:\n"
            "  [0] start source 0 (f)\n");
  // One-sided; a bound that does not coerce losslessly to INTEGER is
  // not used.
  EXPECT_EQ(Explain("SELECT dep FROM flights WHERE fno >= 2.5 AND fno < 4"),
            "plan: 1 source(s), 2 pushed conjunct(s), 0 equi-join key(s)\n"
            "  source 0 (flights): index range idx_fno [fno <= 3]; "
            "filter fno >= 2.5; filter fno < 4; est 1 row(s)\n"
            "join order:\n"
            "  [0] start source 0 (flights)\n");
  // Equality wins over a range; a NULL literal never probes.
  EXPECT_EQ(Explain("SELECT dep FROM flights WHERE fno > 1 AND fno = 3.0"),
            "plan: 1 source(s), 1 pushed conjunct(s), 0 equi-join key(s)\n"
            "  source 0 (flights): index probe idx_fno [fno = 3]; "
            "filter fno > 1; est 1 row(s)\n"
            "join order:\n"
            "  [0] start source 0 (flights)\n");
  EXPECT_EQ(Explain("SELECT dep FROM flights WHERE fno = NULL"),
            "plan: 1 source(s), 1 pushed conjunct(s), 0 equi-join key(s)\n"
            "  source 0 (flights): scan; filter fno = NULL; est 1 row(s)\n"
            "join order:\n"
            "  [0] start source 0 (flights)\n");
}

TEST_F(PlannerTest, GoldenExplainForUpdateAndDelete) {
  SeedFlights();
  EXPECT_EQ(Explain("UPDATE flights SET price = price * 1.1 WHERE fno = 3"),
            "plan: update flights: scan; filter fno = 3\n");
  Exec("CREATE INDEX idx_fno ON flights (fno)");
  EXPECT_EQ(Explain("UPDATE flights SET price = price * 1.1 WHERE fno = 3"),
            "plan: update flights: index probe idx_fno [fno = 3]; "
            "filter fno = 3\n");
  EXPECT_EQ(Explain("DELETE FROM flights WHERE fno >= 2 AND dep = 'jfk'"),
            "plan: delete flights: index range idx_fno [fno >= 2]; "
            "filter fno >= 2 AND dep = 'jfk'\n");
  EXPECT_EQ(Explain("DELETE FROM flights"), "plan: delete flights: scan\n");
  // A WHERE naming a column outside the target scans, so the evaluator
  // reports the error exactly as an unindexed table would.
  EXPECT_EQ(Explain("DELETE FROM flights WHERE fno = 3 AND ghost = 1"),
            "plan: delete flights: scan; filter fno = 3 AND ghost = 1\n");
  // So does a conjunct that can fail on some row (TEXT vs INTEGER,
  // division, a built-in call on the wrong argument class) in either
  // position: a probe would skip the rows on which the scan raises it.
  EXPECT_EQ(Explain("DELETE FROM flights WHERE dep > 3 AND fno = 3"),
            "plan: delete flights: scan; filter dep > 3 AND fno = 3\n");
  EXPECT_EQ(Explain("UPDATE flights SET price = 1.0 "
                    "WHERE fno = 3 AND price / 0 > 1"),
            "plan: update flights: scan; filter fno = 3 AND price / 0 > 1\n");
  EXPECT_EQ(Explain("DELETE FROM flights WHERE fno = 3 AND LENGTH(fno) = 3"),
            "plan: delete flights: scan; "
            "filter fno = 3 AND LENGTH(fno) = 3\n");
  EXPECT_EQ(Explain("UPDATE flights SET price = 1.0 "
                    "WHERE LENGTH(fno) = 3 AND fno = 3"),
            "plan: update flights: scan; "
            "filter LENGTH(fno) = 3 AND fno = 3\n");
  // A built-in call of the right arity on the right argument classes
  // cannot fail, so it probes like any well-typed conjunct.
  EXPECT_EQ(Explain("DELETE FROM flights WHERE fno = 3 AND LENGTH(dep) = 3"),
            "plan: delete flights: index probe idx_fno [fno = 3]; "
            "filter fno = 3 AND LENGTH(dep) = 3\n");
  EXPECT_EQ(Explain("UPDATE flights SET price = 1.0 WHERE "
                    "UPPER(dep) = 'JFK' AND fno = 3 AND ROUND(price, 1) > 1"),
            "plan: update flights: index probe idx_fno [fno = 3]; "
            "filter UPPER(dep) = 'JFK' AND fno = 3 AND ROUND(price, 1) > 1\n");
  // Well-typed conjuncts still probe.
  EXPECT_EQ(Explain("DELETE FROM flights WHERE fno = 3 AND dep LIKE 'j%' "
                    "AND price + 1 > 2 AND dep IN ('jfk', NULL)"),
            "plan: delete flights: index probe idx_fno [fno = 3]; "
            "filter fno = 3 AND dep LIKE 'j%' AND price + 1 > 2 AND "
            "(dep IN ('jfk', NULL))\n");
  // A REAL key past INTEGER's range, or an INTEGER key at or past 2^53
  // where Value::Compare loses precision, is no bound.
  EXPECT_EQ(Explain("DELETE FROM flights WHERE fno < 1e19"),
            "plan: delete flights: scan; filter fno < 1e+19\n");
  EXPECT_EQ(Explain("DELETE FROM flights WHERE fno = 9007199254740992"),
            "plan: delete flights: scan; filter fno = 9007199254740992\n");
  EXPECT_EQ(Explain("DELETE FROM flights WHERE fno >= -9007199254740991"),
            "plan: delete flights: index range idx_fno "
            "[fno >= -9007199254740991]; filter fno >= -9007199254740991\n");
}

TEST_F(PlannerTest, TypedBuiltinCallsKeepTheProbe) {
  Exec("CREATE TABLE people (id INTEGER, name TEXT)");
  Exec("INSERT INTO people VALUES (1, 'ann'), (5, 'bob'), (7, 'carol'), "
       "(9, 'dan')");
  Exec("CREATE INDEX people_id ON people (id)");
  for (bool planner : {true, false}) {
    engine_->set_use_planner(planner);
    ResultSet rs = Exec("SELECT name FROM people WHERE id = 5 AND "
                        "LENGTH(name) = 3");
    ASSERT_EQ(rs.rows.size(), 1u);
    EXPECT_EQ(rs.rows[0][0], Value::Text("bob"));
    EXPECT_EQ(rs.rows_scanned, 1);  // the probe fetched one row
    auto wrong = engine_->Execute(
        session_, "SELECT name FROM people WHERE id = 5 AND LENGTH(id) = 3");
    ASSERT_FALSE(wrong.ok());
    EXPECT_EQ(wrong.status().message(), "LENGTH requires a text argument");
  }
  engine_->set_use_planner(true);
}

TEST_F(PlannerTest, EveryProbeIsCounted) {
  SeedFlights();
  Exec("CREATE INDEX idx_fno ON flights (fno)");
  obs::Tracer tracer;
  obs::MetricsRegistry metrics;
  metrics.set_enabled(true);
  engine_->SetObservability(&tracer, &metrics);
  Exec("SELECT dep FROM flights WHERE fno = 2");
  Exec("SELECT COUNT(*) FROM flights WHERE fno >= 2 AND fno < 5");
  Exec("UPDATE flights SET price = 1.0 WHERE fno = 4");
  Exec("DELETE FROM flights WHERE fno > 5");
  ExecNaive("SELECT dep FROM flights WHERE fno <= 2");
  Exec("SELECT dep FROM flights WHERE dep = 'jfk'");  // scan: not counted
  EXPECT_EQ(metrics.Get("sql.index_probes"), 5);
  engine_->SetObservability(nullptr, nullptr);
}

TEST_F(PlannerTest, PlanTextTravelsWithResultWhenCollected) {
  SeedFlights();
  EXPECT_TRUE(Exec("SELECT fno FROM flights").plan_text.empty());
  engine_->set_collect_plan_text(true);
  ResultSet rs = Exec(
      "SELECT f.fno FROM flights f, seats s WHERE f.fno = s.fno");
  EXPECT_NE(rs.plan_text.find("hash join"), std::string::npos);
  // The wire format must not grow: plan text is diagnostics only.
  ResultSet bare = rs;
  bare.plan_text.clear();
  EXPECT_EQ(bare, rs);
}

}  // namespace
}  // namespace msql::relational
