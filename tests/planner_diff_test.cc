// Differential property test for the local planner: randomized schemas,
// data and queries run on two identically-seeded engines — one with the
// planner (pushdown, probes, hash joins), one on the naive
// cross-product oracle. Every query must produce identical rows in
// identical order, and the two paths must agree on whether the query
// succeeds at all.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "relational/engine.h"

namespace msql::relational {
namespace {

struct Engines {
  std::unique_ptr<LocalEngine> planned;
  std::unique_ptr<LocalEngine> naive;
  SessionId planned_session = 0;
  SessionId naive_session = 0;

  void Exec(const std::string& sql) {
    auto a = planned->Execute(planned_session, sql);
    auto b = naive->Execute(naive_session, sql);
    ASSERT_TRUE(a.ok()) << sql << " -> " << a.status();
    ASSERT_TRUE(b.ok()) << sql << " -> " << b.status();
  }
};

/// Builds the two engines with an identical randomized schema + data:
/// 2-3 tables named t0.. with columns (k INTEGER, g TEXT, v REAL),
/// NULLs sprinkled into every column, and random single-column indexes.
void BuildFederatedPair(Rng* rng, Engines* out, int* num_tables) {
  out->planned = std::make_unique<LocalEngine>(
      "p", CapabilityProfile::IngresLike());
  out->naive = std::make_unique<LocalEngine>(
      "n", CapabilityProfile::IngresLike());
  out->naive->set_use_planner(false);
  ASSERT_TRUE(out->planned->CreateDatabase("db").ok());
  ASSERT_TRUE(out->naive->CreateDatabase("db").ok());
  out->planned_session = *out->planned->OpenSession("db");
  out->naive_session = *out->naive->OpenSession("db");

  *num_tables = static_cast<int>(rng->NextInRange(2, 3));
  for (int t = 0; t < *num_tables; ++t) {
    std::string name = "t" + std::to_string(t);
    out->Exec("CREATE TABLE " + name + " (k INTEGER, g TEXT, v REAL)");
    int rows = static_cast<int>(rng->NextInRange(0, 24));
    if (rows > 0) {
      std::string insert = "INSERT INTO " + name + " VALUES ";
      for (int r = 0; r < rows; ++r) {
        if (r > 0) insert += ", ";
        std::string k = rng->NextBool(0.15)
                            ? "NULL"
                            : std::to_string(rng->NextInRange(0, 6));
        std::string g =
            rng->NextBool(0.15)
                ? "NULL"
                : "'g" + std::to_string(rng->NextInRange(0, 3)) + "'";
        std::string v = rng->NextBool(0.15)
                            ? "NULL"
                            : std::to_string(rng->NextInRange(0, 9)) + ".5";
        insert += "(" + k + ", " + g + ", " + v + ")";
      }
      out->Exec(insert);
    }
    if (rng->NextBool(0.5)) {
      const char* col = rng->NextBool(0.5) ? "k" : "g";
      out->Exec("CREATE INDEX idx_" + name + "_" + col + " ON " + name +
                " (" + col + ")");
    }
  }
}

/// One random conjunct over the aliased tables a0..a{n-1}: equi joins,
/// pushable comparisons (indexable `= literal` included), non-pushable
/// cross-source comparisons, OR-of-equalities, IS NULL and LIKE.
std::string RandomConjunct(Rng* rng, int num_tables) {
  auto alias = [&](int t) { return "a" + std::to_string(t); };
  int t1 = static_cast<int>(rng->NextBelow(num_tables));
  int t2 = static_cast<int>(rng->NextBelow(num_tables));
  switch (rng->NextBelow(7)) {
    case 0:
      return alias(t1) + ".k = " + alias(t2) + ".k";
    case 1:
      return alias(t1) + ".k = " +
             std::to_string(rng->NextInRange(0, 6));
    case 2:
      return alias(t1) + ".g = 'g" +
             std::to_string(rng->NextInRange(0, 3)) + "'";
    case 3:
      return alias(t1) + ".v > " + alias(t2) + ".v";
    case 4:
      return "(" + alias(t1) + ".k = " +
             std::to_string(rng->NextInRange(0, 3)) + " OR " + alias(t1) +
             ".k = " + std::to_string(rng->NextInRange(3, 6)) + ")";
    case 5:
      return alias(t1) + ".k IS NOT NULL";
    default:
      return alias(t1) + ".g LIKE 'g%'";
  }
}

/// One random query over `num_tables` aliased sources.
std::string RandomQuery(Rng* rng, int num_tables) {
  int from_count = static_cast<int>(rng->NextInRange(1, num_tables));
  std::string from;
  for (int t = 0; t < from_count; ++t) {
    if (t > 0) from += ", ";
    from += "t" + std::to_string(t) + " a" + std::to_string(t);
  }

  bool grouped = rng->NextBool(0.25);
  std::string sql = "SELECT ";
  if (!grouped && rng->NextBool(0.3)) sql += "DISTINCT ";
  if (grouped) {
    sql += "a0.g, COUNT(*), COUNT(a0.k), AVG(a0.v) ";
  } else {
    sql += "a0.k, a0.g";
    if (from_count > 1) sql += ", a1.k, a1.v";
    sql += " ";
  }
  sql += "FROM " + from;

  int conjuncts = static_cast<int>(rng->NextInRange(0, 3));
  for (int c = 0; c < conjuncts; ++c) {
    sql += (c == 0 ? " WHERE " : " AND ");
    sql += RandomConjunct(rng, from_count);
  }
  if (grouped) {
    sql += " GROUP BY a0.g";
    if (rng->NextBool(0.5)) sql += " ORDER BY a0.g";
  } else if (rng->NextBool(0.4)) {
    sql += " ORDER BY a0.k";
  }
  return sql;
}

TEST(PlannerDiffTest, PlannedAndNaivePathsAgreeOnRandomizedWorkload) {
  constexpr int kSeeds = 25;
  constexpr int kQueriesPerSeed = 16;
  for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
    Rng rng(seed * 0x51ed2701);
    Engines engines;
    int num_tables = 0;
    BuildFederatedPair(&rng, &engines, &num_tables);
    if (::testing::Test::HasFatalFailure()) return;
    for (int q = 0; q < kQueriesPerSeed; ++q) {
      std::string sql = RandomQuery(&rng, num_tables);
      auto planned =
          engines.planned->Execute(engines.planned_session, sql);
      auto naive = engines.naive->Execute(engines.naive_session, sql);
      ASSERT_EQ(planned.ok(), naive.ok())
          << "seed " << seed << ": " << sql << "\nplanned: "
          << planned.status() << "\nnaive: " << naive.status();
      if (!planned.ok()) continue;
      // Row for row, in order: probes fetch in RowId order and the join
      // restores the naive odometer order, so even output the query
      // does not ORDER must match.
      EXPECT_EQ(*planned, *naive) << "seed " << seed << ": " << sql;
    }
  }
}

TEST(PlannerDiffTest, EmptyTablesAgreeAndNeverEstimateZeroRows) {
  // Regression for the 0-row estimate bug: all-empty sources must still
  // plan (estimates clamp to >= 1), agree with the naive oracle, and
  // EXPLAIN must never advertise a cost-free `est 0 row(s)` source.
  Engines engines;
  engines.planned = std::make_unique<LocalEngine>(
      "p", CapabilityProfile::IngresLike());
  engines.naive = std::make_unique<LocalEngine>(
      "n", CapabilityProfile::IngresLike());
  engines.naive->set_use_planner(false);
  ASSERT_TRUE(engines.planned->CreateDatabase("db").ok());
  ASSERT_TRUE(engines.naive->CreateDatabase("db").ok());
  engines.planned_session = *engines.planned->OpenSession("db");
  engines.naive_session = *engines.naive->OpenSession("db");
  for (int t = 0; t < 3; ++t) {
    engines.Exec("CREATE TABLE t" + std::to_string(t) +
                 " (k INTEGER, g TEXT, v REAL)");
  }
  if (::testing::Test::HasFatalFailure()) return;

  Rng rng(0x19930721);
  for (int q = 0; q < 32; ++q) {
    std::string sql = RandomQuery(&rng, 3);
    auto planned = engines.planned->Execute(engines.planned_session, sql);
    auto naive = engines.naive->Execute(engines.naive_session, sql);
    ASSERT_EQ(planned.ok(), naive.ok()) << sql;
    if (!planned.ok()) continue;
    planned->SortRows();
    naive->SortRows();
    EXPECT_EQ(*planned, *naive) << sql;
    auto text = engines.planned->ExplainSql(engines.planned_session, sql);
    ASSERT_TRUE(text.ok()) << sql;
    EXPECT_EQ(text->find("est 0 row(s)"), std::string::npos)
        << sql << "\n" << *text;
  }
}

TEST(PlannerDiffTest, PlannedPathNeverScansMoreThanNaive) {
  // rows_scanned on the planned path is bounded by the naive path's:
  // probes can only shrink the fetch, never grow it.
  for (uint64_t seed = 100; seed < 110; ++seed) {
    Rng rng(seed);
    Engines engines;
    int num_tables = 0;
    BuildFederatedPair(&rng, &engines, &num_tables);
    if (::testing::Test::HasFatalFailure()) return;
    for (int q = 0; q < 8; ++q) {
      std::string sql = RandomQuery(&rng, num_tables);
      auto planned =
          engines.planned->Execute(engines.planned_session, sql);
      auto naive = engines.naive->Execute(engines.naive_session, sql);
      if (!planned.ok() || !naive.ok()) continue;
      EXPECT_LE(planned->rows_scanned, naive->rows_scanned)
          << "seed " << seed << ": " << sql;
    }
  }
}

}  // namespace
}  // namespace msql::relational
