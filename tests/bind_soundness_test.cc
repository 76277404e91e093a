// Soundness of the binder (relational/binder.h) against the evaluator,
// which stays the oracle: seeded random expressions over random typed
// rows, for one- and two-source scopes. On every node and row:
//   - a node the binder flags as unable to fail never fails;
//   - a successful non-NULL value has the node's bound type;
//   - a column that did not resolve raises exactly the error a query
//     over a non-empty table raises.
// Then the lazy-error rule end to end: unknown, ambiguous and ill-typed
// expressions in every clause succeed over an empty table and fail, with
// the evaluator's text, once a row is there.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "relational/binder.h"
#include "relational/engine.h"
#include "relational/expr_eval.h"
#include "relational/sql/parser.h"

namespace msql::relational {
namespace {

constexpr int64_t kTwoTo53 = int64_t{1} << 53;

ExprPtr Lit(Value v) { return std::make_unique<LiteralExpr>(std::move(v)); }

ExprPtr Col(std::string qualifier, std::string name) {
  return std::make_unique<ColumnRefExpr>(std::move(qualifier),
                                         std::move(name));
}

ExprPtr Bin(BinaryOp op, ExprPtr l, ExprPtr r) {
  return std::make_unique<BinaryExpr>(op, std::move(l), std::move(r));
}

/// A value of `type` (or NULL), with the edge cases the evaluator's
/// numeric and text paths care about.
Value RandomValue(Rng* rng, Type type) {
  if (rng->NextBool(0.15)) return Value::Null_();
  switch (type) {
    case Type::kInteger: {
      const int64_t picks[] = {0, 1, -2, 7, kTwoTo53};
      return Value::Integer(picks[rng->NextBelow(5)]);
    }
    case Type::kReal: {
      const double picks[] = {-0.0, 0.0, 1.5, -3.25, 9007199254740992.0};
      return Value::Real(picks[rng->NextBelow(5)]);
    }
    case Type::kText: {
      const char* picks[] = {"", "a", "ab", "B%", "_b"};
      return Value::Text(picks[rng->NextBelow(5)]);
    }
    case Type::kBoolean:
      return Value::Boolean(rng->NextBool(0.5));
    case Type::kNull:
      break;
  }
  return Value::Null_();
}

/// Random expressions over the scope `t` (i INTEGER, r REAL, s TEXT,
/// b BOOLEAN) and, with two sources, `u` (i INTEGER, x REAL, s TEXT).
/// Multiplication only scales by a small literal, so INTEGER arithmetic
/// stays far from overflow.
class ExprGen {
 public:
  ExprGen(Rng* rng, bool two_sources) : rng_(rng), two_(two_sources) {}

  ExprPtr Gen(int depth) {
    if (depth == 0 || rng_->NextBool(0.3)) return Leaf();
    switch (rng_->NextBelow(9)) {
      case 0: {
        const UnaryOp ops[] = {UnaryOp::kNot, UnaryOp::kNegate,
                               UnaryOp::kIsNull, UnaryOp::kIsNotNull};
        return std::make_unique<UnaryExpr>(ops[rng_->NextBelow(4)],
                                           Gen(depth - 1));
      }
      case 1:
      case 2: {
        const BinaryOp ops[] = {BinaryOp::kEq,  BinaryOp::kNe,
                                BinaryOp::kLt,  BinaryOp::kGe,
                                BinaryOp::kAnd, BinaryOp::kOr,
                                BinaryOp::kAdd, BinaryOp::kSub,
                                BinaryOp::kDiv, BinaryOp::kLike};
        return Bin(ops[rng_->NextBelow(10)], Gen(depth - 1), Gen(depth - 1));
      }
      case 3: {
        const Value factors[] = {Value::Integer(2), Value::Integer(-1),
                                 Value::Real(0.5)};
        return Bin(BinaryOp::kMul, Gen(depth - 1),
                   Lit(factors[rng_->NextBelow(3)]));
      }
      case 4:
      case 5: {
        const char* names[] = {"UPPER", "LOWER", "LENGTH", "ABS",
                               "ROUND", "ROUND", "SUM",   "NOPE"};
        std::string name = names[rng_->NextBelow(8)];
        std::vector<ExprPtr> args;
        const size_t n = rng_->NextBool(0.8) ? 1 : rng_->NextBelow(3);
        for (size_t a = 0; a < n; ++a) args.push_back(Gen(depth - 1));
        if (name == "ROUND" && rng_->NextBool(0.5)) {
          args.push_back(Gen(depth - 1));
        }
        return std::make_unique<FunctionCallExpr>(name, std::move(args));
      }
      case 6: {
        std::vector<ExprPtr> list;
        const size_t n = 1 + rng_->NextBelow(3);
        for (size_t a = 0; a < n; ++a) list.push_back(Gen(depth - 1));
        return std::make_unique<InListExpr>(Gen(depth - 1), std::move(list),
                                            rng_->NextBool(0.3));
      }
      case 7:
        return std::make_unique<BetweenExpr>(Gen(depth - 1), Gen(depth - 1),
                                             Gen(depth - 1),
                                             rng_->NextBool(0.3));
      default:
        return Leaf();
    }
  }

 private:
  ExprPtr Leaf() {
    if (rng_->NextBool(0.5)) return Column();
    switch (rng_->NextBelow(6)) {
      case 0: return Lit(Value::Null_());
      case 1: return Lit(RandomValue(rng_, Type::kInteger));
      case 2: return Lit(RandomValue(rng_, Type::kReal));
      case 3: return Lit(RandomValue(rng_, Type::kText));
      case 4: return Lit(RandomValue(rng_, Type::kBoolean));
      default: return Lit(Value::Integer(kTwoTo53));
    }
  }

  ExprPtr Column() {
    // Resolvable names, then unknown and (with two sources) ambiguous
    // ones: `i` and `s` exist in both t and u.
    static const std::vector<std::pair<const char*, const char*>> kOne = {
        {"", "i"},   {"", "r"},  {"", "s"},      {"", "b"},
        {"t", "i"},  {"T", "S"}, {"", "ghost"},  {"t", "ghost"},
        {"u", "i"}};
    static const std::vector<std::pair<const char*, const char*>> kTwo = {
        {"", "r"},  {"", "b"},  {"t", "i"}, {"u", "i"},  {"u", "x"},
        {"", "x"},  {"U", "S"}, {"", "i"},  {"", "s"},   {"", "ghost"},
        {"w", "i"}};
    const auto& names = two_ ? kTwo : kOne;
    const auto& [q, n] = names[rng_->NextBelow(names.size())];
    return Col(q, n);
  }

  Rng* rng_;
  bool two_;
};

class BindSoundnessTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  void SetUp() override {
    t_ = *TableSchema::Create("t", {{"i", Type::kInteger, 0},
                                    {"r", Type::kReal, 0},
                                    {"s", Type::kText, 0},
                                    {"b", Type::kBoolean, 0}});
    u_ = *TableSchema::Create("u", {{"i", Type::kInteger, 0},
                                    {"x", Type::kReal, 0},
                                    {"s", Type::kText, 0}});
    // The same tables, one row each, to ask a real query for the error a
    // name raises.
    engine_ = std::make_unique<LocalEngine>(
        "svc", CapabilityProfile::IngresLike());
    ASSERT_TRUE(engine_->CreateDatabase("db").ok());
    session_ = *engine_->OpenSession("db");
    for (const char* sql :
         {"CREATE TABLE t (i INTEGER, r REAL, s TEXT, b BOOLEAN)",
          "CREATE TABLE u (i INTEGER, x REAL, s TEXT)",
          "INSERT INTO t VALUES (1, 1.5, 'a', NULL)",
          "INSERT INTO u VALUES (2, 2.5, 'b')"}) {
      ASSERT_TRUE(engine_->Execute(session_, sql).ok()) << sql;
    }
  }

  SchemaResolver Resolver() {
    return [this](std::string_view name) -> Result<const TableSchema*> {
      if (name == "t") return &t_;
      if (name == "u") return &u_;
      return Status::NotFound("no table " + std::string(name));
    };
  }

  /// Checks `node` and every operand below it on `row`.
  void CheckNode(const BoundExpr& node, const Row& row,
                 const ExprEvaluator& evaluator, const std::string& from,
                 const std::string& context) {
    for (const auto& arg : node.args) {
      CheckNode(arg, row, evaluator, from, context);
    }
    Result<Value> v = evaluator.Eval(node, row);
    const std::string sql = node.expr->ToSql();
    if (!node.may_fail) {
      EXPECT_TRUE(v.ok()) << sql << " flagged infallible but raised "
                          << v.status() << context;
    }
    if (v.ok() && !v->is_null()) {
      EXPECT_EQ(v->type(), node.type)
          << sql << " = " << v->ToSqlLiteral() << " bound as "
          << TypeName(node.type) << context;
    }
    if (node.kind == ExprKind::kColumnRef && !node.error.ok()) {
      ASSERT_FALSE(v.ok()) << sql << context;
      EXPECT_EQ(v.status(), node.error) << sql;
      auto [it, fresh] = engine_errors_.try_emplace("SELECT " + sql + from);
      if (fresh) {
        it->second = engine_->Execute(session_, it->first).status();
      }
      EXPECT_EQ(it->second, node.error) << it->first;
    }
    ++checks_;
  }

  TableSchema t_, u_;
  std::unique_ptr<LocalEngine> engine_;
  SessionId session_ = 0;
  std::map<std::string, Status> engine_errors_;
  int64_t checks_ = 0;
};

TEST_P(BindSoundnessTest, FlagsTypesAndResolveErrorsAgreeWithEvaluator) {
  Rng rng(GetParam());
  const ExprEvaluator evaluator(nullptr);
  for (bool two : {false, true}) {
    BindScope scope;
    scope.AddSource("t", &t_);
    if (two) scope.AddSource("u", &u_);
    const Binder binder(&scope, Resolver());
    const std::string from = two ? " FROM t, u" : " FROM t";
    std::vector<Row> rows;
    for (int r = 0; r < 8; ++r) {
      Row row;
      for (size_t slot = 0; slot < scope.width(); ++slot) {
        row.push_back(RandomValue(&rng, scope.column(slot).type));
      }
      rows.push_back(std::move(row));
    }
    ExprGen gen(&rng, two);
    for (int n = 0; n < 300; ++n) {
      ExprPtr e = gen.Gen(3);
      const BoundExpr bound = binder.Bind(*e);
      for (size_t r = 0; r < rows.size(); ++r) {
        CheckNode(bound, rows[r], evaluator, from,
                  "\n  in " + e->ToSql() + from + ", row " +
                      std::to_string(r));
        if (HasFatalFailure()) return;
      }
    }
  }
  EXPECT_GT(checks_, 10000);
  // Both kinds of resolve error were met and matched a real query's.
  bool unknown = false, ambiguous = false;
  for (const auto& [sql, status] : engine_errors_) {
    unknown |= status.message().find("unknown column") == 0;
    ambiguous |= status.message().find("ambiguous column") == 0;
  }
  EXPECT_TRUE(unknown);
  EXPECT_TRUE(ambiguous);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BindSoundnessTest,
                         ::testing::Values(1, 2, 3, 4));

TEST(BindTest, ResolveErrorsKeepTheEvaluatorsText) {
  auto t = *TableSchema::Create("t", {{"x", Type::kInteger, 0}});
  auto u = *TableSchema::Create("u", {{"x", Type::kText, 0}});
  BindScope scope;
  scope.AddSource("t", &t);
  scope.AddSource("u", &u);
  EXPECT_EQ(scope.Resolve("", "x").status(),
            Status::InvalidArgument("ambiguous column reference 'x'"));
  EXPECT_EQ(scope.Resolve("t", "y").status(),
            Status::NotFound("unknown column 't.y'"));
  EXPECT_EQ(scope.Resolve("", "y").status(),
            Status::NotFound("unknown column 'y'"));
  EXPECT_EQ(*scope.Resolve("U", "X"), 1u);
  EXPECT_EQ(scope.SourceOf(1), 1u);
}

TEST(BindTest, BuiltinSignaturesDecideMayFail) {
  auto t = *TableSchema::Create(
      "t", {{"id", Type::kInteger, 0}, {"name", Type::kText, 0},
            {"v", Type::kReal, 0}});
  BindScope scope;
  scope.AddSource("t", &t);
  const Binder binder(&scope, nullptr);
  auto may_fail = [&](const char* text) {
    auto stmt = ParseSql(std::string("SELECT ") + text + " FROM t");
    EXPECT_TRUE(stmt.ok()) << text;
    const auto& select = static_cast<const SelectStmt&>(**stmt);
    return binder.Bind(*select.items[0].expr).may_fail;
  };
  EXPECT_FALSE(may_fail("LENGTH(name) = 3"));
  EXPECT_FALSE(may_fail("UPPER(name) LIKE 'A%'"));
  EXPECT_FALSE(may_fail("ABS(v) > 1"));
  EXPECT_FALSE(may_fail("ROUND(v, 2) < ROUND(id)"));
  EXPECT_FALSE(may_fail("LENGTH(NULL) IS NULL"));
  EXPECT_TRUE(may_fail("LENGTH(id) = 3"));
  EXPECT_TRUE(may_fail("LENGTH(name, name) = 3"));
  EXPECT_TRUE(may_fail("ABS(name) > 1"));
  EXPECT_TRUE(may_fail("ROUND(v, v) > 1"));
  EXPECT_TRUE(may_fail("COUNT(*) > 1"));
  EXPECT_TRUE(may_fail("id / 2 > 1"));
}

// --- lazy errors end to end ---------------------------------------------------

class LazyBindErrorsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    engine_ = std::make_unique<LocalEngine>(
        "svc", CapabilityProfile::IngresLike());
    ASSERT_TRUE(engine_->CreateDatabase("db").ok());
    session_ = *engine_->OpenSession("db");
    Run("CREATE TABLE t (i INTEGER, s TEXT)");
    Run("CREATE TABLE u (i INTEGER, s TEXT)");
  }

  void Run(const std::string& sql) {
    auto rs = engine_->Execute(session_, sql);
    ASSERT_TRUE(rs.ok()) << sql << " -> " << rs.status();
  }

  struct Case {
    const char* where;  // the clause the bad expression sits in
    std::string sql;
    std::string error;
  };

  /// One unknown, ambiguous or ill-typed expression per clause.
  static std::vector<Case> Cases() {
    const std::string unknown = "unknown column 'ghost'";
    const std::string unknown_q = "unknown column 't.ghost'";
    const std::string ambiguous = "ambiguous column reference 'i'";
    const std::string compare = "cannot compare INTEGER with TEXT";
    const std::string arith = "arithmetic requires numeric operands";
    return {
        {"SELECT WHERE", "SELECT i FROM t WHERE ghost = 1", unknown},
        {"SELECT WHERE", "SELECT t.s FROM t, u WHERE i = 1", ambiguous},
        {"SELECT WHERE", "SELECT i FROM t WHERE i = 'a'", compare},
        {"pushed filter", "SELECT t.i FROM t, u WHERE t.i = 'a' AND u.i = 1",
         compare},
        {"pushed filter", "SELECT t.i FROM t, u WHERE t.ghost = 1", unknown_q},
        {"join residual", "SELECT t.i FROM t, u WHERE t.i < u.s", compare},
        {"join residual", "SELECT t.i FROM t, u WHERE t.s + u.i > 0", arith},
        {"final residual", "SELECT i FROM t WHERE 1 = 'a'", compare},
        {"final residual",
         "SELECT i FROM t WHERE (SELECT COUNT(*) FROM u) = 'a'", compare},
        {"UPDATE SET", "UPDATE t SET i = ghost", unknown},
        {"UPDATE SET", "UPDATE t SET i = s + 1", arith},
        {"UPDATE WHERE", "UPDATE t SET i = 1 WHERE t.ghost = 1", unknown_q},
        {"UPDATE WHERE", "UPDATE t SET i = 1 WHERE s > 3",
         "cannot compare TEXT with INTEGER"},
        {"DELETE WHERE", "DELETE FROM t WHERE ghost IS NULL", unknown},
        {"DELETE WHERE", "DELETE FROM t WHERE i = 'a'", compare},
        {"ORDER BY", "SELECT i FROM t ORDER BY ghost", unknown},
        {"ORDER BY", "SELECT t.s FROM t, u ORDER BY i", ambiguous},
        {"ORDER BY", "SELECT i FROM t ORDER BY s + 1", arith},
    };
  }

  std::unique_ptr<LocalEngine> engine_;
  SessionId session_ = 0;
};

TEST_F(LazyBindErrorsTest, EmptyTablesRaiseNothingInAnyClause) {
  for (bool planner : {true, false}) {
    engine_->set_use_planner(planner);
    for (const Case& c : Cases()) {
      auto rs = engine_->Execute(session_, c.sql);
      EXPECT_TRUE(rs.ok()) << c.where << ": " << c.sql << " -> "
                           << rs.status();
    }
  }
  engine_->set_use_planner(true);
}

TEST_F(LazyBindErrorsTest, TheFirstEvaluatedRowRaisesTheError) {
  Run("INSERT INTO t VALUES (1, 'a')");
  Run("INSERT INTO u VALUES (2, 'b')");
  for (bool planner : {true, false}) {
    engine_->set_use_planner(planner);
    for (const Case& c : Cases()) {
      auto rs = engine_->Execute(session_, c.sql);
      ASSERT_FALSE(rs.ok()) << c.where << ": " << c.sql;
      EXPECT_EQ(rs.status().message(), c.error) << c.where << ": " << c.sql;
    }
  }
  engine_->set_use_planner(true);
}

}  // namespace
}  // namespace msql::relational
