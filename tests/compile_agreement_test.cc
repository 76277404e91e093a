// Front-end agreement: Analyze, Execute and a one-session
// FederationServer must compile every MSQL input the same way. One input
// per compile branch (view query, decomposed join with and without fresh
// ANALYZE statistics, data transfer, expanded query, multitransaction),
// per refusal source (MS111, VITAL database without a pertinent
// subquery, translator refusal) and per checker failure. Each side runs
// on its own fresh paper federation built the same way, so catalog
// state, statistics and observed latencies are identical.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/fixtures.h"
#include "core/mdbs_system.h"
#include "core/session_scheduler.h"

namespace msql::core {
namespace {

/// Downgrades a paper service to automatic commit only (§3.3).
std::string Autocommit(const std::string& db) {
  return "INCORPORATE SERVICE " + db + "_svc SITE site_" + db +
         " CONNECTMODE CONNECT COMMITMODE COMMIT CREATE COMMIT "
         "INSERT COMMIT DROP COMMIT";
}

constexpr const char* kAvailableCarsView =
    "CREATE MULTIVIEW available_cars AS\n"
    "USE avis national\n"
    "LET car.type.status BE cars.cartype.carst vehicle.vty.vstat\n"
    "SELECT %code, type, ~rate FROM car WHERE status = 'available'";

constexpr const char* kJoin =
    "USE avis continental\n"
    "SELECT cars.code, flights.flnu FROM avis.cars, continental.flights "
    "WHERE cars.rate < flights.rate";

constexpr const char* kFareRaise =
    "USE continental VITAL delta united VITAL\n"
    "UPDATE flight% SET rate% = rate% * 1.1\n"
    "WHERE sour% = 'Houston' AND dest% = 'San Antonio'";

constexpr const char* kTravelAgent =
    "BEGIN MULTITRANSACTION\n"
    "USE continental delta\n"
    "LET fitab.snu.sstat.clname BE\n"
    "  f838.seatnu.seatstatus.clientname\n"
    "  fnu747.snu.sstat.passname\n"
    "UPDATE fitab SET sstat = 'TAKEN', clname = 'wenders'\n"
    "WHERE snu = (SELECT MIN(snu) FROM fitab WHERE sstat = 'FREE');\n"
    "USE avis national\n"
    "LET cartab.ccode.cstat BE\n"
    "  cars.code.carst\n"
    "  vehicle.vcode.vstat\n"
    "UPDATE cartab SET cstat = 'TAKEN', cfrom = '07-04-92',\n"
    "  cto = '04-16-93', client = 'wenders'\n"
    "WHERE ccode = (SELECT MIN(ccode) FROM cartab WHERE "
    "cstat = 'available');\n"
    "COMMIT\n"
    "  continental AND national\n"
    "  delta AND avis\n"
    "END MULTITRANSACTION";

/// A multitransaction whose first query carries a checker warning
/// (MS106, optional column nowhere) and whose second query fails the
/// checker with `second_query`.
std::string WarnThenFail(const std::string& second_query) {
  return "BEGIN MULTITRANSACTION\n"
         "USE continental delta\n"
         "SELECT day, ~meal FROM flight%;\n" +
         second_query +
         ";\n"
         "COMMIT continental END MULTITRANSACTION";
}

struct Case {
  const char* name;
  PaperFederationOptions options;
  /// Executed on every fresh federation before the input.
  std::vector<std::string> setup;
  std::string input;
};

/// The three views of one input, each from its own fresh federation.
struct Views {
  Result<AnalysisReport> analysis = Status::Internal("unset");
  Result<ExecutionReport> execution = Status::Internal("unset");
  Result<std::vector<SessionResult>> served = Status::Internal("unset");
};

std::unique_ptr<MultidatabaseSystem> Fresh(const Case& c) {
  auto sys = BuildPaperFederation(c.options);
  EXPECT_TRUE(sys.ok()) << sys.status();
  if (!sys.ok()) return nullptr;
  for (const auto& text : c.setup) {
    auto report = (*sys)->Execute(text);
    EXPECT_TRUE(report.ok()) << c.name << ": " << text << "\n"
                             << report.status();
  }
  return std::move(*sys);
}

Views RunAllThree(const Case& c) {
  Views v;
  auto analyzed = Fresh(c);
  auto executed = Fresh(c);
  auto served = Fresh(c);
  if (!analyzed || !executed || !served) return v;
  v.analysis = analyzed->Analyze(c.input);
  v.execution = executed->Execute(c.input);
  FederationServer server(served.get());
  server.Submit(c.input);
  v.served = server.RunAll();
  return v;
}

/// The agreement every compile branch must satisfy: same DOL text, same
/// cost breakdown, refusal iff kRefused with the same code, the same
/// hard-error code; and the server's one session ends like Execute.
void ExpectAgreement(const Case& c, const Views& v) {
  SCOPED_TRACE(c.name);
  ASSERT_TRUE(v.analysis.ok()) << v.analysis.status();
  const AnalysisReport& a = *v.analysis;
  if (v.execution.ok()) {
    const ExecutionReport& e = *v.execution;
    EXPECT_TRUE(a.error.ok()) << a.error;
    EXPECT_EQ(a.refused, e.outcome == GlobalOutcome::kRefused);
    if (a.refused) {
      EXPECT_EQ(a.refusal.code(), e.detail.code());
      EXPECT_EQ(a.refusal.code(), StatusCode::kRefused);
      EXPECT_FALSE(a.translated);
      EXPECT_EQ(e.dol_text, "");
    } else {
      EXPECT_TRUE(a.translated);
      EXPECT_EQ(a.dol_text, e.dol_text);
    }
    EXPECT_EQ(a.cost_text, e.cost_text);
  } else {
    // Hard failures: the analyzer reports them as its error, except
    // checker errors, which it lists as diagnostics instead.
    const Status& status = v.execution.status();
    EXPECT_FALSE(a.translated);
    EXPECT_FALSE(a.refused);
    if (a.error.ok()) {
      EXPECT_TRUE(a.diagnostics.has_errors());
      EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    } else {
      EXPECT_EQ(a.error.code(), status.code());
      EXPECT_EQ(a.error.ToString(), status.ToString());
    }
  }

  ASSERT_TRUE(v.served.ok()) << v.served.status();
  ASSERT_EQ(v.served->size(), 1u);
  const SessionResult& s = (*v.served)[0];
  if (v.execution.ok()) {
    ASSERT_TRUE(s.report.has_value()) << s.status;
    EXPECT_EQ(s.report->outcome, v.execution->outcome);
    EXPECT_EQ(s.report->dol_text, v.execution->dol_text);
    EXPECT_EQ(s.report->cost_text, v.execution->cost_text);
    EXPECT_EQ(s.report->detail.ToString(), v.execution->detail.ToString());
    EXPECT_EQ(s.report->non_pertinent, v.execution->non_pertinent);
  } else {
    EXPECT_FALSE(s.report.has_value());
    EXPECT_EQ(s.status.ToString(), v.execution.status().ToString());
  }
}

PaperFederationOptions ContinentalAutocommit() {
  PaperFederationOptions options;
  options.continental_autocommit_only = true;
  return options;
}

TEST(CompileAgreementTest, ViewQueryHasNoPlanOfItsOwn) {
  Case c{"view query", {}, {kAvailableCarsView},
         "USE avis SELECT code FROM available_cars WHERE type = 'sedan'"};
  Views v = RunAllThree(c);
  ASSERT_TRUE(v.analysis.ok()) << v.analysis.status();
  EXPECT_EQ(v.analysis->kind, "view query");
  EXPECT_FALSE(v.analysis->translated);
  EXPECT_FALSE(v.analysis->refused);
  EXPECT_TRUE(v.analysis->error.ok());
  EXPECT_EQ(v.analysis->dol_text, "");
  EXPECT_TRUE(v.analysis->diagnostics.empty());
  // Execute answers it from the stored definition's plan.
  ASSERT_TRUE(v.execution.ok()) << v.execution.status();
  EXPECT_EQ(v.execution->outcome, GlobalOutcome::kSuccess);
  EXPECT_NE(v.execution->dol_text.find("t_national"), std::string::npos);
  EXPECT_EQ(v.execution->multitable.size(), 2u);
  // The concurrent server cannot step a view query.
  ASSERT_TRUE(v.served.ok()) << v.served.status();
  ASSERT_EQ(v.served->size(), 1u);
  EXPECT_EQ((*v.served)[0].status.ToString(),
            "InvalidArgument: multidatabase view queries execute serially "
            "and cannot be prepared");
}

TEST(CompileAgreementTest, DecomposedJoinBeforeAnalyze) {
  Case c{"join, heuristic", {}, {}, kJoin};
  Views v = RunAllThree(c);
  ExpectAgreement(c, v);
  ASSERT_TRUE(v.analysis.ok());
  EXPECT_EQ(v.analysis->kind, "decomposed join");
  EXPECT_NE(v.analysis->cost_text.find("mode=heuristic"), std::string::npos)
      << v.analysis->cost_text;
}

TEST(CompileAgreementTest, DecomposedJoinAfterAnalyze) {
  Case c{"join, cost-based",
         {},
         {"ANALYZE DATABASE avis", "ANALYZE DATABASE continental"},
         kJoin};
  Views v = RunAllThree(c);
  ExpectAgreement(c, v);
  ASSERT_TRUE(v.analysis.ok());
  EXPECT_EQ(v.analysis->kind, "decomposed join");
  EXPECT_NE(v.analysis->cost_text.find("mode=cost-based"),
            std::string::npos)
      << v.analysis->cost_text;
}

TEST(CompileAgreementTest, DataTransfer) {
  Case c{"data transfer",
         {},
         {"USE national CREATE TABLE fares (orig TEXT, dst TEXT, amount "
          "REAL)"},
         "USE national continental\n"
         "INSERT INTO national.fares "
         "SELECT source, destination, rate FROM continental.flights "
         "WHERE rate > 150"};
  Views v = RunAllThree(c);
  ExpectAgreement(c, v);
  ASSERT_TRUE(v.analysis.ok());
  EXPECT_EQ(v.analysis->kind, "data transfer");
  ASSERT_TRUE(v.execution.ok());
  EXPECT_GT(v.execution->rows_transferred, 0);
}

TEST(CompileAgreementTest, ExpandedQuery) {
  Case c{"plain query", {}, {}, kFareRaise};
  Views v = RunAllThree(c);
  ExpectAgreement(c, v);
  ASSERT_TRUE(v.analysis.ok());
  EXPECT_EQ(v.analysis->kind, "query");
  ASSERT_TRUE(v.execution.ok());
  EXPECT_EQ(v.execution->outcome, GlobalOutcome::kSuccess);
}

TEST(CompileAgreementTest, CheckerWarningsReachBothReports) {
  Case c{"query with warning",
         {},
         {},
         "USE continental delta united\n"
         "SELECT fn%, day, ~meal FROM flight% WHERE sour% = 'Houston'"};
  Views v = RunAllThree(c);
  ExpectAgreement(c, v);
  ASSERT_TRUE(v.analysis.ok());
  ASSERT_TRUE(v.execution.ok());
  ASSERT_FALSE(v.execution->diagnostics.empty());
  // The report's warnings are the checker's findings the analyzer lists
  // first (the verifier's follow them).
  ASSERT_GE(v.analysis->diagnostics.size(),
            v.execution->diagnostics.size());
  for (size_t i = 0; i < v.execution->diagnostics.size(); ++i) {
    EXPECT_EQ(v.analysis->diagnostics.items()[i].Render(),
              v.execution->diagnostics[i].Render());
  }
}

TEST(CompileAgreementTest, Ms111Refusal) {
  Case c{"MS111",
         ContinentalAutocommit(),
         {Autocommit("united")},
         "USE continental VITAL united VITAL\n"
         "UPDATE flight% SET rate% = rate% * 1.1"};
  Views v = RunAllThree(c);
  ExpectAgreement(c, v);
  ASSERT_TRUE(v.analysis.ok());
  ASSERT_TRUE(v.execution.ok());
  EXPECT_EQ(v.analysis->refusal.ToString(), v.execution->detail.ToString());
  EXPECT_NE(v.execution->detail.message().find("MS111"), std::string::npos);
}

TEST(CompileAgreementTest, VitalWithoutPertinentSubqueryRefusal) {
  Case c{"VITAL non-pertinent", {}, {},
         "USE avis VITAL continental\nSELECT rate FROM flight%"};
  Views v = RunAllThree(c);
  ExpectAgreement(c, v);
  ASSERT_TRUE(v.analysis.ok());
  ASSERT_TRUE(v.execution.ok());
  EXPECT_EQ(v.analysis->refusal.ToString(), v.execution->detail.ToString());
  EXPECT_EQ(v.execution->detail.ToString(),
            "Refused: VITAL database 'avis' has no pertinent subquery in "
            "this multiple query");
  EXPECT_EQ(v.execution->non_pertinent, std::vector<std::string>{"avis"});
}

TEST(CompileAgreementTest, TranslatorRefusal) {
  // National answers in automatic-commit mode only and the
  // multitransaction gives it no COMP clause: the checker passes, the
  // translator refuses.
  Case c{"translator refusal", {}, {Autocommit("national")}, kTravelAgent};
  Views v = RunAllThree(c);
  ExpectAgreement(c, v);
  ASSERT_TRUE(v.analysis.ok());
  ASSERT_TRUE(v.execution.ok());
  EXPECT_FALSE(v.analysis->diagnostics.has_errors());
  EXPECT_EQ(v.analysis->refusal.ToString(), v.execution->detail.ToString());
  EXPECT_NE(v.execution->detail.message().find("does not support 2PC"),
            std::string::npos)
      << v.execution->detail;
  EXPECT_TRUE(v.execution->non_pertinent.empty());
}

TEST(CompileAgreementTest, CheckerError) {
  Case c{"checker error", {}, {}, "USE hertz\nSELECT code FROM cars"};
  Views v = RunAllThree(c);
  ExpectAgreement(c, v);
  ASSERT_TRUE(v.analysis.ok());
  ASSERT_FALSE(v.execution.ok());
  EXPECT_EQ(v.analysis->diagnostics.ToStatus().ToString(),
            v.execution.status().ToString());
}

TEST(CompileAgreementTest, MultiTransaction) {
  Case c{"multitransaction", {}, {}, kTravelAgent};
  Views v = RunAllThree(c);
  ExpectAgreement(c, v);
  ASSERT_TRUE(v.analysis.ok());
  EXPECT_EQ(v.analysis->kind, "multitransaction");
  ASSERT_TRUE(v.execution.ok());
  EXPECT_EQ(v.execution->outcome, GlobalOutcome::kSuccess);
}

TEST(CompileAgreementTest, CompOverDatabaseCoversEveryAlias) {
  // One COMP naming the database covers every alias of it, in the
  // expander as in the checker: c1, c2 and c3 each get the compensation,
  // so none needs the last-resource slot and the plan runs.
  Case c{"COMP over aliases",
         ContinentalAutocommit(),
         {},
         "USE (continental c1) VITAL (continental c2) VITAL\n"
         "    (continental c3) VITAL\n"
         "UPDATE flights SET rate = rate * 1.1\n"
         "COMP continental UPDATE flights SET rate = rate / 1.1"};
  Views v = RunAllThree(c);
  ExpectAgreement(c, v);
  ASSERT_TRUE(v.analysis.ok());
  ASSERT_TRUE(v.execution.ok());
  EXPECT_FALSE(v.analysis->diagnostics.has_errors());
  EXPECT_FALSE(v.analysis->refused) << v.analysis->refusal;
  EXPECT_EQ(v.execution->outcome, GlobalOutcome::kSuccess)
      << v.execution->detail;
  for (const std::string alias : {"c1", "c2", "c3"}) {
    const std::string task = "TASK t_" + alias + " FOR " + alias +
                             " { UPDATE flights SET rate = rate * 1.1 }\n"
                             "      COMPENSATION { UPDATE flights SET rate = "
                             "rate / 1.1 }";
    EXPECT_NE(v.execution->dol_text.find(task), std::string::npos)
        << alias << "\n" << v.execution->dol_text;
    EXPECT_NE(v.execution->dol_text.find("COMPENSATE t_" + alias + ";"),
              std::string::npos)
        << alias;
  }
}

// Inside a multitransaction the two reports gather checker findings
// differently: Execute's error quotes only the failing query, the
// analyzer lists every query's findings up to it.
TEST(CompileAgreementTest, MultiTransactionCheckerErrorTexts) {
  Case c{"multitransaction checker error", {}, {},
         WarnThenFail("USE hertz UPDATE cars SET rate = 1")};
  Views v = RunAllThree(c);
  ExpectAgreement(c, v);
  ASSERT_TRUE(v.analysis.ok());
  ASSERT_FALSE(v.execution.ok());
  EXPECT_EQ(v.execution.status().ToString(),
            "InvalidArgument: error[MS101] line 4 col 5: database 'hertz' "
            "is not in the GDD (IMPORT it first)");
  EXPECT_EQ(v.analysis->diagnostics.RenderAll(),
            "warning[MS106] line 3 col 14: optional column '~meal' exists "
            "in no scope database and is always dropped\n"
            "error[MS101] line 4 col 5: database 'hertz' is not in the GDD "
            "(IMPORT it first)");
}

TEST(CompileAgreementTest, MultiTransactionMs111Texts) {
  Case c{"multitransaction MS111", ContinentalAutocommit(),
         {Autocommit("united")},
         WarnThenFail("USE continental VITAL united VITAL\n"
                      "UPDATE flight% SET rate% = rate% * 1.1")};
  Views v = RunAllThree(c);
  ExpectAgreement(c, v);
  ASSERT_TRUE(v.analysis.ok());
  ASSERT_TRUE(v.execution.ok());
  const std::string ms111 =
      "error[MS111] line 4 col 23: vital set is not enforceable: "
      "databases {continental, united} neither support 2PC nor provide "
      "COMP clauses; failure atomicity with respect to the vital set "
      "cannot be guaranteed";
  EXPECT_EQ(v.execution->detail.ToString(), "Refused: " + ms111);
  EXPECT_EQ(v.analysis->refusal.ToString(),
            "Refused: warning[MS106] line 3 col 14: optional column "
            "'~meal' exists in no scope database and is always dropped\n" +
                ms111);
}

}  // namespace
}  // namespace msql::core
