// Query log (DESIGN.md §11): one JSONL audit record per executed input,
// covering all four global outcomes via the §3.3 chaos fixtures, with
// vital verdicts, compensations and a byte-identical golden rendering
// under a fixed seed.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "core/fixtures.h"
#include "core/mdbs_system.h"
#include "dol/engine.h"
#include "netsim/fault_injector.h"
#include "obs/query_log.h"

namespace msql::core {
namespace {

using dol::RetryPolicy;
using netsim::FaultAction;
using netsim::FaultPlan;
using netsim::FaultRule;
using netsim::LamRequestType;
using relational::FailPoint;

constexpr const char* kCompensatedRaise =
    "USE continental VITAL delta united VITAL\n"
    "UPDATE flight% SET rate% = rate% * 1.1\n"
    "WHERE sour% = 'Houston' AND dest% = 'San Antonio'\n"
    "COMP continental\n"
    "UPDATE flights SET rate = rate / 1.1\n"
    "WHERE source = 'Houston' AND destination = 'San Antonio'";

// Avis has no flight table, so its VITAL subquery is non-pertinent and
// the whole query must be refused (§3.1).
constexpr const char* kRefusedSelect =
    "USE avis VITAL continental\n"
    "SELECT rate FROM flight%";

class QueryLogTest : public ::testing::Test {
 protected:
  void SetUp() override { BuildSystem(&sys_); }

  static void BuildSystem(std::unique_ptr<MultidatabaseSystem>* out) {
    PaperFederationOptions options;
    options.continental_autocommit_only = true;  // the §3.3 premise
    auto sys = BuildPaperFederation(options);
    ASSERT_TRUE(sys.ok()) << sys.status();
    *out = std::move(*sys);
    (*out)->query_log().set_enabled(true);
  }

  /// Drives the four-outcome session: clean compensated raise
  /// (SUCCESS), united statement failure firing continental's COMP
  /// (ABORTED), lost commit ACK with retries off (INCORRECT), vital
  /// non-pertinent subquery (REFUSED).
  static void RunOutcomeMatrix(MultidatabaseSystem* sys) {
    auto success = sys->Execute(kCompensatedRaise);
    ASSERT_TRUE(success.ok()) << success.status();
    ASSERT_EQ(success->outcome, GlobalOutcome::kSuccess);

    (*sys->GetEngine(PaperServiceOf("united")))
        ->InjectFailure(FailPoint::kNextStatement);
    auto aborted = sys->Execute(kCompensatedRaise);
    ASSERT_TRUE(aborted.ok()) << aborted.status();
    ASSERT_EQ(aborted->outcome, GlobalOutcome::kAborted);

    sys->set_retry_policy(RetryPolicy::None());
    FaultPlan plan;
    plan.rules.push_back(FaultRule::NthCall("united_svc",
                                            LamRequestType::kCommit, 1,
                                            FaultAction::kLostResponse));
    sys->environment().fault_injector().SetPlan(plan);
    auto incorrect = sys->Execute(kCompensatedRaise);
    ASSERT_TRUE(incorrect.ok()) << incorrect.status();
    ASSERT_EQ(incorrect->outcome, GlobalOutcome::kIncorrect);

    sys->environment().fault_injector().SetPlan(FaultPlan());
    auto refused = sys->Execute(kRefusedSelect);
    ASSERT_TRUE(refused.ok()) << refused.status();
    ASSERT_EQ(refused->outcome, GlobalOutcome::kRefused);
  }

  std::unique_ptr<MultidatabaseSystem> sys_;
};

TEST_F(QueryLogTest, AllFourOutcomesAreLoggedInSequence) {
  RunOutcomeMatrix(sys_.get());
  const auto& records = sys_->query_log().records();
  ASSERT_EQ(records.size(), 4u);
  const char* expected[] = {"SUCCESS", "ABORTED", "INCORRECT", "REFUSED"};
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(records[i].seq, static_cast<int64_t>(i + 1));
    EXPECT_EQ(records[i].outcome, expected[i]) << "record " << i;
    EXPECT_EQ(records[i].kind, "query");
  }
  // Inputs lay out sequentially: each record starts where the previous
  // makespans end.
  int64_t cursor = 0;
  for (const auto& r : records) {
    EXPECT_EQ(r.sim_start_micros, cursor) << "seq " << r.seq;
    cursor += r.makespan_micros;
  }
  // Executed inputs cost simulated time and traffic; the refusal is
  // decided in the front end and costs neither.
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_GT(records[i].makespan_micros, 0) << i;
    EXPECT_GT(records[i].messages, 0) << i;
    EXPECT_GT(records[i].bytes, 0) << i;
  }
  EXPECT_EQ(records[3].makespan_micros, 0);
  EXPECT_EQ(records[3].messages, 0);
}

TEST_F(QueryLogTest, VerdictsCarryVitalityAndCompensations) {
  RunOutcomeMatrix(sys_.get());
  const auto& records = sys_->query_log().records();
  ASSERT_EQ(records.size(), 4u);

  // The clean success: three verdicts, all committed, vital flags as
  // declared in the USE scope.
  const auto& success = records[0];
  ASSERT_EQ(success.verdicts.size(), 3u);
  for (const auto& v : success.verdicts) {
    EXPECT_EQ(v.state, "COMMITTED") << v.database;
    EXPECT_EQ(v.service, PaperServiceOf(v.database));
    if (v.database == "delta") {
      EXPECT_FALSE(v.vital);
    } else {
      EXPECT_TRUE(v.vital) << v.database;
    }
  }
  EXPECT_TRUE(success.compensations.empty());

  // The abort: united's statement failure aborted its task and fired
  // continental's COMP clause.
  const auto& aborted = records[1];
  bool united_aborted = false, continental_compensated = false;
  for (const auto& v : aborted.verdicts) {
    if (v.database == "united") {
      united_aborted = v.state == "ABORTED";
      EXPECT_EQ(v.task, "t_united");
    }
    if (v.database == "continental") {
      continental_compensated = v.state == "COMPENSATED";
    }
  }
  EXPECT_TRUE(united_aborted) << aborted.ToJson();
  EXPECT_TRUE(continental_compensated) << aborted.ToJson();
  ASSERT_EQ(aborted.compensations.size(), 1u);
  EXPECT_EQ(aborted.compensations[0], "t_continental");

  // The refusal names the non-pertinent database and has a detail line.
  const auto& refused = records[3];
  ASSERT_EQ(refused.non_pertinent.size(), 1u);
  EXPECT_EQ(refused.non_pertinent[0], "avis");
  EXPECT_FALSE(refused.detail.empty());

  // The incorrect run performed no retries (policy None) but records a
  // nonzero dol_status.
  EXPECT_EQ(records[2].retries, 0);
  EXPECT_NE(records[2].dol_status, 0);
}

// Golden log: two fresh federations replaying the same session under
// the same seed render byte-identical JSONL.
TEST_F(QueryLogTest, JsonlIsByteIdenticalUnderFixedSeed) {
  RunOutcomeMatrix(sys_.get());
  std::string first = sys_->query_log().ToJsonl();

  std::unique_ptr<MultidatabaseSystem> again;
  BuildSystem(&again);
  RunOutcomeMatrix(again.get());
  std::string second = again->query_log().ToJsonl();

  EXPECT_GT(first.size(), 500u);
  EXPECT_EQ(first, second);
  // JSONL shape: one object per line, four lines, fixed key order.
  size_t lines = 0;
  for (char c : first) lines += c == '\n';
  EXPECT_EQ(lines, 4u);
  EXPECT_EQ(first.rfind("{\"seq\":1,\"kind\":\"query\"", 0), 0u);
  EXPECT_NE(first.find("\"outcome\":\"INCORRECT\""), std::string::npos);
  EXPECT_NE(first.find("\"vital\":true"), std::string::npos);
  EXPECT_NE(first.find("\"compensations\":[\"t_continental\"]"),
            std::string::npos);
}

// Disabled by default: executing without enabling the log records
// nothing and Append returns nullptr.
TEST(QueryLogDisabledTest, NoRecordsWhenDisabled) {
  auto sys_or = BuildPaperFederation();
  ASSERT_TRUE(sys_or.ok()) << sys_or.status();
  auto sys = std::move(*sys_or);
  ASSERT_FALSE(sys->query_log().enabled());
  auto report = sys->Execute(kCompensatedRaise);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(sys->query_log().records().empty());
  EXPECT_TRUE(sys->query_log().ToJsonl().empty());

  obs::QueryLog log;
  obs::QueryLogRecord record;
  EXPECT_EQ(log.Append(record), nullptr);
}

// Clear resets the sequence and sim cursor, not just the records.
TEST_F(QueryLogTest, ClearRestartsTheSession) {
  auto first = sys_->Execute(kCompensatedRaise);
  ASSERT_TRUE(first.ok()) << first.status();
  ASSERT_EQ(sys_->query_log().records().size(), 1u);
  sys_->query_log().Clear();
  EXPECT_TRUE(sys_->query_log().records().empty());
  auto second = sys_->Execute(kRefusedSelect);
  ASSERT_TRUE(second.ok()) << second.status();
  const auto& records = sys_->query_log().records();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].seq, 1);
  EXPECT_EQ(records[0].sim_start_micros, 0);
}

// A script logs exactly what executing its inputs one at a time logs:
// catalog inputs included, in the same order, with the same records.
TEST_F(QueryLogTest, ExecuteScriptLogsLikeOneAtATime) {
  const std::vector<std::string> inputs = {
      "CREATE MULTIDATABASE airlines (continental, delta, united)",
      "USE airlines\nSELECT day FROM flight% WHERE sour% = 'Houston'",
      kCompensatedRaise,
      "ANALYZE DATABASE avis",
      kRefusedSelect,
      "BEGIN MULTITRANSACTION\n"
      "USE delta avis\n"
      "LET tab.key.stat BE fnu747.snu.sstat cars.code.carst\n"
      "UPDATE tab SET stat = 'HELD'\n"
      "WHERE key = (SELECT MIN(key) FROM tab);\n"
      "COMMIT delta AND avis END MULTITRANSACTION",
      "DROP MULTIDATABASE airlines"};
  std::string script;
  for (const auto& input : inputs) script += input + ";\n";

  auto reports = sys_->ExecuteScript(script);
  ASSERT_TRUE(reports.ok()) << reports.status();
  ASSERT_EQ(reports->size(), inputs.size());

  std::unique_ptr<MultidatabaseSystem> one_by_one;
  BuildSystem(&one_by_one);
  for (const auto& input : inputs) {
    auto report = one_by_one->Execute(input);
    ASSERT_TRUE(report.ok()) << input << "\n" << report.status();
  }
  ASSERT_EQ(one_by_one->query_log().records().size(), inputs.size());
  EXPECT_EQ(sys_->query_log().ToJsonl(), one_by_one->query_log().ToJsonl());
}

}  // namespace
}  // namespace msql::core
