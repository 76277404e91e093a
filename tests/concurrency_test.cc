// E16: concurrent federation server — N MSQL sessions interleaved on
// the shared simulated clock by the discrete-event scheduler, with
// inter-multitransaction locking at the LDBMSs (held across 2PC
// prepare), kBusy parking, waits-for deadlock detection and admission
// control.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/fixtures.h"
#include "core/mdbs_system.h"
#include "core/session_scheduler.h"
#include "dol/engine.h"
#include "dol/parser.h"

namespace msql::core {
namespace {

/// Two-airline seat reservation: takes the lowest FREE seat on each
/// airline for `client`. Conflicting sessions contend for the same
/// MIN(snu) row and the same table X locks, which are held across 2PC
/// prepare until the global decision.
std::string SeatMt(const std::string& client) {
  return "BEGIN MULTITRANSACTION\n"
         "USE continental delta\n"
         "LET fitab.snu.sstat.clname BE\n"
         "  f838.seatnu.seatstatus.clientname\n"
         "  fnu747.snu.sstat.passname\n"
         "UPDATE fitab SET sstat = 'TAKEN', clname = '" +
         client +
         "'\n"
         "WHERE snu = (SELECT MIN(snu) FROM fitab WHERE sstat = 'FREE');\n"
         "COMMIT\n"
         "  continental AND delta\n"
         "END MULTITRANSACTION";
}

/// Reserves a seat on both airlines in an explicit site order —
/// submitted in opposite orders by two sessions, the prepared
/// transactions acquire their table locks in reverse, producing a
/// cross-site deadlock no single LDBMS can see.
std::string OrderedSeatMt(bool continental_first,
                          const std::string& client) {
  std::string continental =
      "USE continental\n"
      "UPDATE f838 SET seatstatus = 'TAKEN', clientname = '" +
      client +
      "'\n"
      "WHERE seatnu = (SELECT MIN(seatnu) FROM f838 "
      "WHERE seatstatus = 'FREE');\n";
  std::string delta =
      "USE delta\n"
      "UPDATE fnu747 SET sstat = 'TAKEN', passname = '" + client +
      "'\n"
      "WHERE snu = (SELECT MIN(snu) FROM fnu747 WHERE sstat = 'FREE');\n";
  return "BEGIN MULTITRANSACTION\n" +
         (continental_first ? continental + delta : delta + continental) +
         "COMMIT\n"
         "  continental AND delta\n"
         "END MULTITRANSACTION";
}

class ConcurrencyTest : public ::testing::Test {
 protected:
  std::unique_ptr<MultidatabaseSystem> Build(int seats = 12) {
    PaperFederationOptions options;
    options.seats_per_airline = seats;
    auto sys = BuildPaperFederation(options);
    EXPECT_TRUE(sys.ok()) << sys.status();
    return std::move(*sys);
  }

  int64_t Count(MultidatabaseSystem& sys, const std::string& db,
                const std::string& sql) {
    auto engine = *sys.GetEngine(PaperServiceOf(db));
    auto session = *engine->OpenSession(db);
    auto rs = engine->Execute(session, sql);
    EXPECT_TRUE(rs.ok()) << rs.status();
    int64_t out = rs->rows[0][0].AsInteger();
    EXPECT_TRUE(engine->CloseSession(session).ok());
    return out;
  }

  int64_t TakenSeats(MultidatabaseSystem& sys, const std::string& client) {
    return Count(sys, "continental",
                 "SELECT COUNT(*) FROM f838 WHERE clientname = '" + client +
                     "'") +
           Count(sys, "delta",
                 "SELECT COUNT(*) FROM fnu747 WHERE passname = '" + client +
                     "'");
  }

  void ExpectNoHeldLocks(MultidatabaseSystem& sys) {
    for (const auto& name : sys.environment().ServiceNames()) {
      auto lam = sys.environment().GetLam(name);
      ASSERT_TRUE(lam.ok());
      EXPECT_EQ((*lam)->engine()->lock_manager().locked_resource_count(), 0)
          << "service " << name << " still holds locks";
    }
  }
};

// A single session through the server behaves exactly like the serial
// ExecuteScript path: same outcome, same DOL timeline, same final data.
TEST_F(ConcurrencyTest, SingleSessionMatchesSerialRun) {
  auto serial = Build();
  auto report = serial->Execute(SeatMt("wenders"));
  ASSERT_TRUE(report.ok()) << report.status();
  ASSERT_EQ(report->outcome, GlobalOutcome::kSuccess);

  auto concurrent = Build();
  FederationServer server(concurrent.get());
  server.Submit(SeatMt("wenders"));
  auto results = server.RunAll();
  ASSERT_TRUE(results.ok()) << results.status();
  ASSERT_EQ(results->size(), 1u);
  const SessionResult& r = (*results)[0];
  ASSERT_TRUE(r.status.ok()) << r.status;
  ASSERT_TRUE(r.report.has_value());
  EXPECT_EQ(r.report->outcome, GlobalOutcome::kSuccess);
  EXPECT_EQ(r.report->dol_status, report->dol_status);
  // Identical simulated timeline: the stepper replays the same calls.
  EXPECT_EQ(r.report->run.makespan_micros, report->run.makespan_micros);
  EXPECT_EQ(r.report->run.messages, report->run.messages);
  EXPECT_EQ(r.report->run.bytes, report->run.bytes);
  EXPECT_EQ(r.makespan_micros, report->run.makespan_micros);
  EXPECT_EQ(r.lock_waits, 0);
  EXPECT_EQ(TakenSeats(*concurrent, "wenders"),
            TakenSeats(*serial, "wenders"));
  ExpectNoHeldLocks(*concurrent);
}

// Two sessions contending for the same MIN(free) seat: the second
// parks on the first's prepared transaction, wakes at its commit, and
// takes the next seat — two distinct seats, no lost update.
TEST_F(ConcurrencyTest, ConflictingSessionsSerializeWithoutLostUpdates) {
  auto sys = Build();
  // The fixture seeds some seats as already TAKEN; measure the delta.
  const int64_t base_cont = Count(
      *sys, "continental",
      "SELECT COUNT(*) FROM f838 WHERE seatstatus = 'TAKEN'");
  const int64_t base_delta = Count(
      *sys, "delta", "SELECT COUNT(*) FROM fnu747 WHERE sstat = 'TAKEN'");
  FederationServer server(sys.get());
  server.Submit(SeatMt("alice"));
  server.Submit(SeatMt("bob"));
  auto results = server.RunAll();
  ASSERT_TRUE(results.ok()) << results.status();
  ASSERT_EQ(results->size(), 2u);
  for (const SessionResult& r : *results) {
    ASSERT_TRUE(r.status.ok()) << r.status;
    ASSERT_TRUE(r.report.has_value());
    EXPECT_EQ(r.report->outcome, GlobalOutcome::kSuccess)
        << "session " << r.session_id << ": "
        << r.report->detail.ToString();
  }
  // Exactly one of the two waited on the other's locks.
  EXPECT_GE((*results)[0].lock_waits + (*results)[1].lock_waits, 1);
  EXPECT_EQ(TakenSeats(*sys, "alice"), 2);
  EXPECT_EQ(TakenSeats(*sys, "bob"), 2);
  // Distinct seats: both clients hold a seat, and exactly one new seat
  // per client was taken on each airline.
  EXPECT_EQ(Count(*sys, "continental",
                  "SELECT COUNT(*) FROM f838 WHERE seatstatus = 'TAKEN'"),
            base_cont + 2);
  EXPECT_EQ(Count(*sys, "delta",
                  "SELECT COUNT(*) FROM fnu747 WHERE sstat = 'TAKEN'"),
            base_delta + 2);
  ExpectNoHeldLocks(*sys);
}

// Opposite lock orders across two sites: a waits-for cycle no local
// DBMS can observe. The scheduler's detector aborts the larger session
// id; the survivor commits on both airlines.
TEST_F(ConcurrencyTest, CrossSiteDeadlockVictimAborted) {
  auto sys = Build();
  FederationServer server(sys.get());
  server.Submit(OrderedSeatMt(/*continental_first=*/true, "alpha"));
  server.Submit(OrderedSeatMt(/*continental_first=*/false, "beta"));
  auto results = server.RunAll();
  ASSERT_TRUE(results.ok()) << results.status();
  ASSERT_EQ(results->size(), 2u);
  const SessionResult& survivor = (*results)[0];
  const SessionResult& victim = (*results)[1];
  ASSERT_TRUE(survivor.report.has_value()) << survivor.status;
  ASSERT_TRUE(victim.report.has_value()) << victim.status;
  EXPECT_EQ(survivor.report->outcome, GlobalOutcome::kSuccess)
      << survivor.report->detail.ToString();
  EXPECT_FALSE(survivor.deadlock_victim);
  EXPECT_EQ(victim.report->outcome, GlobalOutcome::kAborted)
      << victim.report->detail.ToString();
  EXPECT_TRUE(victim.deadlock_victim);
  // The survivor's reservation is fully applied; the victim's is fully
  // rolled back on both airlines.
  EXPECT_EQ(TakenSeats(*sys, "alpha"), 2);
  EXPECT_EQ(TakenSeats(*sys, "beta"), 0);
  ExpectNoHeldLocks(*sys);
}

// 16 sessions race for seats; every session commits, every client gets
// exactly one seat per airline, and the scheduler reports real lock
// waiting.
TEST_F(ConcurrencyTest, SixteenSessionsInterleaveSerializably) {
  auto sys = Build(/*seats=*/32);
  const int64_t base_cont = Count(
      *sys, "continental",
      "SELECT COUNT(*) FROM f838 WHERE seatstatus = 'TAKEN'");
  const int64_t base_delta = Count(
      *sys, "delta", "SELECT COUNT(*) FROM fnu747 WHERE sstat = 'TAKEN'");
  FederationServer server(sys.get());
  constexpr int kSessions = 16;
  for (int i = 0; i < kSessions; ++i) {
    server.Submit(SeatMt("client" + std::to_string(i)));
  }
  auto results = server.RunAll();
  ASSERT_TRUE(results.ok()) << results.status();
  ASSERT_EQ(results->size(), static_cast<size_t>(kSessions));
  int64_t total_waits = 0;
  for (const SessionResult& r : *results) {
    ASSERT_TRUE(r.status.ok()) << r.status;
    ASSERT_TRUE(r.report.has_value());
    EXPECT_EQ(r.report->outcome, GlobalOutcome::kSuccess)
        << "session " << r.session_id << ": "
        << r.report->detail.ToString();
    total_waits += r.lock_waits;
  }
  EXPECT_GE(total_waits, kSessions - 1);
  for (int i = 0; i < kSessions; ++i) {
    EXPECT_EQ(TakenSeats(*sys, "client" + std::to_string(i)), 2)
        << "client" << i;
  }
  EXPECT_EQ(Count(*sys, "continental",
                  "SELECT COUNT(*) FROM f838 WHERE seatstatus = 'TAKEN'"),
            base_cont + kSessions);
  EXPECT_EQ(Count(*sys, "delta",
                  "SELECT COUNT(*) FROM fnu747 WHERE sstat = 'TAKEN'"),
            base_delta + kSessions);
  ExpectNoHeldLocks(*sys);
}

// max_admitted = 1 degenerates to serial execution: later sessions are
// admitted only when their predecessors finish, and nobody ever waits
// on a lock.
TEST_F(ConcurrencyTest, AdmissionControlSerializes) {
  auto sys = Build();
  const int64_t base_cont = Count(
      *sys, "continental",
      "SELECT COUNT(*) FROM f838 WHERE seatstatus = 'TAKEN'");
  ServerConfig config;
  config.max_admitted = 1;
  FederationServer server(sys.get(), config);
  server.Submit(SeatMt("one"));
  server.Submit(SeatMt("two"));
  server.Submit(SeatMt("three"));
  auto results = server.RunAll();
  ASSERT_TRUE(results.ok()) << results.status();
  ASSERT_EQ(results->size(), 3u);
  int64_t previous_finish = 0;
  for (const SessionResult& r : *results) {
    ASSERT_TRUE(r.report.has_value()) << r.status;
    EXPECT_EQ(r.report->outcome, GlobalOutcome::kSuccess);
    EXPECT_EQ(r.lock_waits, 0);
    EXPECT_GE(r.admit_micros, previous_finish);
    previous_finish = r.finish_micros;
  }
  EXPECT_EQ(Count(*sys, "continental",
                  "SELECT COUNT(*) FROM f838 WHERE seatstatus = 'TAKEN'"),
            base_cont + 3);
  ExpectNoHeldLocks(*sys);
}

// A capacity-limited LAM queues overlapping requests from concurrent
// sessions; the wait surfaces in the health registry.
TEST_F(ConcurrencyTest, ServiceConcurrencyLimitQueuesAndFeedsHealth) {
  auto sys = Build();
  ASSERT_TRUE(sys->environment()
                  .SetServiceConcurrency("continental_svc", 1)
                  .ok());
  sys->environment().health().Clear();  // drop the bootstrap history
  FederationServer server(sys.get());
  for (int i = 0; i < 4; ++i) {
    server.Submit("USE continental\nSELECT flnu FROM flights");
  }
  auto results = server.RunAll();
  ASSERT_TRUE(results.ok()) << results.status();
  for (const SessionResult& r : *results) {
    ASSERT_TRUE(r.report.has_value()) << r.status;
    EXPECT_EQ(r.report->outcome, GlobalOutcome::kSuccess);
  }
  const obs::SiteHealth* health =
      sys->environment().health().Get("continental_svc");
  ASSERT_NE(health, nullptr);
  EXPECT_GT(health->queue_waits(), 0);
  EXPECT_NE(sys->environment().health().RenderText().find("queue delay"),
            std::string::npos);
}

// Inputs the prepared path cannot serve (catalog DDL, view queries)
// fail the session with a status instead of running.
TEST_F(ConcurrencyTest, UnpreparableInputReportsError) {
  auto sys = Build();
  FederationServer server(sys.get());
  server.Submit("CREATE MULTIDATABASE trip OF continental delta");
  auto results = server.RunAll();
  ASSERT_TRUE(results.ok()) << results.status();
  ASSERT_EQ(results->size(), 1u);
  EXPECT_FALSE((*results)[0].status.ok());
  EXPECT_FALSE((*results)[0].report.has_value());
}

// The server is reusable: a second batch on the same instance runs
// cleanly and the engines are back to serial service afterwards.
TEST_F(ConcurrencyTest, ServerReusableAcrossBatches) {
  auto sys = Build(/*seats=*/32);
  const int64_t base_cont = Count(
      *sys, "continental",
      "SELECT COUNT(*) FROM f838 WHERE seatstatus = 'TAKEN'");
  FederationServer server(sys.get());
  server.Submit(SeatMt("first1"));
  server.Submit(SeatMt("first2"));
  auto batch1 = server.RunAll();
  ASSERT_TRUE(batch1.ok());
  server.Submit(SeatMt("second1"));
  server.Submit(SeatMt("second2"));
  auto batch2 = server.RunAll();
  ASSERT_TRUE(batch2.ok());
  ASSERT_EQ(batch2->size(), 2u);
  for (const SessionResult& r : *batch2) {
    ASSERT_TRUE(r.report.has_value()) << r.status;
    EXPECT_EQ(r.report->outcome, GlobalOutcome::kSuccess);
  }
  ExpectNoHeldLocks(*sys);
  // Engines still serve the plain serial path.
  auto serial = sys->Execute(SeatMt("after"));
  ASSERT_TRUE(serial.ok()) << serial.status();
  EXPECT_EQ(serial->outcome, GlobalOutcome::kSuccess);
  EXPECT_EQ(Count(*sys, "continental",
                  "SELECT COUNT(*) FROM f838 WHERE seatstatus = 'TAKEN'"),
            base_cont + 5);
}

// Stepper regression: driving a prepared plan by hand through
// BeginRun/pending/Deliver reproduces DolEngine::Run outcome for
// outcome — same timeline, same traffic, same per-task verdicts.
TEST_F(ConcurrencyTest, ManualStepperLoopMatchesRun) {
  // The compiled plan, recovered from its printed DOL.
  auto plan_of = [](MultidatabaseSystem* sys) -> Result<dol::DolProgram> {
    MSQL_ASSIGN_OR_RETURN(AnalysisReport analysis,
                          sys->Analyze(SeatMt("norma")));
    return dol::ParseDol(analysis.dol_text);
  };
  auto ran = Build();
  auto program_run = plan_of(ran.get());
  ASSERT_TRUE(program_run.ok()) << program_run.status();
  dol::DolEngine run_engine(&ran->environment());
  auto by_run = run_engine.Run(*program_run);
  ASSERT_TRUE(by_run.ok()) << by_run.status();

  auto stepped = Build();
  auto program_step = plan_of(stepped.get());
  ASSERT_TRUE(program_step.ok()) << program_step.status();
  dol::DolEngine step_engine(&stepped->environment());
  ASSERT_TRUE(step_engine.BeginRun(*program_step, 0).ok());
  int steps = 0;
  while (!step_engine.done()) {
    const dol::DolEngine::PendingRpc* rpc = step_engine.pending();
    ASSERT_NE(rpc, nullptr);
    step_engine.Deliver(stepped->environment().Call(
        rpc->service, rpc->request, rpc->at));
    ++steps;
  }
  auto by_step = step_engine.TakeResult();
  ASSERT_TRUE(by_step.ok()) << by_step.status();
  EXPECT_GT(steps, 4);

  EXPECT_EQ(by_step->dol_status, by_run->dol_status);
  EXPECT_EQ(by_step->makespan_micros, by_run->makespan_micros);
  EXPECT_EQ(by_step->messages, by_run->messages);
  EXPECT_EQ(by_step->bytes, by_run->bytes);
  ASSERT_EQ(by_step->tasks.size(), by_run->tasks.size());
  for (const auto& [name, outcome] : by_run->tasks) {
    const dol::TaskOutcome* twin = by_step->FindTask(name);
    ASSERT_NE(twin, nullptr) << name;
    EXPECT_EQ(twin->state, outcome.state) << name;
    EXPECT_EQ(twin->start_micros, outcome.start_micros) << name;
    EXPECT_EQ(twin->end_micros, outcome.end_micros) << name;
  }
  EXPECT_EQ(by_step->ToString(), by_run->ToString());
}

// Sessions interleaved by the server keep their spans nested under
// their own session root even though the tracer is single-stacked.
TEST_F(ConcurrencyTest, InterleavedSessionsKeepSeparateSpanTrees) {
  auto sys = Build();
  sys->environment().tracer().set_enabled(true);
  sys->environment().tracer().Clear();
  FederationServer server(sys.get());
  server.Submit(SeatMt("alice"));
  server.Submit(SeatMt("bob"));
  auto results = server.RunAll();
  ASSERT_TRUE(results.ok()) << results.status();
  const obs::Tracer& tracer = sys->environment().tracer();
  uint64_t root1 = 0;
  uint64_t root2 = 0;
  for (const obs::Span& span : tracer.spans()) {
    if (span.name == "session:1") root1 = span.id;
    if (span.name == "session:2") root2 = span.id;
  }
  ASSERT_NE(root1, 0u);
  ASSERT_NE(root2, 0u);
  // Every span belongs to exactly one session subtree; walking parents
  // from any span must end at its own session root, never cross over.
  int under1 = 0;
  int under2 = 0;
  for (const obs::Span& span : tracer.spans()) {
    uint64_t cursor = span.id;
    while (true) {
      const obs::Span* node = tracer.FindSpan(cursor);
      ASSERT_NE(node, nullptr);
      if (node->parent == 0) break;
      cursor = node->parent;
    }
    if (cursor == root1) ++under1;
    if (cursor == root2) ++under2;
  }
  EXPECT_GT(under1, 1);
  EXPECT_GT(under2, 1);
}

}  // namespace
}  // namespace msql::core
