// E16 stress: randomized mixed workloads of 100+ concurrent sessions
// (seat-booking multitransactions, deadlock-prone opposite-order
// multitransactions, read queries) driven through the federation
// server under fixed seeds, plus a chaos variant with local-engine
// failure injection. Checks global invariants rather than goldens:
// every session terminates, committed effects are exactly-once (no
// lost updates), aborts leave no residue (no orphaned locks), and the
// federation stays serviceable afterwards. Runs under ASan/UBSan via
// the asan-ubsan preset.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/fixtures.h"
#include "core/mdbs_system.h"
#include "core/session_scheduler.h"

namespace msql::core {
namespace {

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

int64_t Count(MultidatabaseSystem& sys, const std::string& db,
              const std::string& sql) {
  auto engine = *sys.GetEngine(PaperServiceOf(db));
  auto session = *engine->OpenSession(db);
  auto rs = engine->Execute(session, sql);
  EXPECT_TRUE(rs.ok()) << rs.status();
  int64_t out = rs.ok() ? rs->rows[0][0].AsInteger() : 0;
  EXPECT_TRUE(engine->CloseSession(session).ok());
  return out;
}

int64_t TakenOn(MultidatabaseSystem& sys) {
  return Count(sys, "continental",
               "SELECT COUNT(*) FROM f838 WHERE seatstatus = 'TAKEN'");
}

int64_t TakenDelta(MultidatabaseSystem& sys) {
  return Count(sys, "delta",
               "SELECT COUNT(*) FROM fnu747 WHERE sstat = 'TAKEN'");
}

void ExpectNoHeldLocks(MultidatabaseSystem& sys) {
  for (const auto& name : sys.environment().ServiceNames()) {
    auto lam = sys.environment().GetLam(name);
    ASSERT_TRUE(lam.ok());
    EXPECT_EQ((*lam)->engine()->lock_manager().locked_resource_count(), 0)
        << "service " << name << " still holds locks";
  }
}

struct Mix {
  int sessions = 120;
  double seat_fraction = 0.6;
  double ordered_fraction = 0.2;  // remainder are read queries
  double engine_failure_p = 0.0;
};

void RunMixedWorkload(uint64_t seed, const Mix& mix) {
  SCOPED_TRACE("seed=" + std::to_string(seed));
  PaperFederationOptions options;
  options.seats_per_airline = 2 * mix.sessions;
  auto built = BuildPaperFederation(options);
  ASSERT_TRUE(built.ok()) << built.status();
  auto sys = std::move(*built);
  // Baselines before arming chaos: a failing engine also fails the
  // bookkeeping SELECTs.
  const int64_t base_cont = TakenOn(*sys);
  const int64_t base_delta = TakenDelta(*sys);
  if (mix.engine_failure_p > 0.0) {
    auto lam = *sys->environment().GetLam(PaperServiceOf("delta"));
    lam->engine()->SetFailureProbability(mix.engine_failure_p, seed);
  }

  Rng rng(seed);
  FederationServer server(sys.get());
  std::vector<bool> is_seat_mt;  // by session index
  for (int i = 0; i < mix.sessions; ++i) {
    const std::string client =
        "s" + std::to_string(seed) + "_" + std::to_string(i);
    const double roll = rng.NextDouble();
    if (roll < mix.seat_fraction) {
      server.Submit(SeatMt(client));
      is_seat_mt.push_back(true);
    } else if (roll < mix.seat_fraction + mix.ordered_fraction) {
      server.Submit(OrderedSeatMt(rng.NextBool(0.5), client));
      is_seat_mt.push_back(true);
    } else {
      server.Submit("USE continental\nSELECT flnu FROM flights");
      is_seat_mt.push_back(false);
    }
  }

  auto results = server.RunAll();
  ASSERT_TRUE(results.ok()) << results.status();
  ASSERT_EQ(results->size(), static_cast<size_t>(mix.sessions));

  int64_t committed_mts = 0;
  int64_t partial_mts = 0;  // INCORRECT: committed at one site only
  int64_t aborted = 0;
  int64_t lock_waits = 0;
  for (int i = 0; i < mix.sessions; ++i) {
    const SessionResult& r = (*results)[i];
    // Terminates: every session ends with a report or a hard status —
    // never silently hangs or disappears.
    ASSERT_TRUE(r.report.has_value() || !r.status.ok())
        << "session " << r.session_id << " has neither report nor error";
    lock_waits += r.lock_waits;
    if (!r.report.has_value()) continue;
    if (r.report->outcome == GlobalOutcome::kAborted) ++aborted;
    if (!is_seat_mt[i]) {
      EXPECT_EQ(r.report->outcome, GlobalOutcome::kSuccess)
          << "read query " << r.session_id << " should never conflict";
      continue;
    }
    if (r.report->outcome == GlobalOutcome::kSuccess) ++committed_mts;
    if (r.report->outcome == GlobalOutcome::kIncorrect) ++partial_mts;
  }
  // Disarm chaos before the bookkeeping SELECTs below.
  if (mix.engine_failure_p > 0.0) {
    auto lam = *sys->environment().GetLam(PaperServiceOf("delta"));
    lam->engine()->SetFailureProbability(0.0, seed);
  }
  // Exactly-once accounting: each committed multitransaction took one
  // seat on each airline and aborted ones took none (atomicity of the
  // vital-vital commit groups). An INCORRECT outcome is the paper's
  // post-decision partial commit: with faults injected only at delta,
  // such a session committed its continental seat and lost its delta
  // one — and the report says so.
  EXPECT_EQ(TakenOn(*sys) - base_cont, committed_mts + partial_mts);
  EXPECT_EQ(TakenDelta(*sys) - base_delta, committed_mts);
  if (mix.engine_failure_p == 0.0) {
    EXPECT_EQ(partial_mts, 0);
  }
  // The workload actually contended.
  EXPECT_GT(lock_waits, 0);
  if (mix.engine_failure_p == 0.0) {
    // Without injected faults the only abort source is deadlock
    // victimhood / lock timeouts, and most sessions must commit.
    EXPECT_GT(committed_mts, mix.sessions / 2);
    for (const SessionResult& r : *results) {
      if (r.report.has_value() &&
          r.report->outcome == GlobalOutcome::kAborted) {
        EXPECT_TRUE(r.deadlock_victim || r.lock_timeout)
            << "session " << r.session_id
            << " aborted without a concurrency cause: "
            << r.report->detail.ToString();
      }
    }
  }
  // No residue: every lock released, every engine back to serial duty.
  ExpectNoHeldLocks(*sys);
  auto after = sys->Execute(SeatMt("post_" + std::to_string(seed)));
  ASSERT_TRUE(after.ok()) << after.status();
  EXPECT_EQ(after->outcome, GlobalOutcome::kSuccess);
}

class ConcurrencyStressTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ConcurrencyStressTest, MixedWorkloadHoldsInvariants) {
  RunMixedWorkload(GetParam(), Mix{});
}

TEST_P(ConcurrencyStressTest, ChaosFaultsLeaveNoResidue) {
  Mix mix;
  mix.sessions = 100;
  mix.engine_failure_p = 0.05;
  RunMixedWorkload(GetParam(), mix);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConcurrencyStressTest,
                         ::testing::Values(7u, 21u, 1993u));

}  // namespace
}  // namespace msql::core
