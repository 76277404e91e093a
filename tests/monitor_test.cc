// Federation monitor: window accounting, SLO budgets, deterministic
// alerting, EWMA drift, dashboard determinism, and the adaptive
// admission feedback loop under chaos (DESIGN.md §16).
#include "obs/monitor.h"

#include <string>
#include <vector>

#include "common/rng.h"
#include "core/fixtures.h"
#include "core/mdbs_system.h"
#include "core/session_scheduler.h"
#include "gtest/gtest.h"
#include "netsim/fault_injector.h"
#include "obs/health.h"
#include "obs/metrics.h"
#include "obs/query_log.h"

namespace msql::obs {
namespace {

MonitorConfig SmallConfig() {
  MonitorConfig config;
  config.window_micros = 100;
  config.budget_horizon_windows = 10;
  config.slo_budget_fraction = 0.2;  // allowed = 2
  config.recover_after_clean_windows = 2;
  return config;
}

Monitor::SessionSample Sample(int64_t finish, int64_t makespan, bool ok) {
  Monitor::SessionSample s;
  s.finish_micros = finish;
  s.makespan_micros = makespan;
  s.ok = ok;
  return s;
}

// -- Window accounting ------------------------------------------------------

TEST(MonitorWindows, EmptyWindowsSkipLatencyAndErrorRules) {
  MonitorConfig config = SmallConfig();
  config.slo_p99_latency_micros = 50;
  config.slo_max_error_rate = 0.0;
  config.slo_sites_reachable = false;
  Monitor monitor(config, nullptr, nullptr);

  monitor.AdvanceTo(1000);  // ten empty windows
  EXPECT_EQ(monitor.windows_closed(), 10);
  EXPECT_TRUE(monitor.alerts().empty());
  for (const SloStatus& slo : monitor.SloStatuses()) {
    EXPECT_EQ(slo.state, "ok") << slo.name;
    EXPECT_EQ(slo.violations_in_horizon, 0) << slo.name;
  }
  EXPECT_FALSE(monitor.shedding());
}

TEST(MonitorWindows, SessionsLandInTheRightWindow) {
  Monitor monitor(SmallConfig(), nullptr, nullptr);
  monitor.RecordSession(Sample(10, 40, true));
  monitor.RecordSession(Sample(150, 60, false));  // closes window 1
  monitor.AdvanceTo(200);                          // closes window 2
  ASSERT_EQ(monitor.windows().size(), 2u);
  const MonitorWindow& w1 = monitor.windows()[0];
  EXPECT_EQ(w1.seq, 1);
  EXPECT_EQ(w1.sessions_finished, 1);
  EXPECT_EQ(w1.sessions_ok, 1);
  EXPECT_EQ(w1.error_rate, 0.0);
  const MonitorWindow& w2 = monitor.windows()[1];
  EXPECT_EQ(w2.sessions_finished, 1);
  EXPECT_EQ(w2.sessions_error, 1);
  EXPECT_EQ(w2.error_rate, 1.0);
}

TEST(MonitorWindows, FlushClosesOnlyNonEmptyPartialWindows) {
  Monitor monitor(SmallConfig(), nullptr, nullptr);
  monitor.Flush(50);  // partial, no sessions — nothing to keep
  EXPECT_EQ(monitor.windows_closed(), 0);
  monitor.RecordSession(Sample(10, 5, true));
  monitor.Flush(50);  // partial with a session — closed early at 50
  ASSERT_EQ(monitor.windows_closed(), 1);
  EXPECT_EQ(monitor.windows().back().end_micros, 50);
}

TEST(MonitorWindows, RingEvictsBeyondCapacity) {
  MonitorConfig config = SmallConfig();
  config.capacity = 4;
  Monitor monitor(config, nullptr, nullptr);
  monitor.AdvanceTo(100 * 10);
  EXPECT_EQ(monitor.windows_closed(), 10);
  ASSERT_EQ(monitor.windows().size(), 4u);
  EXPECT_EQ(monitor.windows().front().seq, 7);  // oldest surviving
  EXPECT_EQ(monitor.windows().back().seq, 10);
}

// -- Budget accounting ------------------------------------------------------

TEST(MonitorBudget, ExactlyAllowedViolationsBurnsWithoutExhausting) {
  MonitorConfig config = SmallConfig();  // allowed = 2
  config.slo_max_error_rate = 0.4;
  Monitor monitor(config, nullptr, nullptr);

  // Two violating windows: exactly the allowed budget.
  monitor.RecordSession(Sample(10, 5, false));
  monitor.RecordSession(Sample(110, 5, false));
  monitor.AdvanceTo(200);
  const SloStatus error_rate = monitor.SloStatuses()[1];
  EXPECT_EQ(error_rate.name, "error_rate");
  EXPECT_EQ(error_rate.violations_in_horizon, 2);
  EXPECT_EQ(error_rate.allowed_in_horizon, 2);
  EXPECT_EQ(error_rate.state, "burning");
  EXPECT_FALSE(monitor.shedding());
}

TEST(MonitorBudget, OneBeyondAllowedExhaustsAndSheds) {
  MonitorConfig config = SmallConfig();
  config.slo_max_error_rate = 0.4;
  Monitor monitor(config, nullptr, nullptr);

  for (int w = 0; w < 3; ++w) {
    monitor.RecordSession(Sample(10 + 100 * w, 5, false));
  }
  monitor.AdvanceTo(300);
  const SloStatus error_rate = monitor.SloStatuses()[1];
  EXPECT_EQ(error_rate.violations_in_horizon, 3);
  EXPECT_EQ(error_rate.state, "exhausted");
  EXPECT_TRUE(monitor.shedding());
  EXPECT_EQ(monitor.shed_engagements(), 1);

  // The alert stream brackets: threshold raise, budget burning, budget
  // exhausted, admission shed — in that order.
  std::vector<std::string> rules;
  for (const AlertEvent& alert : monitor.alerts()) rules.push_back(alert.rule);
  ASSERT_EQ(rules.size(), 4u);
  EXPECT_EQ(rules[0], "slo.error_rate");
  EXPECT_EQ(rules[1], "budget.error_rate");
  EXPECT_EQ(rules[2], "budget.error_rate");
  EXPECT_EQ(rules[3], "admission.shed");
  EXPECT_EQ(monitor.alerts()[2].severity, "critical");
}

TEST(MonitorBudget, ShedReleasesAfterCleanWindowsOnceBudgetRecovers) {
  MonitorConfig config = SmallConfig();
  config.budget_horizon_windows = 4;  // allowed = max(1, 0.8) = 1
  config.slo_max_error_rate = 0.4;
  Monitor monitor(config, nullptr, nullptr);

  monitor.RecordSession(Sample(10, 5, false));
  monitor.RecordSession(Sample(110, 5, false));
  monitor.AdvanceTo(200);
  ASSERT_TRUE(monitor.shedding());  // 2 violations > 1 allowed

  // Clean windows age the violations out of the 4-window horizon; once
  // the budget is no longer exhausted and the clean streak is long
  // enough, shedding releases.
  for (int w = 2; w < 8; ++w) {
    monitor.RecordSession(Sample(10 + 100 * w, 5, true));
  }
  monitor.AdvanceTo(800);
  EXPECT_FALSE(monitor.shedding());
  bool released = false;
  for (const AlertEvent& alert : monitor.alerts()) {
    if (alert.rule == "admission.shed" && !alert.fired) released = true;
  }
  EXPECT_TRUE(released);
}

// -- Threshold alerts -------------------------------------------------------

TEST(MonitorAlerts, ThresholdRaisesOnceAndResolves) {
  MonitorConfig config = SmallConfig();
  config.slo_p99_latency_micros = 50;
  Monitor monitor(config, nullptr, nullptr);

  monitor.RecordSession(Sample(10, 500, true));   // violates
  monitor.RecordSession(Sample(110, 600, true));  // still violating: no dup
  monitor.RecordSession(Sample(210, 10, true));   // resolves
  monitor.AdvanceTo(300);

  int raises = 0, resolves = 0;
  for (const AlertEvent& alert : monitor.alerts()) {
    if (alert.rule != "slo.p99_latency_us") continue;
    if (alert.fired) {
      ++raises;
    } else {
      ++resolves;
    }
  }
  EXPECT_EQ(raises, 1);
  EXPECT_EQ(resolves, 1);
}

TEST(MonitorAlerts, AlertJsonIsPinnedByteForByte) {
  MonitorConfig config = SmallConfig();
  config.slo_max_error_rate = 0.2;
  Monitor monitor(config, nullptr, nullptr);
  monitor.RecordSession(Sample(10, 5, false));
  monitor.AdvanceTo(100);
  ASSERT_FALSE(monitor.alerts().empty());
  EXPECT_EQ(monitor.alerts()[0].ToJson(),
            "{\"event\":\"alert\",\"at_micros\":100,\"window\":1,"
            "\"rule\":\"slo.error_rate\",\"kind\":\"threshold\","
            "\"severity\":\"warn\",\"fired\":true,\"value\":1,"
            "\"limit\":0.2000,"
            "\"detail\":\"error_rate above 0.2000 in window 1\"}");
}

TEST(MonitorAlerts, AlertsFlowIntoTheQueryLogEventStream) {
  QueryLog log;
  log.set_enabled(true);
  MonitorConfig config = SmallConfig();
  config.slo_max_error_rate = 0.2;
  Monitor monitor(config, nullptr, nullptr);
  monitor.set_query_log(&log);
  monitor.RecordSession(Sample(10, 5, false));
  monitor.AdvanceTo(100);
  const std::string jsonl = log.ToJsonl();
  EXPECT_NE(jsonl.find("\"event\":\"alert\""), std::string::npos);
  EXPECT_NE(jsonl.find("slo.error_rate"), std::string::npos);
}

// -- EWMA drift -------------------------------------------------------------

TEST(MonitorEwma, FirstSampleSeedsWithoutFiring) {
  MonitorConfig config = SmallConfig();
  config.ewma_min_windows = 1;
  Monitor monitor(config, nullptr, nullptr);
  monitor.RecordSession(Sample(10, 1'000'000, true));  // huge first sample
  monitor.AdvanceTo(100);
  for (const AlertEvent& alert : monitor.alerts()) {
    EXPECT_NE(alert.kind, "ewma") << alert.rule;
  }
}

TEST(MonitorEwma, DriftFiresAfterWarmupAndResolvesOnReturn) {
  MonitorConfig config = SmallConfig();
  config.ewma_min_windows = 3;
  config.ewma_drift_factor = 3.0;
  Monitor monitor(config, nullptr, nullptr);

  // Warmup: five flat windows at ~1000us.
  for (int w = 0; w < 5; ++w) {
    monitor.RecordSession(Sample(10 + 100 * w, 1000, true));
  }
  monitor.AdvanceTo(500);
  for (const AlertEvent& alert : monitor.alerts()) {
    EXPECT_NE(alert.kind, "ewma");
  }

  // 100x spike: way beyond 3 * max(deviation, 5% of mean).
  monitor.RecordSession(Sample(510, 100'000, true));
  monitor.AdvanceTo(600);
  bool raised = false;
  for (const AlertEvent& alert : monitor.alerts()) {
    if (alert.rule == "ewma.p99_latency_us" && alert.fired) raised = true;
  }
  EXPECT_TRUE(raised);

  // Settle back near the (now pulled-up) mean: eventually resolves.
  bool resolved = false;
  for (int w = 6; w < 16; ++w) {
    monitor.RecordSession(Sample(10 + 100 * w, 1000, true));
  }
  monitor.AdvanceTo(1600);
  for (const AlertEvent& alert : monitor.alerts()) {
    if (alert.rule == "ewma.p99_latency_us" && !alert.fired) resolved = true;
  }
  EXPECT_TRUE(resolved);
}

// -- Golden determinism -----------------------------------------------------

/// Feeds one deterministic session pattern into a monitor.
void FeedPattern(Monitor* monitor) {
  Rng rng(42);
  for (int i = 0; i < 200; ++i) {
    Monitor::SessionSample s;
    s.finish_micros = 5 + i * 17;
    s.makespan_micros = 50 + static_cast<int64_t>(rng.NextDouble() * 400);
    s.ok = !rng.NextBool(0.3);
    s.deadlock_victim = rng.NextBool(0.05);
    monitor->RecordSession(s);
  }
  monitor->SetGauge("sessions.active", 7);
  monitor->Flush(4000);
}

TEST(MonitorGolden, DashboardAndAlertsAreByteIdenticalAcrossRuns) {
  MonitorConfig config = SmallConfig();
  config.slo_p99_latency_micros = 400;
  config.slo_max_error_rate = 0.35;
  config.slo_max_deadlock_victims = 0;
  Monitor a(config, nullptr, nullptr);
  Monitor b(config, nullptr, nullptr);
  FeedPattern(&a);
  FeedPattern(&b);
  ASSERT_GT(a.alerts().size(), 0u);
  EXPECT_EQ(a.RenderDashboardText(), b.RenderDashboardText());
  EXPECT_EQ(a.RenderDashboardJson(), b.RenderDashboardJson());
  EXPECT_EQ(a.AlertsJsonl(), b.AlertsJsonl());

  // And the dashboard header itself is pinned.
  const std::string text = a.RenderDashboardText();
  EXPECT_NE(text.find("federation monitor  window=100us  horizon=10  "
                      "budget=2/10"),
            std::string::npos);
  EXPECT_NE(text.find("slo                  state      last        limit"
                      "  budget(viol/allow)  total"),
            std::string::npos);
}

TEST(MonitorGolden, CounterTracksMirrorTheWindowSeries) {
  Monitor monitor(SmallConfig(), nullptr, nullptr);
  FeedPattern(&monitor);
  const auto tracks = monitor.CounterTracks();
  ASSERT_EQ(tracks.size(), 6u);
  EXPECT_EQ(tracks[0].name, "monitor.sessions_finished");
  EXPECT_EQ(tracks[0].points.size(), monitor.windows().size());
  int64_t total = 0;
  for (const auto& [ts, value] : tracks[0].points) {
    total += static_cast<int64_t>(value);
  }
  EXPECT_EQ(total, 200);
}

// -- Health snapshot / JSON (satellite wiring) ------------------------------

TEST(MonitorHealth, RenderJsonAgreesWithSnapshot) {
  HealthRegistry health;
  health.Record("alpha_svc", "site_a", true, false, false, 120);
  health.Record("alpha_svc", "site_a", false, true, false, 90'000);
  health.Record("beta_svc", "site_b", true, false, false, 200);
  const HealthSnapshot snapshot = health.Snapshot();
  ASSERT_EQ(snapshot.services.size(), 2u);
  EXPECT_EQ(snapshot.services[0].service, "alpha_svc");
  EXPECT_EQ(snapshot.degraded, 1);

  const std::string json = health.RenderJson();
  EXPECT_NE(json.find("\"service\":\"alpha_svc\""), std::string::npos);
  EXPECT_NE(json.find("\"state\":\"degraded\""), std::string::npos);
  EXPECT_NE(json.find("\"degraded\":1,\"unreachable\":0}"),
            std::string::npos);
}

TEST(MonitorHealth, UnreachableSiteViolatesTheSitesSlo) {
  HealthRegistry health;
  for (int i = 0; i < 4; ++i) {
    health.Record("down_svc", "site_d", false, false, true, 0);
  }
  MonitorConfig config = SmallConfig();
  Monitor monitor(config, nullptr, &health);
  monitor.AdvanceTo(100);
  const SloStatus sites = monitor.SloStatuses()[4];
  EXPECT_EQ(sites.name, "sites_unreachable");
  EXPECT_EQ(sites.violations_in_horizon, 1);
  bool raised = false;
  for (const AlertEvent& alert : monitor.alerts()) {
    if (alert.rule == "slo.sites_unreachable" && alert.fired) raised = true;
  }
  EXPECT_TRUE(raised);
}

// -- Adaptive admission under chaos -----------------------------------------

std::string BookingMt(bool continental_first, const std::string& client) {
  std::string continental =
      "USE continental\n"
      "UPDATE f838 SET seatstatus = 'TAKEN', clientname = '" + client +
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

class MonitorChaosTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MonitorChaosTest, EveryShedSessionTerminatesWithAWellFormedReport) {
  const uint64_t seed = GetParam();
  msql::core::PaperFederationOptions options;
  options.seats_per_airline = 64;
  auto built = msql::core::BuildPaperFederation(options);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  auto sys = std::move(*built);

  // Degraded site + random rejections: both chaos modes at once.
  msql::netsim::FaultPlan plan;
  plan.seed = seed;
  plan.rules.push_back(
      msql::netsim::FaultRule::Spike("continental_svc", 15'000));
  plan.rules.push_back(msql::netsim::FaultRule::Random(
      "delta_svc", std::nullopt, 0.05, msql::netsim::FaultAction::kReject));
  sys->environment().fault_injector().SetPlan(plan);

  msql::core::ServerConfig config;
  config.max_admitted = 8;
  config.adaptive_admission = true;
  msql::core::FederationServer server(sys.get(), config);

  MonitorConfig mon_config;
  mon_config.window_micros = 50'000;
  mon_config.slo_max_deadlock_victims = 0;
  mon_config.slo_max_error_rate = 0.5;
  mon_config.budget_horizon_windows = 8;
  mon_config.slo_budget_fraction = 0.1;
  Monitor monitor(mon_config, &sys->environment().metrics(),
                  &sys->environment().health());
  server.set_monitor(&monitor);

  Rng rng(seed);
  const int kSessions = 24;
  for (int i = 0; i < kSessions; ++i) {
    server.Submit(BookingMt(rng.NextBool(0.5), "c" + std::to_string(i)));
  }
  auto results = server.RunAll();
  ASSERT_TRUE(results.ok()) << results.status().ToString();
  ASSERT_EQ(results->size(), static_cast<size_t>(kSessions));

  int64_t shed = 0;
  for (size_t i = 0; i < results->size(); ++i) {
    const msql::core::SessionResult& r = (*results)[i];
    // Well-formed: every session either carries a full report or a
    // non-OK status explaining why it never produced one.
    EXPECT_TRUE(r.report.has_value() || !r.status.ok())
        << "session " << i << " has neither report nor error";
    if (r.admission_shed) {
      ++shed;
      // The decision trail: a shed session records how long admission
      // held it back, and still ran to a terminal outcome.
      EXPECT_GE(r.shed_wait_micros, 0);
      EXPECT_TRUE(r.report.has_value() || !r.status.ok());
    }
    EXPECT_GE(r.makespan_micros, 0);
  }
  // The monitor saw every finished session.
  monitor.Flush(server.virtual_now());
  int64_t seen = 0;
  for (const MonitorWindow& w : monitor.windows()) {
    seen += w.sessions_finished;
  }
  EXPECT_EQ(seen, kSessions);
  // Consistency: shed sessions exist iff shedding ever engaged.
  if (shed > 0) {
    EXPECT_GT(monitor.shed_engagements(), 0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MonitorChaosTest,
                         ::testing::Values(7u, 21u, 1993u));

TEST(MonitorAdaptive, MonitorDoesNotPerturbTheSimulationWhenNotShedding) {
  // Same batch with and without an attached monitor (adaptive off):
  // virtual makespans must be identical — observation is free on the
  // simulated clock.
  int64_t makespans[2] = {0, 0};
  for (int pass = 0; pass < 2; ++pass) {
    msql::core::SyntheticFederationOptions options;
    options.n_databases = 4;
    options.rows_per_table = 16;
    auto built = msql::core::BuildSyntheticFederation(options);
    ASSERT_TRUE(built.ok());
    auto sys = std::move(*built);
    msql::core::FederationServer server(sys.get(), {});
    MonitorConfig mon_config;
    mon_config.window_micros = 10'000;
    Monitor monitor(mon_config, &sys->environment().metrics(),
                    &sys->environment().health());
    if (pass == 1) server.set_monitor(&monitor);
    for (int i = 0; i < 40; ++i) {
      const int db = i % options.n_databases;
      server.Submit("USE db" + std::to_string(db) +
                    "\nSELECT fno FROM flight" + std::to_string(db));
    }
    auto results = server.RunAll();
    ASSERT_TRUE(results.ok());
    makespans[pass] = server.virtual_now();
  }
  EXPECT_EQ(makespans[0], makespans[1]);
}

}  // namespace
}  // namespace msql::obs
