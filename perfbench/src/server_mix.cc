// server_mix: core::FederationServer with conflict-aware admission over
// the 8-database synthetic federation (256 rows per table, every LDBS
// serving at most 8 requests at once). max_admitted = 256 acts as 256
// simulated clients in a closed loop draining a fixed backlog that is
// submitted all at once. The backlog size is part of the workload: the
// scheduler's cost grows faster than the backlog, so it never changes
// between commits.
//
// A round builds a fresh federation, submits the backlog (the timed
// set-up) and times RunAll. Every session must end with a report, VITAL
// and multitransaction outcomes must match their verdicts, and the
// committed increments must equal the change of every table's SUM(rate).
#include <algorithm>
#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "core/fixtures.h"
#include "core/mdbs_system.h"
#include "core/session_scheduler.h"
#include "span_ledger.h"

namespace perfbench {
namespace {

using msql::Rng;
using msql::core::GlobalOutcome;
using msql::core::MultidatabaseSystem;
using msql::core::SessionResult;
using msql::dol::DolTaskState;

constexpr int kDatabases = 8;
constexpr int kRowsPerTable = 256;
constexpr int kServiceConcurrency = 8;
constexpr int kMaxAdmitted = 256;

enum class Kind { kPointRead, kFlightRead, kUpdateMt, kVitalPair };
constexpr const char* kKindNames[] = {"point_read", "flight_pct_read",
                                      "update_mt", "vital_pair"};

bool IsWrite(Kind kind) {
  return kind == Kind::kUpdateMt || kind == Kind::kVitalPair;
}

struct Session {
  Kind kind = Kind::kPointRead;
  std::string text;
};

std::string Db(int i) { return "db" + std::to_string(i); }

/// Seed of the backlog's shape: which kind, database and key each
/// session has, in submit order. Random shapes differ by 2-4x in
/// scheduler work (deferral cascades, deadlock victims), which would
/// drown any change under test, so the shape is part of the workload.
constexpr uint64_t kShapeSeed = 1993;

/// The backlog: exactly 80% point reads, 15% flight% reads, 2.5% update
/// multitransactions and 2.5% VITAL pairs, block-shuffled, (database,
/// key) choices stratified. Keys come from a small domain (fno 0-15), so
/// most texts repeat and writes contend. `seed` relabels the keys with a
/// permutation of 0-15: every row exists and costs the same, so each
/// seed runs an isomorphic backlog with different texts.
std::vector<Session> GenerateBacklog(uint64_t seed, int count) {
  Rng rng(kShapeSeed);
  Rng relabel(seed * 0xD1B54A32D192ED03ULL + 5);
  int key_of[16];
  for (int k = 0; k < 16; ++k) key_of[k] = k;
  for (int k = 15; k > 0; --k) {
    std::swap(key_of[k], key_of[relabel.NextBelow(k + 1)]);
  }
  std::vector<Session> backlog;
  backlog.reserve(count);
  const std::vector<int> kinds = BlockShuffledMix({32, 6, 1, 1}, count, &rng);
  int per_kind[4] = {};
  for (int kind : kinds) ++per_kind[kind];
  Stratified picks[4] = {{per_kind[0], &rng},
                         {per_kind[1], &rng},
                         {per_kind[2], &rng},
                         {per_kind[3], &rng}};
  for (int i = 0; i < count; ++i) {
    Session s;
    s.kind = static_cast<Kind>(kinds[i]);
    // (database or database group, key) as one index: key = pick % 16.
    const int pick = picks[kinds[i]].Index(s.kind == Kind::kFlightRead
                                               ? 2 * 16
                                               : kDatabases * 16);
    const std::string key = std::to_string(key_of[pick % 16]);
    const int db = pick / 16;
    switch (s.kind) {
      case Kind::kPointRead:
        s.text = "USE " + Db(db) + "\nSELECT fno, rate FROM flight" +
                 std::to_string(db) + " WHERE fno = " + key;
        break;
      case Kind::kFlightRead: {
        const int first = 4 * db;
        s.text = "USE " + Db(first) + " " + Db(first + 1) + " " +
                 Db(first + 2) + " " + Db(first + 3) +
                 "\nSELECT fno, rate FROM flight% WHERE fno = " + key;
        break;
      }
      case Kind::kUpdateMt:
        s.text = "BEGIN MULTITRANSACTION\nUSE " + Db(db) +
                 "\nUPDATE flight" + std::to_string(db) +
                 " SET rate = rate + 1 WHERE fno = " + key + ";\nCOMMIT\n  " +
                 Db(db) + "\nEND MULTITRANSACTION";
        break;
      case Kind::kVitalPair: {
        // Two-database VITAL update, issued in both database orders so
        // that deadlock-prone pairs exist.
        const int low = 2 * (db / 2);
        const int a = db % 2 == 0 ? low : low + 1;
        const int b = db % 2 == 0 ? low + 1 : low;
        s.text = "USE " + Db(a) + " VITAL " + Db(b) +
                 " VITAL\nUPDATE flight% SET rate = rate + 1 WHERE fno = " +
                 key;
        break;
      }
    }
    backlog.push_back(std::move(s));
  }
  return backlog;
}

/// SUM(rate) of every table, read directly from the local engines.
bool TableSums(MultidatabaseSystem* sys, std::vector<double>* sums) {
  sums->assign(kDatabases, 0.0);
  for (int i = 0; i < kDatabases; ++i) {
    auto engine = sys->GetEngine(Db(i) + "_svc");
    if (!engine.ok()) return false;
    auto session = (*engine)->OpenSession(Db(i));
    if (!session.ok()) return false;
    auto rs = (*engine)->Execute(
        *session, "SELECT SUM(rate) FROM flight" + std::to_string(i));
    (void)(*engine)->CloseSession(*session);
    if (!rs.ok() || rs->rows.size() != 1) return false;
    (*sums)[i] = rs->rows[0][0].NumericAsReal();
  }
  return true;
}

/// Checks one session against the paper's rules; returns "" when fine.
/// Adds its committed increments to `committed` (per database).
std::string CheckSession(const Session& s, const SessionResult& r,
                         std::vector<double>* committed) {
  if (!r.status.ok()) return "session error: " + r.status.ToString();
  if (!r.report.has_value()) return "session ended without a report";
  const auto& report = *r.report;
  if (s.kind == Kind::kPointRead || s.kind == Kind::kFlightRead) {
    if (report.outcome == GlobalOutcome::kAborted) return "";  // a victim
    if (report.outcome != GlobalOutcome::kSuccess) return "read not SUCCESS";
    const size_t want = s.kind == Kind::kPointRead ? 1 : 4;
    if (report.multitable.size() != want ||
        report.multitable.TotalRows() != want) {
      return "read returned the wrong number of rows";
    }
    return "";
  }
  int commits = 0;
  for (const auto& verdict : report.verdicts) {
    if (verdict.state != DolTaskState::kCommitted) continue;
    ++commits;
    const int db = std::stoi(verdict.database.substr(2));
    (*committed)[db] += 1.0;
  }
  const int members = s.kind == Kind::kVitalPair ? 2 : 1;
  // VITAL rule / single acceptable state: success iff every member
  // committed, otherwise none did.
  if (report.outcome == GlobalOutcome::kSuccess) {
    return commits == members ? "" : "SUCCESS without every member committed";
  }
  if (report.outcome == GlobalOutcome::kAborted) {
    return commits == 0 ? "" : "ABORTED with a committed member";
  }
  return "write ended " +
         std::string(msql::core::GlobalOutcomeName(report.outcome));
}

bool RunRound(const Options& options, const std::vector<Session>& backlog,
              bool traced, bool corrupt, SpanLedger* ledger,
              RunRecord* record, Round* out) {
  const int64_t setup_start = NowNanos();
  msql::core::SyntheticFederationOptions fixture;
  fixture.n_databases = kDatabases;
  fixture.rows_per_table = kRowsPerTable;
  // The seed also draws the link latency (1000-1049 us), so simulated
  // metrics are a function of the seed, not constants of the code.
  fixture.link_latency_micros = 1000 + static_cast<int64_t>(options.seed % 50);
  auto built = msql::core::BuildSyntheticFederation(fixture);
  record->Check(built.ok(), "BuildSyntheticFederation failed");
  if (!built.ok()) return false;
  MultidatabaseSystem* sys = built->get();
  auto& env = sys->environment();
  for (int i = 0; i < kDatabases; ++i) {
    (void)env.SetServiceConcurrency(Db(i) + "_svc", kServiceConcurrency);
  }
  std::vector<double> before;
  const bool sums_ok = TableSums(sys, &before);
  record->Check(sums_ok, "initial table sums unreadable");
  if (!sums_ok) return false;
  msql::core::ServerConfig config;
  config.max_admitted = kMaxAdmitted;
  config.conflict_aware = true;
  msql::core::FederationServer server(sys, config);
  for (const Session& s : backlog) server.Submit(s.text);
  out->setup_s = SecondsSince(setup_start);
  env.tracer().set_enabled(traced);
  env.metrics().set_enabled(traced);

  const int64_t start = NowNanos();
  auto results = server.RunAll();
  const int64_t end = NowNanos();
  out->work_s = static_cast<double>(end - start) / 1e9;
  if (traced) {
    // Pitfall 1: only spans that close without yielding are attributed;
    // what they leave uncovered of RunAll is the scheduler's share.
    ledger->Absorb(env.tracer(), start, end, /*yield_safe_only=*/true);
    if (const auto* queue = env.metrics().GetHistogram("lam.queue_micros")) {
      out->counts["lam_queue_p99_us"] =
          static_cast<double>(queue->Quantile(0.99));
    }
    out->counts["index_probes"] =
        static_cast<double>(env.metrics().Get("sql.index_probes"));
  }
  record->Check(results.ok() && results->size() == backlog.size(),
                "RunAll did not return one result per session");
  if (!results.ok() || results->size() != backlog.size()) return false;

  std::vector<double> committed(kDatabases, 0.0);
  for (size_t i = 0; i < backlog.size(); ++i) {
    const SessionResult& r = (*results)[i];
    const std::string error = CheckSession(backlog[i], r, &committed);
    record->Check(error.empty(),
                  std::string(kKindNames[static_cast<int>(backlog[i].kind)]) +
                      ": " + error);
    out->sim_ms.push_back(static_cast<double>(r.makespan_micros) / 1000.0);
    out->fingerprint.push_back(r.makespan_micros);
    out->counts["deferrals"] += static_cast<double>(r.admission_deferrals);
    out->counts["predicted_conflicts"] +=
        static_cast<double>(r.predicted_conflicts);
    out->counts["lock_waits"] += static_cast<double>(r.lock_waits);
    out->counts["lock_wait_ms"] +=
        static_cast<double>(r.lock_wait_micros) / 1000.0;
    out->counts["busy_probes"] += static_cast<double>(r.busy_probes);
    out->counts["deadlock_victims"] += r.deadlock_victim ? 1 : 0;
    out->counts["lock_timeouts"] += r.lock_timeout ? 1 : 0;
    if (!r.report.has_value()) continue;
    const auto& run = r.report->run;
    out->fingerprint.push_back(static_cast<int64_t>(r.report->outcome));
    AddRunCounts(run, IsWrite(backlog[i].kind), out);
  }
  out->counts["sim_drain_s"] =
      static_cast<double>(server.virtual_now()) / 1e6;
  out->fingerprint.push_back(server.virtual_now());

  // The committed writes must equal the final table sums.
  std::vector<double> after;
  const bool after_ok = TableSums(sys, &after);
  record->Check(after_ok, "final table sums unreadable");
  if (!after_ok) return false;
  if (corrupt) committed[0] += 1.0;
  for (int i = 0; i < kDatabases; ++i) {
    record->Check(after[i] - before[i] == committed[i],
                  "SUM(rate) of " + Db(i) +
                      " moved by a different amount than the committed "
                      "writes");
  }
  return true;
}

}  // namespace

void RunServerMix(const Options& options, RunRecord* record) {
  const int backlog_size = options.tiny ? 200 : 1000;
  const std::vector<Session> backlog =
      GenerateBacklog(options.seed, backlog_size);

  std::vector<Round> untraced;
  std::vector<Round> traced;
  SpanLedger ledger;
  RunPhases(options, &untraced, &traced, record,
            [&](bool is_traced, Round* round) {
              return RunRound(options, backlog, is_traced,
                              !is_traced && options.corrupt == "answer",
                              &ledger, record, round);
            });
  if (record->failed() > 0 || untraced.empty()) return;

  // Workload properties.
  std::map<std::string, int> per_kind;
  std::set<std::string> seen;
  int repeats = 0;
  int writes = 0;
  for (const Session& s : backlog) {
    ++per_kind[kKindNames[static_cast<int>(s.kind)]];
    repeats += seen.insert(s.text).second ? 0 : 1;
    writes += IsWrite(s.kind) ? 1 : 0;
  }
  const double n = static_cast<double>(backlog.size());
  record->Property("seed", static_cast<double>(options.seed));
  record->Property("fixture",
                   JsonString("synthetic federation, 8 databases x 256 rows, "
                              "8 concurrent requests per LDBS"));
  record->Property("loop", JsonString("closed, 256 admitted sessions "
                                      "(conflict-aware admission)"));
  record->Property("backlog_sessions", n);
  record->Property("op_counts", CountsJson(per_kind));
  record->Property("read_share", (n - writes) / n);
  record->Property("write_share", writes / n);
  record->Property("frontend.text_repeat_share", repeats / n);
  record->Property("working_set", JsonString("in-memory row store, all "
                                             "data resident (no buffer pool)"));
  record->Property("flush_policy", JsonString("none (in-memory engines)"));

  const Round& first = untraced.front();
  record->Metric("e2e.sim_p50_ms", Quantile(first.sim_ms, 0.5));
  record->Metric("e2e.sim_p99_ms", Quantile(first.sim_ms, 0.99));
  record->Metric("e2e.sim_drain_s", CountOf(first.counts, "sim_drain_s"));
  ReportEndToEnd(untraced, n, /*latencies=*/false, record);
  if (!options.trace || traced.empty()) return;

  const Round& t = traced.front();
  const double scheduler_share =
      static_cast<double>(ledger.yield_safe_uncovered_nanos()) /
      static_cast<double>(ledger.wrapper_nanos());
  ReportLedger(ledger, n * static_cast<double>(traced.size()), record);
  record->Metric("frontend.text_repeat_share", repeats / n);
  record->Metric("scheduler.self_share", scheduler_share);
  record->Metric("scheduler.deferrals_per_session",
                 CountOf(t.counts, "deferrals") / n);
  record->Metric("scheduler.predicted_conflicts_per_session",
                 CountOf(t.counts, "predicted_conflicts") / n);
  record->Metric("scheduler.lock_waits_per_session",
                 CountOf(t.counts, "lock_waits") / n);
  record->Metric("scheduler.lock_wait_ms_per_session",
                 CountOf(t.counts, "lock_wait_ms") / n);
  record->Metric("scheduler.busy_probes_per_session",
                 CountOf(t.counts, "busy_probes") / n);
  record->Metric("scheduler.deadlock_victims",
                 CountOf(t.counts, "deadlock_victims"));
  record->Metric("scheduler.lock_timeouts", CountOf(t.counts, "lock_timeouts"));
  record->Metric("netsim.lam_queue_ms_p99",
                 CountOf(t.counts, "lam_queue_p99_us") / 1000.0);
  ReportWorkCounts(t, n, writes, record);
  record->Metric("obs.trace_overhead", TraceOverhead(untraced, traced));
  char line[512];
  std::snprintf(line, sizeof(line),
                "scheduler.self_share %.4f: RunAll time no yield-safe span "
                "covers (pitfall 1: session:*, dol.run, task:*, rpc:*, "
                "channel.* and 2pc.* stay open across yields and are not "
                "attributed; DOL stepping and LAM dispatch fall in this "
                "share)",
                scheduler_share);
  record->Note(line);
  record->Note("traced rounds: " + std::to_string(traced.size()) + " x " +
               std::to_string(backlog.size()) +
               " sessions, one RunAll span each (pitfall 2 does not apply: "
               "the server renders no per-input trace text)");
}

}  // namespace perfbench
