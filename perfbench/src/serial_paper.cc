// serial_paper: the paper's five-database federation (Appendix schemas,
// default fixture sizes) with Continental downgraded to automatic commit
// only, so VITAL updates that touch it need COMP (§3.3). One client in a
// closed loop: one MultidatabaseSystem::Execute after another.
//
// A round builds a fresh federation (the timed set-up) and runs the same
// seeded list of inputs, so every round repeats the same simulated
// results; rounds repeat until the host budget is spent. Every answer is
// checked against ground truth read directly from the local engines, and
// every update's outcome, per-database verdicts and data against the
// VITAL rule, the COMP matrix and the first reachable acceptable state.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "core/fixtures.h"
#include "core/mdbs_system.h"
#include "span_ledger.h"

namespace perfbench {
namespace {

using msql::Rng;
using msql::core::ExecutionReport;
using msql::core::GlobalOutcome;
using msql::core::MultidatabaseSystem;
using msql::dol::DolTaskState;
using msql::relational::FailPoint;
using msql::relational::ResultSet;
using msql::relational::Row;
using msql::relational::Value;

enum class Kind {
  kPercentRetrieval,  // '%' column and table names, non-pertinent united
  kLetRetrieval,      // LET renaming plus an optional '~' column
  kJoin,              // decomposed multidatabase join (TRANSFER + Q')
  kFareRaise,         // §3.2 VITAL fare raise with its §3.3 COMP clause
  kTravelMt,          // §3.4 travel multitransaction, two acceptable states
  kPointSelect,       // single-database point SELECT
};
constexpr int kKinds = 6;
constexpr const char* kKindNames[kKinds] = {
    "percent_retrieval", "let_retrieval", "join",
    "fare_raise",        "travel_mt",     "point_select"};

bool IsWrite(Kind kind) {
  return kind == Kind::kFareRaise || kind == Kind::kTravelMt;
}

const std::vector<std::string>& Databases() {
  static const std::vector<std::string> dbs = {"continental", "delta",
                                               "united", "avis", "national"};
  return dbs;
}

struct Input {
  Kind kind = Kind::kPointSelect;
  /// Numeric literal of the input (retrieval threshold, join factor,
  /// fare factor), kept as text so the oracle parses the same digits.
  std::string literal;
  /// Point SELECT: key and target (united flight or avis cars).
  int key = 0;
  bool united = false;
  /// Travel multitransaction: the client name it books under.
  std::string client;
  /// Database whose engine is armed with FailPoint::kNextStatement.
  std::string fault;
};

std::string Fixed(double v, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, v);
  return buf;
}

/// The seeded input list of one round: the mix is exact (15% '%'
/// retrievals, 10% LET retrievals, 15% joins, 15% fare raises, 15%
/// travel multitransactions, 30% point SELECTs, block-shuffled), and one
/// in eight fare raises and travel multitransactions runs against an
/// injected local failure. Literals come from wide domains, so exact-text
/// repeats are rare; they are drawn stratified, so the seed changes their
/// order and digits but hardly the work they cause.
std::vector<Input> GenerateInputs(uint64_t seed, int count) {
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + 11);
  static const char* const kFareTargets[] = {"continental", "delta",
                                             "united"};
  static const char* const kTravelTargets[] = {"continental", "delta",
                                               "avis", "national"};
  int fare_raises = 0;
  int travels = 0;
  std::vector<Input> inputs;
  inputs.reserve(count);
  const std::vector<int> kinds = BlockShuffledMix({3, 2, 3, 3, 3, 6}, count,
                                                  &rng);
  int per_kind[kKinds] = {};
  for (int kind : kinds) ++per_kind[kind];
  auto stream = [&](Kind kind) {
    return Stratified(per_kind[static_cast<int>(kind)], &rng);
  };
  Stratified percent = stream(Kind::kPercentRetrieval);
  Stratified let = stream(Kind::kLetRetrieval);
  Stratified join = stream(Kind::kJoin);
  Stratified select_key = stream(Kind::kPointSelect);
  Stratified select_floor = stream(Kind::kPointSelect);
  for (int i = 0; i < count; ++i) {
    Input in;
    in.kind = static_cast<Kind>(kinds[i]);
    switch (in.kind) {
      case Kind::kPercentRetrieval:
        in.literal = Fixed(100.0 + 200.0 * percent.Next(), 2);
        break;
      case Kind::kLetRetrieval:
        in.literal = Fixed(100.0 + 200.0 * let.Next(), 2);
        break;
      case Kind::kJoin:
        in.literal = Fixed(1.5 + 3.0 * join.Next(), 3);
        break;
      case Kind::kFareRaise: {
        const int step = 1 + static_cast<int>(rng.NextBelow(200));
        in.literal =
            Fixed(1.0 + (rng.NextBool(0.5) ? step : -step) / 10000.0, 4);
        if (fare_raises % 8 == 0) in.fault = kFareTargets[(fare_raises / 8) % 3];
        ++fare_raises;
        break;
      }
      case Kind::kTravelMt: {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "c%06d_%d",
                      static_cast<int>(rng.NextBelow(1000000)), i);
        in.client = buf;
        if (travels % 8 == 0) in.fault = kTravelTargets[(travels / 8) % 4];
        ++travels;
        break;
      }
      case Kind::kPointSelect: {
        // 8 united flights (fn 100-107) and 10 avis cars (code 1-10).
        const int target = select_key.Index(18);
        in.united = target < 8;
        in.key = in.united ? 100 + target : target - 7;
        in.literal = Fixed(50.0 * select_floor.Next(), 3);
        break;
      }
    }
    inputs.push_back(std::move(in));
  }
  return inputs;
}

/// Direct SQL sessions on every local engine: the ground truth the
/// federation's answers are compared with.
class GroundTruth {
 public:
  bool Open(MultidatabaseSystem* sys) {
    for (const std::string& db : Databases()) {
      auto engine = sys->GetEngine(msql::core::PaperServiceOf(db));
      if (!engine.ok()) return false;
      auto session = (*engine)->OpenSession(db);
      if (!session.ok()) return false;
      sessions_[db] = {*engine, *session};
    }
    return true;
  }

  /// Rows of `sql` on `db`, sorted (multiset comparison); empty with
  /// `ok` false on error.
  std::vector<Row> Rows(const std::string& db, const std::string& sql,
                        bool* ok) const {
    const auto& [engine, session] = sessions_.at(db);
    auto rs = engine->Execute(session, sql);
    if (!rs.ok()) {
      *ok = false;
      return {};
    }
    rs->SortRows();
    return std::move(rs->rows);
  }

  msql::relational::LocalEngine* engine(const std::string& db) const {
    return sessions_.at(db).first;
  }

 private:
  std::map<std::string,
           std::pair<msql::relational::LocalEngine*,
                     msql::relational::SessionId>>
      sessions_;
};

std::vector<Row> Sorted(std::vector<Row> rows) {
  ResultSet rs;
  rs.rows = std::move(rows);
  rs.SortRows();
  return std::move(rs.rows);
}

bool SameRows(const std::vector<Row>& a, const std::vector<Row>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].size() != b[i].size()) return false;
    for (size_t j = 0; j < a[i].size(); ++j) {
      const Value& x = a[i][j];
      const Value& y = b[i][j];
      if (x.is_numeric() && y.is_numeric()) {
        const double dx = x.NumericAsReal();
        const double dy = y.NumericAsReal();
        if (std::fabs(dx - dy) > 1e-9 * std::max(1.0, std::fabs(dy))) {
          return false;
        }
      } else if (!(x == y)) {
        return false;
      }
    }
  }
  return true;
}

const char* const kFareSql[3][2] = {
    {"continental",
     "SELECT flnu, rate FROM flights WHERE source = 'Houston' AND "
     "destination = 'San Antonio'"},
    {"delta",
     "SELECT fnu, rate FROM flight WHERE source = 'Houston' AND "
     "dest = 'San Antonio'"},
    {"united",
     "SELECT fn, rates FROM flight WHERE sour = 'Houston' AND "
     "dest = 'San Antonio'"},
};

/// The travel multitransaction's target row per database: the first
/// free seat or available car, and the column the booking writes.
struct TravelTarget {
  std::string db;
  std::string select_sql;  // reads the booked column of the target row
};

/// Per-round state of the oracle.
struct Model {
  std::vector<TravelTarget> travel;
  /// Current value of each travel target's booked column.
  std::map<std::string, Value> booked;
};

std::string TextOf(const Input& in, const Model& model) {
  switch (in.kind) {
    case Kind::kPercentRetrieval:
      return "USE continental delta united\n"
             "SELECT %nu, rate% FROM flight% WHERE rate% > " +
             in.literal;
    case Kind::kLetRetrieval:
      return "USE continental delta united\n"
             "LET fl.src.r BE flights.source.rate flight.source.rate "
             "flight.sour.rates\n"
             "SELECT src, r, ~dep FROM fl WHERE r > " +
             in.literal;
    case Kind::kJoin:
      return "USE avis continental\n"
             "SELECT cars.code, flights.flnu FROM avis.cars, "
             "continental.flights WHERE cars.rate * " +
             in.literal +
             " < flights.rate AND cars.carst = 'available'";
    case Kind::kFareRaise:
      return "USE continental VITAL delta united VITAL\n"
             "UPDATE flight% SET rate% = rate% * " +
             in.literal +
             "\nWHERE sour% = 'Houston' AND dest% = 'San Antonio'\n"
             "COMP continental\n"
             "UPDATE flights SET rate = rate / " +
             in.literal +
             "\nWHERE source = 'Houston' AND destination = 'San Antonio'";
    case Kind::kTravelMt:
      return "BEGIN MULTITRANSACTION\n"
             "USE continental delta\n"
             "LET fitab.snu.sstat.clname BE\n"
             "  f838.seatnu.seatstatus.clientname\n"
             "  fnu747.snu.sstat.passname\n"
             "UPDATE fitab SET clname = '" +
             in.client +
             "'\nWHERE snu = (SELECT MIN(snu) FROM fitab WHERE "
             "sstat = 'FREE')\n"
             "COMP continental\n"
             "UPDATE f838 SET clientname = " +
             model.booked.at("continental").ToSqlLiteral() +
             " WHERE clientname = '" + in.client +
             "';\n"
             "USE avis national\n"
             "LET cartab.ccode.cstat.cl BE cars.code.carst.client "
             "vehicle.vcode.vstat.client\n"
             "UPDATE cartab SET cl = '" +
             in.client +
             "'\nWHERE ccode = (SELECT MIN(ccode) FROM cartab WHERE "
             "cstat = 'available');\n"
             "COMMIT\n"
             "  continental AND national\n"
             "  delta AND avis\n"
             "END MULTITRANSACTION";
    case Kind::kPointSelect:
      return in.united ? "USE united\nSELECT fn, rates FROM flight WHERE fn = " +
                             std::to_string(in.key) + " AND rates > " +
                             in.literal
                       : "USE avis\nSELECT code, rate FROM cars WHERE code = " +
                             std::to_string(in.key) + " AND rate > " +
                             in.literal;
  }
  return "";
}

std::map<std::string, DolTaskState> VerdictsOf(const ExecutionReport& r) {
  std::map<std::string, DolTaskState> out;
  for (const auto& v : r.verdicts) out[v.database] = v.state;
  return out;
}

/// Retrieval oracle: the multitable must hold exactly the expected
/// databases, each with the rows ground truth gives.
std::string CheckMultitable(
    const ExecutionReport& report,
    const std::map<std::string, std::vector<Row>>& expected) {
  if (report.outcome != GlobalOutcome::kSuccess) return "retrieval not SUCCESS";
  if (report.multitable.size() != expected.size()) {
    return "multitable has " + std::to_string(report.multitable.size()) +
           " elements, expected " + std::to_string(expected.size());
  }
  for (const auto& [db, rows] : expected) {
    const auto* element = report.multitable.Find(db);
    if (element == nullptr) return "multitable lacks " + db;
    if (!SameRows(Sorted(element->table.rows), rows)) {
      return "answer of " + db + " differs from ground truth";
    }
  }
  return "";
}

/// Runs the oracle for one executed input. `before` holds ground truth
/// read before the input ran (fare raise rows); `corrupt` perturbs the
/// expected answer to prove the gate fires.
std::string Check(const Input& in, const ExecutionReport& report,
                  const GroundTruth& truth, Model* model,
                  const std::vector<std::vector<Row>>& before, bool corrupt) {
  bool ok = true;
  switch (in.kind) {
    case Kind::kPercentRetrieval: {
      std::map<std::string, std::vector<Row>> expected;
      expected["continental"] = truth.Rows(
          "continental",
          "SELECT flnu, rate FROM flights WHERE rate > " + in.literal, &ok);
      expected["delta"] = truth.Rows(
          "delta", "SELECT fnu, rate FROM flight WHERE rate > " + in.literal,
          &ok);
      if (corrupt) expected["delta"].push_back({Value::Integer(-1)});
      if (!ok) return "ground truth query failed";
      return CheckMultitable(report, expected);
    }
    case Kind::kLetRetrieval: {
      std::map<std::string, std::vector<Row>> expected;
      expected["continental"] =
          truth.Rows("continental",
                     "SELECT source, rate, dep FROM flights WHERE rate > " +
                         in.literal,
                     &ok);
      expected["delta"] = truth.Rows(
          "delta",
          "SELECT source, rate, dep FROM flight WHERE rate > " + in.literal,
          &ok);
      expected["united"] = truth.Rows(
          "united", "SELECT sour, rates FROM flight WHERE rates > " + in.literal,
          &ok);
      if (corrupt) expected["united"].clear();
      if (!ok) return "ground truth query failed";
      return CheckMultitable(report, expected);
    }
    case Kind::kJoin: {
      if (report.outcome != GlobalOutcome::kSuccess || !report.is_join) {
        return "join not a SUCCESS join";
      }
      const double factor = std::strtod(in.literal.c_str(), nullptr);
      auto cars = truth.Rows("avis", "SELECT code, rate, carst FROM cars", &ok);
      auto flights =
          truth.Rows("continental", "SELECT flnu, rate FROM flights", &ok);
      if (!ok) return "ground truth query failed";
      std::vector<Row> expected;
      for (const Row& c : cars) {
        if (c[1].is_null() || !c[2].is_text() || c[2].AsText() != "available") {
          continue;
        }
        for (const Row& f : flights) {
          if (!f[1].is_null() &&
              c[1].NumericAsReal() * factor < f[1].NumericAsReal()) {
            expected.push_back({c[0], f[0]});
          }
        }
      }
      if (corrupt && !expected.empty()) expected.pop_back();
      if (!SameRows(Sorted(report.join_result.rows), Sorted(expected))) {
        return "join answer differs from ground truth";
      }
      return "";
    }
    case Kind::kFareRaise: {
      // VITAL rule: success iff every VITAL subquery (continental,
      // united) committed. COMP matrix: on a global abort the
      // autocommitted continental update is compensated, united (2PC)
      // rolls back; delta is non-vital and commits on its own.
      const bool vital_fault =
          in.fault == "continental" || in.fault == "united";
      const GlobalOutcome required =
          vital_fault ? GlobalOutcome::kAborted : GlobalOutcome::kSuccess;
      if (report.outcome != required) {
        return "fare raise outcome " +
               std::string(msql::core::GlobalOutcomeName(report.outcome)) +
               ", VITAL rule requires " +
               std::string(msql::core::GlobalOutcomeName(required));
      }
      const auto verdicts = VerdictsOf(report);
      const double factor = std::strtod(in.literal.c_str(), nullptr);
      for (int d = 0; d < 3; ++d) {
        const std::string db = kFareSql[d][0];
        DolTaskState want = DolTaskState::kCommitted;
        if (in.fault == db) {
          want = DolTaskState::kAborted;
        } else if (vital_fault && db == "continental") {
          want = DolTaskState::kCompensated;
        } else if (vital_fault && db == "united") {
          want = DolTaskState::kAborted;
        }
        auto it = verdicts.find(db);
        if (it == verdicts.end() || it->second != want) {
          return "fare raise verdict of " + db + " violates the COMP matrix";
        }
        std::vector<Row> expected = before[d];
        if (want == DolTaskState::kCommitted) {
          for (Row& row : expected) {
            row[1] = Value::Real(row[1].NumericAsReal() * factor);
          }
        }
        if (corrupt) expected.clear();
        auto after = truth.Rows(db, kFareSql[d][1], &ok);
        if (!ok) return "ground truth query failed";
        if (!SameRows(after, expected)) {
          return "fare raise left " + db + " rates inconsistent with " +
                 std::string(msql::dol::DolTaskStateName(want));
        }
      }
      return "";
    }
    case Kind::kTravelMt: {
      // First reachable acceptable state wins: (continental AND
      // national), else (delta AND avis). The winner's members commit;
      // the autocommitted continental booking is compensated when it
      // loses; every other member rolls back.
      static const std::vector<std::vector<std::string>> kStates = {
          {"continental", "national"}, {"delta", "avis"}};
      std::set<std::string> winner;
      for (const auto& state : kStates) {
        if (std::find(state.begin(), state.end(), in.fault) == state.end()) {
          winner.insert(state.begin(), state.end());
          break;
        }
      }
      if (report.outcome != GlobalOutcome::kSuccess) {
        return "travel multitransaction did not reach an acceptable state";
      }
      const auto verdicts = VerdictsOf(report);
      for (const TravelTarget& target : model->travel) {
        DolTaskState want = DolTaskState::kAborted;
        if (winner.count(target.db) != 0) {
          want = DolTaskState::kCommitted;
        } else if (target.db == "continental" && in.fault != target.db) {
          want = DolTaskState::kCompensated;
        }
        auto it = verdicts.find(target.db);
        if (it == verdicts.end() || it->second != want) {
          return "travel verdict of " + target.db +
                 " is not the first reachable acceptable state's";
        }
        if (want == DolTaskState::kCommitted) {
          model->booked[target.db] = Value::Text(in.client);
        }
        auto rows = truth.Rows(target.db, target.select_sql, &ok);
        if (!ok || rows.size() != 1) return "travel ground truth read failed";
        Value expected = model->booked.at(target.db);
        if (corrupt) expected = Value::Text("corrupted");
        if (!(rows[0][0] == expected)) {
          return "travel booking of " + target.db +
                 " disagrees with the acceptable-state outcome";
        }
      }
      return "";
    }
    case Kind::kPointSelect: {
      const std::string db = in.united ? "united" : "avis";
      std::map<std::string, std::vector<Row>> expected;
      expected[db] = truth.Rows(
          db,
          in.united ? "SELECT fn, rates FROM flight WHERE fn = " +
                          std::to_string(in.key) + " AND rates > " + in.literal
                    : "SELECT code, rate FROM cars WHERE code = " +
                          std::to_string(in.key) + " AND rate > " + in.literal,
          &ok);
      if (corrupt) expected[db].push_back({Value::Integer(-1)});
      if (!ok) return "ground truth query failed";
      return CheckMultitable(report, expected);
    }
  }
  return "unknown input kind";
}

/// Reads the travel targets (first free seat / available car) and their
/// current booked values at round start.
bool InitModel(const GroundTruth& truth, Model* model) {
  struct Spec {
    const char* db;
    const char* key_sql;
    const char* read_fmt;
  };
  static const Spec kSpecs[] = {
      {"continental",
       "SELECT MIN(seatnu) FROM f838 WHERE seatstatus = 'FREE'",
       "SELECT clientname FROM f838 WHERE seatnu = "},
      {"delta", "SELECT MIN(snu) FROM fnu747 WHERE sstat = 'FREE'",
       "SELECT passname FROM fnu747 WHERE snu = "},
      {"avis", "SELECT MIN(code) FROM cars WHERE carst = 'available'",
       "SELECT client FROM cars WHERE code = "},
      {"national", "SELECT MIN(vcode) FROM vehicle WHERE vstat = 'available'",
       "SELECT client FROM vehicle WHERE vcode = "},
  };
  bool ok = true;
  for (const Spec& spec : kSpecs) {
    auto key = truth.Rows(spec.db, spec.key_sql, &ok);
    if (!ok || key.size() != 1 || key[0][0].is_null()) return false;
    TravelTarget target{spec.db,
                        spec.read_fmt + key[0][0].ToDisplayString()};
    auto current = truth.Rows(spec.db, target.select_sql, &ok);
    if (!ok || current.size() != 1) return false;
    model->booked[spec.db] = current[0][0];
    model->travel.push_back(std::move(target));
  }
  return true;
}

/// One round: fresh federation, the full input list, every gate. Keeps
/// the executed texts in `texts` when given (round 0).
bool RunRound(const Options& options, const std::vector<Input>& inputs,
              bool traced, bool corrupt, SpanLedger* ledger,
              RunRecord* record, Round* out,
              std::vector<std::string>* texts) {
  msql::core::PaperFederationOptions fixture;
  fixture.continental_autocommit_only = true;
  // The seed also draws the link latency (1000-1049 us), so simulated
  // metrics are a function of the seed, not constants of the code.
  fixture.link_latency_micros = 1000 + static_cast<int64_t>(options.seed % 50);
  const int64_t setup_start = NowNanos();
  auto built = msql::core::BuildPaperFederation(fixture);
  out->setup_s = SecondsSince(setup_start);
  record->Check(built.ok(), "BuildPaperFederation failed");
  if (!built.ok()) return false;
  MultidatabaseSystem* sys = built->get();
  GroundTruth truth;
  Model model;
  const bool model_ok = truth.Open(sys) && InitModel(truth, &model);
  record->Check(model_ok, "ground truth sessions failed to open");
  if (!model_ok) return false;
  auto& env = sys->environment();
  env.tracer().set_enabled(traced);
  env.metrics().set_enabled(traced);

  bool corrupted = false;
  double sim_total_s = 0;
  std::vector<double> host_us;
  std::vector<bool> is_write;
  for (const Input& in : inputs) {
    const std::string text = TextOf(in, model);
    if (texts != nullptr) texts->push_back(text);
    std::vector<std::vector<Row>> before;
    if (in.kind == Kind::kFareRaise) {
      bool ok = true;
      for (const auto& fare : kFareSql) {
        before.push_back(truth.Rows(fare[0], fare[1], &ok));
      }
    }
    if (!in.fault.empty()) {
      truth.engine(in.fault)->InjectFailure(FailPoint::kNextStatement);
    }
    const int64_t start = NowNanos();
    auto report = sys->Execute(text);
    const int64_t end = NowNanos();
    for (const std::string& db : Databases()) {
      truth.engine(db)->InjectFailure(FailPoint::kNone);
    }
    if (traced) {
      // Pitfall 2: the tracer is cleared after every input, or the
      // rendered span tree (and its cost) grows with run length.
      ledger->Absorb(env.tracer(), start, end, /*yield_safe_only=*/false);
      env.tracer().Clear();
    }
    const double us = static_cast<double>(end - start) / 1000.0;
    out->work_s += us / 1e6;
    host_us.push_back(us);
    is_write.push_back(IsWrite(in.kind));
    std::string error;
    if (!report.ok()) {
      error = "Execute failed: " + report.status().ToString();
    } else {
      const bool corrupt_this = corrupt && !corrupted;
      error = Check(in, *report, truth, &model, before, corrupt_this);
      corrupted = corrupted || corrupt_this;
    }
    record->Check(error.empty(),
                  std::string(kKindNames[static_cast<int>(in.kind)]) + ": " +
                      error);
    if (!report.ok()) continue;
    const auto& run = report->run;
    out->sim_ms.push_back(static_cast<double>(run.makespan_micros) / 1000.0);
    sim_total_s += static_cast<double>(run.makespan_micros) / 1e6;
    AddRunCounts(run, IsWrite(in.kind), out);
    out->fingerprint.push_back(run.makespan_micros);
    out->fingerprint.push_back(run.messages);
    out->fingerprint.push_back(run.bytes);
    out->fingerprint.push_back(static_cast<int64_t>(report->outcome));
  }
  out->counts["sim_drain_s"] = sim_total_s;
  out->latency = Summarize(host_us, is_write);
  if (traced) {
    out->counts["index_probes"] =
        static_cast<double>(env.metrics().Get("sql.index_probes"));
  }
  return true;
}

}  // namespace

void RunSerialPaper(const Options& options, RunRecord* record) {
  const int inputs_per_round = options.tiny ? 60 : 1000;
  const std::vector<Input> inputs =
      GenerateInputs(options.seed, inputs_per_round);

  std::vector<Round> untraced;
  std::vector<Round> traced;
  std::vector<std::string> texts;
  SpanLedger ledger;
  RunPhases(options, &untraced, &traced, record,
            [&](bool is_traced, Round* round) {
              const bool first = !is_traced && untraced.size() == 1;
              return RunRound(options, inputs, is_traced,
                              !is_traced && options.corrupt == "answer",
                              &ledger, record, round,
                              first ? &texts : nullptr);
            });
  if (record->failed() > 0 || untraced.empty()) return;

  // Workload properties.
  std::map<std::string, int> per_kind;
  int writes = 0;
  int faulted = 0;
  for (const Input& in : inputs) {
    ++per_kind[kKindNames[static_cast<int>(in.kind)]];
    writes += IsWrite(in.kind) ? 1 : 0;
    faulted += in.fault.empty() ? 0 : 1;
  }
  std::set<std::string> seen;
  int repeats = 0;
  for (const std::string& text : texts) {
    repeats += seen.insert(text).second ? 0 : 1;
  }
  const double n = static_cast<double>(inputs.size());
  const double repeat_share = repeats / n;
  record->Property("seed", static_cast<double>(options.seed));
  record->Property("fixture",
                   JsonString("paper federation, 5 databases, default sizes "
                              "(8 flights, 12 seats, 10 cars each), "
                              "continental autocommit-only"));
  record->Property("loop", JsonString("closed, 1 client"));
  record->Property("inputs_per_round", n);
  record->Property("op_counts", CountsJson(per_kind));
  record->Property("read_share", (n - writes) / n);
  record->Property("write_share", writes / n);
  record->Property("fault_injected_share", faulted / n);
  record->Property("frontend.text_repeat_share", repeat_share);
  record->Property("working_set", JsonString("in-memory row store, all "
                                             "data resident (no buffer pool)"));
  record->Property("flush_policy", JsonString("none (in-memory engines)"));

  const Round& first = untraced.front();
  record->Metric("e2e.sim_p50_ms", Quantile(first.sim_ms, 0.5));
  record->Metric("e2e.sim_p99_ms", Quantile(first.sim_ms, 0.99));
  record->Metric("e2e.sim_drain_s", CountOf(first.counts, "sim_drain_s"));
  ReportEndToEnd(untraced, n, /*latencies=*/true, record);
  if (!options.trace || traced.empty()) return;

  // Per-layer split from the traced rounds.
  ReportLedger(ledger, n * static_cast<double>(traced.size()), record);
  record->Metric("frontend.text_repeat_share", repeat_share);
  ReportWorkCounts(traced.front(), n, writes, record);
  record->Metric("obs.trace_overhead", TraceOverhead(untraced, traced));
  record->Note("traced rounds: " + std::to_string(traced.size()) + " x " +
               std::to_string(inputs.size()) +
               " inputs; tracer cleared after every input (pitfall 2); "
               "obs.trace_overhead reported, not corrected (pitfall 3)");
}

}  // namespace perfbench
