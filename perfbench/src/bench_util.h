// Shared plumbing of the federation benchmark: command-line options,
// host timing and the host-speed gauge, sample statistics, the round
// loop, and the run record every workload fills (metrics, workload
// properties, traced-run report, gate failures) before main() prints it.
#ifndef PERFBENCH_BENCH_UTIL_H_
#define PERFBENCH_BENCH_UTIL_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"

namespace msql::dol {
struct DolRunResult;
}  // namespace msql::dol

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  /// Host seconds the untraced rounds should last (half of it in a
  /// traced run, which then runs as many traced rounds).
  double seconds = 10.0;
  /// Traced run: per-layer metrics instead of end-to-end ones.
  bool trace = false;
  /// Test-size inputs (the benchmark's own tests).
  bool tiny = false;
  /// Gate self-test: "answer" corrupts one expected answer, "model"
  /// corrupts the paged_dml commit model. The run must then fail.
  std::string corrupt;
  /// Working directory for paged storage (created and removed by the run).
  std::string data_dir = ".bench_build/perfbench_data";
};

/// Host monotonic clock in nanoseconds.
inline int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double SecondsSince(int64_t start_nanos) {
  return static_cast<double>(NowNanos() - start_nanos) / 1e9;
}

/// Host-speed gauge. A shared host's speed swings by up to 2x over tens
/// of seconds as its neighbours come and go, and a run's rounds all land
/// in one such stretch, so neither longer runs nor robust statistics
/// remove the swing. A fixed allocation-heavy task timed right before
/// and after every round tracks it: on a 4-core shared host the per-round
/// times of the task and of a workload both varied with an IQR of
/// 30-40%, their ratio with 12%. Host-timed results are therefore also
/// reported at the speed of a reference host that runs the task in
/// kReferenceCalibrationSeconds.
constexpr double kReferenceCalibrationSeconds = 0.008;
/// Runs the calibration task three times; the median host time in
/// seconds.
double CalibrationSeconds();

/// Linear-interpolated quantile (q in [0, 1]) of `values`; 0 when empty.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

/// Host latency percentiles of one round's operations, in microseconds.
struct LatencySummary {
  double p50_us = 0;
  double p99_us = 0;
  double read_p99_us = 0;
  double write_p99_us = 0;
};
LatencySummary Summarize(const std::vector<double>& host_us,
                         const std::vector<bool>& is_write);

/// `count` operation kinds (indices into `weights`) in the exact
/// proportions of `weights`, shuffled within consecutive blocks of
/// sum(weights) so that every stretch of the stream has the same mix and
/// the seed changes only the order, never the amount of work.
std::vector<int> BlockShuffledMix(const std::vector<int>& weights, int count,
                                  msql::Rng* rng);

/// Stratified draws from [0, 1): the i-th of `count` draws lands in its
/// own 1/count-wide stratum, strata visited in a seeded order. Across
/// seeds the draws (and the work they cause) stay nearly the same
/// multiset; only their order and low digits change.
class Stratified {
 public:
  Stratified(int count, msql::Rng* rng);
  double Next();
  /// An index in [0, n) drawn the same way.
  int Index(int n) { return static_cast<int>(Next() * n); }

 private:
  std::vector<int> order_;
  size_t next_ = 0;
  msql::Rng* rng_;
};

/// ru_maxrss of this process, in MiB.
double PeakRssMb();

/// Minimal JSON value rendering for the output lines.
std::string JsonString(const std::string& s);
std::string JsonNumber(double v);
/// {"kind": count, ...}
std::string CountsJson(const std::map<std::string, int>& counts);

inline double CountOf(const std::map<std::string, double>& counts,
                      const std::string& key) {
  auto it = counts.find(key);
  return it == counts.end() ? 0.0 : it->second;
}

/// Everything one workload run reports.
class RunRecord {
 public:
  /// One gated operation was attempted; `ok` false counts it failed and
  /// keeps `what` (the first few) for the error report.
  void Check(bool ok, const std::string& what);
  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }
  const std::vector<std::string>& failures() const { return failures_; }

  /// A metric value (end-to-end or per-layer, see the MetricSpec lists).
  void Metric(const std::string& name, double value) {
    metrics_[name] = value;
  }
  /// A workload property (seed, sizes, mix shares, ...) for the
  /// properties line; `json_value` is already rendered JSON.
  void Property(const std::string& name, const std::string& json_value);
  void Property(const std::string& name, double value) {
    Property(name, JsonNumber(value));
  }
  /// A human-readable line of the traced-run report.
  void Note(const std::string& line) { notes_.push_back(line); }

  const std::map<std::string, double>& metrics() const { return metrics_; }
  const std::vector<std::pair<std::string, std::string>>& properties() const {
    return properties_;
  }
  const std::vector<std::string>& notes() const { return notes_; }

 private:
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  std::vector<std::string> failures_;
  std::map<std::string, double> metrics_;
  std::vector<std::pair<std::string, std::string>> properties_;
  std::vector<std::string> notes_;
};

/// One metric of BENCHMARK.json: name and unit.
struct MetricSpec {
  const char* name;
  const char* unit;
};
/// The end-to-end metrics every untraced run prints, in order.
const std::vector<MetricSpec>& EndToEndSpecs();
/// The per-layer metrics every traced run prints, in order. A layer a
/// workload does not reach reads 0 there.
const std::vector<MetricSpec>& PerLayerSpecs();

/// What every round records, whatever the workload. A round rebuilds the
/// workload's fixture and replays the same operations.
struct Round {
  /// Raw host seconds of the set-up and of the timed operations.
  double setup_s = 0;
  double work_s = 0;
  /// Host speed around the round relative to the reference host
  /// (above 1 = faster); see kReferenceCalibrationSeconds.
  double speed = 1;
  LatencySummary latency;
  /// Other host-timed values of the round, raw (recovery, checkpoints).
  std::map<std::string, double> timings;
  /// Simulated makespan of every operation, in milliseconds (kept for
  /// round 0 only; every round repeats it).
  std::vector<double> sim_ms;
  /// Deterministic work counters of the round.
  std::map<std::string, double> counts;
  /// Simulated results and work counts every round must repeat.
  std::vector<int64_t> fingerprint;
};

/// Runs a workload's rounds: untraced ones until the host budget is
/// spent (half of it in a traced run; at least three, one with --tiny),
/// then in a traced run as many traced rounds. `run_round(traced, round)`
/// fills one round and returns false to stop. Every round is gauged for
/// host speed and must repeat round 0's fingerprint (the determinism
/// gate). Later rounds drop their fingerprint and simulated makespans
/// once checked, so peak RSS does not grow with the number of rounds.
template <typename RunRound>
void RunPhases(const Options& options, std::vector<Round>* untraced,
               std::vector<Round>* traced, RunRecord* record,
               RunRound&& run_round) {
  auto one = [&](bool is_traced, std::vector<Round>* rounds) {
    rounds->emplace_back();
    const double before = CalibrationSeconds();
    const bool ok = run_round(is_traced, &rounds->back());
    const double after = CalibrationSeconds();
    Round& round = rounds->back();
    round.speed = 2 * kReferenceCalibrationSeconds / (before + after);
    if (&round != &untraced->front()) {
      record->Check(round.fingerprint == untraced->front().fingerprint,
                    "a round diverged from round 0's simulated results "
                    "and work counts");
      round.fingerprint = {};
      round.sim_ms = {};
    }
    return ok;
  };
  const double budget = options.trace ? options.seconds / 2 : options.seconds;
  const size_t min_rounds = options.tiny ? 1 : 3;
  const int64_t start = NowNanos();
  while (untraced->size() < min_rounds || SecondsSince(start) < budget) {
    if (!one(false, untraced)) return;
  }
  while (options.trace && traced->size() < untraced->size()) {
    if (!one(true, traced)) return;
  }
}

/// Reports what the untraced rounds measured: the end-to-end metrics
/// ops_per_s (median over rounds of `ops_per_round` / work_s) and setup_s
/// (median set-up) at reference host speed, peak_rss_mb, and the e2e.*
/// host latencies (medians of the rounds' percentiles, at reference
/// speed) when `latencies`; the raw medians and the host speed go to the
/// properties line. Workload-specific e2e.* values are reported by the
/// workload.
void ReportEndToEnd(const std::vector<Round>& rounds, double ops_per_round,
                    bool latencies, RunRecord* record);

/// Adds one DOL run's work to `round`'s counts: messages, bytes, tasks,
/// retries, re-probes, and the rows its tasks scanned and evaluated under
/// the read or write class.
void AddRunCounts(const msql::dol::DolRunResult& run, bool write,
                  Round* round);

/// Reports the work counts the workloads share, from a traced round:
/// DOL tasks per op, retries, re-probes, messages and bytes per op, rows
/// scanned and evaluated per read and per write, index probes. Counts a
/// workload does not produce read 0.
void ReportWorkCounts(const Round& round, double ops, double writes,
                      RunRecord* record);

/// obs.trace_overhead: traced over untraced host time of the same
/// number of rounds, each at reference host speed.
double TraceOverhead(const std::vector<Round>& untraced,
                     const std::vector<Round>& traced);

/// The workloads. Each fills `record`; set-up errors are reported
/// through record.Check as well.
void RunSerialPaper(const Options& options, RunRecord* record);
void RunServerMix(const Options& options, RunRecord* record);
void RunPagedDml(const Options& options, RunRecord* record);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_UTIL_H_
