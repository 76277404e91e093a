#include "bench_util.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <string>

#include "dol/engine.h"

namespace perfbench {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

namespace {

double CalibrationTaskSeconds() {
  // Map inserts and iteration over short strings plus a vector of
  // row-sized strings: the allocation and pointer-chasing mix the
  // federation's hot paths share.
  const int64_t start = NowNanos();
  std::map<std::string, int> map;
  size_t sink = 0;
  for (int i = 0; i < 20000; ++i) map[std::to_string(i * 7919 % 100003)] += i;
  for (const auto& [key, value] : map) sink += key.size() + value;
  std::vector<std::string> rows;
  for (int i = 0; i < 20000; ++i) {
    rows.push_back("row" + std::to_string(i) + std::string(20, 'x'));
  }
  for (const std::string& row : rows) sink += static_cast<size_t>(row[3]);
  const double seconds = SecondsSince(start);
  // Keep the work observable so it cannot be optimized away.
  return sink == 0 ? seconds + 1e-9 : seconds;
}

}  // namespace

double CalibrationSeconds() {
  return Median({CalibrationTaskSeconds(), CalibrationTaskSeconds(),
                 CalibrationTaskSeconds()});
}

LatencySummary Summarize(const std::vector<double>& host_us,
                         const std::vector<bool>& is_write) {
  std::vector<double> reads, writes;
  for (size_t i = 0; i < host_us.size(); ++i) {
    (is_write[i] ? writes : reads).push_back(host_us[i]);
  }
  LatencySummary s;
  s.p50_us = Quantile(host_us, 0.5);
  s.p99_us = Quantile(host_us, 0.99);
  s.read_p99_us = Quantile(std::move(reads), 0.99);
  s.write_p99_us = Quantile(std::move(writes), 0.99);
  return s;
}

std::vector<int> BlockShuffledMix(const std::vector<int>& weights, int count,
                                  msql::Rng* rng) {
  std::vector<int> block;
  for (size_t kind = 0; kind < weights.size(); ++kind) {
    block.insert(block.end(), weights[kind], static_cast<int>(kind));
  }
  std::vector<int> out;
  out.reserve(count + block.size());
  while (static_cast<int>(out.size()) < count) {
    std::vector<int> shuffled = block;
    for (size_t i = shuffled.size(); i > 1; --i) {
      std::swap(shuffled[i - 1], shuffled[rng->NextBelow(i)]);
    }
    out.insert(out.end(), shuffled.begin(), shuffled.end());
  }
  out.resize(count);
  return out;
}

Stratified::Stratified(int count, msql::Rng* rng) : rng_(rng) {
  order_.resize(std::max(1, count));
  for (size_t i = 0; i < order_.size(); ++i) order_[i] = static_cast<int>(i);
  for (size_t i = order_.size(); i > 1; --i) {
    std::swap(order_[i - 1], order_[rng->NextBelow(i)]);
  }
}

double Stratified::Next() {
  const double stratum = order_[next_++ % order_.size()];
  return (stratum + rng_->NextDouble()) / static_cast<double>(order_.size());
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string CountsJson(const std::map<std::string, int>& counts) {
  std::string out = "{";
  for (const auto& [name, count] : counts) {
    out += (out.size() > 1 ? ", " : "") + JsonString(name) + ": " +
           std::to_string(count);
  }
  return out + "}";
}

void ReportEndToEnd(const std::vector<Round>& rounds, double ops_per_round,
                    bool latencies, RunRecord* record) {
  std::vector<double> rates, raw_rates, setups, raw_setups, speeds;
  std::vector<double> p50s, p99s, read_p99s, write_p99s;
  for (const Round& r : rounds) {
    raw_rates.push_back(ops_per_round / r.work_s);
    rates.push_back(ops_per_round / (r.work_s * r.speed));
    raw_setups.push_back(r.setup_s);
    setups.push_back(r.setup_s * r.speed);
    speeds.push_back(r.speed);
    p50s.push_back(r.latency.p50_us * r.speed);
    p99s.push_back(r.latency.p99_us * r.speed);
    read_p99s.push_back(r.latency.read_p99_us * r.speed);
    write_p99s.push_back(r.latency.write_p99_us * r.speed);
  }
  record->Metric("ops_per_s", Median(rates));
  record->Metric("setup_s", Median(setups));
  record->Metric("peak_rss_mb", PeakRssMb());
  record->Property("rounds", static_cast<double>(rounds.size()));
  record->Property("host_speed", Median(speeds));
  record->Property("ops_per_s_raw", Median(raw_rates));
  record->Property("setup_s_raw", Median(raw_setups));
  record->Metric("e2e.error_frac", static_cast<double>(record->failed()) /
                                       static_cast<double>(record->attempted()));
  if (latencies) {
    record->Metric("e2e.host_p50_us", Median(p50s));
    record->Metric("e2e.host_p99_us", Median(p99s));
    record->Metric("e2e.read_p99_us", Median(read_p99s));
    record->Metric("e2e.write_p99_us", Median(write_p99s));
  }
  for (const auto& [name, value] : record->metrics()) {
    if (name.rfind("e2e.", 0) == 0) record->Property(name, value);
  }
}

void AddRunCounts(const msql::dol::DolRunResult& run, bool write,
                  Round* round) {
  auto& counts = round->counts;
  counts["messages"] += static_cast<double>(run.messages);
  counts["bytes"] += static_cast<double>(run.bytes);
  counts["tasks"] += static_cast<double>(run.tasks.size());
  counts["retries"] += static_cast<double>(run.retries);
  counts["reprobes"] += static_cast<double>(run.reprobes);
  const std::string cls = write ? "write" : "read";
  for (const auto& [name, task] : run.tasks) {
    counts["rows_scanned_" + cls] +=
        static_cast<double>(task.result.rows_scanned);
    counts["rows_evaluated_" + cls] +=
        static_cast<double>(task.result.rows_evaluated);
  }
}

void ReportWorkCounts(const Round& round, double ops, double writes,
                      RunRecord* record) {
  const auto& c = round.counts;
  const double reads = ops - writes;
  record->Metric("dol.tasks_per_op", CountOf(c, "tasks") / ops);
  record->Metric("dol.retries", CountOf(c, "retries"));
  record->Metric("dol.reprobes", CountOf(c, "reprobes"));
  record->Metric("netsim.messages_per_op", CountOf(c, "messages") / ops);
  record->Metric("netsim.bytes_per_op", CountOf(c, "bytes") / ops);
  record->Metric("relational.rows_scanned_per_read",
                 CountOf(c, "rows_scanned_read") / reads);
  record->Metric("relational.rows_scanned_per_write",
                 CountOf(c, "rows_scanned_write") / writes);
  record->Metric("relational.rows_evaluated_per_read",
                 CountOf(c, "rows_evaluated_read") / reads);
  record->Metric("relational.rows_evaluated_per_write",
                 CountOf(c, "rows_evaluated_write") / writes);
  record->Metric("relational.index_probes", CountOf(c, "index_probes"));
}

double TraceOverhead(const std::vector<Round>& untraced,
                     const std::vector<Round>& traced) {
  double traced_s = 0, untraced_s = 0;
  for (size_t i = 0; i < traced.size() && i < untraced.size(); ++i) {
    traced_s += traced[i].work_s * traced[i].speed;
    untraced_s += untraced[i].work_s * untraced[i].speed;
  }
  return untraced_s > 0 ? traced_s / untraced_s : 0.0;
}

void RunRecord::Check(bool ok, const std::string& what) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  if (failures_.size() < 8) failures_.push_back(what);
}

void RunRecord::Property(const std::string& name,
                         const std::string& json_value) {
  properties_.push_back({name, json_value});
}

}  // namespace perfbench

namespace perfbench {

const std::vector<MetricSpec>& EndToEndSpecs() {
  static const std::vector<MetricSpec> specs = {
      {"ops_per_s", "1/s"},
      {"setup_s", "s"},
      {"peak_rss_mb", "MB"},
  };
  return specs;
}

const std::vector<MetricSpec>& PerLayerSpecs() {
  static const std::vector<MetricSpec> specs = {
      // Workload-specific end-to-end numbers, from the untraced rounds
      // of the traced run (sim_* are exact for a seed).
      {"e2e.host_p50_us", "us"},
      {"e2e.host_p99_us", "us"},
      {"e2e.read_p99_us", "us"},
      {"e2e.write_p99_us", "us"},
      {"e2e.sim_p50_ms", "ms"},
      {"e2e.sim_p99_ms", "ms"},
      {"e2e.sim_drain_s", "s"},
      {"e2e.recover_s", "s"},
      {"e2e.error_frac", "ratio"},
      // Front end: per-input self times of the msql.* spans.
      {"msql.parse_us", "us/op"},
      {"analysis.check_us", "us/op"},
      {"msql.expand_us", "us/op"},
      {"msql.decompose_us", "us/op"},
      {"translator.translate_us", "us/op"},
      {"analysis.verify_us", "us/op"},
      {"frontend.other_us", "us/op"},
      {"frontend.share", "ratio"},
      {"frontend.text_repeat_share", "ratio"},
      // core.session_scheduler.
      {"scheduler.self_share", "ratio"},
      {"scheduler.deferrals_per_session", "count/op"},
      {"scheduler.predicted_conflicts_per_session", "count/op"},
      {"scheduler.lock_waits_per_session", "count/op"},
      {"scheduler.lock_wait_ms_per_session", "ms/op"},
      {"scheduler.busy_probes_per_session", "count/op"},
      {"scheduler.deadlock_victims", "count"},
      {"scheduler.lock_timeouts", "count"},
      // dol.
      {"dol.self_us", "us/op"},
      {"dol.tasks_per_op", "count/op"},
      {"dol.retries", "count"},
      {"dol.reprobes", "count"},
      // netsim (including the LAM).
      {"netsim.messages_per_op", "count/op"},
      {"netsim.bytes_per_op", "B/op"},
      {"netsim.send_us", "us/op"},
      {"netsim.lam_queue_ms_p99", "ms"},
      {"lam.self_us", "us/op"},
      // relational.
      {"relational.sql_parse_us", "us/op"},
      {"relational.plan_us", "us/op"},
      {"relational.exec_us", "us/op"},
      {"relational.rows_scanned_per_read", "count/op"},
      {"relational.rows_scanned_per_write", "count/op"},
      {"relational.rows_evaluated_per_read", "count/op"},
      {"relational.rows_evaluated_per_write", "count/op"},
      {"relational.index_probes", "count"},
      // storage.
      {"storage.page_reads_per_op", "count/op"},
      {"storage.page_writes_per_op", "count/op"},
      {"storage.evictions_per_op", "count/op"},
      {"storage.pin_hits_per_op", "count/op"},
      {"storage.hit_rate", "ratio"},
      {"storage.wal_appends_per_write", "count/op"},
      {"storage.wal_flushes", "count"},
      {"storage.wal_bytes_per_user_byte", "B/B"},
      {"storage.heap_bytes_per_user_byte", "B/B"},
      {"storage.checkpoint_ms", "ms"},
      {"storage.evict_us", "us/op"},
      {"storage.wal_flush_us", "us/op"},
      // obs.
      {"obs.trace_overhead", "ratio"},
      {"unattributed_share", "ratio"},
  };
  return specs;
}

}  // namespace perfbench
