#include "span_ledger.h"

#include <algorithm>
#include <cstdio>
#include <utility>
#include <vector>

#include "bench_util.h"

namespace perfbench {
namespace {

using Interval = std::pair<int64_t, int64_t>;

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.substr(0, prefix.size()) == prefix;
}

/// Length of the union of `intervals` clipped to [lo, hi].
int64_t CoveredNanos(std::vector<Interval> intervals, int64_t lo,
                     int64_t hi) {
  std::sort(intervals.begin(), intervals.end());
  int64_t covered = 0;
  int64_t cursor = lo;
  for (const auto& [start, end] : intervals) {
    const int64_t a = std::max(start, cursor);
    const int64_t b = std::min(end, hi);
    if (b > a) {
      covered += b - a;
      cursor = b;
    }
  }
  return covered;
}

}  // namespace

std::string LayerOf(std::string_view name) {
  if (name == "msql.parse") return "msql.parse_us";
  if (name == "msql.check") return "analysis.check_us";
  if (name == "msql.expand") return "msql.expand_us";
  if (name == "msql.decompose") return "msql.decompose_us";
  if (name == "msql.translate") return "translator.translate_us";
  if (name == "msql.verify") return "analysis.verify_us";
  if (StartsWith(name, "msql.")) return "frontend.other_us";
  if (name == "dol.run" || name == "dol.parbegin" || name == "reprobe" ||
      StartsWith(name, "task:") || StartsWith(name, "channel.") ||
      StartsWith(name, "2pc.")) {
    return "dol.self_us";
  }
  if (name == "net.send") return "netsim.send_us";
  if (StartsWith(name, "rpc:") || StartsWith(name, "lam:")) {
    return "lam.self_us";
  }
  if (name == "sql.plan") return "relational.plan_us";
  if (name == "sql.join") return "relational.exec_us";
  if (name == "storage.evict") return "storage.evict_us";
  if (name == "wal.flush") return "storage.wal_flush_us";
  if (name == "storage.checkpoint") return "storage.checkpoint_self_us";
  if (name == "storage.recover") return "storage.recover_self_us";
  if (StartsWith(name, "session:")) return "scheduler.session";
  return "other";
}

bool ClosesWithoutYield(std::string_view name) {
  return StartsWith(name, "msql.") || StartsWith(name, "sql.") ||
         StartsWith(name, "lam:") || name == "net.send" ||
         StartsWith(name, "storage.") || name == "wal.flush";
}

void SpanLedger::Absorb(const msql::obs::Tracer& tracer,
                        int64_t wrapper_start, int64_t wrapper_end,
                        bool yield_safe_only) {
  const std::vector<msql::obs::Span>& spans = tracer.spans();
  // Span ids are 1-based creation indices; children by parent index.
  std::vector<std::vector<size_t>> children(spans.size() + 1);
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent != 0 && spans[i].parent <= spans.size()) {
      children[spans[i].parent].push_back(i);
    }
  }
  std::vector<Interval> all;
  std::vector<Interval> yield_safe;
  all.reserve(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const msql::obs::Span& span = spans[i];
    const Interval interval{span.host_start_nanos, span.host_end_nanos};
    all.push_back(interval);
    const bool safe = ClosesWithoutYield(span.name);
    if (safe) yield_safe.push_back(interval);
    if (yield_safe_only && !safe) continue;
    std::vector<Interval> child_intervals;
    for (size_t c : children[span.id]) {
      child_intervals.push_back(
          {spans[c].host_start_nanos, spans[c].host_end_nanos});
    }
    const int64_t duration =
        std::max<int64_t>(0, span.host_end_nanos - span.host_start_nanos);
    const int64_t self =
        duration - CoveredNanos(std::move(child_intervals),
                                span.host_start_nanos, span.host_end_nanos);
    const std::string layer = LayerOf(span.name);
    self_nanos_[layer] += self;
    span_counts_[layer] += 1;
  }
  const int64_t wrapper = std::max<int64_t>(0, wrapper_end - wrapper_start);
  wrapper_nanos_ += wrapper;
  uncovered_nanos_ +=
      wrapper - CoveredNanos(std::move(all), wrapper_start, wrapper_end);
  yield_safe_uncovered_nanos_ +=
      wrapper -
      CoveredNanos(std::move(yield_safe), wrapper_start, wrapper_end);
}

int64_t SpanLedger::SelfNanos(const std::string& layer) const {
  auto it = self_nanos_.find(layer);
  return it == self_nanos_.end() ? 0 : it->second;
}

int64_t SpanLedger::SpanCount(const std::string& layer) const {
  auto it = span_counts_.find(layer);
  return it == span_counts_.end() ? 0 : it->second;
}

void ReportLedger(const SpanLedger& ledger, double ops, RunRecord* record) {
  static const char* const kFrontEnd[] = {
      "msql.parse_us",     "analysis.check_us",       "msql.expand_us",
      "msql.decompose_us", "translator.translate_us", "analysis.verify_us",
      "frontend.other_us"};
  static const char* const kOthers[] = {
      "dol.self_us",        "netsim.send_us",    "lam.self_us",
      "relational.plan_us", "relational.exec_us", "storage.evict_us",
      "storage.wal_flush_us"};
  const double per_op = ops > 0 ? 1.0 / (1000.0 * ops) : 0.0;
  const double wall = static_cast<double>(ledger.wrapper_nanos());
  double front_end = 0;
  for (const char* layer : kFrontEnd) {
    front_end += static_cast<double>(ledger.SelfNanos(layer));
    record->Metric(layer, static_cast<double>(ledger.SelfNanos(layer)) * per_op);
  }
  for (const char* layer : kOthers) {
    record->Metric(layer, static_cast<double>(ledger.SelfNanos(layer)) * per_op);
  }
  record->Metric("frontend.share", wall > 0 ? front_end / wall : 0.0);
  record->Metric("unattributed_share",
                 wall > 0 ? static_cast<double>(ledger.uncovered_nanos()) / wall
                          : 0.0);
  char line[256];
  for (const auto& [layer, nanos] : ledger.self_nanos()) {
    std::snprintf(line, sizeof(line),
                  "layer %-28s self %10.3f us/op  %6.2f%% of traced wall  "
                  "%lld spans",
                  layer.c_str(), static_cast<double>(nanos) * per_op,
                  wall > 0 ? 100.0 * static_cast<double>(nanos) / wall : 0.0,
                  static_cast<long long>(ledger.SpanCount(layer)));
    record->Note(line);
  }
  std::snprintf(line, sizeof(line),
                "layer %-28s self %10.3f us/op  %6.2f%% of traced wall",
                "(no span: unattributed)",
                static_cast<double>(ledger.uncovered_nanos()) * per_op,
                wall > 0 ? 100.0 * static_cast<double>(ledger.uncovered_nanos()) / wall
                         : 0.0);
  record->Note(line);
}

}  // namespace perfbench
