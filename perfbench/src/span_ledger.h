// Per-layer host-time attribution from the spans the program already
// records. The benchmark wraps each public call it makes in its own
// interval (a "wrapper span", kept here rather than in the program's
// tracer so the program's top-level tracing behaves as it does for any
// traced client) and folds the program spans recorded inside it into
// per-layer self times. A span's self time is its host duration minus
// the part of that interval its child spans cover.
#ifndef PERFBENCH_SPAN_LEDGER_H_
#define PERFBENCH_SPAN_LEDGER_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "obs/trace.h"

namespace perfbench {

/// Layer bucket of a program span name ("msql.check" ->
/// "analysis.check_us", "task:t1" -> "dol.self_us", ...); "other" for
/// names outside the vocabulary.
std::string LayerOf(std::string_view span_name);

/// True for spans that close without yielding to the session
/// scheduler. Under FederationServer the others (session:*, dol.run,
/// task:*, rpc:*, channel.*, 2pc.*) stay open across yields, so their
/// host intervals include other sessions' work.
bool ClosesWithoutYield(std::string_view span_name);

class SpanLedger {
 public:
  /// Folds every span of `tracer` into the ledger as work done inside
  /// the wrapper interval [wrapper_start, wrapper_end] (host nanos).
  /// With `yield_safe_only`, only spans that close without yielding are
  /// attributed (the scheduler's share is what they leave uncovered).
  void Absorb(const msql::obs::Tracer& tracer, int64_t wrapper_start,
              int64_t wrapper_end, bool yield_safe_only);

  /// Self time of a layer bucket, in nanoseconds.
  int64_t SelfNanos(const std::string& layer) const;
  /// Spans folded into a layer bucket.
  int64_t SpanCount(const std::string& layer) const;
  const std::map<std::string, int64_t>& self_nanos() const {
    return self_nanos_;
  }
  const std::map<std::string, int64_t>& span_counts() const {
    return span_counts_;
  }

  /// Total wrapper time (the traced wall time of the public calls).
  int64_t wrapper_nanos() const { return wrapper_nanos_; }
  /// Wrapper time no program span covers at all.
  int64_t uncovered_nanos() const { return uncovered_nanos_; }
  /// Wrapper time no yield-safe program span covers.
  int64_t yield_safe_uncovered_nanos() const {
    return yield_safe_uncovered_nanos_;
  }

 private:
  std::map<std::string, int64_t> self_nanos_;
  std::map<std::string, int64_t> span_counts_;
  int64_t wrapper_nanos_ = 0;
  int64_t uncovered_nanos_ = 0;
  int64_t yield_safe_uncovered_nanos_ = 0;
};

class RunRecord;

/// Emits the ledger's per-layer self times as per-op metrics (front-end
/// phases, dol.self_us, netsim.send_us, lam.self_us, relational.plan_us /
/// exec_us, storage.evict_us / wal_flush_us), frontend.share and
/// unattributed_share, plus one report line per layer bucket. `ops` is
/// the number of operations the wrapped calls served.
void ReportLedger(const SpanLedger& ledger, double ops, RunRecord* record);

}  // namespace perfbench

#endif  // PERFBENCH_SPAN_LEDGER_H_
