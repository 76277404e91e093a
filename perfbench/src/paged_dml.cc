// paged_dml: one relational::LocalEngine with paged storage, the table
// more than 10x the buffer pool, driven by one session in a closed loop
// with uniform random keys: 60% indexed point SELECT, 25% indexed point
// UPDATE, 10% DELETE + re-INSERT transactions, 5% short range counts,
// plus a Checkpoint() every 100 operations. No federation layer is
// involved. Flush policy: a commit fflush()es the WAL and never fsyncs,
// so latency is the host page cache's, not a device's.
//
// A round loads a fresh engine (the timed set-up), runs the seeded
// operations, leaves an uncommitted transaction open, cuts the power
// (SimulateCrash) and times Recover(). The recovered table must equal
// the benchmark's model of acknowledged commits, with the uncommitted
// tail discarded; every SELECT answer is checked against the model too.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "relational/engine.h"
#include "relational/sql/parser.h"
#include "span_ledger.h"
#include "storage/page.h"

namespace perfbench {
namespace {

using msql::Rng;
using msql::relational::CapabilityProfile;
using msql::relational::LocalEngine;
using msql::relational::ResultSet;
using msql::relational::SessionId;

enum class Kind { kPointSelect, kPointUpdate, kDeleteInsert, kRangeCount };
constexpr const char* kKindNames[] = {"point_select", "point_update",
                                      "delete_reinsert", "range_count"};
constexpr int kCheckpointEvery = 100;
constexpr int kPadLength = 100;

bool IsWrite(Kind kind) {
  return kind == Kind::kPointUpdate || kind == Kind::kDeleteInsert;
}

struct Sizes {
  int rows;
  size_t pool_pages;
  int ops;
};

struct Op {
  Kind kind = Kind::kPointSelect;
  int key = 0;
  int value = 0;  // UPDATE delta or re-INSERT grp
};

/// The seeded operations: exactly 60% point SELECT, 25% point UPDATE,
/// 10% DELETE + re-INSERT and 5% range counts, block-shuffled, on
/// uniform random keys (stratified per kind).
std::vector<Op> GenerateOps(uint64_t seed, const Sizes& sizes) {
  Rng rng(seed * 0xA24BAED4963EE407ULL + 3);
  std::vector<Op> ops;
  ops.reserve(sizes.ops);
  const std::vector<int> kinds =
      BlockShuffledMix({12, 5, 2, 1}, sizes.ops, &rng);
  int per_kind[4] = {};
  for (int kind : kinds) ++per_kind[kind];
  Stratified keys[4] = {{per_kind[0], &rng},
                        {per_kind[1], &rng},
                        {per_kind[2], &rng},
                        {per_kind[3], &rng}};
  for (int i = 0; i < sizes.ops; ++i) {
    Op op;
    op.kind = static_cast<Kind>(kinds[i]);
    op.key = keys[kinds[i]].Index(sizes.rows);
    op.value = 1 + static_cast<int>(rng.NextBelow(1000));
    ops.push_back(op);
  }
  return ops;
}

std::string Pad(int id) {
  return "p" + std::to_string(id) + "_" + std::string(kPadLength, 'x');
}

/// Logical bytes of one row image (id, grp, pad) — the user payload
/// the WAL and heap sizes are compared with.
double RowBytes(int id) { return 16.0 + static_cast<double>(Pad(id).size()); }

/// The statements of one operation, in order (a transaction is several).
std::vector<std::string> StatementsOf(const Op& op, int range_rows) {
  const std::string key = std::to_string(op.key);
  switch (op.kind) {
    case Kind::kPointSelect:
      return {"SELECT grp FROM t WHERE id = " + key + ";"};
    case Kind::kPointUpdate:
      return {"UPDATE t SET grp = grp + " + std::to_string(op.value) +
              " WHERE id = " + key + ";"};
    case Kind::kDeleteInsert:
      return {"BEGIN;", "DELETE FROM t WHERE id = " + key + ";",
              "INSERT INTO t VALUES (" + key + ", " + std::to_string(op.value) +
                  ", '" + Pad(op.key) + "');",
              "COMMIT;"};
    case Kind::kRangeCount:
      return {"SELECT COUNT(*) FROM t WHERE id >= " + key + " AND id < " +
              std::to_string(op.key + range_rows) + ";"};
  }
  return {};
}

/// Heap and WAL file sizes under the storage root.
void FileSizes(const std::string& root, double* heap, double* wal) {
  *heap = 0;
  *wal = 0;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(root, ec)) {
    const double size = static_cast<double>(entry.file_size(ec));
    if (entry.path().extension() == ".heap") *heap += size;
    if (entry.path().filename() == "wal.log") *wal += size;
  }
}

bool RunRound(const Sizes& sizes,
              const std::vector<Op>& ops, const std::string& root,
              bool traced, bool corrupt, SpanLedger* ledger,
              RunRecord* record, Round* out) {
  std::filesystem::remove_all(root);
  std::filesystem::create_directories(root);
  msql::relational::StorageConfig config;
  config.root_dir = root;
  config.buffer_pool_pages = sizes.pool_pages;

  // Set-up: a fresh durable engine loaded in committed batches of 50
  // rows, with a checkpoint every 2000 rows.
  const int64_t setup_start = NowNanos();
  // Declared before the engine, which keeps pointers to both.
  msql::obs::Tracer tracer;
  msql::obs::MetricsRegistry metrics;
  LocalEngine engine("paged", CapabilityProfile::IngresLike());
  bool ok = engine.AttachStorage(config).ok() &&
            engine.CreateDatabase("d").ok();
  auto opened = engine.OpenSession("d");
  ok = ok && opened.ok();
  const SessionId sid = opened.ok() ? *opened : 0;
  ok = ok &&
       engine.Execute(sid, "CREATE TABLE t (id INTEGER, grp INTEGER, pad "
                           "CHAR(120));")
           .ok() &&
       engine.Execute(sid, "CREATE INDEX t_id ON t (id);").ok();
  std::vector<int64_t> model(sizes.rows);
  double user_bytes = 0;
  for (int i = 0; ok && i < sizes.rows; ++i) {
    if (i % 50 == 0) ok = engine.Execute(sid, "BEGIN;").ok();
    model[i] = i % 97;
    ok = ok && engine
                   .Execute(sid, "INSERT INTO t VALUES (" + std::to_string(i) +
                                     ", " + std::to_string(model[i]) + ", '" +
                                     Pad(i) + "');")
                   .ok();
    user_bytes += RowBytes(i);
    if (ok && (i % 50 == 49 || i + 1 == sizes.rows)) {
      ok = engine.Execute(sid, "COMMIT;").ok();
    }
    if (ok && i > 0 && i % 2000 == 0) ok = engine.Checkpoint().ok();
  }
  ok = ok && engine.Checkpoint().ok();
  out->setup_s = SecondsSince(setup_start);
  record->Check(ok, "paged engine load failed");
  if (!ok) return false;

  engine.SetObservability(&tracer, &metrics);
  tracer.set_enabled(traced);
  metrics.set_enabled(traced);
  auto* storage = engine.storage();
  const auto& pool = storage->pool();
  const int64_t reads0 = pool.page_reads(), writes0 = pool.page_writes(),
                evictions0 = pool.evictions(), pins0 = pool.pin_hits();
  const int64_t appends0 = storage->wal().appends();
  const int64_t flushes0 = storage->wal().flushes();

  // Wraps one public call: times it and, when traced, folds the spans it
  // recorded into the ledger and clears the tracer (pitfall 2).
  auto wrapped = [&](auto&& call) {
    const int64_t start = NowNanos();
    auto result = call();
    const int64_t end = NowNanos();
    if (traced) {
      ledger->Absorb(tracer, start, end, /*yield_safe_only=*/false);
      tracer.Clear();
    }
    return std::make_pair(std::move(result), end - start);
  };

  const int range_rows = 20;
  std::vector<double> host_us;
  std::vector<bool> is_write;
  std::vector<double> checkpoint_ms;
  for (size_t i = 0; i < ops.size(); ++i) {
    const Op& op = ops[i];
    const std::vector<std::string> statements = StatementsOf(op, range_rows);
    if (traced) {
      const int64_t parse_start = NowNanos();
      for (const std::string& sql : statements) {
        record->Check(msql::relational::ParseSql(sql).ok(),
                      "ParseSql rejected " + sql);
      }
      out->timings["parse_s"] += SecondsSince(parse_start);
      out->counts["statements"] += static_cast<double>(statements.size());
    }
    int64_t nanos = 0;
    bool op_ok = true;
    std::vector<ResultSet> results;
    for (const std::string& sql : statements) {
      auto [rs, took] =
          wrapped([&] { return engine.Execute(sid, sql); });
      nanos += took;
      if (!rs.ok()) {
        op_ok = false;
        break;
      }
      results.push_back(std::move(*rs));
    }
    const bool write = IsWrite(op.kind);
    host_us.push_back(static_cast<double>(nanos) / 1000.0);
    is_write.push_back(write);
    out->work_s += static_cast<double>(nanos) / 1e9;

    // Check the answer against the model, then apply acknowledged
    // commits to it.
    std::string error = op_ok ? "" : "statement failed";
    if (op_ok) {
      const ResultSet& first = results.front();
      switch (op.kind) {
        case Kind::kPointSelect:
          if (first.rows.size() != 1 ||
              first.rows[0][0].AsInteger() != model[op.key]) {
            error = "point SELECT disagrees with the model";
          }
          break;
        case Kind::kPointUpdate:
          if (first.rows_affected != 1) error = "UPDATE did not hit one row";
          model[op.key] += op.value;
          user_bytes += RowBytes(op.key);
          break;
        case Kind::kDeleteInsert:
          if (results[1].rows_affected != 1 || results[2].rows_affected != 1) {
            error = "DELETE + INSERT did not replace one row";
          }
          model[op.key] = op.value;
          user_bytes += RowBytes(op.key);
          break;
        case Kind::kRangeCount: {
          const int64_t want =
              std::min(sizes.rows, op.key + range_rows) - op.key;
          if (first.rows.size() != 1 || first.rows[0][0].AsInteger() != want) {
            error = "range COUNT disagrees with the model";
          }
          break;
        }
      }
      const std::string cls = write ? "write" : "read";
      for (const ResultSet& rs : results) {
        out->counts["rows_scanned_" + cls] +=
            static_cast<double>(rs.rows_scanned);
        out->counts["rows_evaluated_" + cls] +=
            static_cast<double>(rs.rows_evaluated);
        out->fingerprint.push_back(rs.rows_scanned);
      }
    }
    record->Check(error.empty(),
                  std::string(kKindNames[static_cast<int>(op.kind)]) + ": " +
                      error);
    if ((i + 1) % kCheckpointEvery == 0) {
      auto [status, took] = wrapped([&] { return engine.Checkpoint(); });
      record->Check(status.ok(), "Checkpoint failed");
      checkpoint_ms.push_back(static_cast<double>(took) / 1e6);
      out->work_s += static_cast<double>(took) / 1e9;
    }
  }
  out->latency = Summarize(host_us, is_write);
  out->timings["checkpoint_ms"] = Median(checkpoint_ms);
  out->counts["page_reads"] = static_cast<double>(pool.page_reads() - reads0);
  out->counts["page_writes"] =
      static_cast<double>(pool.page_writes() - writes0);
  out->counts["evictions"] = static_cast<double>(pool.evictions() - evictions0);
  out->counts["pin_hits"] = static_cast<double>(pool.pin_hits() - pins0);
  out->counts["wal_appends"] =
      static_cast<double>(storage->wal().appends() - appends0);
  out->counts["wal_flushes"] =
      static_cast<double>(storage->wal().flushes() - flushes0);
  out->counts["index_probes"] =
      static_cast<double>(metrics.Get("sql.index_probes"));
  double heap_bytes = 0, wal_bytes = 0;
  FileSizes(root, &heap_bytes, &wal_bytes);
  double live_bytes = 0;
  for (int id = 0; id < sizes.rows; ++id) live_bytes += RowBytes(id);
  out->counts["heap_bytes"] = heap_bytes;
  out->counts["live_bytes"] = live_bytes;
  for (const char* key : {"page_reads", "page_writes", "evictions",
                          "pin_hits", "wal_appends", "wal_flushes"}) {
    out->fingerprint.push_back(static_cast<int64_t>(out->counts[key]));
  }

  // An uncommitted tail, then the power cut: recovery must discard it.
  const int tail_key = ops.empty() ? 0 : ops.back().key;
  ok = engine.Execute(sid, "BEGIN;").ok() &&
       engine
           .Execute(sid, "UPDATE t SET grp = grp + 100000 WHERE id = " +
                             std::to_string(tail_key) + ";")
           .ok();
  record->Check(ok, "uncommitted tail failed to start");
  FileSizes(root, &heap_bytes, &wal_bytes);
  out->counts["wal_per_user_byte"] = wal_bytes / user_bytes;
  engine.SimulateCrash();
  auto [recovered, recover_nanos] = wrapped([&] { return engine.Recover(); });
  out->timings["recover_s"] = static_cast<double>(recover_nanos) / 1e9;
  record->Check(recovered.ok(), "Recover failed");
  if (!recovered.ok()) return false;

  // The recovered table must equal the model of acknowledged commits.
  if (corrupt) model[tail_key] += 1;
  auto post = engine.OpenSession("d");
  auto table =
      post.ok() ? engine.Execute(*post, "SELECT id, grp FROM t;")
                : msql::Result<ResultSet>(post.status());
  bool same = table.ok() && table->rows.size() == model.size();
  if (same) {
    std::vector<int64_t> seen(model.size(), -1);
    for (const auto& row : table->rows) {
      const int64_t id = row[0].AsInteger();
      if (id < 0 || id >= sizes.rows || seen[id] != -1) {
        same = false;
        break;
      }
      seen[id] = row[1].AsInteger();
    }
    same = same && seen == model;
  }
  record->Check(same, "recovered table differs from the acknowledged commits");
  std::filesystem::remove_all(root);
  return same;
}

}  // namespace

void RunPagedDml(const Options& options, RunRecord* record) {
  const Sizes sizes = options.tiny ? Sizes{1200, 8, 120}
                                   : Sizes{6000, 24, 600};
  const std::vector<Op> ops = GenerateOps(options.seed, sizes);
  const std::string root =
      options.data_dir + "/paged_dml_" + std::to_string(::getpid());

  std::vector<Round> untraced;
  std::vector<Round> traced;
  SpanLedger ledger;
  RunPhases(options, &untraced, &traced, record,
            [&](bool is_traced, Round* round) {
              return RunRound(sizes, ops, root, is_traced,
                              !is_traced && options.corrupt == "model",
                              &ledger, record, round);
            });
  std::filesystem::remove_all(root);
  if (record->failed() > 0 || untraced.empty()) return;

  // Workload properties.
  std::map<std::string, int> per_kind;
  int writes = 0;
  for (const Op& op : ops) {
    ++per_kind[kKindNames[static_cast<int>(op.kind)]];
    writes += IsWrite(op.kind) ? 1 : 0;
  }
  const double n = static_cast<double>(ops.size());
  const Round& first = untraced.front();
  const double pool_bytes =
      static_cast<double>(sizes.pool_pages * msql::storage::kPageSize);
  record->Property("seed", static_cast<double>(options.seed));
  record->Property("table_rows", sizes.rows);
  record->Property("buffer_pool_pages", static_cast<double>(sizes.pool_pages));
  record->Property("working_set_over_pool",
                   CountOf(first.counts, "heap_bytes") / pool_bytes);
  record->Property("loop", JsonString("closed, 1 session, uniform keys"));
  record->Property("ops_per_round", n);
  record->Property("op_counts", CountsJson(per_kind));
  record->Property("read_share", (n - writes) / n);
  record->Property("write_share", writes / n);
  record->Property("checkpoint_every_ops", kCheckpointEvery);
  record->Property("frontend.text_repeat_share", 0);
  record->Property("flush_policy",
                   JsonString("commit fflush()es the WAL, no fsync: host "
                              "page-cache latency, not a device's"));

  std::vector<double> recovers, checkpoints;
  for (const Round& r : untraced) {
    recovers.push_back(CountOf(r.timings, "recover_s") * r.speed);
    checkpoints.push_back(CountOf(r.timings, "checkpoint_ms") * r.speed);
  }
  record->Metric("e2e.recover_s", Median(recovers));
  ReportEndToEnd(untraced, n, /*latencies=*/true, record);
  if (!options.trace || traced.empty()) return;

  const Round& t = traced.front();
  double parse_seconds = 0;
  double statements = 0;
  for (const Round& r : traced) {
    parse_seconds += CountOf(r.timings, "parse_s");
    statements += CountOf(r.counts, "statements");
  }
  const double pins = CountOf(t.counts, "pin_hits");
  const double page_reads = CountOf(t.counts, "page_reads");
  // Per-op self times cover the operation phase, each checkpoint and the
  // final Recover() of every traced round.
  ReportLedger(ledger, n * static_cast<double>(traced.size()), record);
  record->Metric("relational.sql_parse_us",
                 statements > 0 ? parse_seconds * 1e6 / statements : 0.0);
  ReportWorkCounts(t, n, writes, record);
  record->Metric("storage.page_reads_per_op", page_reads / n);
  record->Metric("storage.page_writes_per_op",
                 CountOf(t.counts, "page_writes") / n);
  record->Metric("storage.evictions_per_op", CountOf(t.counts, "evictions") / n);
  record->Metric("storage.pin_hits_per_op", pins / n);
  record->Metric("storage.hit_rate",
                 pins + page_reads > 0 ? pins / (pins + page_reads) : 0.0);
  record->Metric("storage.wal_appends_per_write",
                 CountOf(t.counts, "wal_appends") / writes);
  record->Metric("storage.wal_flushes", CountOf(t.counts, "wal_flushes"));
  record->Metric("storage.wal_bytes_per_user_byte",
                 CountOf(t.counts, "wal_per_user_byte"));
  record->Metric("storage.heap_bytes_per_user_byte",
                 CountOf(t.counts, "heap_bytes") /
                     CountOf(t.counts, "live_bytes"));
  record->Metric("storage.checkpoint_ms", Median(checkpoints));
  record->Metric("obs.trace_overhead", TraceOverhead(untraced, traced));
  record->Note("traced rounds: " + std::to_string(traced.size()) + " x " +
               std::to_string(ops.size()) +
               " operations; every Execute, Checkpoint and Recover wrapped, "
               "tracer cleared after each call (pitfall 2); ParseSql timed "
               "outside the wrappers");
}

}  // namespace perfbench
