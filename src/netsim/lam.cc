#include "netsim/lam.h"

#include <optional>
#include <set>

#include "common/string_util.h"

namespace msql::netsim {

using relational::ResultSet;
using relational::TxnState;

std::string_view LamRequestTypeName(LamRequestType type) {
  switch (type) {
    case LamRequestType::kPing: return "PING";
    case LamRequestType::kOpenSession: return "OPEN";
    case LamRequestType::kCloseSession: return "CLOSE";
    case LamRequestType::kExecute: return "EXEC";
    case LamRequestType::kBegin: return "BEGIN";
    case LamRequestType::kPrepare: return "PREPARE";
    case LamRequestType::kCommit: return "COMMIT";
    case LamRequestType::kRollback: return "ROLLBACK";
    case LamRequestType::kQueryTxnState: return "STATUS";
    case LamRequestType::kDescribe: return "DESCRIBE";
    case LamRequestType::kDescribeView: return "DESCRIBEVIEW";
    case LamRequestType::kAnalyze: return "ANALYZE";
  }
  return "UNKNOWN";
}

int64_t LamRequest::WireBytes() const {
  // Verb + header + payload.
  return 32 + static_cast<int64_t>(database.size() + sql.size());
}

int64_t LamResponse::WireBytes() const {
  int64_t bytes = 64 + static_cast<int64_t>(status.message().size());
  bytes += 8 * static_cast<int64_t>(blocked_by.size());
  for (const auto& col : result.columns) {
    bytes += static_cast<int64_t>(col.size()) + 4;
  }
  for (const auto& row : result.rows) {
    for (const auto& v : row) {
      bytes += static_cast<int64_t>(v.ToDisplayString().size()) + 4;
    }
  }
  return bytes;
}

Lam::Lam(std::string service_name, std::string site_name,
         std::unique_ptr<relational::LocalEngine> engine,
         LamCostModel cost_model)
    : service_name_(ToLower(service_name)),
      site_name_(ToLower(site_name)),
      engine_(std::move(engine)),
      cost_model_(cost_model) {}

LamResponse Lam::Handle(const LamRequest& request, int64_t* service_micros) {
  LamResponse response;
  int64_t rows_touched = 0;
  int64_t rows_scanned = 0;
  switch (request.type) {
    case LamRequestType::kPing:
      break;
    case LamRequestType::kOpenSession: {
      auto session = engine_->OpenSession(request.database);
      if (session.ok()) {
        response.session = *session;
      } else {
        response.status = session.status();
      }
      break;
    }
    case LamRequestType::kCloseSession:
      response.status = engine_->CloseSession(request.session);
      break;
    case LamRequestType::kExecute: {
      auto result = engine_->Execute(request.session, request.sql);
      if (result.ok()) {
        rows_touched = result->IsQueryResult()
                           ? static_cast<int64_t>(result->rows.size())
                           : result->rows_affected;
        rows_scanned = result->rows_scanned;
        response.result = std::move(*result);
      } else {
        response.status = result.status();
        if (result.status().code() == StatusCode::kBusy) {
          response.blocked_by = engine_->BlockingSessions();
        }
      }
      break;
    }
    case LamRequestType::kBegin:
      response.status = engine_->Begin(request.session);
      break;
    case LamRequestType::kPrepare:
      response.status = engine_->Prepare(request.session);
      break;
    case LamRequestType::kCommit:
      response.status = engine_->Commit(request.session);
      break;
    case LamRequestType::kRollback:
      response.status = engine_->Rollback(request.session);
      break;
    case LamRequestType::kQueryTxnState: {
      auto state = engine_->GetTxnState(request.session);
      if (state.ok()) {
        response.txn_state = *state;
      } else {
        response.status = state.status();
      }
      break;
    }
    case LamRequestType::kDescribe: {
      auto db = engine_->GetDatabaseConst(request.database);
      if (!db.ok()) {
        response.status = db.status();
        break;
      }
      response.result.columns = {"table_name", "column_name", "type_name",
                                 "width"};
      std::vector<std::string> tables;
      if (request.sql.empty()) {
        tables = (*db)->TableNames();
      } else {
        tables.push_back(ToLower(request.sql));
      }
      for (const auto& table_name : tables) {
        auto table = (*db)->GetTableConst(table_name);
        if (!table.ok()) {
          response.status = table.status();
          break;
        }
        for (const auto& col : (*table)->schema().columns()) {
          response.result.rows.push_back(relational::Row{
              relational::Value::Text(table_name),
              relational::Value::Text(col.name),
              relational::Value::Text(std::string(TypeName(col.type))),
              relational::Value::Integer(col.width)});
        }
      }
      rows_touched = static_cast<int64_t>(response.result.rows.size());
      break;
    }
    case LamRequestType::kDescribeView: {
      if (request.sql.empty()) {
        response.status =
            Status::InvalidArgument("DESCRIBEVIEW requires a view name");
        break;
      }
      auto schema = engine_->DescribeView(request.database, request.sql);
      if (!schema.ok()) {
        response.status = schema.status();
        break;
      }
      response.result.columns = {"table_name", "column_name", "type_name",
                                 "width"};
      for (const auto& col : schema->columns()) {
        response.result.rows.push_back(relational::Row{
            relational::Value::Text(schema->table_name()),
            relational::Value::Text(col.name),
            relational::Value::Text(std::string(TypeName(col.type))),
            relational::Value::Integer(col.width)});
      }
      rows_touched = static_cast<int64_t>(response.result.rows.size());
      break;
    }
    case LamRequestType::kAnalyze: {
      auto db = engine_->GetDatabaseConst(request.database);
      if (!db.ok()) {
        response.status = db.status();
        break;
      }
      response.result.columns = {"table_name",  "column_name",
                                 "row_count",   "distinct_values",
                                 "min_value",   "max_value",
                                 "avg_width_bytes"};
      std::vector<std::string> tables;
      if (request.sql.empty()) {
        tables = (*db)->TableNames();
      } else {
        tables.push_back(ToLower(request.sql));
      }
      for (const auto& table_name : tables) {
        auto table = (*db)->GetTableConst(table_name);
        if (!table.ok()) {
          response.status = table.status();
          break;
        }
        const relational::TableSchema& schema = (*table)->schema();
        // One pass over the table feeds every column's accumulator.
        struct ColumnStats {
          std::set<std::string> distinct;
          std::optional<relational::Value> min_v, max_v;
          int64_t width_sum = 0;
        };
        std::vector<ColumnStats> stats(schema.columns().size());
        int64_t row_count = 0;
        Status scanned = (*table)->Scan(
            [&](relational::RowId, relational::Row row) -> Status {
              ++row_count;
              for (size_t c = 0; c < stats.size(); ++c) {
                ColumnStats& col = stats[c];
                const relational::Value& v = row[c];
                col.width_sum +=
                    static_cast<int64_t>(v.ToDisplayString().size()) + 4;
                if (v.is_null()) continue;
                col.distinct.insert(v.ToSqlLiteral());
                if (!col.min_v || v.Compare(*col.min_v) < 0) col.min_v = v;
                if (!col.max_v || v.Compare(*col.max_v) > 0) col.max_v = v;
              }
              return Status::OK();
            });
        if (!scanned.ok()) {
          response.status = scanned;
          break;
        }
        rows_scanned += row_count;
        for (size_t c = 0; c < stats.size(); ++c) {
          const ColumnStats& col = stats[c];
          const double avg_width =
              row_count == 0 ? 0.0
                             : static_cast<double>(col.width_sum) /
                                   static_cast<double>(row_count);
          response.result.rows.push_back(relational::Row{
              relational::Value::Text(table_name),
              relational::Value::Text(schema.columns()[c].name),
              relational::Value::Integer(row_count),
              relational::Value::Integer(
                  static_cast<int64_t>(col.distinct.size())),
              relational::Value::Text(
                  col.min_v ? col.min_v->ToDisplayString() : ""),
              relational::Value::Text(
                  col.max_v ? col.max_v->ToDisplayString() : ""),
              relational::Value::Real(avg_width)});
        }
      }
      rows_touched = static_cast<int64_t>(response.result.rows.size());
      break;
    }
  }
  // Whatever the outcome, report the transaction state when a session is
  // named — the DOL engine's IF conditions read it from every response.
  if (request.session != 0) {
    auto state = engine_->GetTxnState(request.session);
    if (state.ok()) response.txn_state = *state;
  }
  if (service_micros != nullptr) {
    *service_micros = cost_model_.request_overhead_micros +
                      rows_touched * cost_model_.micros_per_row +
                      rows_scanned * cost_model_.micros_per_row_scanned;
  }
  return response;
}

}  // namespace msql::netsim
