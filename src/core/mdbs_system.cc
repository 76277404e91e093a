#include "core/mdbs_system.h"

#include <algorithm>
#include <span>

#include "analysis/dol_verifier.h"
#include "analysis/msql_checker.h"
#include "common/string_util.h"
#include "msql/decomposer.h"
#include "msql/expander.h"
#include "msql/parser.h"
#include "relational/sql/parser.h"

namespace msql::core {

using lang::ExpansionResult;
using lang::MsqlQuery;
using lang::UseClause;
using relational::StatementKind;

std::string_view GlobalOutcomeName(GlobalOutcome outcome) {
  switch (outcome) {
    case GlobalOutcome::kSuccess: return "SUCCESS";
    case GlobalOutcome::kAborted: return "ABORTED";
    case GlobalOutcome::kIncorrect: return "INCORRECT";
    case GlobalOutcome::kRefused: return "REFUSED";
  }
  return "UNKNOWN";
}

namespace {

std::string_view InputKindName(lang::MsqlInput::Kind kind) {
  switch (kind) {
    case lang::MsqlInput::Kind::kQuery: return "query";
    case lang::MsqlInput::Kind::kMultiTransaction: return "multitransaction";
    case lang::MsqlInput::Kind::kIncorporate: return "incorporate";
    case lang::MsqlInput::Kind::kImport: return "import";
    case lang::MsqlInput::Kind::kAnalyze: return "analyze";
    case lang::MsqlInput::Kind::kCreateMultidatabase:
      return "create multidatabase";
    case lang::MsqlInput::Kind::kDropMultidatabase:
      return "drop multidatabase";
    case lang::MsqlInput::Kind::kCreateView: return "create view";
    case lang::MsqlInput::Kind::kDropView: return "drop view";
    case lang::MsqlInput::Kind::kCreateTrigger: return "create trigger";
    case lang::MsqlInput::Kind::kDropTrigger: return "drop trigger";
  }
  return "input";
}

}  // namespace

void MultidatabaseSystem::FinishInputSpan(obs::ScopedSpan* span,
                                          bool top_level,
                                          ExecutionReport* report) {
  if (!span->active()) return;
  obs::Tracer& tracer = env_.tracer();
  span->Annotate("outcome", GlobalOutcomeName(report->outcome));
  uint64_t root = span->id();
  span->End(report->run.makespan_micros);
  if (top_level) {
    report->trace_text = obs::ExportTextTree(tracer, root);
    if (collect_profiles_) {
      obs::ProfileInputs inputs;
      inputs.root = root;
      inputs.outcome = std::string(GlobalOutcomeName(report->outcome));
      inputs.makespan_micros = report->run.makespan_micros;
      inputs.messages = report->run.messages;
      inputs.bytes = report->run.bytes;
      inputs.retries = report->run.retries;
      inputs.reprobes = report->run.reprobes;
      // Join the run's per-task record with the vital flags the verdicts
      // carry and the row counters the local planner reported.
      for (const auto& [name, task] : report->run.tasks) {
        obs::TaskProfile tp;
        tp.name = name;
        tp.service = task.service;
        tp.database = task.database;
        tp.state = std::string(dol::DolTaskStateName(task.state));
        for (const auto& verdict : report->verdicts) {
          if (verdict.task == name) tp.vital = verdict.vital;
        }
        tp.start_micros = task.start_micros;
        tp.end_micros = task.end_micros;
        tp.rows_returned = static_cast<int64_t>(task.result.rows.size());
        tp.rows_affected = task.result.rows_affected;
        tp.rows_scanned = task.result.rows_scanned;
        tp.rows_evaluated = task.result.rows_evaluated;
        inputs.tasks.push_back(std::move(tp));
      }
      inputs.counters_before = profile_counters_before_;
      inputs.metrics = &env_.metrics();
      report->profile_text =
          obs::RenderProfileText(obs::BuildQueryProfile(tracer, inputs));
    }
    tracer.set_sim_offset_micros(tracer.sim_offset_micros() +
                                 report->run.makespan_micros);
  }
}

void MultidatabaseSystem::SnapshotProfileCounters(bool top_level) {
  if (top_level && collect_profiles_) {
    profile_counters_before_ = env_.metrics().CounterSnapshot();
  }
}

void MultidatabaseSystem::LogInput(lang::MsqlInput::Kind kind,
                                   const ExecutionReport& report) {
  if (!query_log_.enabled()) return;
  obs::QueryLogRecord record;
  record.kind = std::string(InputKindName(kind));
  record.outcome = std::string(GlobalOutcomeName(report.outcome));
  record.dol_status = report.dol_status;
  if (!report.detail.ok()) record.detail = report.detail.ToString();
  record.makespan_micros = report.run.makespan_micros;
  record.messages = report.run.messages;
  record.bytes = report.run.bytes;
  record.retries = report.retries_performed;
  record.reprobes = report.reprobes_performed;
  if (report.is_join) {
    record.rows_returned =
        static_cast<int64_t>(report.join_result.rows.size());
  } else {
    record.rows_returned =
        static_cast<int64_t>(report.multitable.TotalRows());
  }
  record.rows_transferred = report.rows_transferred;
  for (const auto& verdict : report.verdicts) {
    obs::QueryLogRecord::Verdict v;
    v.database = verdict.database;
    v.service = verdict.service;
    v.task = verdict.task;
    v.state = std::string(dol::DolTaskStateName(verdict.state));
    v.vital = verdict.vital;
    record.verdicts.push_back(std::move(v));
    if (verdict.state == dol::DolTaskState::kCompensated) {
      record.compensations.push_back(verdict.task);
    }
  }
  record.degraded_services = report.degraded_services;
  record.non_pertinent = report.non_pertinent;
  record.fired_triggers = report.fired_triggers;
  query_log_.Append(std::move(record));
}

MultidatabaseSystem::MultidatabaseSystem(std::string coordinator_site)
    : env_(std::move(coordinator_site)) {}

Status MultidatabaseSystem::AddService(std::string_view service,
                                       std::string_view site,
                                       relational::CapabilityProfile profile,
                                       netsim::LamCostModel cost_model) {
  auto engine = std::make_unique<relational::LocalEngine>(
      std::string(service), std::move(profile));
  engine->set_collect_plan_text(collect_plans_);
  return env_.AddService(service, site, std::move(engine), cost_model);
}

Result<relational::LocalEngine*> MultidatabaseSystem::GetEngine(
    std::string_view service) {
  MSQL_ASSIGN_OR_RETURN(netsim::Lam * lam, env_.GetLam(service));
  return lam->engine();
}

void MultidatabaseSystem::set_collect_plans(bool on) {
  collect_plans_ = on;
  for (const auto& name : env_.ServiceNames()) {
    auto lam = env_.GetLam(name);
    if (lam.ok()) (*lam)->engine()->set_collect_plan_text(on);
  }
}

Status MultidatabaseSystem::RunLocalSql(std::string_view service,
                                        std::string_view database,
                                        std::string_view sql_script) {
  MSQL_ASSIGN_OR_RETURN(relational::LocalEngine * engine,
                        GetEngine(service));
  MSQL_ASSIGN_OR_RETURN(auto statements,
                        relational::ParseSqlScript(sql_script));
  MSQL_ASSIGN_OR_RETURN(relational::SessionId session,
                        engine->OpenSession(database));
  for (const auto& stmt : statements) {
    auto result = engine->ExecuteStatement(session, *stmt);
    if (!result.ok()) {
      (void)engine->CloseSession(session);
      return result.status();
    }
  }
  return engine->CloseSession(session);
}

Result<MsqlQuery> MultidatabaseSystem::ResolveScope(
    const MsqlQuery& query, const UseClause& scope) const {
  MsqlQuery resolved = query.CloneQuery();
  // Virtual databases: a USE entry naming a multidatabase stands for its
  // members (VITAL distributes over them; aliases cannot rename a set).
  {
    std::vector<lang::UseEntry> expanded;
    for (const auto& entry : resolved.use.entries) {
      if (!gdd_.HasMultidatabase(entry.database)) {
        expanded.push_back(entry);
        continue;
      }
      if (!entry.alias.empty()) {
        return Status::InvalidArgument(
            "multidatabase '" + entry.database +
            "' cannot be aliased in a USE scope");
      }
      MSQL_ASSIGN_OR_RETURN(const std::vector<std::string>* members,
                            gdd_.GetMultidatabase(entry.database));
      for (const auto& member : *members) {
        lang::UseEntry member_entry;
        member_entry.database = member;
        member_entry.vital = entry.vital;
        expanded.push_back(std::move(member_entry));
      }
    }
    resolved.use.entries = std::move(expanded);
  }
  if (resolved.use.current) {
    // Inherit the session scope, then append the newly named databases
    // that are not already in it.
    std::vector<lang::UseEntry> merged = scope.entries;
    for (const auto& entry : resolved.use.entries) {
      bool exists = false;
      for (const auto& have : merged) {
        if (EqualsIgnoreCase(have.EffectiveName(), entry.EffectiveName())) {
          exists = true;
          break;
        }
      }
      if (!exists) merged.push_back(entry);
    }
    resolved.use.entries = std::move(merged);
    resolved.use.current = false;
  }
  if (resolved.use.entries.empty()) {
    return Status::InvalidArgument(
        "no query scope: issue a USE statement naming the databases");
  }
  return resolved;
}

Result<ExecutionReport> MultidatabaseSystem::Execute(
    std::string_view msql_text) {
  obs::Tracer& tracer = env_.tracer();
  const bool top_level = tracer.enabled() && tracer.current_parent() == 0;
  SnapshotProfileCounters(top_level);
  obs::ScopedSpan exec_span(&tracer, "msql.execute", "frontend", 0);
  Result<lang::MsqlInput> parsed = [&] {
    obs::ScopedSpan parse_span(&tracer, "msql.parse", "frontend", 0);
    return lang::MsqlParser::ParseOne(msql_text);
  }();
  MSQL_RETURN_IF_ERROR(parsed.status());
  return ExecuteInput(*parsed, top_level, &exec_span);
}

Result<std::vector<ExecutionReport>> MultidatabaseSystem::ExecuteScript(
    std::string_view msql_text) {
  MSQL_ASSIGN_OR_RETURN(auto inputs,
                        lang::MsqlParser::ParseScript(msql_text));
  obs::Tracer& tracer = env_.tracer();
  std::vector<ExecutionReport> reports;
  for (const auto& input : inputs) {
    const bool top_level = tracer.enabled() && tracer.current_parent() == 0;
    SnapshotProfileCounters(top_level);
    obs::ScopedSpan exec_span(&tracer, "msql.execute", "frontend", 0);
    MSQL_ASSIGN_OR_RETURN(auto report,
                          ExecuteInput(input, top_level, &exec_span));
    reports.push_back(std::move(report));
  }
  return reports;
}

Result<ExecutionReport> MultidatabaseSystem::ExecuteInput(
    const lang::MsqlInput& input, bool top_level, obs::ScopedSpan* span) {
  span->Annotate("kind", InputKindName(input.kind));
  auto report = [&]() -> Result<ExecutionReport> {
    switch (input.kind) {
      case lang::MsqlInput::Kind::kQuery:
        return ExecuteCompiled(&*input.query, nullptr);
      case lang::MsqlInput::Kind::kMultiTransaction:
        return ExecuteCompiled(nullptr, &*input.multitransaction);
      default:
        MSQL_RETURN_IF_ERROR(ExecuteCatalog(input));
        return ExecutionReport{};
    }
  }();
  if (report.ok()) {
    FinishInputSpan(span, top_level, &*report);
    LogInput(input.kind, *report);
  }
  return report;
}

Status MultidatabaseSystem::ExecuteCatalog(const lang::MsqlInput& input) {
  switch (input.kind) {
    case lang::MsqlInput::Kind::kIncorporate:
      return ExecuteIncorporate(*input.incorporate);
    case lang::MsqlInput::Kind::kImport:
      return ExecuteImport(*input.import).status();
    case lang::MsqlInput::Kind::kAnalyze:
      return ExecuteAnalyze(*input.analyze).status();
    case lang::MsqlInput::Kind::kCreateMultidatabase:
      return ExecuteCreateMultidatabase(*input.create_multidatabase);
    case lang::MsqlInput::Kind::kDropMultidatabase:
      return ExecuteDropMultidatabase(*input.drop_multidatabase);
    case lang::MsqlInput::Kind::kCreateView:
      return ExecuteCreateView(*input.create_view);
    case lang::MsqlInput::Kind::kDropView:
      return ExecuteDropView(*input.drop_view);
    case lang::MsqlInput::Kind::kCreateTrigger:
      return ExecuteCreateTrigger(*input.create_trigger);
    case lang::MsqlInput::Kind::kDropTrigger:
      return ExecuteDropTrigger(*input.drop_trigger);
    case lang::MsqlInput::Kind::kQuery:
    case lang::MsqlInput::Kind::kMultiTransaction:
      break;
  }
  return Status::Internal("not a catalog input");
}

Status MultidatabaseSystem::ExecuteIncorporate(
    const lang::IncorporateStmt& stmt) {
  mdbs::ServiceDescriptor descriptor;
  descriptor.name = stmt.service;
  descriptor.site = stmt.site;
  descriptor.connect_mode = stmt.connect_mode;
  descriptor.autocommit_only = stmt.autocommit_only;
  descriptor.ddl_modes.create_autocommits = stmt.create_autocommits;
  descriptor.ddl_modes.insert_autocommits = stmt.insert_autocommits;
  descriptor.ddl_modes.drop_autocommits = stmt.drop_autocommits;
  return mdbs::IncorporateService(&env_, &ad_, std::move(descriptor));
}

Result<std::vector<std::string>> MultidatabaseSystem::ExecuteImport(
    const lang::ImportStmt& stmt) {
  mdbs::ImportSpec spec;
  spec.database = stmt.database;
  spec.service = stmt.service;
  spec.table = stmt.table;
  spec.view = stmt.view;
  spec.columns = stmt.columns;
  return mdbs::ImportDatabase(&env_, ad_, &gdd_, spec);
}

Result<std::vector<std::string>> MultidatabaseSystem::ExecuteAnalyze(
    const lang::AnalyzeStmt& stmt) {
  mdbs::AnalyzeSpec spec;
  spec.database = stmt.database;
  spec.table = stmt.table;
  return mdbs::AnalyzeDatabase(&env_, ad_, &gdd_, spec);
}

lang::CostContext MultidatabaseSystem::BuildCostContext() const {
  lang::CostContext ctx;
  ctx.mdbs_site = env_.coordinator_site();
  for (const auto& db_name : gdd_.DatabaseNames()) {
    auto db = gdd_.GetDatabase(db_name);
    if (!db.ok()) continue;
    auto entry = env_.GetServiceEntry((*db)->service);
    if (entry.ok()) {
      const std::string& site = (*entry)->site_name;
      ctx.site_of_db[db_name] = site;
      const netsim::LinkParams to =
          env_.network().GetLink(ctx.mdbs_site, site);
      ctx.links[{ctx.mdbs_site, site}] =
          lang::LinkCost{to.latency_micros, to.micros_per_kb};
      const netsim::LinkParams from =
          env_.network().GetLink(site, ctx.mdbs_site);
      ctx.links[{site, ctx.mdbs_site}] =
          lang::LinkCost{from.latency_micros, from.micros_per_kb};
    }
    // Median, not mean: bulk catalog calls (IMPORT/ANALYZE responses
    // carry whole schemas or scans) would otherwise inflate a healthy
    // site's observed latency and skew movement decisions against it.
    const obs::SiteHealth* health = env_.health().Get((*db)->service);
    if (health != nullptr && health->latency().count() > 0) {
      ctx.observed_latency_micros[db_name] =
          static_cast<double>(health->latency().Quantile(0.5));
    }
    // Only fresh snapshots enter the context: a missing entry is the
    // decomposer's signal to fall back to the paper heuristics.
    for (const auto& [table_name, stats] : (*db)->stats) {
      if (!gdd_.TableStatsFresh(db_name, table_name)) continue;
      lang::TableCostStats ts;
      ts.row_count = stats.row_count;
      ts.avg_row_bytes = stats.avg_row_bytes;
      for (const auto& [col_name, col] : stats.columns) {
        ts.columns[col_name] = lang::ColumnCostStats{
            col.distinct_values, col.avg_width_bytes};
      }
      ctx.stats[{db_name, table_name}] = std::move(ts);
    }
  }
  return ctx;
}

Result<ExecutionReport> MultidatabaseSystem::ExecuteCompiled(
    const MsqlQuery* query, const lang::MultiTransaction* mt) {
  obs::Tracer& tracer = env_.tracer();
  const bool top_level = tracer.enabled() && tracer.current_parent() == 0;
  SnapshotProfileCounters(top_level);
  obs::ScopedSpan input_span(
      &tracer, mt != nullptr ? "msql.multitransaction" : "msql.query",
      "frontend", 0);
  CompiledInput compiled = Compile(query, mt, current_scope_);
  auto report = compiled.form == CompiledInput::Form::kViewQuery
                    ? ExecuteViewQuery(*query, compiled.view_name)
                    : RunCompiled(std::move(compiled));
  if (report.ok()) FinishInputSpan(&input_span, top_level, &*report);
  return report;
}

Result<ExecutionReport> MultidatabaseSystem::RunCompiled(
    CompiledInput compiled) {
  MSQL_RETURN_IF_ERROR(CommitScope(&compiled));
  if (!compiled.refusal.ok()) return RefusalReport(std::move(compiled));
  MSQL_RETURN_IF_ERROR(VerifyCompiledPlan(compiled.plan));
  dol::DolEngine engine(&env_, retry_policy_);
  auto run = engine.Run(compiled.plan.program);
  return FinishRun(std::move(compiled), std::move(run));
}

CompiledInput MultidatabaseSystem::Compile(const lang::MsqlInput& input,
                                           const UseClause& scope) {
  return Compile(input.query ? &*input.query : nullptr,
                 input.multitransaction ? &*input.multitransaction : nullptr,
                 scope);
}

CompiledInput MultidatabaseSystem::Compile(const MsqlQuery* query,
                                           const lang::MultiTransaction* mt,
                                           const UseClause& scope) {
  using Form = CompiledInput::Form;
  CompiledInput out;
  std::span<const MsqlQuery> queries(query, 1);
  if (mt != nullptr) {
    out.kind = lang::MsqlInput::Kind::kMultiTransaction;
    queries = mt->queries;
  } else if (query->body->kind() == StatementKind::kSelect) {
    // A SELECT whose single FROM table names a multidatabase view is
    // answered from the view definition, which carries its own USE: it
    // compiles to no scope and no plan of its own.
    const auto& select =
        static_cast<const relational::SelectStmt&>(*query->body);
    if (select.from.size() == 1 && select.from[0].database.empty() &&
        views_.count(ToLower(select.from[0].table)) > 0) {
      out.form = Form::kViewQuery;
      out.view_name = ToLower(select.from[0].table);
      return out;
    }
  }

  obs::Tracer& tracer = env_.tracer();
  lang::Expander expander(&gdd_);
  MsqlQuery resolved;
  lang::Decomposition decomposition;
  for (const MsqlQuery& next : queries) {
    auto resolved_or = ResolveScope(next, out.scope ? *out.scope : scope);
    if (!resolved_or.ok()) {
      out.error = resolved_or.status();
      return out;
    }
    resolved = std::move(*resolved_or);
    out.scope = resolved.use;

    // A lone multidatabase join is decomposed instead of expanded.
    const relational::Statement& body = *resolved.body;
    if (mt == nullptr && body.kind() == StatementKind::kSelect &&
        lang::Decomposer::IsMultidatabase(
            static_cast<const relational::SelectStmt&>(body))) {
      out.form = Form::kDecomposedJoin;
      lang::Decomposer decomposer(&gdd_);
      lang::CostContext cost_context;
      if (cost_based_optimizer_) {
        cost_context = BuildCostContext();
        decomposer.set_cost_based(true);
        decomposer.set_cost_context(&cost_context);
      }
      obs::ScopedSpan decompose_span(&tracer, "msql.decompose", "frontend",
                                     0);
      auto decomposed = decomposer.Decompose(
          static_cast<const relational::SelectStmt&>(body));
      decompose_span.End();
      if (!decomposed.ok()) {
        out.error = decomposed.status();
        return out;
      }
      out.cost_text = decomposed->cost_text;
      decomposition = std::move(*decomposed);
      break;
    }
    // So is a cross-database data transfer:
    // INSERT INTO db1.t SELECT ... FROM db2.s.
    if (mt == nullptr && body.kind() == StatementKind::kInsert) {
      const auto& insert = static_cast<const relational::InsertStmt&>(body);
      bool qualified_select = false;
      if (insert.select_source != nullptr) {
        for (const auto& ref : insert.select_source->from) {
          if (!ref.database.empty()) qualified_select = true;
        }
      }
      if (qualified_select && !insert.table.database.empty()) {
        out.form = Form::kDataTransfer;
        break;
      }
    }

    // Static semantic check (DESIGN.md §8) before expansion. An
    // unenforceable vital set (MS111) is a refusal — the translator
    // refuses the same way — while any other error is a hard failure.
    obs::ScopedSpan check_span(&tracer, "msql.check", "frontend", 0);
    analysis::DiagnosticList diags =
        analysis::CheckQuery(resolved, gdd_, ad_);
    check_span.End();
    if (diags.has_errors()) {
      if (diags.Find(analysis::diag::kVitalSetUnenforceable) != nullptr) {
        out.refusal = Status::Refused(diags.RenderAll());
      } else {
        out.error = diags.ToStatus();
      }
    }
    if (out.diagnostics.empty()) {
      out.diagnostics = std::move(diags);
    } else {
      out.diagnostics.Append(diags);
    }
    if (!out.error.ok() || !out.refusal.ok()) return out;

    obs::ScopedSpan expand_span(&tracer, "msql.expand", "frontend", 0);
    auto expansion = expander.Expand(resolved);
    expand_span.End();
    if (!expansion.ok()) {
      out.error = expansion.status();
      return out;
    }
    if (mt == nullptr) {
      // A VITAL database with no pertinent subquery makes the requested
      // consistency unobtainable: refuse, like any unenforceable vital
      // set.
      out.non_pertinent = expansion->non_pertinent;
      for (const auto& entry : resolved.use.entries) {
        if (!entry.vital) continue;
        for (const auto& skipped : expansion->non_pertinent) {
          if (EqualsIgnoreCase(skipped, entry.EffectiveName())) {
            out.refusal = Status::Refused(
                "VITAL database '" + entry.EffectiveName() +
                "' has no pertinent subquery in this multiple query");
            return out;
          }
        }
      }
    }
    out.expansions.push_back(std::move(*expansion));
  }

  translator::Translator translator(&ad_, &gdd_);
  obs::ScopedSpan translate_span(&tracer, "msql.translate", "frontend", 0);
  auto plan = [&]() -> Result<translator::Plan> {
    switch (out.form) {
      case Form::kDecomposedJoin:
        return translator.TranslateDecomposedJoin(decomposition);
      case Form::kDataTransfer:
        return translator.TranslateDataTransfer(
            static_cast<const relational::InsertStmt&>(*resolved.body));
      default:
        if (mt != nullptr) {
          return translator.TranslateMultiTransaction(out.expansions,
                                                      mt->acceptable_states);
        }
        return translator.TranslateQuery(out.expansions.front());
    }
  }();
  translate_span.End();
  if (!plan.ok()) {
    // Only an expanded input can be refused: it is well-formed, but the
    // requested consistency cannot be guaranteed.
    if (out.form == Form::kExpanded &&
        plan.status().code() == StatusCode::kRefused) {
      out.refusal = plan.status();
    } else {
      out.error = plan.status();
    }
    return out;
  }
  out.plan = std::move(*plan);
  if (mt != nullptr) {
    for (const auto& expansion : out.expansions) {
      out.non_pertinent.insert(out.non_pertinent.end(),
                               expansion.non_pertinent.begin(),
                               expansion.non_pertinent.end());
    }
  }
  return out;
}

Status MultidatabaseSystem::CommitScope(CompiledInput* compiled) {
  if (compiled->scope.has_value()) current_scope_ = *std::move(compiled->scope);
  return compiled->error;
}

Status MultidatabaseSystem::VerifyCompiledPlan(
    const translator::Plan& plan) {
  obs::ScopedSpan verify_span(&env_.tracer(), "msql.verify", "frontend", 0);
  analysis::DiagnosticList verdict = analysis::VerifyPlan(plan);
  if (verdict.has_errors()) {
    return Status::Internal(
        "translator emitted a DOL plan the verifier rejects "
        "(translator bug):\n" +
        verdict.RenderAll() + "\n--- plan ---\n" + plan.program.ToDol());
  }
  return Status::OK();
}

ExecutionReport MultidatabaseSystem::RefusalReport(CompiledInput compiled) {
  ExecutionReport report;
  report.outcome = GlobalOutcome::kRefused;
  report.detail = std::move(compiled.refusal);
  report.non_pertinent = std::move(compiled.non_pertinent);
  return report;
}

ExecutionReport MultidatabaseSystem::AssembleRunReport(
    const translator::Plan& plan, std::vector<std::string> non_pertinent,
    Result<dol::DolRunResult> run) {
  ExecutionReport report;
  report.dol_text = plan.program.ToDol();
  report.non_pertinent = std::move(non_pertinent);

  if (!run.ok()) {
    // Program-level failure (failed compensation, protocol violation):
    // the multidatabase state may be incorrect.
    report.outcome = GlobalOutcome::kIncorrect;
    report.detail = run.status();
    report.dol_status = translator::PlanStatus::kIncorrect;
    return report;
  }
  report.run = std::move(*run);
  report.dol_status = report.run.dol_status;
  report.retries_performed = report.run.retries;
  report.reprobes_performed = report.run.reprobes;
  switch (report.dol_status) {
    case translator::PlanStatus::kSuccess:
      report.outcome = GlobalOutcome::kSuccess;
      break;
    case translator::PlanStatus::kAborted:
      report.outcome = GlobalOutcome::kAborted;
      break;
    default:
      report.outcome = GlobalOutcome::kIncorrect;
      break;
  }

  // Per-database verdicts: how each planned task ended (the query log's
  // audit row and the profiler's vital-flag source).
  for (const auto& planned : plan.tasks) {
    DatabaseVerdict verdict;
    verdict.database = planned.effective_name;
    verdict.service = planned.service;
    verdict.task = planned.task;
    verdict.vital = planned.vital;
    const dol::TaskOutcome* task = report.run.FindTask(planned.task);
    if (task != nullptr) verdict.state = task->state;
    report.verdicts.push_back(std::move(verdict));
  }

  // Graceful degradation (§3.2.1): a NON-VITAL subquery lost to
  // unavailability never binds the decision, but the report names the
  // missing services so a degraded run is diagnosable.
  for (const auto& planned : plan.tasks) {
    if (planned.vital) continue;
    const dol::TaskOutcome* task = report.run.FindTask(planned.task);
    if (task == nullptr || task->state != dol::DolTaskState::kAborted) {
      continue;
    }
    if (task->last_status.code() == StatusCode::kUnavailable) {
      report.degraded_services.push_back(planned.service);
    }
  }
  if (report.detail.ok() &&
      (!report.degraded_services.empty() ||
       !report.run.failed_channels.empty())) {
    std::string note = "degraded run:";
    for (const auto& svc : report.degraded_services) {
      note += " service '" + svc + "' unavailable;";
    }
    for (const auto& [alias, status] : report.run.failed_channels) {
      note += " channel '" + alias + "' open failed (" +
              status.ToString() + ");";
    }
    report.detail = Status::Unavailable(std::move(note));
  }

  // Assemble retrieval results.
  if (plan.retrieval) {
    if (!plan.global_task.empty()) {
      report.is_join = true;
      const dol::TaskOutcome* task = report.run.FindTask(plan.global_task);
      if (task != nullptr &&
          task->state == dol::DolTaskState::kCommitted) {
        report.join_result = task->result;
      }
    } else {
      for (const auto& planned : plan.tasks) {
        const dol::TaskOutcome* task = report.run.FindTask(planned.task);
        if (task == nullptr ||
            task->state != dol::DolTaskState::kCommitted) {
          continue;
        }
        lang::Multitable::Element element;
        element.database = planned.effective_name;
        element.table = task->result;
        report.multitable.elements.push_back(std::move(element));
      }
    }
  }

  // Gather the local physical plans the SELECT tasks reported (plan
  // collection on). The tasks map is name-sorted, so the rendering is
  // deterministic.
  for (const auto& [name, task] : report.run.tasks) {
    if (task.result.plan_text.empty()) continue;
    report.plan_text += "task " + name + ":\n" + task.result.plan_text;
  }
  return report;
}

Result<ExecutionReport> MultidatabaseSystem::FinishRun(
    CompiledInput compiled, Result<dol::DolRunResult> run) {
  const bool ran = run.ok();
  ExecutionReport report = AssembleRunReport(
      compiled.plan, std::move(compiled.non_pertinent), std::move(run));
  if (compiled.form == CompiledInput::Form::kDataTransfer) {
    const dol::TaskOutcome* extract = report.run.FindTask("t_extract");
    if (extract != nullptr) {
      report.rows_transferred =
          static_cast<int64_t>(extract->result.rows.size());
    }
    report.multitable.elements.clear();  // not a retrieval answer
  }
  // Surviving checker findings are warnings.
  report.diagnostics = compiled.diagnostics.items();
  report.cost_text = std::move(compiled.cost_text);
  if (ran) {
    for (const auto& expansion : compiled.expansions) {
      MSQL_RETURN_IF_ERROR(SyncGddAfterDdl(report.run, expansion));
      RecordDmlChurn(expansion, report.run);
    }
  }
  // Interdatabase triggers fire on plain queries only.
  if (compiled.kind == lang::MsqlInput::Kind::kQuery &&
      !compiled.expansions.empty()) {
    MSQL_RETURN_IF_ERROR(FireTriggers(compiled.expansions.front(), &report));
  }
  return report;
}

Status MultidatabaseSystem::SyncGddAfterDdl(
    const dol::DolRunResult& run, const ExpansionResult& expansion) {
  for (const auto& eq : expansion.queries) {
    StatementKind kind = eq.statement->kind();
    if (kind != StatementKind::kCreateTable &&
        kind != StatementKind::kDropTable) {
      continue;
    }
    const dol::TaskOutcome* task = run.FindTask("t_" + eq.effective_name);
    if (task == nullptr || task->state != dol::DolTaskState::kCommitted) {
      continue;
    }
    if (kind == StatementKind::kCreateTable) {
      const auto& create =
          static_cast<const relational::CreateTableStmt&>(*eq.statement);
      std::vector<relational::ColumnDef> cols;
      for (const auto& spec : create.columns) {
        relational::ColumnDef def;
        def.name = spec.name;
        MSQL_ASSIGN_OR_RETURN(def.type,
                              relational::TypeFromName(spec.type_name));
        def.width = spec.width;
        cols.push_back(std::move(def));
      }
      MSQL_ASSIGN_OR_RETURN(
          auto schema,
          relational::TableSchema::Create(create.table.table,
                                          std::move(cols)));
      MSQL_RETURN_IF_ERROR(gdd_.PutTable(eq.database, std::move(schema)));
    } else {
      const auto& drop =
          static_cast<const relational::DropTableStmt&>(*eq.statement);
      MSQL_RETURN_IF_ERROR(gdd_.RemoveTable(eq.database, drop.table.table));
    }
  }
  return Status::OK();
}

void MultidatabaseSystem::RecordDmlChurn(
    const lang::ExpansionResult& expansion, const dol::DolRunResult& run) {
  for (const auto& eq : expansion.queries) {
    StatementKind kind = eq.statement->kind();
    const std::string* table = nullptr;
    switch (kind) {
      case StatementKind::kInsert:
        table = &static_cast<const relational::InsertStmt&>(*eq.statement)
                     .table.table;
        break;
      case StatementKind::kUpdate:
        table = &static_cast<const relational::UpdateStmt&>(*eq.statement)
                     .table.table;
        break;
      case StatementKind::kDelete:
        table = &static_cast<const relational::DeleteStmt&>(*eq.statement)
                     .table.table;
        break;
      default:
        continue;
    }
    const dol::TaskOutcome* task = run.FindTask("t_" + eq.effective_name);
    if (task == nullptr || task->state != dol::DolTaskState::kCommitted) {
      continue;
    }
    // Even a no-op DML statement proves the snapshot can drift; count at
    // least one row so repeated writes eventually trip the threshold.
    gdd_.RecordWriteChurn(eq.database, *table,
                          std::max<int64_t>(task->result.rows_affected, 1));
  }
}

Status MultidatabaseSystem::ExecuteCreateMultidatabase(
    const lang::CreateMultidatabaseStmt& s) {
  if (views_.count(ToLower(s.name)) > 0) {
    return Status::AlreadyExists("'" + s.name + "' already names a view");
  }
  return gdd_.CreateMultidatabase(s.name, s.members);
}

Status MultidatabaseSystem::ExecuteDropMultidatabase(
    const lang::DropMultidatabaseStmt& s) {
  return gdd_.DropMultidatabase(s.name);
}

Status MultidatabaseSystem::ExecuteCreateView(
    const lang::CreateViewStmt& s) {
  std::string key = ToLower(s.name);
  if (views_.count(key) > 0) {
    return Status::AlreadyExists("multidatabase view '" + key +
                                 "' already exists");
  }
  if (gdd_.HasDatabase(key) || gdd_.HasMultidatabase(key)) {
    return Status::AlreadyExists("'" + key +
                                 "' already names a (multi)database");
  }
  if (s.definition->use.current) {
    return Status::InvalidArgument(
        "a multidatabase view definition must carry its own USE scope");
  }
  views_.emplace(key, s.definition);
  return Status::OK();
}

Status MultidatabaseSystem::ExecuteDropView(const lang::DropViewStmt& s) {
  if (views_.erase(ToLower(s.name)) == 0) {
    return Status::NotFound("multidatabase view '" + s.name +
                            "' does not exist");
  }
  return Status::OK();
}

bool MultidatabaseSystem::HasView(std::string_view name) const {
  return views_.count(ToLower(name)) > 0;
}

Status MultidatabaseSystem::ExecuteCreateTrigger(
    const lang::CreateTriggerStmt& s) {
  std::string key = ToLower(s.name);
  if (triggers_.count(key) > 0) {
    return Status::AlreadyExists("trigger '" + key + "' already exists");
  }
  if (!gdd_.HasTable(s.database, s.table)) {
    return Status::NotFound("trigger target '" + s.database + "." +
                            s.table + "' is not in the GDD");
  }
  lang::CreateTriggerStmt stored = s;
  stored.name = key;
  stored.database = ToLower(s.database);
  stored.table = ToLower(s.table);
  triggers_.emplace(key, std::move(stored));
  return Status::OK();
}

Status MultidatabaseSystem::ExecuteDropTrigger(
    const lang::DropTriggerStmt& s) {
  if (triggers_.erase(ToLower(s.name)) == 0) {
    return Status::NotFound("trigger '" + s.name + "' does not exist");
  }
  return Status::OK();
}

std::vector<std::string> MultidatabaseSystem::TriggerNames() const {
  std::vector<std::string> out;
  out.reserve(triggers_.size());
  for (const auto& [name, trigger] : triggers_) out.push_back(name);
  return out;
}

namespace {

/// Table name a committed DML statement wrote to ("" for non-DML).
std::string DmlTargetTable(const relational::Statement& stmt) {
  switch (stmt.kind()) {
    case StatementKind::kUpdate:
      return static_cast<const relational::UpdateStmt&>(stmt).table.table;
    case StatementKind::kInsert:
      return static_cast<const relational::InsertStmt&>(stmt).table.table;
    case StatementKind::kDelete:
      return static_cast<const relational::DeleteStmt&>(stmt).table.table;
    default:
      return "";
  }
}

bool EventMatches(lang::TriggerEvent event, StatementKind kind) {
  switch (event) {
    case lang::TriggerEvent::kUpdate:
      return kind == StatementKind::kUpdate;
    case lang::TriggerEvent::kInsert:
      return kind == StatementKind::kInsert;
    case lang::TriggerEvent::kDelete:
      return kind == StatementKind::kDelete;
  }
  return false;
}

}  // namespace

Status MultidatabaseSystem::FireTriggers(
    const lang::ExpansionResult& expansion, ExecutionReport* report) {
  if (triggers_.empty()) return Status::OK();
  constexpr int kMaxTriggerDepth = 4;
  // Snapshot the matching triggers first: an action may itself CREATE or
  // DROP triggers, which must not perturb this firing round (the action
  // holds a shared_ptr, so a dropped trigger's query stays alive).
  struct Pending {
    std::string name;
    std::shared_ptr<lang::MsqlQuery> action;
  };
  std::vector<Pending> pending;
  for (const auto& eq : expansion.queries) {
    std::string table = DmlTargetTable(*eq.statement);
    if (table.empty()) continue;
    const dol::TaskOutcome* task =
        report->run.FindTask("t_" + eq.effective_name);
    if (task == nullptr || task->state != dol::DolTaskState::kCommitted) {
      continue;
    }
    for (const auto& [name, trigger] : triggers_) {
      if (trigger.database == eq.database && trigger.table == table &&
          EventMatches(trigger.event, eq.statement->kind())) {
        pending.push_back(Pending{name, trigger.action});
      }
    }
  }
  for (const auto& fire : pending) {
    if (trigger_depth_ >= kMaxTriggerDepth) {
      return Status::InvalidArgument(
          "interdatabase trigger cascade exceeds depth " +
          std::to_string(kMaxTriggerDepth) + " at trigger '" + fire.name +
          "'");
    }
    ++trigger_depth_;
    auto action_report = ExecuteCompiled(fire.action.get(), nullptr);
    --trigger_depth_;
    MSQL_RETURN_IF_ERROR(action_report.status());
    report->fired_triggers.push_back(fire.name);
    // Triggers fired by the action itself are reported too.
    for (const auto& nested : action_report->fired_triggers) {
      report->fired_triggers.push_back(nested);
    }
  }
  return Status::OK();
}

Result<ExecutionReport> MultidatabaseSystem::ExecuteViewQuery(
    const MsqlQuery& query, const std::string& view_name) {
  constexpr int kMaxViewDepth = 8;
  if (view_depth_ >= kMaxViewDepth) {
    return Status::InvalidArgument(
        "multidatabase views nest deeper than " +
        std::to_string(kMaxViewDepth) + " (cycle through '" + view_name +
        "'?)");
  }
  auto view_it = views_.find(view_name);
  if (view_it == views_.end()) {
    return Status::NotFound("view '" + view_name + "' vanished");
  }
  ++view_depth_;
  auto base = ExecuteCompiled(view_it->second.get(), nullptr);
  --view_depth_;
  MSQL_RETURN_IF_ERROR(base.status());
  if (base->outcome != GlobalOutcome::kSuccess) {
    return base;  // propagate the failed retrieval as-is
  }

  // Apply the outer query to every element of the view's multitable:
  // each element becomes a scratch table in a local throwaway engine and
  // the (rewritten) outer SELECT runs against it at the MDBS itself.
  const auto& outer =
      static_cast<const relational::SelectStmt&>(*query.body);
  ExecutionReport report;
  report.outcome = GlobalOutcome::kSuccess;
  report.dol_text = base->dol_text;
  report.run = std::move(base->run);

  for (auto& element : base->multitable.elements) {
    relational::LocalEngine scratch(
        "mdbs_view", relational::CapabilityProfile::IngresLike());
    MSQL_RETURN_IF_ERROR(scratch.CreateDatabase("v"));
    MSQL_ASSIGN_OR_RETURN(relational::Database * db,
                          scratch.GetDatabase("v"));
    // Infer the scratch schema from the element's values (first non-NULL
    // value decides; all-NULL columns degrade to TEXT).
    std::vector<relational::ColumnDef> cols;
    for (size_t c = 0; c < element.table.columns.size(); ++c) {
      relational::ColumnDef def;
      def.name = element.table.columns[c];
      def.type = relational::Type::kText;
      for (const auto& row : element.table.rows) {
        if (c < row.size() && !row[c].is_null()) {
          def.type = row[c].type();
          break;
        }
      }
      cols.push_back(std::move(def));
    }
    MSQL_ASSIGN_OR_RETURN(
        auto schema,
        relational::TableSchema::Create("mdbs_view_data", std::move(cols)));
    MSQL_RETURN_IF_ERROR(db->CreateTable(std::move(schema)));
    MSQL_ASSIGN_OR_RETURN(relational::Table * table,
                          db->GetTable("mdbs_view_data"));
    for (const auto& row : element.table.rows) {
      MSQL_RETURN_IF_ERROR(table->Insert(row).status());
    }
    // Rewrite the outer FROM: the view name becomes an alias of the
    // scratch table so qualified references keep working.
    auto local = outer.CloneSelect();
    local->from[0].database.clear();
    local->from[0].table = "mdbs_view_data";
    if (local->from[0].alias.empty()) local->from[0].alias = view_name;
    MSQL_ASSIGN_OR_RETURN(relational::SessionId session,
                          scratch.OpenSession("v"));
    auto result = scratch.ExecuteStatement(session, *local);
    MSQL_RETURN_IF_ERROR(result.status());
    lang::Multitable::Element out_element;
    out_element.database = element.database;
    out_element.table = std::move(*result);
    report.multitable.elements.push_back(std::move(out_element));
  }
  return report;
}

// ---------------------------------------------------------------------------
// Static analysis entry points (msql_lint, shell \check / \explain)
// ---------------------------------------------------------------------------

Result<AnalysisReport> MultidatabaseSystem::Analyze(
    std::string_view msql_text) {
  obs::Tracer& tracer = env_.tracer();
  obs::ScopedSpan analyze_span(&tracer, "msql.analyze", "frontend", 0);
  Result<lang::MsqlInput> parsed = [&] {
    obs::ScopedSpan parse_span(&tracer, "msql.parse", "frontend", 0);
    return lang::MsqlParser::ParseOne(msql_text);
  }();
  MSQL_RETURN_IF_ERROR(parsed.status());
  analyze_span.Annotate("kind", InputKindName(parsed->kind));
  return AnalyzeInput(*parsed);
}

Result<std::vector<AnalysisReport>> MultidatabaseSystem::AnalyzeScript(
    std::string_view msql_text) {
  MSQL_ASSIGN_OR_RETURN(auto inputs,
                        lang::MsqlParser::ParseScript(msql_text));
  std::vector<AnalysisReport> reports;
  for (const auto& input : inputs) {
    obs::ScopedSpan analyze_span(&env_.tracer(), "msql.analyze", "frontend",
                                 0);
    analyze_span.Annotate("kind", InputKindName(input.kind));
    reports.push_back(AnalyzeInput(input));
  }
  // Cross-input pass: inputs of one script are what a deployment runs as
  // concurrent sessions, so check every translated pair for lock-order
  // inversion (DL301). The warning lands on the later input.
  for (size_t j = 1; j < reports.size(); ++j) {
    if (!reports[j].summary) continue;
    for (size_t i = 0; i < j; ++i) {
      if (!reports[i].summary) continue;
      reports[j].diagnostics.Append(analysis::CheckPlanPair(
          *reports[i].summary, *reports[j].summary, i + 1, j + 1));
    }
  }
  return reports;
}

AnalysisReport MultidatabaseSystem::AnalyzeInput(
    const lang::MsqlInput& input) {
  using Form = CompiledInput::Form;
  AnalysisReport report;
  report.kind = InputKindName(input.kind);
  if (!input.query.has_value() && !input.multitransaction.has_value()) {
    // Catalog-shaping inputs are executed so later inputs of the same
    // script are checked against the catalogs they would see. They
    // produce no plan, hence nothing further to verify.
    report.error = ExecuteCatalog(input);
    return report;
  }

  // Analysis must not move the session scope: the compiled one is
  // dropped.
  CompiledInput compiled = Compile(input, current_scope_);
  if (compiled.form == Form::kViewQuery) report.kind = "view query";
  if (compiled.form == Form::kDecomposedJoin) report.kind = "decomposed join";
  if (compiled.form == Form::kDataTransfer) report.kind = "data transfer";
  report.cost_text = std::move(compiled.cost_text);
  report.diagnostics = std::move(compiled.diagnostics);
  if (report.diagnostics.has_errors()) {
    // Checker errors are findings, not failures. Unlike Execute's, the
    // refusal quotes the findings of every query compiled so far.
    if (report.diagnostics.Find(analysis::diag::kVitalSetUnenforceable) !=
        nullptr) {
      report.refused = true;
      report.refusal = Status::Refused(report.diagnostics.RenderAll());
    }
    return report;
  }
  if (!compiled.refusal.ok()) {
    report.refused = true;
    report.refusal = std::move(compiled.refusal);
    return report;
  }
  report.error = std::move(compiled.error);
  if (!report.error.ok() || compiled.form == Form::kViewQuery) return report;

  report.translated = true;
  report.dol_text = compiled.plan.program.ToDol();
  obs::ScopedSpan verify_span(&env_.tracer(), "msql.verify", "frontend", 0);
  report.diagnostics.Append(analysis::VerifyPlan(compiled.plan));
  report.summary = analysis::SummarizePlan(compiled.plan);
  report.diagnostics.Append(
      analysis::AnalyzeConflicts(compiled.plan, *report.summary));
  return report;
}

}  // namespace msql::core
