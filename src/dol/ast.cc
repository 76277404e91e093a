#include "dol/ast.h"

namespace msql::dol {

namespace {
std::string Indent(int level) { return std::string(level * 2, ' '); }

std::string JoinNames(const std::vector<std::string>& names,
                      const char* sep) {
  std::string out;
  for (size_t i = 0; i < names.size(); ++i) {
    if (i > 0) out += sep;
    out += names[i];
  }
  return out;
}

std::string RenderBlock(const std::vector<DolStmtPtr>& stmts, int indent) {
  std::string out = Indent(indent) + "BEGIN\n";
  for (const auto& s : stmts) out += s->ToDol(indent + 1);
  out += Indent(indent) + "END";
  return out;
}
}  // namespace

std::string_view DolTaskStateName(DolTaskState state) {
  switch (state) {
    case DolTaskState::kNotRun: return "NOT-RUN";
    case DolTaskState::kPrepared: return "PREPARED";
    case DolTaskState::kCommitted: return "COMMITTED";
    case DolTaskState::kAborted: return "ABORTED";
    case DolTaskState::kCompensated: return "COMPENSATED";
  }
  return "UNKNOWN";
}

char DolTaskStateLetter(DolTaskState state) {
  switch (state) {
    case DolTaskState::kNotRun: return '-';
    case DolTaskState::kPrepared: return 'P';
    case DolTaskState::kCommitted: return 'C';
    case DolTaskState::kAborted: return 'A';
    case DolTaskState::kCompensated: return 'X';
  }
  return '?';
}

std::string StateTestCond::ToDol() const {
  return "(" + task_ + "=" + std::string(1, DolTaskStateLetter(state_)) +
         ")";
}

std::string BinaryCond::ToDol() const {
  return "(" + left().ToDol() +
         (kind() == DolCondKind::kAnd ? " AND " : " OR ") +
         right().ToDol() + ")";
}

std::string NotCond::ToDol() const {
  return "(NOT " + operand().ToDol() + ")";
}

DolStmtPtr OpenStmt::Clone() const {
  auto out = std::make_unique<OpenStmt>();
  out->database = database;
  out->service = service;
  out->alias = alias;
  return out;
}

std::string OpenStmt::ToDol(int indent) const {
  return Indent(indent) + "OPEN " + database + " AT " + service + " AS " +
         alias + ";\n";
}

DolStmtPtr TaskStmt::Clone() const {
  auto out = std::make_unique<TaskStmt>();
  out->name = name;
  out->nocommit = nocommit;
  out->target_alias = target_alias;
  out->body_sql = body_sql;
  out->compensation_sql = compensation_sql;
  return out;
}

std::string TaskStmt::ToDol(int indent) const {
  std::string out = Indent(indent) + "TASK " + name;
  if (nocommit) out += " NOCOMMIT";
  out += " FOR " + target_alias + " { " + body_sql + " }";
  if (!compensation_sql.empty()) {
    out += "\n" + Indent(indent + 1) + "COMPENSATION { " +
           compensation_sql + " }";
  }
  out += "\n" + Indent(indent) + "ENDTASK;\n";
  return out;
}

DolStmtPtr ParallelStmt::Clone() const {
  auto out = std::make_unique<ParallelStmt>();
  out->body.reserve(body.size());
  for (const auto& s : body) out->body.push_back(s->Clone());
  return out;
}

std::string ParallelStmt::ToDol(int indent) const {
  std::string out = Indent(indent) + "PARBEGIN\n";
  for (const auto& s : body) out += s->ToDol(indent + 1);
  out += Indent(indent) + "PAREND;\n";
  return out;
}

DolStmtPtr IfStmt::Clone() const {
  auto out = std::make_unique<IfStmt>();
  out->condition = condition->Clone();
  out->then_branch.reserve(then_branch.size());
  for (const auto& s : then_branch) out->then_branch.push_back(s->Clone());
  out->else_branch.reserve(else_branch.size());
  for (const auto& s : else_branch) out->else_branch.push_back(s->Clone());
  return out;
}

std::string IfStmt::ToDol(int indent) const {
  std::string out = Indent(indent) + "IF " + condition->ToDol() + " THEN\n";
  out += RenderBlock(then_branch, indent);
  out += ";\n";
  if (!else_branch.empty()) {
    out += Indent(indent) + "ELSE\n";
    out += RenderBlock(else_branch, indent);
    out += ";\n";
  }
  return out;
}

DolStmtPtr CommitStmt::Clone() const {
  auto out = std::make_unique<CommitStmt>();
  out->tasks = tasks;
  return out;
}

std::string CommitStmt::ToDol(int indent) const {
  return Indent(indent) + "COMMIT " + JoinNames(tasks, ", ") + ";\n";
}

DolStmtPtr AbortStmt::Clone() const {
  auto out = std::make_unique<AbortStmt>();
  out->tasks = tasks;
  return out;
}

std::string AbortStmt::ToDol(int indent) const {
  return Indent(indent) + "ABORT " + JoinNames(tasks, ", ") + ";\n";
}

DolStmtPtr CompensateStmt::Clone() const {
  auto out = std::make_unique<CompensateStmt>();
  out->tasks = tasks;
  return out;
}

std::string CompensateStmt::ToDol(int indent) const {
  return Indent(indent) + "COMPENSATE " + JoinNames(tasks, ", ") + ";\n";
}

DolStmtPtr TransferStmt::Clone() const {
  auto out = std::make_unique<TransferStmt>();
  out->task = task;
  out->target_alias = target_alias;
  out->table = table;
  out->columns = columns;
  out->append = append;
  return out;
}

std::string TransferStmt::ToDol(int indent) const {
  std::string out = Indent(indent) + "TRANSFER " + task + " TO " +
                    target_alias + " TABLE " + table;
  if (append) {
    out += " APPEND";
    if (!columns.empty()) {
      out += " (";
      for (size_t i = 0; i < columns.size(); ++i) {
        if (i > 0) out += ", ";
        out += columns[i].name;
      }
      out += ")";
    }
    out += ";\n";
    return out;
  }
  out += " (";
  for (size_t i = 0; i < columns.size(); ++i) {
    if (i > 0) out += ", ";
    out += columns[i].name + " " + columns[i].type_name;
    if (columns[i].width > 0) {
      out += "(" + std::to_string(columns[i].width) + ")";
    }
  }
  out += ");\n";
  return out;
}

DolStmtPtr SetStatusStmt::Clone() const {
  auto out = std::make_unique<SetStatusStmt>();
  out->value = value;
  return out;
}

std::string SetStatusStmt::ToDol(int indent) const {
  return Indent(indent) + "DOLSTATUS = " + std::to_string(value) + ";\n";
}

DolStmtPtr CloseStmt::Clone() const {
  auto out = std::make_unique<CloseStmt>();
  out->aliases = aliases;
  return out;
}

std::string CloseStmt::ToDol(int indent) const {
  return Indent(indent) + "CLOSE " + JoinNames(aliases, " ") + ";\n";
}

std::string DolProgram::ToDol() const {
  std::string out = "DOLBEGIN\n";
  for (const auto& s : statements) out += s->ToDol(1);
  out += "DOLEND\n";
  return out;
}

}  // namespace msql::dol
