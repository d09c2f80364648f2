#include "service/query_service.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <set>

#include "base/failpoint.h"
#include "base/trace.h"
#include "exec/csv.h"
#include "exec/expression.h"
#include "parser/lexer.h"
#include "service/service_util.h"

namespace aqv {

bool QueryService::ThreadHasWriteBatch() const {
  std::lock_guard<std::mutex> lock(session_mutex_);
  auto it = sessions_.find(std::this_thread::get_id());
  return it != sessions_.end() && it->second.batch.has_value();
}

Result<StatementResult> QueryService::HandleBeginWrite(const Statement&) {
  std::lock_guard<std::mutex> lock(session_mutex_);
  auto [it, opened] = sessions_.try_emplace(std::this_thread::get_id());
  if (!opened) {
    return Status::InvalidArgument(
        it->second.pin ? "a snapshot is open on this thread; COMMIT it "
                         "before BEGIN WRITE"
                       : "a write batch is already open on this thread; "
                         "COMMIT or ROLLBACK it first");
  }
  it->second.batch.emplace();
  return StatementResult{"write batch opened; INSERT/DELETE/UPDATE buffer on "
                         "this thread until COMMIT\n"};
}

Result<StatementResult> QueryService::HandleRollback(const Statement&) {
  std::lock_guard<std::mutex> lock(session_mutex_);
  auto it = sessions_.find(std::this_thread::get_id());
  if (it == sessions_.end() || !it->second.batch) {
    return Status::InvalidArgument(
        "no open write batch on this thread (BEGIN WRITE first)");
  }
  size_t rows = CountRows(it->second.batch->inserts) +
                CountRows(it->second.batch->deletes);
  sessions_.erase(it);
  return StatementResult{"write batch discarded (" + std::to_string(rows) +
                         " buffered row(s))\n"};
}

Result<StatementResult> QueryService::HandleCreateTable(const Statement& s) {
  // CREATE TABLE name '(' col (',' col)* ')' [KEY '(' col (',' col)* ')']
  AQV_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(s.text));
  size_t i = 2;  // CREATE TABLE; the token list ends with kEnd
  if (tokens[i].kind != TokenKind::kIdentifier) {
    return Status::InvalidArgument("expected a table name");
  }
  std::string name = tokens[i++].text;
  auto name_list = [&](const std::string& what)
      -> Result<std::vector<std::string>> {
    if (tokens[i].kind != TokenKind::kLParen) {
      return Status::InvalidArgument("expected '(' before the " + what);
    }
    std::vector<std::string> names;
    do {
      ++i;  // '(' or ','
      if (tokens[i].kind != TokenKind::kIdentifier) {
        return Status::InvalidArgument("expected a column name in the " +
                                       what + " at offset " +
                                       std::to_string(tokens[i].offset));
      }
      names.push_back(tokens[i++].text);
    } while (tokens[i].kind == TokenKind::kComma);
    if (tokens[i++].kind != TokenKind::kRParen) {
      return Status::InvalidArgument("expected ',' or ')' in the " + what +
                                     " at offset " +
                                     std::to_string(tokens[i - 1].offset));
    }
    return names;
  };
  AQV_ASSIGN_OR_RETURN(std::vector<std::string> columns,
                       name_list("column list"));
  TableDef def(name, columns);
  if (tokens[i].IsKeyword("KEY")) {
    ++i;
    AQV_ASSIGN_OR_RETURN(std::vector<std::string> key, name_list("key"));
    AQV_RETURN_NOT_OK(def.AddKeyByName(key));
  }
  if (tokens[i].kind != TokenKind::kEnd) {
    return Status::InvalidArgument("unexpected trailing input at offset " +
                                   std::to_string(tokens[i].offset));
  }
  AQV_RETURN_NOT_OK(
      PublishNewTable(std::move(def), Table(std::move(columns)), nullptr));
  return StatementResult{"table " + name + " created\n"};
}

Status QueryService::PublishNewTable(TableDef def, Table contents,
                                     bool* created_elsewhere) {
  LatchManager::Guard guard = latches_.Ddl();
  ServiceSnapshot next = *Head();
  if (created_elsewhere != nullptr) {
    *created_elsewhere = next.catalog->HasTable(def.name());
    if (*created_elsewhere) return Status::OK();
  }
  std::string name = def.name();
  auto catalog = std::make_shared<Catalog>(*next.catalog);
  AQV_RETURN_NOT_OK(catalog->AddTable(std::move(def)));
  next.catalog = std::move(catalog);
  next.db.Put(std::move(name), std::move(contents));
  return PublishDdl(std::move(next));
}

Result<StatementResult> QueryService::CreateView(const Statement& s,
                                                 bool materialized) {
  LatchManager::Guard guard = latches_.Ddl();
  ServiceSnapshot next = *Head();
  AQV_ASSIGN_OR_RETURN(ViewDef view, ParseView(s.text, next.catalog.get()));
  std::string name = view.name;
  auto views = std::make_shared<ViewRegistry>(*next.views);
  AQV_RETURN_NOT_OK(views->Register(std::move(view)));
  next.views = std::move(views);
  std::string message = "view " + name + " registered (virtual)\n";
  if (materialized) {
    AQV_ASSIGN_OR_RETURN(size_t rows, RecomputeViewInto(name, &next));
    message =
        "view " + name + " materialized: " + std::to_string(rows) + " rows\n";
  }
  AQV_RETURN_NOT_OK(PublishDdl(std::move(next)));
  return StatementResult{message};
}

namespace {

/// The identifier at `word_index` of a whitespace-split statement, or ""
/// when the statement is too short. Used to peek a write's target table
/// name before parsing, so a write aimed at a view gets a verb-accurate
/// refusal instead of the binder's generic unknown-table error.
std::string PeekDmlTarget(std::string_view stmt, size_t word_index) {
  size_t i = 0;
  size_t word = 0;
  const size_t n = stmt.size();
  while (i < n) {
    while (i < n && std::isspace(static_cast<unsigned char>(stmt[i]))) ++i;
    size_t b = i;
    while (i < n && !std::isspace(static_cast<unsigned char>(stmt[i]))) ++i;
    if (b == i) break;
    if (word == word_index) return std::string(stmt.substr(b, i - b));
    ++word;
  }
  return "";
}

/// How a row-changing statement names itself: when refused for aiming at a
/// view, in its ack, and in its ack when buffered into a BEGIN WRITE batch.
/// Indexed by WriteRequest::Kind; COMMIT has an ack of its own.
struct WriteVerb {
  const char* refusal;
  const char* applied;
  const char* buffered;
};
constexpr WriteVerb kWriteVerbs[] = {
    {"INSERT into view", "inserted into", "buffered into"},
    {"DELETE from view", "deleted from", "buffered to delete from"},
    {"UPDATE view", "updated in", "buffered to update in"},
    {"LOAD into view", "loaded into", ""},
};

/// Refuses rows over the storage row cap. Rows that large could never be
/// checkpointed or replayed, so a durable service refuses them when they
/// arrive rather than poisoning a later CHECKPOINT.
template <typename Rows>
Status CheckRowSizes(const Rows& rows) {
  for (const Row& row : rows) {
    AQV_RETURN_NOT_OK(StorageEngine::CheckRowSize(row));
  }
  return Status::OK();
}

/// One UPDATE SET expression applied to one row. Arithmetic on NULL yields
/// NULL (SQL semantics); on a string it is an execution-time error;
/// INT64 op INT64 stays INT64 and is checked (a result outside INT64 is
/// kOutOfRange, never a wrapped value); anything involving a DOUBLE
/// promotes, and a NaN result is kInvalidArgument.
Result<Value> EvalSetExpr(const SetExpr& expr, const Row& row,
                          const ColumnIndexMap& layout) {
  if (expr.kind == SetExpr::Kind::kLiteral) return expr.literal;
  auto it = layout.find(expr.column);
  if (it == layout.end()) {
    return Status::Internal("unbound UPDATE source column '" + expr.column +
                            "'");
  }
  const Value& v = row[static_cast<size_t>(it->second)];
  if (expr.kind == SetExpr::Kind::kColumn) return v;
  if (v.is_null() || expr.literal.is_null()) return Value::Null();
  if (!v.is_numeric() || !expr.literal.is_numeric()) {
    return Status::InvalidArgument(
        "UPDATE arithmetic needs numeric operands; column '" + expr.column +
        "' holds " + v.ToString());
  }
  if (v.type() == ValueType::kInt64 &&
      expr.literal.type() == ValueType::kInt64) {
    int64_t a = v.int64();
    int64_t b = expr.literal.int64();
    int64_t result;
    bool overflow;
    switch (expr.op) {
      case '+':
        overflow = __builtin_add_overflow(a, b, &result);
        break;
      case '-':
        overflow = __builtin_sub_overflow(a, b, &result);
        break;
      default:
        overflow = __builtin_mul_overflow(a, b, &result);
        break;
    }
    if (overflow) {
      return Status::OutOfRange("INT64 overflow in UPDATE arithmetic on "
                                "column '" + expr.column + "'");
    }
    return Value::Int64(result);
  }
  const double a = v.AsDouble();
  const double b = expr.literal.AsDouble();
  const double result =
      expr.op == '+' ? a + b : expr.op == '-' ? a - b : a * b;
  // NaN (inf * 0, inf - inf) would compare equal to every number; it is
  // refused at ingress.
  if (std::isnan(result)) {
    return Status::InvalidArgument("UPDATE arithmetic on column '" +
                                   expr.column + "' yields NaN");
  }
  return Value::Double(result);
}

}  // namespace

Result<StatementResult> QueryService::HandleWrite(const Statement& s) {
  Clock::time_point stmt_start = Clock::now();
  QueryStats qs;
  ServiceSnapshotPtr state = Head();
  AQV_ASSIGN_OR_RETURN(WriteRequest request, BindWrite(s, *state));
  qs.parse_micros = ElapsedMicros(stmt_start);
  const std::string table = request.table;
  const Kind kind = request.kind;
  StatementResult out;
  if (kind == Kind::kLoad && !state->catalog->HasTable(table)) {
    // A LOAD that creates its table is a schema change.
    if (storage_attached()) {
      AQV_RETURN_NOT_OK(CheckRowSizes(request.replacement->rows()));
    }
    out.message = "table " + table + " created from the CSV header\n" +
                  std::to_string(request.replacement->num_rows()) +
                  " row(s) loaded into " + table + "\n";
    TableDef def(table, request.replacement->columns());
    bool created_elsewhere = false;
    AQV_RETURN_NOT_OK(PublishNewTable(
        std::move(def), *std::move(request.replacement), &created_elsewhere));
    // Created by another thread since the pin: bind again, as a
    // replacement.
    if (created_elsewhere) return HandleWrite(s);
    return out;
  }
  const WriteVerb* verb = kind == Kind::kCommit || kind == Kind::kRefresh
                              ? nullptr
                              : &kWriteVerbs[static_cast<size_t>(kind)];
  if (verb != nullptr && ThreadHasWriteBatch()) {
    // Buffer into the open batch: the delta is materialized against the
    // pinned committed state (the visibility rule of SELECT inside BEGIN
    // WRITE). COMMIT removes the deletes from the then-current base, so a
    // concurrent write that removed a matched row fails the batch cleanly
    // instead of desyncing views.
    AQV_ASSIGN_OR_RETURN(Delta delta, MaterializeWrite(&request, state->db));
    size_t rows =
        CountRows(kind == Kind::kInsert ? delta.inserts : delta.deletes);
    AQV_RETURN_NOT_OK(BufferWrite(std::move(delta)));
    return StatementResult{std::to_string(rows) + " row(s) " + verb->buffered +
                           " " + table + " (COMMIT to apply)\n"};
  }
  Clock::time_point apply_start = Clock::now();
  AQV_ASSIGN_OR_RETURN(WriteApplied applied,
                       ApplyWrite(std::move(request), &qs));
  // The write's "exec" phase is apply minus the attributed sub-phases so
  // the phases stay disjoint and their sum tracks the wall clock.
  uint64_t apply_micros = ElapsedMicros(apply_start);
  uint64_t attributed =
      qs.latch_micros + qs.maintain_micros + qs.wal_commit_micros;
  qs.exec_micros = apply_micros > attributed ? apply_micros - attributed : 0;
  qs.rows_processed += applied.rows_inserted + applied.rows_deleted;
  qs.epoch = applied.epoch;
  std::string views = std::to_string(applied.views_maintained) +
                      " view(s) maintained, " +
                      std::to_string(applied.views_recomputed) +
                      " recomputed" +
                      (applied.recomputes.empty()
                           ? "\n"
                           : " (" + applied.recomputes + ")\n");
  if (kind == Kind::kRefresh) {
    out.message = "view " + table + " refreshed; " + views;
  } else if (verb == nullptr) {
    out.message = std::to_string(applied.rows_inserted) +
                  " row(s) inserted / " +
                  std::to_string(applied.rows_deleted) + " deleted across " +
                  std::to_string(applied.tables) + " table(s); " + views;
  } else {
    bool adds = kind == Kind::kInsert || kind == Kind::kLoad;
    out.message =
        std::to_string(adds ? applied.rows_inserted : applied.rows_deleted) +
        " row(s) " + verb->applied + " " + table + "; " + views;
  }
  if (applied.repaired) {
    // The WAL-logged replacement alone would not survive a restart: the
    // corrupt checkpoint pages are still on disk, so recovery would
    // re-derive the quarantine from them and discard the repair delta as
    // suspect. A checkpoint rewrites the damaged pages from the repaired
    // live contents and persists the cleared quarantine map. Quiesce first
    // — the repair held only the table's own stripes.
    LatchManager::Guard guard = latches_.Ddl();
    AQV_RETURN_NOT_OK(CheckpointIfDurable(*Head()));
    out.message += "quarantine repaired; checkpoint rewrote the damaged pages\n";
  }
  qs.total_micros = ElapsedMicros(stmt_start);
  MaybeRecordSlowStatement(s.text, qs);  // fingerprint 0: writes aggregate only
  return out;
}

Result<QueryService::WriteRequest> QueryService::BindWrite(
    const Statement& s, const ServiceSnapshot& state) {
  WriteRequest request;
  request.kind = s.kind;
  if (s.kind == Kind::kCommit) {
    std::lock_guard<std::mutex> lock(session_mutex_);
    auto it = sessions_.find(std::this_thread::get_id());
    if (it == sessions_.end() || !it->second.batch) {
      return Status::InvalidArgument("no open write batch on this thread");
    }
    // Taken up front: a failed apply discards the batch (nothing was
    // published), rather than leaving it open to fail every retry.
    request.delta = *std::move(it->second.batch);
    sessions_.erase(it);
    return request;
  }
  if (s.kind == Kind::kRefresh) {
    request.table = std::string(s.args);
    if (!state.views->Has(request.table)) {
      return Status::NotFound("no view named '" + request.table + "'");
    }
    return request;
  }
  // INSERT INTO <t> and DELETE FROM <t> name the target second, UPDATE <t>
  // and LOAD <t> first.
  std::string target = PeekDmlTarget(
      s.text, s.kind == Kind::kInsert || s.kind == Kind::kDelete ? 2 : 1);
  if (state.views->Has(target)) {
    return Status::InvalidArgument(
        std::string("cannot ") +
        kWriteVerbs[static_cast<size_t>(request.kind)].refusal + " '" +
        target + "'; write its base tables");
  }
  switch (request.kind) {
    case Kind::kInsert: {
      AQV_ASSIGN_OR_RETURN(InsertStatement insert, ParseInsert(s.text));
      request.table = std::move(insert.table);
      request.delta.inserts[request.table] = std::move(insert.rows);
      break;
    }
    case Kind::kDelete: {
      AQV_ASSIGN_OR_RETURN(DeleteStatement del,
                           ParseDelete(s.text, state.catalog.get()));
      request.table = std::move(del.table);
      request.where = std::move(del.where);
      break;
    }
    case Kind::kUpdate: {
      AQV_ASSIGN_OR_RETURN(UpdateStatement upd,
                           ParseUpdate(s.text, state.catalog.get()));
      request.table = std::move(upd.table);
      request.where = std::move(upd.where);
      request.sets = std::move(upd.sets);
      break;
    }
    default: {
      // LOAD <table> FROM '<path>'
      AQV_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(s.text));
      if (tokens.size() != 5 || tokens[1].kind != TokenKind::kIdentifier ||
          !tokens[2].IsKeyword("FROM") ||
          tokens[3].kind != TokenKind::kString) {
        return Status::InvalidArgument("usage: LOAD R FROM 'file.csv'");
      }
      request.table = tokens[1].text;
      AQV_ASSIGN_OR_RETURN(Table loaded, ReadCsvFile(tokens[3].text));
      request.replacement = std::move(loaded);
      // A LOAD into a table that does not exist yet creates it.
      if (!state.catalog->HasTable(request.table)) return request;
    }
  }
  // Incoming rows must fit the target, checked here so that a batch never
  // buffers a row its COMMIT would refuse.
  Result<const TableDef*> def = state.catalog->GetTable(request.table);
  if (!def.ok()) {
    return Status::NotFound("table '" + request.table + "' not in database");
  }
  const size_t arity = static_cast<size_t>((*def)->num_columns());
  auto check_arity = [&](size_t got) -> Status {
    if (got == arity) return Status::OK();
    return Status::InvalidArgument(
        "row arity " + std::to_string(got) + " != arity " +
        std::to_string(arity) + " of table '" + request.table + "'");
  };
  if (request.replacement.has_value()) {
    AQV_RETURN_NOT_OK(check_arity(
        static_cast<size_t>(request.replacement->num_columns())));
  }
  for (const auto& [name, rows] : request.delta.inserts) {
    for (const Row& row : rows) AQV_RETURN_NOT_OK(check_arity(row.size()));
  }
  return request;
}

Result<Delta> QueryService::MaterializeWrite(WriteRequest* request,
                                             const Database& db) const {
  if (request->kind == Kind::kInsert || request->kind == Kind::kCommit ||
      request->kind == Kind::kRefresh) {
    return std::move(request->delta);
  }
  Delta out;
  AQV_ASSIGN_OR_RETURN(const Table* table, db.Get(request->table));
  if (request->kind == Kind::kLoad) {
    // Delete-all plus insert-all: replay applies the inserts, then removes
    // one occurrence per old row, landing exactly on the loaded contents,
    // so the replacement is durable without a checkpoint.
    out.deletes[request->table] = table->rows();
    out.inserts[request->table] = request->replacement->rows();
    return out;
  }
  ColumnIndexMap layout;
  for (int i = 0; i < table->num_columns(); ++i) {
    layout[table->columns()[static_cast<size_t>(i)]] = i;
  }
  // The WHERE runs chunk by chunk; zone maps skip the chunks it cannot
  // match (a key-equality predicate scans one).
  std::vector<Row> deleted;
  std::vector<Row> inserted;
  for (const auto& [chunk, sel] :
       SelectRows(*table, request->where, layout)) {
    for (uint32_t r : sel) {
      Row row = table->chunks()[chunk]->RowAt(r);
      if (request->kind == Kind::kUpdate) {
        Row updated = row;
        for (const Assignment& a : request->sets) {
          auto it = layout.find(a.column);
          if (it == layout.end()) {
            return Status::Internal("unbound UPDATE target column '" +
                                    a.column + "'");
          }
          // Assignments all read the OLD row (SQL semantics: SET a = b,
          // b = a swaps), so the source is `row`, never `updated`.
          AQV_ASSIGN_OR_RETURN(Value v, EvalSetExpr(a.expr, row, layout));
          updated[static_cast<size_t>(it->second)] = std::move(v);
        }
        inserted.push_back(std::move(updated));
      }
      deleted.push_back(std::move(row));
    }
  }
  if (!deleted.empty()) {
    if (request->kind == Kind::kUpdate) {
      out.inserts[request->table] = std::move(inserted);
    }
    out.deletes[request->table] = std::move(deleted);
  }
  return out;
}

Status QueryService::BufferWrite(Delta delta) {
  std::lock_guard<std::mutex> lock(session_mutex_);
  auto it = sessions_.find(std::this_thread::get_id());
  if (it == sessions_.end() || !it->second.batch) {
    return Status::InvalidArgument(
        "no open write batch on this thread (BEGIN WRITE first)");
  }
  auto append = [](std::map<std::string, std::vector<Row>>& from,
                   std::map<std::string, std::vector<Row>>* into) {
    for (auto& [name, rows] : from) {
      std::vector<Row>& buffered = (*into)[name];
      for (Row& row : rows) buffered.push_back(std::move(row));
    }
  };
  append(delta.inserts, &it->second.batch->inserts);
  append(delta.deletes, &it->second.batch->deletes);
  return Status::OK();
}

Result<std::vector<QueryService::DependentView>>
QueryService::DependentViewsOf(const ServiceSnapshot& state,
                               const std::vector<std::string>& tables) {
  // Walk the registry downstream from `tables`: the views reading them,
  // the views reading those, and so on.
  std::vector<std::string> pending = tables;
  std::set<std::string> reached;
  std::vector<DependentView> dependents;
  while (!pending.empty()) {
    std::string name = std::move(pending.back());
    pending.pop_back();
    if (!reached.insert(name).second) continue;
    const std::vector<std::string>& readers = state.views->ReadersOf(name);
    pending.insert(pending.end(), readers.begin(), readers.end());
    // Only stored (materialized) views need write-path maintenance; virtual
    // views are recomputed on every read anyway. A view `tables` names is
    // the target of a REFRESH, which materializes a virtual one.
    bool named = std::find(tables.begin(), tables.end(), name) != tables.end();
    if (!state.views->Has(name) || (!state.db.Has(name) && !named)) continue;
    std::vector<std::string> closure;
    CollectDependencies({name}, *state.views, &closure);
    dependents.push_back({std::move(name), std::move(closure)});
  }
  return UpstreamFirst(std::move(dependents));
}

Result<std::vector<QueryService::DependentView>> QueryService::UpstreamFirst(
    std::vector<DependentView> views) {
  // Each pass places, in order, every view whose closure names no view
  // still waiting. The registry rejects cyclic definitions, so every pass
  // places at least one.
  std::vector<DependentView> ordered;
  while (!views.empty()) {
    const size_t waiting = views.size();
    for (auto it = views.begin(); it != views.end();) {
      bool blocked = std::any_of(
          it->closure.begin(), it->closure.end(), [&](const std::string& n) {
            return n != it->name &&
                   std::any_of(views.begin(), views.end(),
                               [&](const DependentView& v) {
                                 return v.name == n;
                               });
          });
      if (blocked) {
        ++it;
        continue;
      }
      ordered.push_back(std::move(*it));
      it = views.erase(it);
    }
    if (views.size() == waiting) {
      return Status::Internal("cyclic materialized-view dependencies");
    }
  }
  return ordered;
}

Result<size_t> QueryService::RecomputeViewInto(const std::string& name,
                                               ServiceSnapshot* state) const {
  AQV_FAILPOINT("service.refresh");
  AQV_ASSIGN_OR_RETURN(const ViewDef* def, state->views->Get(name));
  Evaluator fresh(&state->db, state->views.get(), eval_options_);
  AQV_ASSIGN_OR_RETURN(Table contents, fresh.Execute(def->query));
  size_t rows = contents.num_rows();
  state->db.Put(name, std::move(contents));
  return rows;
}

Result<QueryService::WriteApplied> QueryService::ApplyWrite(
    WriteRequest request, QueryStats* stats) {
  const bool load = request.kind == Kind::kLoad;
  const bool refresh = request.kind == Kind::kRefresh;
  // The base tables written: a COMMIT's are every table its batch names, a
  // REFRESH's none.
  std::vector<std::string> written;
  if (request.kind == Kind::kCommit) {
    std::set<std::string> names;
    for (const auto& [name, rows] : request.delta.inserts) names.insert(name);
    for (const auto& [name, rows] : request.delta.deletes) names.insert(name);
    written.assign(names.begin(), names.end());
  } else if (!refresh) {
    written.push_back(request.table);
  }
  WriteApplied applied;
  applied.tables = written.size();
  if (written.empty() && !refresh) return applied;  // an empty batch
  TraceSpan span("write_apply");
  // Backpressure gate BEFORE any latch: a writer stalled here holds
  // nothing, so the auto-checkpointer's exclusive ddl acquisition (which
  // shrinks the WAL and releases the stall) can always proceed. A REFRESH
  // logs nothing, so it has nothing to wait out.
  if (!refresh) AQV_RETURN_NOT_OK(WaitOutBackpressure());
  // The shared ddl latch fixes the catalog and registry until Publish, so
  // every head loaded below carries the ones the request was bound on.
  LatchManager::Guard guard = latches_.StatementShared();
  ServiceSnapshotPtr base = Head();
  // A REFRESH recomputes its view and every stored view over it.
  AQV_ASSIGN_OR_RETURN(
      std::vector<DependentView> dependents,
      DependentViewsOf(*base, refresh ? std::vector<std::string>{request.table}
                                      : written));
  // Writing into a quarantined table would mingle new rows with salvaged
  // (possibly empty) contents; refuse until a LOAD replaces it wholesale.
  // LOAD is that repair, so its own target is exempt. A REFRESH would
  // publish a recompute from salvaged contents as fresh, so the named
  // view's closure must be clean; it comes first, since every other
  // dependent reads it. A stored view over it that reads a quarantined
  // table elsewhere is left out: its reads fail until that repair.
  if (refresh) {
    AQV_RETURN_NOT_OK(CheckTableQuarantine(dependents.front().closure));
    std::erase_if(dependents, [&](const DependentView& d) {
      return !CheckTableQuarantine(d.closure).ok();
    });
  } else if (!load) {
    AQV_RETURN_NOT_OK(CheckTableQuarantine(written));
  }

  // Latch footprint: written tables and every dependent view exclusive,
  // the dependents' closures (the tables a recompute reads) shared.
  std::vector<std::string> writes = written;
  std::vector<std::string> reads;
  for (const DependentView& d : dependents) {
    writes.push_back(d.name);
    reads.insert(reads.end(), d.closure.begin(), d.closure.end());
  }
  std::sort(writes.begin(), writes.end());
  writes.erase(std::unique(writes.begin(), writes.end()), writes.end());
  std::sort(reads.begin(), reads.end());
  reads.erase(std::unique(reads.begin(), reads.end()), reads.end());
  Clock::time_point latch_start = Clock::now();
  latches_.AcquireWrite(&guard, writes, reads);
  if (stats != nullptr) stats->latch_micros += ElapsedMicros(latch_start);
  if (span.active()) {
    span.AddAttr("tables", static_cast<uint64_t>(written.size()));
    span.AddAttr("dependents", static_cast<uint64_t>(dependents.size()));
  }

  // Materialize now, under the acquired write latches, against the head
  // loaded after them: a DELETE/UPDATE predicate runs against the exact
  // table version the delta will be applied to, so the matched multiset
  // cannot race a concurrent writer, and a LOAD deletes exactly the rows
  // it replaces.
  base = Head();
  applied.epoch = base->epoch;
  AQV_ASSIGN_OR_RETURN(Delta delta, MaterializeWrite(&request, base->db));
  applied.rows_inserted = CountRows(delta.inserts);
  applied.rows_deleted = CountRows(delta.deletes);

  // Oversized rows are refused HERE, when they arrive, not deferred to the
  // next CHECKPOINT. Checked on the materialized delta so UPDATE-transformed
  // rows are covered too.
  if (storage_ != nullptr) {
    for (const auto& [name, rows] : delta.inserts) {
      AQV_RETURN_NOT_OK(CheckRowSizes(rows));
    }
  }
  // A predicate that matched nothing changes nothing: skip the COW copy,
  // the maintenance sweep, the WAL record and the publication entirely.
  if (delta.empty() && !refresh) return applied;

  // One copy-on-write version per written table, sharing every chunk the
  // batch does not touch; a fault injected here must leave the head
  // untouched. Inserts land before deletes, so a same-batch insert covers
  // a delete of an identical row; a delete the staged table cannot cover
  // is refused here, before the WAL record and the publication, so no view
  // is maintained against rows the base never dropped.
  AQV_FAILPOINT("table.cow_copy");
  ServiceSnapshot staging = *base;
  if (load) {
    staging.db.Put(request.table, *std::move(request.replacement));
  } else {
    AQV_RETURN_NOT_OK(ApplyDeltaToBase(delta, &staging.db));
  }

  // Bring every dependent view up to date in the staging state: fold the
  // delta in where the maintainer supports the view's shape, recompute from
  // the staged bases otherwise. `base` still holds the pre-delta state the
  // maintainer differences against. A LOAD replaces its table wholesale
  // and a REFRESH is a recompute by definition, so neither folds.
  Clock::time_point maintain_start = Clock::now();
  std::vector<std::string> recomputed;
  for (const DependentView& d : dependents) {
    AQV_ASSIGN_OR_RETURN(const ViewDef* def, base->views->Get(d.name));
    // The delta names base tables only, so the maintainer's telescoped
    // differencing sees no change for a view reading another view — those
    // must be recomputed, not silently no-opped.
    bool base_only = std::none_of(
        def->query.from.begin(), def->query.from.end(),
        [&](const TableRef& ref) { return base->views->Has(ref.table); });
    // Why the view is recomputed, when it is.
    std::string reason = load         ? "LOAD replaces its input"
                         : refresh    ? "REFRESH"
                         : !base_only ? "reads another view"
                                      : "";
    if (reason.empty()) {
      Result<IncrementalMaintainer> maintainer =
          IncrementalMaintainer::Create(*def, eval_options_);
      Status folded = maintainer.status();
      if (maintainer.ok()) {
        AQV_ASSIGN_OR_RETURN(const Table* current, base->db.Get(d.name));
        Result<Table> fresh = maintainer->Apply(delta, base->db, *current);
        folded = fresh.status();
        if (fresh.ok()) staging.db.Put(d.name, *std::move(fresh));
      }
      if (folded.ok()) {
        ++applied.views_maintained;
        continue;
      }
      if (folded.code() != StatusCode::kUnsupported) return folded;
      reason = folded.message();
    }
    AQV_RETURN_NOT_OK(RecomputeViewInto(d.name, &staging).status());
    ++applied.views_recomputed;
    if (!applied.recomputes.empty()) applied.recomputes += ", ";
    applied.recomputes += d.name + ": " + reason;
    recomputed.push_back(d.name);
  }
  if (span.active() && !applied.recomputes.empty()) {
    span.AddAttr("recompute", applied.recomputes);
  }
  uint64_t maintain_micros = ElapsedMicros(maintain_start);
  if (!dependents.empty()) {
    maintain_latency_.Record(maintain_micros);
  }
  if (stats != nullptr) stats->maintain_micros += maintain_micros;

  // The durability point: the delta is WAL-appended and fsynced BEFORE the
  // in-memory publication, so a commit the client saw acknowledged always
  // survives a crash. A commit that fails here publishes nothing — and if
  // the record still reached disk intact (a crash after the write, before
  // the ack), recovery replays it atomically; the client simply never
  // learned its fate, which is the usual commit-ack contract. A REFRESH
  // changes no base row, so it logs nothing.
  if (storage_ != nullptr && !delta.empty()) {
    AQV_RETURN_NOT_OK(storage_->LogCommit(delta, stats));
  }

  // Publish base tables and views at a single epoch: snapshot readers see
  // either the whole write or none of it.
  std::vector<std::pair<std::string, TablePtr>> publish;
  publish.reserve(writes.size());
  for (const std::string& name : writes) {
    publish.emplace_back(name, staging.db.GetShared(name));
  }
  applied.epoch = Publish(
      [&](ServiceSnapshot* next) { next->db.PutAll(std::move(publish)); });
  // A recomputed view's contents are as fresh as a REFRESH would make them,
  // so it gets the same clean quarantine slate.
  for (const std::string& name : recomputed) ClearViewFailures(name);
  rows_inserted_.Increment(applied.rows_inserted);
  rows_deleted_.Increment(applied.rows_deleted);
  views_maintained_.Increment(applied.views_maintained);
  views_recomputed_.Increment(applied.views_recomputed);
  // A full replacement is the quarantine repair path: the table's contents
  // no longer owe anything to the corrupt durable state.
  if (load) {
    applied.repaired = ClearTableQuarantine(request.table, *base->views);
  }
  return applied;
}

Status QueryService::WaitOutBackpressure() {
  if (storage_ == nullptr || !storage_->OverBackpressureCap()) {
    return Status::OK();
  }
  metrics_.GetCounter("storage.backpressure_waits_total").Increment();
  checkpoint_cv_.notify_all();  // kick the checkpointer now, not next poll
  Clock::time_point deadline =
      Clock::now() +
      std::chrono::microseconds(options_.storage_backpressure_wait_micros);
  while (storage_->OverBackpressureCap()) {
    if (Clock::now() >= deadline) {
      return Status::Unavailable(
          "SERVER_BUSY: wal is " + std::to_string(storage_->wal_bytes()) +
          " bytes, over the " +
          std::to_string(storage_->options().backpressure_wal_bytes) +
          "-byte backpressure cap and the checkpointer has not caught up; "
          "retry later");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return Status::OK();
}

Status QueryService::CheckTableQuarantine(
    const std::vector<std::string>& names) const {
  std::lock_guard<std::mutex> lock(quarantine_mutex_);
  if (table_quarantine_.empty()) return Status::OK();
  for (const std::string& name : names) {
    auto it = table_quarantine_.find(name);
    if (it != table_quarantine_.end()) {
      return Status::Unavailable(
          "'" + it->first + "' is quarantined: " + it->second +
          "; repair it with LOAD " + it->first + " FROM '<file.csv>'");
    }
  }
  return Status::OK();
}

bool QueryService::ClearTableQuarantine(const std::string& name,
                                        const ViewRegistry& views) {
  std::lock_guard<std::mutex> lock(quarantine_mutex_);
  if (table_quarantine_.erase(name) == 0) return false;
  // Mirror every lift into the engine's persisted map, or the next
  // checkpoint would re-serialize the stale entry and restart would
  // resurrect a quarantine the repair already cleared.
  if (storage_ != nullptr) storage_->ClearQuarantinedTable(name);
  // Dependent views re-enter service once no quarantined base table remains
  // in their closure — the LOAD that lifted `name` just recomputed them.
  for (auto it = table_quarantine_.begin(); it != table_quarantine_.end();) {
    if (!views.Has(it->first) ||
        !QuarantinedBaseOf(it->first, views, table_quarantine_).empty()) {
      ++it;
    } else {
      if (storage_ != nullptr) storage_->ClearQuarantinedTable(it->first);
      it = table_quarantine_.erase(it);
    }
  }
  return true;
}

std::vector<std::pair<std::string, std::string>>
QueryService::QuarantinedTables() const {
  std::lock_guard<std::mutex> lock(quarantine_mutex_);
  return std::vector<std::pair<std::string, std::string>>(
      table_quarantine_.begin(), table_quarantine_.end());
}

}  // namespace aqv
