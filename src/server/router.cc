#include "server/router.h"

#include <algorithm>
#include <cctype>
#include <set>

#include "fault/fault.h"
#include "sql/parser.h"
#include "storage/sim_fs.h"

namespace aedb::server {

namespace {

std::string Upper(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = static_cast<char>(std::toupper(c));
  return out;
}

std::string Lower(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = static_cast<char>(std::tolower(c));
  return out;
}

/// Strips a leading "table." qualifier and uppercases.
std::string BareColumn(const std::string& col) {
  size_t dot = col.find('.');
  return Upper(dot == std::string::npos ? col : col.substr(dot + 1));
}

bool IsWarehouseColumn(const std::string& bare_upper) {
  return bare_upper.size() >= 4 &&
         bare_upper.compare(bare_upper.size() - 4, 4, "W_ID") == 0;
}

/// Tags a non-OK status with the shard it came from, so the driver's retry
/// classifier can invalidate and re-attest exactly that shard's session.
Status Annotate(Status st, uint32_t shard) {
  if (st.ok()) return st;
  if (st.message().find("[shard=") != std::string::npos) return st;
  return Status::FromCode(st.code(), st.message() + " [shard=" +
                                         std::to_string(shard) + "]");
}

template <typename T>
Result<T> AnnotateResult(Result<T> res, uint32_t shard) {
  if (res.ok()) return res;
  return Annotate(res.status(), shard);
}

/// A 2PC commit decision as 2pc.log holds it: txn_id is the global
/// transaction id, the payload the writer shard ids (u32 each).
storage::LogRecord DecisionRecord(uint64_t gtid, Bytes shards) {
  storage::LogRecord rec;
  rec.type = storage::LogRecordType::kCommit;
  rec.txn_id = gtid;
  rec.payload1 = std::move(shards);
  return rec;
}

/// The candidate warehouse pin found while walking a predicate.
struct DistPin {
  std::string column;  // bare upper name
  bool is_param = false;
  std::string param;
  int64_t literal = 0;
};

/// Walks AND-connected equality conjuncts collecting `*W_ID = @p|literal`
/// pins. OR/NOT subtrees are skipped: a pin under OR does not constrain the
/// row's warehouse.
void CollectPins(const sql::Expr* e, std::vector<DistPin>* out) {
  if (e == nullptr) return;
  if (e->kind == sql::Expr::Kind::kAnd) {
    CollectPins(e->a.get(), out);
    CollectPins(e->b.get(), out);
    return;
  }
  if (e->kind != sql::Expr::Kind::kCompare || e->cmp != es::CompareOp::kEq) {
    return;
  }
  const sql::Expr* col = nullptr;
  const sql::Expr* val = nullptr;
  for (int flip = 0; flip < 2; ++flip) {
    const sql::Expr* a = flip ? e->b.get() : e->a.get();
    const sql::Expr* b = flip ? e->a.get() : e->b.get();
    if (a != nullptr && a->kind == sql::Expr::Kind::kColumn && b != nullptr &&
        (b->kind == sql::Expr::Kind::kParam ||
         b->kind == sql::Expr::Kind::kLiteral)) {
      col = a;
      val = b;
      break;
    }
  }
  if (col == nullptr) return;
  std::string bare = BareColumn(col->column);
  if (!IsWarehouseColumn(bare)) return;
  DistPin pin;
  pin.column = bare;
  if (val->kind == sql::Expr::Kind::kParam) {
    pin.is_param = true;
    pin.param = Lower(val->param);
  } else {
    if (!val->literal.IsNumeric()) return;
    pin.literal = val->literal.AsInt64();
  }
  out->push_back(std::move(pin));
}

/// Picks the home-warehouse pin: the SHORTEST *W_ID column name wins, so a
/// History insert carrying both H_W_ID (home) and H_C_W_ID (remote customer)
/// routes by H_W_ID and a cross-warehouse Payment stays a single-home row
/// write per shard.
const DistPin* PickPin(const std::vector<DistPin>& pins) {
  const DistPin* best = nullptr;
  for (const DistPin& p : pins) {
    if (best == nullptr || p.column.size() < best->column.size()) best = &p;
  }
  return best;
}

/// First-appearance parameter-name order over a statement — mirrors the
/// binder's positional deduction so literal positional params can resolve a
/// param pin.
void CollectParamOrder(const sql::Expr* e, std::vector<std::string>* order) {
  if (e == nullptr) return;
  if (e->kind == sql::Expr::Kind::kParam) {
    std::string name = Lower(e->param);
    if (std::find(order->begin(), order->end(), name) == order->end()) {
      order->push_back(name);
    }
  }
  CollectParamOrder(e->a.get(), order);
  CollectParamOrder(e->b.get(), order);
  CollectParamOrder(e->c.get(), order);
}

}  // namespace

ShardedDatabase::ShardedDatabase(ShardedOptions options,
                                 attestation::HostGuardianService* hgs,
                                 const enclave::EnclaveImage* image,
                                 std::shared_ptr<storage::Fs> fs)
    : options_(std::move(options)), fs_(std::move(fs)) {
  if (options_.shards == 0) options_.shards = 1;
  const std::string& root = options_.base.data_dir;
  const bool simulated = fs_ == nullptr && root.empty();
  if (fs_ == nullptr) {
    fs_ = simulated ? std::shared_ptr<storage::Fs>(
                          std::make_shared<storage::SimFs>())
                    : std::make_shared<storage::PosixFs>();
  }
  decisions_ = std::make_unique<storage::Wal>(fs_.get(), root + "/2pc.log");
  // One wait-for graph for every shard: a global transaction blocked on one
  // shard while holding locks on another is one node in it, so a single
  // check finds cycles across shards as well as inside one.
  for (uint32_t i = 0; i < options_.shards; ++i) {
    ServerOptions per_shard = options_.base;
    per_shard.data_dir = root + "/shard-" + std::to_string(i);
    shards_.push_back(std::make_unique<Database>(per_shard, hgs, image, fs_));
    shards_.back()->engine().locks().ShareWaitForGraph(graph_);
  }
  // A fresh simulated disk holds nothing to recover, so opening cannot fail.
  if (simulated) (void)Open();
}

uint32_t ShardedDatabase::ShardOfWarehouse(int64_t w) const {
  int64_t n = static_cast<int64_t>(options_.shards);
  int64_t s = (w - 1) % n;
  if (s < 0) s += n;
  return static_cast<uint32_t>(s);
}

// ---------------------------------------------------------------------------
// Routing plans

Result<const ShardedDatabase::RoutePlan*> ShardedDatabase::PlanFor(
    const std::string& sql) {
  {
    std::lock_guard<std::mutex> lock(plan_mu_);
    auto it = plans_.find(sql);
    if (it != plans_.end()) return &it->second;
  }
  sql::Statement stmt;
  AEDB_ASSIGN_OR_RETURN(stmt, sql::Parse(sql));
  RoutePlan plan;
  std::vector<DistPin> pins;
  std::string table;
  switch (stmt.kind) {
    case sql::Statement::Kind::kSelect: {
      plan.is_select = true;
      table = stmt.select->table;
      CollectPins(stmt.select->where.get(), &pins);
      for (const sql::SelectItem& item : stmt.select->items) {
        plan.aggs.push_back(item.agg);
        if (item.agg != sql::AggFunc::kNone) plan.has_agg = true;
      }
      plan.has_group_by = !stmt.select->group_by.empty();
      plan.order_by = stmt.select->order_by;
      plan.order_desc = stmt.select->order_desc;
      plan.limit = stmt.select->limit;
      break;
    }
    case sql::Statement::Kind::kInsert: {
      plan.is_write = true;
      table = stmt.insert->table;
      // Route by the warehouse column's position in the column list; multi-
      // row inserts must agree on the warehouse (TPC-C's always do — the
      // loader inserts one row per statement).
      int best = -1;
      size_t best_len = 0;
      for (size_t c = 0; c < stmt.insert->columns.size(); ++c) {
        std::string bare = BareColumn(stmt.insert->columns[c]);
        if (!IsWarehouseColumn(bare)) continue;
        if (best < 0 || bare.size() < best_len) {
          best = static_cast<int>(c);
          best_len = bare.size();
        }
      }
      if (best >= 0 && !stmt.insert->rows.empty()) {
        const sql::Expr* val = stmt.insert->rows[0][best].get();
        DistPin pin;
        pin.column = BareColumn(stmt.insert->columns[best]);
        if (val->kind == sql::Expr::Kind::kParam) {
          pin.is_param = true;
          pin.param = Lower(val->param);
          pins.push_back(std::move(pin));
        } else if (val->kind == sql::Expr::Kind::kLiteral &&
                   val->literal.IsNumeric()) {
          pin.literal = val->literal.AsInt64();
          pins.push_back(std::move(pin));
        }
      }
      break;
    }
    case sql::Statement::Kind::kUpdate: {
      plan.is_write = true;
      table = stmt.update->table;
      CollectPins(stmt.update->where.get(), &pins);
      break;
    }
    case sql::Statement::Kind::kDelete: {
      plan.is_write = true;
      table = stmt.del->table;
      CollectPins(stmt.del->where.get(), &pins);
      break;
    }
    default:
      return Status::InvalidArgument("DDL must go through ExecuteDdl");
  }
  const DistPin* pin = PickPin(pins);
  if (pin != nullptr) {
    plan.pinned = true;
    plan.dist_is_param = pin->is_param;
    plan.dist_param = pin->param;
    plan.dist_literal = pin->literal;
  } else {
    // No pin in the statement. A table with no *W_ID column at all is a
    // replicated reference table (Item): reads hit one shard, writes
    // broadcast. A partitioned table without a pin broadcasts too (each
    // shard applies the statement to the rows it owns).
    const sql::TableDef* def = nullptr;
    auto found = shards_[0]->catalog().GetTable(table);
    if (found.ok()) def = *found;
    bool partitioned = false;
    if (def != nullptr) {
      for (const auto& col : def->columns) {
        if (IsWarehouseColumn(Upper(col.name))) {
          partitioned = true;
          break;
        }
      }
    }
    plan.reference_table = def != nullptr && !partitioned;
  }
  std::lock_guard<std::mutex> lock(plan_mu_);
  auto [it, inserted] = plans_.emplace(sql, std::move(plan));
  (void)inserted;
  return &it->second;
}

Result<int64_t> ShardedDatabase::ResolveWarehouse(
    const RoutePlan& plan, const std::vector<types::Value>* positional,
    const std::vector<std::pair<std::string, types::Value>>* named,
    const std::string& sql) {
  if (!plan.dist_is_param) return plan.dist_literal;
  if (named != nullptr) {
    for (const auto& [name, value] : *named) {
      if (Lower(name) == plan.dist_param) {
        if (!value.IsNumeric()) {
          return Status::InvalidArgument("warehouse param is not numeric");
        }
        return value.AsInt64();
      }
    }
    return Status::InvalidArgument("warehouse param @" + plan.dist_param +
                                   " missing");
  }
  // Positional: recover the binder's parameter order from the raw AST.
  sql::Statement stmt;
  AEDB_ASSIGN_OR_RETURN(stmt, sql::Parse(sql));
  std::vector<std::string> order;
  switch (stmt.kind) {
    case sql::Statement::Kind::kSelect:
      CollectParamOrder(stmt.select->where.get(), &order);
      break;
    case sql::Statement::Kind::kInsert:
      for (const auto& row : stmt.insert->rows) {
        for (const auto& e : row) CollectParamOrder(e.get(), &order);
      }
      break;
    case sql::Statement::Kind::kUpdate:
      for (const auto& [col, e] : stmt.update->sets) {
        CollectParamOrder(e.get(), &order);
      }
      CollectParamOrder(stmt.update->where.get(), &order);
      break;
    case sql::Statement::Kind::kDelete:
      CollectParamOrder(stmt.del->where.get(), &order);
      break;
    default:
      break;
  }
  for (size_t i = 0; i < order.size(); ++i) {
    if (order[i] != plan.dist_param) continue;
    if (positional == nullptr || i >= positional->size()) break;
    const types::Value& v = (*positional)[i];
    if (!v.IsNumeric()) {
      return Status::InvalidArgument("warehouse param is not numeric");
    }
    return v.AsInt64();
  }
  return Status::InvalidArgument("cannot resolve warehouse param @" +
                                 plan.dist_param);
}

// ---------------------------------------------------------------------------
// Transactions

uint64_t ShardedDatabase::BeginTransaction() {
  std::lock_guard<std::mutex> lock(txn_mu_);
  uint64_t gtid = next_gtid_++;
  gtxns_.emplace(gtid, GlobalTxn{});
  return gtid;
}

Result<uint64_t> ShardedDatabase::LocalTxnFor(uint64_t gtid, uint32_t shard) {
  std::lock_guard<std::mutex> lock(txn_mu_);
  auto it = gtxns_.find(gtid);
  if (it == gtxns_.end()) return Status::NotFound("unknown transaction");
  auto local = it->second.locals.find(shard);
  if (local != it->second.locals.end()) return local->second;
  uint64_t id = shards_[shard]->engine().Begin(gtid);
  it->second.locals.emplace(shard, id);
  return id;
}

uint32_t ShardedDatabase::PreferredReadShard(uint64_t gtid, uint32_t fallback) {
  std::lock_guard<std::mutex> lock(txn_mu_);
  auto it = gtxns_.find(gtid);
  if (it == gtxns_.end() || it->second.locals.empty()) return fallback;
  return it->second.locals.begin()->first;
}

Status ShardedDatabase::CommitTransaction(uint64_t txn) {
  GlobalTxn gtxn;
  {
    std::lock_guard<std::mutex> lock(txn_mu_);
    auto it = gtxns_.find(txn);
    if (it == gtxns_.end()) return Status::NotFound("unknown transaction");
    gtxn = std::move(it->second);
    gtxns_.erase(it);
  }
  return CommitGlobal(txn, std::move(gtxn));
}

Status ShardedDatabase::RollbackTransaction(uint64_t txn) {
  GlobalTxn gtxn;
  {
    std::lock_guard<std::mutex> lock(txn_mu_);
    auto it = gtxns_.find(txn);
    if (it == gtxns_.end()) return Status::NotFound("unknown transaction");
    gtxn = std::move(it->second);
    gtxns_.erase(it);
  }
  Status first;
  for (const auto& [shard, local] : gtxn.locals) {
    Status st = shards_[shard]->RollbackTransaction(local);
    if (!st.ok() && first.ok()) first = Annotate(st, shard);
  }
  return first;
}

Status ShardedDatabase::CommitGlobal(uint64_t gtid, GlobalTxn gtxn) {
  if (gtxn.locals.empty()) return Status::OK();

  // Split participants: read-only shards have nothing at stake — commit them
  // immediately, no vote needed (the classic read-only 2PC optimization).
  std::vector<std::pair<uint32_t, uint64_t>> writers;
  for (const auto& [shard, local] : gtxn.locals) {
    if (shards_[shard]->engine().TxnOpCount(local) > 0) {
      writers.emplace_back(shard, local);
    } else {
      (void)shards_[shard]->CommitTransaction(local);
    }
  }
  if (writers.empty()) return Status::OK();
  if (writers.size() == 1) {
    // Single-home: the shard's own WAL commit is the whole protocol.
    return Annotate(shards_[writers[0].first]->CommitTransaction(
                        writers[0].second),
                    writers[0].first);
  }

  auto abort_all = [&]() {
    for (const auto& [shard, local] : writers) {
      (void)shards_[shard]->RollbackTransaction(local);
    }
  };

  // --- Phase 1: prepare every writer. Any failure before the decision is
  // durable is PRESUMED ABORT: no decision record will ever exist for this
  // gtid, so recovery (ours or any shard's) rolls the txn back everywhere.
  {
    Status st = AEDB_FAULT_POINT("2pc/pre_prepare");
    if (!st.ok()) {
      abort_all();
      return Status::TransactionAborted("2pc aborted before prepare: " +
                                        st.message());
    }
  }
  for (size_t i = 0; i < writers.size(); ++i) {
    Status st = shards_[writers[i].first]->engine().Prepare(writers[i].second,
                                                            gtid);
    if (!st.ok()) {
      // This writer voted NO (Prepare aborted it on failure); roll back the
      // others, prepared or not.
      for (size_t j = 0; j < writers.size(); ++j) {
        if (j == i) continue;
        (void)shards_[writers[j].first]->RollbackTransaction(
            writers[j].second);
      }
      return Status::TransactionAborted(
          "2pc prepare failed: " +
          Annotate(st, writers[i].first).message());
    }
  }
  {
    Status st = AEDB_FAULT_POINT("2pc/prepared_no_decision");
    if (!st.ok()) {
      abort_all();
      return Status::TransactionAborted(
          "2pc: all prepared but no decision: " + st.message());
    }
  }
  {
    Status st = AEDB_FAULT_POINT("2pc/pre_commit_decision");
    if (!st.ok()) {
      abort_all();
      return Status::TransactionAborted(
          "2pc aborted before commit decision: " + st.message());
    }
  }

  // --- Decision: once a reader can see this record the transaction MUST
  // commit on every participant, across any combination of crashes.
  Bytes shard_ids;
  for (const auto& [shard, local] : writers) PutU32(&shard_ids, shard);
  auto logged = LogDecision(gtid, std::move(shard_ids));
  if (!logged.ok()) {
    // Refused, or torn: no reader gets as far as a torn frame's record, so
    // presumed abort still holds.
    abort_all();
    return Status::TransactionAborted("2pc decision not logged: " +
                                      logged.status().message());
  }
  Status decided = decisions_->SyncUpTo(*logged);
  if (decided.ok()) decided = AEDB_FAULT_POINT("2pc/coordinator_crash");
  if (!decided.ok()) {
    // The decision is in the log, and on disk or maybe on disk: aborting a
    // writer could break atomicity. Every writer stays prepared (in doubt);
    // RecoverInDoubt()/Open() settles them all by what the log holds.
    return Status::FromCode(StatusCode::kUnavailable,
                            "2pc outcome unknown: " + decided.message());
  }

  // --- Phase 2: finish every writer. A failure here leaves that shard
  // in-doubt with the decision on disk; recovery completes it.
  Status first;
  for (const auto& [shard, local] : writers) {
    Status st = shards_[shard]->engine().CommitPrepared(local);
    if (!st.ok() && first.ok()) first = Annotate(st, shard);
  }
  if (first.ok()) FinishDecision(gtid);
  two_phase_commits_.fetch_add(1, std::memory_order_relaxed);
  return first;
}

// ---------------------------------------------------------------------------
// Decision log

Result<uint64_t> ShardedDatabase::LogDecision(uint64_t gtid, Bytes shards) {
  std::lock_guard<std::mutex> lock(decision_mu_);
  uint64_t lsn;
  AEDB_ASSIGN_OR_RETURN(lsn, decisions_->Append(DecisionRecord(gtid, shards)));
  pending_decisions_.emplace(gtid, std::move(shards));
  return lsn;
}

void ShardedDatabase::FinishDecision(uint64_t gtid) {
  std::lock_guard<std::mutex> lock(decision_mu_);
  pending_decisions_.erase(gtid);
  // A failed compaction keeps every decision; the next one retries.
  if (decisions_->wal_bytes() > kDecisionLogBytes) {
    (void)CompactDecisionsLocked();
  }
}

Status ShardedDatabase::CompactDecisionsLocked() {
  // Exactly the pending decisions, so a decision left in doubt does not pin
  // every later one in the log. Every append holds decision_mu_, so none is
  // lost.
  return decisions_->Rewrite([this](const storage::Wal::RecordSink& put) {
    for (const auto& [gtid, shards] : pending_decisions_) {
      AEDB_RETURN_IF_ERROR(put(DecisionRecord(gtid, shards)));
    }
    return Status::OK();
  });
}

// ---------------------------------------------------------------------------
// Execution

Result<sql::ResultSet> ShardedDatabase::RunOnShard(
    uint32_t s, const std::string& sql,
    const std::vector<types::Value>* positional,
    const std::vector<std::pair<std::string, types::Value>>* named,
    uint64_t local_txn, uint64_t session_id, uint32_t deadline_ms) {
  if (named != nullptr) {
    return AnnotateResult(
        shards_[s]->ExecuteNamed(sql, *named, local_txn, session_id,
                                 deadline_ms),
        s);
  }
  return AnnotateResult(
      shards_[s]->Execute(sql, *positional, local_txn, session_id,
                          deadline_ms),
      s);
}

Result<sql::ResultSet> ShardedDatabase::Execute(
    const std::string& sql, const std::vector<types::Value>& params,
    uint64_t txn, uint64_t session_id, uint32_t deadline_ms) {
  return Route(sql, &params, nullptr, txn, session_id, deadline_ms);
}

Result<sql::ResultSet> ShardedDatabase::ExecuteNamed(
    const std::string& sql,
    const std::vector<std::pair<std::string, types::Value>>& params,
    uint64_t txn, uint64_t session_id, uint32_t deadline_ms) {
  return Route(sql, nullptr, &params, txn, session_id, deadline_ms);
}

Result<sql::ResultSet> ShardedDatabase::Route(
    const std::string& sql, const std::vector<types::Value>* positional,
    const std::vector<std::pair<std::string, types::Value>>* named,
    uint64_t txn, uint64_t session_id, uint32_t deadline_ms) {
  const RoutePlan* plan;
  AEDB_ASSIGN_OR_RETURN(plan, PlanFor(sql));

  // Pinned: the statement names its home warehouse.
  if (plan->pinned) {
    int64_t w;
    AEDB_ASSIGN_OR_RETURN(w, ResolveWarehouse(*plan, positional, named, sql));
    uint32_t s = ShardOfWarehouse(w);
    uint64_t local = 0;
    if (txn != 0) AEDB_ASSIGN_OR_RETURN(local, LocalTxnFor(txn, s));
    return RunOnShard(s, sql, positional, named, local, session_id,
                      deadline_ms);
  }

  // Reference-table read: every shard holds a full copy; one answer suffices.
  if (plan->reference_table && !plan->is_write) {
    uint32_t s = txn != 0 ? PreferredReadShard(txn, 0) : 0;
    uint64_t local = 0;
    if (txn != 0) AEDB_ASSIGN_OR_RETURN(local, LocalTxnFor(txn, s));
    return RunOnShard(s, sql, positional, named, local, session_id,
                      deadline_ms);
  }

  // Broadcast. Writes enlist every shard (reference-table maintenance, or a
  // partitioned statement with no pin — each shard touches only its rows).
  if (plan->is_write) {
    uint64_t gtid = txn;
    bool internal_txn = false;
    if (gtid == 0) {
      gtid = BeginTransaction();
      internal_txn = true;
    }
    sql::ResultSet last;
    for (uint32_t s = 0; s < options_.shards; ++s) {
      uint64_t local;
      {
        auto res = LocalTxnFor(gtid, s);
        if (!res.ok()) {
          if (internal_txn) (void)RollbackTransaction(gtid);
          return res.status();
        }
        local = *res;
      }
      auto res = RunOnShard(s, sql, positional, named, local, session_id,
                            deadline_ms);
      if (!res.ok()) {
        if (internal_txn) (void)RollbackTransaction(gtid);
        return res.status();
      }
      last = std::move(*res);
    }
    if (internal_txn) {
      Status st = CommitTransaction(gtid);
      if (!st.ok()) return st;
    }
    return last;
  }

  // Broadcast read over a partitioned table: fan out and merge.
  std::vector<sql::ResultSet> parts;
  for (uint32_t s = 0; s < options_.shards; ++s) {
    uint64_t local = 0;
    if (txn != 0) AEDB_ASSIGN_OR_RETURN(local, LocalTxnFor(txn, s));
    sql::ResultSet part;
    AEDB_ASSIGN_OR_RETURN(part, RunOnShard(s, sql, positional, named, local,
                                           session_id, deadline_ms));
    parts.push_back(std::move(part));
  }
  return MergeResults(*plan, std::move(parts));
}

Result<sql::ResultSet> ShardedDatabase::MergeResults(
    const RoutePlan& plan, std::vector<sql::ResultSet> parts) {
  if (parts.empty()) return sql::ResultSet{};
  if (plan.has_group_by) {
    return Status::NotSupported("cross-shard GROUP BY is not supported");
  }
  sql::ResultSet out = std::move(parts[0]);

  if (plan.has_agg) {
    // One aggregate row per shard; fold them column-wise.
    for (size_t p = 1; p < parts.size(); ++p) {
      if (parts[p].rows.empty()) continue;
      if (out.rows.empty()) {
        out.rows = std::move(parts[p].rows);
        continue;
      }
      std::vector<types::Value>& acc = out.rows[0];
      const std::vector<types::Value>& add = parts[p].rows[0];
      for (size_t c = 0; c < acc.size() && c < add.size(); ++c) {
        sql::AggFunc agg =
            c < plan.aggs.size() ? plan.aggs[c] : sql::AggFunc::kNone;
        if (add[c].is_null()) continue;
        if (acc[c].is_null()) {
          acc[c] = add[c];
          continue;
        }
        switch (agg) {
          case sql::AggFunc::kCount:
          case sql::AggFunc::kSum: {
            if (acc[c].type() == types::TypeId::kDouble ||
                add[c].type() == types::TypeId::kDouble) {
              acc[c] = types::Value::Double(acc[c].AsDouble() +
                                            add[c].AsDouble());
            } else {
              acc[c] = types::Value::Int64(acc[c].AsInt64() + add[c].AsInt64());
            }
            break;
          }
          case sql::AggFunc::kMin:
          case sql::AggFunc::kMax: {
            int cmp;
            AEDB_ASSIGN_OR_RETURN(cmp, acc[c].Compare(add[c]));
            bool take = agg == sql::AggFunc::kMin ? cmp > 0 : cmp < 0;
            if (take) acc[c] = add[c];
            break;
          }
          case sql::AggFunc::kAvg:
            return Status::NotSupported("cross-shard AVG is not supported");
          case sql::AggFunc::kNone:
            break;  // bare column next to an aggregate: keep shard 0's value
        }
      }
    }
    return out;
  }

  for (size_t p = 1; p < parts.size(); ++p) {
    for (auto& row : parts[p].rows) out.rows.push_back(std::move(row));
  }
  if (!plan.order_by.empty()) {
    int idx = -1;
    std::string want = BareColumn(plan.order_by);
    for (size_t c = 0; c < out.columns.size(); ++c) {
      if (BareColumn(out.columns[c]) == want) {
        idx = static_cast<int>(c);
        break;
      }
    }
    if (idx < 0) {
      return Status::NotSupported("cross-shard ORDER BY column not in output");
    }
    bool comparable = true;
    std::stable_sort(out.rows.begin(), out.rows.end(),
                     [&](const std::vector<types::Value>& a,
                         const std::vector<types::Value>& b) {
                       if (a[idx].is_null() || b[idx].is_null()) {
                         return a[idx].is_null() && !b[idx].is_null();
                       }
                       auto cmp = a[idx].Compare(b[idx]);
                       if (!cmp.ok()) {
                         comparable = false;
                         return false;
                       }
                       return plan.order_desc ? *cmp > 0 : *cmp < 0;
                     });
    if (!comparable) {
      return Status::NotSupported(
          "cross-shard ORDER BY over incomparable (encrypted) values");
    }
  }
  if (plan.limit >= 0 &&
      out.rows.size() > static_cast<size_t>(plan.limit)) {
    out.rows.resize(static_cast<size_t>(plan.limit));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Pass-throughs

Status ShardedDatabase::ExecuteDdl(const std::string& sql,
                                   uint64_t session_id) {
  // DDL replicates: every shard executes the same statement in the same
  // order, so catalogs (table/index/key ids) stay identical across shards.
  for (uint32_t s = 0; s < options_.shards; ++s) {
    AEDB_RETURN_IF_ERROR(Annotate(shards_[s]->ExecuteDdl(sql, session_id), s));
  }
  return Status::OK();
}

Status ShardedDatabase::ExecuteDdlOnShard(uint32_t shard,
                                          const std::string& sql,
                                          uint64_t session_id) {
  if (shard >= options_.shards) return Status::InvalidArgument("no such shard");
  return Annotate(shards_[shard]->ExecuteDdl(sql, session_id), shard);
}

Result<DescribeResult> ShardedDatabase::DescribeParameterEncryption(
    const std::string& sql, Slice client_dh_public) {
  return AnnotateResult(
      shards_[0]->DescribeParameterEncryption(sql, client_dh_public),
      0);
}

Result<KeyDescription> ShardedDatabase::GetKeyDescription(uint32_t cek_id) {
  return shards_[0]->GetKeyDescription(cek_id);
}

Result<DescribeResult> ShardedDatabase::Attest(Slice client_dh_public) {
  return AttestShard(0, client_dh_public);
}

Result<DescribeResult> ShardedDatabase::AttestShard(uint32_t shard,
                                                    Slice client_dh_public) {
  if (shard >= options_.shards) return Status::InvalidArgument("no such shard");
  return AnnotateResult(shards_[shard]->Attest(client_dh_public), shard);
}

Result<types::EncryptionType> ShardedDatabase::ColumnEncryption(
    const std::string& table, const std::string& column) {
  return shards_[0]->ColumnEncryption(table, column);
}

Status ShardedDatabase::AlterColumnMetadataForClientTool(
    const std::string& table, const std::string& column,
    const sql::EncryptionSpec& enc) {
  for (uint32_t s = 0; s < options_.shards; ++s) {
    AEDB_RETURN_IF_ERROR(
        Annotate(shards_[s]->AlterColumnMetadataForClientTool(table, column,
                                                              enc),
                 s));
  }
  return Status::OK();
}

Status ShardedDatabase::ForwardKeysToEnclave(uint64_t session_id,
                                             uint64_t nonce, Slice sealed) {
  return ForwardKeysToShard(0, session_id, nonce, sealed);
}

Status ShardedDatabase::ForwardKeysToShard(uint32_t shard, uint64_t session_id,
                                           uint64_t nonce, Slice sealed) {
  if (shard >= options_.shards) return Status::InvalidArgument("no such shard");
  return Annotate(
      shards_[shard]->ForwardKeysToEnclave(session_id, nonce, sealed), shard);
}

Status ShardedDatabase::ForwardEncryptionAuthorization(uint64_t session_id,
                                                       uint64_t nonce,
                                                       Slice sealed) {
  return ForwardAuthorizationToShard(0, session_id, nonce, sealed);
}

Status ShardedDatabase::ForwardAuthorizationToShard(uint32_t shard,
                                                    uint64_t session_id,
                                                    uint64_t nonce,
                                                    Slice sealed) {
  if (shard >= options_.shards) return Status::InvalidArgument("no such shard");
  return Annotate(
      shards_[shard]->ForwardEncryptionAuthorization(session_id, nonce,
                                                     sealed),
      shard);
}

sql::Catalog& ShardedDatabase::catalog() { return shards_[0]->catalog(); }

DatabaseStats ShardedDatabase::Stats() const {
  DatabaseStats out;
  for (const auto& shard : shards_) {
    DatabaseStats s = shard->Stats();
    out.enclave_calls += s.enclave_calls;
    out.enclave_evals += s.enclave_evals;
    out.enclave_comparisons += s.enclave_comparisons;
    out.enclave_transitions += s.enclave_transitions;
    out.queries_admitted += s.queries_admitted;
    out.queries_rejected += s.queries_rejected;
    out.queries_expired += s.queries_expired;
    out.lock_waits_expired += s.lock_waits_expired;
    out.lock_deadlocks += s.lock_deadlocks;
    out.pool_queue_highwater =
        std::max(out.pool_queue_highwater, s.pool_queue_highwater);
    out.pool_expired_dropped += s.pool_expired_dropped;
    out.pool_overload_rejected += s.pool_overload_rejected;
    out.recovery_ms += s.recovery_ms;
    out.wal_records_replayed += s.wal_records_replayed;
    out.torn_bytes_dropped += s.torn_bytes_dropped;
    out.checkpoints_taken += s.checkpoints_taken;
    out.wal_bytes += s.wal_bytes;
    out.fsyncs += s.fsyncs;
    out.wal_file_errors += s.wal_file_errors;
    out.pool_hits += s.pool_hits;
    out.pool_misses += s.pool_misses;
    out.pool_evictions += s.pool_evictions;
    out.pool_writebacks += s.pool_writebacks;
    out.pool_pinned_highwater =
        std::max(out.pool_pinned_highwater, s.pool_pinned_highwater);
    out.group_commit_batches += s.group_commit_batches;
    out.commit_sync_requests += s.commit_sync_requests;
  }
  out.fsyncs += decisions_->fsyncs() + fsyncs_.load(std::memory_order_relaxed);
  out.torn_bytes_dropped += decisions_->torn_bytes_dropped();
  out.wal_file_errors += decisions_->file_errors();
  if (out.enclave_transitions > 0) {
    out.values_per_transition =
        static_cast<double>(out.enclave_evals + out.enclave_comparisons) /
        static_cast<double>(out.enclave_transitions);
  }
  if (out.group_commit_batches > 0) {
    out.commits_per_fsync =
        static_cast<double>(out.commit_sync_requests) /
        static_cast<double>(out.group_commit_batches);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Lifecycle & recovery

Status ShardedDatabase::Open() {
  if (opened_) return Status::OK();
  AEDB_RETURN_IF_ERROR(
      storage::fsio::EnsureDir(*fs_, options_.base.data_dir, &fsyncs_));
  AEDB_RETURN_IF_ERROR(decisions_->Open());
  recovery_info_ = RecoveryInfo{};
  for (uint32_t s = 0; s < options_.shards; ++s) {
    AEDB_RETURN_IF_ERROR(Annotate(shards_[s]->Open(), s));
    const RecoveryInfo& ri = shards_[s]->recovery_info();
    recovery_info_.ran = recovery_info_.ran || ri.ran;
    recovery_info_.clean_shutdown =
        (s == 0 ? ri.clean_shutdown
                : recovery_info_.clean_shutdown && ri.clean_shutdown);
    recovery_info_.recovery_ms += ri.recovery_ms;
    recovery_info_.wal_records_replayed += ri.wal_records_replayed;
    recovery_info_.from_checkpoint_lsn =
        std::max(recovery_info_.from_checkpoint_lsn, ri.from_checkpoint_lsn);
    recovery_info_.ddl_statements_replayed += ri.ddl_statements_replayed;
    recovery_info_.engine.redone += ri.engine.redone;
    recovery_info_.engine.undone += ri.engine.undone;
    recovery_info_.engine.log_tail_records += ri.engine.log_tail_records;
    recovery_info_.engine.orphaned_records_skipped +=
        ri.engine.orphaned_records_skipped;
    for (const auto& d : ri.engine.in_doubt) {
      recovery_info_.engine.in_doubt.push_back(d);
    }
  }
  AEDB_RETURN_IF_ERROR(RecoverInDoubt());
  opened_ = true;
  return Status::OK();
}

Status ShardedDatabase::RecoverInDoubt() {
  // A torn tail is the expected shape of a coordinator crash mid-append: the
  // torn decision is not in the snapshot, so its gtid is presumed aborted.
  std::set<uint64_t> committed;
  std::vector<storage::LogRecord> decisions;
  AEDB_ASSIGN_OR_RETURN(decisions, decisions_->Snapshot());
  for (const storage::LogRecord& rec : decisions) {
    if (rec.type == storage::LogRecordType::kCommit) {
      committed.insert(rec.txn_id);
    }
  }
  for (uint32_t s = 0; s < options_.shards; ++s) {
    for (const storage::InDoubtTxn& t : shards_[s]->engine().InDoubtTxns()) {
      if (committed.count(t.gtid)) {
        AEDB_RETURN_IF_ERROR(
            Annotate(shards_[s]->engine().CommitPrepared(t.txn_id), s));
        continue;
      }
      // Presumed abort: no durable decision means the coordinator never
      // decided commit, so no participant can have committed.
      Status st = shards_[s]->RollbackTransaction(t.txn_id);
      if (!st.ok() && !st.IsNotFound()) return Annotate(st, s);
    }
  }
  // Every transaction is settled: no decision is needed any more. A rewrite
  // drops them, and lifts the poison a torn decision left.
  std::lock_guard<std::mutex> lock(decision_mu_);
  pending_decisions_.clear();
  if (committed.empty() && !decisions_->poisoned()) return Status::OK();
  return CompactDecisionsLocked();
}

Result<storage::RecoveryResult> ShardedDatabase::RestartShard(uint32_t i) {
  if (i >= options_.shards) return Status::InvalidArgument("no such shard");
  // Drop global txns enlisted on the crashing shard whose locals died with
  // it (their other participants roll back; prepared ones resolve via the
  // decision log).
  {
    std::lock_guard<std::mutex> lock(txn_mu_);
    for (auto it = gtxns_.begin(); it != gtxns_.end();) {
      if (it->second.locals.count(i)) {
        for (const auto& [shard, local] : it->second.locals) {
          if (shard != i) (void)shards_[shard]->RollbackTransaction(local);
        }
        it = gtxns_.erase(it);
      } else {
        ++it;
      }
    }
  }
  auto recovered = shards_[i]->Restart();
  // The reopened shard has a fresh lock manager: it rejoins the graph.
  shards_[i]->engine().locks().ShareWaitForGraph(graph_);
  return recovered;
}

Status ShardedDatabase::SyncWals() {
  Status first;
  for (uint32_t s = 0; s < options_.shards; ++s) {
    Status st = shards_[s]->engine().wal().Sync();
    if (!st.ok() && first.ok()) first = Annotate(st, s);
  }
  return first;
}

Status ShardedDatabase::Shutdown() {
  Status first;
  for (uint32_t s = 0; s < options_.shards; ++s) {
    Status st = shards_[s]->Shutdown();
    if (!st.ok() && first.ok()) first = Annotate(st, s);
  }
  return first;
}

}  // namespace aedb::server
