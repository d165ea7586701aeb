#include "storage/engine.h"

#include <algorithm>

#include "fault/fault.h"
#include "storage/sim_fs.h"

namespace aedb::storage {

namespace {

/// The records of a checkpoint base, which belong to no transaction.
bool IsBaseRecord(LogRecordType type) {
  return type == LogRecordType::kRewrite ||
         type == LogRecordType::kCheckpoint ||
         type == LogRecordType::kPageImage ||
         type == LogRecordType::kIndexEntries;
}

/// Loads a kIndexEntries record into `tree` (no comparator calls) and
/// returns the index's invalid flag.
Result<bool> LoadIndexEntries(const LogRecord& rec, BTree* tree) {
  const Bytes& payload = rec.payload1;
  if (payload.empty()) return Status::Corruption("empty index entries record");
  std::vector<std::pair<Bytes, Rid>> entries;
  for (size_t off = 1; off < payload.size();) {
    Bytes key;
    AEDB_ASSIGN_OR_RETURN(key, GetLengthPrefixed(payload, &off));
    uint64_t rid;
    AEDB_ASSIGN_OR_RETURN(rid, GetU64(payload, &off));
    entries.emplace_back(std::move(key), Rid::Decode(rid));
  }
  const bool invalid = payload[0] != 0;
  if (!invalid) AEDB_RETURN_IF_ERROR(tree->LoadSortedEntries(entries));
  return invalid;
}

}  // namespace

StorageEngine::StorageEngine(EngineOptions options, std::shared_ptr<Fs> fs,
                             const std::string& dir)
    : options_(options),
      fs_(fs != nullptr ? std::move(fs) : std::make_shared<SimFs>()),
      store_(fs_.get(), dir + "/pages"),
      pool_(std::make_unique<BufferPool>(&store_, options_.pool_pages)),
      wal_(fs_.get(), dir + "/wal.log") {
  if (options_.flush_interval_ms > 0) {
    pool_->StartFlusher(options_.flush_interval_ms);
  }
  wal_.set_group_commit_window_us(options_.group_commit_window_us);
}

Status StorageEngine::Open() {
  // The page store is a cache spill area, never a recovery source — recovery
  // rebuilds every page from the log, and object ids are assigned afresh
  // each process. Stale spill files from the previous incarnation
  // would alias the new ids, so wipe them before anything pins a page.
  AEDB_RETURN_IF_ERROR(store_.Wipe());
  return wal_.Open();
}

Status StorageEngine::CreateTable(uint32_t table_id) {
  std::lock_guard<std::mutex> lock(meta_mu_);
  auto state = std::make_unique<TableState>();
  state->heap = std::make_unique<HeapTable>(pool_.get());
  auto [it, inserted] = tables_.emplace(table_id, std::move(state));
  (void)it;
  if (!inserted) return Status::AlreadyExists("table id exists");
  return Status::OK();
}

Status StorageEngine::CreateIndex(uint32_t index_id, uint32_t table_id,
                                  std::unique_ptr<Comparator> comparator,
                                  bool unique) {
  std::lock_guard<std::mutex> lock(meta_mu_);
  if (tables_.count(table_id) == 0) return Status::NotFound("no such table");
  if (indexes_.count(index_id) > 0) return Status::AlreadyExists("index id exists");
  auto state = std::make_unique<IndexState>();
  state->table_id = table_id;
  state->unique = unique;
  state->comparator = std::move(comparator);
  state->tree =
      std::make_unique<BTree>(state->comparator.get(), unique, pool_.get());
  indexes_.emplace(index_id, std::move(state));
  return Status::OK();
}

Status StorageEngine::DropIndex(uint32_t index_id) {
  std::lock_guard<std::mutex> lock(meta_mu_);
  if (indexes_.erase(index_id) == 0) return Status::NotFound("no such index");
  return Status::OK();
}

HeapTable* StorageEngine::table(uint32_t table_id) {
  std::lock_guard<std::mutex> lock(meta_mu_);
  auto it = tables_.find(table_id);
  return it == tables_.end() ? nullptr : it->second->heap.get();
}

BTree* StorageEngine::index_tree(uint32_t index_id) {
  std::lock_guard<std::mutex> lock(meta_mu_);
  auto it = indexes_.find(index_id);
  return it == indexes_.end() ? nullptr : it->second->tree.get();
}

std::vector<uint32_t> StorageEngine::TableIds() const {
  std::lock_guard<std::mutex> lock(meta_mu_);
  std::vector<uint32_t> out;
  for (const auto& [id, t] : tables_) out.push_back(id);
  return out;
}

std::vector<uint32_t> StorageEngine::IndexIds() const {
  std::lock_guard<std::mutex> lock(meta_mu_);
  std::vector<uint32_t> out;
  for (const auto& [id, idx] : indexes_) out.push_back(id);
  return out;
}

const Comparator* StorageEngine::index_comparator(uint32_t index_id) const {
  const IndexState* index = FindIndexConst(index_id);
  return index == nullptr ? nullptr : index->comparator.get();
}

const StorageEngine::IndexState* StorageEngine::FindIndexConst(
    uint32_t index_id) const {
  std::lock_guard<std::mutex> lock(meta_mu_);
  auto it = indexes_.find(index_id);
  return it == indexes_.end() ? nullptr : it->second.get();
}

Status StorageEngine::CheckIndexUsable(uint32_t index_id) const {
  const IndexState* index = FindIndexConst(index_id);
  if (index == nullptr) return Status::NotFound("no such index");
  if (index->invalid) {
    return Status::FailedPrecondition("index is invalid (was invalidated "
                                      "during recovery); rebuild it");
  }
  if (index->rebuild_pending) {
    return Status::FailedPrecondition(
        "index awaits recovery: enclave keys missing");
  }
  return Status::OK();
}

bool StorageEngine::IndexInvalid(uint32_t index_id) const {
  const IndexState* index = FindIndexConst(index_id);
  return index != nullptr && index->invalid;
}

Result<StorageEngine::TableState*> StorageEngine::FindTable(uint32_t table_id) {
  std::lock_guard<std::mutex> lock(meta_mu_);
  auto it = tables_.find(table_id);
  if (it == tables_.end()) return Status::NotFound("no such table");
  return it->second.get();
}

Result<StorageEngine::IndexState*> StorageEngine::FindIndex(uint32_t index_id) {
  std::lock_guard<std::mutex> lock(meta_mu_);
  auto it = indexes_.find(index_id);
  if (it == indexes_.end()) return Status::NotFound("no such index");
  return it->second.get();
}

// ---------------------------------------------------------------------------
// Transactions

StorageEngine::Finalizer::~Finalizer() {
  std::lock_guard<std::mutex> lock(engine->meta_mu_);
  --engine->finalizing_;
  engine->meta_cv_.notify_all();
}

uint64_t StorageEngine::Begin(uint64_t gtid) {
  uint64_t id;
  {
    std::unique_lock<std::mutex> lock(meta_mu_);
    // A checkpoint capture holds the engine quiescent; new transactions wait
    // out the (bounded) capture instead of failing.
    meta_cv_.wait(lock, [this] { return !checkpoint_pending_; });
    id = next_txn_id_++;
    active_.emplace(id, ActiveTxn{});
  }
  if (gtid != 0) locks_.Enlist(id, gtid);
  // Nothing is logged: recovery finds a transaction from its op records.
  return id;
}

Status StorageEngine::Commit(uint64_t txn_id) {
  std::vector<LogRecord> ops;
  {
    std::lock_guard<std::mutex> lock(meta_mu_);
    auto it = active_.find(txn_id);
    if (it == active_.end()) return Status::NotFound("unknown txn");
    if (it->second.prepared) {
      // A prepared txn belongs to a 2PC coordinator; a plain Commit would
      // bypass the decision protocol.
      return Status::FailedPrecondition("txn is prepared; use CommitPrepared");
    }
    ops = std::move(it->second.ops);
    active_.erase(it);
    // Between this erase and the commit record becoming durable the txn is
    // invisible to active_ but its outcome is still open; finalizing_ keeps
    // checkpoints from capturing that window.
    ++finalizing_;
  }
  Finalizer finalizer{this};
  // WAL rule: append the commit record, THEN fsync — the one Sync makes the
  // data records and the commit record durable together, so an acked commit
  // survives power loss, not just process death (a record sitting in the OS
  // page cache outlives kill -9 but not the machine). On a failure at either
  // step the in-memory effects are undone so runtime state matches what
  // recovery rebuilds when the log can say so. A refused or torn append
  // leaves no kCommit in the log (a torn one is cut off): the txn aborted.
  // If the append landed but the sync failed, the abort's compensation
  // records and kAbort follow kCommit, and redo replays the txn to net
  // zero — unless the log refuses them: a real fsync error poisons it, and
  // so does a tear in a compensation record. Recovery then finds kCommit
  // and replays the txn as committed, so the caller is told the outcome is
  // unknown (kUnavailable), never that the txn aborted.
  LogRecord rec;
  rec.txn_id = txn_id;
  rec.type = LogRecordType::kCommit;
  // SyncUpTo is the group-commit barrier: one leader's fsync covers every
  // concurrent committer whose record is already appended, but each ack
  // still waits for a covering sync — the durability contract is unchanged.
  auto appended = wal_.Append(rec);
  Status durable = appended.status();
  if (durable.ok()) durable = wal_.SyncUpTo(*appended);
  if (!durable.ok()) {
    {
      std::lock_guard<std::mutex> lock(meta_mu_);
      active_.emplace(txn_id, ActiveTxn{std::move(ops)});
    }
    (void)Abort(txn_id);
    if (appended.ok()) {
      return Status::Unavailable("commit outcome unknown: " +
                                 durable.message());
    }
    return Status::TransactionAborted("commit not durable: " +
                                      durable.message());
  }
  locks_.ReleaseAll(txn_id);
  return Status::OK();
}

Status StorageEngine::Prepare(uint64_t txn_id, uint64_t gtid) {
  {
    std::lock_guard<std::mutex> lock(meta_mu_);
    auto it = active_.find(txn_id);
    if (it == active_.end()) return Status::NotFound("unknown txn");
    if (it->second.prepared) {
      return Status::FailedPrecondition("txn already prepared");
    }
  }
  // Same WAL rule as Commit: append then fsync, so the data records and the
  // vote become durable together. After OK every effect of this txn survives
  // a crash and CommitPrepared is guaranteed to be able to finish it.
  LogRecord rec;
  rec.txn_id = txn_id;
  rec.type = LogRecordType::kPrepare;
  PutU64(&rec.payload1, gtid);
  auto appended = wal_.Append(rec);
  Status durable = appended.status();
  if (durable.ok()) durable = wal_.SyncUpTo(*appended);
  if (!durable.ok()) {
    // The vote never became durable: this participant votes NO. Roll the txn
    // back so runtime state matches what recovery would rebuild (a kPrepare
    // that landed without its fsync is followed by the abort's CLRs+kAbort,
    // which recovery treats as a settled loser; if a real fsync error
    // poisoned the log, recovery finds the txn in doubt, and presumed abort
    // settles it).
    (void)Abort(txn_id);
    return Status::TransactionAborted("prepare not durable: " +
                                      durable.message());
  }
  std::lock_guard<std::mutex> lock(meta_mu_);
  auto it = active_.find(txn_id);
  if (it == active_.end()) {
    return Status::NotFound("txn vanished during prepare");
  }
  it->second.prepared = true;
  it->second.gtid = gtid;
  return Status::OK();
}

Status StorageEngine::CommitPrepared(uint64_t txn_id) {
  std::vector<LogRecord> ops;
  uint64_t gtid = 0;
  {
    std::lock_guard<std::mutex> lock(meta_mu_);
    auto it = active_.find(txn_id);
    if (it == active_.end()) return Status::NotFound("unknown txn");
    if (!it->second.prepared) {
      return Status::FailedPrecondition("txn not prepared");
    }
    ops = std::move(it->second.ops);
    gtid = it->second.gtid;
    active_.erase(it);
    ++finalizing_;
  }
  Finalizer finalizer{this};
  LogRecord rec;
  rec.txn_id = txn_id;
  rec.type = LogRecordType::kCommit;
  auto appended = wal_.Append(rec);
  Status durable = appended.status();
  if (durable.ok()) durable = wal_.SyncUpTo(*appended);
  if (!durable.ok()) {
    // The coordinator's COMMIT decision is already durable — aborting here
    // would break atomicity with the other participants. Re-park the txn as
    // prepared (locks are still held) so a retry or the next recovery can
    // finish the commit, and surface the durability error as-is.
    std::lock_guard<std::mutex> lock(meta_mu_);
    ActiveTxn txn;
    txn.ops = std::move(ops);
    txn.prepared = true;
    txn.gtid = gtid;
    active_.emplace(txn_id, std::move(txn));
    return durable;
  }
  locks_.ReleaseAll(txn_id);
  return Status::OK();
}

std::vector<InDoubtTxn> StorageEngine::InDoubtTxns() const {
  std::lock_guard<std::mutex> lock(meta_mu_);
  std::vector<InDoubtTxn> out;
  for (const auto& [id, txn] : active_) {
    if (txn.prepared) out.push_back(InDoubtTxn{id, txn.gtid});
  }
  return out;
}

Status StorageEngine::UndoRecord(const LogRecord& rec, bool* logged) {
  // Every applied undo is logged as a compensation record (CLR) of the
  // opposite type under the same txn id, so the WAL replays history in the
  // exact order it happened. A txn whose kAbort made it to the log is fully
  // compensated in-log and needs no recovery-time undo; a crash mid-abort
  // leaves a loser whose [ops..., CLRs...] suffix self-cancels under reverse
  // replay. A CLR that fails to append (a poisoned log refuses them all)
  // only means no kAbort may follow: the txn stays a loser in the log, and
  // recovery undoes what the missing CLRs did not record.
  auto clr = [&](LogRecordType type) -> Status {
    LogRecord comp;
    comp.txn_id = rec.txn_id;
    comp.type = type;
    comp.object_id = rec.object_id;
    comp.rid = rec.rid;
    comp.payload1 = rec.payload1;
    if (!wal_.Append(comp).ok()) *logged = false;
    return Status::OK();
  };
  switch (rec.type) {
    case LogRecordType::kHeapInsert: {
      TableState* t;
      AEDB_ASSIGN_OR_RETURN(t, FindTable(rec.object_id));
      std::lock_guard<std::mutex> latch(t->latch);
      AEDB_RETURN_IF_ERROR(t->heap->Delete(rec.rid));
      return clr(LogRecordType::kHeapDelete);
    }
    case LogRecordType::kHeapDelete: {
      TableState* t;
      AEDB_ASSIGN_OR_RETURN(t, FindTable(rec.object_id));
      std::lock_guard<std::mutex> latch(t->latch);
      AEDB_RETURN_IF_ERROR(t->heap->Resurrect(rec.rid));
      return clr(LogRecordType::kHeapResurrect);
    }
    case LogRecordType::kHeapResurrect: {
      // Undoing a replayed CLR (reverse replay of a crash-mid-abort loser).
      TableState* t;
      AEDB_ASSIGN_OR_RETURN(t, FindTable(rec.object_id));
      std::lock_guard<std::mutex> latch(t->latch);
      AEDB_RETURN_IF_ERROR(t->heap->Delete(rec.rid));
      return clr(LogRecordType::kHeapDelete);
    }
    case LogRecordType::kIndexInsert: {
      // Logical undo: navigate the tree and delete the entry (§4.5).
      IndexState* idx;
      AEDB_ASSIGN_OR_RETURN(idx, FindIndex(rec.object_id));
      std::lock_guard<std::mutex> latch(idx->latch);
      AEDB_RETURN_IF_ERROR(idx->tree->Delete(rec.payload1, rec.rid).status());
      return clr(LogRecordType::kIndexDelete);
    }
    case LogRecordType::kIndexDelete: {
      IndexState* idx;
      AEDB_ASSIGN_OR_RETURN(idx, FindIndex(rec.object_id));
      std::lock_guard<std::mutex> latch(idx->latch);
      AEDB_RETURN_IF_ERROR(idx->tree->Insert(rec.payload1, rec.rid).status());
      return clr(LogRecordType::kIndexInsert);
    }
    default:
      return Status::OK();
  }
}

size_t StorageEngine::TxnOpCount(uint64_t txn_id) const {
  std::lock_guard<std::mutex> lock(meta_mu_);
  auto it = active_.find(txn_id);
  return it == active_.end() ? 0 : it->second.ops.size();
}

Status StorageEngine::Abort(uint64_t txn_id) {
  std::vector<LogRecord> ops;
  {
    std::lock_guard<std::mutex> lock(meta_mu_);
    auto it = active_.find(txn_id);
    if (it == active_.end()) return Status::NotFound("unknown txn");
    ops = std::move(it->second.ops);
    active_.erase(it);
    ++finalizing_;  // undo in flight: block checkpoint capture until done
  }
  Finalizer finalizer{this};
  // The undo of one executor-level row update spans several records (index
  // delete, heap delete/insert, index insert). Readers collect candidates
  // under the tables' statement latches, so undo holds those same latches —
  // every touched table's, in id order — for the whole reverse pass;
  // otherwise a probe could land mid-undo and miss a row that logically
  // never stopped existing.
  std::vector<std::shared_mutex*> stmt_latches;
  {
    std::lock_guard<std::mutex> lock(meta_mu_);
    std::set<uint32_t> touched;
    for (const LogRecord& rec : ops) {
      switch (rec.type) {
        case LogRecordType::kHeapInsert:
        case LogRecordType::kHeapDelete:
        case LogRecordType::kHeapResurrect:
          touched.insert(rec.object_id);
          break;
        case LogRecordType::kIndexInsert:
        case LogRecordType::kIndexDelete: {
          auto it = indexes_.find(rec.object_id);
          if (it != indexes_.end()) touched.insert(it->second->table_id);
          break;
        }
        default:
          break;
      }
    }
    for (uint32_t tid : touched) {
      auto it = tables_.find(tid);
      if (it != tables_.end()) stmt_latches.push_back(&it->second->stmt_latch);
    }
  }
  std::vector<std::unique_lock<std::shared_mutex>> stmt_held;
  stmt_held.reserve(stmt_latches.size());
  for (std::shared_mutex* m : stmt_latches) stmt_held.emplace_back(*m);
  DeferredTxn deferred;
  deferred.txn_id = txn_id;
  for (auto it = ops.rbegin(); it != ops.rend(); ++it) {
    Status st = UndoRecord(*it, &deferred.logged);
    if (st.IsKeyNotInEnclave()) {
      deferred.pending.push_back(*it);
      deferred.pending_indexes.insert(it->object_id);
      continue;
    }
    // NotFound from index undo of a never-applied op is benign.
    if (!st.ok() && !st.IsNotFound()) return st;
  }
  if (!deferred.pending.empty()) {
    std::lock_guard<std::mutex> lock(meta_mu_);
    for (uint32_t idx_id : deferred.pending_indexes) {
      auto it = indexes_.find(idx_id);
      if (it != indexes_.end()) it->second->rebuild_pending = true;
    }
    deferred_.push_back(std::move(deferred));
    if (options_.constant_time_recovery) locks_.ReleaseAll(txn_id);
    // Without CTR the deferred transaction keeps its locks (§4.5).
    return Status::OK();
  }
  FinishDeferred(deferred);  // nothing was deferred: finish now
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Logged mutations

Result<Rid> StorageEngine::HeapInsert(uint64_t txn_id, uint32_t table_id,
                                      Slice record) {
  TableState* t;
  AEDB_ASSIGN_OR_RETURN(t, FindTable(table_id));
  LogRecord rec;
  rec.txn_id = txn_id;
  rec.type = LogRecordType::kHeapInsert;
  rec.object_id = table_id;
  rec.payload1 = record.ToBytes();
  Rid rid;
  {
    // The latch spans apply + log so replay order matches apply order and
    // redo reproduces RIDs exactly (checked during recovery).
    std::lock_guard<std::mutex> latch(t->latch);
    AEDB_ASSIGN_OR_RETURN(rid, t->heap->Insert(record));
    rec.rid = rid;
    Status logged = wal_.Append(rec).status();
    if (!logged.ok()) {
      // Not logged => never happened: undo the apply before reporting.
      (void)t->heap->Delete(rid);
      return logged;
    }
  }
  std::lock_guard<std::mutex> lock(meta_mu_);
  auto it = active_.find(txn_id);
  if (it == active_.end()) return Status::NotFound("unknown txn");
  it->second.ops.push_back(std::move(rec));
  return rid;
}

Status StorageEngine::HeapDelete(uint64_t txn_id, uint32_t table_id,
                                 const Rid& rid) {
  TableState* t;
  AEDB_ASSIGN_OR_RETURN(t, FindTable(table_id));
  LogRecord rec;
  rec.txn_id = txn_id;
  rec.type = LogRecordType::kHeapDelete;
  rec.object_id = table_id;
  rec.rid = rid;
  {
    std::lock_guard<std::mutex> latch(t->latch);
    Bytes old;
    AEDB_ASSIGN_OR_RETURN(old, t->heap->Read(rid));
    rec.payload1 = std::move(old);
    AEDB_RETURN_IF_ERROR(t->heap->Delete(rid));
    Status logged = wal_.Append(rec).status();
    if (!logged.ok()) {
      (void)t->heap->Resurrect(rid);
      return logged;
    }
  }
  std::lock_guard<std::mutex> lock(meta_mu_);
  auto it = active_.find(txn_id);
  if (it == active_.end()) return Status::NotFound("unknown txn");
  it->second.ops.push_back(std::move(rec));
  return Status::OK();
}

Status StorageEngine::IndexInsert(uint64_t txn_id, uint32_t index_id,
                                  const Bytes& key, const Rid& rid) {
  AEDB_RETURN_IF_ERROR(CheckIndexUsable(index_id));
  IndexState* idx;
  AEDB_ASSIGN_OR_RETURN(idx, FindIndex(index_id));
  LogRecord rec;
  rec.txn_id = txn_id;
  rec.type = LogRecordType::kIndexInsert;
  rec.object_id = index_id;
  rec.rid = rid;
  rec.payload1 = key;
  {
    std::lock_guard<std::mutex> latch(idx->latch);
    bool inserted;
    AEDB_ASSIGN_OR_RETURN(inserted, idx->tree->Insert(key, rid));
    if (!inserted) {
      return Status::AlreadyExists("unique index key violation");
    }
    Status logged = wal_.Append(rec).status();
    if (!logged.ok()) {
      (void)idx->tree->Delete(key, rid);
      return logged;
    }
  }
  std::lock_guard<std::mutex> lock(meta_mu_);
  auto it = active_.find(txn_id);
  if (it == active_.end()) return Status::NotFound("unknown txn");
  it->second.ops.push_back(std::move(rec));
  return Status::OK();
}

Status StorageEngine::IndexDelete(uint64_t txn_id, uint32_t index_id,
                                  const Bytes& key, const Rid& rid) {
  AEDB_RETURN_IF_ERROR(CheckIndexUsable(index_id));
  IndexState* idx;
  AEDB_ASSIGN_OR_RETURN(idx, FindIndex(index_id));
  LogRecord rec;
  rec.txn_id = txn_id;
  rec.type = LogRecordType::kIndexDelete;
  rec.object_id = index_id;
  rec.rid = rid;
  rec.payload1 = key;
  {
    std::lock_guard<std::mutex> latch(idx->latch);
    bool removed;
    AEDB_ASSIGN_OR_RETURN(removed, idx->tree->Delete(key, rid));
    if (!removed) return Status::NotFound("index entry not found");
    Status logged = wal_.Append(rec).status();
    if (!logged.ok()) {
      (void)idx->tree->Insert(key, rid);
      return logged;
    }
  }
  std::lock_guard<std::mutex> lock(meta_mu_);
  auto it = active_.find(txn_id);
  if (it == active_.end()) return Status::NotFound("unknown txn");
  it->second.ops.push_back(std::move(rec));
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Locking

Status StorageEngine::LockRow(uint64_t txn_id, uint32_t table_id,
                              const Rid& rid) {
  return locks_.Acquire(txn_id, RowResource(table_id, rid.Encode()),
                        options_.lock_timeout, QueryContext::Current());
}

Status StorageEngine::LockTable(uint64_t txn_id, uint32_t table_id) {
  return locks_.Acquire(txn_id, TableResource(table_id), options_.lock_timeout,
                        QueryContext::Current());
}

std::shared_mutex* StorageEngine::StatementLatch(uint32_t table_id) {
  auto found = FindTable(table_id);
  if (!found.ok()) return nullptr;
  return &(*found)->stmt_latch;
}

// ---------------------------------------------------------------------------
// Checkpointing

Status StorageEngine::Checkpoint(std::chrono::milliseconds wait) {
  std::unique_lock<std::mutex> lock(meta_mu_);
  if (checkpoint_pending_) {
    return Status::FailedPrecondition("checkpoint already in progress");
  }
  checkpoint_pending_ = true;  // park new Begin() calls while we quiesce
  bool quiet = meta_cv_.wait_for(
      lock, wait, [this] { return active_.empty() && finalizing_ == 0; });
  Status st;
  if (!quiet) {
    st = Status::FailedPrecondition("checkpoint: transactions still in flight");
  } else if (!deferred_.empty()) {
    // Deferred undo debt references records the rewrite would replace: it
    // would bake loser effects whose undo info is then gone.
    st = Status::FailedPrecondition(
        "checkpoint blocked: deferred transactions pin the log (§4.5)");
  } else {
    for (const auto& [id, idx] : indexes_) {
      if (idx->rebuild_pending) {
        st = Status::FailedPrecondition(
            "checkpoint blocked: index rebuild pending (enclave keys missing)");
        break;
      }
    }
  }
  // Crash-point: quiesced, before anything touches disk.
  if (st.ok()) st = AEDB_FAULT_POINT("ckpt/pre_write");
  // Nothing appends to the log until Begin() is let through again, so the
  // rewrite loses no record and needs no LSN horizon.
  if (st.ok()) {
    st = wal_.Rewrite([this](const Wal::RecordSink& put) {
      return WriteBase(put);
    });
  }
  checkpoint_pending_ = false;
  meta_cv_.notify_all();
  return st;
}

Status StorageEngine::WriteBase(const Wal::RecordSink& put) {
  LogRecord first;
  first.type = LogRecordType::kCheckpoint;
  PutU64(&first.payload1, next_txn_id_);
  AEDB_RETURN_IF_ERROR(put(std::move(first)));
  for (const auto& [id, t] : tables_) {
    for (size_t p = 0; p < t->heap->page_count(); ++p) {
      LogRecord page;
      page.type = LogRecordType::kPageImage;
      page.object_id = id;
      page.rid.page = static_cast<uint32_t>(p);
      AEDB_RETURN_IF_ERROR(t->heap->WithPageRaw(
          p, [&page](Slice image) { page.payload1 = image.ToBytes(); }));
      AEDB_RETURN_IF_ERROR(put(std::move(page)));
    }
  }
  for (const auto& [id, idx] : indexes_) {
    LogRecord entries;
    entries.type = LogRecordType::kIndexEntries;
    entries.object_id = id;
    entries.payload1.push_back(idx->invalid ? 1 : 0);
    // Walking the tree needs no comparator calls, so this works for encrypted
    // range indexes regardless of what keys the enclave currently holds.
    for (BTree::Iterator it = idx->tree->Begin(); it.Valid(); it.Next()) {
      auto key = it.key();
      if (!key.ok()) return key.status();
      PutLengthPrefixed(&entries.payload1, *key);
      PutU64(&entries.payload1, it.rid().Encode());
    }
    AEDB_RETURN_IF_ERROR(put(std::move(entries)));
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Recovery

Result<RecoveryResult> StorageEngine::Recover() {
  locks_.Clear();
  // meta_mu_ stays held through the redo scan, so the log's mutex is taken
  // inside it, as in Checkpoint, and never the other way round.
  std::unique_lock<std::mutex> meta(meta_mu_);
  active_.clear();
  deferred_.clear();
  for (auto& [id, t] : tables_) t->heap->Clear();
  for (auto& [id, idx] : indexes_) {
    idx->tree->Clear();
    idx->rebuild_pending = false;
  }
  auto table = [this](uint32_t id) -> TableState* {
    auto it = tables_.find(id);
    return it == tables_.end() ? nullptr : it->second.get();
  };
  auto index = [this](uint32_t id) -> IndexState* {
    auto it = indexes_.find(id);
    return it == indexes_.end() ? nullptr : it->second.get();
  };

  // The log is scanned, never held whole: one pass analyses and redoes,
  // and a second collects the losers' records when there are any.
  RecoveryResult result;
  std::set<uint64_t> committed;
  std::set<uint64_t> aborted;
  std::set<uint64_t> seen;
  // Txns whose durable kPrepare has no decision record yet: 2PC in-doubt.
  // (A later kCommit/kAbort settles them like any other txn.)
  std::map<uint64_t, uint64_t> prepared_gtid;  // txn_id -> gtid
  AEDB_RETURN_IF_ERROR(wal_.Scan([&](LogRecord rec) -> Status {
    // Only a rewrite's first frame is a kRewrite.
    if (rec.type == LogRecordType::kRewrite) {
      result.from_checkpoint_lsn = rec.lsn;
    }
    if (!IsBaseRecord(rec.type)) {
      ++result.log_tail_records;
      seen.insert(rec.txn_id);
      if (rec.type == LogRecordType::kCommit) committed.insert(rec.txn_id);
      // kAbort is only logged once an abort's undo fully applied — and every
      // undone op logged its compensation record — so redo alone restores
      // the txn to net zero; it needs no recovery-time undo.
      if (rec.type == LogRecordType::kAbort) aborted.insert(rec.txn_id);
      if (rec.type == LogRecordType::kPrepare) {
        size_t off = 0;
        auto gtid = GetU64(rec.payload1, &off);
        prepared_gtid[rec.txn_id] = gtid.ok() ? *gtid : 0;
      }
    }

    // --- Redo: restore the base, then replay everything after it in LSN
    // order (winners and losers, mirroring physical redo of page images),
    // which needs nothing from the analysis. An encrypted index whose
    // comparator cannot run (CEK not in enclave) flips to rebuild-pending.
    AEDB_RETURN_IF_ERROR(AEDB_FAULT_POINT("recovery/replay"));
    switch (rec.type) {
      case LogRecordType::kCheckpoint: {
        size_t off = 0;
        uint64_t next;
        AEDB_ASSIGN_OR_RETURN(next, GetU64(rec.payload1, &off));
        next_txn_id_ = std::max(next_txn_id_, next);
        break;
      }
      case LogRecordType::kPageImage: {
        TableState* t = table(rec.object_id);
        if (t == nullptr) {
          return Status::Corruption("checkpoint base references unknown table");
        }
        AEDB_RETURN_IF_ERROR(t->heap->RestorePage(rec.rid.page, rec.payload1));
        break;
      }
      case LogRecordType::kIndexEntries: {
        IndexState* idx = index(rec.object_id);
        if (idx == nullptr) break;  // index dropped after the checkpoint
        bool invalid;
        AEDB_ASSIGN_OR_RETURN(invalid, LoadIndexEntries(rec, idx->tree.get()));
        idx->invalid = idx->invalid || invalid;
        break;
      }
      case LogRecordType::kHeapInsert: {
        // An unknown table is an orphan (DDL that never reached its journal
        // commit marker), not corruption: skip its records like index redo
        // skips dropped indexes, instead of failing Open() forever.
        TableState* t = table(rec.object_id);
        if (t == nullptr) {
          ++result.orphaned_records_skipped;
          break;
        }
        Rid rid;
        AEDB_ASSIGN_OR_RETURN(rid, t->heap->Insert(rec.payload1));
        if (!(rid == rec.rid)) {
          return Status::Corruption("redo produced a different RID");
        }
        ++result.redone;
        break;
      }
      case LogRecordType::kHeapDelete: {
        TableState* t = table(rec.object_id);
        if (t == nullptr) {
          ++result.orphaned_records_skipped;
          break;
        }
        AEDB_RETURN_IF_ERROR(t->heap->Delete(rec.rid));
        ++result.redone;
        break;
      }
      case LogRecordType::kHeapResurrect: {
        // A logged compensation: some abort brought this slot back to life
        // at exactly this point of history.
        TableState* t = table(rec.object_id);
        if (t == nullptr) {
          ++result.orphaned_records_skipped;
          break;
        }
        AEDB_RETURN_IF_ERROR(t->heap->Resurrect(rec.rid));
        ++result.redone;
        break;
      }
      case LogRecordType::kIndexInsert:
      case LogRecordType::kIndexDelete: {
        IndexState* idx = index(rec.object_id);
        if (idx == nullptr) break;  // index dropped since
        if (idx->invalid || idx->rebuild_pending) break;
        Status st;
        if (rec.type == LogRecordType::kIndexInsert) {
          st = idx->tree->Insert(rec.payload1, rec.rid).status();
        } else {
          st = idx->tree->Delete(rec.payload1, rec.rid).status();
        }
        if (st.IsKeyNotInEnclave()) {
          idx->rebuild_pending = true;
          idx->tree->Clear();
          break;
        }
        AEDB_RETURN_IF_ERROR(st);
        ++result.redone;
        break;
      }
      default:
        break;
    }
    return Status::OK();
  }));
  if (!seen.empty()) next_txn_id_ = std::max(next_txn_id_, *seen.rbegin() + 1);
  meta.unlock();

  // --- Undo phase: losers (no commit record) are rolled back in reverse.
  // Heap undo is always possible. Index undo on a rebuild-pending index is
  // covered by the eventual rebuild, but the transaction becomes deferred —
  // holding its row locks unless constant-time recovery is on (§4.5).
  // In-doubt txns (durable kPrepare, no decision) are NOT losers: their vote
  // promised the coordinator they can still commit. They are excluded from
  // undo and re-registered below as active+prepared with row locks re-held.
  auto settled = [&](uint64_t txn_id) {
    return committed.count(txn_id) > 0 || aborted.count(txn_id) > 0;
  };
  std::map<uint64_t, std::vector<LogRecord>> in_doubt_ops;
  std::map<uint64_t, std::vector<LogRecord>> loser_ops;
  if (!std::all_of(seen.begin(), seen.end(), settled)) {
    AEDB_RETURN_IF_ERROR(wal_.Scan([&](LogRecord rec) {
      if (settled(rec.txn_id)) return Status::OK();
      if (IsBaseRecord(rec.type) || rec.type == LogRecordType::kBegin ||
          rec.type == LogRecordType::kAbort ||
          rec.type == LogRecordType::kCommit ||
          rec.type == LogRecordType::kPrepare) {
        return Status::OK();
      }
      if (prepared_gtid.count(rec.txn_id)) {
        in_doubt_ops[rec.txn_id].push_back(std::move(rec));
        return Status::OK();
      }
      // A crash mid-abort leaves [ops..., CLRs...] with no kAbort: reverse
      // replay first re-applies the original ops (undoing each CLR), then
      // undoes the ops themselves — self-canceling to net zero.
      loser_ops[rec.txn_id].push_back(std::move(rec));
      return Status::OK();
    }));
  }
  for (auto& [txn_id, ops] : loser_ops) {
    DeferredTxn deferred;
    deferred.txn_id = txn_id;
    std::set<uint64_t> touched_rows;
    for (auto it = ops.rbegin(); it != ops.rend(); ++it) {
      const LogRecord& rec = *it;
      if (rec.type == LogRecordType::kHeapInsert ||
          rec.type == LogRecordType::kHeapDelete ||
          rec.type == LogRecordType::kHeapResurrect) {
        touched_rows.insert(RowResource(rec.object_id, rec.rid.Encode()));
      }
      if (rec.type == LogRecordType::kIndexInsert ||
          rec.type == LogRecordType::kIndexDelete) {
        auto found = FindIndex(rec.object_id);
        if (!found.ok()) continue;
        if ((*found)->invalid) continue;
        if ((*found)->rebuild_pending) {
          deferred.pending.push_back(rec);
          deferred.pending_indexes.insert(rec.object_id);
          continue;
        }
      }
      Status st = UndoRecord(rec, &deferred.logged);
      if (st.IsKeyNotInEnclave()) {
        deferred.pending.push_back(rec);
        deferred.pending_indexes.insert(rec.object_id);
        continue;
      }
      if (!st.ok() && !st.IsNotFound()) return st;
      ++result.undone;
    }
    if (!deferred.pending.empty()) {
      result.deferred_txns.push_back(txn_id);
      if (!options_.constant_time_recovery) {
        for (uint64_t resource : touched_rows) {
          AEDB_RETURN_IF_ERROR(
              locks_.Acquire(txn_id, resource, std::chrono::milliseconds(0)));
        }
      }
      std::lock_guard<std::mutex> lock(meta_mu_);
      deferred_.push_back(std::move(deferred));
    } else if (deferred.logged) {
      LogRecord abort;
      abort.txn_id = txn_id;
      abort.type = LogRecordType::kAbort;
      (void)wal_.Append(abort);
    }
  }

  // --- In-doubt phase: re-register each prepared-undecided txn as active and
  // prepared, with its op list rebuilt from the log (a prepared txn pins
  // checkpoints, so every one of its records follows the base) and its row
  // locks re-acquired — exactly the state the coordinator's decision needs to
  // finish via CommitPrepared or Abort.
  for (const auto& [txn_id, gtid] : prepared_gtid) {
    if (committed.count(txn_id) || aborted.count(txn_id)) continue;
    ActiveTxn txn;
    txn.prepared = true;
    txn.gtid = gtid;
    std::set<uint64_t> touched_rows;
    auto ops_it = in_doubt_ops.find(txn_id);
    if (ops_it != in_doubt_ops.end()) {
      for (LogRecord& rec : ops_it->second) {
        if (rec.type == LogRecordType::kHeapInsert ||
            rec.type == LogRecordType::kHeapDelete ||
            rec.type == LogRecordType::kHeapResurrect) {
          touched_rows.insert(RowResource(rec.object_id, rec.rid.Encode()));
        }
        txn.ops.push_back(std::move(rec));
      }
    }
    for (uint64_t resource : touched_rows) {
      AEDB_RETURN_IF_ERROR(
          locks_.Acquire(txn_id, resource, std::chrono::milliseconds(0)));
    }
    result.in_doubt.push_back(InDoubtTxn{txn_id, gtid});
    std::lock_guard<std::mutex> lock(meta_mu_);
    active_.emplace(txn_id, std::move(txn));
  }

  std::lock_guard<std::mutex> lock(meta_mu_);
  for (auto& [id, idx] : indexes_) {
    if (idx->rebuild_pending) result.rebuild_pending_indexes.push_back(id);
  }
  return result;
}

Status StorageEngine::RebuildIndex(IndexState* index,
                                   const std::vector<LogRecord>& records,
                                   const std::set<uint64_t>& committed) {
  index->tree->Clear();
  for (const LogRecord& rec : records) {
    Status st;
    if (rec.type == LogRecordType::kIndexEntries) {
      // The base comes first: start from its entries, replay the rest.
      st = LoadIndexEntries(rec, index->tree.get()).status();
    } else if (!committed.count(rec.txn_id)) {
      continue;  // losers excluded: net undo
    } else if (rec.type == LogRecordType::kIndexInsert) {
      st = index->tree->Insert(rec.payload1, rec.rid).status();
    } else if (rec.type == LogRecordType::kIndexDelete) {
      st = index->tree->Delete(rec.payload1, rec.rid).status();
    } else {
      continue;
    }
    if (!st.ok()) {
      index->tree->Clear();
      return st;
    }
  }
  return Status::OK();
}

void StorageEngine::FinishDeferred(const DeferredTxn& txn) {
  // kAbort tells recovery the log holds the txn's whole undo. Without every
  // CLR it must stay out: the txn is then a loser that recovery undoes. A
  // failed kAbort append is harmless for the same reason.
  if (txn.logged) {
    LogRecord abort;
    abort.txn_id = txn.txn_id;
    abort.type = LogRecordType::kAbort;
    (void)wal_.Append(abort);
  }
  locks_.ReleaseAll(txn.txn_id);
}

Status StorageEngine::ResolveDeferred() {
  // Rebuild pending indexes first ("the version cleaner completes
  // successfully" once keys are present).
  std::vector<std::pair<uint32_t, IndexState*>> to_rebuild;
  {
    std::lock_guard<std::mutex> lock(meta_mu_);
    for (auto& [id, idx] : indexes_) {
      if (idx->rebuild_pending && !idx->invalid) {
        to_rebuild.emplace_back(id, idx.get());
      }
    }
  }
  // One scan keeps what the rebuilds replay, not the whole log: the
  // committed transactions and the pending indexes' own records.
  std::set<uint64_t> committed;
  std::map<uint32_t, std::vector<LogRecord>> records;
  for (const auto& [id, idx] : to_rebuild) records[id];
  if (!to_rebuild.empty()) {
    AEDB_RETURN_IF_ERROR(wal_.Scan([&](LogRecord rec) {
      if (rec.type == LogRecordType::kCommit) committed.insert(rec.txn_id);
      const bool index_op = rec.type == LogRecordType::kIndexEntries ||
                            rec.type == LogRecordType::kIndexInsert ||
                            rec.type == LogRecordType::kIndexDelete;
      auto it = records.find(rec.object_id);
      if (index_op && it != records.end()) it->second.push_back(std::move(rec));
      return Status::OK();
    }));
  }
  for (auto& [id, idx] : to_rebuild) {
    Status st = RebuildIndex(idx, records[id], committed);
    if (st.IsKeyNotInEnclave()) continue;  // keys still missing; stay pending
    AEDB_RETURN_IF_ERROR(st);
    idx->rebuild_pending = false;
  }

  // Retry each deferred transaction's remaining undo work.
  std::vector<DeferredTxn> still_deferred;
  std::vector<DeferredTxn> work;
  {
    std::lock_guard<std::mutex> lock(meta_mu_);
    work = std::move(deferred_);
    deferred_.clear();
  }
  for (DeferredTxn& txn : work) {
    std::vector<LogRecord> remaining;
    for (const LogRecord& rec : txn.pending) {
      auto found = FindIndex(rec.object_id);
      if (!found.ok() || (*found)->invalid) continue;  // debt dropped
      if ((*found)->rebuild_pending) {
        remaining.push_back(rec);  // still waiting on keys
        continue;
      }
      // Index healthy again. If it was rebuilt from committed ops the debt is
      // already settled; a direct undo would double-apply. Only runtime
      // deferrals (index never rebuilt) need the logical undo, and those are
      // exactly the ones whose entries are still present.
      Status st = UndoRecord(rec, &txn.logged);
      if (st.IsKeyNotInEnclave()) {
        remaining.push_back(rec);
        continue;
      }
      if (!st.ok() && !st.IsNotFound()) return st;
    }
    if (remaining.empty()) {
      FinishDeferred(txn);
    } else {
      txn.pending = std::move(remaining);
      still_deferred.push_back(std::move(txn));
    }
  }
  std::lock_guard<std::mutex> lock(meta_mu_);
  for (DeferredTxn& txn : still_deferred) deferred_.push_back(std::move(txn));
  return Status::OK();
}

Status StorageEngine::InvalidateIndex(uint32_t index_id) {
  {
    std::lock_guard<std::mutex> lock(meta_mu_);
    auto it = indexes_.find(index_id);
    if (it == indexes_.end()) return Status::NotFound("no such index");
    it->second->invalid = true;
    it->second->rebuild_pending = false;
    it->second->tree->Clear();
  }
  // Dropping the index's recovery obligations may fully resolve some
  // deferred transactions (the §4.5 forced-resolution policy).
  return ResolveDeferred();
}

std::vector<uint64_t> StorageEngine::DeferredTxns() const {
  std::lock_guard<std::mutex> lock(meta_mu_);
  std::vector<uint64_t> out;
  for (const DeferredTxn& txn : deferred_) out.push_back(txn.txn_id);
  return out;
}

bool StorageEngine::HasDeferredTxns() const {
  std::lock_guard<std::mutex> lock(meta_mu_);
  return !deferred_.empty();
}

Status StorageEngine::ScrubDeadRows(uint32_t table_id) {
  {
    std::lock_guard<std::mutex> lock(meta_mu_);
    if (!active_.empty() || !deferred_.empty()) {
      return Status::FailedPrecondition(
          "cannot scrub while transactions are active or deferred");
    }
  }
  TableState* t;
  AEDB_ASSIGN_OR_RETURN(t, FindTable(table_id));
  std::lock_guard<std::mutex> latch(t->latch);
  return t->heap->ScrubDead();
}

void StorageEngine::ForEachPageRaw(
    const std::function<void(uint32_t, Slice)>& fn) const {
  std::lock_guard<std::mutex> lock(meta_mu_);
  for (const auto& [id, t] : tables_) {
    for (size_t p = 0; p < t->heap->page_count(); ++p) {
      // A pin failure (pool exhausted) just skips the page; this is an
      // adversary-view helper, not a correctness path.
      (void)t->heap->WithPageRaw(p, [&](Slice page) { fn(id, page); });
    }
  }
}

}  // namespace aedb::storage
