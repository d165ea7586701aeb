#include "server/database.h"

#include <algorithm>
#include <chrono>
#include <set>
#include <thread>

#include "fault/fault.h"
#include "storage/sim_fs.h"

namespace aedb::server {

using sql::IndexKind;
using types::EncKind;
using types::EncryptionType;
using types::TypeId;
using types::Value;

namespace {

/// Orders an encrypted range index by routing every comparison into the
/// enclave (paper §3.1.2, Figure 4). Fails with KeyNotInEnclave when the CEK
/// has not been installed — which is exactly what drives the §4.5 deferred
/// recovery machinery.
class EnclaveComparator : public storage::Comparator {
 public:
  EnclaveComparator(enclave::Enclave* enclave, uint32_t cek_id)
      : enclave_(enclave), cek_id_(cek_id) {}

  /// One comparison is a one-cell batch: one transition, two decrypts.
  Result<int> Compare(Slice a, Slice b) const override {
    std::vector<int> c;
    AEDB_ASSIGN_OR_RETURN(c, CompareBatch(a, {b}));
    return c[0];
  }
  const char* Name() const override { return "enclave"; }

  /// Each Compare pays a call-gate transition, so batching a node's keys
  /// into one CompareCellsBatch crossing is a clear win here (and only
  /// here — plaintext comparators keep binary search).
  bool PrefersBatch() const override { return true; }
  Result<std::vector<int>> CompareBatch(
      Slice probe, const std::vector<Slice>& keys) const override {
    if (enclave_ == nullptr) {
      return Status::KeyNotInEnclave("no enclave configured");
    }
    return enclave_->CompareCellsBatch(cek_id_, probe, keys);
  }

 private:
  enclave::Enclave* enclave_;
  uint32_t cek_id_;
};

}  // namespace

/// Routes TMEval calls into the enclave, registering each distinct program
/// once and re-invoking by handle (paper §3: "an expression is registered
/// once in the enclave and invoked subsequently using the handle").
class Database::ServerInvoker : public es::EnclaveInvoker {
 public:
  ServerInvoker(enclave::Enclave* enclave, enclave::EnclaveWorkerPool* pool)
      : enclave_(enclave), pool_(pool) {}

  Result<es::Columns> EvalInEnclaveBatch(Slice program_bytes,
                                         const es::Morsel& morsel,
                                         uint32_t n_outputs) override {
    (void)n_outputs;
    if (enclave_ == nullptr) {
      return Status::FailedPrecondition(
          "query requires an enclave but none is configured");
    }
    // An expired query must cost zero further enclave transitions: check the
    // deadline *before* registering, submitting, or calling into the enclave.
    auto deadline = enclave::EnclaveWorkerPool::Clock::time_point::max();
    if (const QueryContext* q = QueryContext::Current(); q != nullptr) {
      AEDB_RETURN_IF_ERROR(q->Check());
      deadline = q->deadline();
    }
    uint64_t handle;
    AEDB_ASSIGN_OR_RETURN(handle, HandleFor(program_bytes));
    if (pool_ != nullptr) {
      return pool_->SubmitEvalBatch(handle, morsel, /*session_id=*/0,
                                    /*authorizing_query=*/{}, deadline);
    }
    return enclave_->EvalRegisteredBatch(handle, morsel);
  }

  /// Registers each distinct program once; later calls reuse the handle.
  Result<uint64_t> HandleFor(Slice program_bytes) {
    std::lock_guard<std::mutex> lock(mu_);
    std::string key(reinterpret_cast<const char*>(program_bytes.data()),
                    program_bytes.size());
    auto it = handles_.find(key);
    if (it != handles_.end()) return it->second;
    uint64_t handle;
    AEDB_ASSIGN_OR_RETURN(handle, enclave_->RegisterExpression(program_bytes));
    handles_.emplace(std::move(key), handle);
    return handle;
  }

 private:
  enclave::Enclave* enclave_;
  enclave::EnclaveWorkerPool* pool_;
  std::mutex mu_;
  std::map<std::string, uint64_t> handles_;
};

Database::Database(ServerOptions options, attestation::HostGuardianService* hgs,
                   const enclave::EnclaveImage* image,
                   std::shared_ptr<storage::Fs> fs)
    : options_(std::move(options)), hgs_(hgs), fs_(std::move(fs)) {
  const bool simulated = fs_ == nullptr && options_.data_dir.empty();
  if (fs_ == nullptr) {
    fs_ = simulated ? std::shared_ptr<storage::Fs>(
                          std::make_shared<storage::SimFs>())
                    : std::make_shared<storage::PosixFs>();
  }
  if (options_.enable_enclave && image != nullptr) {
    platform_ = std::make_unique<enclave::VbsPlatform>(
        options_.boot_configuration, options_.hypervisor_version);
    auto loaded = platform_->LoadEnclave(*image, options_.enclave_config);
    if (loaded.ok()) {
      enclave_ = std::move(loaded).value();
      if (options_.enclave_worker_threads > 0) {
        enclave::EnclaveWorkerPool::Options pool_opts;
        pool_opts.num_threads = options_.enclave_worker_threads;
        pool_opts.spin_duration_us = options_.enclave_worker_spin_us;
        pool_opts.max_queue_depth = options_.enclave_queue_depth;
        worker_pool_ = std::make_unique<enclave::EnclaveWorkerPool>(
            enclave_.get(), pool_opts);
      }
    }
  }
  invoker_ = std::make_unique<ServerInvoker>(enclave_.get(), worker_pool_.get());
  BuildState();
  // A fresh simulated disk holds nothing to recover, so opening cannot fail.
  if (simulated) (void)Open();
}

void Database::BuildState() {
  // The old state goes before the new one is built, so the two never share
  // the heap.
  {
    std::lock_guard<std::mutex> lock(plan_cache_mu_);
    plan_cache_.clear();
  }
  executor_.reset();
  ddl_log_.reset();
  engine_.reset();
  catalog_.reset();
  catalog_ = std::make_unique<sql::Catalog>();
  engine_ = std::make_unique<storage::StorageEngine>(options_.engine, fs_,
                                                     options_.data_dir);
  ddl_log_ = std::make_unique<storage::Wal>(fs_.get(), DdlLogPath());
  executor_ = std::make_unique<sql::Executor>(catalog_.get(), engine_.get(),
                                              invoker_.get());
  executor_->set_batch_size(options_.eval_batch_size);
}

DatabaseStats Database::Stats() const {
  DatabaseStats out;
  if (enclave_ != nullptr) {
    const enclave::EnclaveStats& s = enclave_->stats();
    out.enclave_calls = s.calls.load(std::memory_order_relaxed);
    out.enclave_evals = s.evals.load(std::memory_order_relaxed);
    out.enclave_comparisons = s.comparisons.load(std::memory_order_relaxed);
    out.enclave_transitions = s.transitions.load(std::memory_order_relaxed);
    out.values_per_transition = s.ValuesPerTransition();
  }
  out.queries_admitted = queries_admitted_.load(std::memory_order_relaxed);
  out.queries_rejected = queries_rejected_.load(std::memory_order_relaxed);
  out.queries_expired = queries_expired_.load(std::memory_order_relaxed);
  out.lock_waits_expired = engine_->locks().waits_expired();
  out.lock_deadlocks = engine_->locks().deadlocks();
  if (worker_pool_ != nullptr) {
    out.pool_queue_highwater = worker_pool_->queue_highwater();
    out.pool_expired_dropped = worker_pool_->expired_dropped();
    out.pool_overload_rejected = worker_pool_->overload_rejected();
  }
  out.recovery_ms = recovery_info_.recovery_ms;
  out.wal_records_replayed = recovery_info_.wal_records_replayed;
  out.torn_bytes_dropped =
      engine_->wal().torn_bytes_dropped() + ddl_log_->torn_bytes_dropped();
  out.checkpoints_taken = checkpoints_taken_.load(std::memory_order_relaxed);
  out.wal_bytes = engine_->wal().wal_bytes();
  out.fsyncs = engine_->fsyncs() + ddl_log_->fsyncs() +
               fsyncs_.load(std::memory_order_relaxed);
  out.wal_file_errors = engine_->wal().file_errors() + ddl_log_->file_errors();
  storage::BufferPoolStats pool = engine_->pool().stats();
  out.pool_hits = pool.hits;
  out.pool_misses = pool.misses;
  out.pool_evictions = pool.evictions;
  out.pool_writebacks = pool.writebacks;
  out.pool_pinned_highwater = pool.pinned_highwater;
  out.group_commit_batches = engine_->wal().group_commit_batches();
  out.commit_sync_requests = engine_->wal().sync_requests();
  out.commits_per_fsync =
      out.group_commit_batches > 0
          ? static_cast<double>(out.commit_sync_requests) /
                static_cast<double>(out.group_commit_batches)
          : 0.0;
  return out;
}

Database::~Database() { StopCheckpointer(); }

// ---------------------------------------------------------------------------
// Durability

Status Database::Open() {
  if (opened_) return Status::OK();
  const auto t0 = std::chrono::steady_clock::now();
  AEDB_RETURN_IF_ERROR(
      storage::fsio::EnsureDir(*fs_, options_.data_dir, &fsyncs_));

  // The clean-shutdown marker is consumed, not just read: it must be durably
  // gone before any recovery work so a crash during THIS open cannot
  // masquerade as a clean shutdown next time.
  recovery_info_ = RecoveryInfo{};
  recovery_info_.clean_shutdown =
      storage::fsio::FileExists(*fs_, CleanShutdownPath());
  if (recovery_info_.clean_shutdown) {
    AEDB_RETURN_IF_ERROR(
        storage::fsio::RemoveFileDurable(*fs_, CleanShutdownPath(), &fsyncs_));
  }

  // 1. Engine files: wipe the page store, open wal.log (drops any torn tail).
  AEDB_RETURN_IF_ERROR(engine_->Open());

  // 2. Catalog: open ddl.log (drops any torn tail) and replay it in
  // metadata-only mode.
  AEDB_RETURN_IF_ERROR(ddl_log_->Open());
  recovering_ = true;
  Status replayed = ReplayDdlLog();
  recovering_ = false;
  AEDB_RETURN_IF_ERROR(replayed);

  // 3. Checkpoint: install the latest image (if any) as the recovery base.
  auto raw = fs_->ReadFile(CheckpointPath());
  if (raw.ok()) {
    storage::CheckpointImage img;
    AEDB_ASSIGN_OR_RETURN(img, storage::CheckpointImage::Deserialize(*raw));
    engine_->SetCheckpointBase(
        std::make_shared<const storage::CheckpointImage>(std::move(img)));
  } else if (!raw.status().IsNotFound()) {
    return raw.status();
  }

  // 4. Recovery: restore the base, replay the tail, undo losers. Running it
  // even after a clean shutdown keeps one code path; the tail is empty then.
  storage::RecoveryResult rec;
  AEDB_ASSIGN_OR_RETURN(rec, engine_->Recover());
  recovery_info_.ran = true;
  recovery_info_.engine = rec;
  recovery_info_.from_checkpoint_lsn = rec.from_checkpoint_lsn;
  // Only the post-horizon tail is replay work; the reopened file may also
  // hold pre-checkpoint records (crash between checkpoint publish and log
  // truncation) that recovery filters out without replaying.
  recovery_info_.wal_records_replayed = rec.log_tail_records;
  recovery_info_.recovery_ms = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
  opened_ = true;

  if (options_.checkpoint_wal_bytes > 0) {
    stop_checkpointer_.store(false, std::memory_order_relaxed);
    checkpointer_ = std::thread([this] { CheckpointerLoop(); });
  }
  return Status::OK();
}

Status Database::Checkpoint(std::chrono::milliseconds quiesce_wait) {
  std::lock_guard<std::mutex> lock(checkpoint_mu_);
  std::shared_ptr<const storage::CheckpointImage> img;
  AEDB_ASSIGN_OR_RETURN(img, engine_->CaptureCheckpoint(quiesce_wait));
  // Crash-point: after capture, before anything touches disk.
  AEDB_RETURN_IF_ERROR(AEDB_FAULT_POINT("ckpt/pre_write"));
  AEDB_RETURN_IF_ERROR(storage::fsio::WriteFileDurable(
      *fs_, CheckpointPath(), img->Serialize(), &fsyncs_));
  engine_->SetCheckpointBase(img);
  // Crash-point: checkpoint published, WAL not yet truncated. Recovery must
  // filter the pre-horizon records the file still holds.
  AEDB_RETURN_IF_ERROR(AEDB_FAULT_POINT("ckpt/pre_truncate"));
  AEDB_RETURN_IF_ERROR(engine_->wal().TruncateBefore(img->checkpoint_lsn));
  checkpoints_taken_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

void Database::CheckpointerLoop() {
  while (!stop_checkpointer_.load(std::memory_order_relaxed)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    if (stop_checkpointer_.load(std::memory_order_relaxed)) break;
    if (engine_->wal().wal_bytes() < options_.checkpoint_wal_bytes) continue;
    // Refusals (traffic never quiesced, deferred txns) are fine: the WAL just
    // stays long until the next pass succeeds.
    (void)Checkpoint(std::chrono::milliseconds(500));
  }
}

void Database::StopCheckpointer() {
  stop_checkpointer_.store(true, std::memory_order_relaxed);
  if (checkpointer_.joinable()) checkpointer_.join();
}

Status Database::Shutdown() {
  if (!opened_) return Status::OK();
  StopCheckpointer();
  // Final checkpoint drains the WAL so the next startup replays nothing. A
  // refusal (in-flight traffic, deferred txns) downgrades to a synced-but-
  // dirty shutdown: no marker, normal recovery next time.
  Status ckpt = Checkpoint(std::chrono::milliseconds(2000));
  Status synced = engine_->wal().Sync();
  AEDB_RETURN_IF_ERROR(synced);
  if (ckpt.ok() && engine_->wal().record_count() == 0) {
    AEDB_RETURN_IF_ERROR(storage::fsio::WriteFileDurable(
        *fs_, CleanShutdownPath(), Slice(std::string_view("clean")),
        &fsyncs_));
  }
  opened_ = false;
  return ckpt;
}

Result<EncryptionType> Database::ResolveEncryptionSpec(
    const sql::EncryptionSpec& spec) {
  if (!spec.encrypted) return EncryptionType::Plaintext();
  if (spec.algorithm != "AEAD_AES_256_CBC_HMAC_SHA_256") {
    return Status::NotSupported("unknown cell algorithm: " + spec.algorithm);
  }
  uint32_t cek_id;
  AEDB_ASSIGN_OR_RETURN(cek_id, catalog_->CekIdByName(spec.cek_name));
  bool enclave_enabled;
  AEDB_ASSIGN_OR_RETURN(enclave_enabled, catalog_->CekEnclaveEnabled(cek_id));
  return EncryptionType::Encrypted(spec.kind, cek_id, enclave_enabled);
}

Result<std::unique_ptr<storage::Comparator>> Database::MakeComparator(
    const sql::ColumnDef& col) {
  if (!col.enc.is_encrypted()) {
    return std::unique_ptr<storage::Comparator>(new sql::ValueComparator());
  }
  if (col.enc.kind == EncKind::kDeterministic) {
    // Equality index: ciphertext order (paper §3.1.1).
    return std::unique_ptr<storage::Comparator>(new storage::BinaryComparator());
  }
  if (!col.enc.enclave_enabled) {
    return Status::NotSupported(
        "cannot index a randomized column without an enclave-enabled key");
  }
  return std::unique_ptr<storage::Comparator>(
      new EnclaveComparator(enclave_.get(), col.enc.cek_id));
}

Status Database::ExecuteCreateTable(const sql::CreateTableStmt& stmt) {
  sql::TableDef def;
  def.name = stmt.name;
  for (const sql::ColumnSpec& spec : stmt.columns) {
    sql::ColumnDef col;
    col.name = spec.name;
    col.type = spec.type;
    col.nullable = !spec.not_null;
    AEDB_ASSIGN_OR_RETURN(col.enc, ResolveEncryptionSpec(spec.enc));
    def.columns.push_back(std::move(col));
  }
  const sql::TableDef* created;
  AEDB_ASSIGN_OR_RETURN(created, catalog_->CreateTable(std::move(def)));
  return engine_->CreateTable(created->id);
}

Status Database::RegisterIndexStorage(const sql::IndexDef& index,
                                      const sql::ColumnDef& col) {
  std::unique_ptr<storage::Comparator> comparator;
  AEDB_ASSIGN_OR_RETURN(comparator, MakeComparator(col));
  return engine_->CreateIndex(index.id, index.table_id, std::move(comparator),
                             index.unique);
}

Status Database::ExecuteCreateIndex(const sql::CreateIndexStmt& stmt) {
  const sql::TableDef* table;
  AEDB_ASSIGN_OR_RETURN(table, catalog_->GetTable(stmt.table));
  int column = table->FindColumn(stmt.column);
  if (column < 0) return Status::NotFound("no such column: " + stmt.column);
  const sql::ColumnDef& col = table->columns[column];

  sql::IndexDef def;
  def.name = stmt.name;
  def.table_id = table->id;
  def.column = column;
  def.unique = stmt.unique;
  if (!col.enc.is_encrypted()) {
    def.kind = IndexKind::kRange;
  } else if (col.enc.kind == EncKind::kDeterministic) {
    // "Range indexing is not supported on deterministically encrypted
    // columns" (paper §2.4.4).
    def.kind = IndexKind::kEquality;
  } else {
    if (!col.enc.enclave_enabled) {
      return Status::NotSupported(
          "no indexing on randomized columns without enclave-enabled keys");
    }
    def.kind = IndexKind::kRange;
  }

  const sql::IndexDef* created;
  AEDB_ASSIGN_OR_RETURN(created, catalog_->CreateIndex(std::move(def)));
  Status st = RegisterIndexStorage(*created, col);
  if (!st.ok()) {
    (void)catalog_->DropIndex(stmt.name);
    return st;
  }
  // DDL-journal replay registers metadata only: the entries arrive from the
  // checkpoint image and the replayed WAL, not from a fresh build (which
  // would need enclave keys the server does not have at startup).
  if (recovering_) return Status::OK();
  // Populate: the index build sorts the data, routing comparisons through
  // the enclave for encrypted range indexes (operational leak, Figure 5).
  uint64_t txn = engine_->Begin();
  st = executor_->BuildIndex(*table, *created, txn);
  if (!st.ok()) {
    (void)engine_->Abort(txn);
    (void)engine_->DropIndex(created->id);
    (void)catalog_->DropIndex(stmt.name);
    return st;
  }
  return engine_->Commit(txn);
}

Status Database::ExecuteAlterColumn(const sql::AlterColumnStmt& stmt,
                                    const std::string& sql_text,
                                    uint64_t session_id) {
  const sql::TableDef* table;
  AEDB_ASSIGN_OR_RETURN(table, catalog_->GetTable(stmt.table));
  int column = table->FindColumn(stmt.column);
  if (column < 0) return Status::NotFound("no such column: " + stmt.column);
  sql::ColumnDef old_col = table->columns[column];
  if (stmt.type != old_col.type) {
    return Status::NotSupported("ALTER COLUMN cannot change the SQL type");
  }
  EncryptionType new_enc;
  AEDB_ASSIGN_OR_RETURN(new_enc, ResolveEncryptionSpec(stmt.enc));
  if (new_enc == old_col.enc) return Status::OK();

  // The in-place path requires every encrypted side to be enclave-enabled;
  // otherwise the client-side tool must round-trip the data (paper §2.4.2).
  bool old_needs = old_col.enc.is_encrypted();
  bool new_needs = new_enc.is_encrypted();
  if ((old_needs && !old_col.enc.enclave_enabled) ||
      (new_needs && !new_enc.enclave_enabled)) {
    return Status::NotSupported(
        "ALTER COLUMN with enclave-disabled keys requires the client-side "
        "encryption tool (round trip)");
  }
  if (!recovering_ && enclave_ == nullptr) {
    return Status::FailedPrecondition("no enclave configured");
  }

  // The conversion program: decrypt (if encrypted) at GetData, re-encrypt
  // (if target encrypted) at SetData. The enclave demands client
  // authorization for this statement text (§3.2).
  es::EsProgram program;
  program.GetData(0, old_col.type, old_col.enc);
  program.SetData(0, old_col.type, new_enc);
  Bytes program_bytes = program.Serialize();

  // Indexes over this column must be rebuilt under the new ordering.
  std::vector<sql::IndexDef> affected;
  for (const sql::IndexDef* index : catalog_->TableIndexes(table->id)) {
    if (index->column == column) affected.push_back(*index);
  }
  for (const sql::IndexDef& index : affected) {
    AEDB_RETURN_IF_ERROR(engine_->DropIndex(index.id));
    AEDB_RETURN_IF_ERROR(catalog_->DropIndex(index.name));
  }

  sql::ColumnDef new_col = old_col;
  new_col.enc = new_enc;
  AEDB_RETURN_IF_ERROR(catalog_->AlterColumn(stmt.table, column, new_col));

  // Journal replay: metadata + index id churn only. The enclave row rewrite
  // this statement originally performed is redone by the WAL (the rewrites
  // were ordinary logged heap/index mutations); recreating the index defs in
  // the same order reproduces the ids those WAL records reference.
  if (recovering_) {
    for (const sql::IndexDef& index : affected) {
      sql::CreateIndexStmt recreate;
      recreate.name = index.name;
      recreate.table = stmt.table;
      recreate.column = stmt.column;
      recreate.unique = index.unique;
      AEDB_RETURN_IF_ERROR(ExecuteCreateIndex(recreate));
    }
    return Status::OK();
  }

  uint64_t txn = engine_->Begin();
  // Delete + reinsert one row with its converted cell, maintaining the
  // surviving indexes.
  auto rewrite = [&](const storage::Rid& rid, const std::vector<Value>& row,
                     Value cell) -> Status {
    for (const sql::IndexDef* index : catalog_->TableIndexes(table->id)) {
      AEDB_RETURN_IF_ERROR(engine_->IndexDelete(
          txn, index->id,
          sql::Executor::IndexKeyFor(table->columns[index->column],
                                     row[index->column]),
          rid));
    }
    AEDB_RETURN_IF_ERROR(engine_->HeapDelete(txn, table->id, rid));
    std::vector<Value> new_row = row;
    new_row[column] = std::move(cell);
    storage::Rid new_rid;
    AEDB_ASSIGN_OR_RETURN(
        new_rid, engine_->HeapInsert(txn, table->id, sql::EncodeRow(new_row)));
    for (const sql::IndexDef* index : catalog_->TableIndexes(table->id)) {
      AEDB_RETURN_IF_ERROR(engine_->IndexInsert(
          txn, index->id,
          sql::Executor::IndexKeyFor(table->columns[index->column],
                                     new_row[index->column]),
          new_rid));
    }
    return Status::OK();
  };
  // Rewrite every row, converting the one cell through the enclave a morsel
  // at a time: the program is registered once, then each morsel of
  // eval_batch_size rows costs one transition. The enclave checks the
  // statement's authorization once per morsel.
  Status st = engine_->LockTable(txn, table->id);
  std::vector<std::pair<storage::Rid, std::vector<Value>>> rows;
  if (st.ok()) {
    engine_->table(table->id)->Scan([&](const storage::Rid& rid, Slice record) {
      auto row = sql::DecodeRow(record, table->columns.size());
      if (!row.ok()) {
        st = row.status();
        return false;
      }
      rows.emplace_back(rid, std::move(row).value());
      return true;
    });
  }
  uint64_t handle = 0;
  if (st.ok() && !rows.empty()) {
    auto registered = invoker_->HandleFor(program_bytes);
    st = registered.status();
    if (st.ok()) handle = *registered;
  }
  const size_t morsel_size = executor_->batch_size();
  for (size_t begin = 0; st.ok() && begin < rows.size();
       begin += morsel_size) {
    const size_t end = std::min(rows.size(), begin + morsel_size);
    // The morsel is the one column being converted.
    es::Columns cells(1);
    cells[0].reserve(end - begin);
    for (size_t i = begin; i < end; ++i) {
      cells[0].push_back(rows[i].second[column]);
    }
    auto converted = enclave_->EvalRegisteredBatch(
        handle, es::Morsel::Of(end - begin, cells), session_id, sql_text);
    st = converted.status();
    for (size_t i = begin; st.ok() && i < end; ++i) {
      st = rewrite(rows[i].first, rows[i].second,
                   std::move((*converted)[0][i - begin]));
    }
  }
  if (!st.ok()) {
    (void)engine_->Abort(txn);
    // Roll the catalog back too.
    (void)catalog_->AlterColumn(stmt.table, column, old_col);
    for (const sql::IndexDef& index : affected) {
      sql::IndexDef recreate = index;
      auto created = catalog_->CreateIndex(recreate);
      if (created.ok()) {
        (void)RegisterIndexStorage(**created, old_col);
        uint64_t rebuild_txn = engine_->Begin();
        (void)executor_->BuildIndex(*table, **created, rebuild_txn);
        (void)engine_->Commit(rebuild_txn);
      }
    }
    return st;
  }
  AEDB_RETURN_IF_ERROR(engine_->Commit(txn));

  // Old plaintext remnants sit in tombstoned slots: scrub them (the WAL
  // still holds pre-encryption images until log truncation, as in any
  // WAL-based system).
  (void)engine_->ScrubDeadRows(table->id);

  // Recreate the affected indexes under the new encryption configuration.
  for (const sql::IndexDef& index : affected) {
    sql::CreateIndexStmt recreate;
    recreate.name = index.name;
    recreate.table = stmt.table;
    recreate.column = stmt.column;
    recreate.unique = index.unique;
    AEDB_RETURN_IF_ERROR(ExecuteCreateIndex(recreate));
  }
  return Status::OK();
}

Status Database::LogDdl(storage::LogRecord record) {
  uint64_t lsn;
  AEDB_ASSIGN_OR_RETURN(lsn, ddl_log_->Append(std::move(record)));
  return ddl_log_->SyncUpTo(lsn);
}

Status Database::ExecuteDdl(const std::string& sql_text, uint64_t session_id) {
  std::lock_guard<std::mutex> ddl_lock(ddl_mu_);
  // Log BEFORE executing: execution can have WAL-visible side effects (a
  // CREATE INDEX build commits index records; concurrent DML can commit
  // against a fresh CREATE TABLE), and those records reference catalog ids
  // recovery can only reproduce if the DDL log holds this attempt. The
  // record snapshots the id counters so replay consumes exactly the ids
  // this execution will, whether or not it succeeds.
  storage::LogRecord statement;
  statement.type = storage::LogRecordType::kDdl;
  PutU32(&statement.payload1, catalog_->next_table_id());
  PutU32(&statement.payload1, catalog_->next_index_id());
  PutU32(&statement.payload1, catalog_->next_cek_id());
  statement.payload1.insert(statement.payload1.end(), sql_text.begin(),
                            sql_text.end());
  AEDB_RETURN_IF_ERROR(LogDdl(std::move(statement)));
  Status executed = ExecuteDdlStatement(sql_text, session_id);
  // The commit marker's fsync is the DDL durability point: only a marked
  // statement must replay on restart. An unmarked one (crash or failure in
  // this window) was never acknowledged and replays leniently.
  if (executed.ok()) {
    // Crash-point: statement executed (WAL side effects durable-eligible)
    // but not yet marked committed — the lenient-replay window.
    AEDB_RETURN_IF_ERROR(AEDB_FAULT_POINT("ddl/pre_commit_marker"));
    storage::LogRecord marker;
    marker.type = storage::LogRecordType::kCommit;
    AEDB_RETURN_IF_ERROR(LogDdl(std::move(marker)));
  }
  return executed;
}

Status Database::ReplayDdlLog() {
  // Each statement carries the id counters as they stood before it ran;
  // forcing them before every replay reproduces the runtime id assignment
  // exactly — including ids consumed by statements that failed or never
  // committed — so the replayed catalog ids match the WAL's object_ids.
  std::vector<storage::LogRecord> log;
  AEDB_ASSIGN_OR_RETURN(log, ddl_log_->Snapshot());
  for (size_t i = 0; i < log.size(); ++i) {
    if (log[i].type != storage::LogRecordType::kDdl) {
      // DDL is serialized, so a marker always follows its statement.
      return Status::Corruption(log[i].type == storage::LogRecordType::kCommit
                                    ? "DDL commit marker without statement"
                                    : "unknown DDL log record type");
    }
    const bool committed = i + 1 < log.size() &&
                           log[i + 1].type == storage::LogRecordType::kCommit;
    const Bytes& body = log[i].payload1;
    size_t off = 0;
    uint32_t table_id, index_id, cek_id;
    AEDB_ASSIGN_OR_RETURN(table_id, GetU32(body, &off));
    AEDB_ASSIGN_OR_RETURN(index_id, GetU32(body, &off));
    AEDB_ASSIGN_OR_RETURN(cek_id, GetU32(body, &off));
    const std::string sql_text(reinterpret_cast<const char*>(body.data()) + off,
                               body.size() - off);
    catalog_->ForceNextIds(table_id, index_id, cek_id);
    if (!committed) {
      // No commit marker: the statement was never acknowledged. Replay it
      // leniently — losing it is legal, replaying it wrongly is not.
      ReplayUncommittedDdl(sql_text);
      continue;
    }
    ++i;  // past the marker
    Status st = ExecuteDdlStatement(sql_text);
    if (!st.ok()) {
      return Status::Internal("DDL log replay failed for \"" + sql_text +
                              "\": " + st.message());
    }
    ++recovery_info_.ddl_statements_replayed;
  }
  return Status::OK();
}

void Database::ReplayUncommittedDdl(const std::string& sql_text) {
  auto parsed = sql::Parse(sql_text);
  if (!parsed.ok()) return;  // never executed at runtime either
  switch (parsed->kind) {
    case sql::Statement::Kind::kCreateCmk:
    case sql::Statement::Kind::kCreateCek:
    case sql::Statement::Kind::kCreateTable:
      // Re-create the object. Any committed WAL records against it prove it
      // existed at runtime; if the crash instead hit before execution, a
      // phantom empty object is indistinguishable from the statement
      // committing right before the crash — legal for an unacked DDL.
      (void)ExecuteDdlStatement(sql_text);
      return;
    case sql::Statement::Kind::kCreateIndex: {
      // The build may have failed or never run, and a metadata-only phantom
      // index would serve wrong (empty) results. Consume the catalog id,
      // then drop the index: recovery skips WAL records of unknown indexes,
      // and the id can never be reused for an unrelated index.
      Status st = ExecuteDdlStatement(sql_text);
      if (!st.ok()) return;
      const sql::CreateIndexStmt& s = *parsed->create_index;
      auto def = catalog_->GetIndex(s.name);
      if (def.ok()) {
        (void)engine_->DropIndex((*def)->id);
        (void)catalog_->DropIndex(s.name);
      }
      return;
    }
    case sql::Statement::Kind::kAlterColumn: {
      // Too stateful to replay blind (index drop/recreate + row rewrite).
      // Skip it, but if the rewrite transaction committed, indexes on the
      // altered column hold pre-rewrite rids/keys — invalidate them, and
      // burn the index ids a completed runtime recreate would have used.
      const sql::AlterColumnStmt& s = *parsed->alter_column;
      auto table = catalog_->GetTable(s.table);
      if (!table.ok()) return;
      int column = (*table)->FindColumn(s.column);
      if (column < 0) return;
      size_t recreated = 0;
      for (const sql::IndexDef* index : catalog_->TableIndexes((*table)->id)) {
        if (index->column != column) continue;
        (void)engine_->InvalidateIndex(index->id);
        ++recreated;
      }
      catalog_->ForceNextIds(
          catalog_->next_table_id(),
          catalog_->next_index_id() + static_cast<uint32_t>(recreated),
          catalog_->next_cek_id());
      return;
    }
    default:
      return;  // DROP INDEX etc.: losing an unacked drop is legal
  }
}

Status Database::ExecuteDdlStatement(const std::string& sql_text,
                                     uint64_t session_id) {
  sql::Statement stmt;
  AEDB_ASSIGN_OR_RETURN(stmt, sql::Parse(sql_text));
  {
    std::lock_guard<std::mutex> lock(plan_cache_mu_);
    plan_cache_.clear();  // DDL invalidates cached plans
  }
  executor_->ClearProgramCache();
  switch (stmt.kind) {
    case sql::Statement::Kind::kCreateCmk: {
      const sql::CreateCmkStmt& s = *stmt.create_cmk;
      keys::CmkInfo cmk;
      cmk.name = s.name;
      cmk.provider_name = s.provider;
      cmk.key_path = s.key_path;
      cmk.enclave_enabled = s.enclave_computations;
      cmk.signature = s.signature;
      return catalog_->AddCmk(std::move(cmk));
    }
    case sql::Statement::Kind::kCreateCek: {
      const sql::CreateCekStmt& s = *stmt.create_cek;
      keys::CekInfo cek;
      cek.name = s.name;
      keys::CekValue value;
      value.cmk_name = s.cmk;
      value.algorithm = s.algorithm;
      value.encrypted_value = s.encrypted_value;
      value.signature = s.signature;
      cek.values.push_back(std::move(value));
      return catalog_->AddCek(std::move(cek)).status();
    }
    case sql::Statement::Kind::kCreateTable:
      return ExecuteCreateTable(*stmt.create_table);
    case sql::Statement::Kind::kCreateIndex:
      return ExecuteCreateIndex(*stmt.create_index);
    case sql::Statement::Kind::kAlterColumn:
      return ExecuteAlterColumn(*stmt.alter_column, sql_text, session_id);
    case sql::Statement::Kind::kDrop: {
      const sql::DropStmt& s = *stmt.drop;
      if (s.is_index) {
        const sql::IndexDef* index;
        AEDB_ASSIGN_OR_RETURN(index, catalog_->GetIndex(s.name));
        AEDB_RETURN_IF_ERROR(engine_->DropIndex(index->id));
        return catalog_->DropIndex(s.name);
      }
      return Status::NotSupported("DROP TABLE is not implemented");
    }
    default:
      return Status::InvalidArgument("not a DDL statement; use Execute");
  }
}

Result<const sql::BoundStatement*> Database::GetOrBind(const std::string& sql_text) {
  {
    std::lock_guard<std::mutex> lock(plan_cache_mu_);
    auto it = plan_cache_.find(sql_text);
    if (it != plan_cache_.end()) return it->second.get();
  }
  sql::Statement stmt;
  AEDB_ASSIGN_OR_RETURN(stmt, sql::Parse(sql_text));
  switch (stmt.kind) {
    case sql::Statement::Kind::kSelect:
    case sql::Statement::Kind::kInsert:
    case sql::Statement::Kind::kUpdate:
    case sql::Statement::Kind::kDelete:
      break;
    default:
      return Status::InvalidArgument("DDL must go through ExecuteDdl");
  }
  sql::Binder binder(catalog_.get());
  sql::BoundStatement bound;
  AEDB_ASSIGN_OR_RETURN(bound, binder.Bind(std::move(stmt)));
  auto owned = std::make_unique<sql::BoundStatement>(std::move(bound));
  std::lock_guard<std::mutex> lock(plan_cache_mu_);
  auto [it, inserted] = plan_cache_.emplace(sql_text, std::move(owned));
  (void)inserted;
  return it->second.get();
}

Result<KeyDescription> Database::GetKeyDescription(uint32_t cek_id) {
  const keys::CekInfo* cek = catalog_->GetCekById(cek_id);
  if (cek == nullptr) return Status::NotFound("unknown CEK id");
  KeyDescription desc;
  desc.cek_id = cek_id;
  desc.cek = *cek;
  if (!cek->values.empty()) {
    const keys::CmkInfo* cmk;
    AEDB_ASSIGN_OR_RETURN(cmk, catalog_->GetCmk(cek->values[0].cmk_name));
    desc.cmk = *cmk;
  }
  return desc;
}

Result<DescribeResult> Database::DescribeParameterEncryption(
    const std::string& sql_text, Slice client_dh_public) {
  ChargeRoundTrip();
  describe_calls_.fetch_add(1, std::memory_order_relaxed);
  const sql::BoundStatement* bound;
  AEDB_ASSIGN_OR_RETURN(bound, GetOrBind(sql_text));

  DescribeResult out;
  std::set<uint32_t> cek_ids;
  for (const sql::BoundParam& p : bound->params) {
    DescribeResult::ParamInfo info;
    info.name = p.name;
    info.type = p.type;
    info.enc = p.enc;
    if (p.enc.is_encrypted()) cek_ids.insert(p.enc.cek_id);
    out.params.push_back(std::move(info));
  }
  out.requires_enclave = bound->requires_enclave;
  out.enclave_cek_ids = bound->enclave_ceks;
  for (uint32_t id : bound->enclave_ceks) cek_ids.insert(id);
  for (uint32_t id : cek_ids) {
    KeyDescription desc;
    AEDB_ASSIGN_OR_RETURN(desc, GetKeyDescription(id));
    out.keys.push_back(std::move(desc));
  }

  if (out.requires_enclave && !client_dh_public.empty() &&
      enclave_ != nullptr && hgs_ != nullptr) {
    // SQL calls the attestation service and relays everything to the client
    // (the untrusted man in the middle, §3).
    AEDB_ASSIGN_OR_RETURN(
        out.health_certificate,
        hgs_->Attest(platform_->tcg_log(), platform_->host_signing_public()));
    AEDB_ASSIGN_OR_RETURN(out.attestation,
                          enclave_->CreateSession(client_dh_public));
    out.attestation_included = true;
  }
  return out;
}

Result<DescribeResult> Database::Attest(Slice client_dh_public) {
  if (enclave_ == nullptr || hgs_ == nullptr) {
    return Status::FailedPrecondition("no enclave/attestation configured");
  }
  DescribeResult out;
  AEDB_ASSIGN_OR_RETURN(
      out.health_certificate,
      hgs_->Attest(platform_->tcg_log(), platform_->host_signing_public()));
  AEDB_ASSIGN_OR_RETURN(out.attestation,
                        enclave_->CreateSession(client_dh_public));
  out.attestation_included = true;
  return out;
}

Result<EncryptionType> Database::ColumnEncryption(const std::string& table,
                                                  const std::string& column) {
  const sql::TableDef* def;
  AEDB_ASSIGN_OR_RETURN(def, catalog_->GetTable(table));
  int idx = def->FindColumn(column);
  if (idx < 0) return Status::NotFound("no such column: " + column);
  return def->columns[idx].enc;
}

Status Database::AlterColumnMetadataForClientTool(
    const std::string& table, const std::string& column,
    const sql::EncryptionSpec& enc) {
  const sql::TableDef* def;
  AEDB_ASSIGN_OR_RETURN(def, catalog_->GetTable(table));
  int idx = def->FindColumn(column);
  if (idx < 0) return Status::NotFound("no such column: " + column);
  for (const sql::IndexDef* index : catalog_->TableIndexes(def->id)) {
    if (index->column == idx) {
      return Status::FailedPrecondition(
          "drop indexes on the column before the client-side tool runs");
    }
  }
  sql::ColumnDef col = def->columns[idx];
  AEDB_ASSIGN_OR_RETURN(col.enc, ResolveEncryptionSpec(enc));
  AEDB_RETURN_IF_ERROR(catalog_->AlterColumn(table, idx, col));
  {
    std::lock_guard<std::mutex> lock(plan_cache_mu_);
    plan_cache_.clear();
  }
  executor_->ClearProgramCache();
  return Status::OK();
}

uint64_t Database::BeginTransaction() { return engine_->Begin(); }

Status Database::CommitTransaction(uint64_t txn) { return engine_->Commit(txn); }

Status Database::RollbackTransaction(uint64_t txn) { return engine_->Abort(txn); }

void Database::CaptureRequest(const std::string& sql_text,
                              const std::vector<Value>& params) {
  if (!options_.capture_tds) return;
  Bytes request;
  PutLengthPrefixed(&request, Slice(std::string_view(sql_text)));
  PutU32(&request, static_cast<uint32_t>(params.size()));
  for (const Value& v : params) v.EncodeTo(&request);
  capture_.last_request = std::move(request);
}

void Database::CaptureResponse(const sql::ResultSet& result) {
  if (!options_.capture_tds) return;
  Bytes response;
  PutU32(&response, static_cast<uint32_t>(result.rows.size()));
  for (const auto& row : result.rows) {
    for (const Value& v : row) v.EncodeTo(&response);
  }
  capture_.last_response = std::move(response);
}

void Database::ChargeRoundTrip() {
  if (options_.simulated_network_us == 0) return;
  std::this_thread::sleep_for(
      std::chrono::microseconds(options_.simulated_network_us));
}

namespace {
/// Releases the admission slot AdmitQuery took, whatever exit path the
/// statement takes.
struct InflightGuard {
  std::atomic<uint64_t>* counter;
  ~InflightGuard() { counter->fetch_sub(1, std::memory_order_acq_rel); }
};
}  // namespace

Status Database::AdmitQuery() {
  // Admission gate: overload is decided *before* parsing, binding, or any
  // enclave work, so a rejected query is as close to free as it gets and the
  // retry-after hint reaches the client fast.
  uint64_t inflight =
      inflight_queries_.fetch_add(1, std::memory_order_acq_rel) + 1;
  bool reject = options_.max_inflight_queries > 0 &&
                inflight > options_.max_inflight_queries;
  fault::FaultSpec spec;
  if (AEDB_FAULT_FIRED("server/admission_reject", &spec)) reject = true;
  if (reject) {
    inflight_queries_.fetch_sub(1, std::memory_order_acq_rel);
    queries_rejected_.fetch_add(1, std::memory_order_relaxed);
    return Status::Overloaded(
        AppendRetryAfterHint("admission gate: too many in-flight queries",
                             options_.overload_retry_after_ms));
  }
  queries_admitted_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Result<sql::ResultSet> Database::Execute(const std::string& sql_text,
                                         const std::vector<Value>& params,
                                         uint64_t txn, uint64_t session_id,
                                         uint32_t deadline_ms) {
  AEDB_RETURN_IF_ERROR(AdmitQuery());
  InflightGuard inflight_guard{&inflight_queries_};
  return ExecuteAdmitted(sql_text, params, txn, session_id, deadline_ms);
}

Result<sql::ResultSet> Database::ExecuteAdmitted(const std::string& sql_text,
                                                 const std::vector<Value>& params,
                                                 uint64_t txn,
                                                 uint64_t session_id,
                                                 uint32_t deadline_ms) {
  (void)session_id;
  // Stamp the query context before charging the (simulated) network round
  // trip: wire latency consumes the client's budget like everything else.
  QueryContext qctx = deadline_ms > 0
                          ? QueryContext::WithDeadlineAfter(
                                std::chrono::milliseconds(deadline_ms))
                          : QueryContext();
  ScopedQueryContext scoped(qctx.has_deadline() ? &qctx
                                                : QueryContext::Current());

  ChargeRoundTrip();
  if (qctx.expired()) {
    queries_expired_.fetch_add(1, std::memory_order_relaxed);
    return Status::DeadlineExceeded("query deadline expired before execution");
  }
  {
    // Forced enclave restart before statement execution: every session and
    // every installed CEK is gone, exactly as after a host-level enclave
    // reload. The statement then fails session lookup / key lookup and the
    // driver's recovery loop must re-attest and re-install keys.
    fault::FaultSpec spec;
    if (enclave_ != nullptr &&
        AEDB_FAULT_FIRED("server/enclave_restart", &spec)) {
      enclave_->ClearKeys();
    }
  }
  const sql::BoundStatement* bound;
  AEDB_ASSIGN_OR_RETURN(bound, GetOrBind(sql_text));
  if (params.size() != bound->params.size()) {
    return Status::InvalidArgument(
        "expected " + std::to_string(bound->params.size()) + " parameters");
  }
  CaptureRequest(sql_text, params);

  bool autocommit = txn == 0;
  uint64_t exec_txn = autocommit ? engine_->Begin() : txn;
  // Snapshot the txn's logged-op count so a failed statement can be tested
  // for partial application (see the kOverloaded conversion below).
  const size_t ops_before = autocommit ? 0 : engine_->TxnOpCount(exec_txn);

  Result<sql::ResultSet> result = [&]() -> Result<sql::ResultSet> {
    switch (bound->stmt.kind) {
      case sql::Statement::Kind::kSelect:
        return executor_->Select(*bound, params, exec_txn);
      case sql::Statement::Kind::kInsert: {
        int64_t n;
        AEDB_ASSIGN_OR_RETURN(n, executor_->Insert(*bound, params, exec_txn));
        sql::ResultSet rs;
        rs.columns = {"rows_affected"};
        rs.rows = {{Value::Int64(n)}};
        return rs;
      }
      case sql::Statement::Kind::kUpdate: {
        int64_t n;
        AEDB_ASSIGN_OR_RETURN(n, executor_->Update(*bound, params, exec_txn));
        sql::ResultSet rs;
        rs.columns = {"rows_affected"};
        rs.rows = {{Value::Int64(n)}};
        return rs;
      }
      case sql::Statement::Kind::kDelete: {
        int64_t n;
        AEDB_ASSIGN_OR_RETURN(n, executor_->Delete(*bound, params, exec_txn));
        sql::ResultSet rs;
        rs.columns = {"rows_affected"};
        rs.rows = {{Value::Int64(n)}};
        return rs;
      }
      default:
        return Status::Internal("unexpected statement kind");
    }
  }();

  if (autocommit) {
    if (result.ok()) {
      Status st = engine_->Commit(exec_txn);
      if (!st.ok()) return st;
    } else {
      (void)engine_->Abort(exec_txn);
    }
  } else if (!result.ok() && result.status().IsOverloaded() &&
             engine_->TxnOpCount(exec_txn) != ops_before) {
    // Mid-statement overload inside an explicit transaction, AFTER the
    // statement already applied some rows (the txn's logged-op count grew):
    // without statement-level savepoints those rows cannot be peeled back
    // individually. kOverloaded must not reach the client here — the retry
    // layer replays kOverloaded on the premise that a shed statement had no
    // effect, and replaying a non-idempotent write (e.g. UPDATE t SET
    // x = x + 1) would double-apply it to the already-updated rows. Abort
    // the whole transaction and surface a typed kTransactionAborted so the
    // application restarts it. A shed with no ops applied (admission gate,
    // predicate morsel rejected by the pool before any write, reads) stays
    // kOverloaded: the txn is intact and the statement is safe to replay.
    (void)engine_->Abort(exec_txn);
    return Status::TransactionAborted(
        "statement shed mid-execution after partial application: " +
        result.status().message());
  }
  if (!result.ok() && result.status().IsDeadlineExceeded()) {
    queries_expired_.fetch_add(1, std::memory_order_relaxed);
  }
  if (result.ok()) CaptureResponse(*result);
  return result;
}

Result<sql::ResultSet> Database::ExecuteNamed(
    const std::string& sql_text,
    const std::vector<std::pair<std::string, Value>>& params, uint64_t txn,
    uint64_t session_id, uint32_t deadline_ms) {
  // Same admission-first contract as the positional path: a shed query must
  // be rejected before any parser/binder work is spent on it.
  AEDB_RETURN_IF_ERROR(AdmitQuery());
  InflightGuard inflight_guard{&inflight_queries_};
  const sql::BoundStatement* bound;
  AEDB_ASSIGN_OR_RETURN(bound, GetOrBind(sql_text));
  auto lower = [](std::string s) {
    std::transform(s.begin(), s.end(), s.begin(),
                   [](unsigned char c) { return std::tolower(c); });
    return s;
  };
  std::vector<Value> ordered(bound->params.size());
  std::vector<bool> filled(bound->params.size(), false);
  for (const auto& [name, value] : params) {
    bool found = false;
    for (size_t i = 0; i < bound->params.size(); ++i) {
      if (lower(bound->params[i].name) == lower(name)) {
        ordered[i] = value;
        filled[i] = true;
        found = true;
        break;
      }
    }
    if (!found) {
      return Status::InvalidArgument("statement has no parameter @" + name);
    }
  }
  for (size_t i = 0; i < filled.size(); ++i) {
    if (!filled[i]) {
      return Status::InvalidArgument("missing value for parameter @" +
                                     bound->params[i].name);
    }
  }
  return ExecuteAdmitted(sql_text, ordered, txn, session_id, deadline_ms);
}

Status Database::ForwardKeysToEnclave(uint64_t session_id, uint64_t nonce,
                                      Slice sealed) {
  if (enclave_ == nullptr) {
    return Status::FailedPrecondition("no enclave configured");
  }
  AEDB_RETURN_IF_ERROR(enclave_->InstallCeks(session_id, nonce, sealed));
  // "When the client connects and sends keys to the enclave, the deferred
  // transactions are resolved" (§4.5).
  return engine_->ResolveDeferred();
}

Status Database::ForwardEncryptionAuthorization(uint64_t session_id,
                                                uint64_t nonce, Slice sealed) {
  if (enclave_ == nullptr) {
    return Status::FailedPrecondition("no enclave configured");
  }
  return enclave_->AuthorizeEncryption(session_id, nonce, sealed);
}

Result<storage::RecoveryResult> Database::Restart() {
  if (enclave_ != nullptr) enclave_->ClearKeys();
  StopCheckpointer();
  BuildState();
  opened_ = false;
  AEDB_RETURN_IF_ERROR(Open());
  return recovery_info_.engine;
}

Status Database::InvalidateIndexByName(const std::string& index_name) {
  const sql::IndexDef* index;
  AEDB_ASSIGN_OR_RETURN(index, catalog_->GetIndex(index_name));
  return engine_->InvalidateIndex(index->id);
}

}  // namespace aedb::server
