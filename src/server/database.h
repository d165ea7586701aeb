#ifndef AEDB_SERVER_DATABASE_H_
#define AEDB_SERVER_DATABASE_H_

#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "attestation/attestation.h"
#include "common/query_context.h"
#include "enclave/enclave.h"
#include "enclave/worker_pool.h"
#include "sql/binder.h"
#include "sql/executor.h"
#include "sql/parser.h"
#include "storage/engine.h"

namespace aedb::server {

struct ServerOptions {
  bool enable_enclave = true;
  /// 0 = synchronous enclave calls (one gate crossing per expression);
  /// >0 = enclave worker threads with queued submission (paper §4.6).
  int enclave_worker_threads = 0;
  /// Worker spin-poll duration before sleeping. On a single-core host long
  /// spins steal cycles from the producers; the paper's 20-core testbed
  /// could afford pinned spinning workers.
  uint64_t enclave_worker_spin_us = 50;
  enclave::EnclaveConfig enclave_config;
  storage::EngineOptions engine;
  std::string boot_configuration = "known-good-boot";
  uint32_t hypervisor_version = 1;
  /// Capture serialized request/response bytes for leakage inspection.
  bool capture_tds = false;
  /// Simulated client↔server network latency charged per round trip
  /// (Execute and sp_describe each cost one). Models why SQL-PT-AEConn
  /// loses ~36% to the extra describe round trip (paper §5.4.1).
  uint32_t simulated_network_us = 0;
  /// Rows per execution morsel: the executor evaluates encrypted predicates
  /// over batches of this size with one enclave transition per morsel
  /// (paper §4.6 amortization). 1 = row-at-a-time.
  size_t eval_batch_size = 256;
  /// Bound on queued (not yet picked up) enclave work items; 0 = unbounded.
  /// A full queue sheds expired queued morsels first, then rejects the
  /// submission with kOverloaded.
  size_t enclave_queue_depth = 0;
  /// Admission gate: max concurrently executing queries; 0 = unbounded.
  /// Excess queries are rejected fast — before parsing or any enclave work —
  /// with kOverloaded carrying a retry-after hint.
  size_t max_inflight_queries = 0;
  /// The retry-after hint (milliseconds) attached to admission rejections.
  uint32_t overload_retry_after_ms = 20;
  /// Where the WAL, DDL log, page store, checkpoint file and clean-shutdown
  /// marker live; Open() recovers from them. Empty (the default) puts them
  /// on a simulated disk the Database owns (storage::SimFs), which lives as
  /// long as the Database does — the mode most tests run in.
  std::string data_dir;
  /// Background checkpoint trigger: when the durable WAL grows past this many
  /// bytes, a checkpoint is taken and the log truncated. 0 disables the
  /// background checkpointer (manual Checkpoint() still works).
  uint64_t checkpoint_wal_bytes = 0;
  // Buffer-pool sizing (engine.pool_pages), the background flusher
  // (engine.flush_interval_ms) and the group-commit window
  // (engine.group_commit_window_us) are configured on `engine` directly.
};

/// Snapshot of server-side counters (enclave boundary accounting included)
/// for benches and the net server's stats surface.
struct DatabaseStats {
  uint64_t enclave_calls = 0;
  uint64_t enclave_evals = 0;
  uint64_t enclave_comparisons = 0;
  uint64_t enclave_transitions = 0;
  /// Amortization gauge: (evals + comparisons) / transitions.
  double values_per_transition = 0.0;
  // Overload-control gauges (PR 4).
  uint64_t queries_admitted = 0;   // passed the admission gate
  uint64_t queries_rejected = 0;   // kOverloaded at the admission gate
  uint64_t queries_expired = 0;    // finished with kDeadlineExceeded
  uint64_t lock_waits_expired = 0; // lock waits cut short by a query deadline
  uint64_t lock_deadlocks = 0;     // lock requests failed as deadlock victims
  uint64_t pool_queue_highwater = 0;
  uint64_t pool_expired_dropped = 0;   // morsels shed as kDeadlineExceeded
  uint64_t pool_overload_rejected = 0; // submissions shed as kOverloaded
  // Durability gauges.
  uint64_t recovery_ms = 0;            // wall time of the last Open() recovery
  uint64_t wal_records_replayed = 0;   // WAL tail records replayed at Open()
  // The two log gauges cover wal.log and ddl.log (ShardedDatabase adds
  // 2pc.log): every append-only file is a storage::Wal.
  uint64_t torn_bytes_dropped = 0;     // torn tail bytes dropped
  uint64_t checkpoints_taken = 0;
  uint64_t wal_bytes = 0;              // current durable WAL size
  uint64_t fsyncs = 0;                 // fsyncs of this database's files
  uint64_t wal_file_errors = 0;        // torn writes, failed fsyncs or
                                       // rewrites (Wal::file_errors)
  // Buffer-pool gauges (PR 8).
  uint64_t pool_hits = 0;
  uint64_t pool_misses = 0;
  uint64_t pool_evictions = 0;
  uint64_t pool_writebacks = 0;        // dirty pages written to the store
  uint64_t pool_pinned_highwater = 0;
  // Group-commit gauges (PR 8).
  uint64_t group_commit_batches = 0;   // cohort fsyncs performed by SyncUpTo
  uint64_t commit_sync_requests = 0;   // commits that reached the barrier
  /// Amortization gauge: commit_sync_requests / group_commit_batches
  /// (0 when no cohort fsync has run).
  double commits_per_fsync = 0.0;
};

/// Key metadata for one CEK as shipped to the driver: the encrypted CEK
/// value(s) plus the CMK metadata needed to unwrap and verify them.
struct KeyDescription {
  uint32_t cek_id = 0;
  keys::CekInfo cek;
  keys::CmkInfo cmk;
};

/// Output of sp_describe_parameter_encryption (paper §3, §4.1): per-parameter
/// encryption types, the CEKs the enclave needs, and — when the query needs
/// the enclave and the client supplied a DH key — attestation material.
struct DescribeResult {
  struct ParamInfo {
    std::string name;
    types::TypeId type = types::TypeId::kInt64;
    types::EncryptionType enc;
  };
  std::vector<ParamInfo> params;
  std::vector<KeyDescription> keys;          // all CEKs referenced
  bool requires_enclave = false;
  std::vector<uint32_t> enclave_cek_ids;

  bool attestation_included = false;
  attestation::HealthCertificate health_certificate;
  enclave::AttestationResponse attestation;
};

/// Per-statement adversary-observable wire capture (the simulated TDS
/// stream): what a man-in-the-middle with full server access sees.
struct TdsCapture {
  Bytes last_request;
  Bytes last_response;
};

/// What the last Open() found on disk and did about it.
/// Shared by the single-node Database and the sharded router (which
/// aggregates its shards' numbers).
struct RecoveryInfo {
  bool ran = false;             // Open() performed durable recovery
  bool clean_shutdown = false;  // the clean-shutdown marker was present
  uint64_t recovery_ms = 0;
  uint64_t wal_records_replayed = 0;  // WAL tail records fed to redo
  uint64_t from_checkpoint_lsn = 0;   // 0 = no checkpoint file found
  size_t ddl_statements_replayed = 0;
  storage::RecoveryResult engine;
};

/// \brief The SQL surface a client transport talks to: implemented by the
/// single-node Database and by the sharded router (ShardedDatabase). The
/// shard-aware calls default to single-shard behavior so every existing
/// backend keeps working unchanged; a sharded backend overrides them and the
/// driver attests/keys each shard's enclave independently (per-node
/// attestation is the unit of trust — "Pushing the Limits" §per-database
/// enclave state).
class SqlBackend {
 public:
  virtual ~SqlBackend() = default;

  virtual Status ExecuteDdl(const std::string& sql, uint64_t session_id = 0) = 0;
  virtual Result<DescribeResult> DescribeParameterEncryption(
      const std::string& sql, Slice client_dh_public) = 0;
  virtual uint64_t BeginTransaction() = 0;
  virtual Status CommitTransaction(uint64_t txn) = 0;
  virtual Status RollbackTransaction(uint64_t txn) = 0;
  virtual Result<sql::ResultSet> Execute(const std::string& sql,
                                         const std::vector<types::Value>& params,
                                         uint64_t txn = 0,
                                         uint64_t session_id = 0,
                                         uint32_t deadline_ms = 0) = 0;
  virtual Result<sql::ResultSet> ExecuteNamed(
      const std::string& sql,
      const std::vector<std::pair<std::string, types::Value>>& params,
      uint64_t txn = 0, uint64_t session_id = 0, uint32_t deadline_ms = 0) = 0;
  virtual Result<KeyDescription> GetKeyDescription(uint32_t cek_id) = 0;
  virtual Result<DescribeResult> Attest(Slice client_dh_public) = 0;
  virtual Result<types::EncryptionType> ColumnEncryption(
      const std::string& table, const std::string& column) = 0;
  virtual Status AlterColumnMetadataForClientTool(
      const std::string& table, const std::string& column,
      const sql::EncryptionSpec& enc) = 0;
  virtual Status ForwardKeysToEnclave(uint64_t session_id, uint64_t nonce,
                                      Slice sealed) = 0;
  virtual Status ForwardEncryptionAuthorization(uint64_t session_id,
                                                uint64_t nonce,
                                                Slice sealed) = 0;
  virtual sql::Catalog& catalog() = 0;
  virtual DatabaseStats Stats() const = 0;
  virtual Status Open() = 0;
  virtual Status Shutdown() = 0;
  virtual const RecoveryInfo& recovery_info() const = 0;
  /// Forces every shard's WAL to disk (the serverd drain path).
  virtual Status SyncWals() = 0;

  // ----- sharding (single-shard defaults) -----
  virtual uint32_t shard_count() const { return 1; }
  /// Attestation against one shard's enclave. Each shard is its own unit of
  /// attestation: the driver verifies and installs CEKs per shard.
  virtual Result<DescribeResult> AttestShard(uint32_t shard,
                                             Slice client_dh_public) {
    if (shard != 0) return Status::InvalidArgument("no such shard");
    return Attest(client_dh_public);
  }
  virtual Status ForwardKeysToShard(uint32_t shard, uint64_t session_id,
                                    uint64_t nonce, Slice sealed) {
    if (shard != 0) return Status::InvalidArgument("no such shard");
    return ForwardKeysToEnclave(session_id, nonce, sealed);
  }
  virtual Status ForwardAuthorizationToShard(uint32_t shard,
                                             uint64_t session_id,
                                             uint64_t nonce, Slice sealed) {
    if (shard != 0) return Status::InvalidArgument("no such shard");
    return ForwardEncryptionAuthorization(session_id, nonce, sealed);
  }
  /// Enclave DDL bound to one shard's session (authorization is sealed to a
  /// specific enclave session, so the driver drives each shard separately).
  virtual Status ExecuteDdlOnShard(uint32_t shard, const std::string& sql,
                                   uint64_t session_id) {
    if (shard != 0) return Status::InvalidArgument("no such shard");
    return ExecuteDdl(sql, session_id);
  }
};

/// \brief The untrusted SQL Server process: query engine + host side of the
/// enclave. Everything here may be inspected by the strong adversary —
/// pages, WAL, plan cache, TDS bytes — and none of it ever holds column
/// plaintext for encrypted columns.
class Database : public SqlBackend {
 public:
  /// `hgs` is the external attestation service (may be null when no enclave);
  /// `image` is the signed enclave binary to load. The files live on `fs`
  /// under `options.data_dir`; the caller then runs Open(). Without an `fs`
  /// the Database takes the disk when `data_dir` is set (and the caller runs
  /// Open()), else a fresh SimFs of its own, and is open at once.
  Database(ServerOptions options, attestation::HostGuardianService* hgs,
           const enclave::EnclaveImage* image,
           std::shared_ptr<storage::Fs> fs = nullptr);
  ~Database();

  // ----- DDL -----
  /// Executes a DDL statement. ALTER TABLE ALTER COLUMN statements that
  /// change encryption run through the enclave and require the client to
  /// have authorized exactly this statement text on `session_id` (§3.2).
  Status ExecuteDdl(const std::string& sql, uint64_t session_id = 0) override;

  // ----- the describe API -----
  Result<DescribeResult> DescribeParameterEncryption(
      const std::string& sql, Slice client_dh_public) override;

  // ----- transactions -----
  uint64_t BeginTransaction() override;
  Status CommitTransaction(uint64_t txn) override;
  Status RollbackTransaction(uint64_t txn) override;

  // ----- parameterized execution -----
  /// `params` are wire values: plaintext-encoded for plaintext parameters,
  /// AEAD cells (kBinary) for encrypted ones (the driver encrypted them).
  /// txn = 0 runs autocommit. deadline_ms > 0 bounds execution: the query's
  /// remaining budget is checked cooperatively at morsel boundaries, bounds
  /// lock waits, and lets the enclave pool drop expired morsels; an expired
  /// query returns typed kDeadlineExceeded.
  Result<sql::ResultSet> Execute(const std::string& sql,
                                 const std::vector<types::Value>& params,
                                 uint64_t txn = 0, uint64_t session_id = 0,
                                 uint32_t deadline_ms = 0) override;

  /// Named-parameter convenience: values are matched to the statement's
  /// deduced parameter order by (case-insensitive) name.
  Result<sql::ResultSet> ExecuteNamed(
      const std::string& sql,
      const std::vector<std::pair<std::string, types::Value>>& params,
      uint64_t txn = 0, uint64_t session_id = 0,
      uint32_t deadline_ms = 0) override;

  /// Key metadata for one CEK (drivers fetch this to decrypt result columns).
  Result<KeyDescription> GetKeyDescription(uint32_t cek_id) override;

  /// Attestation without a statement (drivers establishing a session for
  /// DDL authorization). Fills only the attestation fields.
  Result<DescribeResult> Attest(Slice client_dh_public) override;

  /// A column's current encryption configuration (server metadata).
  Result<types::EncryptionType> ColumnEncryption(
      const std::string& table, const std::string& column) override;

  /// Client-tool support (§2.4.2 round trip for enclave-disabled keys):
  /// changes a column's encryption metadata without transforming data — the
  /// client tool rewrites the rows itself. Refused while the column is
  /// indexed.
  Status AlterColumnMetadataForClientTool(
      const std::string& table, const std::string& column,
      const sql::EncryptionSpec& enc) override;

  // ----- driver→enclave passthrough (server is the man in the middle) -----
  Status ForwardKeysToEnclave(uint64_t session_id, uint64_t nonce,
                              Slice sealed) override;
  Status ForwardEncryptionAuthorization(uint64_t session_id, uint64_t nonce,
                                        Slice sealed) override;

  // ----- crash & recovery (§4.5) -----
  /// Simulates a process crash + restart: the enclave loses all keys and
  /// sessions, everything held in memory (catalog, engine, plan cache) is
  /// dropped, and Open() rebuilds it from the files, which a process crash
  /// does not touch.
  Result<storage::RecoveryResult> Restart();
  Status InvalidateIndexByName(const std::string& index_name);

  // ----- durability -----
  /// Hoisted to namespace scope (shared with ShardedDatabase); the alias
  /// keeps `server::Database::RecoveryInfo` spellings working.
  using RecoveryInfo = ::aedb::server::RecoveryInfo;

  /// Startup: opens the WAL, replays the DDL log (metadata only), loads the
  /// latest checkpoint and runs engine recovery over the WAL tail. No-op
  /// when already open. Idempotent against crashes: a kill -9 at any point
  /// during Open() leaves state the next Open() recovers from identically.
  Status Open() override;

  /// Quiesces the engine (bounded by `quiesce_wait`), writes a checkpoint
  /// file atomically and truncates the WAL. FailedPrecondition when the
  /// engine cannot quiesce or deferred transactions pin the log.
  Status Checkpoint(std::chrono::milliseconds quiesce_wait =
                        std::chrono::milliseconds(2000));

  /// Graceful durable shutdown: stops the background checkpointer, takes a
  /// final checkpoint (best effort), fsyncs the WAL, and writes the
  /// clean-shutdown marker only if the log drained completely. Safe to call
  /// twice; the destructor calls it implicitly for thread cleanup only.
  Status Shutdown() override;

  const RecoveryInfo& recovery_info() const override { return recovery_info_; }

  /// The serverd drain path: force everything appended so far to disk.
  Status SyncWals() override { return engine_->wal().Sync(); }

  // ----- introspection -----
  /// The catalog and the engine are rebuilt by Restart(): references to
  /// them do not survive it.
  sql::Catalog& catalog() override { return *catalog_; }
  storage::StorageEngine& engine() { return *engine_; }
  enclave::Enclave* enclave() { return enclave_.get(); }
  const enclave::VbsPlatform* platform() const { return platform_.get(); }
  const TdsCapture& tds_capture() const { return capture_; }
  uint64_t describe_calls() const { return describe_calls_; }
  /// Counter snapshot including the enclave amortization gauges.
  DatabaseStats Stats() const override;

 private:
  class ServerInvoker;

  Result<const sql::BoundStatement*> GetOrBind(const std::string& sql);
  /// The admission gate. Runs before parsing/binding on every execution path
  /// (positional and named): on OK the in-flight count stays incremented and
  /// the caller must decrement it when the query leaves the system; on
  /// kOverloaded the count is already restored.
  Status AdmitQuery();
  /// Statement execution after admission (parse, bind, deadline stamping,
  /// run). Callers hold an admission slot.
  Result<sql::ResultSet> ExecuteAdmitted(const std::string& sql,
                                         const std::vector<types::Value>& params,
                                         uint64_t txn, uint64_t session_id,
                                         uint32_t deadline_ms);
  std::string DdlLogPath() const { return options_.data_dir + "/ddl.log"; }
  std::string CheckpointPath() const {
    return options_.data_dir + "/checkpoint.db";
  }
  std::string CleanShutdownPath() const {
    return options_.data_dir + "/clean_shutdown";
  }
  void CheckpointerLoop();
  void StopCheckpointer();
  /// (Re)builds, empty, the in-memory state Open() fills: catalog, engine,
  /// DDL log, executor and plan cache.
  void BuildState();

  /// ExecuteDdl minus the logging wrapper (the replay entry point).
  Status ExecuteDdlStatement(const std::string& sql, uint64_t session_id = 0);
  /// Appends `record` to the DDL log and waits until it is durable.
  Status LogDdl(storage::LogRecord record);
  /// Rebuilds the catalog from the DDL log, in recovering mode (Open step 1).
  Status ReplayDdlLog();
  /// Replays a statement that has no commit marker: it was never
  /// acknowledged (crash inside the append→execute→marker window, or a
  /// runtime failure), so either outcome is legal — this picks the one
  /// consistent with whatever WAL records the attempt left behind.
  void ReplayUncommittedDdl(const std::string& sql_text);
  Status ExecuteCreateTable(const sql::CreateTableStmt& stmt);
  Status ExecuteCreateIndex(const sql::CreateIndexStmt& stmt);
  Status ExecuteAlterColumn(const sql::AlterColumnStmt& stmt,
                            const std::string& sql, uint64_t session_id);
  Result<types::EncryptionType> ResolveEncryptionSpec(
      const sql::EncryptionSpec& spec);
  Result<std::unique_ptr<storage::Comparator>> MakeComparator(
      const sql::ColumnDef& col);
  Status RegisterIndexStorage(const sql::IndexDef& index,
                              const sql::ColumnDef& col);
  void ChargeRoundTrip();
  void CaptureRequest(const std::string& sql,
                      const std::vector<types::Value>& params);
  void CaptureResponse(const sql::ResultSet& result);

  ServerOptions options_;
  attestation::HostGuardianService* hgs_;

  /// Every file of this database lives here, under options_.data_dir.
  std::shared_ptr<storage::Fs> fs_;
  /// fsyncs of the database's own files (directories, checkpoint, marker).
  storage::fsio::FsyncCount fsyncs_{0};
  // What a process crash loses: BuildState() makes it, Open() fills it from
  // the files, Restart() drops it and does both again.
  std::unique_ptr<sql::Catalog> catalog_;
  std::unique_ptr<storage::StorageEngine> engine_;
  /// `ddl.log`: every DDL statement, written before it runs.
  std::unique_ptr<storage::Wal> ddl_log_;
  std::unique_ptr<enclave::VbsPlatform> platform_;
  std::unique_ptr<enclave::Enclave> enclave_;
  std::unique_ptr<enclave::EnclaveWorkerPool> worker_pool_;
  std::unique_ptr<ServerInvoker> invoker_;
  std::unique_ptr<sql::Executor> executor_;

  std::mutex plan_cache_mu_;
  std::map<std::string, std::unique_ptr<sql::BoundStatement>> plan_cache_;

  TdsCapture capture_;
  std::atomic<uint64_t> describe_calls_{0};

  // Overload control (PR 4): admission gate + gauges.
  std::atomic<uint64_t> inflight_queries_{0};
  std::atomic<uint64_t> queries_admitted_{0};
  std::atomic<uint64_t> queries_rejected_{0};
  std::atomic<uint64_t> queries_expired_{0};

  // Durability.
  bool opened_ = false;
  /// True while Open() replays the DDL log: DDL executes metadata-only (no
  /// enclave work, no index-build transactions — the WAL replay carries the
  /// data) and nothing is logged again.
  bool recovering_ = false;
  /// Serializes DDL execution. Needed for the DDL log's protocol: a commit
  /// marker binds to the statement record right before it, which only holds
  /// if statement/marker pairs never interleave.
  std::mutex ddl_mu_;
  RecoveryInfo recovery_info_;
  std::mutex checkpoint_mu_;  // serializes checkpoint publish + truncate
  std::atomic<uint64_t> checkpoints_taken_{0};
  std::thread checkpointer_;
  std::atomic<bool> stop_checkpointer_{false};
};

}  // namespace aedb::server

#endif  // AEDB_SERVER_DATABASE_H_
