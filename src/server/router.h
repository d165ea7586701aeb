#ifndef AEDB_SERVER_ROUTER_H_
#define AEDB_SERVER_ROUTER_H_

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "server/database.h"
#include "storage/wal.h"

namespace aedb::server {

struct ShardedOptions {
  /// Number of engine shards. Each shard is a full Database: its own
  /// StorageEngine, WAL, lock manager, buffer pool and enclave instance.
  uint32_t shards = 2;
  /// Per-shard option template. `base.data_dir` names the ROOT directory:
  /// shard i lives in <root>/shard-<i> and the coordinator's 2PC decision
  /// log in <root>/2pc.log. Empty puts them all on one simulated disk
  /// (storage::SimFs) the router owns.
  ServerOptions base;
};

/// \brief Shared-nothing shard router + two-phase-commit coordinator.
///
/// Partitioning is by TPC-C warehouse id: a statement whose WHERE clause (or
/// INSERT column list) pins a `*W_ID` column to a value routes to shard
/// `(w - 1) mod N`. Tables without a warehouse column (Item) are reference
/// tables: replicated on every shard — reads go to one shard, writes
/// broadcast. A global transaction lazily enlists shards; commit runs
/// two-phase commit when more than one enlisted shard wrote:
///
///     phase 0   read-only participants commit immediately (no vote needed)
///     phase 1   each writer forces a kPrepare record (fault 2pc/pre_prepare
///               fires before, 2pc/prepared_no_decision after — a failure
///               here is PRESUMED ABORT: no decision record exists, recovery
///               rolls every participant back)
///     decision  the COMMIT decision, a kCommit record {gtid, shards}, is
///               appended to the decision log (2pc.log, a storage::Wal) and
///               synced (fault 2pc/pre_commit_decision before the append,
///               fault 2pc/coordinator_crash after the sync). An append that
///               is refused or tears aborts; once the record landed the txn
///               MUST commit on every shard, across any crash, so a failed
///               sync leaves every writer in doubt (kUnavailable)
///     phase 2   each writer CommitPrepared()s; a failure leaves the shard
///               in-doubt and RecoverInDoubt()/Open() finishes the job
///
/// A decision is needed only until phase 2 has committed every writer. Past
/// kDecisionLogBytes the log is rewritten as just the decisions still
/// pending, so it stays bounded however many transactions commit.
///
/// The AE invariant: each shard owns its own enclave, attested independently
/// by the driver (per-node enclave state is the unit of attestation). Errors
/// surfaced from shard i carry an " [shard=i]" suffix so the driver
/// invalidates and re-attests exactly that shard's session.
class ShardedDatabase : public SqlBackend {
 public:
  /// The shards and 2pc.log live on `fs` under `base.data_dir`; the caller
  /// then runs Open(). Without an `fs` the router takes the disk when
  /// `base.data_dir` is set (and the caller runs Open()), else a fresh SimFs
  /// of its own, and is open at once.
  ShardedDatabase(ShardedOptions options,
                  attestation::HostGuardianService* hgs,
                  const enclave::EnclaveImage* image,
                  std::shared_ptr<storage::Fs> fs = nullptr);

  /// Decision-log size past which it is cut down to the pending decisions.
  static constexpr uint64_t kDecisionLogBytes = 16 * 1024;

  // ----- SqlBackend -----
  Status ExecuteDdl(const std::string& sql, uint64_t session_id = 0) override;
  Result<DescribeResult> DescribeParameterEncryption(
      const std::string& sql, Slice client_dh_public) override;
  uint64_t BeginTransaction() override;
  Status CommitTransaction(uint64_t txn) override;
  Status RollbackTransaction(uint64_t txn) override;
  Result<sql::ResultSet> Execute(const std::string& sql,
                                 const std::vector<types::Value>& params,
                                 uint64_t txn = 0, uint64_t session_id = 0,
                                 uint32_t deadline_ms = 0) override;
  Result<sql::ResultSet> ExecuteNamed(
      const std::string& sql,
      const std::vector<std::pair<std::string, types::Value>>& params,
      uint64_t txn = 0, uint64_t session_id = 0,
      uint32_t deadline_ms = 0) override;
  Result<KeyDescription> GetKeyDescription(uint32_t cek_id) override;
  Result<DescribeResult> Attest(Slice client_dh_public) override;
  Result<types::EncryptionType> ColumnEncryption(
      const std::string& table, const std::string& column) override;
  Status AlterColumnMetadataForClientTool(
      const std::string& table, const std::string& column,
      const sql::EncryptionSpec& enc) override;
  Status ForwardKeysToEnclave(uint64_t session_id, uint64_t nonce,
                              Slice sealed) override;
  Status ForwardEncryptionAuthorization(uint64_t session_id, uint64_t nonce,
                                        Slice sealed) override;
  sql::Catalog& catalog() override;
  DatabaseStats Stats() const override;
  Status Open() override;
  Status Shutdown() override;
  const RecoveryInfo& recovery_info() const override { return recovery_info_; }
  Status SyncWals() override;

  uint32_t shard_count() const override { return options_.shards; }
  Result<DescribeResult> AttestShard(uint32_t shard,
                                     Slice client_dh_public) override;
  Status ForwardKeysToShard(uint32_t shard, uint64_t session_id,
                            uint64_t nonce, Slice sealed) override;
  Status ForwardAuthorizationToShard(uint32_t shard, uint64_t session_id,
                                     uint64_t nonce, Slice sealed) override;
  Status ExecuteDdlOnShard(uint32_t shard, const std::string& sql,
                           uint64_t session_id) override;

  // ----- sharding introspection / crash simulation -----
  Database* shard(uint32_t i) { return shards_[i].get(); }
  uint32_t ShardOfWarehouse(int64_t w) const;
  /// Simulated crash+restart of one shard only: its enclave loses all keys
  /// and sessions, it reopens over its own files (Database::Restart) and
  /// rejoins the shared wait-for graph. Other shards are untouched.
  /// Prepared-undecided txns come back in-doubt; call RecoverInDoubt() to
  /// settle them from the decision log.
  Result<storage::RecoveryResult> RestartShard(uint32_t i);
  /// Settles every in-doubt transaction on every shard against the 2PC
  /// decision log: logged-commit gtids finish via CommitPrepared, everything
  /// else is presumed abort. Empties the decision log once all are settled,
  /// which also lifts its poison. Run it with no commit in flight.
  Status RecoverInDoubt();
  /// Cross-shard transactions that went through full 2PC (gauge for tests
  /// and BENCH_shard.json).
  uint64_t two_phase_commits() const { return two_phase_commits_; }

 private:
  /// How one statement routes. Cached per SQL text (TPC-C reuses a fixed
  /// statement set, so the parse cost is paid once).
  struct RoutePlan {
    bool is_write = false;       // INSERT/UPDATE/DELETE
    bool is_select = false;
    /// True when the statement pins a warehouse: route to one shard.
    bool pinned = false;
    bool dist_is_param = false;
    std::string dist_param;      // lower-cased @name carrying the warehouse
    int64_t dist_literal = 0;
    /// Table has no *W_ID column: replicated reference table (Item).
    bool reference_table = false;
    // Broadcast-SELECT merge shape.
    std::vector<sql::AggFunc> aggs;  // per select item
    bool has_agg = false;
    bool has_group_by = false;
    std::string order_by;
    bool order_desc = false;
    int64_t limit = -1;
  };

  struct GlobalTxn {
    std::map<uint32_t, uint64_t> locals;  // shard -> local txn id
  };

  Result<const RoutePlan*> PlanFor(const std::string& sql);
  /// Resolves the pinned warehouse value for `plan` from named or positional
  /// params (positional order = first-appearance order, matching the
  /// binder's deduction).
  Result<int64_t> ResolveWarehouse(
      const RoutePlan& plan,
      const std::vector<types::Value>* positional,
      const std::vector<std::pair<std::string, types::Value>>* named,
      const std::string& sql);
  /// Local txn on `shard` for global txn `gtid`, begun on first use and named
  /// by `gtid` in the shards' shared wait-for graph.
  Result<uint64_t> LocalTxnFor(uint64_t gtid, uint32_t shard);
  /// First shard already enlisted in `gtid` (for reference-table reads), or
  /// `fallback` when none.
  uint32_t PreferredReadShard(uint64_t gtid, uint32_t fallback);
  /// The shared execution path behind Execute/ExecuteNamed.
  Result<sql::ResultSet> Route(
      const std::string& sql,
      const std::vector<types::Value>* positional,
      const std::vector<std::pair<std::string, types::Value>>* named,
      uint64_t txn, uint64_t session_id, uint32_t deadline_ms);
  Result<sql::ResultSet> RunOnShard(
      uint32_t s, const std::string& sql,
      const std::vector<types::Value>* positional,
      const std::vector<std::pair<std::string, types::Value>>* named,
      uint64_t local_txn, uint64_t session_id, uint32_t deadline_ms);
  /// Merges per-shard result sets of a broadcast SELECT: aggregates combine
  /// (COUNT/SUM add, MIN/MAX fold), plain rows concatenate, then ORDER BY /
  /// LIMIT re-apply.
  Result<sql::ResultSet> MergeResults(const RoutePlan& plan,
                                      std::vector<sql::ResultSet> parts);
  /// Commits a global transaction: direct commit for <=1 writer, 2PC else.
  Status CommitGlobal(uint64_t gtid, GlobalTxn txn);
  /// Appends the COMMIT decision for `gtid` (presumed abort: only commits
  /// are logged) and holds it pending. Returns its LSN, for SyncUpTo.
  Result<uint64_t> LogDecision(uint64_t gtid, Bytes shards);
  /// Phase 2 committed every writer of `gtid`: its decision may go.
  void FinishDecision(uint64_t gtid);
  /// Rewrites the decision log as exactly the pending decisions. Holds
  /// decision_mu_.
  Status CompactDecisionsLocked();

  ShardedOptions options_;
  /// The disk the shards and 2pc.log share.
  std::shared_ptr<storage::Fs> fs_;
  /// fsyncs of the router's own files (the root directory).
  storage::fsio::FsyncCount fsyncs_{0};
  std::vector<std::unique_ptr<Database>> shards_;
  /// One wait-for graph for every shard (see the constructor).
  std::shared_ptr<storage::WaitForGraph> graph_ =
      std::make_shared<storage::WaitForGraph>();
  bool opened_ = false;
  RecoveryInfo recovery_info_;

  std::mutex plan_mu_;
  std::map<std::string, RoutePlan> plans_;

  std::mutex txn_mu_;
  std::map<uint64_t, GlobalTxn> gtxns_;
  uint64_t next_gtid_ = 1;

  /// 2pc.log, opened by Open().
  std::unique_ptr<storage::Wal> decisions_;
  /// Covers each decision's append together with pending_decisions_, so a
  /// compaction never cuts a decision it has not seen. Syncs run outside
  /// it, so concurrent decisions share an fsync.
  std::mutex decision_mu_;
  /// gtid -> writer shard ids, for each decision whose phase 2 has not
  /// finished (in doubt included).
  std::map<uint64_t, Bytes> pending_decisions_;
  std::atomic<uint64_t> two_phase_commits_{0};
};

}  // namespace aedb::server

#endif  // AEDB_SERVER_ROUTER_H_
