#ifndef AEDB_STORAGE_ENGINE_H_
#define AEDB_STORAGE_ENGINE_H_

#include <chrono>
#include <condition_variable>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <shared_mutex>
#include <vector>

#include "storage/btree.h"
#include "storage/checkpoint.h"
#include "storage/heap_table.h"
#include "storage/lock_manager.h"
#include "storage/wal.h"

namespace aedb::storage {

struct EngineOptions {
  /// Models SQL Server's constant-time recovery (paper §4.5 / [1]): with CTR
  /// on, deferred transactions do NOT hold row locks after a crash — the
  /// database stays fully available while the "version cleaner" (our
  /// ResolveDeferred) retries index cleanup until enclave keys arrive.
  bool constant_time_recovery = false;
  std::chrono::milliseconds lock_timeout{2000};
  /// Buffer pool capacity in 8 KiB pages (0 = BufferPool::kDefaultPages).
  /// All heap and index pages of this engine share the one pool, so a pool
  /// smaller than the working set exercises real eviction + page-store I/O.
  uint64_t pool_pages = 0;
  /// Background dirty-page flusher period (0 = no flusher thread; dirty
  /// pages write back on eviction and at checkpoints only).
  uint64_t flush_interval_ms = 0;
  /// Group-commit leader linger in microseconds (see Wal::SyncUpTo). 0 keeps
  /// pure natural batching: single-threaded commit behavior is unchanged.
  uint64_t group_commit_window_us = 0;
};

/// A transaction that crashed between Prepare and the coordinator's decision.
/// Recovery re-registers it as active+prepared with its row locks held; the
/// coordinator (or its decision log) must settle it via CommitPrepared/Abort.
struct InDoubtTxn {
  uint64_t txn_id = 0;
  uint64_t gtid = 0;  // coordinator's global transaction id (kPrepare payload)
};

struct RecoveryResult {
  size_t redone = 0;
  size_t undone = 0;
  std::vector<uint64_t> deferred_txns;
  /// Prepared-but-undecided transactions found in the log (2PC in-doubt).
  std::vector<InDoubtTxn> in_doubt;
  std::vector<uint32_t> rebuild_pending_indexes;
  /// LSN horizon of the checkpoint recovery started from (0 = no checkpoint:
  /// the whole log replayed).
  uint64_t from_checkpoint_lsn = 0;
  /// Records past the checkpoint horizon — what redo actually walked. The
  /// reopened log can be longer when a crash landed between checkpoint
  /// publish and log truncation; those pre-horizon records are filtered, not
  /// replayed, and do not count here.
  size_t log_tail_records = 0;
  /// Heap records whose table no longer exists (e.g. left behind by DDL that
  /// never reached its journal commit marker). Skipped, not replayed — an
  /// object that was never acknowledged cannot be required for recovery.
  size_t orphaned_records_skipped = 0;
};

/// \brief Transactional storage: WAL-logged heap tables and B+-tree indexes,
/// exclusive locking, and crash recovery with the paper's §4.5 semantics.
///
/// Recovery is replay-based: heap state is reconstructed physically
/// (deterministic redo of page operations, slot-exact), index undo is
/// logical. An encrypted range index whose CEK is absent from the enclave at
/// recovery time cannot be rebuilt — it is marked *rebuild-pending*, loser
/// transactions touching it become *deferred* (holding their row locks unless
/// CTR is on), and everything resolves when the client connects and keys
/// arrive (ResolveDeferred) or the index is invalidated (InvalidateIndex).
class StorageEngine {
 public:
  /// The engine's files live on `fs` under `dir`: its log `<dir>/wal.log`
  /// and its page store `<dir>/pages`. Without an `fs` the engine gets a
  /// fresh SimFs of its own (tests, benches).
  explicit StorageEngine(EngineOptions options = EngineOptions{},
                         std::shared_ptr<Fs> fs = nullptr,
                         const std::string& dir = "");

  StorageEngine(const StorageEngine&) = delete;
  StorageEngine& operator=(const StorageEngine&) = delete;

  /// Opens the engine's files when a process starts over them: wipes the
  /// page store (a cache of the previous process's object ids) and opens
  /// the log (Wal::Open). Recover() then rebuilds state from the log.
  Status Open();

  // ----- catalog registration (done once at startup, before use) -----
  Status CreateTable(uint32_t table_id);
  Status CreateIndex(uint32_t index_id, uint32_t table_id,
                     std::unique_ptr<Comparator> comparator, bool unique);
  Status DropIndex(uint32_t index_id);

  HeapTable* table(uint32_t table_id);
  BTree* index_tree(uint32_t index_id);
  /// Registered catalog ids (for consistency checkers that must visit every
  /// table/index, e.g. the crash-point torture verifier).
  std::vector<uint32_t> TableIds() const;
  std::vector<uint32_t> IndexIds() const;
  /// The comparator an index orders by (for executor-side bound checks).
  const Comparator* index_comparator(uint32_t index_id) const;

  /// OK when the index may serve reads/writes; FailedPrecondition when it is
  /// invalid or has pending recovery work.
  Status CheckIndexUsable(uint32_t index_id) const;
  bool IndexInvalid(uint32_t index_id) const;

  // ----- transactions -----
  /// `gtid` is the router's global transaction id when this is one shard's
  /// part of a global transaction (0 = a local transaction); it names the
  /// transaction in the wait-for graph the shards share.
  uint64_t Begin(uint64_t gtid = 0);
  Status Commit(uint64_t txn_id);
  /// 2PC phase one: forces a kPrepare record (payload = `gtid`) durable and
  /// marks the txn prepared. The txn stays active with all locks held; after
  /// OK the engine guarantees CommitPrepared can succeed across a crash.
  /// On a durability failure the txn is aborted (vote NO) and
  /// TransactionAborted is returned.
  Status Prepare(uint64_t txn_id, uint64_t gtid);
  /// 2PC phase two: commits a prepared txn. Unlike Commit, a durability
  /// failure does NOT abort — the coordinator already decided commit — the
  /// txn is re-parked as prepared/in-doubt and the error returned so a later
  /// retry or recovery finishes the job.
  Status CommitPrepared(uint64_t txn_id);
  /// Active transactions in the prepared state (after Recover: the in-doubt
  /// set awaiting a coordinator decision).
  std::vector<InDoubtTxn> InDoubtTxns() const;
  /// Rolls back. If index undo hits a missing enclave key the transaction is
  /// parked as deferred (OK is still returned; see DeferredTxns()).
  Status Abort(uint64_t txn_id);
  /// Logged mutations recorded so far by an active transaction (0 for an
  /// unknown/finished txn). Lets the server tell whether a failed statement
  /// applied anything before it died — the partial-write test behind the
  /// mid-statement-overload → transaction-abort conversion.
  size_t TxnOpCount(uint64_t txn_id) const;

  // ----- logged mutations (caller must hold row locks as appropriate) -----
  Result<Rid> HeapInsert(uint64_t txn_id, uint32_t table_id, Slice record);
  Status HeapDelete(uint64_t txn_id, uint32_t table_id, const Rid& rid);
  Status IndexInsert(uint64_t txn_id, uint32_t index_id, const Bytes& key,
                     const Rid& rid);
  Status IndexDelete(uint64_t txn_id, uint32_t index_id, const Bytes& key,
                     const Rid& rid);

  // ----- locking -----
  Status LockRow(uint64_t txn_id, uint32_t table_id, const Rid& rid);
  Status LockTable(uint64_t txn_id, uint32_t table_id);
  bool RowLockedByOther(uint64_t txn_id, uint32_t table_id, const Rid& rid) const;

  /// Statement-scope reader/writer latch over `table_id` and its indexes.
  /// The executor's multi-step mutations (index delete, heap delete, heap
  /// insert, index insert for one row) hold it exclusive; lock-free readers
  /// hold it shared across an index probe + row fetch so they never observe
  /// the half-applied middle. Callers must never block on the lock manager
  /// while holding it. Null for unknown tables.
  std::shared_mutex* StatementLatch(uint32_t table_id);

  // ----- checkpointing -----
  /// Captures a quiescent point-in-time image: blocks new Begin() calls,
  /// waits up to `wait` for in-flight transactions to finish, then snapshots
  /// every heap and index under meta_mu_. Refuses (FailedPrecondition) if the
  /// engine does not quiesce in time, or if deferred transactions / pending
  /// index rebuilds pin the log (their undo needs the full WAL).
  Result<std::shared_ptr<const CheckpointImage>> CaptureCheckpoint(
      std::chrono::milliseconds wait);

  /// Installs `base` as the recovery base: Recover() will restore it and
  /// replay only WAL records with lsn >= base->checkpoint_lsn. Pass nullptr
  /// to clear. The caller (server layer) persists the image; the engine only
  /// consumes it.
  void SetCheckpointBase(std::shared_ptr<const CheckpointImage> base);
  std::shared_ptr<const CheckpointImage> checkpoint_base() const;

  // ----- recovery (§4.5) -----
  /// Rebuilds all state from the checkpoint base (if any) plus the WAL tail.
  /// Call after registering tables/indexes. Idempotent: safe to re-run after
  /// a crash mid-recovery.
  Result<RecoveryResult> Recover();

  /// Retries deferred work; call when CEKs are (re)installed in the enclave.
  /// "When the client connects and sends keys to the enclave, the deferred
  /// transactions are resolved."
  Status ResolveDeferred();

  /// Forced resolution: drop the index's recovery obligations and mark it
  /// invalid. Used by timeout/log-space policies, and automatically when no
  /// enclave is configured.
  Status InvalidateIndex(uint32_t index_id);

  std::vector<uint64_t> DeferredTxns() const;
  bool HasDeferredTxns() const;

  /// OK when the log could be truncated; FailedPrecondition while deferred
  /// transactions pin it (the §4.5 log-truncation hazard).
  Status CanTruncateLog() const;

  Wal& wal() { return wal_; }
  const Wal& wal() const { return wal_; }
  /// fsyncs the engine's files took: the log's and the page store's.
  uint64_t fsyncs() const { return wal_.fsyncs() + store_.fsyncs(); }
  LockManager& locks() { return locks_; }
  const LockManager& locks() const { return locks_; }
  const EngineOptions& options() const { return options_; }
  BufferPool& pool() { return *pool_; }
  const BufferPool& pool() const { return *pool_; }

  /// Best-effort scrub of dead row bytes in one table; refused while any
  /// transaction is active or deferred (their undo may still resurrect).
  Status ScrubDeadRows(uint32_t table_id);

  /// Adversary view: every raw page image of every table.
  void ForEachPageRaw(const std::function<void(uint32_t, Slice)>& fn) const;

 private:
  struct IndexState {
    uint32_t table_id = 0;
    bool unique = false;
    std::unique_ptr<Comparator> comparator;
    std::unique_ptr<BTree> tree;
    bool invalid = false;
    bool rebuild_pending = false;
    mutable std::mutex latch;
  };

  struct TableState {
    std::unique_ptr<HeapTable> heap;
    mutable std::mutex latch;
    /// See StatementLatch().
    mutable std::shared_mutex stmt_latch;
  };

  struct ActiveTxn {
    std::vector<LogRecord> ops;  // this txn's mutations, for runtime undo
    bool prepared = false;       // 2PC: voted yes, awaiting decision
    uint64_t gtid = 0;           // 2PC: coordinator's global txn id
  };

  struct DeferredTxn {
    uint64_t txn_id = 0;
    std::vector<LogRecord> pending;  // undo work, already reversed
    std::set<uint32_t> pending_indexes;
    bool logged = true;  // every CLR so far reached the log
  };

  /// RAII companion to the finalizing_ counter: decrements it and wakes
  /// checkpoint capture on every exit path of Commit/Abort.
  struct Finalizer {
    StorageEngine* engine;
    ~Finalizer();
  };

  Result<TableState*> FindTable(uint32_t table_id);
  Result<IndexState*> FindIndex(uint32_t index_id);
  const IndexState* FindIndexConst(uint32_t index_id) const;

  /// Undoes one log record (logical for indexes) and logs its CLR.
  /// KeyNotInEnclave bubbles up so the caller can defer. A CLR the log
  /// refuses leaves the undo standing and clears `*logged`.
  Status UndoRecord(const LogRecord& rec, bool* logged);
  /// Finishes a deferred txn: logs Abort (if every CLR landed) and releases
  /// its locks.
  void FinishDeferred(const DeferredTxn& txn);
  Status RebuildIndexFromLog(IndexState* index, uint32_t index_id);

  EngineOptions options_;
  // The files first, then the pool before the table/index maps: heaps and
  // trees drop their pool objects on destruction, so the pool and its store
  // must be destroyed after them.
  std::shared_ptr<Fs> fs_;
  FilePageStore store_;
  std::unique_ptr<BufferPool> pool_;
  Wal wal_;
  LockManager locks_;

  mutable std::mutex meta_mu_;  // guards the maps + txn table + deferred list
  std::condition_variable meta_cv_;  // signals txn-table transitions
  std::map<uint32_t, std::unique_ptr<TableState>> tables_;
  std::map<uint32_t, std::unique_ptr<IndexState>> indexes_;
  std::map<uint64_t, ActiveTxn> active_;
  std::vector<DeferredTxn> deferred_;
  uint64_t next_txn_id_ = 1;
  /// Transactions past their active_ erase but before their commit/abort
  /// record is durable. A checkpoint taken in that window would bake loser
  /// effects with no undo info, so capture waits for this to reach zero too.
  uint64_t finalizing_ = 0;
  /// True while CaptureCheckpoint holds the engine quiescent; Begin() blocks.
  bool checkpoint_pending_ = false;
  std::shared_ptr<const CheckpointImage> checkpoint_base_;
};

}  // namespace aedb::storage

#endif  // AEDB_STORAGE_ENGINE_H_
