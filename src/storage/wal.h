#ifndef AEDB_STORAGE_WAL_H_
#define AEDB_STORAGE_WAL_H_

#include <condition_variable>
#include <mutex>
#include <string>
#include <vector>

#include "storage/fsio.h"
#include "storage/page.h"

namespace aedb::storage {

enum class LogRecordType : uint8_t {
  /// No longer written (recovery finds a transaction from its op records);
  /// recovery still skips it, so logs that hold one replay.
  kBegin = 1,
  kCommit = 2,
  kAbort = 3,
  kHeapInsert = 4,  // object_id=table, rid, payload1=row image
  kHeapDelete = 5,  // object_id=table, rid, payload1=old row image
  kIndexInsert = 6, // object_id=index, rid, payload1=key
  kIndexDelete = 7, // object_id=index, rid, payload1=key
  /// Compensation record: undo of a kHeapDelete brought the slot back to
  /// life. Every runtime undo logs its compensating action (the other three
  /// undo shapes reuse kHeapDelete / kIndexInsert / kIndexDelete), so redo
  /// replays aborts at the position they actually happened — without this, a
  /// delete + rollback + re-delete of the same row replays as two deletes of
  /// one slot and recovery fails.
  kHeapResurrect = 8,  // object_id=table, rid
  /// Two-phase commit vote record (payload1 = u64 global txn id). A prepared
  /// transaction's effects are durable and its locks stay held; recovery
  /// neither commits nor undoes it — the txn is re-registered in-doubt and
  /// waits for the coordinator's decision (CommitPrepared / Abort).
  kPrepare = 9,
  /// A DDL statement in `ddl.log`, written before it executes (payload1 = the
  /// catalog's next table, index and CEK ids as three u32s, then the SQL
  /// text). A `kCommit` right after it marks the statement acknowledged.
  kDdl = 10,
};

/// One WAL record. Row images and index keys are stored exactly as they live
/// on pages — encrypted cells stay encrypted in the log, which is why backups
/// and log shipping leak nothing (paper §1.1 "in transit during backups").
struct LogRecord {
  uint64_t lsn = 0;
  uint64_t txn_id = 0;
  LogRecordType type = LogRecordType::kBegin;
  uint32_t object_id = 0;
  Rid rid;
  Bytes payload1;

  void SerializeTo(Bytes* out) const;
  static Result<LogRecord> Deserialize(Slice in, size_t* offset);
};

/// What Wal::ParseImage recovered from a durable byte image. A crash can
/// leave a torn frame at the tail; parsing stops there and reports it, never
/// failing — a half-written record is the expected shape of a crash, not
/// corruption of the prefix before it.
struct WalLoadResult {
  std::vector<LogRecord> records;
  /// Byte offset just past the last intact frame (== start of any torn tail).
  size_t bytes_consumed = 0;
  /// End offset of each intact frame, in order. frame_ends[i] is a valid
  /// crash point: cutting the image there loses records i+1.. and nothing
  /// else. Used by the crash-point torture harness.
  std::vector<size_t> frame_ends;
  /// True when trailing bytes after the last intact frame were dropped
  /// (truncated frame, checksum mismatch, or undecodable body).
  bool torn_tail = false;
};

/// The WAL's frame checksum (FNV-1a 32-bit). Not cryptographic — it only
/// needs to tell "frame ends at a clean boundary" from "torn mid-write".
/// The checkpoint file reuses it.
uint32_t FrameChecksum(Slice body);

/// Append-only log of `LogRecord`s. Every append-only file in a data
/// directory is one: a shard's `wal.log` (data ops), its `ddl.log` (`kDdl`
/// statements and their `kCommit` markers) and the 2PC coordinator's
/// `2pc.log` (`kCommit` decisions). So framing, torn-tail truncation, fsync,
/// group commit, fault points and the poison rule have one implementation.
///
/// The log's file is its only copy: Append writes the frame to the file
/// through the Fs, Sync fsyncs it, and Snapshot, RawBytes, TruncateBefore and
/// record_count read it back. RawBytes is the adversary-observable disk form,
/// scanned by leakage tests and cut at arbitrary prefixes by the torture
/// harness. Truncation rewrites the file atomically (tmp → fsync → rename →
/// fsync dir).
///
/// On-disk framing, per record:
///
///     u32  body length
///     u32  FNV-1a checksum of the body
///     ...  body (LogRecord::SerializeTo; its first 8 bytes are the LSN)
///
/// The checksum is what lets recovery distinguish "log ends here" from "log
/// was torn mid-write here": a torn tail fails the length or checksum test
/// and is dropped, everything before it replays. No intact frame ever
/// follows a torn one: a torn write poisons the log (see poisoned()).
///
/// Fault points (see fault/fault.h), shared by every Wal: each fires in
/// whichever log appends or syncs next.
///   wal/append       Append fails before writing anything.
///   wal/torn_append  Append writes only the first `arg` bytes of the frame
///                    (default: half) to the file and fails — simulates a
///                    crash mid-write. Like a short or failed write(), it
///                    poisons the log until a rewrite from the intact prefix.
///   wal/sync         Sync fails (fsync error at the commit durability
///                    point); the real fsync is skipped.
class Wal {
 public:
  /// The log is the file `path` on `fs`, which must outlive the Wal. A
  /// missing file is an empty log; the first Append creates it.
  Wal(Fs* fs, std::string path);

  Wal(const Wal&) = delete;
  Wal& operator=(const Wal&) = delete;

  /// Adopts the file as the log when a process starts over it: creates it
  /// (durably, with its directory entry) when missing, drops any torn tail
  /// durably, and continues its LSNs. Recovery then replays it (Snapshot).
  Status Open();

  /// Assigns the next LSN, frames the record and appends it to the file
  /// (not yet fsynced).
  Result<uint64_t> Append(LogRecord record);

  /// Durability barrier: everything appended so far survives a power cut.
  /// The `wal/sync` fault point fires first (a fired fault skips the fsync —
  /// the commit must not become durable), and a poisoned log refuses.
  Status Sync();

  /// Group-commit durability barrier: returns once every record up to and
  /// including `lsn` is durable. Concurrent callers form a cohort — one
  /// leader performs the fsync (after an optional `group_commit_window_us`
  /// linger that lets more committers publish their records) and its single
  /// fsync covers every follower whose lsn was appended before it ran, so
  /// commits-per-fsync ≫ 1 under concurrency. With one caller the behavior
  /// is exactly Sync(). The `wal/sync` fault point fires per *caller* at
  /// entry — before joining any cohort — so a faulted committer never has
  /// its commit made durable by a neighbor's fsync. A leader's failed fsync
  /// poisons the log (see poisoned()): followers are NOT allowed to retry
  /// the fsync and trust its result, so no commit is ever acked off a
  /// barrier that reported an error. A record some fsync already covered is
  /// acked even if the log was poisoned since.
  Status SyncUpTo(uint64_t lsn);

  /// Leader linger before the cohort fsync (0 = fsync immediately; natural
  /// batching from followers arriving during a running fsync still applies).
  void set_group_commit_window_us(uint64_t us);

  /// Cohort fsyncs performed by SyncUpTo.
  uint64_t group_commit_batches() const;
  /// SyncUpTo calls that reached the durability barrier (== acked commits
  /// when the engine routes commits through SyncUpTo).
  uint64_t sync_requests() const;

  /// Reads the file and parses it up to any torn tail (the recovery source).
  Result<std::vector<LogRecord>> Snapshot() const;
  uint64_t next_lsn() const;
  /// Raises next_lsn to at least `lsn` — used after loading a checkpoint
  /// whose LSN horizon is past the (possibly truncated-to-empty) log tail.
  void EnsureNextLsn(uint64_t lsn);

  /// The file's bytes (adversary view; framed). Empty when it is missing.
  Bytes RawBytes() const;

  /// Parses a durable image, dropping any torn tail. Never fails.
  static WalLoadResult ParseImage(Slice image);

  /// Replaces the log with the intact prefix of `image` — the "reopen after
  /// crash" path: the file is atomically rewritten to match. Returns the
  /// parse result so callers can see how much of the tail was lost.
  WalLoadResult LoadImage(Slice image);

  /// Drops records up to `lsn` exclusive (log truncation after checkpoint),
  /// and everything from the first bad frame on, by rewriting the file
  /// atomically. A crash between the checkpoint publish and this rewrite
  /// only leaves already-checkpointed records in the file, which recovery
  /// filters out by LSN. May run while other threads Append and SyncUpTo
  /// (see SyncUpTo).
  Status TruncateBefore(uint64_t lsn);

  /// Intact frames in the file.
  size_t record_count() const;

  // ----- durability gauges -----
  /// fsyncs issued by this log (commit-path syncs, opens and rewrites).
  uint64_t fsyncs() const;
  /// Bytes of torn tail dropped across Open/LoadImage calls.
  uint64_t torn_bytes_dropped() const;
  /// The file's size in bytes, as this log has written it.
  uint64_t wal_bytes() const;
  /// Torn log writes, failed fsyncs, and failed rewrites.
  uint64_t file_errors() const;
  /// True after the log became unwritable: a write left a partial frame (no
  /// reader gets past it to a later record), an fsync failed (a retried
  /// fsync may "succeed" with the failed writes lost), or a rewrite that was
  /// to replace the log failed. Append/Sync/SyncUpTo refuse until a
  /// successful TruncateBefore (e.g. the next checkpoint), LoadImage or Open
  /// (e.g. Database::Restart) rewrites the log from its intact prefix. A
  /// tear first makes that prefix durable: SyncUpTo still acks it.
  bool poisoned() const;

 private:
  /// Atomically replaces the file with `image`; success clears poisoned_.
  /// Holds mu_.
  Status RewriteLocked(Slice image);
  Status PoisonedError() const;

  Fs* const fs_;
  const std::string path_;

  mutable std::mutex mu_;
  uint64_t next_lsn_ = 1;
  uint64_t bytes_ = 0;  // the file's size, torn tail included

  // ----- group commit (guarded by mu_; sync_cv_ signals leader handoff) ---
  std::condition_variable sync_cv_;
  /// Highest LSN covered by a completed fsync barrier.
  uint64_t synced_lsn_ = 0;
  /// True while a leader is fsyncing (followers wait instead of piling on).
  bool sync_in_progress_ = false;
  uint64_t group_commit_window_us_ = 0;
  uint64_t sync_requests_ = 0;
  uint64_t group_commit_batches_ = 0;

  /// Unwritable until a rewrite from the intact prefix (see poisoned()).
  bool poisoned_ = false;
  fsio::FsyncCount fsyncs_{0};
  uint64_t torn_dropped_ = 0;
  uint64_t file_errors_ = 0;
};

}  // namespace aedb::storage

#endif  // AEDB_STORAGE_WAL_H_
