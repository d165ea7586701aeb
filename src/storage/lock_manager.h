#ifndef AEDB_STORAGE_LOCK_MANAGER_H_
#define AEDB_STORAGE_LOCK_MANAGER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "common/query_context.h"
#include "common/status.h"

namespace aedb::storage {

/// \brief Who waits on whom, across every lock manager that shares it.
///
/// Locks are exclusive and held to commit, and a transaction runs one
/// statement at a time, so a blocked transaction waits on exactly one holder:
/// the graph is a waiter -> holder map and a cycle check is a walk along it.
/// Every edge is checked as it is added, so the graph never holds a cycle.
/// A lock manager takes this graph's mutex only while holding its own
/// lock-table mutex, never the other way round.
class WaitForGraph {
 public:
  /// A transaction as the graph names it: {0, gtid} once the router has
  /// enlisted it, else {space, txn_id} in its lock manager's own space, so
  /// local ids of different shards alias neither each other nor a gtid.
  using Txn = std::pair<uint64_t, uint64_t>;

  /// A fresh nonzero space for one lock manager's local transaction ids.
  uint64_t NewSpace();

  /// Points `waiter`'s edge at `holder`, replacing any earlier edge. Returns
  /// false and leaves `waiter` with no edge when the walk from `holder` comes
  /// back to `waiter`: waiting would close a cycle.
  bool Wait(Txn waiter, Txn holder);

  /// Drops `waiter`'s edge: it was granted, gave up, or failed.
  void Done(Txn waiter);

 private:
  std::mutex mu_;
  std::map<Txn, Txn> waits_on_;  // guarded by mu_
  uint64_t next_space_ = 1;      // guarded by mu_
};

/// Exclusive row/table locks with deadlock detection: a request that would
/// close a cycle in the wait-for graph fails at once, and `lock_timeout`
/// only bounds waits that no cycle explains.
/// Deferred transactions (paper §4.5) hold their locks across recovery until
/// resolved or the index is invalidated, which is what makes "large parts of
/// the database unavailable" observable in tests.
class LockManager {
 public:
  LockManager();

  /// Blocks until granted or `timeout` elapses (FailedPrecondition on
  /// timeout — callers abort the transaction). Re-entrant for the owning
  /// transaction.
  ///
  /// Before blocking, the requester walks the wait-for graph from the
  /// lock's owner. If the walk comes back to the requester, waiting would
  /// deadlock: the requester is the victim and fails at once with
  /// FailedPrecondition ("deadlock", counted in `deadlocks()`), while every
  /// other transaction in the cycle keeps waiting for its locks.
  ///
  /// When `qctx` carries a deadline earlier than the lock timeout, the wait
  /// is bounded by the query's remaining budget instead: the waiter returns
  /// kDeadlineExceeded as soon as the query deadline passes (counted in
  /// `waits_expired()`), never sleeping out the longer global `lock_timeout`.
  Status Acquire(uint64_t txn_id, uint64_t resource,
                 std::chrono::milliseconds timeout,
                 const QueryContext* qctx = nullptr);

  /// Joins `graph`, which the other shards of one deployment share, so one
  /// check finds cycles inside a shard and across shards. Call before the
  /// first Acquire.
  void ShareWaitForGraph(std::shared_ptr<WaitForGraph> graph);

  /// Names `txn_id` by the router's global transaction id in the wait-for
  /// graph, the same on every shard the transaction enlists. Dropped by
  /// ReleaseAll.
  void Enlist(uint64_t txn_id, uint64_t gtid);

  /// Non-blocking probe used by readers to honor deferred-transaction locks.
  bool IsLockedByOther(uint64_t txn_id, uint64_t resource) const;

  void ReleaseAll(uint64_t txn_id);

  /// Drops every lock (crash recovery starts from a clean lock table).
  void Clear();

  size_t HeldCount(uint64_t txn_id) const;
  size_t total_locked() const;

  /// Lock waits cut short because the waiting query's deadline expired.
  uint64_t waits_expired() const {
    return waits_expired_.load(std::memory_order_relaxed);
  }
  /// Requests refused because waiting would have closed a wait-for cycle.
  uint64_t deadlocks() const {
    return deadlocks_.load(std::memory_order_relaxed);
  }

 private:
  struct TxnLocks {
    std::unordered_set<uint64_t> held;
    uint64_t gtid = 0;  // 0 = not enlisted by the router
  };

  /// `txn_id`'s name in the wait-for graph. Requires mu_.
  WaitForGraph::Txn GraphName(uint64_t txn_id) const;

  std::atomic<uint64_t> waits_expired_{0};
  std::atomic<uint64_t> deadlocks_{0};
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::unordered_map<uint64_t, uint64_t> owner_;  // resource -> txn
  std::unordered_map<uint64_t, TxnLocks> txns_;
  std::shared_ptr<WaitForGraph> graph_;
  uint64_t space_ = 0;  // this lock manager's space in graph_
};

/// Canonical resource ids.
inline uint64_t RowResource(uint32_t table_id, uint64_t rid_encoded) {
  // Table id in the top bits; rid (page<<16|slot) below.
  return (static_cast<uint64_t>(table_id) << 48) ^ rid_encoded ^ (1ULL << 63);
}
inline uint64_t TableResource(uint32_t table_id) {
  return static_cast<uint64_t>(table_id) << 48;
}

}  // namespace aedb::storage

#endif  // AEDB_STORAGE_LOCK_MANAGER_H_
