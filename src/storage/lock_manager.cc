#include "storage/lock_manager.h"

#include <algorithm>

namespace aedb::storage {

uint64_t WaitForGraph::NewSpace() {
  std::lock_guard<std::mutex> lock(mu_);
  return next_space_++;
}

bool WaitForGraph::Wait(Txn waiter, Txn holder) {
  std::lock_guard<std::mutex> lock(mu_);
  // The graph is acyclic and the walk stops at `waiter` before following
  // its old edge, so it ends within one lap of the graph.
  for (Txn at = holder;;) {
    if (at == waiter) {
      waits_on_.erase(waiter);
      return false;
    }
    auto next = waits_on_.find(at);
    if (next == waits_on_.end()) break;
    at = next->second;
  }
  waits_on_[waiter] = holder;
  return true;
}

void WaitForGraph::Done(Txn waiter) {
  std::lock_guard<std::mutex> lock(mu_);
  waits_on_.erase(waiter);
}

LockManager::LockManager()
    : graph_(std::make_shared<WaitForGraph>()), space_(graph_->NewSpace()) {}

void LockManager::ShareWaitForGraph(std::shared_ptr<WaitForGraph> graph) {
  std::lock_guard<std::mutex> lock(mu_);
  space_ = graph->NewSpace();
  graph_ = std::move(graph);
}

void LockManager::Enlist(uint64_t txn_id, uint64_t gtid) {
  std::lock_guard<std::mutex> lock(mu_);
  txns_[txn_id].gtid = gtid;
}

WaitForGraph::Txn LockManager::GraphName(uint64_t txn_id) const {
  auto it = txns_.find(txn_id);
  if (it != txns_.end() && it->second.gtid != 0) return {0, it->second.gtid};
  return {space_, txn_id};
}

Status LockManager::Acquire(uint64_t txn_id, uint64_t resource,
                            std::chrono::milliseconds timeout,
                            const QueryContext* qctx) {
  std::unique_lock<std::mutex> lock(mu_);
  auto deadline = std::chrono::steady_clock::now() + timeout;
  // A query deadline earlier than the lock timeout bounds the wait: the
  // waiter must give up within its remaining budget, not the global timeout.
  bool query_bound = false;
  if (qctx != nullptr && qctx->has_deadline() && qctx->deadline() < deadline) {
    deadline = qctx->deadline();
    query_bound = true;
  }
  // Cancel() only flips an atomic flag — it cannot notify this cv (the
  // context knows nothing about which cv its query sleeps on). Wait in short
  // slices so a cancelled waiter observes the flag within one slice instead
  // of sleeping out the full lock timeout.
  constexpr std::chrono::milliseconds kCancelPoll{10};
  const WaitForGraph::Txn me = GraphName(txn_id);
  bool waiting = false;  // `me` has an edge in graph_
  Status st = [&]() -> Status {
    for (;;) {
      auto it = owner_.find(resource);
      if (it == owner_.end()) {
        owner_[resource] = txn_id;
        txns_[txn_id].held.insert(resource);
        return Status::OK();
      }
      if (it->second == txn_id) return Status::OK();  // re-entrant
      if (qctx != nullptr && qctx->cancelled()) {
        waits_expired_.fetch_add(1, std::memory_order_relaxed);
        return Status::DeadlineExceeded("lock wait abandoned: query cancelled");
      }
      auto now = std::chrono::steady_clock::now();
      if (now >= deadline) {
        // The acquire attempt at the top of the loop already retried once
        // after the final wakeup, so the timeout is real.
        if (query_bound) {
          waits_expired_.fetch_add(1, std::memory_order_relaxed);
          return Status::DeadlineExceeded(
              "lock wait abandoned: query deadline exceeded");
        }
        return Status::FailedPrecondition("lock timeout (possible deadlock)");
      }
      // The owner may have changed since the last wakeup: re-point the edge
      // and re-check before every sleep.
      waiting = graph_->Wait(me, GraphName(it->second));
      if (!waiting) {
        deadlocks_.fetch_add(1, std::memory_order_relaxed);
        return Status::FailedPrecondition(
            "deadlock: waiting for this lock would close a wait-for cycle; "
            "the requesting transaction is the victim");
      }
      cv_.wait_until(lock,
                     qctx != nullptr ? std::min(deadline, now + kCancelPoll)
                                     : deadline);
    }
  }();
  // Whatever ended the wait, the requester leaves no edge behind: a stale
  // edge could later close a false cycle.
  if (waiting) graph_->Done(me);
  return st;
}

bool LockManager::IsLockedByOther(uint64_t txn_id, uint64_t resource) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = owner_.find(resource);
  return it != owner_.end() && it->second != txn_id;
}

void LockManager::ReleaseAll(uint64_t txn_id) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = txns_.find(txn_id);
    if (it == txns_.end()) return;
    for (uint64_t resource : it->second.held) owner_.erase(resource);
    txns_.erase(it);
  }
  cv_.notify_all();
}

void LockManager::Clear() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    owner_.clear();
    txns_.clear();
  }
  cv_.notify_all();
}

size_t LockManager::HeldCount(uint64_t txn_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = txns_.find(txn_id);
  return it == txns_.end() ? 0 : it->second.held.size();
}

size_t LockManager::total_locked() const {
  std::lock_guard<std::mutex> lock(mu_);
  return owner_.size();
}

}  // namespace aedb::storage
