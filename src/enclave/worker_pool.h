#ifndef AEDB_ENCLAVE_WORKER_POOL_H_
#define AEDB_ENCLAVE_WORKER_POOL_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "enclave/enclave.h"

namespace aedb::enclave {

/// \brief Enclave worker threads with queue-based submission (paper §4.6).
///
/// Instead of calling the enclave synchronously — paying the call-gate cost
/// in the inner loop of query processing — host workers enqueue work items.
/// Enclave worker threads consume them; after draining the queue a worker
/// spins for `spin_duration_us` polling for more work before "exiting the
/// enclave" and sleeping. A heavily used enclave therefore stays resident
/// (no transition cost per item); an idle one releases its core. Every work
/// item is one morsel — the rows of one registered expression — evaluated by
/// EvalRegisteredBatchResident. An item views the submitter's columns,
/// which stay alive because the submitter waits until its item completes.
///
/// Overload control: the queue is optionally bounded (`max_queue_depth`).
/// When full, already-expired queued morsels are shed first (their waiters
/// get kDeadlineExceeded); if the queue is still full the submission is
/// rejected with kOverloaded. Work items carry the submitting query's
/// deadline: a sleeping worker drops expired morsels *before* re-entering
/// the enclave, so expired work never pays a transition.
class EnclaveWorkerPool {
 public:
  using Clock = std::chrono::steady_clock;

  struct Options {
    int num_threads = 4;          // paper: 1 or 4 enclave threads
    uint64_t spin_duration_us = 50;
    /// Max queued (not yet picked up) work items; 0 = unbounded. Excess
    /// submissions are rejected with kOverloaded after shedding any expired
    /// queued items (shed-oldest-expired).
    size_t max_queue_depth = 0;
  };

  EnclaveWorkerPool(Enclave* enclave, Options options);
  ~EnclaveWorkerPool();

  EnclaveWorkerPool(const EnclaveWorkerPool&) = delete;
  EnclaveWorkerPool& operator=(const EnclaveWorkerPool&) = delete;

  /// Enqueues one EvalRegisteredBatch call covering a whole morsel (a single
  /// row is a morsel of one) and blocks until the result is ready. Host
  /// workers in SQL block on the expression result anyway; the win is that
  /// the consuming worker stays resident, so the morsel rides on (at most)
  /// one wake-up transition. The morsel is not copied: the worker reads the
  /// caller's columns while the caller waits.
  Result<es::Columns> SubmitEvalBatch(
      uint64_t handle, const es::Morsel& morsel, uint64_t session_id = 0,
      std::string authorizing_query = {},
      Clock::time_point deadline = Clock::time_point::max());

  /// Number of times a worker had to re-enter the enclave after sleeping —
  /// the transitions actually paid.
  uint64_t wakeups() const { return wakeups_.load(std::memory_order_relaxed); }

  /// Deepest the submission queue ever got.
  uint64_t queue_highwater() const {
    return queue_highwater_.load(std::memory_order_relaxed);
  }
  /// Morsels dropped (typed kDeadlineExceeded) because their query deadline
  /// passed while queued — shed without an enclave transition or eval.
  uint64_t expired_dropped() const {
    return expired_dropped_.load(std::memory_order_relaxed);
  }
  /// Submissions rejected with kOverloaded because the queue was full.
  uint64_t overload_rejected() const {
    return overload_rejected_.load(std::memory_order_relaxed);
  }

 private:
  struct WorkItem {
    uint64_t handle;
    const es::Morsel* morsel;  // the submitter's, alive until `promise` is set
    uint64_t session_id;
    std::string authorizing_query;
    Clock::time_point deadline = Clock::time_point::max();
    std::promise<Result<es::Columns>> promise;
  };

  void WorkerLoop();
  bool PopItem(std::unique_ptr<WorkItem>* item);
  /// Completes expired queued items with kDeadlineExceeded, oldest first.
  /// Returns how many were shed. Caller holds mu_.
  size_t ShedExpiredLocked(Clock::time_point now);
  /// Enqueues or rejects with kOverloaded.
  Status Enqueue(std::unique_ptr<WorkItem> item);

  Enclave* enclave_;
  Options options_;

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::unique_ptr<WorkItem>> queue_;
  bool shutdown_ = false;

  std::atomic<uint64_t> wakeups_{0};
  std::atomic<uint64_t> queue_highwater_{0};
  std::atomic<uint64_t> expired_dropped_{0};
  std::atomic<uint64_t> overload_rejected_{0};
  std::vector<std::thread> threads_;
};

}  // namespace aedb::enclave

#endif  // AEDB_ENCLAVE_WORKER_POOL_H_
