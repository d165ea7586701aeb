#include "enclave/worker_pool.h"

#include <chrono>

#include "fault/fault.h"

namespace aedb::enclave {

namespace {
bool ItemExpired(const EnclaveWorkerPool::Clock::time_point deadline,
                 EnclaveWorkerPool::Clock::time_point now) {
  return deadline != EnclaveWorkerPool::Clock::time_point::max() &&
         now >= deadline;
}
}  // namespace

EnclaveWorkerPool::EnclaveWorkerPool(Enclave* enclave, Options options)
    : enclave_(enclave), options_(options) {
  threads_.reserve(options_.num_threads);
  for (int i = 0; i < options_.num_threads; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

EnclaveWorkerPool::~EnclaveWorkerPool() {
  std::deque<std::unique_ptr<WorkItem>> orphaned;
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
    orphaned.swap(queue_);
  }
  cv_.notify_all();
  for (auto& t : threads_) t.join();
  for (auto& item : orphaned) {
    item->promise.set_value(
        Status::FailedPrecondition("worker pool shut down"));
  }
}

size_t EnclaveWorkerPool::ShedExpiredLocked(Clock::time_point now) {
  size_t shed = 0;
  for (auto it = queue_.begin(); it != queue_.end();) {
    if (ItemExpired((*it)->deadline, now)) {
      (*it)->promise.set_value(Status::DeadlineExceeded(
          "morsel shed: query deadline exceeded while queued for the "
          "enclave"));
      it = queue_.erase(it);
      ++shed;
    } else {
      ++it;
    }
  }
  expired_dropped_.fetch_add(shed, std::memory_order_relaxed);
  return shed;
}

Status EnclaveWorkerPool::Enqueue(std::unique_ptr<WorkItem> item) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutdown_) return Status::FailedPrecondition("worker pool shut down");
    bool full = options_.max_queue_depth > 0 &&
                queue_.size() >= options_.max_queue_depth;
    if (full) {
      // Shed-oldest-expired: queued morsels whose query already gave up are
      // dead weight — complete them as kDeadlineExceeded to make room.
      if (ShedExpiredLocked(Clock::now()) > 0) {
        full = queue_.size() >= options_.max_queue_depth;
      }
    }
    fault::FaultSpec spec;
    if (full || AEDB_FAULT_FIRED("pool/queue_full", &spec)) {
      overload_rejected_.fetch_add(1, std::memory_order_relaxed);
      return Status::Overloaded("enclave worker queue full");
    }
    queue_.push_back(std::move(item));
    if (queue_.size() > queue_highwater_.load(std::memory_order_relaxed)) {
      queue_highwater_.store(queue_.size(), std::memory_order_relaxed);
    }
  }
  cv_.notify_one();
  return Status::OK();
}

Result<es::Columns> EnclaveWorkerPool::SubmitEvalBatch(
    uint64_t handle, const es::Morsel& morsel, uint64_t session_id,
    std::string authorizing_query, Clock::time_point deadline) {
  auto item = std::make_unique<WorkItem>();
  item->handle = handle;
  item->morsel = &morsel;
  item->session_id = session_id;
  item->authorizing_query = std::move(authorizing_query);
  item->deadline = deadline;
  std::future<Result<es::Columns>> future = item->promise.get_future();
  AEDB_RETURN_IF_ERROR(Enqueue(std::move(item)));
  return future.get();
}

bool EnclaveWorkerPool::PopItem(std::unique_ptr<WorkItem>* item) {
  std::lock_guard<std::mutex> lock(mu_);
  if (queue_.empty()) return false;
  *item = std::move(queue_.front());
  queue_.pop_front();
  return true;
}

void EnclaveWorkerPool::WorkerLoop() {
  // The first entry into the enclave is a transition.
  enclave_->ChargeTransition();
  wakeups_.fetch_add(1, std::memory_order_relaxed);
  for (;;) {
    std::unique_ptr<WorkItem> item;
    if (!PopItem(&item)) {
      // Queue drained: spin-poll before exiting the enclave (§4.6).
      auto deadline = std::chrono::steady_clock::now() +
                      std::chrono::microseconds(options_.spin_duration_us);
      bool got = false;
      while (std::chrono::steady_clock::now() < deadline) {
        if (PopItem(&item)) {
          got = true;
          break;
        }
        std::this_thread::yield();
      }
      if (!got) {
        // Exit the enclave and sleep; waking up pays a fresh transition.
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
        // The worker is *outside* the enclave here: drop already-expired
        // morsels before paying the re-entry transition. If only expired
        // work queued up, go back to sleep without ever transitioning.
        auto now = Clock::now();
        while (!queue_.empty() && ItemExpired(queue_.front()->deadline, now)) {
          auto dead = std::move(queue_.front());
          queue_.pop_front();
          lock.unlock();
          expired_dropped_.fetch_add(1, std::memory_order_relaxed);
          dead->promise.set_value(Status::DeadlineExceeded(
              "morsel dropped: query deadline exceeded before enclave "
              "re-entry"));
          lock.lock();
        }
        if (queue_.empty()) {
          if (shutdown_) return;
          continue;
        }
        item = std::move(queue_.front());
        queue_.pop_front();
        lock.unlock();
        wakeups_.fetch_add(1, std::memory_order_relaxed);
        enclave_->ChargeTransition();
      }
    }
    // Test hook: hold this worker inside the enclave so submissions back up
    // deterministically (spec.arg = stall in milliseconds).
    fault::FaultSpec stall;
    if (AEDB_FAULT_FIRED("pool/worker_stall", &stall)) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(stall.arg != 0 ? stall.arg : 100));
    }
    // A resident worker still skips the eval for expired work: the
    // transition is already amortized, but the enclave-side compute isn't.
    if (ItemExpired(item->deadline, Clock::now())) {
      expired_dropped_.fetch_add(1, std::memory_order_relaxed);
      item->promise.set_value(Status::DeadlineExceeded(
          "morsel dropped: query deadline exceeded before enclave eval"));
      continue;
    }
    item->promise.set_value(enclave_->EvalRegisteredBatchResident(
        item->handle, *item->morsel, item->session_id,
        item->authorizing_query));
  }
}

}  // namespace aedb::enclave
