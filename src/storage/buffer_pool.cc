#include "storage/buffer_pool.h"

#include <chrono>
#include <cstring>

#include "fault/fault.h"
#include "storage/fsio.h"

namespace aedb::storage {

// ---------------------------------------------------------------------------
// FilePageStore

FilePageStore::FilePageStore(Fs* fs, std::string dir)
    : fs_(fs), dir_(std::move(dir)) {}

std::string FilePageStore::ObjectPath(uint32_t object_id) const {
  return dir_ + "/obj-" + std::to_string(object_id) + ".pages";
}

Status FilePageStore::Wipe() {
  std::lock_guard<std::mutex> lock(mu_);
  auto names = fs_->List(dir_);
  if (names.status().IsNotFound()) return Status::OK();  // nothing to wipe
  if (!names.ok()) return names.status();
  for (const std::string& name : *names) {
    Status st = fs_->Unlink(dir_ + "/" + name);
    if (!st.ok() && !st.IsNotFound()) return st;
  }
  return fsio::SyncDir(*fs_, dir_, &fsyncs_);
}

Status FilePageStore::Write(PageId id, Slice page) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!dir_ready_) {
    AEDB_RETURN_IF_ERROR(fsio::EnsureDir(*fs_, dir_, &fsyncs_));
    dir_ready_ = true;
  }
  AEDB_RETURN_IF_ERROR(fs_->Pwrite(
      ObjectPath(id.object_id),
      static_cast<uint64_t>(id.page_no) * Page::kPageSize, page));
  return Status::OK();
}

Status FilePageStore::Read(PageId id, uint8_t* out) {
  Status st = fs_->Pread(ObjectPath(id.object_id),
                         static_cast<uint64_t>(id.page_no) * Page::kPageSize,
                         Page::kPageSize, out);
  if (st.IsNotFound()) return Status::NotFound("page not in store");
  return st;
}

Status FilePageStore::DropObject(uint32_t object_id) {
  std::lock_guard<std::mutex> lock(mu_);
  Status st = fs_->Unlink(ObjectPath(object_id));
  return st.IsNotFound() ? Status::OK() : st;
}

// ---------------------------------------------------------------------------
// PinnedPage

PinnedPage::PinnedPage(PinnedPage&& o) noexcept
    : pool_(o.pool_), frame_(o.frame_), data_(o.data_) {
  o.pool_ = nullptr;
  o.data_ = nullptr;
}

PinnedPage& PinnedPage::operator=(PinnedPage&& o) noexcept {
  if (this != &o) {
    Release();
    pool_ = o.pool_;
    frame_ = o.frame_;
    data_ = o.data_;
    o.pool_ = nullptr;
    o.data_ = nullptr;
  }
  return *this;
}

PinnedPage::~PinnedPage() { Release(); }

void PinnedPage::Release() {
  if (pool_ != nullptr) {
    pool_->Unpin(frame_);
    pool_ = nullptr;
    data_ = nullptr;
  }
}

void PinnedPage::MarkDirty() {
  if (pool_ != nullptr) {
    pool_->frames_[frame_]->dirty.store(true, std::memory_order_relaxed);
  }
}

// ---------------------------------------------------------------------------
// BufferPool

BufferPool::BufferPool(FilePageStore* store, size_t capacity_pages)
    : store_(store),
      capacity_(capacity_pages == 0
                    ? kDefaultPages
                    : (capacity_pages < kMinPages ? kMinPages
                                                  : capacity_pages)) {
  frames_.reserve(capacity_);
  for (size_t i = 0; i < capacity_; ++i) {
    frames_.push_back(std::make_unique<Frame>());
  }
}

BufferPool::~BufferPool() { StopFlusher(); }

void BufferPool::Unpin(size_t frame) {
  std::lock_guard<std::mutex> lock(mu_);
  Frame& f = *frames_[frame];
  if (f.pins > 0) --f.pins;
  --pinned_now_;
  if (f.pins == 0) {
    if (f.doomed) {
      // Last pin of a dropped object's frame: reclaim it now. The dirty bit
      // may have been re-set by the stale holder; the object is dead, so the
      // bytes must never reach the store.
      f.doomed = false;
      f.valid = false;
      f.dirty.store(false, std::memory_order_relaxed);
      f.data.reset();
      --stats_.buffers;
    }
    unpin_cv_.notify_all();
  }
}

Result<size_t> BufferPool::SweepLocked() {
  bool saw_unpinned = false;
  // Two passes: the first clears ref bits (second chance), the second takes
  // the first frame both unreferenced and unpinned.
  for (size_t step = 0; step < 2 * capacity_; ++step) {
    size_t h = clock_hand_;
    clock_hand_ = (clock_hand_ + 1) % capacity_;
    Frame& f = *frames_[h];
    if (!f.valid) return h;  // free frame
    if (f.pins > 0) continue;
    saw_unpinned = true;
    if (f.ref) {
      f.ref = false;
      continue;
    }
    AEDB_RETURN_IF_ERROR(AEDB_FAULT_POINT("pool/evict"));
    if (f.dirty.load(std::memory_order_relaxed)) {
      AEDB_RETURN_IF_ERROR(AEDB_FAULT_POINT("pool/writeback"));
      AEDB_RETURN_IF_ERROR(
          store_->Write(f.id, Slice(f.data.get(), Page::kPageSize)));
      f.dirty.store(false, std::memory_order_relaxed);
      ++stats_.writebacks;
    }
    page_table_.erase(f.id.Encode());
    f.valid = false;
    ++stats_.evictions;
    return h;
  }
  (void)saw_unpinned;
  return kNoFrame;  // every frame is pinned
}

Result<PinnedPage> BufferPool::Pin(PageId id, bool create) {
  std::unique_lock<std::mutex> lock(mu_);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(2);
  for (;;) {
    auto it = page_table_.find(id.Encode());
    if (it != page_table_.end()) {
      Frame& f = *frames_[it->second];
      ++f.pins;
      f.ref = true;
      ++stats_.hits;
      if (++pinned_now_ > stats_.pinned_highwater) {
        stats_.pinned_highwater = pinned_now_;
      }
      return PinnedPage(this, it->second, f.data.get());
    }
    size_t h;
    AEDB_ASSIGN_OR_RETURN(h, SweepLocked());
    if (h != kNoFrame) {
      ++stats_.misses;
      Frame& f = *frames_[h];
      if (f.data == nullptr) {
        f.data.reset(new uint8_t[Page::kPageSize]);
        ++stats_.buffers;
      }
      Status read = store_->Read(id, f.data.get());
      if (read.IsNotFound() && create) {
        std::memset(f.data.get(), 0, Page::kPageSize);
      } else if (!read.ok()) {
        return read;  // the claimed frame simply stays free
      }
      f.id = id;
      f.valid = true;
      f.pins = 1;
      f.ref = true;
      f.dirty.store(false, std::memory_order_relaxed);
      page_table_[id.Encode()] = h;
      if (++pinned_now_ > stats_.pinned_highwater) {
        stats_.pinned_highwater = pinned_now_;
      }
      return PinnedPage(this, h, f.data.get());
    }
    // Every frame pinned: wait for an unpin, then retry the whole lookup
    // (another thread may have faulted our page in meanwhile).
    if (unpin_cv_.wait_until(lock, deadline) == std::cv_status::timeout) {
      return Status::Overloaded(
          "buffer pool exhausted: all " + std::to_string(capacity_) +
          " pages pinned");
    }
  }
}

Status BufferPool::WriteBackDirtyLocked() {
  for (auto& fp : frames_) {
    Frame& f = *fp;
    if (!f.valid || f.doomed || !f.dirty.load(std::memory_order_relaxed)) {
      continue;
    }
    // A pinned frame's holder may be mid-mutation under only its table latch:
    // writing it back could snapshot torn bytes, and a MarkDirty landing
    // between the store write and the dirty-bit clear would be lost (frame
    // clean, changes unsaved). Skipped frames land at eviction or a later
    // cycle.
    if (f.pins > 0) continue;
    AEDB_RETURN_IF_ERROR(AEDB_FAULT_POINT("pool/writeback"));
    AEDB_RETURN_IF_ERROR(
        store_->Write(f.id, Slice(f.data.get(), Page::kPageSize)));
    f.dirty.store(false, std::memory_order_relaxed);
    ++stats_.writebacks;
  }
  return Status::OK();
}

Status BufferPool::DropObject(uint32_t object_id) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& fp : frames_) {
    Frame& f = *fp;
    if (!f.valid || f.id.object_id != object_id) continue;
    page_table_.erase(f.id.Encode());
    f.dirty.store(false, std::memory_order_relaxed);
    if (f.pins > 0) {
      // A stale holder still has the bytes pinned (it may even re-dirty
      // them). Doom the frame: no writeback path touches it, and the final
      // Unpin reclaims it — object ids are never reused, so nothing can pin
      // it back into the page table meanwhile.
      f.doomed = true;
    } else {
      f.valid = false;
      f.data.reset();  // a free frame refills its buffer on demand (Pin)
      --stats_.buffers;
    }
  }
  return store_->DropObject(object_id);
}

void BufferPool::FlusherLoop(uint64_t interval_ms) {
  std::unique_lock<std::mutex> lock(flusher_mu_);
  while (!flusher_stop_) {
    flusher_cv_.wait_for(lock, std::chrono::milliseconds(interval_ms));
    if (flusher_stop_) break;
    lock.unlock();
    {
      // Best effort: a failed writeback stays dirty and is retried by the
      // next cycle or eviction. Pinned frames are skipped
      // — their holders may be mutating the bytes right now.
      std::lock_guard<std::mutex> pool_lock(mu_);
      (void)WriteBackDirtyLocked();
    }
    lock.lock();
  }
}

void BufferPool::StartFlusher(uint64_t interval_ms) {
  StopFlusher();
  if (interval_ms == 0) return;
  {
    std::lock_guard<std::mutex> lock(flusher_mu_);
    flusher_stop_ = false;
  }
  flusher_ = std::thread([this, interval_ms] { FlusherLoop(interval_ms); });
}

void BufferPool::StopFlusher() {
  {
    std::lock_guard<std::mutex> lock(flusher_mu_);
    flusher_stop_ = true;
  }
  flusher_cv_.notify_all();
  if (flusher_.joinable()) flusher_.join();
}

BufferPoolStats BufferPool::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

uint64_t BufferPool::pinned() const {
  std::lock_guard<std::mutex> lock(mu_);
  return pinned_now_;
}

}  // namespace aedb::storage
