#ifndef AEDB_STORAGE_BUFFER_POOL_H_
#define AEDB_STORAGE_BUFFER_POOL_H_

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "storage/fsio.h"
#include "storage/page.h"

namespace aedb::storage {

/// Identifies one 8 KiB page in the page store: (object, page number).
/// Objects are ephemeral per-process handles (BufferPool::NewObject) — the
/// page store is a paging target rebuilt on every Open, NOT a recovery
/// source; durability comes from the WAL alone.
struct PageId {
  uint32_t object_id = 0;
  uint32_t page_no = 0;

  uint64_t Encode() const {
    return (static_cast<uint64_t>(object_id) << 32) | page_no;
  }
  bool operator==(const PageId& o) const {
    return object_id == o.object_id && page_no == o.page_no;
  }
};

/// The store the buffer pool evicts dirty pages to: one file per object
/// (`<dir>/obj-<id>.pages`) on an Fs, pages written at
/// `page_no * kPageSize`. Every byte handed to Write is the raw slotted-page
/// image — encrypted cells stay AEAD ciphertext on this path, which is what
/// extends the AE at-rest invariant to paged-out data (the whole-disk
/// plaintext scans in durability_test and powerloss_test pin this).
class FilePageStore {
 public:
  /// `fs` must outlive the store.
  FilePageStore(Fs* fs, std::string dir);

  /// Deletes every object file under the directory. Called at Open: page
  /// store contents are a cache of a previous process's object-id space and
  /// must not leak into the new one.
  Status Wipe();

  /// Stores a full page image (`page.size() == Page::kPageSize`).
  Status Write(PageId id, Slice page);
  /// Reads a full page into `out` (kPageSize bytes); NotFound if never
  /// written.
  Status Read(PageId id, uint8_t* out);
  /// Forgets every page of an object (table/index dropped or cleared).
  Status DropObject(uint32_t object_id);

  /// fsyncs this store issued.
  uint64_t fsyncs() const { return fsyncs_.load(std::memory_order_relaxed); }

 private:
  std::string ObjectPath(uint32_t object_id) const;

  Fs* const fs_;
  const std::string dir_;
  std::mutex mu_;
  bool dir_ready_ = false;
  fsio::FsyncCount fsyncs_{0};
};

struct BufferPoolStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  uint64_t writebacks = 0;
  uint64_t pinned_highwater = 0;
  /// Frames holding an 8 KiB page buffer now: the pool's memory footprint.
  uint64_t buffers = 0;
};

class BufferPool;

/// RAII pin over one frame. While alive, data() is a stable 8 KiB buffer the
/// caller may read or (after MarkDirty) mutate; the frame cannot be evicted.
/// Concurrency over the same page is the caller's problem (the engine's
/// table/index latches serialize mutators), eviction-vs-access is the pool's.
class PinnedPage {
 public:
  PinnedPage() = default;
  PinnedPage(PinnedPage&& o) noexcept;
  PinnedPage& operator=(PinnedPage&& o) noexcept;
  PinnedPage(const PinnedPage&) = delete;
  PinnedPage& operator=(const PinnedPage&) = delete;
  ~PinnedPage();

  uint8_t* data() const { return data_; }
  /// Marks the frame dirty so eviction/flush writes it back. Call after (or
  /// around) mutating data() — unpinning does not imply writeback.
  void MarkDirty();
  bool holds() const { return pool_ != nullptr; }
  /// Early unpin (the destructor's job, for callers that want tight scopes).
  void Release();

 private:
  friend class BufferPool;
  PinnedPage(BufferPool* pool, size_t frame, uint8_t* data)
      : pool_(pool), frame_(frame), data_(data) {}

  BufferPool* pool_ = nullptr;
  size_t frame_ = 0;
  uint8_t* data_ = nullptr;
};

/// \brief Fixed-capacity page cache between HeapTable/BTree and a FilePageStore:
/// page table, pin counts, CLOCK second-chance eviction, dirty writeback, and
/// an optional background flusher.
///
/// Frame lifecycle: a Pin miss claims a frame (evicting an unpinned victim,
/// writing it back first when dirty), loads or zero-fills it, and returns it
/// pinned. CLOCK gives each frame one second chance (`ref` cleared on the
/// first pass, evicted on the second); pinned frames are skipped. When every
/// frame is pinned, Pin waits (bounded) for an unpin and fails with
/// Overloaded if none comes — callers pin O(1) pages at a time, so that only
/// happens when the pool is configured absurdly small for the concurrency.
///
/// Fault points (see fault/fault.h):
///   pool/evict      fires before a victim frame is evicted; Pin fails, the
///                   victim stays cached.
///   pool/writeback  fires before a dirty page is written to the store
///                   (eviction or the background flusher).
class BufferPool {
 public:
  /// Floor on capacity: splits pin two node pages plus a parent's, and the
  /// heap/index halves of one statement each hold a page briefly.
  static constexpr size_t kMinPages = 8;
  /// Capacity used when the caller passes 0 ("unbounded"): large enough that
  /// pre-pool workloads never evict, small enough to bound memory (128 MiB).
  static constexpr size_t kDefaultPages = 16384;

  /// `store` must outlive the pool. `capacity_pages` 0 selects kDefaultPages.
  BufferPool(FilePageStore* store, size_t capacity_pages);
  ~BufferPool();

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// A fresh object id for a table/index's pages (never reused).
  uint32_t NewObject() { return next_object_.fetch_add(1); }

  /// Pins the page, faulting it in from the store on a miss. With `create`,
  /// a page the store has never seen comes back zero-filled (the caller
  /// formats it); without, that is NotFound.
  Result<PinnedPage> Pin(PageId id, bool create);

  /// Drops the object everywhere: store pages are deleted now, unpinned
  /// cached frames are freed now (their buffers too, so dropping and
  /// re-creating objects does not keep touching fresh frames' memory), and a
  /// still-pinned frame is doomed — its
  /// dirty bit is cleared, no writeback path touches it again (dead pages
  /// must never resurrect a store file), and the final Unpin reclaims it.
  Status DropObject(uint32_t object_id);

  /// Starts/stops the background flusher (writes dirty pages every
  /// `interval_ms`; it bounds eviction-path writebacks).
  void StartFlusher(uint64_t interval_ms);
  void StopFlusher();

  BufferPoolStats stats() const;
  size_t capacity() const { return capacity_; }
  /// Currently pinned frame count (tests).
  uint64_t pinned() const;

 private:
  friend class PinnedPage;

  struct Frame {
    PageId id;
    std::unique_ptr<uint8_t[]> data;
    uint32_t pins = 0;
    bool valid = false;
    bool ref = false;
    /// Object dropped while this frame was pinned: excluded from every
    /// writeback, reclaimed by the final Unpin (see DropObject).
    bool doomed = false;
    /// Written by MarkDirty without mu_ (the pin guarantees residency);
    /// read/cleared by writeback paths under mu_.
    std::atomic<bool> dirty{false};
  };

  void Unpin(size_t frame);
  /// One CLOCK sweep for a free or evictable frame; returns the frame index,
  /// kNoFrame when everything is pinned, or an eviction/writeback error.
  /// Caller holds mu_.
  Result<size_t> SweepLocked();
  /// Writes unpinned dirty frames back to the store (the background
  /// flusher); doomed frames are always excluded. Frames with live pins are
  /// excluded too: their holders mutate page bytes under only the table
  /// latch, so a concurrent writeback could persist a torn image and lose a
  /// racing MarkDirty. Caller holds mu_.
  Status WriteBackDirtyLocked();
  void FlusherLoop(uint64_t interval_ms);

  static constexpr size_t kNoFrame = static_cast<size_t>(-1);

  FilePageStore* store_;
  size_t capacity_;

  mutable std::mutex mu_;
  std::condition_variable unpin_cv_;
  std::vector<std::unique_ptr<Frame>> frames_;
  std::unordered_map<uint64_t, size_t> page_table_;
  size_t clock_hand_ = 0;
  uint64_t pinned_now_ = 0;
  BufferPoolStats stats_;

  std::atomic<uint32_t> next_object_{1};

  std::thread flusher_;
  std::mutex flusher_mu_;
  std::condition_variable flusher_cv_;
  bool flusher_stop_ = false;
};

}  // namespace aedb::storage

#endif  // AEDB_STORAGE_BUFFER_POOL_H_
