#ifndef AEDB_STORAGE_HEAP_TABLE_H_
#define AEDB_STORAGE_HEAP_TABLE_H_

#include <functional>
#include <memory>
#include <shared_mutex>
#include <vector>

#include "storage/buffer_pool.h"
#include "storage/page.h"

namespace aedb::storage {

/// \brief A heap file of slotted pages. Rows are opaque byte blobs (the SQL
/// layer serializes values; encrypted columns land here as AEAD cells).
///
/// Pages live in a BufferPool object: every access pins the frame, operates
/// on the slotted page in place, and unpins — the table owns page *numbers*
/// (Rid.page), never page memory, so a pool smaller than the table works and
/// cold pages fault in from the page store.
///
/// Thread safety: an internal reader-writer latch makes every operation
/// atomic at row granularity — readers see a row entirely before or entirely
/// after any in-place update, never torn bytes. (The engine's table latch
/// serializes logged mutators against each other; unlatched executor reads
/// are what this guards.) Transaction-level visibility is still the lock
/// manager's job.
class HeapTable {
 public:
  /// The table's pages live in `pool`, which must outlive it.
  explicit HeapTable(BufferPool* pool);
  ~HeapTable();

  HeapTable(const HeapTable&) = delete;
  HeapTable& operator=(const HeapTable&) = delete;

  Result<Rid> Insert(Slice record);
  Result<Bytes> Read(const Rid& rid) const;
  Status Delete(const Rid& rid);

  /// Physical undo of Delete: restores the record at the same RID.
  Status Resurrect(const Rid& rid);

  /// Updates a row. Returns the (possibly new) RID: the row moves when it no
  /// longer fits in place; the caller fixes any indexes.
  Result<Rid> Update(const Rid& rid, Slice record);

  /// Calls `fn(rid, record)` for every live row; stops early if fn returns
  /// false. Pins one page at a time.
  Status Scan(const std::function<bool(const Rid&, Slice)>& fn) const;

  size_t page_count() const {
    std::shared_lock lock(mu_);
    return page_count_;
  }
  uint64_t live_rows() const {
    std::shared_lock lock(mu_);
    return live_rows_;
  }

  /// Adversary view: pins page `i` and hands its raw image to `fn`.
  Status WithPageRaw(size_t i, const std::function<void(Slice)>& fn) const;

  /// Zeroes dead record bytes on all pages.
  Status ScrubDead();

  /// Drops all rows (used when recovery rebuilds state from the log).
  void Clear();

  /// Appends `image`, a raw page a checkpoint's base holds, as page
  /// `page_no`, which must be the next page (Corruption otherwise); its live
  /// rows are counted by slot liveness. Because Insert placement is
  /// deterministic in the page state (append-biased, slot-exact), restoring
  /// the pages and replaying the log after the base reproduces RIDs exactly
  /// — the same property the recovery redo's RID check relies on.
  Status RestorePage(uint32_t page_no, Slice image);

 private:
  /// Pins page `page_no` (which must exist).
  Result<PinnedPage> PinPage(uint32_t page_no) const;
  /// Insert's body without the latch (Update composes it under its own
  /// exclusive hold).
  Result<Rid> InsertLocked(Slice record);

  /// Readers shared, mutators exclusive (see class comment).
  mutable std::shared_mutex mu_;
  BufferPool* pool_;
  uint32_t object_id_;
  size_t page_count_ = 0;
  uint64_t live_rows_ = 0;
};

}  // namespace aedb::storage

#endif  // AEDB_STORAGE_HEAP_TABLE_H_
