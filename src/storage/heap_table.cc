#include "storage/heap_table.h"

#include <cstring>
#include <mutex>

namespace aedb::storage {

HeapTable::HeapTable(BufferPool* pool)
    : pool_(pool), object_id_(pool->NewObject()) {}

HeapTable::~HeapTable() { (void)pool_->DropObject(object_id_); }

Result<PinnedPage> HeapTable::PinPage(uint32_t page_no) const {
  return pool_->Pin(PageId{object_id_, page_no}, /*create=*/false);
}

Result<Rid> HeapTable::Insert(Slice record) {
  std::unique_lock lock(mu_);
  return InsertLocked(record);
}

Result<Rid> HeapTable::InsertLocked(Slice record) {
  // Append-biased placement: try the last page, else open a new one. (Fine
  // for OLTP inserts; deleted space is reclaimed when pages are rebuilt.)
  if (record.size() > Page::kMaxRecordSize) {
    return Status::InvalidArgument("record larger than page");
  }
  if (page_count_ > 0) {
    PinnedPage pin;
    AEDB_ASSIGN_OR_RETURN(
        pin, PinPage(static_cast<uint32_t>(page_count_ - 1)));
    Page page = Page::Wrap(pin.data());
    if (page.HasSpaceFor(record.size())) {
      uint16_t slot;
      AEDB_ASSIGN_OR_RETURN(slot, page.Insert(record));
      pin.MarkDirty();
      ++live_rows_;
      return Rid{static_cast<uint32_t>(page_count_ - 1), slot};
    }
  }
  PinnedPage pin;
  AEDB_ASSIGN_OR_RETURN(
      pin, pool_->Pin(PageId{object_id_, static_cast<uint32_t>(page_count_)},
                      /*create=*/true));
  Page page = Page::WrapInit(pin.data());
  uint16_t slot;
  AEDB_ASSIGN_OR_RETURN(slot, page.Insert(record));
  pin.MarkDirty();
  ++page_count_;
  ++live_rows_;
  return Rid{static_cast<uint32_t>(page_count_ - 1), slot};
}

Result<Bytes> HeapTable::Read(const Rid& rid) const {
  std::shared_lock lock(mu_);
  if (rid.page >= page_count_) return Status::NotFound("page out of range");
  PinnedPage pin;
  AEDB_ASSIGN_OR_RETURN(pin, PinPage(rid.page));
  Slice rec;
  AEDB_ASSIGN_OR_RETURN(rec, Page::Wrap(pin.data()).Read(rid.slot));
  return rec.ToBytes();
}

Status HeapTable::Delete(const Rid& rid) {
  std::unique_lock lock(mu_);
  if (rid.page >= page_count_) return Status::NotFound("page out of range");
  PinnedPage pin;
  AEDB_ASSIGN_OR_RETURN(pin, PinPage(rid.page));
  AEDB_RETURN_IF_ERROR(Page::Wrap(pin.data()).Delete(rid.slot));
  pin.MarkDirty();
  --live_rows_;
  return Status::OK();
}

Status HeapTable::Resurrect(const Rid& rid) {
  std::unique_lock lock(mu_);
  if (rid.page >= page_count_) return Status::NotFound("page out of range");
  PinnedPage pin;
  AEDB_ASSIGN_OR_RETURN(pin, PinPage(rid.page));
  AEDB_RETURN_IF_ERROR(Page::Wrap(pin.data()).Resurrect(rid.slot));
  pin.MarkDirty();
  ++live_rows_;
  return Status::OK();
}

Result<Rid> HeapTable::Update(const Rid& rid, Slice record) {
  std::unique_lock lock(mu_);
  if (rid.page >= page_count_) return Status::NotFound("page out of range");
  {
    PinnedPage pin;
    AEDB_ASSIGN_OR_RETURN(pin, PinPage(rid.page));
    Page page = Page::Wrap(pin.data());
    Status in_place = page.UpdateInPlace(rid.slot, record);
    if (in_place.ok()) {
      pin.MarkDirty();
      return rid;
    }
    if (in_place.code() != StatusCode::kOutOfRange) return in_place;
    AEDB_RETURN_IF_ERROR(page.Delete(rid.slot));
    pin.MarkDirty();
    --live_rows_;
  }
  return InsertLocked(record);
}

Status HeapTable::Scan(
    const std::function<bool(const Rid&, Slice)>& fn) const {
  std::shared_lock lock(mu_);
  for (size_t p = 0; p < page_count_; ++p) {
    PinnedPage pin;
    AEDB_ASSIGN_OR_RETURN(pin, PinPage(static_cast<uint32_t>(p)));
    Page page = Page::Wrap(pin.data());
    for (uint16_t s = 0; s < page.slot_count(); ++s) {
      if (!page.IsLive(s)) continue;
      auto rec = page.Read(s);
      if (!fn(Rid{static_cast<uint32_t>(p), s}, *rec)) return Status::OK();
    }
  }
  return Status::OK();
}

Status HeapTable::WithPageRaw(size_t i,
                              const std::function<void(Slice)>& fn) const {
  std::shared_lock lock(mu_);
  if (i >= page_count_) return Status::NotFound("page out of range");
  PinnedPage pin;
  AEDB_ASSIGN_OR_RETURN(pin, PinPage(static_cast<uint32_t>(i)));
  fn(Slice(pin.data(), Page::kPageSize));
  return Status::OK();
}

Status HeapTable::ScrubDead() {
  std::unique_lock lock(mu_);
  for (size_t p = 0; p < page_count_; ++p) {
    PinnedPage pin;
    AEDB_ASSIGN_OR_RETURN(pin, PinPage(static_cast<uint32_t>(p)));
    Page::Wrap(pin.data()).ScrubDead();
    pin.MarkDirty();
  }
  return Status::OK();
}

void HeapTable::Clear() {
  std::unique_lock lock(mu_);
  // A fresh object id retires every old page (cached frames and store file
  // both); failures only leak unreachable store pages.
  (void)pool_->DropObject(object_id_);
  object_id_ = pool_->NewObject();
  page_count_ = 0;
  live_rows_ = 0;
}

Status HeapTable::RestorePage(uint32_t page_no, Slice image) {
  if (image.size() != Page::kPageSize) {
    return Status::Corruption("page image is not one page");
  }
  std::unique_lock lock(mu_);
  if (page_no != page_count_) {
    return Status::Corruption("page image out of order");
  }
  PinnedPage pin;
  AEDB_ASSIGN_OR_RETURN(
      pin, pool_->Pin(PageId{object_id_, page_no}, /*create=*/true));
  std::memcpy(pin.data(), image.data(), Page::kPageSize);
  pin.MarkDirty();
  Page page = Page::Wrap(pin.data());
  for (uint16_t s = 0; s < page.slot_count(); ++s) {
    if (page.IsLive(s)) ++live_rows_;
  }
  ++page_count_;
  return Status::OK();
}

}  // namespace aedb::storage
