#include "storage/wal.h"

#include <algorithm>
#include <chrono>
#include <optional>
#include <thread>

#include "fault/fault.h"
#include "storage/fsio.h"

namespace aedb::storage {

namespace {

/// FNV-1a 32-bit.
uint32_t Fnv1a(Slice data) {
  uint32_t h = 2166136261u;
  for (size_t i = 0; i < data.size(); ++i) {
    h ^= static_cast<uint8_t>(data[i]);
    h *= 16777619u;
  }
  return h;
}

constexpr size_t kFrameOverhead = 8;  // u32 length + u32 checksum

/// The one frame walker behind every framed-stream reader. Hands `visit`
/// each intact frame's body and end offset, in order, until a frame is cut
/// short, fails its checksum or is rejected by `visit`. Returns the offset
/// just past the last accepted frame.
template <typename Visit>
size_t WalkFrames(Slice image, Visit&& visit) {
  size_t off = 0;
  while (off + kFrameOverhead <= image.size()) {
    size_t cursor = off;
    auto len_res = GetU32(image, &cursor);
    auto sum_res = GetU32(image, &cursor);
    if (!len_res.ok() || !sum_res.ok()) break;
    if (cursor + *len_res > image.size()) break;  // truncated body: torn tail
    Slice body(image.data() + cursor, *len_res);
    if (Fnv1a(body) != *sum_res) break;
    if (!visit(body, cursor + body.size())) break;
    off = cursor + body.size();
  }
  return off;
}

/// Bytes WalkFileFrames reads at once (more for a longer frame).
constexpr size_t kReadChunk = 64 << 10;

/// WalkFrames over the file at `path`, `size` bytes long, read a chunk at a
/// time: a walk holds one chunk (or one longer frame), however long the
/// file. `visit` gets file offsets.
template <typename Visit>
Result<uint64_t> WalkFileFrames(Fs& fs, const std::string& path,
                                uint64_t size, Visit&& visit) {
  uint64_t off = 0;
  Bytes chunk;
  for (uint64_t want = kReadChunk; off < size;) {
    chunk.resize(static_cast<size_t>(std::min(want, size - off)));
    AEDB_RETURN_IF_ERROR(fs.Pread(path, off, chunk.size(), chunk.data()));
    const size_t walked = WalkFrames(chunk, [&](Slice body, size_t end) {
      return visit(body, off + end);
    });
    off += walked;
    // The walk stopped at a bad frame, at the file's torn end, or where the
    // chunk ends or cuts a frame short: the next read starts there.
    size_t at = walked;
    auto len = GetU32(chunk, &at);
    want = kFrameOverhead + (len.ok() ? *len : 0);
    if (walked + want <= chunk.size() || off + chunk.size() - walked == size) {
      break;
    }
    want = std::max<uint64_t>(want, kReadChunk);
  }
  return off;
}

/// A frame body's LSN, which LogRecord::SerializeTo writes first.
Result<uint64_t> FrameLsn(Slice body) {
  size_t at = 0;
  return GetU64(body, &at);
}

/// `record` framed for the file.
Bytes Frame(const LogRecord& record) {
  Bytes body;
  record.SerializeTo(&body);
  Bytes frame;
  frame.reserve(kFrameOverhead + body.size());
  PutU32(&frame, static_cast<uint32_t>(body.size()));
  PutU32(&frame, Fnv1a(body));
  frame.insert(frame.end(), body.begin(), body.end());
  return frame;
}

/// The kRewrite frame that opens a rewritten log `base` bytes long.
Bytes RewriteFrame(uint64_t lsn, uint64_t base) {
  LogRecord header;
  header.lsn = lsn;
  header.type = LogRecordType::kRewrite;
  PutU64(&header.payload1, base);
  return Frame(header);
}

/// The size of every kRewrite frame.
const size_t kRewriteFrameBytes = RewriteFrame(0, 0).size();

/// The record in `image`'s first frame, when that frame is intact.
std::optional<LogRecord> FirstRecord(Slice image) {
  std::optional<LogRecord> first;
  WalkFrames(image, [&first](Slice body, size_t) {
    size_t at = 0;
    auto rec = LogRecord::Deserialize(body, &at);
    if (rec.ok() && at == body.size()) first = std::move(*rec);
    return false;  // the first frame only
  });
  return first;
}

/// The length of the base `image` starts with (0 when its first frame is
/// not a kRewrite), given that its first `intact` bytes are intact frames.
/// Corruption when a bad frame lies inside the base, or when the first
/// frame is bad but an intact one starts where a kRewrite frame would end:
/// a torn first append is never followed by an intact frame.
Result<uint64_t> BaseBytes(Slice image, size_t intact) {
  const std::optional<LogRecord> first = FirstRecord(image);
  if (!first.has_value()) {
    if (image.size() > kRewriteFrameBytes &&
        FirstRecord(image.subslice(kRewriteFrameBytes,
                                   image.size() - kRewriteFrameBytes))
            .has_value()) {
      return Status::Corruption("log: the first frame is damaged");
    }
    return uint64_t{0};
  }
  if (first->type != LogRecordType::kRewrite) return uint64_t{0};
  size_t off = 0;
  uint64_t base;
  AEDB_ASSIGN_OR_RETURN(base, GetU64(first->payload1, &off));
  if (base > intact) {
    return Status::Corruption("log: a bad frame inside its " +
                              std::to_string(base) + "-byte base");
  }
  return base;
}

}  // namespace

void LogRecord::SerializeTo(Bytes* out) const {
  PutU64(out, lsn);
  PutU64(out, txn_id);
  out->push_back(static_cast<uint8_t>(type));
  PutU32(out, object_id);
  PutU64(out, rid.Encode());
  PutLengthPrefixed(out, payload1);
}

Result<LogRecord> LogRecord::Deserialize(Slice in, size_t* offset) {
  LogRecord rec;
  AEDB_ASSIGN_OR_RETURN(rec.lsn, GetU64(in, offset));
  AEDB_ASSIGN_OR_RETURN(rec.txn_id, GetU64(in, offset));
  if (*offset >= in.size()) return Status::Corruption("truncated log record");
  rec.type = static_cast<LogRecordType>(in[(*offset)++]);
  if (rec.type < LogRecordType::kBegin ||
      rec.type > LogRecordType::kIndexEntries) {
    return Status::Corruption("unknown log record type");
  }
  AEDB_ASSIGN_OR_RETURN(rec.object_id, GetU32(in, offset));
  uint64_t rid_enc;
  AEDB_ASSIGN_OR_RETURN(rid_enc, GetU64(in, offset));
  rec.rid = Rid::Decode(rid_enc);
  AEDB_ASSIGN_OR_RETURN(rec.payload1, GetLengthPrefixed(in, offset));
  return rec;
}

Wal::Wal(Fs* fs, std::string path) : fs_(fs), path_(std::move(path)) {}

Status Wal::PoisonedError() const {
  return Status::Internal(
      "wal poisoned (torn write, failed fsync or failed rewrite) at " + path_);
}

Status Wal::Open() {
  std::lock_guard<std::mutex> lock(mu_);
  auto size = fs_->Size(path_);
  if (size.status().IsNotFound()) {
    // The file's existence is directory metadata: without this fsync a crash
    // can forget the (empty) log file even though later appends land in it.
    AEDB_RETURN_IF_ERROR(fs_->Append(path_, Slice()));
    AEDB_RETURN_IF_ERROR(
        fsio::SyncDir(*fs_, fsio::DirName(path_), &fsyncs_));
    bytes_ = base_bytes_ = 0;
    return Status::OK();
  }
  if (!size.ok()) return size.status();
  // Headers and checksums only: recovery parses the records (Scan).
  uint64_t last_lsn = 0;
  uint64_t intact;
  AEDB_ASSIGN_OR_RETURN(
      intact, WalkFileFrames(*fs_, path_, *size, [&](Slice body, uint64_t) {
        auto lsn = FrameLsn(body);
        if (lsn.ok()) last_lsn = *lsn;
        return lsn.ok();
      }));
  // BaseBytes reads only the first two frames' worth: a kRewrite frame is a
  // few dozen bytes, and a first frame the first chunk cuts short is none.
  Bytes head(static_cast<size_t>(std::min<uint64_t>(*size, kReadChunk)));
  AEDB_RETURN_IF_ERROR(fs_->Pread(path_, 0, head.size(), head.data()));
  uint64_t base;
  AEDB_ASSIGN_OR_RETURN(base, BaseBytes(head, intact));
  if (intact < *size) {
    // Durably drop the torn tail — the real-log analog of zeroing past
    // end-of-log — so a later crash cannot resurrect half a frame. The
    // intact prefix is copied a chunk at a time.
    torn_dropped_ += *size - intact;
    AEDB_RETURN_IF_ERROR(ReplaceLocked([&](const std::string& tmp) -> Status {
      for (uint64_t at = 0; at < intact; at += head.size()) {
        head.resize(static_cast<size_t>(std::min(intact - at, kReadChunk)));
        AEDB_RETURN_IF_ERROR(fs_->Pread(path_, at, head.size(), head.data()));
        AEDB_RETURN_IF_ERROR(fs_->Append(tmp, head));
      }
      return Status::OK();
    }));
  }
  next_lsn_ = std::max(next_lsn_, last_lsn + 1);
  bytes_ = intact;
  base_bytes_ = base;
  poisoned_ = false;
  return Status::OK();
}

Result<uint64_t> Wal::Append(LogRecord record) {
  AEDB_RETURN_IF_ERROR(AEDB_FAULT_POINT("wal/append"));
  std::lock_guard<std::mutex> lock(mu_);
  if (poisoned_) return PoisonedError();
  record.lsn = next_lsn_++;
  const Bytes frame = Frame(record);

  Status st = Status::OK();
  size_t landed = frame.size();
  fault::FaultSpec torn;
  if (AEDB_FAULT_FIRED("wal/torn_append", &torn)) {
    // Crash mid-write: only a prefix of the frame reaches the file.
    landed = torn.arg != 0 && torn.arg < frame.size() ? torn.arg
                                                      : frame.size() / 2;
    st = torn.status.ok() ? Status::Internal("torn log write") : torn.status;
  }
  Status written = fs_->Append(path_, Slice(frame.data(), landed));
  if (!written.ok()) st = std::move(written);
  if (st.ok()) {
    bytes_ += frame.size();
    return record.lsn;
  }
  // The file may hold a partial frame. A record appended after it could be
  // fsynced and acked, yet no reader gets past the bad frame to see it:
  // refuse writes until a rewrite from the intact prefix. That prefix is
  // made durable first, so a commit appended before the tear is still acked
  // (a failed fsync leaves synced_lsn_ alone).
  auto size = fs_->Size(path_);
  bytes_ = size.ok() ? *size : bytes_ + landed;
  next_lsn_ = record.lsn;  // the torn record never joined the log
  if (fsio::SyncFile(*fs_, path_, &fsyncs_).ok()) {
    synced_lsn_ = record.lsn - 1;
  }
  poisoned_ = true;
  ++file_errors_;
  return st;
}

Status Wal::Sync() {
  AEDB_RETURN_IF_ERROR(AEDB_FAULT_POINT("wal/sync"));
  std::lock_guard<std::mutex> lock(mu_);
  if (poisoned_) return PoisonedError();
  if (bytes_ == 0) return Status::OK();  // nothing written to make durable
  Status st = fsio::SyncFile(*fs_, path_, &fsyncs_);
  if (!st.ok()) {
    // A failed fsync may have lost the writes it covered, and a retried one
    // can "succeed" without them (the kernel reports a writeback error
    // once). Poison the log so every later barrier fails until an atomic
    // rewrite (e.g. a checkpoint) re-lands the whole log.
    poisoned_ = true;
    ++file_errors_;
  }
  return st;
}

Status Wal::SyncUpTo(uint64_t lsn) {
  // Per-caller fault check, before joining any cohort: a committer whose
  // sync "fails" here must not be made durable by a neighboring leader's
  // fsync — that would ack a commit the fault said did not reach disk.
  AEDB_RETURN_IF_ERROR(AEDB_FAULT_POINT("wal/sync"));
  std::unique_lock<std::mutex> lock(mu_);
  ++sync_requests_;
  for (;;) {
    // Covered first: a failed fsync never advances synced_lsn_, so a record
    // it covers stayed durable even if the log was poisoned since.
    if (synced_lsn_ >= lsn) return Status::OK();
    if (poisoned_) return PoisonedError();
    if (sync_in_progress_) {
      // Follow: the running (or next) leader's barrier will cover our lsn,
      // because our record was appended before this call.
      sync_cv_.wait(lock);
      continue;
    }
    sync_in_progress_ = true;
    if (group_commit_window_us_ > 0) {
      // Linger with mu_ released so more committers can append + enqueue.
      uint64_t window = group_commit_window_us_;
      lock.unlock();
      std::this_thread::sleep_for(std::chrono::microseconds(window));
      lock.lock();
    }
    // Everything appended so far rides this barrier.
    uint64_t covered = next_lsn_ - 1;
    // fsync outside mu_ — this is what lets followers append their commit
    // records while the leader syncs, forming the next cohort. A rewrite
    // (Rewrite, LoadImage) can run meanwhile and replace the file. The
    // barrier stays sound: every record up to `covered` was appended before
    // that rewrite took mu_, so the rewrite, which fsyncs its new file
    // before the rename, makes what replaces it durable.
    lock.unlock();
    Status synced = fsio::SyncFile(*fs_, path_, &fsyncs_);
    lock.lock();
    sync_in_progress_ = false;
    sync_cv_.notify_all();
    if (!synced.ok()) {
      // Do NOT let a follower elect itself leader and retry: the retried
      // fsync could return success without the failed writes being durable
      // (see Sync) — acking commits that never reached disk. Poison the log
      // instead: every queued and future barrier fails until an atomic
      // rewrite re-lands the whole log.
      poisoned_ = true;
      ++file_errors_;
      return synced;
    }
    synced_lsn_ = std::max(synced_lsn_, covered);
    ++group_commit_batches_;
    // Loop re-checks: our lsn is ≤ covered (appended before the call).
  }
}

void Wal::set_group_commit_window_us(uint64_t us) {
  std::lock_guard<std::mutex> lock(mu_);
  group_commit_window_us_ = us;
}

uint64_t Wal::group_commit_batches() const {
  std::lock_guard<std::mutex> lock(mu_);
  return group_commit_batches_;
}

uint64_t Wal::sync_requests() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sync_requests_;
}

Status Wal::Scan(const RecordSink& visit) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto size = fs_->Size(path_);
  if (size.status().IsNotFound()) return Status::OK();
  if (!size.ok()) return size.status();
  Status visited;
  AEDB_RETURN_IF_ERROR(
      WalkFileFrames(*fs_, path_, *size, [&](Slice body, uint64_t) {
        size_t at = 0;
        auto rec = LogRecord::Deserialize(body, &at);
        if (!rec.ok() || at != body.size()) return false;
        visited = visit(std::move(*rec));
        return visited.ok();
      }).status());
  return visited;
}

Result<std::vector<LogRecord>> Wal::Snapshot() const {
  std::vector<LogRecord> records;
  AEDB_RETURN_IF_ERROR(Scan([&records](LogRecord rec) {
    records.push_back(std::move(rec));
    return Status::OK();
  }));
  return records;
}

uint64_t Wal::next_lsn() const {
  std::lock_guard<std::mutex> lock(mu_);
  return next_lsn_;
}

Status Wal::Rewrite(const std::function<Status(const RecordSink&)>& write) {
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t first_lsn = next_lsn_;
  uint64_t lsn = first_lsn;
  uint64_t size = 0;
  Status written = ReplaceLocked([&](const std::string& tmp) -> Status {
    // The kRewrite frame goes first, claiming a base longer than any file
    // (so it cannot pass for a whole one), and is overwritten in place once
    // the length is known.
    AEDB_RETURN_IF_ERROR(fs_->Append(tmp, RewriteFrame(lsn++, UINT64_MAX)));
    size = kRewriteFrameBytes;
    AEDB_RETURN_IF_ERROR(write([&](LogRecord record) -> Status {
      record.lsn = lsn++;
      const Bytes frame = Frame(record);
      size += frame.size();
      return fs_->Append(tmp, frame);
    }));
    return fs_->Pwrite(tmp, 0, RewriteFrame(first_lsn, size));
  });
  if (!written.ok()) return written;
  next_lsn_ = lsn;
  // The base is durable: it stands for everything the old file held.
  synced_lsn_ = lsn - 1;
  bytes_ = base_bytes_ = size;
  return Status::OK();
}

Bytes Wal::RawBytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  auto read = fs_->ReadFile(path_);
  return read.ok() ? std::move(read).value() : Bytes();
}

WalLoadResult Wal::ParseImage(Slice image) {
  WalLoadResult out;
  out.bytes_consumed = WalkFrames(image, [&out](Slice body, size_t end) {
    size_t body_off = 0;
    auto rec = LogRecord::Deserialize(body, &body_off);
    if (!rec.ok() || body_off != body.size()) return false;
    out.records.push_back(std::move(*rec));
    out.frame_ends.push_back(end);
    return true;
  });
  out.torn_tail = out.bytes_consumed != image.size();
  return out;
}

WalLoadResult Wal::LoadImage(Slice image) {
  WalLoadResult parsed = ParseImage(image);
  std::lock_guard<std::mutex> lock(mu_);
  next_lsn_ = parsed.records.empty() ? 1 : parsed.records.back().lsn + 1;
  // next_lsn_ may have moved backwards; a stale fsync watermark would let
  // SyncUpTo treat brand-new records at reused LSNs as already durable.
  synced_lsn_ = 0;
  // The log keeps only the intact prefix: recovery discards a torn tail for
  // good, exactly like a real log manager zeroing past end-of-log.
  torn_dropped_ += image.size() - parsed.bytes_consumed;
  // The file must now hold what next_lsn_ was computed from: a failed
  // rewrite poisons the log. This API has no status channel, so
  // file_errors() and poisoned() are the observables.
  const Slice kept = image.subslice(0, parsed.bytes_consumed);
  if (ReplaceLocked([&](const std::string& tmp) {
        return fs_->Append(tmp, kept);
      }).ok()) {
    bytes_ = kept.size();
  } else {
    poisoned_ = true;
  }
  auto base = BaseBytes(kept, kept.size());
  base_bytes_ = base.ok() ? *base : 0;
  return parsed;
}

Status Wal::ReplaceLocked(
    const std::function<Status(const std::string&)>& fill) {
  Status written = fsio::ReplaceFileDurable(*fs_, path_, fill, &fsyncs_);
  if (!written.ok()) {
    // The rename never happened: the old file is still the live log, so
    // durability is intact. Count and report.
    ++file_errors_;
    return written;
  }
  poisoned_ = false;
  return Status::OK();
}

uint64_t Wal::fsyncs() const {
  return fsyncs_.load(std::memory_order_relaxed);
}

uint64_t Wal::torn_bytes_dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return torn_dropped_;
}

uint64_t Wal::wal_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bytes_;
}

uint64_t Wal::base_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return base_bytes_;
}

uint64_t Wal::file_errors() const {
  std::lock_guard<std::mutex> lock(mu_);
  return file_errors_;
}

bool Wal::poisoned() const {
  std::lock_guard<std::mutex> lock(mu_);
  return poisoned_;
}

}  // namespace aedb::storage
