#ifndef AEDB_STORAGE_FSIO_H_
#define AEDB_STORAGE_FSIO_H_

#include <cstdint>
#include <string>

#include "common/bytes.h"
#include "common/result.h"

namespace aedb::storage::fsio {

/// Durable-file protocol helpers shared by every Wal (wal.log, ddl.log,
/// 2pc.log) and the checkpoint writer. The invariant every caller relies on:
/// after any of these return OK, a kill -9 (or power cut, modulo the device)
/// at ANY later point leaves the named file either absent (never created) or
/// exactly the bytes written — never a half-renamed or unlinked-but-cached
/// state. That takes fsync of the file AND of its containing directory (the
/// rename/create is directory metadata).

/// Total fsync/fdatasync calls issued through this module plus Wal — the
/// durability cost gauge surfaced by Database::Stats (ROADMAP item 2's group
/// commit divides committed transactions by this).
uint64_t FsyncsPerformed();
/// Records an fsync done elsewhere (the WAL's commit-path fsync).
void CountFsync();

/// The directory part of `path` ("." when there is no slash).
std::string DirName(const std::string& path);

bool FileExists(const std::string& path);

/// mkdir -p, one level at a time; OK if it already exists.
Status EnsureDir(const std::string& dir);

/// fsyncs a directory so a create/rename/unlink inside it is durable.
Status SyncDir(const std::string& dir);

Result<Bytes> ReadFileBytes(const std::string& path);

/// Writes `contents` to `path` atomically: tmp file → fsync → rename →
/// fsync(dir). Readers never observe a partial file. Fault point
/// `fsio/pre_rename` fires between the tmp fsync and the rename — the window
/// where a crash leaves only the tmp file (harmless; reopened stores ignore
/// and delete stray "*.tmp").
Status WriteFileDurable(const std::string& path, Slice contents);

/// unlink + fsync(dir); OK when the file does not exist.
Status RemoveFileDurable(const std::string& path);

}  // namespace aedb::storage::fsio

#endif  // AEDB_STORAGE_FSIO_H_
