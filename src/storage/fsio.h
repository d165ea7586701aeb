#ifndef AEDB_STORAGE_FSIO_H_
#define AEDB_STORAGE_FSIO_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/result.h"

namespace aedb::storage {

/// \brief The one interface every durable file goes through: the three logs
/// (wal.log, ddl.log, 2pc.log), the page store, the checkpoint file and the
/// clean-shutdown marker. PosixFs is the real disk; SimFs (sim_fs.h) is a
/// simulated one that can lose power, and it is what a Database with no data
/// directory runs on.
///
/// Calls name files by path; an implementation keeps whatever handles it
/// needs. A write is durable only once its file is fsynced, and a create,
/// rename or unlink only once its directory is: a power cut may keep or drop
/// anything newer (see SimFs::Crash). Every call is thread-safe.
class Fs {
 public:
  Fs() = default;
  Fs(const Fs&) = delete;
  Fs& operator=(const Fs&) = delete;
  virtual ~Fs() = default;

  /// Appends `data` to `path`, creating the file when missing. A failed
  /// append may have landed any prefix of `data`.
  virtual Status Append(const std::string& path, Slice data) = 0;
  /// Writes `data` at `offset`, creating or extending the file as needed.
  virtual Status Pwrite(const std::string& path, uint64_t offset,
                        Slice data) = 0;
  /// Reads exactly `n` bytes at `offset`; NotFound when the file is missing
  /// or ends before them.
  virtual Status Pread(const std::string& path, uint64_t offset, size_t n,
                       uint8_t* out) = 0;
  /// The whole file; NotFound when missing.
  virtual Result<Bytes> ReadFile(const std::string& path) = 0;
  /// Makes every write to `path` so far durable.
  virtual Status Fsync(const std::string& path) = 0;
  /// Atomically replaces `to` with `from`, both in one directory.
  virtual Status Rename(const std::string& from, const std::string& to) = 0;
  /// Removes a file; NotFound when missing.
  virtual Status Unlink(const std::string& path) = 0;
  /// Names of the entries in `dir`; NotFound when missing.
  virtual Result<std::vector<std::string>> List(const std::string& dir) = 0;
  /// Creates one directory level: AlreadyExists when it is there, NotFound
  /// when its parent is not.
  virtual Status Mkdir(const std::string& dir) = 0;
  /// Makes the creates, renames and unlinks inside `dir` so far durable.
  virtual Status SyncDir(const std::string& dir) = 0;
  /// The file's size; NotFound when missing.
  virtual Result<uint64_t> Size(const std::string& path) = 0;
};

/// The operating system's file system. Each call opens the file by path, so
/// a rename or unlink between two calls is simply seen by the second.
class PosixFs : public Fs {
 public:
  Status Append(const std::string& path, Slice data) override;
  Status Pwrite(const std::string& path, uint64_t offset, Slice data) override;
  Status Pread(const std::string& path, uint64_t offset, size_t n,
               uint8_t* out) override;
  Result<Bytes> ReadFile(const std::string& path) override;
  Status Fsync(const std::string& path) override;
  Status Rename(const std::string& from, const std::string& to) override;
  Status Unlink(const std::string& path) override;
  Result<std::vector<std::string>> List(const std::string& dir) override;
  Status Mkdir(const std::string& dir) override;
  Status SyncDir(const std::string& dir) override;
  Result<uint64_t> Size(const std::string& path) override;
};

/// Durable-file protocols over an Fs. Each takes the owner's fsync gauge and
/// adds the fsyncs it issued (DatabaseStats::fsyncs adds up a database's
/// owners: its logs, its page store and the database itself). The invariant
/// every caller relies on: after any of these return OK, a power cut at ANY
/// later point leaves the named file either absent (never created) or
/// exactly the bytes written.
namespace fsio {

/// An owner's count of the fsyncs it issued.
using FsyncCount = std::atomic<uint64_t>;

/// The directory part of `path` ("." when there is no slash).
std::string DirName(const std::string& path);

bool FileExists(Fs& fs, const std::string& path);

/// fsync of one file or directory, counted on success.
Status SyncFile(Fs& fs, const std::string& path, FsyncCount* fsyncs);
Status SyncDir(Fs& fs, const std::string& dir, FsyncCount* fsyncs);

/// mkdir -p. Each directory it creates is made durable in its parent: a
/// power cut must not take a directory, and every file in it, away.
Status EnsureDir(Fs& fs, const std::string& dir, FsyncCount* fsyncs);

/// Writes `contents` to `path` atomically: tmp file → fsync → rename →
/// fsync(dir). Readers never observe a partial file. Fault point
/// `fsio/pre_rename` fires between the tmp fsync and the rename — the window
/// where a crash leaves only the tmp file (harmless: the next write of the
/// same file replaces it).
Status WriteFileDurable(Fs& fs, const std::string& path, Slice contents,
                        FsyncCount* fsyncs);

/// unlink + fsync(dir); OK when the file does not exist.
Status RemoveFileDurable(Fs& fs, const std::string& path, FsyncCount* fsyncs);

}  // namespace fsio

}  // namespace aedb::storage

#endif  // AEDB_STORAGE_FSIO_H_
