#ifndef AEDB_STORAGE_SIM_FS_H_
#define AEDB_STORAGE_SIM_FS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "storage/fsio.h"

namespace aedb::storage {

/// \brief A simulated disk that can lose power: the Fs of every Database
/// without a data directory, and of the power-loss tests.
///
/// Each file keeps its contents plus an undo record of every write since its
/// last Fsync; each directory keeps its durable entries plus the creates,
/// renames and unlinks since its last SyncDir. Crash(seed) is a power cut:
/// every file and every directory keeps its durable state plus a seeded
/// prefix of its pending writes, and the last write a file keeps may be torn.
/// Files and directories are cut independently, as a disk that reorders
/// unsynced writes may (Pillai et al., "All File Systems Are Not Created
/// Equal", OSDI '14). A failed fsync leaves its writes pending, for the crash
/// to keep or drop.
///
/// Paths are '/'-separated; "", "/" and "." name the root, which always
/// exists. A rename must stay within one directory.
class SimFs : public Fs {
 public:
  SimFs();

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

  /// Cuts the power at the `n`th Fsync or SyncDir from now (n >= 1): that
  /// call fails, and so does every call after it until Crash.
  void CutPowerAtSync(uint64_t n);
  /// Cuts the power now.
  void CutPower();
  /// Turns the power back on over what a power cut leaves (see the class
  /// comment); `seed` picks which pending writes survive.
  void Crash(uint64_t seed);
  /// Fsync and SyncDir calls so far, failed ones included.
  uint64_t syncs() const;
  /// Every file's contents by path, unsynced writes included: what an
  /// adversary with the disk sees.
  std::map<std::string, Bytes> Files() const;

 private:
  struct Node;

  /// The node at `path`, or null. Holds mu_.
  Node* FindLocked(const std::string& path) const;
  /// The directory at `path`; NotFound when there is none. Holds mu_.
  Result<Node*> DirLocked(const std::string& path) const;
  /// The file at `path`, created when missing if `create`. Holds mu_.
  Result<Node*> FileLocked(const std::string& path, bool create);
  /// OK while the power is on. Holds mu_.
  Status PoweredLocked() const;
  /// Counts an Fsync or SyncDir, and cuts the power on the scheduled one.
  Status SyncLocked();

  mutable std::mutex mu_;
  std::shared_ptr<Node> root_;
  bool powered_ = true;
  uint64_t syncs_ = 0;
  uint64_t cut_at_sync_ = 0;  // 0: no cut scheduled
};

}  // namespace aedb::storage

#endif  // AEDB_STORAGE_SIM_FS_H_
