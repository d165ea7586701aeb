#include "storage/fsio.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "fault/fault.h"

namespace aedb::storage {

namespace {

Status Errno(const std::string& what, const std::string& path) {
  if (errno == ENOENT) return Status::NotFound("no such file: " + path);
  return Status::Internal(what + " " + path + ": " + std::strerror(errno));
}

/// Writes all of `data` at `offset` (ignored under O_APPEND) to `path`.
Status WriteAt(const std::string& path, int flags, uint64_t offset,
               Slice data) {
  int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | flags, 0644);
  if (fd < 0) return Errno("open", path);
  Status st;
  for (size_t done = 0; done < data.size();) {
    ssize_t n = ::pwrite(fd, data.data() + done, data.size() - done,
                         static_cast<off_t>(offset + done));
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) {
      st = Errno("write", path);
      break;
    }
    done += static_cast<size_t>(n);
  }
  ::close(fd);
  return st;
}

Status FsyncPath(const std::string& path, int flags) {
  int fd = ::open(path.c_str(), flags);
  if (fd < 0) return Errno("open", path);
  Status st = ::fsync(fd) == 0 ? Status::OK() : Errno("fsync", path);
  ::close(fd);
  return st;
}

}  // namespace

// ---------------------------------------------------------------------------
// PosixFs

Status PosixFs::Append(const std::string& path, Slice data) {
  return WriteAt(path, O_APPEND, 0, data);
}

Status PosixFs::Pwrite(const std::string& path, uint64_t offset, Slice data) {
  return WriteAt(path, 0, offset, data);
}

Status PosixFs::Pread(const std::string& path, uint64_t offset, size_t n,
                      uint8_t* out) {
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return Errno("open", path);
  Status st;
  for (size_t done = 0; done < n && st.ok();) {
    ssize_t r = ::pread(fd, out + done, n - done,
                        static_cast<off_t>(offset + done));
    if (r < 0 && errno == EINTR) continue;
    if (r < 0) st = Errno("read", path);
    if (r == 0) st = Status::NotFound("read past the end of " + path);
    if (r > 0) done += static_cast<size_t>(r);
  }
  ::close(fd);
  return st;
}

Result<Bytes> PosixFs::ReadFile(const std::string& path) {
  uint64_t size;
  AEDB_ASSIGN_OR_RETURN(size, Size(path));
  Bytes out(size);
  AEDB_RETURN_IF_ERROR(Pread(path, 0, out.size(), out.data()));
  return out;
}

Status PosixFs::Fsync(const std::string& path) {
  return FsyncPath(path, O_RDONLY);
}

Status PosixFs::Rename(const std::string& from, const std::string& to) {
  if (::rename(from.c_str(), to.c_str()) != 0) return Errno("rename", from);
  return Status::OK();
}

Status PosixFs::Unlink(const std::string& path) {
  if (::unlink(path.c_str()) != 0) return Errno("unlink", path);
  return Status::OK();
}

Result<std::vector<std::string>> PosixFs::List(const std::string& dir) {
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return Errno("opendir", dir);
  std::vector<std::string> names;
  while (dirent* ent = ::readdir(d)) {
    std::string name = ent->d_name;
    if (name != "." && name != "..") names.push_back(std::move(name));
  }
  ::closedir(d);
  std::sort(names.begin(), names.end());
  return names;
}

Status PosixFs::Mkdir(const std::string& dir) {
  if (::mkdir(dir.c_str(), 0755) == 0) return Status::OK();
  if (errno != EEXIST) return Errno("mkdir", dir);
  struct stat st;
  if (::stat(dir.c_str(), &st) == 0 && S_ISDIR(st.st_mode)) {
    return Status::AlreadyExists(dir);
  }
  return Status::InvalidArgument(dir + " exists and is not a directory");
}

Status PosixFs::SyncDir(const std::string& dir) {
  return FsyncPath(dir, O_RDONLY | O_DIRECTORY);
}

Result<uint64_t> PosixFs::Size(const std::string& path) {
  struct stat st;
  if (::stat(path.c_str(), &st) != 0) return Errno("stat", path);
  return static_cast<uint64_t>(st.st_size);
}

// ---------------------------------------------------------------------------
// Durable-file protocols

namespace fsio {

std::string DirName(const std::string& path) {
  size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

bool FileExists(Fs& fs, const std::string& path) {
  return fs.Size(path).ok();
}

Status SyncFile(Fs& fs, const std::string& path, FsyncCount* fsyncs) {
  AEDB_RETURN_IF_ERROR(fs.Fsync(path));
  fsyncs->fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Status SyncDir(Fs& fs, const std::string& dir, FsyncCount* fsyncs) {
  AEDB_RETURN_IF_ERROR(fs.SyncDir(dir));
  fsyncs->fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Status EnsureDir(Fs& fs, const std::string& dir, FsyncCount* fsyncs) {
  if (dir.empty() || dir == "/" || dir == ".") return Status::OK();
  Status made = fs.Mkdir(dir);
  if (made.IsNotFound()) {
    AEDB_RETURN_IF_ERROR(EnsureDir(fs, DirName(dir), fsyncs));
    made = fs.Mkdir(dir);
  }
  if (made.code() == StatusCode::kAlreadyExists) return Status::OK();
  AEDB_RETURN_IF_ERROR(made);
  return SyncDir(fs, DirName(dir), fsyncs);
}

Status ReplaceFileDurable(
    Fs& fs, const std::string& path,
    const std::function<Status(const std::string& tmp)>& fill,
    FsyncCount* fsyncs) {
  const std::string tmp = path + ".tmp";
  // A crash can leave a tmp file behind; start it afresh.
  Status cleared = fs.Unlink(tmp);
  if (!cleared.ok() && !cleared.IsNotFound()) return cleared;
  Status st = fill(tmp);
  if (st.ok()) st = SyncFile(fs, tmp, fsyncs);
  // Crash window: tmp durable, target untouched. A die-at here models a kill
  // between a log rewrite's write and its publish.
  if (st.ok()) st = AEDB_FAULT_POINT("fsio/pre_rename");
  if (st.ok()) st = fs.Rename(tmp, path);
  if (!st.ok()) {
    (void)fs.Unlink(tmp);
    return st;
  }
  return SyncDir(fs, DirName(path), fsyncs);
}

Status WriteFileDurable(Fs& fs, const std::string& path, Slice contents,
                        FsyncCount* fsyncs) {
  return ReplaceFileDurable(
      fs, path,
      [&](const std::string& tmp) { return fs.Append(tmp, contents); },
      fsyncs);
}

Status RemoveFileDurable(Fs& fs, const std::string& path, FsyncCount* fsyncs) {
  Status st = fs.Unlink(path);
  if (st.IsNotFound()) return Status::OK();
  AEDB_RETURN_IF_ERROR(st);
  return SyncDir(fs, DirName(path), fsyncs);
}

}  // namespace fsio

}  // namespace aedb::storage
