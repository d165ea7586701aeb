#include "storage/sim_fs.h"

#include <algorithm>
#include <cstring>
#include <set>

#include "common/random.h"

namespace aedb::storage {

namespace {

/// Unsynced writes a file keeps undo records for. Past this the oldest half
/// reaches the disk, as an OS writes dirty pages back on its own, so the
/// page store, whose files nothing fsyncs, stays bounded.
constexpr size_t kMaxPendingWrites = 256;

/// One unsynced write's undo record.
struct PendingWrite {
  uint64_t offset = 0;
  uint64_t len = 0;
  uint64_t old_size = 0;  // the file's size before the write
  Bytes old;              // the overwritten bytes that lay below old_size
};

std::vector<std::string> Split(const std::string& path) {
  std::vector<std::string> parts;
  size_t start = 0;
  while (start <= path.size()) {
    size_t slash = path.find('/', start);
    if (slash == std::string::npos) slash = path.size();
    std::string part = path.substr(start, slash - start);
    if (!part.empty() && part != ".") parts.push_back(std::move(part));
    start = slash + 1;
  }
  return parts;
}

std::string BaseName(const std::string& path) {
  size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

Status PowerLost() { return Status::Internal("simulated power loss"); }

}  // namespace

struct SimFs::Node {
  /// One pending directory change: a create is {name, node}, an unlink
  /// {name, null}; a rename also names `from`, so a crash keeps it whole.
  struct DirOp {
    std::string name;
    std::string from;
    std::shared_ptr<Node> node;
  };

  bool dir = false;
  // A file: its contents, and an undo record per unsynced write, oldest first.
  Bytes data;
  std::vector<PendingWrite> writes;
  // A directory: its entries now, its durable entries, and the changes that
  // lead from these to those, oldest first.
  std::map<std::string, std::shared_ptr<Node>> entries;
  std::map<std::string, std::shared_ptr<Node>> durable;
  std::vector<DirOp> ops;

  void Write(uint64_t offset, Slice bytes) {
    PendingWrite w{offset, bytes.size(), data.size(), {}};
    if (offset < data.size()) {
      const uint64_t end =
          std::min<uint64_t>(offset + bytes.size(), data.size());
      w.old.assign(data.begin() + offset, data.begin() + end);
    }
    if (data.size() < offset + bytes.size()) data.resize(offset + bytes.size());
    if (!bytes.empty()) {
      std::memcpy(data.data() + offset, bytes.data(), bytes.size());
    }
    writes.push_back(std::move(w));
    if (writes.size() > kMaxPendingWrites) {
      writes.erase(writes.begin(), writes.begin() + kMaxPendingWrites / 2);
    }
  }

  /// Rolls the newest pending write back, all but its first `kept` bytes.
  void Undo(uint64_t kept) {
    const PendingWrite& w = writes.back();
    const uint64_t from = w.offset + kept;
    const uint64_t old_end = w.offset + w.old.size();
    if (from < old_end) {
      std::memcpy(data.data() + from, w.old.data() + kept, old_end - from);
    }
    data.resize(std::max(w.old_size, from));
    writes.pop_back();
  }

  void Link(const std::string& name, std::shared_ptr<Node> node,
            const std::string& from = "") {
    if (!from.empty()) entries.erase(from);
    if (node != nullptr) {
      entries[name] = node;
    } else {
      entries.erase(name);
    }
    ops.push_back({name, from, std::move(node)});
  }

  /// Durable state plus a seeded prefix of the pending changes.
  void Crash(Xoshiro256* rng) {
    if (dir) {
      const size_t keep =
          static_cast<size_t>(rng->Uniform(0, static_cast<int64_t>(ops.size())));
      for (size_t i = 0; i < keep; ++i) {
        if (!ops[i].from.empty()) durable.erase(ops[i].from);
        if (ops[i].node != nullptr) {
          durable[ops[i].name] = ops[i].node;
        } else {
          durable.erase(ops[i].name);
        }
      }
      ops.clear();
      entries = durable;
      return;
    }
    const size_t keep = static_cast<size_t>(
        rng->Uniform(0, static_cast<int64_t>(writes.size())));
    while (writes.size() > keep) Undo(0);
    if (keep > 0 && writes.back().len > 0 && rng->Uniform(0, 1) == 1) {
      Undo(static_cast<uint64_t>(
          rng->Uniform(0, static_cast<int64_t>(writes.back().len) - 1)));
    }
    writes.clear();
  }
};

SimFs::SimFs() : root_(std::make_shared<Node>()) { root_->dir = true; }

SimFs::Node* SimFs::FindLocked(const std::string& path) const {
  Node* node = root_.get();
  for (const std::string& part : Split(path)) {
    if (!node->dir) return nullptr;
    auto it = node->entries.find(part);
    if (it == node->entries.end()) return nullptr;
    node = it->second.get();
  }
  return node;
}

Result<SimFs::Node*> SimFs::DirLocked(const std::string& path) const {
  AEDB_RETURN_IF_ERROR(PoweredLocked());
  Node* dir = FindLocked(path);
  if (dir == nullptr || !dir->dir) {
    return Status::NotFound("no such directory: " + path);
  }
  return dir;
}

Result<SimFs::Node*> SimFs::FileLocked(const std::string& path, bool create) {
  AEDB_RETURN_IF_ERROR(PoweredLocked());
  if (Node* node = FindLocked(path); node != nullptr) {
    if (node->dir) return Status::InvalidArgument(path + " is a directory");
    return node;
  }
  if (!create) return Status::NotFound("no such file: " + path);
  Node* dir;
  AEDB_ASSIGN_OR_RETURN(dir, DirLocked(fsio::DirName(path)));
  auto file = std::make_shared<Node>();
  dir->Link(BaseName(path), file);
  return file.get();
}

Status SimFs::PoweredLocked() const {
  return powered_ ? Status::OK() : PowerLost();
}

Status SimFs::SyncLocked() {
  ++syncs_;
  AEDB_RETURN_IF_ERROR(PoweredLocked());
  if (cut_at_sync_ != 0 && --cut_at_sync_ == 0) {
    powered_ = false;
    return PowerLost();
  }
  return Status::OK();
}

Status SimFs::Append(const std::string& path, Slice data) {
  std::lock_guard<std::mutex> lock(mu_);
  Node* file;
  AEDB_ASSIGN_OR_RETURN(file, FileLocked(path, /*create=*/true));
  file->Write(file->data.size(), data);
  return Status::OK();
}

Status SimFs::Pwrite(const std::string& path, uint64_t offset, Slice data) {
  std::lock_guard<std::mutex> lock(mu_);
  Node* file;
  AEDB_ASSIGN_OR_RETURN(file, FileLocked(path, /*create=*/true));
  file->Write(offset, data);
  return Status::OK();
}

Status SimFs::Pread(const std::string& path, uint64_t offset, size_t n,
                    uint8_t* out) {
  std::lock_guard<std::mutex> lock(mu_);
  Node* file;
  AEDB_ASSIGN_OR_RETURN(file, FileLocked(path, /*create=*/false));
  if (offset + n > file->data.size()) {
    return Status::NotFound("read past the end of " + path);
  }
  std::memcpy(out, file->data.data() + offset, n);
  return Status::OK();
}

Result<Bytes> SimFs::ReadFile(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  Node* file;
  AEDB_ASSIGN_OR_RETURN(file, FileLocked(path, /*create=*/false));
  return file->data;
}

Status SimFs::Fsync(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  AEDB_RETURN_IF_ERROR(SyncLocked());
  Node* file;
  AEDB_ASSIGN_OR_RETURN(file, FileLocked(path, /*create=*/false));
  file->writes.clear();
  return Status::OK();
}

Status SimFs::Rename(const std::string& from, const std::string& to) {
  std::lock_guard<std::mutex> lock(mu_);
  Node* dir;
  AEDB_ASSIGN_OR_RETURN(dir, DirLocked(fsio::DirName(from)));
  if (FindLocked(fsio::DirName(to)) != dir) {
    return Status::InvalidArgument("rename across directories: " + to);
  }
  auto it = dir->entries.find(BaseName(from));
  if (it == dir->entries.end()) return Status::NotFound("no such file: " + from);
  dir->Link(BaseName(to), it->second, BaseName(from));
  return Status::OK();
}

Status SimFs::Unlink(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  Node* file;
  AEDB_ASSIGN_OR_RETURN(file, FileLocked(path, /*create=*/false));
  (void)file;
  FindLocked(fsio::DirName(path))->Link(BaseName(path), nullptr);
  return Status::OK();
}

Result<std::vector<std::string>> SimFs::List(const std::string& dir) {
  std::lock_guard<std::mutex> lock(mu_);
  Node* node;
  AEDB_ASSIGN_OR_RETURN(node, DirLocked(dir));
  std::vector<std::string> names;
  for (const auto& [name, child] : node->entries) names.push_back(name);
  return names;
}

Status SimFs::Mkdir(const std::string& dir) {
  std::lock_guard<std::mutex> lock(mu_);
  AEDB_RETURN_IF_ERROR(PoweredLocked());
  if (Node* node = FindLocked(dir); node != nullptr) {
    if (node->dir) return Status::AlreadyExists(dir);
    return Status::InvalidArgument(dir + " exists and is not a directory");
  }
  Node* parent;
  AEDB_ASSIGN_OR_RETURN(parent, DirLocked(fsio::DirName(dir)));
  auto node = std::make_shared<Node>();
  node->dir = true;
  parent->Link(BaseName(dir), std::move(node));
  return Status::OK();
}

Status SimFs::SyncDir(const std::string& dir) {
  std::lock_guard<std::mutex> lock(mu_);
  AEDB_RETURN_IF_ERROR(SyncLocked());
  Node* node;
  AEDB_ASSIGN_OR_RETURN(node, DirLocked(dir));
  node->durable = node->entries;
  node->ops.clear();
  return Status::OK();
}

Result<uint64_t> SimFs::Size(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  Node* file;
  AEDB_ASSIGN_OR_RETURN(file, FileLocked(path, /*create=*/false));
  return static_cast<uint64_t>(file->data.size());
}

void SimFs::CutPowerAtSync(uint64_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  cut_at_sync_ = n;
}

void SimFs::CutPower() {
  std::lock_guard<std::mutex> lock(mu_);
  powered_ = false;
}

void SimFs::Crash(uint64_t seed) {
  std::lock_guard<std::mutex> lock(mu_);
  Xoshiro256 rng(seed);
  // Directories first: a node their crash unlinks is gone for good.
  std::vector<Node*> work = {root_.get()};
  std::set<Node*> seen;
  while (!work.empty()) {
    Node* node = work.back();
    work.pop_back();
    if (!seen.insert(node).second) continue;
    node->Crash(&rng);
    for (const auto& [name, child] : node->entries) work.push_back(child.get());
  }
  powered_ = true;
  cut_at_sync_ = 0;
}

uint64_t SimFs::syncs() const {
  std::lock_guard<std::mutex> lock(mu_);
  return syncs_;
}

std::map<std::string, Bytes> SimFs::Files() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, Bytes> out;
  std::vector<std::pair<std::string, const Node*>> work = {{"", root_.get()}};
  while (!work.empty()) {
    auto [path, node] = work.back();
    work.pop_back();
    for (const auto& [name, child] : node->entries) {
      if (child->dir) {
        work.push_back({path + "/" + name, child.get()});
      } else {
        out.emplace(path + "/" + name, child->data);
      }
    }
  }
  return out;
}

}  // namespace aedb::storage
