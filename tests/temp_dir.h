#ifndef AEDB_TESTS_TEMP_DIR_H_
#define AEDB_TESTS_TEMP_DIR_H_

// A self-cleaning scratch directory for tests that write data dirs, WAL files
// or page spills. Header-only.

#include <stdlib.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <system_error>
#include <vector>

namespace aedb::testing {

/// A fresh directory under /tmp, removed with its contents.
class TempDir {
 public:
  TempDir() {
    char templ[] = "/tmp/aedb_test_XXXXXX";
    if (mkdtemp(templ) == nullptr) {
      std::perror("mkdtemp");
      std::abort();
    }
    path_ = templ;
  }
  ~TempDir() {
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  const std::string& path() const { return path_; }
  std::string File(const std::string& name) const { return path_ + "/" + name; }

  /// Every non-directory under the directory, recursively.
  std::vector<std::string> Files() const {
    std::vector<std::string> out;
    for (const auto& entry :
         std::filesystem::recursive_directory_iterator(path_)) {
      if (!entry.is_directory()) out.push_back(entry.path().string());
    }
    return out;
  }

 private:
  std::string path_;
};

}  // namespace aedb::testing

#endif  // AEDB_TESTS_TEMP_DIR_H_
