#ifndef AEDB_COMMON_BYTES_H_
#define AEDB_COMMON_BYTES_H_

#include <array>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"

namespace aedb {

/// Owning byte buffer used throughout the codebase for ciphertext, serialized
/// rows, wire messages, and key material.
using Bytes = std::vector<uint8_t>;

/// Non-owning view over a byte range (RocksDB-style Slice).
class Slice {
 public:
  Slice() : data_(nullptr), size_(0) {}
  Slice(const uint8_t* data, size_t size) : data_(data), size_(size) {}
  Slice(const Bytes& b) : data_(b.data()), size_(b.size()) {}  // NOLINT
  template <size_t N>
  Slice(const std::array<uint8_t, N>& a) : data_(a.data()), size_(N) {}  // NOLINT
  explicit Slice(std::string_view s)
      : data_(reinterpret_cast<const uint8_t*>(s.data())), size_(s.size()) {}

  const uint8_t* data() const { return data_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  uint8_t operator[](size_t i) const { return data_[i]; }

  /// Sub-range view; caller must ensure offset/len are in bounds.
  Slice subslice(size_t offset, size_t len) const {
    return Slice(data_ + offset, len);
  }

  Bytes ToBytes() const { return Bytes(data_, data_ + size_); }
  std::string ToString() const {
    return std::string(reinterpret_cast<const char*>(data_), size_);
  }

  /// Lexicographic byte-wise comparison (memcmp order). This is the order an
  /// equality index over DET ciphertext uses.
  int compare(const Slice& other) const {
    size_t n = size_ < other.size_ ? size_ : other.size_;
    int r = n == 0 ? 0 : std::memcmp(data_, other.data_, n);
    if (r != 0) return r;
    if (size_ < other.size_) return -1;
    if (size_ > other.size_) return 1;
    return 0;
  }

 private:
  const uint8_t* data_;
  size_t size_;
};

inline bool operator==(const Slice& a, const Slice& b) { return a.compare(b) == 0; }
inline bool operator!=(const Slice& a, const Slice& b) { return !(a == b); }

/// Lowercase hex encoding of a byte range.
std::string HexEncode(Slice data);

/// Decodes lowercase/uppercase hex, optionally prefixed with "0x".
Result<Bytes> HexDecode(std::string_view hex);

/// Timing-safe equality (always scans both inputs fully). Used for MAC and
/// signature comparisons so the untrusted host cannot mount timing attacks on
/// verification routines running inside trusted components.
bool ConstantTimeEquals(Slice a, Slice b);

/// Appends `v` to `out` in little-endian byte order.
void PutU16(Bytes* out, uint16_t v);
void PutU32(Bytes* out, uint32_t v);
void PutU64(Bytes* out, uint64_t v);
/// Appends a u32 length prefix followed by the payload bytes.
void PutLengthPrefixed(Bytes* out, Slice payload);

/// Cursor-based decoding over a byte buffer; each Get* advances `*offset` and
/// fails with Corruption when the buffer is exhausted.
Result<uint16_t> GetU16(Slice in, size_t* offset);
Result<uint32_t> GetU32(Slice in, size_t* offset);
Result<uint64_t> GetU64(Slice in, size_t* offset);
Result<Bytes> GetLengthPrefixed(Slice in, size_t* offset);

/// Converts a UTF-8 string to the byte sequence used for key-derivation
/// labels (UTF-16LE, matching the product's derivation strings).
Bytes Utf16LeBytes(std::string_view s);

}  // namespace aedb

#endif  // AEDB_COMMON_BYTES_H_
