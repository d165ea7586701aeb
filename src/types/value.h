#ifndef AEDB_TYPES_VALUE_H_
#define AEDB_TYPES_VALUE_H_

#include <cstdint>
#include <string>
#include <variant>

#include "common/bytes.h"
#include "common/result.h"

namespace aedb::types {

/// Plaintext SQL type of a value or column.
enum class TypeId : uint8_t {
  kBool = 1,
  kInt32 = 2,
  kInt64 = 3,
  kDouble = 4,
  kString = 5,
  kBinary = 6,
};

const char* TypeIdName(TypeId t);

/// \brief A single SQL datum: a typed value or a typed NULL.
///
/// This is the representation expression services computes on (inside or
/// outside the enclave) and the unit of cell encryption: an encrypted cell is
/// the AEAD encryption of Value::Encode().
class Value {
 public:
  /// Typed NULL.
  static Value Null(TypeId t);
  static Value Bool(bool v);
  static Value Int32(int32_t v);
  static Value Int64(int64_t v);
  static Value Double(double v);
  static Value String(std::string v);
  static Value Binary(Bytes v);

  Value() : type_(TypeId::kInt32), null_(true) {}

  TypeId type() const { return type_; }
  bool is_null() const { return null_; }

  bool bool_v() const { return std::get<bool>(data_); }
  int32_t i32() const { return std::get<int32_t>(data_); }
  int64_t i64() const { return std::get<int64_t>(data_); }
  double dbl() const { return std::get<double>(data_); }
  const std::string& str() const { return std::get<std::string>(data_); }
  const Bytes& bin() const { return std::get<Bytes>(data_); }

  bool IsNumeric() const {
    return type_ == TypeId::kInt32 || type_ == TypeId::kInt64 ||
           type_ == TypeId::kDouble;
  }
  /// Numeric value widened to int64 (kInt32/kInt64 only).
  int64_t AsInt64() const;
  /// Numeric value widened to double.
  double AsDouble() const;

  /// Three-way comparison. Numeric types compare cross-type; strings,
  /// binaries and bools compare within their own type. NULL ordering is the
  /// caller's concern (expression evaluation applies SQL ternary logic;
  /// index ordering sorts NULLs first). Comparing a NULL here is an error.
  Result<int> Compare(const Value& other) const;

  /// Equality as a convenience over Compare (same restrictions).
  Result<bool> Equals(const Value& other) const;

  /// Stable hash for hash joins / grouping; numeric types hash equal values
  /// equally across widths. NULLs hash to a fixed sentinel.
  uint64_t Hash() const;

  /// Self-delimiting serialization (used for storage rows, wire parameters
  /// and as the plaintext inside encrypted cells).
  Bytes Encode() const;
  void EncodeTo(Bytes* out) const;
  static Result<Value> Decode(Slice in, size_t* offset);
  /// Checks the encoding at *offset as Decode does (type tag, length,
  /// payload within `in`) and steps past it without building the value.
  /// Returns the type tag.
  static Result<TypeId> Skip(Slice in, size_t* offset);

  std::string ToString() const;

  bool operator==(const Value& o) const;

 private:
  TypeId type_;
  bool null_ = false;
  std::variant<bool, int32_t, int64_t, double, std::string, Bytes> data_;
};

/// SQL LIKE pattern match: '%' matches any run, '_' any single character.
/// No escape character (matching the subset the paper's workloads use).
bool SqlLike(std::string_view value, std::string_view pattern);

/// True when `pattern` is a prefix pattern "abc%" (usable for a range-index
/// seek, which is how the paper's LIKE-via-index prefix matching works).
bool IsPrefixLikePattern(std::string_view pattern);

}  // namespace aedb::types

#endif  // AEDB_TYPES_VALUE_H_
