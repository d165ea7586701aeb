#include "types/value.h"

#include <cmath>
#include <cstring>

namespace aedb::types {

const char* TypeIdName(TypeId t) {
  switch (t) {
    case TypeId::kBool: return "BOOL";
    case TypeId::kInt32: return "INT";
    case TypeId::kInt64: return "BIGINT";
    case TypeId::kDouble: return "DOUBLE";
    case TypeId::kString: return "VARCHAR";
    case TypeId::kBinary: return "VARBINARY";
  }
  return "UNKNOWN";
}

Value Value::Null(TypeId t) {
  Value v;
  v.type_ = t;
  v.null_ = true;
  return v;
}

Value Value::Bool(bool b) {
  Value v;
  v.type_ = TypeId::kBool;
  v.null_ = false;
  v.data_ = b;
  return v;
}

Value Value::Int32(int32_t i) {
  Value v;
  v.type_ = TypeId::kInt32;
  v.null_ = false;
  v.data_ = i;
  return v;
}

Value Value::Int64(int64_t i) {
  Value v;
  v.type_ = TypeId::kInt64;
  v.null_ = false;
  v.data_ = i;
  return v;
}

Value Value::Double(double d) {
  Value v;
  v.type_ = TypeId::kDouble;
  v.null_ = false;
  v.data_ = d;
  return v;
}

Value Value::String(std::string s) {
  Value v;
  v.type_ = TypeId::kString;
  v.null_ = false;
  v.data_ = std::move(s);
  return v;
}

Value Value::Binary(Bytes b) {
  Value v;
  v.type_ = TypeId::kBinary;
  v.null_ = false;
  v.data_ = std::move(b);
  return v;
}

int64_t Value::AsInt64() const {
  switch (type_) {
    case TypeId::kInt32: return static_cast<int64_t>(i32());
    case TypeId::kDouble: return static_cast<int64_t>(dbl());
    default: return i64();
  }
}

double Value::AsDouble() const {
  switch (type_) {
    case TypeId::kInt32: return static_cast<double>(i32());
    case TypeId::kInt64: return static_cast<double>(i64());
    default: return dbl();
  }
}

Result<int> Value::Compare(const Value& other) const {
  if (null_ || other.null_) {
    return Status::InvalidArgument("Compare called on NULL value");
  }
  if (IsNumeric() && other.IsNumeric()) {
    if (type_ == TypeId::kDouble || other.type_ == TypeId::kDouble) {
      double a = AsDouble(), b = other.AsDouble();
      return a < b ? -1 : (a > b ? 1 : 0);
    }
    int64_t a = AsInt64(), b = other.AsInt64();
    return a < b ? -1 : (a > b ? 1 : 0);
  }
  if (type_ != other.type_) {
    return Status::TypeCheckError(std::string("cannot compare ") +
                                  TypeIdName(type_) + " with " +
                                  TypeIdName(other.type_));
  }
  switch (type_) {
    case TypeId::kBool: {
      int a = bool_v() ? 1 : 0, b = other.bool_v() ? 1 : 0;
      return a - b;
    }
    case TypeId::kString: {
      int c = str().compare(other.str());
      return c < 0 ? -1 : (c > 0 ? 1 : 0);
    }
    case TypeId::kBinary:
      return Slice(bin()).compare(other.bin());
    default:
      return Status::Internal("unreachable compare");
  }
}

Result<bool> Value::Equals(const Value& other) const {
  int c;
  AEDB_ASSIGN_OR_RETURN(c, Compare(other));
  return c == 0;
}

uint64_t Value::Hash() const {
  // FNV-1a over a canonical byte form.
  auto fnv = [](const uint8_t* p, size_t n, uint64_t h = 1469598103934665603ULL) {
    for (size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= 1099511628211ULL;
    }
    return h;
  };
  if (null_) return 0x9e3779b97f4a7c15ULL;
  switch (type_) {
    case TypeId::kBool: {
      uint8_t b = bool_v() ? 1 : 0;
      return fnv(&b, 1);
    }
    case TypeId::kInt32:
    case TypeId::kInt64: {
      int64_t v = AsInt64();
      return fnv(reinterpret_cast<const uint8_t*>(&v), 8);
    }
    case TypeId::kDouble: {
      double d = dbl();
      if (d == 0.0) d = 0.0;  // normalize -0.0
      // Integral doubles hash like their integer value.
      if (std::nearbyint(d) == d && std::abs(d) < 1e15) {
        int64_t v = static_cast<int64_t>(d);
        return fnv(reinterpret_cast<const uint8_t*>(&v), 8);
      }
      return fnv(reinterpret_cast<const uint8_t*>(&d), 8);
    }
    case TypeId::kString:
      return fnv(reinterpret_cast<const uint8_t*>(str().data()), str().size());
    case TypeId::kBinary:
      return fnv(bin().data(), bin().size());
  }
  return 0;
}

void Value::EncodeTo(Bytes* out) const {
  out->push_back(static_cast<uint8_t>(type_));
  out->push_back(null_ ? 1 : 0);
  if (null_) return;
  switch (type_) {
    case TypeId::kBool:
      out->push_back(bool_v() ? 1 : 0);
      break;
    case TypeId::kInt32:
      PutU32(out, static_cast<uint32_t>(i32()));
      break;
    case TypeId::kInt64:
      PutU64(out, static_cast<uint64_t>(i64()));
      break;
    case TypeId::kDouble: {
      uint64_t bits;
      double d = dbl();
      std::memcpy(&bits, &d, 8);
      PutU64(out, bits);
      break;
    }
    case TypeId::kString:
      PutLengthPrefixed(out, Slice(std::string_view(str())));
      break;
    case TypeId::kBinary:
      PutLengthPrefixed(out, bin());
      break;
  }
}

Bytes Value::Encode() const {
  Bytes out;
  EncodeTo(&out);
  return out;
}

Result<Value> Value::Decode(Slice in, size_t* offset) {
  if (*offset + 2 > in.size()) return Status::Corruption("value header past end");
  TypeId t = static_cast<TypeId>(in[*offset]);
  if (t < TypeId::kBool || t > TypeId::kBinary) {
    return Status::Corruption("unknown value type tag");
  }
  bool null = in[*offset + 1] != 0;
  *offset += 2;
  if (null) return Null(t);
  switch (t) {
    case TypeId::kBool: {
      if (*offset >= in.size()) return Status::Corruption("bool past end");
      bool b = in[(*offset)++] != 0;
      return Bool(b);
    }
    case TypeId::kInt32: {
      uint32_t v;
      AEDB_ASSIGN_OR_RETURN(v, GetU32(in, offset));
      return Int32(static_cast<int32_t>(v));
    }
    case TypeId::kInt64: {
      uint64_t v;
      AEDB_ASSIGN_OR_RETURN(v, GetU64(in, offset));
      return Int64(static_cast<int64_t>(v));
    }
    case TypeId::kDouble: {
      uint64_t bits;
      AEDB_ASSIGN_OR_RETURN(bits, GetU64(in, offset));
      double d;
      std::memcpy(&d, &bits, 8);
      return Double(d);
    }
    case TypeId::kString: {
      uint32_t len;
      AEDB_ASSIGN_OR_RETURN(len, GetU32(in, offset));
      if (len > in.size() - *offset) {
        return Status::Corruption("length-prefixed payload past end");
      }
      std::string s(reinterpret_cast<const char*>(in.data()) + *offset, len);
      *offset += len;
      return String(std::move(s));
    }
    case TypeId::kBinary: {
      Bytes raw;
      AEDB_ASSIGN_OR_RETURN(raw, GetLengthPrefixed(in, offset));
      return Binary(std::move(raw));
    }
  }
  return Status::Corruption("unreachable decode");
}

// Not a building block of Decode, which sits on every plaintext index
// comparison: Skip checks the same header, length and bounds on its own.
Result<TypeId> Value::Skip(Slice in, size_t* offset) {
  if (*offset + 2 > in.size()) return Status::Corruption("value header past end");
  TypeId t = static_cast<TypeId>(in[*offset]);
  if (t < TypeId::kBool || t > TypeId::kBinary) {
    return Status::Corruption("unknown value type tag");
  }
  bool null = in[*offset + 1] != 0;
  *offset += 2;
  if (null) return t;
  size_t size = 0;
  switch (t) {
    case TypeId::kBool:
      size = 1;
      break;
    case TypeId::kInt32:
      size = 4;
      break;
    case TypeId::kInt64:
    case TypeId::kDouble:
      size = 8;
      break;
    case TypeId::kString:
    case TypeId::kBinary: {
      uint32_t len;
      AEDB_ASSIGN_OR_RETURN(len, GetU32(in, offset));
      size = len;
      break;
    }
  }
  if (size > in.size() - *offset) {
    return Status::Corruption("value payload past end");
  }
  *offset += size;
  return t;
}

std::string Value::ToString() const {
  if (null_) return "NULL";
  switch (type_) {
    case TypeId::kBool: return bool_v() ? "TRUE" : "FALSE";
    case TypeId::kInt32: return std::to_string(i32());
    case TypeId::kInt64: return std::to_string(i64());
    case TypeId::kDouble: return std::to_string(dbl());
    case TypeId::kString: return "'" + str() + "'";
    case TypeId::kBinary: return "0x" + HexEncode(bin());
  }
  return "?";
}

bool Value::operator==(const Value& o) const {
  if (type_ != o.type_ || null_ != o.null_) return false;
  if (null_) return true;
  return data_ == o.data_;
}

bool SqlLike(std::string_view value, std::string_view pattern) {
  // Iterative matcher with backtracking over the last '%'.
  size_t v = 0, p = 0;
  size_t star_p = std::string_view::npos, star_v = 0;
  while (v < value.size()) {
    if (p < pattern.size() &&
        (pattern[p] == '_' || pattern[p] == value[v])) {
      ++v;
      ++p;
    } else if (p < pattern.size() && pattern[p] == '%') {
      star_p = p++;
      star_v = v;
    } else if (star_p != std::string_view::npos) {
      p = star_p + 1;
      v = ++star_v;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '%') ++p;
  return p == pattern.size();
}

bool IsPrefixLikePattern(std::string_view pattern) {
  if (pattern.size() < 2 || pattern.back() != '%') return false;
  std::string_view prefix = pattern.substr(0, pattern.size() - 1);
  return prefix.find('%') == std::string_view::npos &&
         prefix.find('_') == std::string_view::npos;
}

}  // namespace aedb::types
