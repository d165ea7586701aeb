#include <gtest/gtest.h>

#include "types/encryption_type.h"
#include "types/value.h"

namespace aedb::types {
namespace {

TEST(ValueTest, ConstructorsAndAccessors) {
  EXPECT_EQ(Value::Bool(true).type(), TypeId::kBool);
  EXPECT_TRUE(Value::Bool(true).bool_v());
  EXPECT_EQ(Value::Int32(-5).i32(), -5);
  EXPECT_EQ(Value::Int64(1LL << 40).i64(), 1LL << 40);
  EXPECT_DOUBLE_EQ(Value::Double(2.5).dbl(), 2.5);
  EXPECT_EQ(Value::String("hi").str(), "hi");
  EXPECT_EQ(Value::Binary({1, 2}).bin(), (Bytes{1, 2}));
  EXPECT_TRUE(Value::Null(TypeId::kString).is_null());
  EXPECT_EQ(Value::Null(TypeId::kString).type(), TypeId::kString);
}

TEST(ValueTest, CompareSameType) {
  EXPECT_EQ(*Value::Int32(1).Compare(Value::Int32(2)), -1);
  EXPECT_EQ(*Value::Int64(5).Compare(Value::Int64(5)), 0);
  EXPECT_EQ(*Value::String("b").Compare(Value::String("a")), 1);
  EXPECT_EQ(*Value::Binary({1}).Compare(Value::Binary({1, 0})), -1);
  EXPECT_EQ(*Value::Bool(false).Compare(Value::Bool(true)), -1);
}

TEST(ValueTest, CompareNumericCrossWidth) {
  EXPECT_EQ(*Value::Int32(7).Compare(Value::Int64(7)), 0);
  EXPECT_EQ(*Value::Int32(7).Compare(Value::Double(7.5)), -1);
  EXPECT_EQ(*Value::Double(8.0).Compare(Value::Int64(7)), 1);
}

TEST(ValueTest, CompareIncompatibleTypesFails) {
  EXPECT_FALSE(Value::Int32(1).Compare(Value::String("1")).ok());
  EXPECT_FALSE(Value::Bool(true).Compare(Value::Int32(1)).ok());
}

TEST(ValueTest, CompareNullFails) {
  EXPECT_FALSE(Value::Null(TypeId::kInt32).Compare(Value::Int32(1)).ok());
}

TEST(ValueTest, HashConsistentAcrossNumericWidths) {
  EXPECT_EQ(Value::Int32(42).Hash(), Value::Int64(42).Hash());
  EXPECT_EQ(Value::Int32(42).Hash(), Value::Double(42.0).Hash());
  EXPECT_NE(Value::Int32(42).Hash(), Value::Int32(43).Hash());
}

TEST(ValueTest, EncodeDecodeRoundTrip) {
  Value vals[] = {
      Value::Bool(true),
      Value::Bool(false),
      Value::Int32(-123),
      Value::Int64(1LL << 50),
      Value::Double(3.14159),
      Value::String("hello world"),
      Value::String(""),
      Value::Binary({0, 1, 2, 255}),
      Value::Null(TypeId::kInt64),
      Value::Null(TypeId::kString),
  };
  Bytes buf;
  for (const Value& v : vals) v.EncodeTo(&buf);
  size_t off = 0;
  for (const Value& v : vals) {
    auto back = Value::Decode(buf, &off);
    ASSERT_TRUE(back.ok());
    EXPECT_TRUE(*back == v) << v.ToString();
  }
  EXPECT_EQ(off, buf.size());
}

TEST(ValueTest, DecodeRejectsGarbage) {
  Bytes junk = {0x77, 0x00, 0x00};
  size_t off = 0;
  EXPECT_FALSE(Value::Decode(junk, &off).ok());
  Bytes empty;
  off = 0;
  EXPECT_FALSE(Value::Decode(empty, &off).ok());
  // A string whose length runs past the end of the buffer.
  Bytes cut = Value::String("abcdef").Encode();
  cut.pop_back();
  off = 0;
  EXPECT_TRUE(Value::Decode(cut, &off).status().code() ==
              StatusCode::kCorruption);
  off = 0;
  EXPECT_TRUE(Value::Skip(cut, &off).status().code() ==
              StatusCode::kCorruption);
}

TEST(ValueTest, ToStringForms) {
  EXPECT_EQ(Value::Int32(5).ToString(), "5");
  EXPECT_EQ(Value::String("x").ToString(), "'x'");
  EXPECT_EQ(Value::Null(TypeId::kInt32).ToString(), "NULL");
  EXPECT_EQ(Value::Binary({0xab}).ToString(), "0xab");
}

struct LikeCase {
  const char* value;
  const char* pattern;
  bool expected;
};

class SqlLikeTest : public ::testing::TestWithParam<LikeCase> {};

TEST_P(SqlLikeTest, Matches) {
  const LikeCase& c = GetParam();
  EXPECT_EQ(SqlLike(c.value, c.pattern), c.expected)
      << c.value << " LIKE " << c.pattern;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, SqlLikeTest,
    ::testing::Values(
        LikeCase{"hello", "hello", true}, LikeCase{"hello", "h%", true},
        LikeCase{"hello", "%o", true}, LikeCase{"hello", "%ell%", true},
        LikeCase{"hello", "h_llo", true}, LikeCase{"hello", "_____", true},
        LikeCase{"hello", "____", false}, LikeCase{"hello", "world", false},
        LikeCase{"hello", "%", true}, LikeCase{"", "%", true},
        LikeCase{"", "_", false}, LikeCase{"abc", "a%c", true},
        LikeCase{"abc", "a%b", false}, LikeCase{"aXbXc", "a%b%c", true},
        LikeCase{"BARBARBAR", "%BAR", true},
        LikeCase{"mississippi", "%ss%ss%", true},
        LikeCase{"mississippi", "m%x%", false}));

TEST(LikePatternTest, PrefixDetection) {
  EXPECT_TRUE(IsPrefixLikePattern("SMI%"));
  EXPECT_FALSE(IsPrefixLikePattern("%SMI"));
  EXPECT_FALSE(IsPrefixLikePattern("S_I%"));
  EXPECT_FALSE(IsPrefixLikePattern("S%I%"));
  EXPECT_FALSE(IsPrefixLikePattern("%"));
  EXPECT_FALSE(IsPrefixLikePattern("SMI"));
}

TEST(EncryptionTypeTest, LatticeOrder) {
  // Figure 6: Plaintext ≤ Deterministic ≤ Randomized.
  EXPECT_TRUE(EncKindLeq(EncKind::kPlaintext, EncKind::kDeterministic));
  EXPECT_TRUE(EncKindLeq(EncKind::kDeterministic, EncKind::kRandomized));
  EXPECT_TRUE(EncKindLeq(EncKind::kPlaintext, EncKind::kRandomized));
  EXPECT_FALSE(EncKindLeq(EncKind::kRandomized, EncKind::kDeterministic));
  EXPECT_TRUE(EncKindLeq(EncKind::kDeterministic, EncKind::kDeterministic));
}

TEST(EncryptionTypeTest, Properties) {
  EncryptionType pt = EncryptionType::Plaintext();
  EXPECT_FALSE(pt.is_encrypted());
  EncryptionType det = EncryptionType::Encrypted(EncKind::kDeterministic, 7, false);
  EXPECT_TRUE(det.is_encrypted());
  EXPECT_EQ(det.scheme(), crypto::EncryptionScheme::kDeterministic);
  EncryptionType rnd = EncryptionType::Encrypted(EncKind::kRandomized, 7, true);
  EXPECT_EQ(rnd.scheme(), crypto::EncryptionScheme::kRandomized);
  EXPECT_FALSE(det == rnd);
  EXPECT_TRUE(det == EncryptionType::Encrypted(EncKind::kDeterministic, 7, false));
}

}  // namespace
}  // namespace aedb::types
