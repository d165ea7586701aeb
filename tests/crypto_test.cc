#include <gtest/gtest.h>

#include <string>

#include "common/bytes.h"
#include "crypto/aes.h"
#include "crypto/cbc.h"
#include "crypto/cell_codec.h"
#include "crypto/drbg.h"
#include "crypto/hmac.h"
#include "crypto/sha256.h"

namespace aedb::crypto {
namespace {

Bytes FromHex(std::string_view h) {
  auto r = HexDecode(h);
  EXPECT_TRUE(r.ok()) << h;
  return *r;
}

// --- SHA-256, FIPS 180-4 / NIST CAVP vectors ---

TEST(Sha256Test, EmptyString) {
  EXPECT_EQ(HexEncode(Sha256::Hash(Slice())),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256Test, Abc) {
  EXPECT_EQ(HexEncode(Sha256::Hash(Slice(std::string_view("abc")))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, TwoBlockMessage) {
  std::string_view msg = "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq";
  EXPECT_EQ(HexEncode(Sha256::Hash(Slice(msg))),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, MillionAs) {
  Sha256 h;
  std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.Update(Slice(std::string_view(chunk)));
  auto d = h.Finish();
  EXPECT_EQ(HexEncode(Slice(d.data(), d.size())),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

// Lengths where the 0x80 byte lands just before the length field (55),
// fills the block (63), opens a fresh block (64), or leaves no room for the
// length after a full block (120).
TEST(Sha256Test, PaddingBoundaries) {
  const std::pair<size_t, std::string_view> kVectors[] = {
      {55, "9f4390f8d30c2dd92ec9f095b65e2b9ae9b0a925a5258e241c9f1e910f734318"},
      {63, "7d3e74a05d7db15bce4ad9ec0658ea98e3f06eeecf16b4c6fff2da457ddc2f34"},
      {64, "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb"},
      {120, "2f3d335432c70b580af0e8e1b3674a7c020d683aa5f73aaaedfdc55af904c21c"},
  };
  for (const auto& [n, hex] : kVectors) {
    std::string msg(n, 'a');
    EXPECT_EQ(HexEncode(Sha256::Hash(Slice(std::string_view(msg)))), hex)
        << n << " bytes";
  }
}

TEST(Sha256Test, IncrementalMatchesOneShot) {
  std::string msg = "the quick brown fox jumps over the lazy dog, repeatedly";
  for (size_t split = 0; split <= msg.size(); ++split) {
    Sha256 h;
    h.Update(Slice(std::string_view(msg).substr(0, split)));
    h.Update(Slice(std::string_view(msg).substr(split)));
    auto d = h.Finish();
    EXPECT_EQ(Bytes(d.begin(), d.end()), Sha256::Hash(Slice(std::string_view(msg))));
  }
}

// --- HMAC-SHA-256, RFC 4231 test cases ---

TEST(HmacTest, Rfc4231Case1) {
  Bytes key(20, 0x0b);
  EXPECT_EQ(HexEncode(HmacSha256::Mac(key, Slice(std::string_view("Hi There")))),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(HmacTest, Rfc4231Case2) {
  EXPECT_EQ(HexEncode(HmacSha256::Mac(
                Slice(std::string_view("Jefe")),
                Slice(std::string_view("what do ya want for nothing?")))),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(HmacTest, Rfc4231Case6LongKey) {
  Bytes key(131, 0xaa);
  std::string_view msg = "Test Using Larger Than Block-Size Key - Hash Key First";
  EXPECT_EQ(HexEncode(HmacSha256::Mac(key, Slice(msg))),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

// --- AES-256, FIPS 197 Appendix C.3 ---

TEST(Aes256Test, Fips197Vector) {
  Bytes key = FromHex("000102030405060708090a0b0c0d0e0f"
                      "101112131415161718191a1b1c1d1e1f");
  Bytes pt = FromHex("00112233445566778899aabbccddeeff");
  Aes256 aes(key);
  uint8_t ct[16];
  aes.EncryptBlock(pt.data(), ct);
  EXPECT_EQ(HexEncode(Slice(ct, 16)), "8ea2b7ca516745bfeafc49904b496089");
  uint8_t back[16];
  aes.DecryptBlock(ct, back);
  EXPECT_EQ(Bytes(back, back + 16), pt);
}

TEST(Aes256Test, DecryptInvertsEncryptRandomBlocks) {
  Bytes key = SecureRandom(32);
  Aes256 aes(key);
  for (int i = 0; i < 50; ++i) {
    Bytes pt = SecureRandom(16);
    uint8_t ct[16], back[16];
    aes.EncryptBlock(pt.data(), ct);
    aes.DecryptBlock(ct, back);
    EXPECT_EQ(Bytes(back, back + 16), pt);
  }
}

// --- AES-256-CBC, NIST SP 800-38A F.2.5 ---

TEST(CbcTest, Sp80038aFirstBlock) {
  Bytes key = FromHex(
      "603deb1015ca71be2b73aef0857d77811f352c073b6108d72d9810a30914dff4");
  Bytes iv = FromHex("000102030405060708090a0b0c0d0e0f");
  Bytes pt = FromHex("6bc1bee22e409f96e93d7e117393172a");
  Aes256 aes(key);
  Bytes ct = CbcEncrypt(aes, iv, pt);
  // Our CBC adds a PKCS#7 pad block; the first block must match the NIST
  // no-padding vector.
  ASSERT_EQ(ct.size(), 32u);
  EXPECT_EQ(HexEncode(Slice(ct.data(), 16)),
            "f58c4c04d6e5f1ba779eabfb5f7bfbd6");
}

TEST(CbcTest, RoundTripAllSmallSizes) {
  Bytes key = SecureRandom(32);
  Bytes iv = SecureRandom(16);
  Aes256 aes(key);
  for (size_t n = 0; n <= 70; ++n) {
    Bytes pt = SecureRandom(n);
    Bytes ct = CbcEncrypt(aes, iv, pt);
    EXPECT_EQ(ct.size() % 16, 0u);
    EXPECT_GT(ct.size(), pt.size());
    auto back = CbcDecrypt(aes, iv, ct);
    ASSERT_TRUE(back.ok()) << n;
    EXPECT_EQ(*back, pt);
  }
}

TEST(CbcTest, RejectsTruncatedCiphertext) {
  Bytes key = SecureRandom(32);
  Bytes iv = SecureRandom(16);
  Aes256 aes(key);
  Bytes ct = CbcEncrypt(aes, iv, SecureRandom(32));
  EXPECT_FALSE(CbcDecrypt(aes, iv, Slice(ct.data(), ct.size() - 1)).ok());
  EXPECT_FALSE(CbcDecrypt(aes, iv, Slice(ct.data(), 0)).ok());
}

TEST(CbcTest, BadPaddingDetected) {
  Bytes key = SecureRandom(32);
  Bytes iv(16, 0);
  Aes256 aes(key);
  // Random final block: padding check should almost surely fail.
  int failures = 0;
  for (int i = 0; i < 20; ++i) {
    Bytes garbage = SecureRandom(16);
    if (!CbcDecrypt(aes, iv, garbage).ok()) ++failures;
  }
  EXPECT_GE(failures, 18);
}

// --- HMAC-DRBG ---

TEST(DrbgTest, DeterministicForSeed) {
  Bytes seed(32, 0x42);
  HmacDrbg a(seed), b(seed);
  EXPECT_EQ(a.Generate(64), b.Generate(64));
}

TEST(DrbgTest, PersonalizationChangesStream) {
  Bytes seed(32, 0x42);
  HmacDrbg a(seed, Slice(std::string_view("x")));
  HmacDrbg b(seed, Slice(std::string_view("y")));
  EXPECT_NE(a.Generate(32), b.Generate(32));
}

TEST(DrbgTest, ReseedChangesStream) {
  Bytes seed(32, 0x42);
  HmacDrbg a(seed), b(seed);
  b.Reseed(Slice(std::string_view("fresh entropy")));
  EXPECT_NE(a.Generate(32), b.Generate(32));
}

TEST(DrbgTest, SecureRandomProducesDistinctValues) {
  EXPECT_NE(SecureRandom(32), SecureRandom(32));
}

// --- Cell codec (AEAD_AES_256_CBC_HMAC_SHA_256) ---

class CellCodecTest : public ::testing::Test {
 protected:
  Bytes cek_ = SecureRandom(32);
  CellCodec codec_{cek_};
};

TEST_F(CellCodecTest, RandomizedRoundTrip) {
  Bytes pt = Slice(std::string_view("attack at dawn")).ToBytes();
  Bytes cell = codec_.Encrypt(pt, EncryptionScheme::kRandomized);
  auto back = codec_.Decrypt(cell);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, pt);
}

TEST_F(CellCodecTest, DeterministicRoundTrip) {
  Bytes pt = Slice(std::string_view("1985-06-12")).ToBytes();
  Bytes cell = codec_.Encrypt(pt, EncryptionScheme::kDeterministic);
  auto back = codec_.Decrypt(cell);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, pt);
}

TEST_F(CellCodecTest, DeterministicIsDeterministic) {
  Bytes pt = Slice(std::string_view("SMITH")).ToBytes();
  EXPECT_EQ(codec_.Encrypt(pt, EncryptionScheme::kDeterministic),
            codec_.Encrypt(pt, EncryptionScheme::kDeterministic));
}

TEST_F(CellCodecTest, RandomizedIsRandomized) {
  Bytes pt = Slice(std::string_view("SMITH")).ToBytes();
  EXPECT_NE(codec_.Encrypt(pt, EncryptionScheme::kRandomized),
            codec_.Encrypt(pt, EncryptionScheme::kRandomized));
}

TEST_F(CellCodecTest, DeterministicDistinguishesValues) {
  EXPECT_NE(codec_.Encrypt(Slice(std::string_view("a")).ToBytes(),
                           EncryptionScheme::kDeterministic),
            codec_.Encrypt(Slice(std::string_view("b")).ToBytes(),
                           EncryptionScheme::kDeterministic));
}

TEST_F(CellCodecTest, TamperedCellFailsMac) {
  Bytes cell = codec_.Encrypt(Slice(std::string_view("secret")).ToBytes(),
                              EncryptionScheme::kRandomized);
  for (size_t i = 0; i < cell.size(); i += 7) {
    Bytes tampered = cell;
    tampered[i] ^= 0x01;
    auto r = codec_.Decrypt(tampered);
    EXPECT_FALSE(r.ok()) << "byte " << i;
  }
}

TEST_F(CellCodecTest, WrongKeyFails) {
  Bytes cell = codec_.Encrypt(Slice(std::string_view("secret")).ToBytes(),
                              EncryptionScheme::kRandomized);
  CellCodec other(SecureRandom(32));
  EXPECT_FALSE(other.Decrypt(cell).ok());
}

TEST_F(CellCodecTest, EmptyPlaintextRoundTrip) {
  Bytes cell = codec_.Encrypt(Slice(), EncryptionScheme::kRandomized);
  auto back = codec_.Decrypt(cell);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->empty());
}

TEST_F(CellCodecTest, RejectsGarbage) {
  EXPECT_FALSE(codec_.Decrypt(Slice(std::string_view("junk"))).ok());
  Bytes wrong_version(CellCodec::kMinCellSize, 0);
  wrong_version[0] = 0x7f;
  EXPECT_FALSE(codec_.Decrypt(wrong_version).ok());
}

TEST_F(CellCodecTest, LooksLikeCell) {
  Bytes cell = codec_.Encrypt(Slice(std::string_view("x")).ToBytes(),
                              EncryptionScheme::kRandomized);
  EXPECT_TRUE(CellCodec::LooksLikeCell(cell));
  EXPECT_FALSE(CellCodec::LooksLikeCell(Slice(std::string_view("nope"))));
}

TEST_F(CellCodecTest, CellLayoutSizes) {
  // version(1) + MAC(32) + IV(16) + one padded block for short plaintext.
  Bytes cell = codec_.Encrypt(Slice(std::string_view("hi")).ToBytes(),
                              EncryptionScheme::kRandomized);
  EXPECT_EQ(cell.size(), 1u + 32u + 16u + 16u);
  EXPECT_EQ(cell[0], CellCodec::kAlgorithmVersion);
}

// Property sweep: both schemes round-trip across sizes.
class CellCodecSizeSweep : public ::testing::TestWithParam<size_t> {};

TEST_P(CellCodecSizeSweep, RoundTripBothSchemes) {
  Bytes cek = SecureRandom(32);
  CellCodec codec(cek);
  Bytes pt = SecureRandom(GetParam());
  for (auto scheme :
       {EncryptionScheme::kDeterministic, EncryptionScheme::kRandomized}) {
    Bytes cell = codec.Encrypt(pt, scheme);
    auto back = codec.Decrypt(cell);
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, pt);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, CellCodecSizeSweep,
                         ::testing::Values(0, 1, 15, 16, 17, 31, 32, 33, 255,
                                           256, 1000, 4096));

}  // namespace
}  // namespace aedb::crypto
