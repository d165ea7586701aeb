#include "crypto/aes.h"

#include <cassert>
#include <cstring>

#include "crypto/kernels.h"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace aedb::crypto {

namespace {

// GF(2^8) multiply with the AES reduction polynomial x^8+x^4+x^3+x+1.
constexpr uint8_t GfMul(uint8_t a, uint8_t b) {
  uint8_t p = 0;
  for (int i = 0; i < 8; ++i) {
    if (b & 1) p ^= a;
    bool hi = a & 0x80;
    a = static_cast<uint8_t>(a << 1);
    if (hi) a ^= 0x1b;
    b >>= 1;
  }
  return p;
}

struct SboxTables {
  uint8_t sbox[256] = {};
  uint8_t inv_sbox[256] = {};
};

// Generates the S-box from first principles (multiplicative inverse followed
// by the affine transform) instead of a hand-typed table.
constexpr SboxTables MakeSboxTables() {
  SboxTables t{};
  // Multiplicative inverses by brute force; inv(0) = 0 by convention.
  uint8_t inv[256] = {};
  for (int a = 1; a < 256; ++a) {
    for (int b = 1; b < 256; ++b) {
      if (GfMul(static_cast<uint8_t>(a), static_cast<uint8_t>(b)) == 1) {
        inv[a] = static_cast<uint8_t>(b);
        break;
      }
    }
  }
  for (int i = 0; i < 256; ++i) {
    uint8_t x = inv[i];
    uint8_t y = static_cast<uint8_t>(
        x ^ static_cast<uint8_t>((x << 1) | (x >> 7)) ^
        static_cast<uint8_t>((x << 2) | (x >> 6)) ^
        static_cast<uint8_t>((x << 3) | (x >> 5)) ^
        static_cast<uint8_t>((x << 4) | (x >> 4)) ^ 0x63);
    t.sbox[i] = y;
    t.inv_sbox[y] = static_cast<uint8_t>(i);
  }
  return t;
}

constexpr SboxTables kTables = MakeSboxTables();

// T-tables fusing SubBytes + ShiftRows + MixColumns into four 256-entry word
// lookups per state column (the classic software formulation). Generated at
// compile time from the same GF(2^8) arithmetic as the S-box: Te0[x] packs
// the MixColumns contribution of S[x] landing in row 0 of a column —
// (2·S, S, S, 3·S) big-endian — and Te1..Te3 are its byte rotations. The
// decryption tables Td0..Td3 pack InvMixColumns of InvS[x]: (14, 9, 13, 11).
struct RoundTables {
  uint32_t te[4][256] = {};
  uint32_t td[4][256] = {};
};

constexpr uint32_t Ror8(uint32_t w) { return (w >> 8) | (w << 24); }

constexpr RoundTables MakeRoundTables() {
  RoundTables t{};
  for (int x = 0; x < 256; ++x) {
    uint8_t s = kTables.sbox[x];
    uint32_t e = (static_cast<uint32_t>(GfMul(s, 2)) << 24) |
                 (static_cast<uint32_t>(s) << 16) |
                 (static_cast<uint32_t>(s) << 8) |
                 static_cast<uint32_t>(GfMul(s, 3));
    uint8_t is = kTables.inv_sbox[x];
    uint32_t d = (static_cast<uint32_t>(GfMul(is, 14)) << 24) |
                 (static_cast<uint32_t>(GfMul(is, 9)) << 16) |
                 (static_cast<uint32_t>(GfMul(is, 13)) << 8) |
                 static_cast<uint32_t>(GfMul(is, 11));
    for (int r = 0; r < 4; ++r) {
      t.te[r][x] = e;
      t.td[r][x] = d;
      e = Ror8(e);
      d = Ror8(d);
    }
  }
  return t;
}

constexpr RoundTables kRound = MakeRoundTables();

constexpr uint8_t kRcon[15] = {0x00, 0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40,
                               0x80, 0x1b, 0x36, 0x6c, 0xd8, 0xab, 0x4d};

inline uint32_t SubWord(uint32_t w) {
  return (static_cast<uint32_t>(kTables.sbox[(w >> 24) & 0xff]) << 24) |
         (static_cast<uint32_t>(kTables.sbox[(w >> 16) & 0xff]) << 16) |
         (static_cast<uint32_t>(kTables.sbox[(w >> 8) & 0xff]) << 8) |
         static_cast<uint32_t>(kTables.sbox[w & 0xff]);
}

inline uint32_t RotWord(uint32_t w) { return (w << 8) | (w >> 24); }

// InvMixColumns of one packed column, via the decryption tables: Td_r[S[a]]
// is exactly the InvMixColumns contribution of byte a at row r.
inline uint32_t InvMixColumn(uint32_t w) {
  return kRound.td[0][kTables.sbox[(w >> 24) & 0xff]] ^
         kRound.td[1][kTables.sbox[(w >> 16) & 0xff]] ^
         kRound.td[2][kTables.sbox[(w >> 8) & 0xff]] ^
         kRound.td[3][kTables.sbox[w & 0xff]];
}

inline uint32_t LoadBe32(const uint8_t* p) {
  return (static_cast<uint32_t>(p[0]) << 24) |
         (static_cast<uint32_t>(p[1]) << 16) |
         (static_cast<uint32_t>(p[2]) << 8) | static_cast<uint32_t>(p[3]);
}

inline void StoreBe32(uint8_t* p, uint32_t w) {
  p[0] = static_cast<uint8_t>(w >> 24);
  p[1] = static_cast<uint8_t>(w >> 16);
  p[2] = static_cast<uint8_t>(w >> 8);
  p[3] = static_cast<uint8_t>(w);
}

}  // namespace

Aes256::Aes256(Slice key) {
  assert(key.size() == kKeySize);
  constexpr int nk = 8;
  constexpr int nw = 4 * (kRounds + 1);
  for (int i = 0; i < nk; ++i) {
    round_keys_[i] = LoadBe32(key.data() + 4 * i);
  }
  for (int i = nk; i < nw; ++i) {
    uint32_t temp = round_keys_[i - 1];
    if (i % nk == 0) {
      temp = SubWord(RotWord(temp)) ^
             (static_cast<uint32_t>(kRcon[i / nk]) << 24);
    } else if (i % nk == 4) {
      temp = SubWord(temp);
    }
    round_keys_[i] = round_keys_[i - nk] ^ temp;
  }
  // Equivalent inverse cipher: reverse the schedule and push the middle round
  // keys through InvMixColumns so DecryptBlock can reuse the T-table shape.
  for (int c = 0; c < 4; ++c) {
    dec_round_keys_[c] = round_keys_[4 * kRounds + c];
    dec_round_keys_[4 * kRounds + c] = round_keys_[c];
  }
  for (int round = 1; round < kRounds; ++round) {
    for (int c = 0; c < 4; ++c) {
      dec_round_keys_[4 * round + c] =
          InvMixColumn(round_keys_[4 * (kRounds - round) + c]);
    }
  }
}

void Aes256::EncryptBlock(const uint8_t in[kBlockSize],
                          uint8_t out[kBlockSize]) const {
  internal::ActiveKernels().aes_encrypt(round_keys_, in, out);
}

void Aes256::DecryptBlock(const uint8_t in[kBlockSize],
                          uint8_t out[kBlockSize]) const {
  internal::ActiveKernels().aes_decrypt(dec_round_keys_, in, out);
}

namespace internal {

void AesEncryptPortable(const uint32_t* round_keys, const uint8_t* in,
                        uint8_t* out) {
  constexpr int kRounds = Aes256::kRounds;
  const uint32_t* rk = round_keys;
  uint32_t s0 = LoadBe32(in) ^ rk[0];
  uint32_t s1 = LoadBe32(in + 4) ^ rk[1];
  uint32_t s2 = LoadBe32(in + 8) ^ rk[2];
  uint32_t s3 = LoadBe32(in + 12) ^ rk[3];
  for (int round = 1; round < kRounds; ++round) {
    rk += 4;
    uint32_t t0 = kRound.te[0][s0 >> 24] ^ kRound.te[1][(s1 >> 16) & 0xff] ^
                  kRound.te[2][(s2 >> 8) & 0xff] ^ kRound.te[3][s3 & 0xff] ^
                  rk[0];
    uint32_t t1 = kRound.te[0][s1 >> 24] ^ kRound.te[1][(s2 >> 16) & 0xff] ^
                  kRound.te[2][(s3 >> 8) & 0xff] ^ kRound.te[3][s0 & 0xff] ^
                  rk[1];
    uint32_t t2 = kRound.te[0][s2 >> 24] ^ kRound.te[1][(s3 >> 16) & 0xff] ^
                  kRound.te[2][(s0 >> 8) & 0xff] ^ kRound.te[3][s1 & 0xff] ^
                  rk[2];
    uint32_t t3 = kRound.te[0][s3 >> 24] ^ kRound.te[1][(s0 >> 16) & 0xff] ^
                  kRound.te[2][(s1 >> 8) & 0xff] ^ kRound.te[3][s2 & 0xff] ^
                  rk[3];
    s0 = t0;
    s1 = t1;
    s2 = t2;
    s3 = t3;
  }
  rk += 4;
  const uint8_t* sb = kTables.sbox;
  StoreBe32(out, ((static_cast<uint32_t>(sb[s0 >> 24]) << 24) |
                  (static_cast<uint32_t>(sb[(s1 >> 16) & 0xff]) << 16) |
                  (static_cast<uint32_t>(sb[(s2 >> 8) & 0xff]) << 8) |
                  static_cast<uint32_t>(sb[s3 & 0xff])) ^
                     rk[0]);
  StoreBe32(out + 4, ((static_cast<uint32_t>(sb[s1 >> 24]) << 24) |
                      (static_cast<uint32_t>(sb[(s2 >> 16) & 0xff]) << 16) |
                      (static_cast<uint32_t>(sb[(s3 >> 8) & 0xff]) << 8) |
                      static_cast<uint32_t>(sb[s0 & 0xff])) ^
                         rk[1]);
  StoreBe32(out + 8, ((static_cast<uint32_t>(sb[s2 >> 24]) << 24) |
                      (static_cast<uint32_t>(sb[(s3 >> 16) & 0xff]) << 16) |
                      (static_cast<uint32_t>(sb[(s0 >> 8) & 0xff]) << 8) |
                      static_cast<uint32_t>(sb[s1 & 0xff])) ^
                         rk[2]);
  StoreBe32(out + 12, ((static_cast<uint32_t>(sb[s3 >> 24]) << 24) |
                       (static_cast<uint32_t>(sb[(s0 >> 16) & 0xff]) << 16) |
                       (static_cast<uint32_t>(sb[(s1 >> 8) & 0xff]) << 8) |
                       static_cast<uint32_t>(sb[s2 & 0xff])) ^
                          rk[3]);
}

void AesDecryptPortable(const uint32_t* round_keys, const uint8_t* in,
                        uint8_t* out) {
  constexpr int kRounds = Aes256::kRounds;
  const uint32_t* rk = round_keys;
  uint32_t s0 = LoadBe32(in) ^ rk[0];
  uint32_t s1 = LoadBe32(in + 4) ^ rk[1];
  uint32_t s2 = LoadBe32(in + 8) ^ rk[2];
  uint32_t s3 = LoadBe32(in + 12) ^ rk[3];
  for (int round = 1; round < kRounds; ++round) {
    rk += 4;
    uint32_t t0 = kRound.td[0][s0 >> 24] ^ kRound.td[1][(s3 >> 16) & 0xff] ^
                  kRound.td[2][(s2 >> 8) & 0xff] ^ kRound.td[3][s1 & 0xff] ^
                  rk[0];
    uint32_t t1 = kRound.td[0][s1 >> 24] ^ kRound.td[1][(s0 >> 16) & 0xff] ^
                  kRound.td[2][(s3 >> 8) & 0xff] ^ kRound.td[3][s2 & 0xff] ^
                  rk[1];
    uint32_t t2 = kRound.td[0][s2 >> 24] ^ kRound.td[1][(s1 >> 16) & 0xff] ^
                  kRound.td[2][(s0 >> 8) & 0xff] ^ kRound.td[3][s3 & 0xff] ^
                  rk[2];
    uint32_t t3 = kRound.td[0][s3 >> 24] ^ kRound.td[1][(s2 >> 16) & 0xff] ^
                  kRound.td[2][(s1 >> 8) & 0xff] ^ kRound.td[3][s0 & 0xff] ^
                  rk[3];
    s0 = t0;
    s1 = t1;
    s2 = t2;
    s3 = t3;
  }
  rk += 4;
  const uint8_t* isb = kTables.inv_sbox;
  StoreBe32(out, ((static_cast<uint32_t>(isb[s0 >> 24]) << 24) |
                  (static_cast<uint32_t>(isb[(s3 >> 16) & 0xff]) << 16) |
                  (static_cast<uint32_t>(isb[(s2 >> 8) & 0xff]) << 8) |
                  static_cast<uint32_t>(isb[s1 & 0xff])) ^
                     rk[0]);
  StoreBe32(out + 4, ((static_cast<uint32_t>(isb[s1 >> 24]) << 24) |
                      (static_cast<uint32_t>(isb[(s0 >> 16) & 0xff]) << 16) |
                      (static_cast<uint32_t>(isb[(s3 >> 8) & 0xff]) << 8) |
                      static_cast<uint32_t>(isb[s2 & 0xff])) ^
                         rk[1]);
  StoreBe32(out + 8, ((static_cast<uint32_t>(isb[s2 >> 24]) << 24) |
                      (static_cast<uint32_t>(isb[(s1 >> 16) & 0xff]) << 16) |
                      (static_cast<uint32_t>(isb[(s0 >> 8) & 0xff]) << 8) |
                      static_cast<uint32_t>(isb[s3 & 0xff])) ^
                         rk[2]);
  StoreBe32(out + 12, ((static_cast<uint32_t>(isb[s3 >> 24]) << 24) |
                       (static_cast<uint32_t>(isb[(s2 >> 16) & 0xff]) << 16) |
                       (static_cast<uint32_t>(isb[(s1 >> 8) & 0xff]) << 8) |
                       static_cast<uint32_t>(isb[s0 & 0xff])) ^
                          rk[3]);
}

#if defined(__x86_64__)

namespace {

#define AEDB_TARGET_AES __attribute__((target("aes,ssse3")))

// Round key `r` of a schedule of big-endian words, as the 16 state bytes an
// AES round instruction XORs in.
AEDB_TARGET_AES inline __m128i RoundKey(const uint32_t* round_keys, int r) {
  const __m128i swap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);
  return _mm_shuffle_epi8(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(round_keys + 4 * r)),
      swap);
}

}  // namespace

// The AES round instructions take constant time: unlike the T-table kernels
// they make no memory access that depends on the key or the data.
AEDB_TARGET_AES void AesEncryptAesNi(const uint32_t* round_keys,
                                     const uint8_t* in, uint8_t* out) {
  __m128i s = _mm_xor_si128(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(in)),
      RoundKey(round_keys, 0));
  for (int r = 1; r < Aes256::kRounds; ++r) {
    s = _mm_aesenc_si128(s, RoundKey(round_keys, r));
  }
  s = _mm_aesenclast_si128(s, RoundKey(round_keys, Aes256::kRounds));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(out), s);
}

// aesdec is one round of the equivalent inverse cipher, so it takes the
// equivalent-inverse schedule as Aes256 expands it.
AEDB_TARGET_AES void AesDecryptAesNi(const uint32_t* round_keys,
                                     const uint8_t* in, uint8_t* out) {
  __m128i s = _mm_xor_si128(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(in)),
      RoundKey(round_keys, 0));
  for (int r = 1; r < Aes256::kRounds; ++r) {
    s = _mm_aesdec_si128(s, RoundKey(round_keys, r));
  }
  s = _mm_aesdeclast_si128(s, RoundKey(round_keys, Aes256::kRounds));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(out), s);
}

#endif  // __x86_64__

}  // namespace internal

}  // namespace aedb::crypto
