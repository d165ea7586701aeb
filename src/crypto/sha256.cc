#include "crypto/sha256.h"

#include <cstring>

#include "crypto/kernels.h"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace aedb::crypto {

namespace {

alignas(16) constexpr uint32_t kK[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

inline uint32_t Rotr(uint32_t x, int n) { return (x >> n) | (x << (32 - n)); }

}  // namespace

namespace internal {

void Sha256BlocksPortable(uint32_t state[8], const uint8_t* p, size_t n) {
  for (; n > 0; --n, p += Sha256::kBlockSize) {
    uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = (static_cast<uint32_t>(p[4 * i]) << 24) |
             (static_cast<uint32_t>(p[4 * i + 1]) << 16) |
             (static_cast<uint32_t>(p[4 * i + 2]) << 8) |
             static_cast<uint32_t>(p[4 * i + 3]);
    }
    for (int i = 16; i < 64; ++i) {
      uint32_t s0 = Rotr(w[i - 15], 7) ^ Rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      uint32_t s1 = Rotr(w[i - 2], 17) ^ Rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }
    uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
    for (int i = 0; i < 64; ++i) {
      uint32_t s1 = Rotr(e, 6) ^ Rotr(e, 11) ^ Rotr(e, 25);
      uint32_t ch = (e & f) ^ (~e & g);
      uint32_t t1 = h + s1 + ch + kK[i] + w[i];
      uint32_t s0 = Rotr(a, 2) ^ Rotr(a, 13) ^ Rotr(a, 22);
      uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      uint32_t t2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + t1;
      d = c;
      c = b;
      b = a;
      a = t1 + t2;
    }
    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

#if defined(__x86_64__)

namespace {

#define AEDB_TARGET_SHA __attribute__((target("sha,sse4.1")))

// Loads four big-endian message words into lanes 0..3.
AEDB_TARGET_SHA inline __m128i LoadMessageWords(const uint8_t* p) {
  const __m128i swap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);
  return _mm_shuffle_epi8(_mm_loadu_si128(reinterpret_cast<const __m128i*>(p)),
                          swap);
}

}  // namespace

// sha256rnds2 runs two rounds, sha256msg1/sha256msg2 extend the message
// schedule four words at a time. The instructions hold the working
// variables as ABEF and CDGH: A (or C) in the top lane, F (or H) in lane 0.
AEDB_TARGET_SHA void Sha256BlocksShaNi(uint32_t state[8], const uint8_t* p,
                                       size_t n) {
  __m128i dcba = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state));
  __m128i hgfe = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4));
  __m128i badc = _mm_shuffle_epi32(dcba, 0xb1);
  __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1b);
  __m128i abef = _mm_alignr_epi8(badc, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, badc, 0xf0);

  for (; n > 0; --n, p += Sha256::kBlockSize) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    // w0..w3: the message words of this and the next three quad-rounds.
    __m128i w0 = LoadMessageWords(p);
    __m128i w1 = LoadMessageWords(p + 16);
    __m128i w2 = LoadMessageWords(p + 32);
    __m128i w3 = LoadMessageWords(p + 48);
#pragma GCC unroll 16
    for (int q = 0; q < 16; ++q) {
      __m128i wk = _mm_add_epi32(
          w0, _mm_load_si128(reinterpret_cast<const __m128i*>(kK + 4 * q)));
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
      abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0e));
      // W[t] = s1(W[t-2]) + W[t-7] + s0(W[t-15]) + W[t-16], four at a time.
      __m128i next = _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1),
                                   _mm_alignr_epi8(w3, w2, 4));
      next = _mm_sha256msg2_epu32(next, w3);
      w0 = w1;
      w1 = w2;
      w2 = w3;
      w3 = next;
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  __m128i feba = _mm_shuffle_epi32(abef, 0x1b);
  __m128i dchg = _mm_shuffle_epi32(cdgh, 0xb1);
  dcba = _mm_blend_epi16(feba, dchg, 0xf0);
  hgfe = _mm_alignr_epi8(dchg, feba, 8);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state), dcba);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4), hgfe);
}

#endif  // __x86_64__

}  // namespace internal

void Sha256::Reset() {
  state_[0] = 0x6a09e667;
  state_[1] = 0xbb67ae85;
  state_[2] = 0x3c6ef372;
  state_[3] = 0xa54ff53a;
  state_[4] = 0x510e527f;
  state_[5] = 0x9b05688c;
  state_[6] = 0x1f83d9ab;
  state_[7] = 0x5be0cd19;
  total_len_ = 0;
  buffer_len_ = 0;
}

void Sha256::Update(Slice data) {
  if (data.empty()) return;  // memcpy from a null Slice::data() is UB
  total_len_ += data.size();
  const uint8_t* p = data.data();
  size_t n = data.size();
  const internal::Sha256BlocksFn blocks =
      internal::ActiveKernels().sha256_blocks;
  if (buffer_len_ > 0) {
    size_t take = kBlockSize - buffer_len_;
    if (take > n) take = n;
    std::memcpy(buffer_ + buffer_len_, p, take);
    buffer_len_ += take;
    p += take;
    n -= take;
    if (buffer_len_ == kBlockSize) {
      blocks(state_, buffer_, 1);
      buffer_len_ = 0;
    }
  }
  if (n >= kBlockSize) {
    const size_t full = n / kBlockSize;
    blocks(state_, p, full);
    p += full * kBlockSize;
    n -= full * kBlockSize;
  }
  if (n > 0) {
    std::memcpy(buffer_, p, n);
    buffer_len_ = n;
  }
}

std::array<uint8_t, Sha256::kDigestSize> Sha256::Finish() {
  const uint64_t bit_len = total_len_ * 8;
  const internal::Sha256BlocksFn blocks =
      internal::ActiveKernels().sha256_blocks;
  // Padding, written straight into the buffer (which always has room for
  // one more byte): 0x80, zeros up to 56 mod 64, the big-endian bit length.
  buffer_[buffer_len_++] = 0x80;
  if (buffer_len_ > 56) {
    std::memset(buffer_ + buffer_len_, 0, kBlockSize - buffer_len_);
    blocks(state_, buffer_, 1);
    buffer_len_ = 0;
  }
  std::memset(buffer_ + buffer_len_, 0, 56 - buffer_len_);
  for (int i = 0; i < 8; ++i) {
    buffer_[56 + i] = static_cast<uint8_t>(bit_len >> (56 - 8 * i));
  }
  blocks(state_, buffer_, 1);
  std::array<uint8_t, kDigestSize> out;
  for (int i = 0; i < 8; ++i) {
    out[4 * i] = static_cast<uint8_t>(state_[i] >> 24);
    out[4 * i + 1] = static_cast<uint8_t>(state_[i] >> 16);
    out[4 * i + 2] = static_cast<uint8_t>(state_[i] >> 8);
    out[4 * i + 3] = static_cast<uint8_t>(state_[i]);
  }
  return out;
}

Bytes Sha256::Hash(Slice data) {
  Sha256 h;
  h.Update(data);
  auto d = h.Finish();
  return Bytes(d.begin(), d.end());
}

}  // namespace aedb::crypto
