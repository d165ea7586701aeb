#include "crypto/drbg.h"

#include <cstring>
#include <random>

namespace aedb::crypto {

HmacDrbg::HmacDrbg(Slice entropy, Slice personalization) {
  key_.fill(0x00);
  v_.fill(0x01);
  Bytes seed(entropy.data(), entropy.data() + entropy.size());
  seed.insert(seed.end(), personalization.data(),
              personalization.data() + personalization.size());
  UpdateState(seed);
}

void HmacDrbg::UpdateState(Slice provided) {
  // K = HMAC(K, V || 0x00 || provided); V = HMAC(K, V)
  HmacSha256 h0(key_);
  h0.Update(v_);
  uint8_t zero = 0x00;
  h0.Update(Slice(&zero, 1));
  h0.Update(provided);
  key_ = h0.Finish();
  v_ = HmacSha256::Mac(key_, v_);
  if (!provided.empty()) {
    HmacSha256 h1(key_);
    h1.Update(v_);
    uint8_t one = 0x01;
    h1.Update(Slice(&one, 1));
    h1.Update(provided);
    key_ = h1.Finish();
    v_ = HmacSha256::Mac(key_, v_);
  }
}

void HmacDrbg::Generate(uint8_t* out, size_t n) {
  size_t produced = 0;
  while (produced < n) {
    v_ = HmacSha256::Mac(key_, v_);
    size_t take = n - produced < v_.size() ? n - produced : v_.size();
    std::memcpy(out + produced, v_.data(), take);
    produced += take;
  }
  UpdateState(Slice());
}

Bytes HmacDrbg::Generate(size_t n) {
  Bytes out(n);
  Generate(out.data(), n);
  return out;
}

void HmacDrbg::Reseed(Slice entropy) { UpdateState(entropy); }

namespace {
HmacDrbg MakeThreadDrbg() {
  std::random_device rd;
  Bytes entropy(48);
  for (size_t i = 0; i < entropy.size(); i += 4) {
    uint32_t r = rd();
    std::memcpy(entropy.data() + i, &r, 4);
  }
  return HmacDrbg(entropy, Slice(std::string_view("aedb-secure-random")));
}
}  // namespace

void SecureRandom(uint8_t* out, size_t n) {
  thread_local HmacDrbg drbg = MakeThreadDrbg();
  drbg.Generate(out, n);
}

Bytes SecureRandom(size_t n) {
  Bytes out(n);
  SecureRandom(out.data(), n);
  return out;
}

}  // namespace aedb::crypto
