#include "crypto/hmac.h"

#include <cstring>

namespace aedb::crypto {

HmacSha256::HmacSha256(Slice key) {
  uint8_t key_block[Sha256::kBlockSize];
  std::memset(key_block, 0, sizeof(key_block));
  if (key.size() > Sha256::kBlockSize) {
    Bytes hashed = Sha256::Hash(key);
    std::memcpy(key_block, hashed.data(), hashed.size());
  } else {
    std::memcpy(key_block, key.data(), key.size());
  }
  uint8_t pad[Sha256::kBlockSize];
  for (size_t i = 0; i < Sha256::kBlockSize; ++i) pad[i] = key_block[i] ^ 0x36;
  inner_.Update(Slice(pad, sizeof(pad)));
  for (size_t i = 0; i < Sha256::kBlockSize; ++i) pad[i] = key_block[i] ^ 0x5c;
  outer_keyed_.Update(Slice(pad, sizeof(pad)));
}

void HmacSha256::Update(Slice data) { inner_.Update(data); }

HmacSha256::Digest HmacSha256::Finish() {
  auto inner_digest = inner_.Finish();
  Sha256 outer = outer_keyed_;
  outer.Update(inner_digest);
  return outer.Finish();
}

HmacSha256::Digest HmacSha256::Mac(Slice key, Slice data) {
  HmacSha256 h(key);
  h.Update(data);
  return h.Finish();
}

}  // namespace aedb::crypto
