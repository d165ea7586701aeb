#ifndef AEDB_CRYPTO_HMAC_H_
#define AEDB_CRYPTO_HMAC_H_

#include <array>

#include "common/bytes.h"
#include "crypto/sha256.h"

namespace aedb::crypto {

/// Incremental HMAC-SHA-256 (RFC 2104). Copyable: the constructor absorbs
/// the ipad/opad key blocks into SHA midstates, so a keyed instance can be
/// kept as a prototype and copied per message — hot paths (cell MAC checks)
/// then skip the two key-block compressions entirely.
class HmacSha256 {
 public:
  static constexpr size_t kDigestSize = Sha256::kDigestSize;

  explicit HmacSha256(Slice key);

  using Digest = std::array<uint8_t, kDigestSize>;

  void Update(Slice data);
  Digest Finish();

  /// One-shot convenience.
  static Digest Mac(Slice key, Slice data);

 private:
  Sha256 inner_;        // keyed with the ipad block, then fed message data
  Sha256 outer_keyed_;  // midstate after the opad block, copied in Finish
};

}  // namespace aedb::crypto

#endif  // AEDB_CRYPTO_HMAC_H_
