#ifndef AEDB_CRYPTO_KERNELS_H_
#define AEDB_CRYPTO_KERNELS_H_

// Internal to src/crypto and its tests and benches: the block kernels that
// Sha256 and Aes256 run on. Callers outside use those classes.

#include <cstddef>
#include <cstdint>

namespace aedb::crypto::internal {

/// Compresses `n` consecutive 64-byte blocks into a SHA-256 state.
using Sha256BlocksFn = void (*)(uint32_t state[8], const uint8_t* blocks,
                                size_t n);
/// Transforms one 16-byte block under 15 AES-256 round keys, each four
/// big-endian words: Aes256's encryption schedule to encrypt, its
/// equivalent-inverse schedule to decrypt.
using AesBlockFn = void (*)(const uint32_t* round_keys, const uint8_t* in,
                            uint8_t* out);

/// One implementation of each block primitive.
struct Kernels {
  Sha256BlocksFn sha256_blocks;
  AesBlockFn aes_encrypt;
  AesBlockFn aes_decrypt;
};

/// The from-scratch kernels (sha256.cc, aes.cc): the only ones on CPUs
/// without the SHA and AES extensions, and the reference the tests hold the
/// others to.
void Sha256BlocksPortable(uint32_t state[8], const uint8_t* blocks, size_t n);
void AesEncryptPortable(const uint32_t* round_keys, const uint8_t* in,
                        uint8_t* out);
void AesDecryptPortable(const uint32_t* round_keys, const uint8_t* in,
                        uint8_t* out);
extern const Kernels kPortableKernels;

#if defined(__x86_64__)
/// The kernels on the CPU's SHA and AES instructions (sha256.cc, aes.cc).
/// Call them only where CpuHasShaNi() or CpuHasAesNi() says so.
void Sha256BlocksShaNi(uint32_t state[8], const uint8_t* blocks, size_t n);
void AesEncryptAesNi(const uint32_t* round_keys, const uint8_t* in,
                     uint8_t* out);
void AesDecryptAesNi(const uint32_t* round_keys, const uint8_t* in,
                     uint8_t* out);
#endif

/// Whether CPUID reports the SHA extensions (sha256rnds2, sha256msg1/2) and
/// AES-NI, with the SSE levels their kernels also use.
bool CpuHasShaNi();
bool CpuHasAesNi();

/// SHA-NI and AES-NI where CpuHas*() says so, the portable kernel otherwise;
/// chosen once per process.
const Kernels& CpuKernels();

/// The kernels every Sha256 and Aes256 in the process runs on: CpuKernels(),
/// or the set a live ScopedKernels installed.
const Kernels& ActiveKernels();

/// Runs the process's Sha256 and Aes256 on `kernels` while alive, so a test
/// or bench can check or time one set against the other through the same
/// callers. Not for use while other threads hash or encrypt.
class ScopedKernels {
 public:
  explicit ScopedKernels(const Kernels& kernels);
  ~ScopedKernels();
  ScopedKernels(const ScopedKernels&) = delete;
  ScopedKernels& operator=(const ScopedKernels&) = delete;

 private:
  const Kernels* previous_;
};

}  // namespace aedb::crypto::internal

#endif  // AEDB_CRYPTO_KERNELS_H_
