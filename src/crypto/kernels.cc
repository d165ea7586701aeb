#include "crypto/kernels.h"

#include <atomic>

namespace aedb::crypto::internal {

const Kernels kPortableKernels = {Sha256BlocksPortable, AesEncryptPortable,
                                  AesDecryptPortable};

#if defined(__x86_64__)

bool CpuHasShaNi() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("sha") && __builtin_cpu_supports("sse4.1");
}

bool CpuHasAesNi() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("aes") && __builtin_cpu_supports("ssse3");
}

const Kernels& CpuKernels() {
  static const Kernels kernels = {
      CpuHasShaNi() ? Sha256BlocksShaNi : Sha256BlocksPortable,
      CpuHasAesNi() ? AesEncryptAesNi : AesEncryptPortable,
      CpuHasAesNi() ? AesDecryptAesNi : AesDecryptPortable};
  return kernels;
}

#else

bool CpuHasShaNi() { return false; }
bool CpuHasAesNi() { return false; }
const Kernels& CpuKernels() { return kPortableKernels; }

#endif

namespace {
std::atomic<const Kernels*>& Active() {
  static std::atomic<const Kernels*> active{&CpuKernels()};
  return active;
}
}  // namespace

const Kernels& ActiveKernels() {
  return *Active().load(std::memory_order_acquire);
}

ScopedKernels::ScopedKernels(const Kernels& kernels)
    : previous_(Active().exchange(&kernels, std::memory_order_acq_rel)) {}

ScopedKernels::~ScopedKernels() {
  Active().store(previous_, std::memory_order_release);
}

}  // namespace aedb::crypto::internal
