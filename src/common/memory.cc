#include "common/memory.h"

#include <cstdlib>  // defines __GLIBC__ on glibc

#if defined(__GLIBC__)
#include <malloc.h>
#endif

namespace aedb {

void KeepAllocatorThresholds() {
#if defined(__GLIBC__)
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
#endif
}

void ReleaseFreeMemory() {
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
}

}  // namespace aedb
