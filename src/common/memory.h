#ifndef AEDB_COMMON_MEMORY_H_
#define AEDB_COMMON_MEMORY_H_

namespace aedb {

/// glibc's malloc raises its mmap threshold to the size of any mmapped block
/// the process frees (up to 32 MiB), and the size past which an arena hands
/// its free top back to the OS to twice that. A database's multi-megabyte
/// buffers (a log file on the simulated disk) raise both within seconds;
/// from then on every thread's arena keeps megabytes it has freed, and how
/// many depends on which threads ran what. Fixing the mmap threshold at its
/// 128 KiB default turns the adjustment off. Idempotent; a no-op with a C
/// library that has no such setting.
void KeepAllocatorThresholds();

/// Hands the heap's free pages back to the OS, including those inside free
/// chunks, which no threshold returns. A no-op with a C library that has no
/// such call.
void ReleaseFreeMemory();

}  // namespace aedb

#endif  // AEDB_COMMON_MEMORY_H_
