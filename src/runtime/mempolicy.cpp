#include "runtime/mempolicy.hpp"

#include <new>

#if defined(__linux__)
#include <sys/mman.h>
#endif

namespace sjoin {

void* AllocatePages(std::size_t bytes) {
  return ::operator new(bytes, std::align_val_t{kMemPageSize});
}

void FreePages(void* addr, std::size_t bytes) {
  (void)bytes;
  ::operator delete(addr, std::align_val_t{kMemPageSize});
}

Slab AllocateSlab(std::size_t bytes) {
  Slab slab;
  if (bytes == 0) return slab;
  const bool huge = bytes >= kHugePageSize;
  const std::size_t unit = huge ? kHugePageSize : kMemPageSize;
  slab.bytes = (bytes + unit - 1) / unit * unit;
#if defined(__linux__)
  // A private mapping of its own: unmapping returns it to the kernel at
  // once, whereas a page-aligned heap block of this size would leave a hole
  // the heap cannot reuse for the next slab (a growing store lane allocates
  // its replacement while the old one is live).
  void* p = ::mmap(nullptr, slab.bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc();
  // Advice only: a kernel without transparent huge pages backs the slab
  // with small pages all the same.
  if (huge) ::madvise(p, slab.bytes, MADV_HUGEPAGE);
  slab.addr = p;
#else
  slab.addr = AllocatePages(slab.bytes);
#endif
  return slab;
}

void FreeSlab(Slab* slab) {
  if (slab == nullptr || slab->addr == nullptr) return;
#if defined(__linux__)
  ::munmap(slab->addr, slab->bytes);
#else
  FreePages(slab->addr, slab->bytes);
#endif
  *slab = Slab{};
}

}  // namespace sjoin
