#include "runtime/mempolicy.hpp"

#include <new>

#include "common/env.hpp"

#if defined(__linux__)
#include <sys/mman.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <cstdint>
#include <vector>
#endif

namespace sjoin {

void* AllocatePages(std::size_t bytes) {
  return ::operator new(bytes, std::align_val_t{kMemPageSize});
}

void FreePages(void* addr, std::size_t bytes) {
  (void)bytes;
  ::operator delete(addr, std::align_val_t{kMemPageSize});
}

bool HugePagesEnabled() { return env::Flag("SJOIN_HUGE_PAGES", true); }

std::size_t HugePageThresholdBytes() {
  const long v = env::Int("SJOIN_HUGE_PAGE_MIN_BYTES",
                          static_cast<long>(kHugePageSize));
  return v < 0 ? 0 : static_cast<std::size_t>(v);
}

namespace {

constexpr std::size_t RoundUpToHugePage(std::size_t bytes) {
  const std::size_t pages = (bytes + kHugePageSize - 1) / kHugePageSize;
  return (pages == 0 ? 1 : pages) * kHugePageSize;
}

}  // namespace

Slab AllocateSlab(std::size_t bytes) {
  Slab slab;
  if (bytes == 0) return slab;
#if defined(__linux__)
  if (HugePagesEnabled() && bytes >= HugePageThresholdBytes()) {
    const std::size_t huge_bytes = RoundUpToHugePage(bytes);
    // Rung 1: reserved huge pages. Fails cleanly (ENOMEM) when the host
    // has no hugetlb pool configured.
    void* p = ::mmap(nullptr, huge_bytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS | MAP_HUGETLB, -1, 0);
    if (p != MAP_FAILED) {
      slab.addr = p;
      slab.bytes = huge_bytes;
      slab.backing = SlabBacking::kHugeTlb;
      return slab;
    }
    // Rung 2: transparent huge pages. Only counts as this rung when the
    // kernel actually accepted the advice (THP can be compiled out or set
    // to "never"); otherwise the mapping is returned and we fall through.
    p = ::mmap(nullptr, huge_bytes, PROT_READ | PROT_WRITE,
               MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p != MAP_FAILED) {
      if (::madvise(p, huge_bytes, MADV_HUGEPAGE) == 0) {
        slab.addr = p;
        slab.bytes = huge_bytes;
        slab.backing = SlabBacking::kTransparentHuge;
        return slab;
      }
      ::munmap(p, huge_bytes);
    }
  }
#endif
  const std::size_t page_bytes = RoundUpToPage(bytes);
#if defined(__linux__)
  // Rung 3: a private mapping of its own. Unmapping returns it to the
  // kernel at once; a page-aligned heap block of this size would leave a
  // hole that the heap cannot reuse for the next slab (a growing store lane
  // allocates its replacement while the old one is live).
  void* p = ::mmap(nullptr, page_bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc();
  slab.addr = p;
#else
  slab.addr = AllocatePages(page_bytes);
#endif
  slab.bytes = page_bytes;
  slab.backing = SlabBacking::kPages;
  return slab;
}

void FreeSlab(Slab* slab) {
  if (slab == nullptr) return;
  switch (slab->backing) {
    case SlabBacking::kNone:
      break;
    case SlabBacking::kPages:
    case SlabBacking::kTransparentHuge:
    case SlabBacking::kHugeTlb:
#if defined(__linux__)
      ::munmap(slab->addr, slab->bytes);
#else
      FreePages(slab->addr, slab->bytes);  // the only rung off Linux
#endif
      break;
  }
  *slab = Slab{};
}

#if defined(__linux__) && defined(SYS_mbind)

namespace {

// From <linux/mempolicy.h> (stable kernel ABI); redeclared locally so the
// build does not depend on kernel uapi headers being installed.
constexpr int kMpolPreferred = 1;
constexpr int kMpolMfMove = 1 << 1;  // MPOL_MF_MOVE

constexpr unsigned kMaxNodes = 1024;
constexpr unsigned kBitsPerWord = 8 * sizeof(unsigned long);

}  // namespace

bool BindMemoryToNode(void* addr, std::size_t len, int node) {
  if (addr == nullptr || len == 0 || node < 0 ||
      static_cast<unsigned>(node) >= kMaxNodes) {
    return false;
  }
  unsigned long mask[kMaxNodes / kBitsPerWord] = {};
  mask[static_cast<unsigned>(node) / kBitsPerWord] |=
      1UL << (static_cast<unsigned>(node) % kBitsPerWord);
  // maxnode counts bits and must exceed the highest set bit.
  const long rc = ::syscall(SYS_mbind, addr, len, kMpolPreferred, mask,
                            static_cast<unsigned long>(kMaxNodes + 1), 0u);
  return rc == 0;
}

bool MoveMemoryToNode(void* addr, std::size_t len, int node) {
#if defined(SYS_move_pages)
  if (addr == nullptr || len == 0 || node < 0) return false;
  const std::size_t pages = RoundUpToPage(len) / kMemPageSize;
  std::vector<void*> page_addrs(pages);
  std::vector<int> nodes(pages, node);
  std::vector<int> status(pages, -1);
  auto* base = static_cast<unsigned char*>(addr);
  for (std::size_t i = 0; i < pages; ++i) {
    page_addrs[i] = base + i * kMemPageSize;
  }
  const long rc =
      ::syscall(SYS_move_pages, 0 /* self */, static_cast<unsigned long>(pages),
                page_addrs.data(), nodes.data(), status.data(), kMpolMfMove);
  if (rc != 0) return false;
  // Per-page status: the target node on success, -errno otherwise. A page
  // that was never touched reports -ENOENT and is left for first-touch.
  for (std::size_t i = 0; i < pages; ++i) {
    if (status[i] == node) return true;
  }
  return false;
#else
  (void)addr;
  (void)len;
  (void)node;
  return false;
#endif
}

int CurrentNumaNode() {
#if defined(SYS_getcpu)
  unsigned cpu = 0;
  unsigned node = 0;
  if (::syscall(SYS_getcpu, &cpu, &node, nullptr) != 0) return -1;
  return static_cast<int>(node);
#else
  return -1;
#endif
}

bool MemPolicySupported() { return true; }

#else  // non-Linux or syscall numbers unavailable

bool BindMemoryToNode(void* addr, std::size_t len, int node) {
  (void)addr;
  (void)len;
  (void)node;
  return false;
}

bool MoveMemoryToNode(void* addr, std::size_t len, int node) {
  (void)addr;
  (void)len;
  (void)node;
  return false;
}

int CurrentNumaNode() { return -1; }

bool MemPolicySupported() { return false; }

#endif

}  // namespace sjoin
