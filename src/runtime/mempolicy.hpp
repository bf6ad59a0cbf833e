// NUMA memory-policy primitives, libnuma-free. The paper's prototype relies
// on libnuma to place every channel ring next to its consumer core; we issue
// the two underlying syscalls (mbind, move_pages) directly so the build has
// no new dependency and degrades cleanly where they are unavailable:
//
//   BindMemoryToNode  — install an MPOL_PREFERRED policy on a page range
//     BEFORE it is first touched: pages then fault onto the target node no
//     matter which thread constructs the slots. The strongest rung.
//   MoveMemoryToNode  — migrate already-committed pages to the target node
//     (consumer-side repair when the policy rung was unavailable). Operates
//     on this process's own pages only, which needs no capability.
//
// Both return false (and change nothing) on non-Linux hosts, when the
// syscall is compiled out, or when the target node does not exist — callers
// fall back to the portable consumer-side first-touch/warming pass (see
// SpscQueue::PrefaultByConsumer).
//
// Huge-page slab ladder (rung (c) of the raw-speed ladder): AllocateSlab
// serves the large flat allocations — VectorStore SoA key lanes, BandStore
// block-pool lanes — and walks MAP_HUGETLB -> THP madvise ->
// plain pages (its own mmap on Linux), reporting which rung actually backed the memory so tests
// and placement introspection can see it. Knobs (parse-and-warn via
// common/env.hpp, re-read per allocation so tests can vary them):
//
//   SJOIN_HUGE_PAGES=0           — disable the huge rungs entirely
//   SJOIN_HUGE_PAGE_MIN_BYTES=N  — huge rungs only at/above N bytes
//                                  (default: one 2 MB huge page)
#pragma once

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>

namespace sjoin {

/// Page granularity assumed for channel allocations (allocations are rounded
/// up so policies always cover whole pages).
inline constexpr std::size_t kMemPageSize = 4096;

/// Rounds `bytes` up to a whole number of pages (minimum one page).
inline constexpr std::size_t RoundUpToPage(std::size_t bytes) {
  const std::size_t pages = (bytes + kMemPageSize - 1) / kMemPageSize;
  return (pages == 0 ? 1 : pages) * kMemPageSize;
}

/// Page-aligned raw allocation for channel rings and window slabs; `bytes`
/// must already be page-rounded (RoundUpToPage). Slot lifetimes are started
/// by the caller (placement-new); the returned storage is uninitialized.
/// These two are the only raw ::operator new/delete call sites in src/ —
/// the lint pass (tools/lint/sjoin_lint.py) rejects raw new/delete
/// expressions everywhere outside mempolicy.cpp, so every page-granular
/// allocation flows through here where the NUMA policy calls can see it.
void* AllocatePages(std::size_t bytes);

/// Releases an AllocatePages allocation. `bytes` must match the request.
void FreePages(void* addr, std::size_t bytes);

/// Installs a preferred-node policy on [addr, addr+len). `addr` must be
/// page-aligned and `len` a multiple of the page size. Returns true iff the
/// kernel accepted the policy (pages subsequently faulted in this range land
/// on `node` while it has free memory).
bool BindMemoryToNode(void* addr, std::size_t len, int node);

/// Migrates the committed pages of [addr, addr+len) to `node`. Returns true
/// iff the call executed and at least one page now resides on `node`.
/// Untouched pages are left for first-touch.
bool MoveMemoryToNode(void* addr, std::size_t len, int node);

/// NUMA node the calling thread is currently running on (getcpu), or -1
/// when unknown. Consumers use this to detect that they ended up somewhere
/// other than their planned home (e.g. an unpinned polling thread) and
/// re-home their rings to where the reads actually happen.
int CurrentNumaNode();

/// True when this build can attempt NUMA placement at all (Linux with the
/// mbind syscall compiled in). Purely informational; the Bind/Move calls
/// are always safe to attempt.
bool MemPolicySupported();

// ---------------------------------------------------------------------------
// Huge-page slabs
// ---------------------------------------------------------------------------

/// x86-64 small huge page; the granularity the huge rungs round up to.
inline constexpr std::size_t kHugePageSize = 2u * 1024 * 1024;

/// Which rung of the allocation ladder actually backed a slab.
enum class SlabBacking : uint8_t {
  kNone = 0,             ///< empty slab (no allocation)
  kPages = 1,            ///< 4 KB pages: own mmap (Linux), else AllocatePages
  kTransparentHuge = 2,  ///< anonymous mmap + MADV_HUGEPAGE accepted
  kHugeTlb = 3,          ///< reserved huge pages via MAP_HUGETLB
};

constexpr const char* ToString(SlabBacking backing) {
  switch (backing) {
    case SlabBacking::kNone:
      return "none";
    case SlabBacking::kPages:
      return "pages";
    case SlabBacking::kTransparentHuge:
      return "thp";
    case SlabBacking::kHugeTlb:
      return "hugetlb";
  }
  return "?";
}

/// One flat allocation plus the bookkeeping FreeSlab needs. `bytes` is the
/// rounded size actually mapped (>= the request). Storage is UNINITIALIZED
/// regardless of rung (mmap zero-fills, operator new does not — callers
/// must not rely on zeros).
struct Slab {
  void* addr = nullptr;
  std::size_t bytes = 0;
  SlabBacking backing = SlabBacking::kNone;
};

/// Allocates `bytes` (rounded up to the backing granularity) down the
/// ladder MAP_HUGETLB -> THP madvise -> pages. The huge rungs are
/// attempted only on Linux, when SJOIN_HUGE_PAGES is not disabled and the
/// request meets SJOIN_HUGE_PAGE_MIN_BYTES; every failure falls through
/// gracefully (no reserved huge pages and no THP support still yield a
/// working slab on the pages rung). bytes == 0 returns an empty slab.
Slab AllocateSlab(std::size_t bytes);

/// Releases an AllocateSlab allocation via whichever rung backed it and
/// resets *slab to empty. Safe on an empty slab.
void FreeSlab(Slab* slab);

/// Current knob values (re-read from the environment on every call).
bool HugePagesEnabled();
std::size_t HugePageThresholdBytes();

/// A flat array of trivially-copyable elements on a slab — the backing for
/// the VectorStore SoA key lanes and the BandStore pool lanes. Move-only
/// RAII over AllocateSlab/FreeSlab; elements are NOT constructed or zeroed
/// (the element types in use are implicit-lifetime scalars whose live
/// ranges the owning store tracks itself).
template <typename T>
class SlabArray {
  static_assert(std::is_trivially_copyable_v<T> &&
                    std::is_trivially_destructible_v<T>,
                "SlabArray elements must be trivial (no lifetimes to run)");

 public:
  SlabArray() = default;
  explicit SlabArray(std::size_t count) { Reset(count); }
  SlabArray(SlabArray&& other) noexcept
      : slab_(other.slab_), count_(other.count_) {
    other.slab_ = Slab{};
    other.count_ = 0;
  }
  SlabArray& operator=(SlabArray&& other) noexcept {
    if (this != &other) {
      FreeSlab(&slab_);
      slab_ = other.slab_;
      count_ = other.count_;
      other.slab_ = Slab{};
      other.count_ = 0;
    }
    return *this;
  }
  SlabArray(const SlabArray&) = delete;
  SlabArray& operator=(const SlabArray&) = delete;
  ~SlabArray() { FreeSlab(&slab_); }

  /// Frees the current storage and allocates room for `count` elements
  /// (uninitialized). count == 0 leaves the array empty.
  void Reset(std::size_t count) {
    FreeSlab(&slab_);
    count_ = count;
    if (count != 0) slab_ = AllocateSlab(count * sizeof(T));
  }

  T* data() { return static_cast<T*>(slab_.addr); }
  const T* data() const { return static_cast<const T*>(slab_.addr); }
  T& operator[](std::size_t i) { return data()[i]; }
  const T& operator[](std::size_t i) const { return data()[i]; }
  std::size_t count() const { return count_; }
  bool empty() const { return count_ == 0; }
  SlabBacking backing() const { return slab_.backing; }

 private:
  Slab slab_;
  std::size_t count_ = 0;
};

}  // namespace sjoin
