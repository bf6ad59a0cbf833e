// Page-granular memory for channel rings and window slabs. Nothing here
// places memory on a NUMA node: Linux puts an anonymous page on the node of
// the thread that writes it first, and the engine arranges for the right
// thread to write first. A channel ring's consumer writes its slot pages
// before any producer pushes (SpscQueue::PrefaultByConsumer); a window
// slab is written by the node thread that inserts into its store.
//
// Slabs (AllocateSlab) back the large flat allocations — VectorStore SoA
// key lanes, BandStore block-pool lanes. On Linux each is a private
// anonymous mapping of its own; slabs of kHugePageSize or more are
// advised MADV_HUGEPAGE, so transparent huge pages back them where the
// kernel allows.
#pragma once

#include <cstddef>
#include <type_traits>
#include <utility>

namespace sjoin {

/// Page granularity of channel and slab allocations (both are rounded up to
/// whole pages).
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
/// expressions everywhere outside mempolicy.cpp.
void* AllocatePages(std::size_t bytes);

/// Releases an AllocatePages allocation. `bytes` must match the request.
void FreePages(void* addr, std::size_t bytes);

// ---------------------------------------------------------------------------
// Slabs
// ---------------------------------------------------------------------------

/// x86-64 small huge page: slabs of at least this size are rounded up to
/// whole huge pages and advised MADV_HUGEPAGE.
inline constexpr std::size_t kHugePageSize = 2u * 1024 * 1024;

/// One flat allocation plus the bookkeeping FreeSlab needs. `bytes` is the
/// rounded size actually mapped (>= the request). Storage is UNINITIALIZED
/// (mmap zero-fills, operator new does not — callers must not rely on
/// zeros).
struct Slab {
  void* addr = nullptr;
  std::size_t bytes = 0;
};

/// Allocates `bytes`, rounded up to whole pages (whole huge pages from
/// kHugePageSize on). bytes == 0 returns an empty slab.
Slab AllocateSlab(std::size_t bytes);

/// Releases an AllocateSlab allocation and resets *slab to empty. Safe on
/// an empty slab.
void FreeSlab(Slab* slab);

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

 private:
  Slab slab_;
  std::size_t count_ = 0;
};

}  // namespace sjoin
