// Page-aligned buffer with optional huge-page backing.
//
// The paper's §IV-E optimizations include (a) allocating the index and
// coverage bitmaps on huge pages to cut DTLB pressure, and (b) resetting the
// bitmap with non-temporal stores so the (mostly dead) map bytes do not
// evict useful cache lines. (a) is implemented here with graceful
// fallbacks so the library runs on any Linux host regardless of hugetlbfs
// configuration. (b) is not implemented: on a map the size of L2 it evicts
// the lines the next exec touches (DESIGN.md decision 5); cachesim models
// it instead.
#pragma once

#include <cstddef>
#include <span>

#include "util/types.h"

namespace bigmap {

// Requested backing for a PageBuffer.
enum class PageBacking {
  kNormal,     // plain anonymous mmap
  kHugeIfAvailable,  // try MAP_HUGETLB, then MADV_HUGEPAGE, then plain
};

// How a PageBuffer actually ended up backed.
enum class PageBackingResult {
  kNormal,
  kExplicitHuge,      // MAP_HUGETLB succeeded
  kTransparentHuge,   // MADV_HUGEPAGE applied (kernel may promote lazily)
};

// RAII wrapper around an anonymous mmap region. Zero-initialized by the
// kernel. Movable, non-copyable.
class PageBuffer {
 public:
  PageBuffer() noexcept = default;

  // Allocates `size` bytes (rounded up to page / huge-page granularity
  // internally; `size()` still reports the requested byte count).
  // Throws std::bad_alloc when the mapping fails outright.
  explicit PageBuffer(usize size,
                      PageBacking backing = PageBacking::kNormal);
  ~PageBuffer();

  // Plain zero-filled pages for bookkeeping that grows with coverage: a
  // page becomes resident only when first written. Unlike the constructor
  // this is not a kAllocFail injection site, so such storage leaves every
  // allocation-failure schedule where it was.
  static PageBuffer plain(usize size);

  PageBuffer(PageBuffer&& other) noexcept;
  PageBuffer& operator=(PageBuffer&& other) noexcept;
  PageBuffer(const PageBuffer&) = delete;
  PageBuffer& operator=(const PageBuffer&) = delete;

  u8* data() noexcept { return data_; }
  const u8* data() const noexcept { return data_; }
  usize size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }

  std::span<u8> span() noexcept { return {data_, size_}; }
  std::span<const u8> span() const noexcept { return {data_, size_}; }

  u8& operator[](usize i) noexcept { return data_[i]; }
  const u8& operator[](usize i) const noexcept { return data_[i]; }

  PageBackingResult backing() const noexcept { return backing_; }

 private:
  void map(usize size, PageBacking backing);
  void release() noexcept;

  u8* data_ = nullptr;
  usize size_ = 0;
  usize mapped_size_ = 0;
  PageBackingResult backing_ = PageBackingResult::kNormal;
};

}  // namespace bigmap
