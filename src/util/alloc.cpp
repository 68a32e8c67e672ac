#include "util/alloc.h"

#include <sys/mman.h>
#include <unistd.h>

#include <new>
#include <utility>

#include "util/fault.h"

namespace bigmap {
namespace {

constexpr usize kHugePageSize = 2u << 20;  // 2 MiB

usize round_up(usize v, usize align) noexcept {
  return (v + align - 1) / align * align;
}

}  // namespace

PageBuffer::PageBuffer(usize size, PageBacking backing) {
  if (size == 0) return;
  // Deterministic allocation-failure injection (supervisor robustness
  // tests); inert unless a FaultInjector is bound to this thread.
  if (FaultInjector::fire_alloc()) throw std::bad_alloc();
  map(size, backing);
}

PageBuffer PageBuffer::plain(usize size) {
  PageBuffer b;
  if (size != 0) b.map(size, PageBacking::kNormal);
  return b;
}

void PageBuffer::map(usize size, PageBacking backing) {
  size_ = size;

  if (backing == PageBacking::kHugeIfAvailable && size >= kHugePageSize) {
#ifdef MAP_HUGETLB
    const usize huge_len = round_up(size, kHugePageSize);
    void* p = ::mmap(nullptr, huge_len, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS | MAP_HUGETLB, -1, 0);
    if (p != MAP_FAILED) {
      data_ = static_cast<u8*>(p);
      mapped_size_ = huge_len;
      backing_ = PageBackingResult::kExplicitHuge;
      return;
    }
#endif
  }

  const usize page = static_cast<usize>(::sysconf(_SC_PAGESIZE));
  const usize len = round_up(size, page);
  void* p = ::mmap(nullptr, len, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc();
  data_ = static_cast<u8*>(p);
  mapped_size_ = len;
  backing_ = PageBackingResult::kNormal;

#ifdef MADV_HUGEPAGE
  if (backing == PageBacking::kHugeIfAvailable && size >= kHugePageSize) {
    if (::madvise(data_, mapped_size_, MADV_HUGEPAGE) == 0) {
      backing_ = PageBackingResult::kTransparentHuge;
    }
  }
#endif
}

PageBuffer::~PageBuffer() { release(); }

PageBuffer::PageBuffer(PageBuffer&& other) noexcept
    : data_(std::exchange(other.data_, nullptr)),
      size_(std::exchange(other.size_, 0)),
      mapped_size_(std::exchange(other.mapped_size_, 0)),
      backing_(other.backing_) {}

PageBuffer& PageBuffer::operator=(PageBuffer&& other) noexcept {
  if (this != &other) {
    release();
    data_ = std::exchange(other.data_, nullptr);
    size_ = std::exchange(other.size_, 0);
    mapped_size_ = std::exchange(other.mapped_size_, 0);
    backing_ = other.backing_;
  }
  return *this;
}

void PageBuffer::release() noexcept {
  if (data_ != nullptr) {
    ::munmap(data_, mapped_size_);
    data_ = nullptr;
    size_ = 0;
    mapped_size_ = 0;
  }
}

}  // namespace bigmap
