#include "core/virgin.h"

#include <algorithm>
#include <cstring>

#include "core/kernels/kernels.h"

namespace bigmap {

namespace {

// Fill granularity of a lazy map: one base page, so the filled prefix
// never holds more than one page past the bytes in use.
constexpr usize kFillPage = 4096;

}  // namespace

VirginMap::VirginMap(usize size, PageBacking backing) : buf_(size, backing) {
  fill_to(size);
}

VirginMap VirginMap::lazy(usize size) { return VirginMap(PageBuffer(size)); }

void VirginMap::fill_pages(usize end) noexcept {
  const usize to =
      std::min(buf_.size(), (end + kFillPage - 1) / kFillPage * kFillPage);
  std::memset(buf_.data() + filled_, 0xFF, to - filled_);
  filled_ = to;
}

void VirginMap::restore_prefix(std::span<const u8> bytes) noexcept {
  if (bytes.empty()) return;
  fill_to(bytes.size());
  std::memcpy(buf_.data(), bytes.data(), bytes.size());
}

void VirginMap::reset() noexcept {
  std::memset(buf_.data(), 0xFF, filled_);
}

usize VirginMap::count_covered() const noexcept {
  // Bytes that lost at least one bit since reset. Dispatched through the
  // process-default kernel: the count is kernel-independent (pinned by the
  // differential suite), so per-map kernel plumbing isn't warranted here.
  return kernels::active_kernel().count_ne(buf_.data(), filled_, 0xFF);
}

}  // namespace bigmap
