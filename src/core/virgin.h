// Virgin (global-coverage) maps and the has_new_bits comparison.
//
// AFL keeps a "virgin" map per outcome class (queue / crash / hang) whose
// bytes start at 0xFF. After classifying a trace, has_new_bits() checks
// whether the trace sets any bit still virgin. The return value
// distinguishes a brand-new tuple (an edge never seen before) from a new
// hit-count bucket for a known edge; AFL treats both as interesting but
// favors new tuples. The comparison also *clears* the matched virgin bits,
// which is how global coverage accumulates.
//
// BigMap uses the identical comparison, but over condensed keys and only on
// the [0, used_key) prefix; virgin bytes beyond used_key are 0xFF, so the
// prefix comparison is exact (paper §IV-B). A two-level virgin map is
// therefore filled lazily: its plain pages are written with 0xFF only as
// the prefix grows over them, and the pages past it never become resident.
//
// The comparison itself is a kernel op (KernelOps::compare_update and the
// fused classify_compare in core/kernels/kernels.h); this header holds the
// verdict type and the map it updates.
#pragma once

#include <span>
#include <utility>

#include "util/alloc.h"
#include "util/types.h"

namespace bigmap {

// Result of a trace-vs-virgin comparison, ordered by interestingness.
enum class NewBits : u8 {
  kNone = 0,       // nothing new
  kNewCounts = 1,  // a known edge moved to a new hit-count bucket
  kNewTuple = 2,   // a never-seen edge appeared
};

// A virgin map: bytes start at 0xFF and are cleared as coverage
// accumulates. Only [0, filled()) is stored; every byte past it is 0xFF
// by definition.
class VirginMap {
 public:
  // Filled over the whole map up front: the flat scheme scans every byte.
  explicit VirginMap(usize size, PageBacking backing = PageBacking::kNormal);

  // Plain pages, none filled yet; fill_to() extends the stored prefix.
  static VirginMap lazy(usize size);

  usize size() const noexcept { return buf_.size(); }
  u8* data() noexcept { return buf_.data(); }
  const u8* data() const noexcept { return buf_.data(); }

  // Bytes [0, filled()) hold the map; later bytes are not yet written.
  usize filled() const noexcept { return filled_; }

  // Makes [0, end) valid: writes 0xFF over the whole pages between
  // filled() and end. Cheap when end is already covered.
  void fill_to(usize end) noexcept {
    if (end > filled_) fill_pages(end);
  }

  // Overwrites [0, bytes.size()) with `bytes` (checkpoint restore).
  void restore_prefix(std::span<const u8> bytes) noexcept;

  // Number of map positions with at least one cleared bit, i.e. positions
  // covered so far (AFL's count_non_255_bytes, used for coverage stats).
  // Scans only the filled prefix.
  usize count_covered() const noexcept;

  // Restores every byte to 0xFF.
  void reset() noexcept;

 private:
  explicit VirginMap(PageBuffer buf) noexcept : buf_(std::move(buf)) {}
  void fill_pages(usize end) noexcept;

  PageBuffer buf_;
  usize filled_ = 0;
};

}  // namespace bigmap
