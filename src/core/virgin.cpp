#include "core/virgin.h"

#include <algorithm>
#include <cstring>

#include "core/classify.h"
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

namespace {

// All word-level access goes through memcpy'd locals: the byte buffers are
// only ever touched as bytes, so there is no strict-aliasing UB and the
// compiler still emits single 8-byte loads/stores.

inline u64 load64(const u8* p) noexcept {
  u64 v;
  std::memcpy(&v, p, 8);
  return v;
}

inline void store64(u8* p, u64 v) noexcept { std::memcpy(p, &v, 8); }

// Byte-level inspection of a (classified trace word, virgin word) pair with
// (t & v) != 0: did any byte hit a fully-virgin (0xFF) slot?
inline NewBits inspect_hit_word(u64 t, u64 v) noexcept {
  NewBits result = NewBits::kNone;
  for (int i = 0; i < 8; ++i) {
    const u8 tb = static_cast<u8>(t >> (8 * i));
    const u8 vb = static_cast<u8>(v >> (8 * i));
    if ((tb & vb) != 0) {
      if (vb == 0xFF) return NewBits::kNewTuple;
      result = NewBits::kNewCounts;
    }
  }
  return result;
}

// Classifies one 8-byte word via the 16-bit LUT.
inline u64 classify_word(u64 t) noexcept {
  const auto& lut = count_class_lookup16();
  return static_cast<u64>(lut[t & 0xFFFF]) |
         (static_cast<u64>(lut[(t >> 16) & 0xFFFF]) << 16) |
         (static_cast<u64>(lut[(t >> 32) & 0xFFFF]) << 32) |
         (static_cast<u64>(lut[(t >> 48) & 0xFFFF]) << 48);
}

}  // namespace

NewBits compare_and_update_virgin(const u8* trace, u8* virgin,
                                  usize len) noexcept {
  NewBits result = NewBits::kNone;
  const usize words = len / 8;

  for (usize w = 0; w < words; ++w) {
    const u64 t = load64(trace + w * 8);
    if (t == 0) continue;
    const u64 v = load64(virgin + w * 8);
    if ((t & v) != 0) [[unlikely]] {
      if (result != NewBits::kNewTuple) {
        result = std::max(result, inspect_hit_word(t, v));
      }
      store64(virgin + w * 8, v & ~t);
    }
  }

  // Tail bytes (BigMap's used region is not always word-multiple).
  for (usize i = words * 8; i < len; ++i) {
    const u8 t = trace[i];
    if (t != 0 && (t & virgin[i]) != 0) {
      if (result != NewBits::kNewTuple) {
        result = (virgin[i] == 0xFF) ? NewBits::kNewTuple
                                     : std::max(result, NewBits::kNewCounts);
      }
      virgin[i] = static_cast<u8>(virgin[i] & ~t);
    }
  }

  return result;
}

NewBits classify_compare_update(u8* trace, u8* virgin, usize len) noexcept {
  NewBits result = NewBits::kNone;
  const auto& lut8 = count_class_lookup8();
  const usize words = len / 8;

  for (usize w = 0; w < words; ++w) {
    const u64 raw = load64(trace + w * 8);
    if (raw == 0) continue;

    const u64 t = classify_word(raw);
    store64(trace + w * 8, t);

    const u64 v = load64(virgin + w * 8);
    if ((t & v) != 0) {
      if (result != NewBits::kNewTuple) {
        result = std::max(result, inspect_hit_word(t, v));
      }
      store64(virgin + w * 8, v & ~t);
    }
  }

  for (usize i = words * 8; i < len; ++i) {
    if (trace[i] != 0) {
      trace[i] = lut8[trace[i]];
      const u8 t = trace[i];
      if ((t & virgin[i]) != 0) {
        if (result != NewBits::kNewTuple) {
          result = (virgin[i] == 0xFF)
                       ? NewBits::kNewTuple
                       : std::max(result, NewBits::kNewCounts);
        }
        virgin[i] = static_cast<u8>(virgin[i] & ~t);
      }
    }
  }

  return result;
}

}  // namespace bigmap
