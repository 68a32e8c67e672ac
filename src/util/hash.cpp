#include "util/hash.h"

#include <array>
#include <cstring>

#include "util/crc32_clmul.h"

namespace bigmap {
namespace {

// The trace-bitmap hash runs over the full map for the flat scheme, so its
// speed directly shapes the Figure 3/6 comparisons — a slow hash would
// unfairly penalize the AFL baseline. Spans of 64 bytes or more take the
// PCLMULQDQ fold (util/crc32_clmul.cpp, ~15x slicing-by-8) when the CPU
// has it; short spans, the last len % 16 bytes, and CPUs without it run
// slicing-by-8 below. Both paths compute the same CRC-32/IEEE value.

// Slicing-by-8 CRC-32: eight derived tables let the inner loop consume
// 8 bytes per iteration (~5x faster than the classic bytewise loop).
struct CrcTables {
  std::array<std::array<u32, 256>, 8> t{};

  constexpr CrcTables() {
    for (u32 i = 0; i < 256; ++i) {
      u32 c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
      }
      t[0][i] = c;
    }
    for (u32 i = 0; i < 256; ++i) {
      u32 c = t[0][i];
      for (usize slice = 1; slice < 8; ++slice) {
        c = t[0][c & 0xFF] ^ (c >> 8);
        t[slice][i] = c;
      }
    }
  }
};

constexpr CrcTables kCrc;

// The CLMUL fold when both the compiler and this CPU support it; decided
// once per process.
detail::Crc32FoldFn clmul_fold() noexcept {
  static const detail::Crc32FoldFn fold = []() -> detail::Crc32FoldFn {
#if defined(__x86_64__) || defined(__i386__)
    if (__builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1")) {
      return detail::crc32_clmul_fold();
    }
#endif
    return nullptr;
  }();
  return fold;
}

u32 slice8_update(u32 c, const u8* p, usize n) noexcept {
  while (n >= 8) {
    u64 w;
    std::memcpy(&w, p, 8);
    w ^= c;  // fold current state into the low 4 bytes (little-endian)
    c = kCrc.t[7][w & 0xFF] ^ kCrc.t[6][(w >> 8) & 0xFF] ^
        kCrc.t[5][(w >> 16) & 0xFF] ^ kCrc.t[4][(w >> 24) & 0xFF] ^
        kCrc.t[3][(w >> 32) & 0xFF] ^ kCrc.t[2][(w >> 40) & 0xFF] ^
        kCrc.t[1][(w >> 48) & 0xFF] ^ kCrc.t[0][(w >> 56) & 0xFF];
    p += 8;
    n -= 8;
  }
  while (n-- > 0) {
    c = kCrc.t[0][(c ^ *p++) & 0xFFu] ^ (c >> 8);
  }
  return c;
}

}  // namespace

u32 crc32_update(u32 state, std::span<const u8> data) noexcept {
  const u8* p = data.data();
  usize n = data.size();
  if (n >= detail::kCrc32ClmulMinLen) {
    if (const detail::Crc32FoldFn fold = clmul_fold()) {
      const usize bulk = n & ~static_cast<usize>(15);
      state = fold(state, p, bulk);
      p += bulk;
      n -= bulk;
    }
  }
  return slice8_update(state, p, n);
}

u32 crc32(std::span<const u8> data) noexcept {
  return crc32_finalize(crc32_update(kCrc32Init, data));
}

}  // namespace bigmap
