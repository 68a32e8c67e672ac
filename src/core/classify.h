// AFL-style hit-count classification ("bucketing").
//
// Raw edge hit counts are mapped into power-of-two-ish buckets before the
// trace bitmap is compared against the global (virgin) map:
//
//   raw count : 0  1  2  3  4-7  8-15  16-31  32-127  128-255
//   bucket    : 0  1  2  4   8    16     32      64       128
//
// Hits that move between buckets count as interesting control-flow changes;
// movement within a bucket is ignored. Bucketing also absorbs some noise
// from accidental hash collisions (paper §II-A).
//
// This header holds the bucket function and its byte table. The whole-map
// passes live in the kernel layer (core/kernels/kernels.h): the swar kernel
// builds AFL's 16-bit lookup table (two bytes per probe, zero words
// skipped) from count_class_lookup8(), and the vector kernels classify a
// whole vector at once.
#pragma once

#include <array>
#include <span>

#include "util/types.h"

namespace bigmap {

// Bucket for a single raw hit count.
constexpr u8 classify_count(u8 raw) noexcept {
  if (raw == 0) return 0;
  if (raw == 1) return 1;
  if (raw == 2) return 2;
  if (raw == 3) return 4;
  if (raw <= 7) return 8;
  if (raw <= 15) return 16;
  if (raw <= 31) return 32;
  if (raw <= 127) return 64;
  return 128;
}

// 256-entry byte-level lookup table (kCountClass8[raw] == classify_count(raw)).
const std::array<u8, 256>& count_class_lookup8() noexcept;

// True if every byte of the span is a valid bucket value.
bool is_classified(std::span<const u8> mem) noexcept;

}  // namespace bigmap
