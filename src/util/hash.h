// Hash primitives used by the coverage machinery.
//
// - crc32(): CRC-32 (IEEE 802.3 polynomial, reflected). AFL
//   hashes the classified trace bitmap with CRC-32 to cheaply detect
//   duplicate execution paths; BigMap inherits that but hashes only up to
//   the last non-zero byte (see core/two_level_map.h and paper §IV-D).
// - fnv1a64(): FNV-1a for general-purpose hashing of small buffers.
// - mix64(): a strong 64->64 bit finalizer (SplitMix64 finalizer) used for
//   N-gram and calling-context coverage keys.
#pragma once

#include <span>

#include "util/types.h"

namespace bigmap {

// CRC-32 over a byte span (IEEE polynomial 0xEDB88320, init/final xor
// 0xFFFFFFFF). Spans of 64 bytes or more are folded with PCLMULQDQ when
// the CPU supports it (checked once per process); the rest, and every span
// on other CPUs, use slicing-by-8 tables built at compile time. Both paths
// give the same value, so stored CRCs are portable between machines.
u32 crc32(std::span<const u8> data) noexcept;

// Incremental variant: feed `state` from a previous call (start with
// kCrc32Init) and finalize with crc32_finalize.
inline constexpr u32 kCrc32Init = 0xFFFFFFFFu;
u32 crc32_update(u32 state, std::span<const u8> data) noexcept;
constexpr u32 crc32_finalize(u32 state) noexcept { return state ^ 0xFFFFFFFFu; }

// FNV-1a 64-bit hash of a byte span.
constexpr u64 fnv1a64(std::span<const u8> data) noexcept {
  u64 h = 0xcbf29ce484222325ULL;
  for (u8 b : data) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  return h;
}

// Strong 64-bit mixing function (SplitMix64 finalizer). Bijective; used to
// turn structured values (block-ID windows, call-stack digests) into
// uniformly distributed coverage keys.
constexpr u64 mix64(u64 x) noexcept {
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Combine two 64-bit hashes (order-sensitive). Both operands pass through
// the full mixer, so structured small-integer inputs (block indices, stack
// frames) do not produce the systematic collisions a boost-style
// shift-xor combiner has.
constexpr u64 hash_combine(u64 a, u64 b) noexcept {
  return mix64(mix64(a ^ 0x9e3779b97f4a7c15ULL) + b);
}

}  // namespace bigmap
