// PCLMULQDQ folding for reflected CRC-32/IEEE (polynomial 0xEDB88320).
//
// This is the folding scheme of Intel's "Fast CRC Computation for Generic
// Polynomials Using PCLMULQDQ Instruction" (Gopal et al., 2009), in the
// bit-reflected form the Linux kernel's crc32-pclmul uses:
//
//   1. fold four 128-bit lanes forward by 512 bits per 64-byte block
//      (constants x^(4*128+32) mod P and x^(4*128-32) mod P, reflected);
//   2. fold the four lanes into one, then any remaining 16-byte blocks,
//      by 128 bits (x^(128+32) mod P, x^(128-32) mod P);
//   3. fold 128 -> 96 bits (x^(128-32) mod P again), then 96 -> 64 bits
//      (x^64 mod P);
//   4. Barrett-reduce the 64-bit remainder to the 32-bit CRC
//      (P' = 0x1DB710641 and mu' = floor(x^64 / P), both reflected).
//
// No SSE4.2 crc32 instruction: that computes CRC-32C, a different
// polynomial, and would change every persisted and pinned CRC value.
//
// The TU is compiled with -mpclmul -msse4.1 (CMake adds them only when the
// compiler accepts them); crc32_update() checks the CPU before calling in.
// Without the flags it compiles to the null stub.
#include "util/crc32_clmul.h"

#if defined(__PCLMUL__) && defined(__SSE4_1__)

#include <immintrin.h>

namespace bigmap::detail {
namespace {

inline __m128i load(const u8* p) noexcept {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

// Folds `x` forward by the distance `k` encodes and adds `data`:
// x.lo * k.lo ^ x.hi * k.hi ^ data.
inline __m128i fold(__m128i x, __m128i k, __m128i data) noexcept {
  return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00),
                                     _mm_clmulepi64_si128(x, k, 0x11)),
                       data);
}

u32 clmul_fold(u32 state, const u8* p, usize len) noexcept {
  const __m128i k1k2 = _mm_set_epi64x(0x1c6e41596, 0x154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x0ccaa009e, 0x1751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x163cd6124);
  const __m128i poly_mu = _mm_set_epi64x(0x1f7011641, 0x1db710641);
  const __m128i mask32 = _mm_set_epi32(0, 0, 0, -1);

  __m128i x0 =
      _mm_xor_si128(load(p), _mm_cvtsi32_si128(static_cast<int>(state)));
  __m128i x1 = load(p + 16);
  __m128i x2 = load(p + 32);
  __m128i x3 = load(p + 48);
  p += 64;
  len -= 64;

  for (; len >= 64; p += 64, len -= 64) {
    x0 = fold(x0, k1k2, load(p));
    x1 = fold(x1, k1k2, load(p + 16));
    x2 = fold(x2, k1k2, load(p + 32));
    x3 = fold(x3, k1k2, load(p + 48));
  }

  x0 = fold(x0, k3k4, x1);
  x0 = fold(x0, k3k4, x2);
  x0 = fold(x0, k3k4, x3);
  for (; len >= 16; p += 16, len -= 16) x0 = fold(x0, k3k4, load(p));

  // 128 -> 96 bits, also appending the CRC's 32 zero bits: x.hi ^ x.lo * k4.
  x0 = _mm_xor_si128(_mm_srli_si128(x0, 8),
                     _mm_clmulepi64_si128(x0, k3k4, 0x10));
  // 96 -> 64 bits: (x >> 32) ^ (x & mask32) * k5.
  x0 = _mm_xor_si128(
      _mm_srli_si128(x0, 4),
      _mm_clmulepi64_si128(_mm_and_si128(x0, mask32), k5, 0x00));
  // Barrett reduction 64 -> 32 bits.
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x0, mask32), poly_mu, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, mask32), poly_mu, 0x00);
  return static_cast<u32>(_mm_extract_epi32(_mm_xor_si128(x0, t), 1));
}

}  // namespace

Crc32FoldFn crc32_clmul_fold() noexcept { return clmul_fold; }

}  // namespace bigmap::detail

#else  // !(defined(__PCLMUL__) && defined(__SSE4_1__))

namespace bigmap::detail {
Crc32FoldFn crc32_clmul_fold() noexcept { return nullptr; }
}  // namespace bigmap::detail

#endif
