// AVX-512 kernel: SimdKernel (kernel_simd.h) over 64-byte vectors, plus a
// hash and trim pass that fold CRC-32 with VPCLMULQDQ in registers.
//
// This TU is compiled with -mavx512f -mavx512bw -mvpclmulqdq -mpclmul
// -msse4.1 (CMake adds the flags only when the compiler takes them), so it
// must never be entered on a CPU without AVX-512BW and VPCLMULQDQ — the
// registry checks both with __builtin_cpu_supports before exposing it
// (kernels.cpp cpu_supports()). Its one global symbol is
// avx512_kernel_ops(); scripts/lint_isa.sh fails the build otherwise.
//
// Classification is AVX2's pshufb nibble LUT at 64 bytes, with the blend
// done by a write mask: bytes below 16 index the low-nibble table with
// themselves, the others the high-nibble table.
//
// hash and classify_hash_clear fold the map into four 512-bit
// accumulators: sixteen 128-bit lanes, each advanced 256 bytes per step.
// This is the folding scheme util/crc32_clmul.cpp uses (Gopal et al.,
// "Fast CRC Computation for Generic Polynomials Using PCLMULQDQ", Intel
// 2009), with a fold distance of 2048 bits. Its constants are
// x^(2048+32) and x^(2048-32) mod P in that file's reflected form,
// (bit-reflected x^n mod P) << 1, the form that gives its k1k2
// (n = 544, 480) and k3k4 (n = 160, 96). When the bulk is folded the
// accumulators are 256 bytes whose CRC from a zero register is the CRC
// register of everything folded; crc32_update() reduces them through the
// 128-bit fold and its Barrett step, and runs the len % 256 tail. Both
// ops therefore return exactly the crc32() value.
#include "core/kernels/kernel_internal.h"

#if defined(__AVX512F__) && defined(__AVX512BW__) && \
    defined(__VPCLMULQDQ__) && defined(__PCLMUL__)

#include <immintrin.h>

#include "util/hash.h"

namespace bigmap::kernels {
namespace {

struct Avx512 {
  using Vec = __m512i;
  static constexpr usize kBytes = 64;

  static Vec load(const u8* p) noexcept { return _mm512_loadu_si512(p); }
  static void store(u8* p, Vec v) noexcept { _mm512_storeu_si512(p, v); }
  static Vec zero() noexcept { return _mm512_setzero_si512(); }
  static Vec splat(u8 b) noexcept {
    return _mm512_set1_epi8(static_cast<char>(b));
  }
  static Vec and_(Vec a, Vec b) noexcept { return _mm512_and_si512(a, b); }
  static Vec andnot(Vec a, Vec b) noexcept {
    return _mm512_ternarylogic_epi64(a, b, b, 0x0C);  // ~a & b
  }
  static Vec or_(Vec a, Vec b) noexcept { return _mm512_or_si512(a, b); }
  static Vec eq(Vec a, Vec b) noexcept {
    return _mm512_movm_epi8(_mm512_cmpeq_epi8_mask(a, b));
  }
  static u64 eq_mask(Vec a, Vec b) noexcept {
    return _mm512_cmpeq_epi8_mask(a, b);
  }
  static bool is_zero(Vec v) noexcept {
    return _mm512_test_epi64_mask(v, v) == 0;
  }

  // The tables are set as u64 pairs per 128-bit lane, least significant
  // byte first: lo_lut is 0 1 2 4 8 8 8 8 then eight 16s, hi_lut is
  // 0 32 64 64 64 64 64 64 then eight 128s. (GCC 12's broadcast and
  // andnot intrinsics trip -Wmaybe-uninitialized, so neither is used.)
  static Vec classify(Vec b) noexcept {
    const Vec lo_lut = _mm512_set4_epi64(
        0x1010101010101010, 0x0808080804020100, 0x1010101010101010,
        0x0808080804020100);
    const Vec hi_lut = _mm512_set4_epi64(
        static_cast<long long>(0x8080808080808080), 0x4040404040402000,
        static_cast<long long>(0x8080808080808080), 0x4040404040402000);
    const Vec hi = and_(_mm512_srli_epi16(b, 4), splat(0x0F));
    const __mmask64 small = _mm512_testn_epi8_mask(b, splat(0xF0));
    return _mm512_mask_shuffle_epi8(_mm512_shuffle_epi8(hi_lut, hi), small,
                                    lo_lut, b);
  }
};

#include "core/kernels/kernel_simd.h"

using Simd = SimdKernel<Avx512>;

// --- CRC-32 folded 2048 bits at a time -----------------------------------

constexpr usize kFoldBytes = 256;

// x.lo * k.lo ^ x.hi * k.hi ^ data, in each 128-bit lane.
__m512i fold(__m512i x, __m512i k, __m512i data) noexcept {
  return _mm512_ternarylogic_epi64(_mm512_clmulepi64_epi128(x, k, 0x00),
                                   _mm512_clmulepi64_epi128(x, k, 0x11),
                                   data, 0x96);  // a ^ b ^ c
}

// The vector the CRC takes in at p: the bytes themselves for the hash;
// for the trim pass their buckets, and a masked store zeroes the non-zero
// source bytes, so the pass writes the map only where the target did and
// needs no branch (a zero mask stores nothing).
template <bool CLASSIFY_CLEAR>
__m512i take(u8* p) noexcept {
  const __m512i t = Avx512::load(p);
  if constexpr (CLASSIFY_CLEAR) {
    _mm512_mask_storeu_epi8(p, Simd::nonzero_mask(t), Avx512::zero());
    return Avx512::classify(t);
  }
  return t;
}

template <bool CLASSIFY_CLEAR>
u32 fold_crc(u8* mem, usize len) noexcept {
  alignas(64) u8 buf[kFoldBytes];
  u32 state = kCrc32Init;
  usize i = 0;
  if (len >= kFoldBytes) {
    // lo = x^(2048+32), hi = x^(2048-32) in every 128-bit lane.
    const __m512i k = _mm512_set4_epi64(0x1322d1430, 0x11542778a,
                                        0x1322d1430, 0x11542778a);
    __m512i x0 = _mm512_xor_si512(
        take<CLASSIFY_CLEAR>(mem),
        _mm512_zextsi128_si512(_mm_cvtsi32_si128(static_cast<int>(state))));
    __m512i x1 = take<CLASSIFY_CLEAR>(mem + 64);
    __m512i x2 = take<CLASSIFY_CLEAR>(mem + 128);
    __m512i x3 = take<CLASSIFY_CLEAR>(mem + 192);
    for (i = kFoldBytes; i + kFoldBytes <= len; i += kFoldBytes) {
      x0 = fold(x0, k, take<CLASSIFY_CLEAR>(mem + i));
      x1 = fold(x1, k, take<CLASSIFY_CLEAR>(mem + i + 64));
      x2 = fold(x2, k, take<CLASSIFY_CLEAR>(mem + i + 128));
      x3 = fold(x3, k, take<CLASSIFY_CLEAR>(mem + i + 192));
    }
    Avx512::store(buf, x0);
    Avx512::store(buf + 64, x1);
    Avx512::store(buf + 128, x2);
    Avx512::store(buf + 192, x3);
    state = crc32_update(0, {buf, kFoldBytes});
  }
  const usize tail = len - i;
  if constexpr (CLASSIFY_CLEAR) {
    Simd::classify_clear(mem + i, buf, tail);
    state = crc32_update(state, {buf, tail});
  } else {
    state = crc32_update(state, {mem + i, tail});
  }
  return crc32_finalize(state);
}

u32 hash(const u8* mem, usize len) noexcept {
  return fold_crc<false>(const_cast<u8*>(mem), len);
}

u32 classify_hash_clear(u8* mem, usize len) noexcept {
  return fold_crc<true>(mem, len);
}

// --- collect_nonzero: positions compressed in registers ------------------

// A live 64-byte vector's positions go out a quarter (16 lanes) at a time:
// vpcompressd packs the positions of the quarter's non-zero bytes into the
// low lanes of a zmm, and a masked store writes exactly that many, so
// nothing is written past the count.
usize collect_nonzero(const u8* mem, usize len, u32* out) noexcept {
  const __m512i iota = _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10,
                                         11, 12, 13, 14, 15);
  const __m512i sixteen = _mm512_set1_epi32(16);
  usize n = 0;
  usize i = 0;
  for (; i + 64 <= len; i += 64) {
    u64 nz = Simd::nonzero_mask(Avx512::load(mem + i));
    if (nz == 0) continue;
    __m512i pos =
        _mm512_add_epi32(iota, _mm512_set1_epi32(static_cast<int>(i)));
    for (int q = 0; q < 4; ++q) {
      const auto m = static_cast<__mmask16>(nz);
      const auto count = static_cast<u32>(__builtin_popcount(m));
      _mm512_mask_storeu_epi32(out + n,
                               static_cast<__mmask16>((1u << count) - 1),
                               _mm512_maskz_compress_epi32(m, pos));
      n += count;
      nz >>= 16;
      pos = _mm512_add_epi32(pos, sixteen);
    }
  }
  return n + detail::tail_collect_nonzero(mem + i, len - i, i, out + n);
}

// The template's loops, but this TU's hash, trim pass and collect.
constexpr KernelOps kAvx512Kernel = {
    "avx512",      Simd::reset,         Simd::classify,
    Simd::compare, Simd::classify_compare,
    hash,          classify_hash_clear,
    Simd::count_ne, Simd::find_used_end,
    collect_nonzero};

}  // namespace

const KernelOps* avx512_kernel_ops() noexcept { return &kAvx512Kernel; }

}  // namespace bigmap::kernels

#else  // AVX-512BW + VPCLMULQDQ not compiled in

namespace bigmap::kernels {
const KernelOps* avx512_kernel_ops() noexcept { return nullptr; }
}  // namespace bigmap::kernels

#endif
