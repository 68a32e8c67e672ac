// AVX2 kernel: SimdKernel (kernel_simd.h) over 32-byte vectors.
//
// This TU is compiled with -mavx2 (CMake adds the flag only when the
// compiler supports it), so it must never be entered on a CPU without
// AVX2 — the registry checks __builtin_cpu_supports("avx2") before
// exposing it (kernels.cpp cpu_supports()). Its one global symbol is
// avx2_kernel_ops(); scripts/lint_isa.sh fails the build otherwise.
//
// Classification uses the pshufb nibble-LUT trick: for a hit count b, the
// AFL bucket depends only on the high nibble when it is non-zero
// (16-31 -> 32, 32-127 -> 64, 128-255 -> 128) and only on the low nibble
// otherwise (0,1,2,4,8,8,8,8 then 16 for 8-15), so two 16-entry shuffles
// and a blend classify 32 bytes at once.
#include "core/kernels/kernel_internal.h"

#if defined(__AVX2__)

#include <immintrin.h>

#include "util/hash.h"

namespace bigmap::kernels {
namespace {

struct Avx2 {
  using Vec = __m256i;
  static constexpr usize kBytes = 32;

  static Vec load(const u8* p) noexcept {
    return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
  }
  static void store(u8* p, Vec v) noexcept {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
  }
  static Vec zero() noexcept { return _mm256_setzero_si256(); }
  static Vec splat(u8 b) noexcept {
    return _mm256_set1_epi8(static_cast<char>(b));
  }
  static Vec and_(Vec a, Vec b) noexcept { return _mm256_and_si256(a, b); }
  static Vec andnot(Vec a, Vec b) noexcept {
    return _mm256_andnot_si256(a, b);
  }
  static Vec or_(Vec a, Vec b) noexcept { return _mm256_or_si256(a, b); }
  static Vec eq(Vec a, Vec b) noexcept { return _mm256_cmpeq_epi8(a, b); }
  static u32 eq_mask(Vec a, Vec b) noexcept {
    return static_cast<u32>(_mm256_movemask_epi8(eq(a, b)));
  }
  static bool is_zero(Vec v) noexcept { return _mm256_testz_si256(v, v); }

  static Vec classify(Vec b) noexcept {
    const Vec lo_lut = _mm256_setr_epi8(
        0, 1, 2, 4, 8, 8, 8, 8, 16, 16, 16, 16, 16, 16, 16, 16,  //
        0, 1, 2, 4, 8, 8, 8, 8, 16, 16, 16, 16, 16, 16, 16, 16);
    const Vec hi_lut = _mm256_setr_epi8(
        0, 32, 64, 64, 64, 64, 64, 64, -128, -128, -128, -128, -128, -128,
        -128, -128,  //
        0, 32, 64, 64, 64, 64, 64, 64, -128, -128, -128, -128, -128, -128,
        -128, -128);
    const Vec nib = splat(0x0F);
    const Vec lo = and_(b, nib);
    const Vec hi = and_(_mm256_srli_epi16(b, 4), nib);
    return _mm256_blendv_epi8(_mm256_shuffle_epi8(hi_lut, hi),
                              _mm256_shuffle_epi8(lo_lut, lo),
                              eq(hi, zero()));
  }
};

#include "core/kernels/kernel_simd.h"

constexpr KernelOps kAvx2Kernel = SimdKernel<Avx2>::ops("avx2");

}  // namespace

const KernelOps* avx2_kernel_ops() noexcept { return &kAvx2Kernel; }

}  // namespace bigmap::kernels

#else  // !defined(__AVX2__)

namespace bigmap::kernels {
const KernelOps* avx2_kernel_ops() noexcept { return nullptr; }
}  // namespace bigmap::kernels

#endif
