// SSE2 kernel: SimdKernel (kernel_simd.h) over 16-byte vectors.
//
// Compiled only when the target baseline already includes SSE2 (always
// true on x86-64), so no extra compile flags and no runtime CPU check are
// needed. SSE2 lacks pshufb, so classification uses a masked-add
// formulation instead of a nibble LUT: the AFL buckets for counts >= 4 are
// exactly 8*[b>=4] + 8*[b>=8] + 16*[b>=16] + 32*[b>=32] + 64*[b>=128]
// (nested unsigned range masks), with b in {0,1,2} passing through and
// b==3 mapping to 4. Unsigned b>=k is max_epu8(b,k)==b.
#include "core/kernels/kernel_internal.h"

#if defined(__SSE2__)

#include <emmintrin.h>

#include "util/hash.h"

namespace bigmap::kernels {
namespace {

struct Sse2 {
  using Vec = __m128i;
  static constexpr usize kBytes = 16;

  static Vec load(const u8* p) noexcept {
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
  }
  static void store(u8* p, Vec v) noexcept {
    _mm_storeu_si128(reinterpret_cast<__m128i*>(p), v);
  }
  static Vec zero() noexcept { return _mm_setzero_si128(); }
  static Vec splat(u8 b) noexcept {
    return _mm_set1_epi8(static_cast<char>(b));
  }
  static Vec and_(Vec a, Vec b) noexcept { return _mm_and_si128(a, b); }
  static Vec andnot(Vec a, Vec b) noexcept { return _mm_andnot_si128(a, b); }
  static Vec or_(Vec a, Vec b) noexcept { return _mm_or_si128(a, b); }
  static Vec eq(Vec a, Vec b) noexcept { return _mm_cmpeq_epi8(a, b); }
  static u32 eq_mask(Vec a, Vec b) noexcept {
    return static_cast<u32>(_mm_movemask_epi8(eq(a, b)));
  }
  static bool is_zero(Vec v) noexcept { return eq_mask(v, zero()) == 0xFFFF; }

  static Vec ge(Vec b, u8 k) noexcept {
    return eq(_mm_max_epu8(b, splat(k)), b);
  }
  static Vec classify(Vec b) noexcept {
    const Vec le2 = eq(_mm_max_epu8(b, splat(2)), splat(2));
    Vec r = and_(b, le2);
    r = _mm_add_epi8(r, and_(eq(b, splat(3)), splat(4)));
    r = _mm_add_epi8(r, and_(ge(b, 4), splat(8)));
    r = _mm_add_epi8(r, and_(ge(b, 8), splat(8)));
    r = _mm_add_epi8(r, and_(ge(b, 16), splat(16)));
    r = _mm_add_epi8(r, and_(ge(b, 32), splat(32)));
    r = _mm_add_epi8(r, and_(ge(b, 128), splat(64)));
    return r;
  }
};

#include "core/kernels/kernel_simd.h"

constexpr KernelOps kSse2Kernel = SimdKernel<Sse2>::ops("sse2");

}  // namespace

const KernelOps* sse2_kernel_ops() noexcept { return &kSse2Kernel; }

}  // namespace bigmap::kernels

#else  // !defined(__SSE2__)

namespace bigmap::kernels {
const KernelOps* sse2_kernel_ops() noexcept { return nullptr; }
}  // namespace bigmap::kernels

#endif
