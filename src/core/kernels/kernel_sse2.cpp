// SSE2 kernel: 16-byte-vector whole-map operations.
//
// Compiled only when the target baseline already includes SSE2 (always
// true on x86-64), so no extra compile flags and no runtime CPU check are
// needed. SSE2 lacks pshufb, so classification uses a masked-add
// formulation instead of a nibble LUT: the AFL buckets for counts >= 4 are
// exactly 8*[b>=4] + 8*[b>=8] + 16*[b>=16] + 32*[b>=32] + 64*[b>=128]
// (nested unsigned range masks), with b in {0,1,2} passing through and
// b==3 mapping to 4. Unsigned b>=k is max_epu8(b,k)==b.
//
// All loads/stores are unaligned; tails (< 16 bytes) run through the
// shared bytewise helpers, which are byte-for-byte the scalar reference.
#include "core/kernels/kernel_internal.h"

#if defined(__SSE2__)

#include <emmintrin.h>

#include "util/hash.h"

namespace bigmap::kernels {
namespace {

inline __m128i ge_mask(__m128i b, __m128i k) noexcept {
  return _mm_cmpeq_epi8(_mm_max_epu8(b, k), b);
}

inline __m128i classify_vec(__m128i b) noexcept {
  const __m128i le2 = _mm_cmpeq_epi8(_mm_max_epu8(b, _mm_set1_epi8(2)),
                                     _mm_set1_epi8(2));
  const __m128i eq3 = _mm_cmpeq_epi8(b, _mm_set1_epi8(3));
  const __m128i ge4 = ge_mask(b, _mm_set1_epi8(4));
  const __m128i ge8 = ge_mask(b, _mm_set1_epi8(8));
  const __m128i ge16 = ge_mask(b, _mm_set1_epi8(16));
  const __m128i ge32 = ge_mask(b, _mm_set1_epi8(32));
  const __m128i ge128 = ge_mask(b, _mm_set1_epi8(static_cast<char>(128)));

  __m128i r = _mm_and_si128(b, le2);
  r = _mm_add_epi8(r, _mm_and_si128(eq3, _mm_set1_epi8(4)));
  r = _mm_add_epi8(r, _mm_and_si128(ge4, _mm_set1_epi8(8)));
  r = _mm_add_epi8(r, _mm_and_si128(ge8, _mm_set1_epi8(8)));
  r = _mm_add_epi8(r, _mm_and_si128(ge16, _mm_set1_epi8(16)));
  r = _mm_add_epi8(r, _mm_and_si128(ge32, _mm_set1_epi8(32)));
  r = _mm_add_epi8(r, _mm_and_si128(ge128, _mm_set1_epi8(64)));
  return r;
}

inline bool all_zero(__m128i v) noexcept {
  return _mm_movemask_epi8(_mm_cmpeq_epi8(v, _mm_setzero_si128())) == 0xFFFF;
}

void k_reset(u8* mem, usize len) noexcept {
  const __m128i zero = _mm_setzero_si128();
  usize i = 0;
  for (; i + 16 <= len; i += 16) {
    _mm_storeu_si128(reinterpret_cast<__m128i*>(mem + i), zero);
  }
  for (; i < len; ++i) mem[i] = 0;
}

void k_classify(u8* mem, usize len) noexcept {
  usize i = 0;
  for (; i + 16 <= len; i += 16) {
    const __m128i t =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(mem + i));
    if (all_zero(t)) continue;  // zero-vector skip: no classify, no store
    _mm_storeu_si128(reinterpret_cast<__m128i*>(mem + i), classify_vec(t));
  }
  detail::tail_classify(mem + i, len - i);
}

// Shared comparison core. When CLASSIFY is set the trace chunk is bucketed
// and stored back first (the §IV-E fused pass).
template <bool CLASSIFY>
NewBits compare_core(u8* trace, u8* virgin, usize len) noexcept {
  const __m128i ff = _mm_set1_epi8(static_cast<char>(0xFF));
  __m128i acc_hit = _mm_setzero_si128();    // OR of t & v: any hit bits
  __m128i acc_tuple = _mm_setzero_si128();  // 0xFF bytes where v was 0xFF

  usize i = 0;
  for (; i + 16 <= len; i += 16) {
    __m128i t = _mm_loadu_si128(reinterpret_cast<const __m128i*>(trace + i));
    if (all_zero(t)) continue;  // zero-skip fast path: virgin untouched
    if constexpr (CLASSIFY) {
      t = classify_vec(t);
      _mm_storeu_si128(reinterpret_cast<__m128i*>(trace + i), t);
    }
    const __m128i v =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(virgin + i));
    const __m128i tv = _mm_and_si128(t, v);
    if (all_zero(tv)) continue;  // hits nothing still virgin
    const __m128i no_hit = _mm_cmpeq_epi8(tv, _mm_setzero_si128());
    acc_hit = _mm_or_si128(acc_hit, tv);
    acc_tuple = _mm_or_si128(
        acc_tuple, _mm_andnot_si128(no_hit, _mm_cmpeq_epi8(v, ff)));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(virgin + i),
                     _mm_andnot_si128(t, v));
  }

  NewBits result = NewBits::kNone;
  if (_mm_movemask_epi8(acc_tuple) != 0) {
    result = NewBits::kNewTuple;
  } else if (!all_zero(acc_hit)) {
    result = NewBits::kNewCounts;
  }
  if constexpr (CLASSIFY) {
    detail::tail_classify_compare(trace + i, virgin + i, len - i, result);
  } else {
    detail::tail_compare(trace + i, virgin + i, len - i, result);
  }
  return result;
}

NewBits k_compare(const u8* trace, u8* virgin, usize len) noexcept {
  return compare_core<false>(const_cast<u8*>(trace), virgin, len);
}

NewBits k_classify_compare(u8* trace, u8* virgin, usize len) noexcept {
  return compare_core<true>(trace, virgin, len);
}

u32 k_hash(const u8* mem, usize len) noexcept { return crc32({mem, len}); }

// Zero source vectors store zeros to the scratch only; a non-zero one is
// classified into the scratch and cleared at the source, so the pass
// writes the map only where the target wrote it.
void k_classify_clear(u8* src, u8* dst, usize len) noexcept {
  const __m128i zero = _mm_setzero_si128();
  usize i = 0;
  for (; i + 16 <= len; i += 16) {
    const __m128i t =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i));
    if (all_zero(t)) {
      _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i), zero);
      continue;
    }
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i), classify_vec(t));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(src + i), zero);
  }
  detail::tail_classify_clear(src + i, dst + i, len - i);
}

u32 k_classify_hash_clear(u8* mem, usize len) noexcept {
  return detail::classify_hash_clear_chunked(mem, len, k_classify_clear);
}

usize k_count_ne(const u8* mem, usize len, u8 value) noexcept {
  const __m128i splat = _mm_set1_epi8(static_cast<char>(value));
  usize ne = 0;
  usize i = 0;
  for (; i + 16 <= len; i += 16) {
    const __m128i b =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(mem + i));
    const int eq = _mm_movemask_epi8(_mm_cmpeq_epi8(b, splat));
    ne += 16 - static_cast<usize>(__builtin_popcount(eq));
  }
  for (; i < len; ++i) {
    if (mem[i] != value) ++ne;
  }
  return ne;
}

usize k_find_used_end(const u8* mem, usize len) noexcept {
  usize end = len;
  while (end > 0 && (end & 15) != 0) {
    if (mem[end - 1] != 0) return end;
    --end;
  }
  while (end >= 16) {
    const __m128i b =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(mem + end - 16));
    const u32 nz =
        0xFFFFu & ~static_cast<u32>(
                      _mm_movemask_epi8(_mm_cmpeq_epi8(b, _mm_setzero_si128())));
    if (nz != 0) {
      const int hi = 31 - __builtin_clz(nz);
      return end - 16 + static_cast<usize>(hi) + 1;
    }
    end -= 16;
  }
  return 0;
}

// Bit b of the result is set iff byte b of v is non-zero.
inline u64 nonzero_mask(__m128i v) noexcept {
  const __m128i zero = _mm_cmpeq_epi8(v, _mm_setzero_si128());
  return 0xFFFFu & ~static_cast<u32>(_mm_movemask_epi8(zero));
}

// 64-byte groups: the OR of four vectors skips an all-zero group with one
// test; a live group's four byte masks make one u64 walked by ctz.
usize k_collect_nonzero(const u8* mem, usize len, u32* out) noexcept {
  usize n = 0;
  usize i = 0;
  for (; i + 64 <= len; i += 64) {
    const auto* p = reinterpret_cast<const __m128i*>(mem + i);
    const __m128i a = _mm_loadu_si128(p);
    const __m128i b = _mm_loadu_si128(p + 1);
    const __m128i c = _mm_loadu_si128(p + 2);
    const __m128i d = _mm_loadu_si128(p + 3);
    if (all_zero(_mm_or_si128(_mm_or_si128(a, b), _mm_or_si128(c, d)))) {
      continue;
    }
    u64 nz = nonzero_mask(a) | nonzero_mask(b) << 16 |
             nonzero_mask(c) << 32 | nonzero_mask(d) << 48;
    for (; nz != 0; nz &= nz - 1) {
      out[n++] = static_cast<u32>(i + static_cast<usize>(__builtin_ctzll(nz)));
    }
  }
  return n + detail::tail_collect_nonzero(mem + i, len - i, i, out + n);
}

constexpr KernelOps kSse2Kernel = {
    "sse2",    k_reset,    k_classify,
    k_compare, k_classify_compare,
    k_hash,    k_classify_hash_clear,
    k_count_ne, k_find_used_end,
    k_collect_nonzero,
};

}  // namespace

const KernelOps* sse2_kernel_ops() noexcept { return &kSse2Kernel; }

}  // namespace bigmap::kernels

#else  // !defined(__SSE2__)

namespace bigmap::kernels {
const KernelOps* sse2_kernel_ops() noexcept { return nullptr; }
}  // namespace bigmap::kernels

#endif
