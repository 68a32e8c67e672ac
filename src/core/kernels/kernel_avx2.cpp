// AVX2 kernel: 32-byte-vector whole-map operations.
//
// This TU is compiled with -mavx2 (CMake adds the flag only when the
// compiler supports it), so it must never be entered on a CPU without
// AVX2 — the registry checks __builtin_cpu_supports("avx2") before
// exposing it (kernels.cpp cpu_supports()).
//
// Classification uses the pshufb nibble-LUT trick: for a hit count b, the
// AFL bucket depends only on the high nibble when it is non-zero
// (16-31 -> 32, 32-127 -> 64, 128-255 -> 128) and only on the low nibble
// otherwise (0,1,2,4,8,8,8,8 then 16 for 8-15), so two 16-entry shuffles
// and a blend classify 32 bytes at once.
//
// All loads/stores are unaligned; tails (< 32 bytes) run through the
// shared bytewise helpers, which are byte-for-byte the scalar reference.
#include "core/kernels/kernel_internal.h"

#if defined(__AVX2__)

#include <immintrin.h>

#include "util/hash.h"

namespace bigmap::kernels {
namespace {

inline __m256i classify_vec(__m256i b) noexcept {
  const __m256i lo_lut = _mm256_setr_epi8(
      0, 1, 2, 4, 8, 8, 8, 8, 16, 16, 16, 16, 16, 16, 16, 16,  //
      0, 1, 2, 4, 8, 8, 8, 8, 16, 16, 16, 16, 16, 16, 16, 16);
  const __m256i hi_lut = _mm256_setr_epi8(
      0, 32, 64, 64, 64, 64, 64, 64, -128, -128, -128, -128, -128, -128,
      -128, -128,  //
      0, 32, 64, 64, 64, 64, 64, 64, -128, -128, -128, -128, -128, -128,
      -128, -128);
  const __m256i nib = _mm256_set1_epi8(0x0F);

  const __m256i lo = _mm256_and_si256(b, nib);
  const __m256i hi = _mm256_and_si256(_mm256_srli_epi16(b, 4), nib);
  const __m256i hi_zero = _mm256_cmpeq_epi8(hi, _mm256_setzero_si256());
  return _mm256_blendv_epi8(_mm256_shuffle_epi8(hi_lut, hi),
                            _mm256_shuffle_epi8(lo_lut, lo), hi_zero);
}

void k_reset(u8* mem, usize len) noexcept {
  const __m256i zero = _mm256_setzero_si256();
  usize i = 0;
  for (; i + 32 <= len; i += 32) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(mem + i), zero);
  }
  for (; i < len; ++i) mem[i] = 0;
}

void k_classify(u8* mem, usize len) noexcept {
  usize i = 0;
  for (; i + 32 <= len; i += 32) {
    const __m256i t =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(mem + i));
    if (_mm256_testz_si256(t, t)) continue;  // zero-vector skip
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(mem + i),
                        classify_vec(t));
  }
  detail::tail_classify(mem + i, len - i);
}

// Shared comparison core. When CLASSIFY is set the trace chunk is bucketed
// and stored back first (the §IV-E fused pass).
template <bool CLASSIFY>
NewBits compare_core(u8* trace, u8* virgin, usize len) noexcept {
  const __m256i ff = _mm256_set1_epi8(static_cast<char>(0xFF));
  __m256i acc_hit = _mm256_setzero_si256();    // OR of t & v
  __m256i acc_tuple = _mm256_setzero_si256();  // 0xFF where hit && v == 0xFF

  usize i = 0;
  for (; i + 32 <= len; i += 32) {
    __m256i t =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(trace + i));
    if (_mm256_testz_si256(t, t)) continue;  // zero-skip: virgin untouched
    if constexpr (CLASSIFY) {
      t = classify_vec(t);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(trace + i), t);
    }
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(virgin + i));
    const __m256i tv = _mm256_and_si256(t, v);
    if (_mm256_testz_si256(tv, tv)) continue;  // hits nothing still virgin
    const __m256i no_hit = _mm256_cmpeq_epi8(tv, _mm256_setzero_si256());
    acc_hit = _mm256_or_si256(acc_hit, tv);
    acc_tuple = _mm256_or_si256(
        acc_tuple, _mm256_andnot_si256(no_hit, _mm256_cmpeq_epi8(v, ff)));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(virgin + i),
                        _mm256_andnot_si256(t, v));
  }

  NewBits result = NewBits::kNone;
  if (_mm256_movemask_epi8(acc_tuple) != 0) {
    result = NewBits::kNewTuple;
  } else if (!_mm256_testz_si256(acc_hit, acc_hit)) {
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
  const __m256i zero = _mm256_setzero_si256();
  usize i = 0;
  for (; i + 32 <= len; i += 32) {
    const __m256i t =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    if (_mm256_testz_si256(t, t)) {
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i), zero);
      continue;
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        classify_vec(t));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(src + i), zero);
  }
  detail::tail_classify_clear(src + i, dst + i, len - i);
}

u32 k_classify_hash_clear(u8* mem, usize len) noexcept {
  return detail::classify_hash_clear_chunked(mem, len, k_classify_clear);
}

usize k_count_ne(const u8* mem, usize len, u8 value) noexcept {
  const __m256i splat = _mm256_set1_epi8(static_cast<char>(value));
  usize ne = 0;
  usize i = 0;
  for (; i + 32 <= len; i += 32) {
    const __m256i b =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(mem + i));
    const u32 eq =
        static_cast<u32>(_mm256_movemask_epi8(_mm256_cmpeq_epi8(b, splat)));
    ne += 32 - static_cast<usize>(__builtin_popcount(eq));
  }
  for (; i < len; ++i) {
    if (mem[i] != value) ++ne;
  }
  return ne;
}

usize k_find_used_end(const u8* mem, usize len) noexcept {
  usize end = len;
  while (end > 0 && (end & 31) != 0) {
    if (mem[end - 1] != 0) return end;
    --end;
  }
  while (end >= 32) {
    const __m256i b =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(mem + end - 32));
    const u32 nz = ~static_cast<u32>(_mm256_movemask_epi8(
        _mm256_cmpeq_epi8(b, _mm256_setzero_si256())));
    if (nz != 0) {
      const int hi = 31 - __builtin_clz(nz);
      return end - 32 + static_cast<usize>(hi) + 1;
    }
    end -= 32;
  }
  return 0;
}

// Bit b of the result is set iff byte b of v is non-zero.
inline u64 nonzero_mask(__m256i v) noexcept {
  const __m256i zero = _mm256_cmpeq_epi8(v, _mm256_setzero_si256());
  return ~static_cast<u32>(_mm256_movemask_epi8(zero));
}

// 128-byte groups: the OR of four vectors skips an all-zero group with one
// test; a live group's byte masks make two u64s walked by ctz.
usize k_collect_nonzero(const u8* mem, usize len, u32* out) noexcept {
  usize n = 0;
  usize i = 0;
  for (; i + 128 <= len; i += 128) {
    const auto* p = reinterpret_cast<const __m256i*>(mem + i);
    const __m256i a = _mm256_loadu_si256(p);
    const __m256i b = _mm256_loadu_si256(p + 1);
    const __m256i c = _mm256_loadu_si256(p + 2);
    const __m256i d = _mm256_loadu_si256(p + 3);
    const __m256i any =
        _mm256_or_si256(_mm256_or_si256(a, b), _mm256_or_si256(c, d));
    if (_mm256_testz_si256(any, any)) continue;
    const u64 halves[2] = {nonzero_mask(a) | nonzero_mask(b) << 32,
                           nonzero_mask(c) | nonzero_mask(d) << 32};
    for (usize h = 0; h < 2; ++h) {
      for (u64 nz = halves[h]; nz != 0; nz &= nz - 1) {
        out[n++] = static_cast<u32>(i + h * 64 +
                                    static_cast<usize>(__builtin_ctzll(nz)));
      }
    }
  }
  return n + detail::tail_collect_nonzero(mem + i, len - i, i, out + n);
}

constexpr KernelOps kAvx2Kernel = {
    "avx2",    k_reset,    k_classify,
    k_compare, k_classify_compare,
    k_hash,    k_classify_hash_clear,
    k_count_ne, k_find_used_end,
    k_collect_nonzero,
};

}  // namespace

const KernelOps* avx2_kernel_ops() noexcept { return &kAvx2Kernel; }

}  // namespace bigmap::kernels

#else  // !defined(__AVX2__)

namespace bigmap::kernels {
const KernelOps* avx2_kernel_ops() noexcept { return nullptr; }
}  // namespace bigmap::kernels

#endif
