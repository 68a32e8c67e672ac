// SimdKernel<V>: every vector kernel's whole-map operations, written once.
//
// V is a lane-traits struct supplied by the ISA translation unit. It names
// the vector type and its width, and wraps the handful of intrinsics the
// loops need:
//
//   Vec, kBytes              the vector type and its width in bytes
//   load(p) / store(p, v)    unaligned load / store of one vector
//   zero() / splat(b)        all-zero vector / every lane = b
//   and_ / andnot / or_      a & b, ~a & b, a | b
//   eq(a, b)                 0xFF in the lanes where a == b, else 0
//   eq_mask(a, b)            bit i set iff lane i of a == lane i of b; up
//                            to 64 lanes, so lane masks are u64
//   is_zero(v)               true when every lane is 0
//   classify(v)              AFL bucket of every lane (core/classify.h)
//
// Each ISA TU includes this header inside its anonymous namespace, after
// its traits, so every function here has internal linkage: the AVX2 and
// AVX-512 TUs are compiled above the baseline ISA, and nothing they emit
// may become a symbol the linker could share with baseline-ISA code
// (scripts/lint_isa.sh checks the objects). For the same reason nothing
// here calls a std:: function template.
//
// All loads and stores are unaligned. Tails shorter than one vector run
// through the shared bytewise helpers in kernel_internal.h, which are the
// scalar reference byte for byte.
#pragma once

template <class V>
struct SimdKernel {
  using Vec = typename V::Vec;
  static constexpr usize W = V::kBytes;
  // eq_mask() bits that belong to a lane.
  static constexpr u64 kLanes = W == 64 ? ~u64{0} : (u64{1} << W) - 1;

  // Bit i is set iff lane i of v is non-zero.
  static u64 nonzero_mask(Vec v) noexcept {
    return kLanes & ~V::eq_mask(v, V::zero());
  }

  static void reset(u8* mem, usize len) noexcept {
    const Vec zero = V::zero();
    usize i = 0;
    for (; i + W <= len; i += W) V::store(mem + i, zero);
    for (; i < len; ++i) mem[i] = 0;
  }

  static void classify(u8* mem, usize len) noexcept {
    usize i = 0;
    for (; i + W <= len; i += W) {
      const Vec t = V::load(mem + i);
      if (V::is_zero(t)) continue;  // zero-vector skip: no classify, no store
      V::store(mem + i, V::classify(t));
    }
    detail::tail_classify(mem + i, len - i);
  }

  // The comparison core. When CLASSIFY is set the trace vector is bucketed
  // and stored back first (the §IV-E fused pass).
  template <bool CLASSIFY>
  static NewBits compare_core(u8* trace, u8* virgin, usize len) noexcept {
    const Vec ff = V::splat(0xFF);
    Vec acc_hit = V::zero();    // OR of t & v: any hit bits
    Vec acc_tuple = V::zero();  // 0xFF lanes where a hit met v == 0xFF

    usize i = 0;
    for (; i + W <= len; i += W) {
      Vec t = V::load(trace + i);
      if (V::is_zero(t)) continue;  // zero-skip fast path: virgin untouched
      if constexpr (CLASSIFY) {
        t = V::classify(t);
        V::store(trace + i, t);
      }
      const Vec v = V::load(virgin + i);
      const Vec tv = V::and_(t, v);
      if (V::is_zero(tv)) continue;  // hits nothing still virgin
      const Vec no_hit = V::eq(tv, V::zero());
      acc_hit = V::or_(acc_hit, tv);
      acc_tuple = V::or_(acc_tuple, V::andnot(no_hit, V::eq(v, ff)));
      V::store(virgin + i, V::andnot(t, v));
    }

    NewBits result = NewBits::kNone;
    if (!V::is_zero(acc_tuple)) {
      result = NewBits::kNewTuple;
    } else if (!V::is_zero(acc_hit)) {
      result = NewBits::kNewCounts;
    }
    if constexpr (CLASSIFY) {
      detail::tail_classify_compare(trace + i, virgin + i, len - i, result);
    } else {
      detail::tail_compare(trace + i, virgin + i, len - i, result);
    }
    return result;
  }

  static NewBits compare(const u8* trace, u8* virgin, usize len) noexcept {
    return compare_core<false>(const_cast<u8*>(trace), virgin, len);
  }

  static NewBits classify_compare(u8* trace, u8* virgin, usize len) noexcept {
    return compare_core<true>(trace, virgin, len);
  }

  static u32 hash(const u8* mem, usize len) noexcept {
    return crc32({mem, len});
  }

  // Zero source vectors store zeros to the scratch only; a non-zero one is
  // classified into the scratch and cleared at the source, so the pass
  // writes the map only where the target wrote it.
  static void classify_clear(u8* src, u8* dst, usize len) noexcept {
    const Vec zero = V::zero();
    usize i = 0;
    for (; i + W <= len; i += W) {
      const Vec t = V::load(src + i);
      if (V::is_zero(t)) {
        V::store(dst + i, zero);
        continue;
      }
      V::store(dst + i, V::classify(t));
      V::store(src + i, zero);
    }
    detail::tail_classify_clear(src + i, dst + i, len - i);
  }

  static u32 classify_hash_clear(u8* mem, usize len) noexcept {
    return detail::classify_hash_clear_chunked(mem, len, classify_clear);
  }

  static usize count_ne(const u8* mem, usize len, u8 value) noexcept {
    const Vec splat = V::splat(value);
    usize ne = 0;
    usize i = 0;
    for (; i + W <= len; i += W) {
      const u64 eq = V::eq_mask(V::load(mem + i), splat);
      ne += W - static_cast<usize>(__builtin_popcountll(eq));
    }
    for (; i < len; ++i) {
      if (mem[i] != value) ++ne;
    }
    return ne;
  }

  static usize find_used_end(const u8* mem, usize len) noexcept {
    usize end = len;
    // Bytewise until the remaining prefix is a whole number of vectors.
    while (end > 0 && end % W != 0) {
      if (mem[end - 1] != 0) return end;
      --end;
    }
    while (end >= W) {
      const u64 nz = nonzero_mask(V::load(mem + end - W));
      if (nz != 0) {
        const int hi = 63 - __builtin_clzll(nz);
        return end - W + static_cast<usize>(hi) + 1;
      }
      end -= W;
    }
    return 0;
  }

  // Appends base + b for every set bit b of nz, lowest first.
  static void emit(u64 nz, usize base, u32* out, usize& n) noexcept {
    for (; nz != 0; nz &= nz - 1) {
      out[n++] =
          static_cast<u32>(base + static_cast<usize>(__builtin_ctzll(nz)));
    }
  }

  // Groups of four vectors: the OR of the four skips an all-zero group
  // with one test; a live group's four lane masks make one u64 (16-byte
  // lanes) or two (32-byte lanes), walked by ctz. 64-byte lanes bring
  // their own (kernel_avx512.cpp).
  static usize collect_nonzero(const u8* mem, usize len, u32* out) noexcept {
    static_assert(W <= 32, "a 64-byte lane kernel supplies collect_nonzero");
    constexpr usize kGroup = 4 * W;
    usize n = 0;
    usize i = 0;
    for (; i + kGroup <= len; i += kGroup) {
      const Vec a = V::load(mem + i);
      const Vec b = V::load(mem + i + W);
      const Vec c = V::load(mem + i + 2 * W);
      const Vec d = V::load(mem + i + 3 * W);
      if (V::is_zero(V::or_(V::or_(a, b), V::or_(c, d)))) continue;
      const u64 ab = nonzero_mask(a) | nonzero_mask(b) << W;
      const u64 cd = nonzero_mask(c) | nonzero_mask(d) << W;
      if constexpr (2 * W == 64) {
        emit(ab, i, out, n);
        emit(cd, i + 64, out, n);
      } else {
        emit(ab | cd << (2 * W), i, out, n);
      }
    }
    return n + detail::tail_collect_nonzero(mem + i, len - i, i, out + n);
  }

  static constexpr KernelOps ops(const char* name) noexcept {
    return {name,          reset,         classify,
            compare,       classify_compare,
            hash,          classify_hash_clear,
            count_ne,      find_used_end,
            collect_nonzero};
  }
};
