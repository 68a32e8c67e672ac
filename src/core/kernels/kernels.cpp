#include "core/kernels/kernels.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/classify.h"
#include "core/kernels/kernel_internal.h"
#include "util/hash.h"

namespace bigmap::kernels {
namespace detail {

// --- shared bytewise tails (== the scalar reference, byte for byte) ------

void tail_classify(u8* mem, usize len) noexcept {
  const auto& lut = count_class_lookup8();
  for (usize i = 0; i < len; ++i) mem[i] = lut[mem[i]];
}

void tail_compare(const u8* trace, u8* virgin, usize len,
                  NewBits& result) noexcept {
  for (usize i = 0; i < len; ++i) {
    const u8 t = trace[i];
    if (t != 0 && (t & virgin[i]) != 0) {
      if (result != NewBits::kNewTuple) {
        result = (virgin[i] == 0xFF) ? NewBits::kNewTuple
                                     : std::max(result, NewBits::kNewCounts);
      }
      virgin[i] = static_cast<u8>(virgin[i] & ~t);
    }
  }
}

void tail_classify_compare(u8* trace, u8* virgin, usize len,
                           NewBits& result) noexcept {
  const auto& lut = count_class_lookup8();
  for (usize i = 0; i < len; ++i) {
    if (trace[i] == 0) continue;
    trace[i] = lut[trace[i]];
    const u8 t = trace[i];
    if ((t & virgin[i]) != 0) {
      if (result != NewBits::kNewTuple) {
        result = (virgin[i] == 0xFF) ? NewBits::kNewTuple
                                     : std::max(result, NewBits::kNewCounts);
      }
      virgin[i] = static_cast<u8>(virgin[i] & ~t);
    }
  }
}

void tail_classify_clear(u8* src, u8* dst, usize len) noexcept {
  const auto& lut = count_class_lookup8();
  for (usize i = 0; i < len; ++i) {
    dst[i] = lut[src[i]];
    src[i] = 0;
  }
}

usize tail_collect_nonzero(const u8* mem, usize len, usize base,
                           u32* out) noexcept {
  usize n = 0;
  for (usize i = 0; i < len; ++i) {
    if (mem[i] != 0) out[n++] = static_cast<u32>(base + i);
  }
  return n;
}

u32 classify_hash_clear_chunked(u8* mem, usize len,
                                ClassifyClearFn chunk) noexcept {
  alignas(64) u8 scratch[kClassifyHashChunk];
  u32 state = kCrc32Init;
  for (usize off = 0; off < len; off += kClassifyHashChunk) {
    const usize n = std::min(kClassifyHashChunk, len - off);
    chunk(mem + off, scratch, n);
    state = crc32_update(state, {scratch, n});
  }
  return crc32_finalize(state);
}

}  // namespace detail

namespace {

// --- scalar kernel: the byte-at-a-time semantics oracle ------------------

void sc_reset(u8* mem, usize len) noexcept {
  for (usize i = 0; i < len; ++i) mem[i] = 0;
}

void sc_classify(u8* mem, usize len) noexcept {
  detail::tail_classify(mem, len);
}

NewBits sc_compare(const u8* trace, u8* virgin, usize len) noexcept {
  NewBits result = NewBits::kNone;
  detail::tail_compare(trace, virgin, len, result);
  return result;
}

NewBits sc_classify_compare(u8* trace, u8* virgin, usize len) noexcept {
  NewBits result = NewBits::kNone;
  detail::tail_classify_compare(trace, virgin, len, result);
  return result;
}

// Bytewise CRC-32 via the incremental API: one-byte spans never reach the
// PCLMULQDQ fold or the slicing-by-8 loop, so the differential suite
// cross-checks the fast hashes against a genuinely different evaluation
// order.
u32 sc_hash(const u8* mem, usize len) noexcept {
  u32 state = kCrc32Init;
  for (usize i = 0; i < len; ++i) {
    state = crc32_update(state, {mem + i, 1});
  }
  return crc32_finalize(state);
}

// The reference: the three passes the fused kernels replace, one after
// the other.
u32 sc_classify_hash_clear(u8* mem, usize len) noexcept {
  sc_classify(mem, len);
  const u32 h = crc32({mem, len});
  sc_reset(mem, len);
  return h;
}

usize sc_count_ne(const u8* mem, usize len, u8 value) noexcept {
  usize n = 0;
  for (usize i = 0; i < len; ++i) {
    if (mem[i] != value) ++n;
  }
  return n;
}

usize sc_find_used_end(const u8* mem, usize len) noexcept {
  usize end = len;
  while (end > 0 && mem[end - 1] == 0) --end;
  return end;
}

usize sc_collect_nonzero(const u8* mem, usize len, u32* out) noexcept {
  return detail::tail_collect_nonzero(mem, len, 0, out);
}

constexpr KernelOps kScalarKernel = {
    "scalar",        sc_reset,    sc_classify,
    sc_compare,      sc_classify_compare,
    sc_hash,         sc_classify_hash_clear,
    sc_count_ne,     sc_find_used_end,
    sc_collect_nonzero,
};

// --- swar kernel: u64 word-at-a-time (AFL's LUT16 + zero-word skip) ------
//
// Word masks here are bytes of a u64, not movemask lanes, so swar stays
// outside SimdKernel; it is also the kernel non-x86 targets run.

inline u64 load64(const u8* p) noexcept {
  u64 v;
  __builtin_memcpy(&v, p, 8);
  return v;
}

inline void store64(u8* p, u64 v) noexcept { __builtin_memcpy(p, &v, 8); }

void sw_reset(u8* mem, usize len) noexcept {
  usize i = 0;
  for (; i + 8 <= len; i += 8) store64(mem + i, 0);
  for (; i < len; ++i) mem[i] = 0;
}

// AFL's 16-bit lookup table: one probe classifies two adjacent bytes.
struct Lut16 {
  u16 pair[65536];
  Lut16() noexcept {
    const auto& l8 = count_class_lookup8();
    for (u32 v = 0; v < 65536; ++v) {
      pair[v] = static_cast<u16>(l8[v >> 8] << 8 | l8[v & 0xFF]);
    }
  }
};

const Lut16& lut16() noexcept {
  static const Lut16 lut;
  return lut;
}

inline u64 classify_word(u64 t, const Lut16& lut) noexcept {
  return static_cast<u64>(lut.pair[t & 0xFFFF]) |
         static_cast<u64>(lut.pair[(t >> 16) & 0xFFFF]) << 16 |
         static_cast<u64>(lut.pair[(t >> 32) & 0xFFFF]) << 32 |
         static_cast<u64>(lut.pair[t >> 48]) << 48;
}

// Zero words — the dominant case on a sparse bitmap — are skipped.
void sw_classify(u8* mem, usize len) noexcept {
  const Lut16& lut = lut16();
  const usize words = len / 8;
  for (usize w = 0; w < words; ++w) {
    const u64 t = load64(mem + w * 8);
    if (t != 0) store64(mem + w * 8, classify_word(t, lut));
  }
  detail::tail_classify(mem + words * 8, len - words * 8);
}

// AFL's has_new_bits, a word at a time. When CLASSIFY is set each non-zero
// trace word is bucketed and stored back first (the §IV-E fused pass). A
// word that hits a virgin bit is rare; its bytes go through the bytewise
// compare, which sets the verdict and clears the hit bits.
template <bool CLASSIFY>
NewBits sw_compare_core(u8* trace, u8* virgin, usize len) noexcept {
  const Lut16& lut = lut16();
  NewBits result = NewBits::kNone;
  usize i = 0;
  for (; i + 8 <= len; i += 8) {
    u64 t = load64(trace + i);
    if (t == 0) continue;
    if constexpr (CLASSIFY) {
      t = classify_word(t, lut);
      store64(trace + i, t);
    }
    if ((t & load64(virgin + i)) != 0) [[unlikely]] {
      detail::tail_compare(trace + i, virgin + i, 8, result);
    }
  }
  if constexpr (CLASSIFY) {
    detail::tail_classify_compare(trace + i, virgin + i, len - i, result);
  } else {
    detail::tail_compare(trace + i, virgin + i, len - i, result);
  }
  return result;
}

NewBits sw_compare(const u8* trace, u8* virgin, usize len) noexcept {
  return sw_compare_core<false>(const_cast<u8*>(trace), virgin, len);
}

NewBits sw_classify_compare(u8* trace, u8* virgin, usize len) noexcept {
  return sw_compare_core<true>(trace, virgin, len);
}

u32 sw_hash(const u8* mem, usize len) noexcept {
  // crc32() already picks the fastest CRC-32 this CPU runs (PCLMULQDQ fold
  // or slicing-by-8); a u64-word formulation would only be slower.
  return crc32({mem, len});
}

void sw_classify_clear(u8* src, u8* dst, usize len) noexcept {
  const Lut16& lut = lut16();
  usize i = 0;
  for (; i + 8 <= len; i += 8) {
    const u64 w = load64(src + i);
    if (w == 0) {
      store64(dst + i, 0);
      continue;
    }
    store64(dst + i, classify_word(w, lut));
    store64(src + i, 0);
  }
  detail::tail_classify_clear(src + i, dst + i, len - i);
}

u32 sw_classify_hash_clear(u8* mem, usize len) noexcept {
  return detail::classify_hash_clear_chunked(mem, len, sw_classify_clear);
}

// Exact SWAR zero-byte count (no carry-propagation false positives):
// bit 7 of each byte of `y` ends up set iff that byte of `x` is zero.
inline int zero_bytes64(u64 x) noexcept {
  const u64 k7f = 0x7F7F7F7F7F7F7F7FULL;
  const u64 y = ~((((x & k7f) + k7f) | x) | k7f);
  return __builtin_popcountll(y);
}

usize sw_count_ne(const u8* mem, usize len, u8 value) noexcept {
  const u64 splat = 0x0101010101010101ULL * value;
  usize ne = 0;
  usize i = 0;
  for (; i + 8 <= len; i += 8) {
    ne += 8 - static_cast<usize>(zero_bytes64(load64(mem + i) ^ splat));
  }
  for (; i < len; ++i) {
    if (mem[i] != value) ++ne;
  }
  return ne;
}

usize sw_find_used_end(const u8* mem, usize len) noexcept {
  usize end = len;
  // Bytewise until the remaining prefix is word-aligned in length.
  while (end > 0 && (end & 7) != 0) {
    if (mem[end - 1] != 0) return end;
    --end;
  }
  while (end >= 8) {
    const u64 w = load64(mem + end - 8);
    if (w != 0) {
      // Highest non-zero byte of the little-endian word.
      const int hi_bit = 63 - __builtin_clzll(w);
      return end - 8 + static_cast<usize>(hi_bit / 8) + 1;
    }
    end -= 8;
  }
  return 0;
}

// Zero words are skipped; the non-zero bytes of a word are found by ctz.
usize sw_collect_nonzero(const u8* mem, usize len, u32* out) noexcept {
  usize n = 0;
  usize i = 0;
  for (; i + 8 <= len; i += 8) {
    u64 w = load64(mem + i);
    while (w != 0) {
      const int bit = __builtin_ctzll(w) & ~7;
      out[n++] = static_cast<u32>(i + static_cast<usize>(bit / 8));
      w &= ~(u64{0xFF} << bit);
    }
  }
  return n + detail::tail_collect_nonzero(mem + i, len - i, i, out + n);
}

constexpr KernelOps kSwarKernel = {
    "swar",     sw_reset,    sw_classify,
    sw_compare, sw_classify_compare,
    sw_hash,    sw_classify_hash_clear,
    sw_count_ne, sw_find_used_end,
    sw_collect_nonzero,
};

// --- registry ------------------------------------------------------------

std::vector<const KernelOps*> build_compiled() {
  std::vector<const KernelOps*> v{&kScalarKernel, &kSwarKernel};
  if (const KernelOps* k = sse2_kernel_ops()) v.push_back(k);
  if (const KernelOps* k = avx2_kernel_ops()) v.push_back(k);
  if (const KernelOps* k = avx512_kernel_ops()) v.push_back(k);
  return v;
}

std::vector<const KernelOps*> build_runtime() {
  std::vector<const KernelOps*> v;
  for (const KernelOps* k : compiled_kernels()) {
    if (cpu_supports(*k)) v.push_back(k);
  }
  return v;
}

}  // namespace

bool cpu_supports(const KernelOps& k) noexcept {
  // scalar/swar/sse2 kernels are only compiled when the baseline target
  // already guarantees their ISA; avx2 and avx512 need a runtime check
  // because their TUs are compiled above the baseline.
  const std::string_view name = k.name;
#if defined(__x86_64__) || defined(__i386__)
  if (name == "avx2") return __builtin_cpu_supports("avx2") != 0;
  if (name == "avx512") {
    return __builtin_cpu_supports("avx512bw") != 0 &&
           __builtin_cpu_supports("vpclmulqdq") != 0;
  }
#else
  if (name == "avx2" || name == "avx512") return false;
#endif
  return true;
}

const KernelOps& scalar_kernel() noexcept { return kScalarKernel; }

std::span<const KernelOps* const> compiled_kernels() noexcept {
  static const std::vector<const KernelOps*> v = build_compiled();
  return {v.data(), v.size()};
}

std::span<const KernelOps* const> runtime_kernels() noexcept {
  static const std::vector<const KernelOps*> v = build_runtime();
  return {v.data(), v.size()};
}

const KernelOps* find_kernel(std::string_view name) noexcept {
  for (const KernelOps* k : runtime_kernels()) {
    if (name == k->name) return k;
  }
  return nullptr;
}

const KernelOps& active_kernel() noexcept {
  static const KernelOps* const selected = [] {
    const char* env = std::getenv("BIGMAP_KERNEL");
    if (env != nullptr && *env != '\0') {
      if (const KernelOps* k = find_kernel(env)) return k;
      std::fprintf(stderr,
                   "bigmap: BIGMAP_KERNEL='%s' is unknown or unsupported on "
                   "this CPU; falling back to best available\n",
                   env);
    }
    return runtime_kernels().back();  // ordered worst-to-best
  }();
  return *selected;
}

const KernelOps& resolve_kernel(std::string_view name) {
  if (name.empty()) return active_kernel();
  if (const KernelOps* k = find_kernel(name)) return *k;
  throw std::invalid_argument(
      "unknown or unsupported map kernel: " + std::string(name) +
      " (valid: scalar|swar|sse2|avx2|avx512, subject to CPU support)");
}

}  // namespace bigmap::kernels
