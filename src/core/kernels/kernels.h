// Whole-map kernel suite: runtime-dispatched implementations of the
// whole-map operations (reset / classify / compare_update / fused
// classify_compare / hash / fused classify_hash_clear / count / collect)
// at five ISA levels.
//
// BigMap's point (§IV) is that these operations scale with used_key, not
// map size — the kernel layer removes the remaining constant factor. Every
// kernel variant is provably byte-identical to the scalar reference
// (tests/core/kernel_diff_test.cpp runs the differential suite over every
// compiled variant), so selection is purely a performance decision:
//
//   scalar  byte-at-a-time reference; the semantics oracle
//   swar    u64 word-at-a-time with AFL's 16-bit classify LUT and
//           zero-word skip; the word code lives in kernels.cpp
//   sse2    16-byte vectors, compiled whenever the target has SSE2
//   avx2    32-byte vectors with pshufb nibble-LUT classify; compiled when
//           the compiler supports -mavx2, registered only when the CPU
//           reports AVX2 at startup
//   avx512  64-byte AVX-512BW vectors; hash and classify_hash_clear fold
//           CRC-32 2048 bits at a time with VPCLMULQDQ in one pass, and
//           collect_nonzero compresses positions in registers; registered
//           only when the CPU reports AVX-512BW and VPCLMULQDQ
//
// sse2, avx2 and avx512 are one template, SimdKernel<V> (kernel_simd.h),
// over three lane-traits structs: each algorithm is written once, and an
// ISA TU supplies only its intrinsics and its classify (avx512 also
// replaces the three ops above).
//
// Selection happens once per process
// (BIGMAP_KERNEL=scalar|swar|sse2|avx2|avx512 env override, else best
// runtime-supported) and once per map (MapOptions::kernel overrides the
// process default). The maps resolve a KernelOps pointer at construction
// and call through it; per-edge update() never goes through the registry.
#pragma once

#include <span>
#include <string_view>

#include "core/virgin.h"
#include "util/types.h"

namespace bigmap::kernels {

// One kernel variant: a name plus the whole-map operation entry points.
// All functions tolerate arbitrary (unaligned, odd) lengths; tails are
// handled inside each kernel so callers never pre-align.
struct KernelOps {
  const char* name;

  // Zeroes [mem, mem+len) with plain (cache-allocating) stores, so the
  // target's updates and the next scan find the map in cache.
  void (*reset)(u8* mem, usize len) noexcept;

  // Buckets every hit count in place (AFL classification, core/classify.h).
  void (*classify)(u8* mem, usize len) noexcept;

  // Classified-trace vs. virgin comparison; clears matched virgin bits and
  // reports the most interesting byte seen. Zero trace words/vectors are
  // skipped without touching the virgin map.
  NewBits (*compare_update)(const u8* trace, u8* virgin,
                            usize len) noexcept;

  // classify + compare_update fused into one pass over the trace (§IV-E).
  NewBits (*classify_compare)(u8* trace, u8* virgin, usize len) noexcept;

  // CRC-32 over [mem, mem+len) (same value as util/hash.h crc32()).
  u32 (*hash)(const u8* mem, usize len) noexcept;

  // classify + hash + reset fused into one pass (the trim pass): returns
  // the CRC-32 of the classified bytes — the value classify followed by
  // hash gives — and leaves [mem, mem+len) all zero. The word and vector
  // kernels up to avx2 classify one 4 kB chunk at a time into an L1
  // scratch buffer, zero only the non-zero source words/vectors, and fold
  // the chunk into the CRC with crc32_update; avx512 folds the classified
  // vectors straight from registers, with no scratch.
  u32 (*classify_hash_clear)(u8* mem, usize len) noexcept;

  // Number of bytes in [mem, mem+len) that differ from `value`. value=0
  // gives count_nonzero; value=0xFF gives the virgin-map covered count.
  usize (*count_ne)(const u8* mem, usize len, u8 value) noexcept;

  // One past the index of the last non-zero byte (0 when all zero) — the
  // §IV-D "hash up to the last non-zero byte" scan, run backwards.
  usize (*find_used_end)(const u8* mem, usize len) noexcept;

  // Writes the positions of the non-zero bytes of [mem, mem+len) to
  // out[0, n) in ascending order and returns n — the sparse form of a
  // classified trace that top_rated scoring and the corpus store read.
  // `out` must hold one u32 per non-zero byte (len of them at most);
  // len < 2^32.
  usize (*collect_nonzero)(const u8* mem, usize len, u32* out) noexcept;
};

// The byte-at-a-time reference kernel (always available).
const KernelOps& scalar_kernel() noexcept;

// Every kernel compiled into this binary, ordered worst-to-best
// (scalar, swar[, sse2][, avx2][, avx512]). Entries may still be unusable on the
// running CPU; see runtime_kernels().
std::span<const KernelOps* const> compiled_kernels() noexcept;

// The compiled kernels this CPU can actually execute, same ordering.
// Always contains at least scalar and swar.
std::span<const KernelOps* const> runtime_kernels() noexcept;

// Looks up a runtime-usable kernel by name; nullptr when the name is
// unknown, not compiled in, or not supported by this CPU.
const KernelOps* find_kernel(std::string_view name) noexcept;

// The process-wide default, selected once on first use: the BIGMAP_KERNEL
// environment override when set and usable (a warning is printed and the
// override ignored otherwise), else the best runtime kernel.
const KernelOps& active_kernel() noexcept;

// Per-map resolution: empty name -> active_kernel(); otherwise the named
// kernel. Throws std::invalid_argument when the name is unknown or
// unusable on this CPU (so a bad MapOptions::kernel fails loudly at map
// construction, not silently mid-campaign).
const KernelOps& resolve_kernel(std::string_view name);

}  // namespace bigmap::kernels
