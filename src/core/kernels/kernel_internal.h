// Internal glue between the kernel registry (kernels.cpp) and the
// per-ISA translation units. Each ISA TU is compiled with its own
// -m<isa> flag and exposes exactly one symbol: a KernelOps pointer that
// is null when the TU was built without that ISA (non-x86 target, or a
// compiler lacking the flag). The registry also needs the shared
// bytewise tail helpers so every kernel's tail path is literally the
// same code as the scalar reference.
#pragma once

#include "core/kernels/kernels.h"

namespace bigmap::kernels {

// Defined in kernel_sse2.cpp / kernel_avx2.cpp / kernel_avx512.cpp;
// nullptr when the ISA was not compiled in.
const KernelOps* sse2_kernel_ops() noexcept;
const KernelOps* avx2_kernel_ops() noexcept;
const KernelOps* avx512_kernel_ops() noexcept;

// True when the running CPU can execute the given compiled kernel.
bool cpu_supports(const KernelOps& k) noexcept;

namespace detail {

// Bytewise tail helpers shared by every vector kernel: identical to the
// scalar reference so tails can never diverge from it.

void tail_classify(u8* mem, usize len) noexcept;

// Merges the tail verdict into `result` and clears hit virgin bits.
void tail_compare(const u8* trace, u8* virgin, usize len,
                  NewBits& result) noexcept;

void tail_classify_compare(u8* trace, u8* virgin, usize len,
                           NewBits& result) noexcept;

// dst[i] = classify(src[i]), then src[i] = 0.
void tail_classify_clear(u8* src, u8* dst, usize len) noexcept;

// Appends base + i to `out` for every non-zero mem[i]; returns the count.
usize tail_collect_nonzero(const u8* mem, usize len, usize base,
                           u32* out) noexcept;

// The fused trim pass's chunk: small enough that the classified copy is
// still in L1 when the CRC fold reads it back.
inline constexpr usize kClassifyHashChunk = 4096;

// Classifies src[0, len) into dst[0, len) and leaves src all zero, for
// len <= kClassifyHashChunk. Each word/vector kernel supplies one.
using ClassifyClearFn = void (*)(u8* src, u8* dst, usize len) noexcept;

// KernelOps::classify_hash_clear on top of a kernel's chunk function: one
// chunk into an on-stack scratch buffer, then crc32_update over it.
u32 classify_hash_clear_chunked(u8* mem, usize len,
                                ClassifyClearFn chunk) noexcept;

}  // namespace detail
}  // namespace bigmap::kernels
