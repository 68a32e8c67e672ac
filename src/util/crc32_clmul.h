// Carry-less-multiply (PCLMULQDQ) bulk path for util/hash.h's CRC-32.
//
// Internal to bigmap_util: crc32_update() is the only caller. The fold
// computes exactly the reflected CRC-32/IEEE that the slicing-by-8 table
// path computes, so values never depend on which path ran.
#pragma once

#include "util/types.h"

namespace bigmap::detail {

// Advances a CRC-32 `state` (as in crc32_update) over p[0, len). `len`
// must be a multiple of 16 and at least kCrc32ClmulMinLen.
using Crc32FoldFn = u32 (*)(u32 state, const u8* p, usize len) noexcept;

inline constexpr usize kCrc32ClmulMinLen = 64;

// The fold, or nullptr when the compiler could not build it (no -mpclmul /
// -msse4.1). The TU is compiled above the baseline ISA: callers must also
// check the CPU for pclmul and sse4.1 before calling what this returns.
Crc32FoldFn crc32_clmul_fold() noexcept;

}  // namespace bigmap::detail
