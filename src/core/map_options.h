// Construction options shared by both coverage-map schemes.
#pragma once

#include <string>

#include "util/alloc.h"
#include "util/types.h"

namespace bigmap {

// Which coverage-map data structure a fuzzing session uses.
enum class MapScheme : u8 {
  kFlat,      // AFL's single-level bitmap
  kTwoLevel,  // BigMap's condensed two-level bitmap
};

inline const char* map_scheme_name(MapScheme s) noexcept {
  return s == MapScheme::kFlat ? "AFL" : "BigMap";
}

// Options controlling map construction and the §IV-E optimizations. The
// optimizations default to on for both schemes, matching the paper's
// experimental setup ("Optimizations mentioned in Section IV-E applied to
// both AFL and BigMap"). The one §IV-E optimization not offered is the
// non-temporal reset: on a map the size of L2 it evicts the lines the
// target and the next scan are about to touch, so neither scheme uses it
// (DESIGN.md decision 5).
struct MapOptions {
  // Hash-space size in entries (== bytes for the flat scheme). Must be a
  // power of two and a multiple of 8.
  usize map_size = 1u << 16;

  // Back the bitmaps with huge pages when the OS allows it (§IV-E).
  bool huge_pages = true;

  // Fuse the classify and compare passes (§IV-E).
  bool merged_classify_compare = true;

  // Two-level scheme only: number of slots in the condensed coverage
  // bitmap. 0 means "same as map_size" (the paper's configuration).
  usize condensed_size = 0;

  // Whole-map kernel variant ("scalar", "swar", "sse2", "avx2",
  // "avx512"). Empty selects the process default: the BIGMAP_KERNEL environment override
  // when set and usable, else the best kernel this CPU supports. An
  // unknown or unsupported name makes map construction throw (see
  // core/kernels/kernels.h).
  std::string kernel;

  PageBacking backing() const noexcept {
    return huge_pages ? PageBacking::kHugeIfAvailable : PageBacking::kNormal;
  }
};

// Validates the power-of-two/multiple-of-8 constraints; throws
// std::invalid_argument on violation.
void validate_map_options(const MapOptions& opt);

// Lifetime whole-map operation counts, one per op *call* (a merged
// classify+compare pass counts one of each). update() is deliberately not
// counted per edge so the Listing 1/2 hot path stays untouched; telemetry
// snapshots read these to attribute scan work (the Figure 3 cost centers).
struct MapOpCounts {
  u64 resets = 0;
  u64 classifies = 0;
  u64 compares = 0;
  u64 hashes = 0;
};

}  // namespace bigmap
