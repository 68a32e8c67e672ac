// FlatCoverageMap: AFL's single-level coverage bitmap.
//
// This is the baseline the paper measures against. Every map operation
// except update touches the *full* bitmap regardless of how much of it is
// used, which is exactly the cost BigMap removes:
//
//   update    trace_bits[E]++              (sparse, random positions)
//   reset     memset(trace_bits, 0, size)  (full map, plain stores)
//   classify  bucket every byte            (full map)
//   compare   has_new_bits vs. virgin      (full map)
//   hash      crc32(trace_bits, size)      (full map, PCLMULQDQ-folded)
//   classify_hash_clear                    (full map, one pass: the trim
//             classify + hash + reset       pass; leaves the map zero)
//
// The reset uses plain, cache-allocating stores. A non-temporal reset
// (§IV-E) streams the zeroed map out of a 2 MB L2, and the target's updates
// and the next classify/compare pass then miss on every line: it ran the
// flat arm at about half speed (EXPERIMENTS.md, "Flat map work that stays
// in cache").
#pragma once

#include <span>
#include <vector>

#include "core/kernels/kernels.h"
#include "core/map_options.h"
#include "core/virgin.h"
#include "util/alloc.h"
#include "util/types.h"

namespace bigmap {

class FlatCoverageMap {
 public:
  explicit FlatCoverageMap(const MapOptions& opt);

  static constexpr MapScheme kScheme = MapScheme::kFlat;

  usize map_size() const noexcept { return trace_.size(); }

  // --- hot path -----------------------------------------------------------

  // Records one hit of coverage key `key` (Listing 1, line 3). Keys are
  // reduced modulo the (power-of-two) map size.
  void update(u32 key) noexcept { ++trace_[key & mask_]; }

  // --- per-test-case map operations ----------------------------------------

  // Clears the trace bitmap. Full-map memset with plain stores.
  void reset() noexcept;

  // Buckets every hit count in place. Full-map pass.
  void classify() noexcept;

  // Classified-trace vs. virgin comparison; clears matched virgin bits.
  // Full-map pass. `virgin.size()` must equal map_size().
  NewBits compare_update(VirginMap& virgin) noexcept;

  // classify() + compare_update() — fused into one pass when
  // merged_classify_compare is enabled (§IV-E), sequential otherwise.
  NewBits classify_and_compare(VirginMap& virgin) noexcept;

  // CRC-32 of the full trace bitmap (AFL's hash32 over MAP_SIZE).
  u32 hash() const noexcept;

  // classify() + hash() + reset() in one full-map pass: returns the hash()
  // the classified trace would give and leaves the map all zero. Counts as
  // one classify and one hash.
  u32 classify_hash_clear() noexcept;

  // --- introspection --------------------------------------------------------

  std::span<const u8> trace() const noexcept { return trace_.span(); }
  std::span<u8> mutable_trace() noexcept { return trace_.span(); }

  // Bytes iterated by each whole-map scan (== map_size for this scheme);
  // every reset, classify, compare and hash passes exactly this length.
  usize scan_cost_bytes() const noexcept { return trace_.size(); }

  // Number of distinct map positions currently non-zero.
  usize count_nonzero() const noexcept;

  // Lifetime whole-map scan counts (telemetry; see MapOpCounts).
  const MapOpCounts& op_counts() const noexcept { return ops_; }

  // Name of the kernel this map's whole-map operations dispatch to.
  const char* kernel_name() const noexcept { return kernel_->name; }

  PageBackingResult backing() const noexcept { return trace_.backing(); }

  // --- persistence ----------------------------------------------------------

  // Symmetric with TwoLevelCoverageMap::export_state so map-generic code
  // compiles for both schemes. The flat map has no campaign-lifetime state
  // of its own (the trace is per-exec scratch; global coverage lives in the
  // virgin maps), so the export is empty.
  void export_state(std::vector<u32>* index, u32* used_key,
                    u64* saturated) const {
    index->clear();
    *used_key = 0;
    *saturated = 0;
  }

 private:
  PageBuffer trace_;
  const kernels::KernelOps* kernel_;
  u32 mask_;
  bool merged_classify_compare_;
  mutable MapOpCounts ops_;  // mutable: hash() is const
};

}  // namespace bigmap
