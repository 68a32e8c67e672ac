// TwoLevelCoverageMap: BigMap's condensed two-level coverage bitmap — the
// paper's core contribution (§IV).
//
// Layout:
//   index_bitmap    map_size entries; maps a coverage key to its condensed
//                   slot. kUnassigned (-1) until the key is first seen.
//   coverage_bitmap condensed hit counts, densely packed from slot 0.
//   used_key        bump allocator: the next free condensed slot.
//   slot_keys       append-only log of the key each allocation assigned,
//                   in order; written only on the cold first-touch path.
//
// Update (Listing 2):
//   if (index_bitmap[E] == -1) index_bitmap[E] = used_key++;
//   coverage_bitmap[index_bitmap[E]]++;
//
// Because the index assignment is stable for the whole campaign, every other
// map operation (reset / classify / compare / hash) needs to touch only the
// [0, used_key) prefix of the coverage bitmap — cost proportional to edges
// *discovered*, not to map size. The index bitmap is touched only by update
// and is never reset (§IV-B).
//
// Hash rule (§IV-D): hashing always runs up to the *last non-zero* byte, not
// up to used_key, so a path executed before and after unrelated used_key
// growth produces the same hash.
#pragma once

#include <span>
#include <vector>

#include "core/kernels/kernels.h"
#include "core/map_options.h"
#include "core/virgin.h"
#include "util/alloc.h"
#include "util/types.h"

namespace bigmap {

class TwoLevelCoverageMap {
 public:
  explicit TwoLevelCoverageMap(const MapOptions& opt);

  static constexpr MapScheme kScheme = MapScheme::kTwoLevel;
  static constexpr u32 kUnassigned = 0xFFFFFFFFu;

  usize map_size() const noexcept { return index_size_; }

  // Number of condensed coverage slots (defaults to map_size).
  usize condensed_size() const noexcept { return coverage_.size(); }

  // --- hot path -------------------------------------------------------------

  // Records one hit of coverage key `key` (Listing 2, lines 3-6). The
  // first-touch branch is almost always not-taken and thus well predicted.
  void update(u32 key) noexcept {
    u32* slot = index_data_ + (key & mask_);
    u32 k = *slot;
    if (k == kUnassigned) [[unlikely]] {
      k = allocate_slot(slot);
    }
    ++coverage_[k];
  }

  // --- per-test-case map operations ------------------------------------------

  // Clears [0, used_key) of the coverage bitmap. The index bitmap is
  // deliberately left intact.
  void reset() noexcept;

  // Buckets hit counts over [0, used_key).
  void classify() noexcept;

  // Classified-trace vs. virgin comparison over [0, used_key); virgin bytes
  // beyond used_key are still 0xFF so the prefix comparison is exact.
  // `virgin.size()` must equal condensed_size().
  NewBits compare_update(VirginMap& virgin) noexcept;

  // classify() + compare_update(), fused when enabled (§IV-E).
  NewBits classify_and_compare(VirginMap& virgin) noexcept;

  // CRC-32 up to (and including) the last non-zero byte (§IV-D).
  u32 hash() const noexcept;

  // --- introspection ----------------------------------------------------------

  // Next free condensed slot == number of distinct keys seen so far.
  u32 used_key() const noexcept { return used_key_; }

  // Condensed slot of `key`, or kUnassigned if never seen.
  u32 slot_of(u32 key) const noexcept { return index_data_[key & mask_]; }

  // The used prefix of the coverage bitmap.
  std::span<const u8> used_region() const noexcept {
    return {coverage_.data(), used_key_};
  }
  std::span<u8> mutable_used_region() noexcept {
    return {coverage_.data(), used_key_};
  }

  std::span<const u8> full_coverage() const noexcept {
    return coverage_.span();
  }

  // Bytes iterated by each whole-map scan (== used_key for this scheme).
  usize scan_cost_bytes() const noexcept { return used_key_; }

  usize count_nonzero() const noexcept;

  // Number of updates that could not get a fresh slot because the condensed
  // bitmap was full (they alias the final slot). Always 0 when
  // condensed_size == map_size.
  u64 saturated_updates() const noexcept { return saturated_; }

  // Lifetime whole-map scan counts (telemetry; see MapOpCounts).
  const MapOpCounts& op_counts() const noexcept { return ops_; }

  // Name of the kernel this map's whole-map operations dispatch to.
  const char* kernel_name() const noexcept { return kernel_->name; }

  PageBackingResult coverage_backing() const noexcept {
    return coverage_.backing();
  }
  PageBackingResult index_backing() const noexcept {
    return index_.backing();
  }

  // --- persistence ------------------------------------------------------------

  // The campaign-lifetime map state (the stable index assignment) as the
  // key of every slot allocation in order: slot i for i < used_key, then
  // the keys that aliased the final slot once the bitmap saturated. It
  // has used_key + saturated_updates entries, so exporting it costs what
  // the edges found cost, not what the map size does. The coverage bitmap
  // is per-exec scratch and not part of the persistent state.
  std::span<const u32> slot_keys() const noexcept {
    return {key_log_data_, static_cast<usize>(used_key_ + saturated_)};
  }

  // Copies the whole index table into `index` (map_size entries) with the
  // allocator state; O(map_size), for tools that want the table itself.
  void export_state(std::vector<u32>* index, u32* used_key,
                    u64* saturated) const;

  // Rebuilds the state captured by slot_keys() in a freshly constructed
  // map of the same geometry by replaying the allocations. Returns false
  // (leaving the map fresh) when the map is not fresh or a key is outside
  // the map or repeated.
  bool import_slot_keys(std::span<const u32> keys);

 private:
  // Cold path of update(): assigns the next condensed slot to *slot and
  // logs the key.
  u32 allocate_slot(u32* slot) noexcept;

  // map_size u32 entries, init 0xFFFFFFFF. The one randomly accessed
  // buffer, so the one on huge pages (§IV-E) when MapOptions asks.
  PageBuffer index_;
  // Condensed hit counts on plain pages: every access lands in
  // [0, used_key), so only that prefix ever becomes resident.
  PageBuffer coverage_;
  // map_size u32 entries (at most one allocation per key). Never
  // pre-touched: pages fault in as the log grows, so its resident cost
  // follows used_key.
  PageBuffer key_log_;
  u32* key_log_data_;     // == reinterpret_cast<u32*>(key_log_.data())
  const kernels::KernelOps* kernel_;
  u32* index_data_;       // == reinterpret_cast<u32*>(index_.data())
  usize index_size_;      // entries in index_
  u32 mask_;
  u32 used_key_ = 0;
  u64 saturated_ = 0;
  bool merged_classify_compare_;
  mutable MapOpCounts ops_;  // mutable: hash() is const
};

}  // namespace bigmap
