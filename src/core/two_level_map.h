// TwoLevelCoverageMap: BigMap's condensed two-level coverage bitmap — the
// paper's core contribution (§IV).
//
// Layout:
//   index           maps a coverage key to its condensed slot; a key never
//                   seen has none (kUnassigned). Listing 2 makes it a
//                   direct array of map_size entries; here it is a compact
//                   open-addressing table sized by the keys it holds (see
//                   below), so neither its memory nor a lookup's cache
//                   footprint grows with the map size.
//   coverage_bitmap condensed hit counts, densely packed from slot 0.
//   used_key        bump allocator: the next free condensed slot.
//   slot_keys       append-only log of the key each allocation assigned,
//                   in order; written only on the cold first-touch path.
//
// Update (Listing 2):
//   if (index[E] == -1) index[E] = used_key++;
//   coverage_bitmap[index[E]]++;
//
// Because the index assignment is stable for the whole campaign, every other
// map operation (reset / classify / compare / hash) needs to touch only the
// [0, used_key) prefix of the coverage bitmap — cost proportional to edges
// *discovered*, not to map size. The index is touched only by update and is
// never reset (§IV-B).
//
// The index table: 8-byte entries `key | slot << 32`, all-ones when empty.
// A multiplicative hash picks a key's home entry and linear probing
// resolves clashes. Its load stays at or below 1/2: the table doubles by
// rehashing the slot->key log, inside an address range reserved once at
// construction, so update() never allocates and only the entries in use
// (16-32 B per key) ever become resident.
//
// Hash rule (§IV-D): hashing always runs up to the *last non-zero* byte, not
// up to used_key, so a path executed before and after unrelated used_key
// growth produces the same hash.
#pragma once

#include <algorithm>
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

  usize map_size() const noexcept { return map_size_; }

  // Number of condensed coverage slots (defaults to map_size).
  usize condensed_size() const noexcept { return coverage_.size(); }

  // --- hot path -------------------------------------------------------------

  // Records one hit of coverage key `key` (Listing 2, lines 3-6). A key is
  // usually found at its home entry, and the first-touch branch is almost
  // always not taken. It is forced inline because GCC's growth limits
  // otherwise leave a call per block in the interpreter loop.
  [[gnu::always_inline]] void update(u32 key) noexcept {
    key &= mask_;
    usize e = home(key);
    u64 entry = table_[e];
    while (static_cast<u32>(entry) != key) [[unlikely]] {
      if (entry == kEmpty) {
        ++coverage_[allocate_slot(key, e)];
        return;
      }
      e = (e + 1) & table_mask_;
      entry = table_[e];
    }
    ++coverage_[slot_in(entry)];
  }

  // --- per-test-case map operations ------------------------------------------

  // Clears [0, used_key) of the coverage bitmap. The index is deliberately
  // left intact.
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

  // Condensed slot of `key`, or kUnassigned if never seen (the slot field
  // of an empty entry).
  u32 slot_of(u32 key) const noexcept {
    return slot_in(table_[find(key & mask_)]);
  }

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

  // The index table's whole reserved range; only the entries in use are
  // ever written, so its resident pages follow used_key.
  std::span<const u8> index_reservation() const noexcept {
    return index_.span();
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

  // Writes the index as a direct array of map_size entries (Listing 2's
  // layout, kUnassigned where no key was seen) into `index`, built from
  // the slot->key log, with the allocator state; O(map_size), for tools
  // that want the whole-map form.
  void export_state(std::vector<u32>* index, u32* used_key,
                    u64* saturated) const;

  // Rebuilds the state captured by slot_keys() in a freshly constructed
  // map of the same geometry by replaying the allocations. Returns false
  // (leaving the map fresh) when the map is not fresh or a key is outside
  // the map or repeated.
  bool import_slot_keys(std::span<const u32> keys);

 private:
  static constexpr u64 kEmpty = ~u64{0};

  static u32 slot_in(u64 entry) noexcept {
    return static_cast<u32>(entry >> 32);
  }

  // Index of `key`'s entry in the table, or of the empty entry that ends
  // its probe sequence. An empty entry's low word (0xFFFFFFFF) never
  // equals a key, because keys are below map_size <= 2^31.
  usize home(u32 key) const noexcept {
    return (key * 0x9E3779B1u) >> table_shift_;
  }
  usize find(u32 key) const noexcept {
    usize e = home(key);
    while (static_cast<u32>(table_[e]) != key && table_[e] != kEmpty) {
      e = (e + 1) & table_mask_;
    }
    return e;
  }

  // Condensed slot of the allocation at log position `n`: its own slot,
  // or the final one once the bitmap is full.
  u32 slot_at(usize n) const noexcept {
    return static_cast<u32>(std::min(n, coverage_.size() - 1));
  }

  // Cold path of update(): assigns the next condensed slot to `key`,
  // whose probe ended at the empty entry `e`, and logs the key.
  u32 allocate_slot(u32 key, usize e) noexcept;

  // Empties a table of `capacity` entries (a power of two).
  void clear_table(usize capacity) noexcept;

  // Doubles the table and reinserts every logged key.
  void grow() noexcept;

  // The index table's reservation: 2 * map_size entries, the most a load
  // of 1/2 ever needs, on plain pages that fault in as the table grows.
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
  u64* table_;            // == reinterpret_cast<u64*>(index_.data())
  usize table_mask_ = 0;  // entries in use - 1
  u32 table_shift_ = 0;   // 32 - log2(entries in use)
  usize map_size_;
  u32 mask_;
  u32 used_key_ = 0;
  u64 saturated_ = 0;
  bool merged_classify_compare_;
  mutable MapOpCounts ops_;  // mutable: hash() is const
};

}  // namespace bigmap
