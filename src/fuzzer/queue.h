// Seed queue: AFL's corpus with favored-entry culling and perf scoring.
//
// Mirrors AFL's queue mechanics at the level that matters for the paper's
// measurements:
//
//  - top_rated: for every coverage-map position, the "best" (fastest x
//    smallest) entry covering it. Maintained by update_scores(), which — as
//    in AFL — scans the whole trace bitmap for interesting entries. Under
//    the flat scheme that scan covers the full map; under BigMap only the
//    used region (the paper's "rank update" §IV-B). The caller passes the
//    span to scan, so the asymmetry falls out naturally. The arrays live on
//    zero-filled lazily faulted pages, so only positions ever won cost
//    resident memory: [0, used_key) under BigMap.
//  - cull(): marks the minimal favored set covering all seen positions.
//  - perf_score(): AFL's calculate_score flavor — rewards fast, small,
//    deep entries with more havoc iterations.
#pragma once

#include <bit>
#include <cstring>
#include <memory>
#include <span>
#include <vector>

#include "util/alloc.h"
#include "util/types.h"

namespace bigmap {

using Input = std::vector<u8>;

// Calls f(i) for every non-zero byte trace[i], in ascending order. A flat
// trace is a full, mostly zero map: zero u64 words are skipped and the
// non-zero bytes of a word are found by ctz.
template <class F>
void for_each_nonzero(std::span<const u8> trace, F&& f) {
  static_assert(std::endian::native == std::endian::little);
  const u8* p = trace.data();
  const usize n = trace.size();
  usize i = 0;
  for (; i + 8 <= n; i += 8) {
    u64 w;
    std::memcpy(&w, p + i, 8);
    while (w != 0) {
      const int bit = __builtin_ctzll(w) & ~7;
      f(i + static_cast<usize>(bit / 8));
      w &= ~(u64{0xFF} << bit);
    }
  }
  for (; i < n; ++i) {
    if (p[i] != 0) f(i);
  }
}

struct QueueEntry {
  Input data;
  u64 exec_ns = 0;     // measured execution time
  u32 bitmap_hash = 0; // hash of the classified trace when added
  u32 depth = 0;       // mutation ancestry depth
  bool favored = false;
  bool was_fuzzed = false;
  u64 times_selected = 0;
};

class SeedQueue {
 public:
  // `map_positions`: size of the coverage space used for top_rated
  // bookkeeping (full map size for AFL, condensed size for BigMap).
  explicit SeedQueue(usize map_positions);

  // Appends an entry; returns its index.
  usize add(Input data, u64 exec_ns, u32 bitmap_hash, u32 depth);

  usize size() const noexcept { return entries_.size(); }
  bool empty() const noexcept { return entries_.empty(); }

  QueueEntry& entry(usize idx) noexcept { return *entries_[idx]; }
  const QueueEntry& entry(usize idx) const noexcept { return *entries_[idx]; }

  // AFL's update_bitmap_score: called for a just-added interesting entry
  // with its classified trace. For every position set in `trace`, the entry
  // competes for top_rated by fav_factor = exec_ns * len. The span length
  // embodies the flat/condensed asymmetry.
  void update_scores(usize entry_idx, std::span<const u8> trace);

  // AFL's cull_queue: recompute the favored set. Cheap relative to
  // update_scores; call before each queue cycle. Walks only the positions
  // below the highest one ever won, so on BigMap it is bounded by used_key.
  void cull();

  // AFL's calculate_score, condensed: multiplier for havoc iterations.
  // avg_exec_ns is the queue-wide average execution time.
  double perf_score(usize idx, u64 avg_exec_ns) const;

  u64 average_exec_ns() const noexcept;

  usize favored_count() const noexcept;

  // Total queue positions covered by at least one top_rated entry.
  usize top_rated_positions() const noexcept { return top_covered_; }

  // --- persistence ----------------------------------------------------------

  // Checkpoint-shaped state: a borrowed view of the entries (valid until
  // the queue is next modified) and copies of the top_rated arrays over
  // [0, prefix), kNoEntry / 0 where a position has no winner. `prefix` is
  // at most the position count; the copy costs O(prefix).
  struct ExportedState {
    std::span<const std::unique_ptr<QueueEntry>> entries;  // queue order
    std::vector<u32> top_entry;
    std::vector<u64> top_factor;
    usize top_covered = 0;
  };
  ExportedState export_state(usize prefix) const;

  // Rebuilds the queue from snapshot data. `entries` become the corpus in
  // order; `top_entry`/`top_factor` are a prefix of the top_rated arrays
  // (no longer than this queue's position count; later positions have no
  // winner) and reference only valid entry indices (or kNoEntry). Returns
  // false (leaving the queue unchanged) on any inconsistency, including a
  // winner with fav factor 0 (real factors are >= 1). Marks culling
  // pending so the favored set is recomputed before the next cycle.
  bool import_state(std::vector<QueueEntry> entries,
                    std::span<const u32> top_entry,
                    std::span<const u64> top_factor, usize top_covered);

  // One slot per coverage position. kNoEntry when never covered.
  static constexpr u32 kNoEntry = 0xFFFFFFFFu;

  // The pages backing the two top_rated arrays, for residency checks.
  std::span<const u8> top_entry_pages() const noexcept {
    return top_entry_.span();
  }
  std::span<const u8> top_factor_pages() const noexcept {
    return top_factor_.span();
  }

 private:
  u32* winners() noexcept {
    return reinterpret_cast<u32*>(top_entry_.data());
  }
  const u32* winners() const noexcept {
    return reinterpret_cast<const u32*>(top_entry_.data());
  }
  u64* factors() noexcept {
    return reinterpret_cast<u64*>(top_factor_.data());
  }
  const u64* factors() const noexcept {
    return reinterpret_cast<const u64*>(top_factor_.data());
  }

  std::vector<std::unique_ptr<QueueEntry>> entries_;
  // Per-position winning entry and its fav factor. A factor of 0 means no
  // winner (a real factor is >= 1), so fresh zero pages need no fill and
  // the entry slot is meaningful only where the factor is non-zero.
  PageBuffer top_entry_;   // u32 per position
  PageBuffer top_factor_;  // u64 per position
  usize top_covered_ = 0;
  usize top_end_ = 0;  // one past the highest position with a winner
  bool cull_pending_ = false;
};

}  // namespace bigmap
