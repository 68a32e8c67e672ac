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
//    span to scan, so the asymmetry falls out naturally. The scan is one
//    kernel collect_nonzero pass; the winners are one u32 per position on
//    zero-filled lazily faulted pages, so only positions ever won cost
//    resident memory: [0, used_key) under BigMap.
//  - cull(): marks the minimal favored set covering all seen positions.
//  - perf_score(): AFL's calculate_score flavor — rewards fast, small,
//    deep entries with more havoc iterations.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "util/alloc.h"
#include "util/types.h"

namespace bigmap {

using Input = std::vector<u8>;

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

  // AFL's update_bitmap_score: called once for a just-added interesting
  // entry with its classified trace (no longer than the position count).
  // For every position set in `trace`, the entry competes for top_rated by
  // fav_factor = exec_ns * len, fixed at this call. The span length
  // embodies the flat/condensed asymmetry. Returns the ascending positions
  // set in `trace`, valid until the next call.
  std::span<const u32> update_scores(usize entry_idx,
                                     std::span<const u8> trace);

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
  // winner with fav factor 0 (real factors are >= 1) and one entry winning
  // with two different factors. Marks culling pending so the favored set
  // is recomputed before the next cycle.
  bool import_state(std::vector<QueueEntry> entries,
                    std::span<const u32> top_entry,
                    std::span<const u64> top_factor, usize top_covered);

  // The exported/imported winner of a position never covered.
  static constexpr u32 kNoEntry = 0xFFFFFFFFu;

  // The pages backing the top_rated winners, for residency checks.
  std::span<const u8> top_entry_pages() const noexcept {
    return top_entry_.span();
  }

 private:
  u32* winners() noexcept {
    return reinterpret_cast<u32*>(top_entry_.data());
  }
  const u32* winners() const noexcept {
    return reinterpret_cast<const u32*>(top_entry_.data());
  }

  std::vector<std::unique_ptr<QueueEntry>> entries_;
  // Each entry's fav factor, fixed when it is scored; 0 until then (a real
  // factor is >= 1). A position's winning factor is its winner's.
  std::vector<u64> factor_;
  // Per-position winning entry + 1; 0 means no winner, so fresh zero pages
  // need no fill.
  PageBuffer top_entry_;  // u32 per position
  // update_scores' scratch: the positions it collected, u32 each. Only the
  // prefix the densest trace reached is ever resident.
  PageBuffer positions_;
  usize top_covered_ = 0;
  usize top_end_ = 0;  // one past the highest position with a winner
  bool cull_pending_ = false;
};

}  // namespace bigmap
