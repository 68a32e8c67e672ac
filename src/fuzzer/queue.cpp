#include "fuzzer/queue.h"

#include <algorithm>

#include "core/kernels/kernels.h"

namespace bigmap {

SeedQueue::SeedQueue(usize map_positions)
    : top_entry_(PageBuffer::plain(map_positions * sizeof(u32))),
      positions_(PageBuffer::plain(map_positions * sizeof(u32))) {}

usize SeedQueue::add(Input data, u64 exec_ns, u32 bitmap_hash, u32 depth) {
  auto e = std::make_unique<QueueEntry>();
  e->data = std::move(data);
  e->exec_ns = exec_ns;
  e->bitmap_hash = bitmap_hash;
  e->depth = depth;
  entries_.push_back(std::move(e));
  factor_.push_back(0);
  return entries_.size() - 1;
}

std::span<const u32> SeedQueue::update_scores(usize entry_idx,
                                              std::span<const u8> trace) {
  const QueueEntry& e = *entries_[entry_idx];
  // fav_factor: lower is better (AFL: exec_us * len).
  const u64 factor =
      std::max<u64>(1, e.exec_ns) * std::max<usize>(1, e.data.size());
  factor_[entry_idx] = factor;

  u32* const pos = reinterpret_cast<u32*>(positions_.data());
  const usize n =
      kernels::active_kernel().collect_nonzero(trace.data(), trace.size(), pos);
  const u32 winner = static_cast<u32>(entry_idx) + 1;
  u32* const top = winners();
  for (usize k = 0; k < n; ++k) {
    u32& slot = top[pos[k]];
    if (slot == 0) {
      ++top_covered_;
    } else if (factor >= factor_[slot - 1]) {
      continue;
    }
    slot = winner;
    cull_pending_ = true;
  }
  if (n != 0) top_end_ = std::max<usize>(top_end_, pos[n - 1] + 1);
  return {pos, n};
}

void SeedQueue::cull() {
  if (!cull_pending_) return;
  cull_pending_ = false;

  for (auto& e : entries_) e->favored = false;
  // Greedy cover in position order, like AFL's temp_v walk: an entry
  // becomes favored if it is the top_rated winner for a position not yet
  // covered by an earlier favored entry. We approximate AFL's bitmap walk
  // by marking winners directly — every top_rated winner is favored. The
  // favored set is slightly larger than AFL's minimal cover but has the
  // same growth behavior.
  const u32* const top = winners();
  for (usize i = 0; i < top_end_; ++i) {
    if (top[i] != 0) entries_[top[i] - 1]->favored = true;
  }
}

double SeedQueue::perf_score(usize idx, u64 avg_exec_ns) const {
  const QueueEntry& e = *entries_[idx];
  double score = 100.0;

  // Speed adjustment (AFL: 0.1x .. 3x).
  if (avg_exec_ns > 0) {
    const double ratio = static_cast<double>(e.exec_ns) /
                         static_cast<double>(avg_exec_ns);
    if (ratio > 4.0) {
      score *= 0.25;
    } else if (ratio > 2.0) {
      score *= 0.5;
    } else if (ratio < 0.25) {
      score *= 3.0;
    } else if (ratio < 0.5) {
      score *= 2.0;
    }
  }

  // Depth bonus (AFL rewards deeper derivations up to 5x).
  if (e.depth >= 16) {
    score *= 5.0;
  } else if (e.depth >= 8) {
    score *= 3.0;
  } else if (e.depth >= 4) {
    score *= 2.0;
  }

  return std::clamp(score, 10.0, 1600.0);
}

u64 SeedQueue::average_exec_ns() const noexcept {
  if (entries_.empty()) return 0;
  u64 sum = 0;
  for (const auto& e : entries_) sum += e->exec_ns;
  return sum / entries_.size();
}

usize SeedQueue::favored_count() const noexcept {
  usize n = 0;
  for (const auto& e : entries_) {
    if (e->favored) ++n;
  }
  return n;
}

SeedQueue::ExportedState SeedQueue::export_state(usize prefix) const {
  ExportedState out{entries_, std::vector<u32>(prefix, kNoEntry),
                    std::vector<u64>(prefix, 0), top_covered_};
  // No position at or past top_end_ has a winner.
  const u32* const top = winners();
  for (usize i = 0; i < std::min(prefix, top_end_); ++i) {
    if (top[i] == 0) continue;
    out.top_entry[i] = top[i] - 1;
    out.top_factor[i] = factor_[top[i] - 1];
  }
  return out;
}

bool SeedQueue::import_state(std::vector<QueueEntry> entries,
                             std::span<const u32> top_entry,
                             std::span<const u64> top_factor,
                             usize top_covered) {
  if (top_entry.size() > top_entry_.size() / sizeof(u32) ||
      top_factor.size() != top_entry.size()) {
    return false;
  }
  // Every winning position of one entry must carry that entry's factor.
  std::vector<u64> factor(entries.size(), 0);
  usize covered = 0;
  usize end = 0;
  for (usize i = 0; i < top_entry.size(); ++i) {
    if (top_entry[i] == kNoEntry) continue;
    if (top_entry[i] >= entries.size() || top_factor[i] == 0) return false;
    u64& f = factor[top_entry[i]];
    if (f != 0 && f != top_factor[i]) return false;
    f = top_factor[i];
    ++covered;
    end = i + 1;
  }
  if (covered != top_covered) return false;

  entries_.clear();
  entries_.reserve(entries.size());
  for (QueueEntry& e : entries) {
    entries_.push_back(std::make_unique<QueueEntry>(std::move(e)));
  }
  factor_ = std::move(factor);
  // Clear the old winners, then copy the new ones: O(prefix + old
  // top_end_), writing no position past either.
  u32* const top = winners();
  std::fill_n(top, top_end_, u32{0});
  for (usize i = 0; i < end; ++i) {
    if (top_entry[i] != kNoEntry) top[i] = top_entry[i] + 1;
  }
  top_covered_ = top_covered;
  top_end_ = end;
  // Favored flags were persisted per entry, but recompute anyway so the
  // favored set always agrees with the restored top_rated winners.
  cull_pending_ = true;
  return true;
}

}  // namespace bigmap
