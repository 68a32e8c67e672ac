// Tests for the seed queue: top_rated scoring, culling, perf score.
#include "fuzzer/queue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <vector>

namespace bigmap {
namespace {

Input bytes(usize n, u8 fill = 0xAA) { return Input(n, fill); }

// Byte-at-a-time model of update_scores' top_rated bookkeeping.
struct ReferenceScores {
  std::vector<u32> top_entry;
  std::vector<u64> top_factor;
  usize covered = 0;
  bool pending = false;

  explicit ReferenceScores(usize n)
      : top_entry(n, SeedQueue::kNoEntry), top_factor(n, 0) {}

  void update(u32 idx, u64 factor, const std::vector<u8>& trace) {
    for (usize i = 0; i < trace.size(); ++i) {
      if (trace[i] == 0) continue;
      if (top_entry[i] == SeedQueue::kNoEntry) ++covered;
      if (top_entry[i] == SeedQueue::kNoEntry || factor < top_factor[i]) {
        top_entry[i] = idx;
        top_factor[i] = factor;
        pending = true;
      }
    }
  }
};

TEST(SeedQueueTest, StartsEmpty) {
  SeedQueue q(64);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
  EXPECT_EQ(q.favored_count(), 0u);
  EXPECT_EQ(q.top_rated_positions(), 0u);
}

TEST(SeedQueueTest, AddStoresMetadata) {
  SeedQueue q(64);
  const usize idx = q.add(bytes(10), 5000, 0xDEAD, 2);
  EXPECT_EQ(q.size(), 1u);
  const QueueEntry& e = q.entry(idx);
  EXPECT_EQ(e.data.size(), 10u);
  EXPECT_EQ(e.exec_ns, 5000u);
  EXPECT_EQ(e.bitmap_hash, 0xDEADu);
  EXPECT_EQ(e.depth, 2u);
  EXPECT_FALSE(e.favored);
  EXPECT_FALSE(e.was_fuzzed);
}

TEST(SeedQueueTest, EntryReferencesStableAcrossGrowth) {
  SeedQueue q(64);
  q.add(bytes(4, 1), 1, 0, 0);
  QueueEntry& first = q.entry(0);
  for (int i = 0; i < 100; ++i) q.add(bytes(4, 2), 1, 0, 0);
  EXPECT_EQ(first.data[0], 1);  // reference still valid
}

TEST(SeedQueueTest, TopRatedPrefersFasterSmaller) {
  SeedQueue q(16);
  std::vector<u8> trace(16, 0);
  trace[3] = 1;

  const usize slow = q.add(bytes(100), 10000, 0, 0);
  q.update_scores(slow, trace);
  q.cull();
  EXPECT_TRUE(q.entry(slow).favored);

  // A faster, smaller entry covering the same position takes over.
  const usize fast = q.add(bytes(10), 1000, 0, 0);
  q.update_scores(fast, trace);
  q.cull();
  EXPECT_TRUE(q.entry(fast).favored);
  EXPECT_FALSE(q.entry(slow).favored);
}

TEST(SeedQueueTest, WorseEntryDoesNotDethrone) {
  SeedQueue q(16);
  std::vector<u8> trace(16, 0);
  trace[3] = 1;

  const usize good = q.add(bytes(10), 1000, 0, 0);
  q.update_scores(good, trace);
  const usize bad = q.add(bytes(100), 9000, 0, 0);
  q.update_scores(bad, trace);
  q.cull();
  EXPECT_TRUE(q.entry(good).favored);
  EXPECT_FALSE(q.entry(bad).favored);
}

TEST(SeedQueueTest, DisjointCoverageBothFavored) {
  SeedQueue q(16);
  std::vector<u8> t1(16, 0), t2(16, 0);
  t1[1] = 1;
  t2[9] = 1;
  const usize a = q.add(bytes(8), 100, 0, 0);
  q.update_scores(a, t1);
  const usize b = q.add(bytes(8), 100, 0, 0);
  q.update_scores(b, t2);
  q.cull();
  EXPECT_TRUE(q.entry(a).favored);
  EXPECT_TRUE(q.entry(b).favored);
  EXPECT_EQ(q.top_rated_positions(), 2u);
}

TEST(SeedQueueTest, TraceSpanShorterThanMapIsFine) {
  // BigMap passes only the used region; positions beyond must be ignored.
  SeedQueue q(1024);
  std::vector<u8> used(5, 0);
  used[4] = 2;
  const usize e = q.add(bytes(8), 100, 0, 0);
  q.update_scores(e, used);
  q.cull();
  EXPECT_TRUE(q.entry(e).favored);
  EXPECT_EQ(q.top_rated_positions(), 1u);
}

TEST(SeedQueueTest, UpdateScoresMatchesBytewiseAcrossWordBoundaries) {
  // Hits in the first and last byte, on both sides of every u64 boundary
  // (so of every 16/32-byte vector and 64/128-byte group too), and traces
  // whose length is not a multiple of 8 or of a vector group.
  for (const usize len : {1u, 7u, 8u, 9u, 15u, 16u, 17u, 31u, 32u, 33u, 64u,
                          67u, 83u, 127u, 128u, 129u, 255u}) {
    SCOPED_TRACE(len);
    SeedQueue q(len);
    ReferenceScores ref(len);
    // Never scored, so cull() leaves it favored only when nothing is
    // pending: a probe for update_scores' cull_pending flag.
    const usize probe = q.add(bytes(1), 1, 0, 0);

    std::vector<std::vector<u8>> traces;
    std::vector<u8> t(len, 0);
    traces.push_back(t);  // empty: must leave everything untouched
    t.front() = 1;
    t.back() = 0x80;
    traces.push_back(t);
    for (usize w = 8; w < len; w += 8) {
      std::vector<u8> b(len, 0);
      b[w - 1] = 3;
      b[w] = 0xFF;
      traces.push_back(b);
    }
    std::vector<u8> dense(len);
    for (usize i = 0; i < len; ++i) dense[i] = static_cast<u8>(i % 3);
    traces.push_back(dense);
    traces.push_back(dense);  // a second entry contests every position

    u64 exec_ns = 5000;
    for (const auto& trace : traces) {
      exec_ns = exec_ns * 3 % 7919 + 1;  // winners and losers interleave
      const usize idx = q.add(bytes(4), exec_ns, 0, 0);
      q.cull();
      q.entry(probe).favored = true;
      ref.pending = false;

      const std::span<const u32> got = q.update_scores(idx, trace);
      ref.update(static_cast<u32>(idx), exec_ns * 4, trace);
      std::vector<u32> want;
      for (usize i = 0; i < len; ++i) {
        if (trace[i] != 0) want.push_back(static_cast<u32>(i));
      }
      EXPECT_EQ(std::vector<u32>(got.begin(), got.end()), want);

      const SeedQueue::ExportedState st = q.export_state(len);
      EXPECT_EQ(st.top_entry, ref.top_entry);
      EXPECT_EQ(st.top_factor, ref.top_factor);
      EXPECT_EQ(q.top_rated_positions(), ref.covered);
      q.cull();
      EXPECT_EQ(!q.entry(probe).favored, ref.pending);
    }
  }
}

TEST(SeedQueueTest, PerfScoreRewardsFastEntries) {
  SeedQueue q(16);
  const usize fast = q.add(bytes(8), 100, 0, 0);
  const usize slow = q.add(bytes(8), 10000, 0, 0);
  const u64 avg = q.average_exec_ns();
  EXPECT_GT(q.perf_score(fast, avg), q.perf_score(slow, avg));
}

TEST(SeedQueueTest, PerfScoreRewardsDepth) {
  SeedQueue q(16);
  const usize shallow = q.add(bytes(8), 100, 0, 0);
  const usize deep = q.add(bytes(8), 100, 0, 20);
  const u64 avg = q.average_exec_ns();
  EXPECT_GT(q.perf_score(deep, avg), q.perf_score(shallow, avg));
}

TEST(SeedQueueTest, PerfScoreClamped) {
  SeedQueue q(16);
  const usize e = q.add(bytes(8), 1, 0, 100);
  EXPECT_LE(q.perf_score(e, 1000000), 1600.0);
  EXPECT_GE(q.perf_score(e, 0), 10.0);
}

TEST(SeedQueueTest, AverageExecNs) {
  SeedQueue q(16);
  EXPECT_EQ(q.average_exec_ns(), 0u);
  q.add(bytes(1), 100, 0, 0);
  q.add(bytes(1), 300, 0, 0);
  EXPECT_EQ(q.average_exec_ns(), 200u);
}

TEST(SeedQueueTest, CullIsIdempotent) {
  SeedQueue q(16);
  std::vector<u8> trace(16, 0);
  trace[0] = 1;
  q.update_scores(q.add(bytes(4), 10, 0, 0), trace);
  q.cull();
  const usize favored = q.favored_count();
  q.cull();  // no pending changes: must not alter anything
  EXPECT_EQ(q.favored_count(), favored);
}

// cull() walks only up to the highest position ever won; the favored set
// must equal the one a walk over every position gives.
TEST(SeedQueueTest, CullMatchesWholeMapWalk) {
  SeedQueue q(4096);
  u64 state = 7;
  const auto next = [&] { return state = state * 6364136223846793005ull + 1; };
  for (int round = 0; round < 40; ++round) {
    std::vector<u8> trace(64 + static_cast<usize>(round) * 8, 0);
    for (int hits = 0; hits < 6; ++hits) {
      trace[(next() >> 33) % trace.size()] = 1;
    }
    q.update_scores(q.add(bytes(1 + (next() >> 60)), 1 + (next() >> 50), 0, 0),
                    trace);
    q.cull();
    const SeedQueue::ExportedState st = q.export_state(4096);
    std::vector<bool> want(q.size(), false);
    for (u32 winner : st.top_entry) {
      if (winner != SeedQueue::kNoEntry) want[winner] = true;
    }
    for (usize i = 0; i < q.size(); ++i) {
      ASSERT_EQ(q.entry(i).favored, want[i]) << "round " << round;
    }
  }
}

// Importing just the live prefix of the top_rated arrays restores the same
// queue as importing the whole arrays.
TEST(SeedQueueTest, ImportPrefixMatchesWholeImport) {
  SeedQueue src(256);
  std::vector<u8> trace(40, 0);
  for (usize i : {0u, 5u, 17u, 33u}) trace[i] = 1;
  src.update_scores(src.add(bytes(4), 10, 0, 0), trace);
  trace.assign(40, 0);
  for (usize i : {5u, 20u}) trace[i] = 1;
  src.update_scores(src.add(bytes(2), 10, 0, 0), trace);
  const SeedQueue::ExportedState st = src.export_state(256);
  const std::span<const u32> top(st.top_entry);
  const std::span<const u64> factor(st.top_factor);

  const auto entries = [&] {
    std::vector<QueueEntry> out;
    for (usize i = 0; i < src.size(); ++i) out.push_back(src.entry(i));
    return out;
  };
  SeedQueue whole(256);
  SeedQueue prefix(256);
  ASSERT_TRUE(whole.import_state(entries(), top, factor, st.top_covered));
  ASSERT_TRUE(prefix.import_state(entries(), top.first(40), factor.first(40),
                                  st.top_covered));
  whole.cull();
  prefix.cull();
  const SeedQueue::ExportedState a = whole.export_state(256);
  const SeedQueue::ExportedState b = prefix.export_state(256);
  EXPECT_EQ(a.top_entry, b.top_entry);
  EXPECT_EQ(a.top_factor, b.top_factor);
  EXPECT_EQ(whole.top_rated_positions(), prefix.top_rated_positions());
  for (usize i = 0; i < src.size(); ++i) {
    EXPECT_EQ(whole.entry(i).favored, prefix.entry(i).favored) << i;
  }

  // A prefix longer than the queue's positions, or top arrays of different
  // lengths, are rejected.
  SeedQueue small(16);
  EXPECT_FALSE(small.import_state(entries(), top.first(40), factor.first(40),
                                  st.top_covered));
  EXPECT_FALSE(prefix.import_state(entries(), top.first(40), factor.first(39),
                                   st.top_covered));

  // A winner needs a real fav factor (>= 1): 0 is how the queue marks a
  // position without one.
  std::vector<u64> zeroed(factor.begin(), factor.begin() + 40);
  zeroed[5] = 0;
  EXPECT_FALSE(prefix.import_state(entries(), top.first(40), zeroed,
                                   st.top_covered));
}

// Each entry wins with one fav factor; a state where one entry's winning
// positions carry two different factors is not one this queue can hold.
TEST(SeedQueueTest, ImportRejectsDisagreeingFactors) {
  SeedQueue src(64);
  std::vector<u8> trace(64, 0);
  for (usize i : {2u, 9u, 40u}) trace[i] = 1;
  src.update_scores(src.add(bytes(4), 10, 0, 0), trace);
  trace.assign(64, 0);
  trace[9] = 1;
  trace[50] = 1;
  src.update_scores(src.add(bytes(2), 10, 0, 0), trace);
  const SeedQueue::ExportedState st = src.export_state(64);
  ASSERT_EQ(st.top_entry[2], 0u);
  ASSERT_EQ(st.top_entry[40], 0u);
  ASSERT_EQ(st.top_entry[9], 1u);
  ASSERT_NE(st.top_factor[2], st.top_factor[9]);

  std::vector<QueueEntry> entries;
  for (usize i = 0; i < src.size(); ++i) entries.push_back(src.entry(i));
  SeedQueue dst(64);
  ASSERT_TRUE(dst.import_state(entries, st.top_entry, st.top_factor,
                               st.top_covered));
  const SeedQueue::ExportedState round = dst.export_state(64);
  EXPECT_EQ(round.top_entry, st.top_entry);
  EXPECT_EQ(round.top_factor, st.top_factor);

  // Entry 0 wins positions 2 and 40; give one of them another factor.
  std::vector<u64> factor = st.top_factor;
  factor[40] += 1;
  SeedQueue other(64);
  EXPECT_FALSE(other.import_state(entries, st.top_entry, factor,
                                  st.top_covered));
  // A rejected import leaves the queue as it was.
  EXPECT_FALSE(dst.import_state(entries, st.top_entry, factor,
                                st.top_covered));
  EXPECT_EQ(dst.export_state(64).top_factor, st.top_factor);
  EXPECT_EQ(dst.size(), 2u);
}

}  // namespace
}  // namespace bigmap
