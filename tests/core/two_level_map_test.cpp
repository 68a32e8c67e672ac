// Tests for BigMap's two-level condensed coverage map — the paper's core
// data structure (§IV).
#include "core/two_level_map.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "core/classify.h"
#include "util/hash.h"
#include "util/rng.h"

namespace bigmap {
namespace {

MapOptions opts(usize size = 1u << 10, usize condensed = 0) {
  MapOptions o;
  o.map_size = size;
  o.condensed_size = condensed;
  o.huge_pages = false;
  return o;
}

TEST(TwoLevelMapTest, StartsUnassigned) {
  TwoLevelCoverageMap m(opts());
  EXPECT_EQ(m.used_key(), 0u);
  EXPECT_EQ(m.slot_of(0), TwoLevelCoverageMap::kUnassigned);
  EXPECT_EQ(m.slot_of(999), TwoLevelCoverageMap::kUnassigned);
  EXPECT_EQ(m.condensed_size(), m.map_size());
}

TEST(TwoLevelMapTest, FirstTouchAllocatesSequentialSlots) {
  // The paper's Figure 4(b): keys get condensed slots in first-touch order.
  TwoLevelCoverageMap m(opts());
  m.update(500);
  m.update(10);
  m.update(900);
  m.update(10);  // already assigned
  EXPECT_EQ(m.used_key(), 3u);
  EXPECT_EQ(m.slot_of(500), 0u);
  EXPECT_EQ(m.slot_of(10), 1u);
  EXPECT_EQ(m.slot_of(900), 2u);
  EXPECT_EQ(m.used_region()[0], 1);
  EXPECT_EQ(m.used_region()[1], 2);
  EXPECT_EQ(m.used_region()[2], 1);
}

TEST(TwoLevelMapTest, IndexSurvivesReset) {
  // §IV-B: the index bitmap is never reset; the same edge maps to the same
  // slot across all test cases.
  TwoLevelCoverageMap m(opts());
  m.update(123);
  m.update(456);
  const u32 slot123 = m.slot_of(123);
  m.reset();
  EXPECT_EQ(m.used_key(), 2u);  // allocation persists
  EXPECT_EQ(m.used_region()[slot123], 0);
  m.update(123);
  EXPECT_EQ(m.slot_of(123), slot123);
  EXPECT_EQ(m.used_region()[slot123], 1);
}

TEST(TwoLevelMapTest, ResetClearsOnlyUsedRegion) {
  TwoLevelCoverageMap m(opts());
  m.update(1);
  m.update(2);
  m.reset();
  for (u8 v : m.used_region()) EXPECT_EQ(v, 0);
  EXPECT_EQ(m.count_nonzero(), 0u);
}

TEST(TwoLevelMapTest, ScanCostTracksUsedKeyNotMapSize) {
  TwoLevelCoverageMap m(opts(1u << 20));
  EXPECT_EQ(m.scan_cost_bytes(), 0u);
  for (u32 k = 0; k < 100; ++k) m.update(k * 7919);
  EXPECT_LE(m.scan_cost_bytes(), 100u);
  EXPECT_GT(m.scan_cost_bytes(), 0u);
}

TEST(TwoLevelMapTest, KeyWrapsModuloMapSize) {
  TwoLevelCoverageMap m(opts(64));
  m.update(64);  // aliases key 0
  m.update(0);
  EXPECT_EQ(m.used_key(), 1u);
  EXPECT_EQ(m.used_region()[0], 2);
}

TEST(TwoLevelMapTest, ClassifyOnlyUsedRegion) {
  TwoLevelCoverageMap m(opts());
  for (int i = 0; i < 5; ++i) m.update(42);  // slot 0, raw 5
  for (int i = 0; i < 1; ++i) m.update(43);  // slot 1, raw 1
  m.classify();
  EXPECT_EQ(m.used_region()[0], 8);
  EXPECT_EQ(m.used_region()[1], 1);
}

TEST(TwoLevelMapTest, ClassifyHandlesNonWordMultipleUsedKey) {
  TwoLevelCoverageMap m(opts());
  for (u32 k = 0; k < 11; ++k) {  // used_key = 11, not a multiple of 8
    for (u32 r = 0; r < 5; ++r) m.update(1000 + k);
  }
  m.classify();
  for (u32 s = 0; s < 11; ++s) EXPECT_EQ(m.used_region()[s], 8) << s;
}

TEST(TwoLevelMapTest, CompareAgainstCondensedVirgin) {
  TwoLevelCoverageMap m(opts());
  VirginMap virgin(m.condensed_size());
  m.update(7);
  m.classify();
  EXPECT_EQ(m.compare_update(virgin), NewBits::kNewTuple);

  m.reset();
  m.update(7);
  m.classify();
  EXPECT_EQ(m.compare_update(virgin), NewBits::kNone);

  // New edge discovered later extends used_key; prefix compare sees it.
  m.reset();
  m.update(7);
  m.update(8);
  m.classify();
  EXPECT_EQ(m.compare_update(virgin), NewBits::kNewTuple);
}

TEST(TwoLevelMapTest, HashUpToLastNonZero) {
  // The paper's §IV-D example: P1 = {1,1} and P3 = {1,1,0} (after a third
  // edge was discovered by P2) must hash identically.
  TwoLevelCoverageMap m(opts());

  // P1: edges A->B (key 100), B->C (key 200).
  m.update(100);
  m.update(200);
  const u32 h1 = m.hash();

  // P2: discovers edge C->D (key 300) — used_key grows to 3.
  m.reset();
  m.update(100);
  m.update(200);
  m.update(300);
  const u32 h2 = m.hash();
  EXPECT_NE(h1, h2);

  // P3: same path as P1, but now used_key == 3; trailing zero must be
  // excluded from the hash.
  m.reset();
  m.update(100);
  m.update(200);
  EXPECT_EQ(m.hash(), h1);
}

TEST(TwoLevelMapTest, HashOfEmptyUsedRegion) {
  TwoLevelCoverageMap m(opts());
  EXPECT_EQ(m.hash(), crc32({}));
  m.update(5);
  m.reset();  // slot exists but zero -> still hashes as empty
  EXPECT_EQ(m.hash(), crc32({}));
}

TEST(TwoLevelMapTest, MergedClassifyCompareMatchesSequential) {
  for (bool merged : {false, true}) {
    MapOptions o = opts(512);
    o.merged_classify_compare = merged;
    TwoLevelCoverageMap m(o);
    VirginMap virgin(m.condensed_size());

    for (int i = 0; i < 3; ++i) m.update(50);
    m.update(60);
    EXPECT_EQ(m.classify_and_compare(virgin), NewBits::kNewTuple) << merged;
    EXPECT_EQ(m.used_region()[m.slot_of(50)], 4) << merged;  // 3 -> bucket 4

    m.reset();
    for (int i = 0; i < 3; ++i) m.update(50);
    m.update(60);
    EXPECT_EQ(m.classify_and_compare(virgin), NewBits::kNone) << merged;
  }
}

TEST(TwoLevelMapTest, SaturationAliasesFinalSlot) {
  MapOptions o = opts(1u << 10, /*condensed=*/8);
  TwoLevelCoverageMap m(o);
  for (u32 k = 0; k < 12; ++k) m.update(k * 13 + 1);
  EXPECT_EQ(m.used_key(), 8u);
  EXPECT_EQ(m.saturated_updates(), 4u);
  // Aliased updates landed on the last slot.
  EXPECT_GE(m.used_region()[7], 5);  // own hit + 4 aliases
}

TEST(TwoLevelMapTest, UsedKeyNeverExceedsDistinctKeys) {
  TwoLevelCoverageMap m(opts(1u << 12));
  Xoshiro256 rng(8);
  std::vector<u32> keys;
  for (int i = 0; i < 500; ++i) keys.push_back(rng.below(1u << 12));
  for (int round = 0; round < 3; ++round) {
    m.reset();
    for (u32 k : keys) m.update(k);
  }
  std::sort(keys.begin(), keys.end());
  const usize distinct =
      std::unique(keys.begin(), keys.end()) - keys.begin();
  EXPECT_EQ(m.used_key(), distinct);
}

// The slot->key log records every allocation in order — aliasing keys of
// a saturated bitmap included — and never a repeated touch.
TEST(TwoLevelMapTest, SlotKeysLogAllocationsInOrder) {
  TwoLevelCoverageMap m(opts(1u << 10, /*condensed=*/8));
  const std::vector<u32> keys = {500, 10, 900, 10, 3,   77, 500,
                                 1023, 42, 8,  9,  600, 9};
  for (u32 k : keys) m.update(k);
  EXPECT_EQ(m.used_key(), 8u);
  EXPECT_EQ(m.saturated_updates(), 2u);
  const std::span<const u32> log = m.slot_keys();
  EXPECT_EQ(std::vector<u32>(log.begin(), log.end()),
            (std::vector<u32>{500, 10, 900, 3, 77, 1023, 42, 8, 9, 600}));
  // Keys wrap modulo the map size, as update() sees them.
  TwoLevelCoverageMap w(opts(1u << 10));
  w.update(1024 + 5);
  EXPECT_EQ(std::vector<u32>(w.slot_keys().begin(), w.slot_keys().end()),
            (std::vector<u32>{5}));
}

// Replaying the log into a fresh map rebuilds the same index, allocator
// and log, saturated or not.
TEST(TwoLevelMapTest, ImportSlotKeysRebuildsIndex) {
  for (usize condensed : {usize{0}, usize{16}}) {
    TwoLevelCoverageMap m(opts(1u << 10, condensed));
    Xoshiro256 rng(condensed + 3);
    for (int i = 0; i < 300; ++i) m.update(rng.below(1u << 10));
    TwoLevelCoverageMap r(opts(1u << 10, condensed));
    ASSERT_TRUE(r.import_slot_keys(m.slot_keys()));
    EXPECT_EQ(r.used_key(), m.used_key());
    EXPECT_EQ(r.saturated_updates(), m.saturated_updates());
    for (u32 k = 0; k < (1u << 10); ++k) {
      ASSERT_EQ(r.slot_of(k), m.slot_of(k)) << k;
    }
    EXPECT_TRUE(std::equal(r.slot_keys().begin(), r.slot_keys().end(),
                           m.slot_keys().begin(), m.slot_keys().end()));
  }
}

// A log no map can hold is rejected and leaves the map fresh; so is any
// import into a map that already allocated.
TEST(TwoLevelMapTest, ImportSlotKeysRejectsBadLogs) {
  const std::vector<std::vector<u32>> bad = {{4, 9, 4}, {4, 1024}};
  for (const std::vector<u32>& keys : bad) {
    TwoLevelCoverageMap m(opts(1u << 10));
    EXPECT_FALSE(m.import_slot_keys(keys));
    EXPECT_EQ(m.used_key(), 0u);
    EXPECT_TRUE(m.slot_keys().empty());
    for (u32 k : {4u, 9u}) {
      EXPECT_EQ(m.slot_of(k), TwoLevelCoverageMap::kUnassigned);
    }
    ASSERT_TRUE(m.import_slot_keys(std::vector<u32>{9, 4}));
    EXPECT_EQ(m.slot_of(9), 0u);
  }
  TwoLevelCoverageMap used(opts(1u << 10));
  used.update(7);
  EXPECT_FALSE(used.import_slot_keys(std::vector<u32>{9}));
  EXPECT_EQ(used.slot_of(9), TwoLevelCoverageMap::kUnassigned);
}

// --- the hashed index against a model ---------------------------------------

// Key -> slot and per-slot hit counts, kept the way Listing 2 defines them.
struct IndexModel {
  usize map_size;
  usize condensed;
  std::unordered_map<u32, u32> slot;
  std::vector<u8> counts;
  u32 used_key = 0;
  u64 saturated = 0;

  IndexModel(usize size, usize cond)
      : map_size(size), condensed(cond == 0 ? size : cond), counts(condensed) {}

  void update(u32 key) {
    const auto [it, fresh] =
        slot.try_emplace(key & static_cast<u32>(map_size - 1), 0);
    if (fresh) {
      if (used_key < condensed) {
        it->second = used_key++;
      } else {
        it->second = static_cast<u32>(condensed - 1);
        ++saturated;
      }
    }
    ++counts[it->second];
  }

  u32 slot_of(u32 pos) const {
    const auto it = slot.find(pos);
    return it == slot.end() ? TwoLevelCoverageMap::kUnassigned : it->second;
  }

  std::vector<u32> whole_index() const {
    std::vector<u32> index(map_size, TwoLevelCoverageMap::kUnassigned);
    for (const auto& [pos, s] : slot) index[pos] = s;
    return index;
  }
};

std::vector<u32> exported_index(const TwoLevelCoverageMap& m) {
  std::vector<u32> index;
  u32 used_key = 0;
  u64 saturated = 0;
  m.export_state(&index, &used_key, &saturated);
  EXPECT_EQ(used_key, m.used_key());
  EXPECT_EQ(saturated, m.saturated_updates());
  return index;
}

// Seeded key streams (a mix of fresh keys and repeats, unmasked) drive the
// map and the model side by side. 6000 distinct keys take the one-page
// table through five doublings; a 1000-slot condensed bitmap saturates on
// the way. Every lookup, the hit counts, the allocator and export_state
// must match the model.
TEST(TwoLevelMapTest, HashedIndexMatchesModel) {
  constexpr usize kSize = 1u << 16;
  for (const usize condensed : {usize{0}, usize{1000}}) {
    for (const u64 seed : {1u, 2u, 3u}) {
      SCOPED_TRACE(testing::Message() << "condensed " << condensed
                                      << " seed " << seed);
      TwoLevelCoverageMap m(opts(kSize, condensed));
      IndexModel model(kSize, condensed);
      Xoshiro256 rng(seed);
      std::vector<u32> seen;
      while (model.slot.size() < 6000) {
        const bool repeat = !seen.empty() && rng.below(3) != 0;
        const u32 key = repeat ? seen[rng.below(static_cast<u32>(seen.size()))]
                               : static_cast<u32>(rng.next());
        if (!repeat) seen.push_back(key);
        model.update(key);
        m.update(key);
        ASSERT_EQ(m.slot_of(key), model.slot_of(key & (kSize - 1)))
            << "key " << key;
      }
      EXPECT_EQ(m.used_key(), model.used_key);
      EXPECT_EQ(m.saturated_updates(), model.saturated);
      EXPECT_EQ(condensed != 0, model.saturated > 0);
      for (u32 pos = 0; pos < kSize; ++pos) {
        ASSERT_EQ(m.slot_of(pos), model.slot_of(pos)) << "pos " << pos;
      }
      EXPECT_TRUE(std::equal(m.used_region().begin(), m.used_region().end(),
                             model.counts.begin(),
                             model.counts.begin() + model.used_key));
      EXPECT_EQ(exported_index(m), model.whole_index());
      EXPECT_EQ(m.slot_keys().size(), model.slot.size());
    }
  }
}

// An import that fails deep into a log (past several doublings) rolls the
// map back to fresh; the good log then imports to the same index.
TEST(TwoLevelMapTest, ImportRollbackAfterGrowthMatchesModel) {
  constexpr usize kSize = 1u << 16;
  for (const usize condensed : {usize{0}, usize{1000}}) {
    TwoLevelCoverageMap src(opts(kSize, condensed));
    IndexModel model(kSize, condensed);
    Xoshiro256 rng(condensed + 11);
    while (model.slot.size() < 3000) {
      const u32 key = static_cast<u32>(rng.next());
      src.update(key);
      model.update(key);
    }
    const std::vector<u32> log(src.slot_keys().begin(),
                               src.slot_keys().end());
    std::vector<u32> repeated(log.begin(), log.begin() + 2500);
    repeated.push_back(log[1234]);
    std::vector<u32> out_of_range(log.begin(), log.begin() + 2500);
    out_of_range.push_back(kSize);
    for (const std::vector<u32>* bad : {&repeated, &out_of_range}) {
      TwoLevelCoverageMap m(opts(kSize, condensed));
      EXPECT_FALSE(m.import_slot_keys(*bad));
      EXPECT_EQ(m.used_key(), 0u);
      EXPECT_EQ(m.saturated_updates(), 0u);
      EXPECT_TRUE(m.slot_keys().empty());
      EXPECT_EQ(exported_index(m), IndexModel(kSize, condensed).whole_index());
      for (usize i = 0; i < 2500; i += 97) {
        ASSERT_EQ(m.slot_of(log[i]), TwoLevelCoverageMap::kUnassigned) << i;
      }
      ASSERT_TRUE(m.import_slot_keys(log));
      EXPECT_EQ(m.used_key(), model.used_key);
      EXPECT_EQ(m.saturated_updates(), model.saturated);
      EXPECT_EQ(exported_index(m), model.whole_index());
    }
  }
}

}  // namespace
}  // namespace bigmap
