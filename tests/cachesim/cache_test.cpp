// Tests for the set-associative cache model and hierarchy.
#include "cachesim/cache.h"

#include <gtest/gtest.h>

#include <stdexcept>

namespace bigmap {
namespace {

TEST(CacheTest, RejectsBadConfigs) {
  EXPECT_THROW(Cache({1024, 8, 60}), std::invalid_argument);  // line not pow2
  EXPECT_THROW(Cache({1024, 0, 64}), std::invalid_argument);  // 0 ways
  EXPECT_THROW(Cache({100, 8, 64}), std::invalid_argument);  // lines % ways
}

TEST(CacheTest, NonPowerOfTwoSetCountWorks) {
  // The Xeon E5645's 12 MB L3 has 12288 sets; modulo indexing handles it.
  Cache c({12 * 1024 * 1024, 16, 64});
  EXPECT_EQ(c.num_sets(), 12288u);
  EXPECT_FALSE(c.access(0x0));
  EXPECT_TRUE(c.access(0x0));
}

TEST(CacheTest, ColdMissThenHit) {
  Cache c({1024, 2, 64});
  EXPECT_FALSE(c.access(0x1000));
  EXPECT_TRUE(c.access(0x1000));
  EXPECT_TRUE(c.access(0x1010));  // same 64B line
  EXPECT_EQ(c.hits(), 2u);
  EXPECT_EQ(c.misses(), 1u);
}

TEST(CacheTest, ContainsDoesNotDisturbState) {
  Cache c({1024, 2, 64});
  c.access(0x2000);
  const u64 h = c.hits(), m = c.misses();
  EXPECT_TRUE(c.contains(0x2000));
  EXPECT_FALSE(c.contains(0x9000));
  EXPECT_EQ(c.hits(), h);
  EXPECT_EQ(c.misses(), m);
}

TEST(CacheTest, LruEvictionOrder) {
  // Direct-mapped-per-set behaviour with 2 ways: fill a set with two lines,
  // touch the first, insert a third — the second (least recent) is evicted.
  Cache c({1024, 2, 64});  // 8 sets
  const u64 set_stride = 8 * 64;
  const u64 a = 0, b = set_stride, d = 2 * set_stride;  // same set 0
  c.access(a);
  c.access(b);
  c.access(a);  // a most recent
  c.access(d);  // evicts b
  EXPECT_TRUE(c.contains(a));
  EXPECT_FALSE(c.contains(b));
  EXPECT_TRUE(c.contains(d));
}

TEST(CacheTest, CapacityLines) {
  Cache c({32 * 1024, 8, 64});
  EXPECT_EQ(c.capacity_lines(), 512u);
  EXPECT_EQ(c.num_sets(), 64u);
}

TEST(CacheTest, SequentialScanLargerThanCacheMissesEveryLine) {
  Cache c({1024, 2, 64});
  const usize lines = 64;  // 4 KiB scan through a 1 KiB cache
  for (usize i = 0; i < lines; ++i) c.access(i * 64);
  EXPECT_EQ(c.misses(), lines);
  // Second pass also misses everything (no reuse fits).
  for (usize i = 0; i < lines; ++i) c.access(i * 64);
  EXPECT_EQ(c.misses(), 2 * lines);
}

TEST(CacheTest, SmallWorkingSetAllHitsAfterWarmup) {
  Cache c({32 * 1024, 8, 64});
  for (int round = 0; round < 4; ++round) {
    for (u64 a = 0; a < 8 * 1024; a += 64) c.access(a);
  }
  // 128 cold misses, everything else hits.
  EXPECT_EQ(c.misses(), 128u);
  EXPECT_EQ(c.hits(), 3u * 128u);
}

TEST(CacheTest, ResidentLinesInRange) {
  Cache c({1024, 2, 64});
  c.access(0x0);
  c.access(0x40);
  c.access(0x10000);
  EXPECT_EQ(c.resident_lines_in(0x0, 0x80), 2u);
  EXPECT_EQ(c.resident_lines_in(0x10000, 0x10040), 1u);
  EXPECT_EQ(c.resident_lines_in(0x20000, 0x30000), 0u);
}

TEST(CacheTest, ResetClearsEverything) {
  Cache c({1024, 2, 64});
  c.access(0x0);
  c.reset();
  EXPECT_EQ(c.hits(), 0u);
  EXPECT_EQ(c.misses(), 0u);
  EXPECT_FALSE(c.contains(0x0));
}

TEST(CacheHierarchyTest, XeonConfigMatchesPaperTestbed) {
  auto h = CacheHierarchy::xeon_e5645();
  EXPECT_EQ(h.l1().config().size_bytes, 32u * 1024);
  EXPECT_EQ(h.l2().config().size_bytes, 256u * 1024);
  EXPECT_EQ(h.l3().config().size_bytes, 12u * 1024 * 1024);
}

TEST(CacheHierarchyTest, MissesCascade) {
  auto h = CacheHierarchy::xeon_e5645();
  EXPECT_EQ(h.access(0x1234), HitLevel::kMemory);  // cold
  EXPECT_EQ(h.access(0x1234), HitLevel::kL1);      // now in L1
  EXPECT_EQ(h.memory_accesses(), 1u);
}

TEST(CacheHierarchyTest, L1EvictionFallsBackToL2) {
  auto h = CacheHierarchy::xeon_e5645();
  h.access(0x0);
  // Blow L1 (32k) but stay within L2 (256k).
  for (u64 a = 64; a < 64 * 1024; a += 64) h.access(a);
  EXPECT_EQ(h.access(0x0), HitLevel::kL2);
}

TEST(CacheHierarchyTest, ResetClearsAllLevels) {
  auto h = CacheHierarchy::xeon_e5645();
  h.access(0x0);
  h.reset();
  EXPECT_EQ(h.l1().accesses(), 0u);
  EXPECT_EQ(h.memory_accesses(), 0u);
  EXPECT_EQ(h.access(0x0), HitLevel::kMemory);
}

}  // namespace
}  // namespace bigmap
