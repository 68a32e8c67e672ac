// Tests for the AFL-style flat coverage map.
#include "core/flat_map.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "core/classify.h"
#include "util/hash.h"

namespace bigmap {
namespace {

MapOptions small_opts(usize size = 1u << 10) {
  MapOptions o;
  o.map_size = size;
  o.huge_pages = false;
  return o;
}

TEST(FlatMapTest, RejectsBadSizes) {
  MapOptions o;
  o.map_size = 1000;  // not a power of two
  EXPECT_THROW(FlatCoverageMap m(o), std::invalid_argument);
  o.map_size = 4;  // < 8
  EXPECT_THROW(FlatCoverageMap m(o), std::invalid_argument);
}

TEST(FlatMapTest, StartsZeroed) {
  FlatCoverageMap m(small_opts());
  EXPECT_EQ(m.count_nonzero(), 0u);
  EXPECT_EQ(m.map_size(), 1u << 10);
}

TEST(FlatMapTest, UpdateIncrementsHitCount) {
  FlatCoverageMap m(small_opts());
  m.update(5);
  m.update(5);
  m.update(7);
  EXPECT_EQ(m.trace()[5], 2);
  EXPECT_EQ(m.trace()[7], 1);
  EXPECT_EQ(m.count_nonzero(), 2u);
}

TEST(FlatMapTest, UpdateWrapsKeyModuloMapSize) {
  FlatCoverageMap m(small_opts(64));
  m.update(64);   // == position 0
  m.update(65);   // == position 1
  m.update(129);  // == position 1
  EXPECT_EQ(m.trace()[0], 1);
  EXPECT_EQ(m.trace()[1], 2);
}

TEST(FlatMapTest, HitCountSaturationWraps) {
  // AFL trace bytes are u8 and wrap at 256; 256 hits alias to zero — a
  // known AFL artifact we reproduce faithfully.
  FlatCoverageMap m(small_opts(64));
  for (int i = 0; i < 256; ++i) m.update(3);
  EXPECT_EQ(m.trace()[3], 0);
}

TEST(FlatMapTest, ResetClearsFullMap) {
  FlatCoverageMap m(small_opts());
  for (u32 k = 0; k < 100; ++k) m.update(k * 7);
  m.reset();
  EXPECT_EQ(m.count_nonzero(), 0u);
}

TEST(FlatMapTest, ClassifyBucketsInPlace) {
  FlatCoverageMap m(small_opts(64));
  for (int i = 0; i < 5; ++i) m.update(10);  // raw 5 -> bucket 8
  m.classify();
  EXPECT_EQ(m.trace()[10], 8);
  EXPECT_TRUE(is_classified(m.trace()));
}

TEST(FlatMapTest, CompareFindsNewTupleThenNothing) {
  FlatCoverageMap m(small_opts(64));
  VirginMap virgin(64);
  m.update(9);
  m.classify();
  EXPECT_EQ(m.compare_update(virgin), NewBits::kNewTuple);

  m.reset();
  m.update(9);
  m.classify();
  EXPECT_EQ(m.compare_update(virgin), NewBits::kNone);
}

TEST(FlatMapTest, MergedAndSequentialClassifyCompareAgree) {
  for (bool merged : {false, true}) {
    MapOptions o = small_opts(256);
    o.merged_classify_compare = merged;
    FlatCoverageMap m(o);
    VirginMap virgin(256);

    m.update(1);
    m.update(1);
    m.update(100);
    EXPECT_EQ(m.classify_and_compare(virgin), NewBits::kNewTuple) << merged;
    EXPECT_EQ(m.trace()[1], 2) << merged;
    EXPECT_EQ(m.trace()[100], 1) << merged;

    m.reset();
    m.update(1);
    m.update(1);
    m.update(100);
    EXPECT_EQ(m.classify_and_compare(virgin), NewBits::kNone) << merged;
  }
}

TEST(FlatMapTest, HashCoversFullMap) {
  FlatCoverageMap a(small_opts(64)), b(small_opts(64));
  EXPECT_EQ(a.hash(), b.hash());  // both all-zero
  a.update(3);
  EXPECT_NE(a.hash(), b.hash());
  b.update(3);
  EXPECT_EQ(a.hash(), b.hash());
  // Same count at a different position must hash differently.
  FlatCoverageMap c(small_opts(64));
  c.update(4);
  EXPECT_NE(a.hash(), c.hash());
}

TEST(FlatMapTest, ScanCostIsMapSize) {
  FlatCoverageMap m(small_opts(1u << 16));
  EXPECT_EQ(m.scan_cost_bytes(), 1u << 16);
  m.update(1);  // scan cost is size-independent of usage
  EXPECT_EQ(m.scan_cost_bytes(), 1u << 16);
}

TEST(FlatMapTest, HugePageOptionStillWorks) {
  MapOptions o;
  o.map_size = 4u << 20;
  o.huge_pages = true;
  FlatCoverageMap m(o);
  m.update(12345);
  EXPECT_EQ(m.trace()[12345], 1);
}

}  // namespace
}  // namespace bigmap
