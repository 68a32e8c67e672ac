// The same map-level cases on both map schemes: each VariantTest body runs
// on a FlatCoverageMap and on a TwoLevelCoverageMap built from the same
// MapOptions.
#include <gtest/gtest.h>

#include "core/flat_map.h"
#include "core/map_options.h"
#include "core/two_level_map.h"
#include "core/virgin.h"

namespace bigmap {
namespace {

MapOptions opts(usize size = 1u << 12) {
  MapOptions o;
  o.map_size = size;
  o.huge_pages = false;
  return o;
}

// Runs fn on a fresh map of the given scheme.
template <class Fn>
void with_map(MapScheme scheme, const MapOptions& o, Fn&& fn) {
  if (scheme == MapScheme::kFlat) {
    FlatCoverageMap m(o);
    fn(m);
  } else {
    TwoLevelCoverageMap m(o);
    fn(m);
  }
}

// The virgin map a trace compares against: the whole map for the flat
// scheme, the condensed bitmap for BigMap.
usize virgin_size(const FlatCoverageMap& m) { return m.map_size(); }
usize virgin_size(const TwoLevelCoverageMap& m) { return m.condensed_size(); }

class VariantTest : public ::testing::TestWithParam<MapScheme> {};

TEST_P(VariantTest, BasicLifecycle) {
  with_map(GetParam(), opts(), [](auto& m) {
    EXPECT_EQ(m.map_size(), 1u << 12);
    EXPECT_EQ(m.count_nonzero(), 0u);

    m.update(100);
    m.update(100);
    m.update(200);
    EXPECT_EQ(m.count_nonzero(), 2u);

    m.reset();
    EXPECT_EQ(m.count_nonzero(), 0u);
  });
}

TEST_P(VariantTest, ClassifyAndHashDispatch) {
  with_map(GetParam(), opts(), [](auto& m) {
    for (int i = 0; i < 5; ++i) m.update(50);
    const u32 raw_hash = m.hash();
    m.classify();
    EXPECT_NE(m.hash(), raw_hash);  // 5 -> bucket 8 changes the bytes
    EXPECT_EQ(m.count_nonzero(), 1u);
  });
}

TEST_P(VariantTest, VirginCompareFlow) {
  with_map(GetParam(), opts(), [](auto& m) {
    VirginMap virgin(virgin_size(m));

    m.update(7);
    EXPECT_EQ(m.classify_and_compare(virgin), NewBits::kNewTuple);
    m.reset();
    m.update(7);
    EXPECT_EQ(m.classify_and_compare(virgin), NewBits::kNone);
    m.reset();
    for (int i = 0; i < 3; ++i) m.update(7);  // new bucket
    EXPECT_EQ(m.classify_and_compare(virgin), NewBits::kNewCounts);
  });
}

TEST_P(VariantTest, SeparateCompareUpdate) {
  with_map(GetParam(), opts(), [](auto& m) {
    VirginMap virgin(virgin_size(m));
    m.update(9);
    m.classify();
    EXPECT_EQ(m.compare_update(virgin), NewBits::kNewTuple);
  });
}

INSTANTIATE_TEST_SUITE_P(Schemes, VariantTest,
                         ::testing::Values(MapScheme::kFlat,
                                           MapScheme::kTwoLevel));

TEST(VariantTest, ScanCostReflectsScheme) {
  FlatCoverageMap flat(opts(1u << 16));
  TwoLevelCoverageMap two(opts(1u << 16));
  for (u32 k : {1u, 2u, 3u}) {
    flat.update(k);
    two.update(k);
  }
  EXPECT_EQ(flat.scan_cost_bytes(), 1u << 16);
  EXPECT_EQ(two.scan_cost_bytes(), 3u);
}

TEST(VariantTest, CondensedSizeOption) {
  MapOptions o = opts(1u << 12);
  o.condensed_size = 256;
  TwoLevelCoverageMap two(o);
  EXPECT_EQ(two.condensed_size(), 256u);
  EXPECT_EQ(two.map_size(), 1u << 12);
}

TEST(VariantTest, MapScemeNames) {
  EXPECT_STREQ(map_scheme_name(MapScheme::kFlat), "AFL");
  EXPECT_STREQ(map_scheme_name(MapScheme::kTwoLevel), "BigMap");
}

}  // namespace
}  // namespace bigmap
