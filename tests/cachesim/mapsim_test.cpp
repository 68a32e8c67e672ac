// Tests for the map-operation cache-behaviour simulation (Table I).
#include "cachesim/mapsim.h"

#include <gtest/gtest.h>

namespace bigmap {
namespace {

CacheSimParams params(MapScheme scheme, usize map_size) {
  CacheSimParams p;
  p.scheme = scheme;
  p.map_size = map_size;
  p.used_keys = 2000;
  p.edges_per_exec = 2000;
  p.iterations = 4;
  p.seed = 7;
  return p;
}

TEST(MapSimTest, ReportsAllOps) {
  auto rep = simulate_map_cache_behavior(params(MapScheme::kFlat, 1u << 16));
  EXPECT_NE(rep.find("update"), nullptr);
  EXPECT_NE(rep.find("reset"), nullptr);
  EXPECT_NE(rep.find("classify"), nullptr);
  EXPECT_NE(rep.find("compare"), nullptr);
  EXPECT_NE(rep.find("hash"), nullptr);
  EXPECT_NE(rep.find("app"), nullptr);
  EXPECT_EQ(rep.find("nonexistent"), nullptr);
}

TEST(MapSimTest, UsedKeysClampedToMapSize) {
  CacheSimParams p = params(MapScheme::kTwoLevel, 1u << 10);
  p.used_keys = 1u << 16;
  auto rep = simulate_map_cache_behavior(p);
  EXPECT_EQ(rep.used_keys, 1u << 10);
}

TEST(MapSimTest, ScanAccessCountsScaleWithScheme) {
  // Flat scans the full 8 MB map; BigMap scans only the used region.
  auto flat =
      simulate_map_cache_behavior(params(MapScheme::kFlat, 8u << 20));
  auto two =
      simulate_map_cache_behavior(params(MapScheme::kTwoLevel, 8u << 20));
  EXPECT_GT(flat.find("classify")->accesses,
            two.find("classify")->accesses * 100);
  EXPECT_GT(flat.find("compare")->accesses,
            two.find("compare")->accesses * 100);
}

TEST(MapSimTest, BigMapScansHitL1AfterWarmup) {
  // Table I(b): BigMap's scans over the condensed region show high
  // locality — most accesses hit cache, few go to memory.
  auto rep =
      simulate_map_cache_behavior(params(MapScheme::kTwoLevel, 8u << 20));
  const auto* classify = rep.find("classify");
  EXPECT_LT(classify->memory_rate(), 0.05);
}

TEST(MapSimTest, FlatBigMapScansThrashOnLargeMaps) {
  // Table I(a): flat whole-map scans on an 8MB map exceed the LLC; a large
  // share of accesses reach memory.
  auto rep = simulate_map_cache_behavior(params(MapScheme::kFlat, 32u << 20));
  const auto* compare = rep.find("compare");
  // Every 64B line is touched once per scan per map; lines don't survive.
  EXPECT_GT(compare->memory_rate() +
                static_cast<double>(compare->l3_hits) / compare->accesses,
            0.05);
}

TEST(MapSimTest, AppMissRateWorseUnderFlatLargeMap) {
  // The pollution claim: the application's own working set suffers more
  // under the flat scheme's whole-map scans.
  auto flat =
      simulate_map_cache_behavior(params(MapScheme::kFlat, 8u << 20));
  auto two =
      simulate_map_cache_behavior(params(MapScheme::kTwoLevel, 8u << 20));
  EXPECT_GT(flat.app_miss_rate, two.app_miss_rate);
}

TEST(MapSimTest, SmallMapBothSchemesBehaveSimilarly) {
  // At 64 kB both schemes fit comfortably in L2: app miss rates converge
  // (the paper's "identical throughput at 64 kB" observation).
  auto flat =
      simulate_map_cache_behavior(params(MapScheme::kFlat, 1u << 16));
  auto two =
      simulate_map_cache_behavior(params(MapScheme::kTwoLevel, 1u << 16));
  EXPECT_NEAR(flat.app_miss_rate, two.app_miss_rate, 0.05);
}

TEST(MapSimTest, OccupancyBoundsSane) {
  auto rep = simulate_map_cache_behavior(params(MapScheme::kFlat, 2u << 20));
  EXPECT_GE(rep.l1_map_occupancy, 0.0);
  EXPECT_LE(rep.l1_map_occupancy, 1.0);
  EXPECT_GE(rep.l3_map_occupancy, 0.0);
  EXPECT_LE(rep.l3_map_occupancy, 1.0);
}

TEST(MapSimTest, FlatLargeMapOccupiesLLC) {
  // After whole-map scans, map data dominates the LLC under the flat
  // scheme (cache pollution, Table I(a) "High").
  auto flat =
      simulate_map_cache_behavior(params(MapScheme::kFlat, 8u << 20));
  auto two =
      simulate_map_cache_behavior(params(MapScheme::kTwoLevel, 8u << 20));
  EXPECT_GT(flat.l3_map_occupancy, 0.5);
  EXPECT_LT(two.l3_map_occupancy, flat.l3_map_occupancy);
}

TEST(MapSimTest, DeterministicInSeed) {
  auto a = simulate_map_cache_behavior(params(MapScheme::kFlat, 1u << 20));
  auto b = simulate_map_cache_behavior(params(MapScheme::kFlat, 1u << 20));
  EXPECT_EQ(a.find("update")->l1_hits, b.find("update")->l1_hits);
  EXPECT_EQ(a.app_miss_rate, b.app_miss_rate);
}

}  // namespace
}  // namespace bigmap
