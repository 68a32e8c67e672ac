// Mini Figure 6 on wall-clock time: its own test binary, registered
// RUN_SERIAL, so no parallel test can slow one side of a ratio. The flat
// scheme's margin over its bound narrows as the flat arm gets faster.
#include <gtest/gtest.h>

#include <cstdio>

#include "fuzzer/campaign.h"
#include "target/suite.h"

namespace bigmap {
namespace {

CampaignConfig config_for(MapScheme scheme, usize map_size, u64 execs) {
  CampaignConfig c;
  c.scheme = scheme;
  c.map.map_size = map_size;
  c.max_execs = execs;
  c.seed = 17;
  return c;
}

TEST(EndToEndTest, ThroughputShapeOnZlib) {
  // Mini Figure 6: same exec budget; BigMap's wall time must stay nearly
  // flat from 64kB to 8MB while the flat scheme slows dramatically.
  const BenchmarkInfo* info = find_benchmark("zlib");
  ASSERT_NE(info, nullptr);
  auto target = build_benchmark(*info);
  auto seeds = benchmark_seeds(target, *info);

  auto time_of = [&](MapScheme scheme, usize size) {
    auto r = run_campaign(target.program, seeds,
                          config_for(scheme, size, 3000));
    return r.wall_seconds;
  };

  const double flat_small = time_of(MapScheme::kFlat, 1u << 16);
  const double flat_large = time_of(MapScheme::kFlat, 8u << 20);
  const double two_small = time_of(MapScheme::kTwoLevel, 1u << 16);
  const double two_large = time_of(MapScheme::kTwoLevel, 8u << 20);
  std::printf("flat 8M/64k %.2fx, two-level 8M/64k %.2fx, flat/two-level "
              "at 8M %.2fx\n",
              flat_large / flat_small, two_large / two_small,
              flat_large / two_large);

  EXPECT_GT(flat_large, flat_small * 5) << "flat must degrade with size";
  EXPECT_LT(two_large, two_small * 3) << "two-level must stay flat";
  EXPECT_LT(two_large, flat_large / 4) << "BigMap must win at 8MB";
}

}  // namespace
}  // namespace bigmap
