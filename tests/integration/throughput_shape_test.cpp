// Mini Figure 6 on counted work: the bytes each campaign's whole-map
// operations scan (op calls times scan_cost_bytes()), which repeat exactly
// for a seed under deterministic timing. The wall-clock copy of the same
// three claims is fig6's `shape` table, checked by scripts/bench_smoke.sh.
#include <gtest/gtest.h>

#include <cstdio>

#include "core/flat_map.h"
#include "fuzzer/campaign.h"
#include "target/suite.h"
#include "telemetry/sink.h"

namespace bigmap {
namespace {

CampaignConfig config_for(MapScheme scheme, usize map_size, u64 execs) {
  CampaignConfig c;
  c.scheme = scheme;
  c.map.map_size = map_size;
  c.max_execs = execs;
  c.seed = 17;
  c.deterministic_timing = true;
  return c;
}

TEST(EndToEndTest, ThroughputShapeOnZlib) {
  // Same exec budget; BigMap's scan work must stay nearly flat from 64kB
  // to 8MB while the flat scheme's grows with the map.
  const BenchmarkInfo* info = find_benchmark("zlib");
  ASSERT_NE(info, nullptr);
  auto target = build_benchmark(*info);
  auto seeds = benchmark_seeds(target, *info);

  // Bytes scanned by every reset, classify, compare and hash of one
  // campaign. A flat map scans scan_cost_bytes() == map_size per op; a
  // two-level map scans its used prefix, at most the final used_key.
  auto work_of = [&](MapScheme scheme, usize size) {
    telemetry::TelemetrySink sink;
    CampaignConfig c = config_for(scheme, size, 3000);
    c.telemetry = &sink;
    const CampaignResult r = run_campaign(target.program, seeds, c);
    EXPECT_EQ(r.execs, 3000u);
    const telemetry::StatsSnapshot s = sink.latest();
    const u64 ops =
        s.map_resets + s.map_classifies + s.map_compares + s.map_hashes;
    const u64 per_op = scheme == MapScheme::kFlat
                           ? FlatCoverageMap(c.map).scan_cost_bytes()
                           : r.used_key;
    EXPECT_GT(ops, 0u);
    return static_cast<double>(ops) * static_cast<double>(per_op);
  };

  const double flat_small = work_of(MapScheme::kFlat, 1u << 16);
  const double flat_large = work_of(MapScheme::kFlat, 8u << 20);
  const double two_small = work_of(MapScheme::kTwoLevel, 1u << 16);
  const double two_large = work_of(MapScheme::kTwoLevel, 8u << 20);
  std::printf("scanned bytes: flat 8M/64k %.2fx, two-level 8M/64k %.2fx, "
              "flat/two-level at 8M %.2fx\n",
              flat_large / flat_small, two_large / two_small,
              flat_large / two_large);

  EXPECT_EQ(work_of(MapScheme::kFlat, 1u << 16), flat_small)
      << "counted work must repeat for a seed";
  // A flat op scans 128x the bytes at 8MB; op counts may differ between
  // the sizes as coverage does, so the bound is half of that.
  EXPECT_GT(flat_large, flat_small * 64) << "flat must degrade with size";
  EXPECT_LT(two_large, two_small * 3) << "two-level must stay flat";
  EXPECT_LT(two_large, flat_large / 4) << "BigMap must win at 8MB";
}

}  // namespace
}  // namespace bigmap
