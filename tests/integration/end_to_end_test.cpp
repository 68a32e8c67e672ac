// Integration tests spanning the whole stack: suite profiles -> generator
// -> (laf-intel) -> metrics -> executor -> campaign -> analysis. These are
// scaled-down versions of the paper's experiments asserting the *shape*
// results the benches print. The wall-clock Figure 6 shape has its own
// serial binary (throughput_shape_test.cpp).
#include <gtest/gtest.h>

#include "analysis/collision.h"
#include "fuzzer/campaign.h"
#include "target/lafintel.h"
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

TEST(EndToEndTest, Table2CollisionColumnFromEquation1) {
  // Table II's collision column is Equation 1 applied to the discovered
  // edges; verify on the emulated zlib profile after a short campaign.
  const BenchmarkInfo* info = find_benchmark("zlib");
  auto target = build_benchmark(*info);
  auto seeds = benchmark_seeds(target, *info);

  CampaignConfig c = config_for(MapScheme::kTwoLevel, 2u << 20, 20000);
  c.keep_corpus = true;
  auto r = run_campaign(target.program, seeds, c);
  const u64 edges = measure_corpus_edges(target.program, r.corpus);

  // zlib-scale target: hundreds to ~1.5k edges, sub-2% collision at 64kB.
  EXPECT_GT(edges, 200u);
  EXPECT_LT(edges, 3000u);
  EXPECT_LT(collision_rate(65536.0, static_cast<double>(edges)), 0.04);
}

TEST(EndToEndTest, CompositionIncreasesMapPressure) {
  // §V-C mechanics: laf-intel + N-gram(3) must produce strictly more
  // distinct coverage keys than plain edge coverage on the same target.
  const BenchmarkInfo* info = find_benchmark("zlib");
  auto target = build_benchmark(*info);
  Program laf = apply_laf_intel(target.program);
  auto seeds = benchmark_seeds(target, *info);

  auto plain = run_campaign(target.program, seeds,
                            config_for(MapScheme::kTwoLevel, 2u << 20,
                                       20000));
  CampaignConfig comp_cfg =
      config_for(MapScheme::kTwoLevel, 2u << 20, 20000);
  comp_cfg.metric = MetricKind::kNGram;
  auto composed = run_campaign(laf, seeds, comp_cfg);

  EXPECT_GT(composed.used_key, plain.used_key);
}

TEST(EndToEndTest, CrashTriageConsistentAcrossSchemes) {
  // Ground-truth crash counts must be scheme-independent given the same
  // exec budget (the map scheme changes speed, not what gets explored,
  // modulo feedback collisions — at 2MB collisions are negligible).
  const BenchmarkInfo* info = find_benchmark("bloaty");
  ASSERT_NE(info, nullptr);
  auto target = build_benchmark(*info);
  auto seeds = benchmark_seeds(target, *info);
  if (seeds.size() > 64) seeds.resize(64);

  CampaignConfig flat_cfg = config_for(MapScheme::kFlat, 2u << 20, 30000);
  CampaignConfig two_cfg = config_for(MapScheme::kTwoLevel, 2u << 20, 30000);
  // Step-count scheduling removes wall-clock noise: both schemes then see
  // identical mutation streams and must make identical decisions (the
  // core equivalence property, end to end).
  flat_cfg.deterministic_timing = true;
  two_cfg.deterministic_timing = true;

  auto flat = run_campaign(target.program, seeds, flat_cfg);
  auto two = run_campaign(target.program, seeds, two_cfg);
  EXPECT_EQ(flat.crashes_ground_truth, two.crashes_ground_truth);
  EXPECT_EQ(flat.interesting, two.interesting);
  EXPECT_EQ(flat.corpus_size, two.corpus_size);
}

TEST(EndToEndTest, LafIntelUnlocksDeadRegionEdges) {
  // The 8-byte dead-region gates are unreachable for plain fuzzing but
  // become byte-at-a-time solvable after laf-intel: with enough budget the
  // transformed program's coverage keys should exceed the original's.
  GeneratorParams p;
  p.seed = 99;
  p.live_blocks = 400;
  p.dead_blocks = 400;
  p.frac_wide_cmp = 0.8;
  p.frac_hard_eq = 0.5;
  auto target = generate_target(p);
  Program laf = apply_laf_intel(target.program);
  auto seeds = make_seed_corpus(target, 4, 1);

  auto plain = run_campaign(target.program, seeds,
                            config_for(MapScheme::kTwoLevel, 1u << 20,
                                       60000));
  auto transformed = run_campaign(laf, seeds,
                                  config_for(MapScheme::kTwoLevel, 1u << 20,
                                             60000));
  EXPECT_GT(transformed.used_key, plain.used_key);
}

TEST(EndToEndTest, DeterministicTimingCampaignsFullyReproducible) {
  // Cross-module determinism: suite profile -> seeds -> campaign must be
  // bit-for-bit reproducible with deterministic timing.
  const BenchmarkInfo* info = find_benchmark("proj4");
  auto target = build_benchmark(*info);
  auto seeds = benchmark_seeds(target, *info);

  CampaignConfig c = config_for(MapScheme::kTwoLevel, 1u << 18, 8000);
  c.deterministic_timing = true;
  auto a = run_campaign(target.program, seeds, c);
  auto b = run_campaign(target.program, seeds, c);
  EXPECT_EQ(a.covered_positions, b.covered_positions);
  EXPECT_EQ(a.used_key, b.used_key);
  EXPECT_EQ(a.interesting, b.interesting);
  EXPECT_EQ(a.corpus_size, b.corpus_size);
}

}  // namespace
}  // namespace bigmap
