// Tests for input trimming and coverage-series sampling.
#include <gtest/gtest.h>

#include <utility>

#include "core/flat_map.h"
#include "core/two_level_map.h"
#include "fuzzer/campaign.h"
#include "fuzzer/executor.h"
#include "fuzzer/queue.h"
#include "target/generator.h"
#include "util/hash.h"

namespace bigmap {
namespace {

// Target whose path depends only on input[0]: trailing bytes are
// redundant, so trimming should strip most of them.
Program prefix_only_program() {
  Program p;
  p.blocks.resize(3);
  p.blocks[0].kind = BlockKind::kBranch;
  p.blocks[0].pred = CmpPred::kLt;
  p.blocks[0].expected = 0x80;
  p.blocks[0].input_offset = 0;
  p.blocks[0].targets = {1, 2};
  p.blocks[1].kind = BlockKind::kExit;
  p.blocks[2].kind = BlockKind::kExit;
  p.num_bugs = 0;
  p.validate();
  return p;
}

// Calls f.template operator()<Map>() once per map scheme, each under a
// trace naming the scheme.
template <class F>
void for_each_scheme(F&& f) {
  {
    SCOPED_TRACE("flat");
    f.template operator()<FlatCoverageMap>();
  }
  {
    SCOPED_TRACE("two-level");
    f.template operator()<TwoLevelCoverageMap>();
  }
}

MapOptions small_map() {
  MapOptions o;
  o.map_size = 1u << 12;
  o.huge_pages = false;
  return o;
}

TEST(RunForHashTest, StablePathStableHash) {
  for_each_scheme([]<class Map>() {
    Program p = prefix_only_program();
    BlockIdTable ids(3, 1u << 12, 5);
    Executor<Map, EdgeMetric> ex(p, small_map(), ids, 1u << 12);
    OpTimeBreakdown t;

    const auto a = ex.run_for_hash(Input{0x10, 1, 2, 3}, t);
    const auto b = ex.run_for_hash(Input{0x10, 9, 9}, t);  // same path
    const auto c = ex.run_for_hash(Input{0x90}, t);        // other path
    EXPECT_EQ(a.hash, b.hash);
    EXPECT_NE(a.hash, c.hash);
    EXPECT_EQ(a.exec.outcome, ExecResult::Outcome::kOk);
  });
}

TEST(RunForHashTest, MatchesInterestingRunHash) {
  // The hash produced by run_for_hash must equal the hash the normal
  // pipeline stored for the same input (trim compares against it).
  for_each_scheme([]<class Map>() {
    Program p = prefix_only_program();
    BlockIdTable ids(3, 1u << 12, 5);
    Executor<Map, EdgeMetric> ex(p, small_map(), ids, 1u << 12);
    OpTimeBreakdown t;

    auto full = ex.run(Input{0x10}, t);
    ASSERT_TRUE(full.interesting());
    auto silent = ex.run_for_hash(Input{0x10}, t);
    EXPECT_EQ(silent.hash, full.hash);
  });
}

TEST(RunForHashTest, FlatPassLeavesTheMapZero) {
  // The flat trim pass classifies, hashes and clears in one pass, so the
  // next run skips its reset; a mutable map() access brings it back.
  Program p = prefix_only_program();
  BlockIdTable ids(3, 1u << 12, 5);
  Executor<FlatCoverageMap, EdgeMetric> ex(p, small_map(), ids, 1u << 12);
  OpTimeBreakdown t;
  const auto& map = std::as_const(ex).map();

  const auto full = ex.run(Input{0x10}, t);
  ASSERT_GT(map.count_nonzero(), 0u);
  const auto silent = ex.run_for_hash(Input{0x10}, t);
  EXPECT_EQ(silent.hash, full.hash);
  EXPECT_EQ(map.count_nonzero(), 0u);
  EXPECT_EQ(map.op_counts().resets, 2u);
  EXPECT_EQ(map.op_counts().classifies, 2u);
  EXPECT_EQ(map.op_counts().hashes, 2u);

  ex.run(Input{0x90}, t);  // the map is zero: no reset
  EXPECT_EQ(map.op_counts().resets, 2u);
  ex.run_for_hash(Input{0x90}, t);  // after a run: resets
  EXPECT_EQ(map.op_counts().resets, 3u);
  ex.map();  // may write the trace: the next run resets
  ex.run(Input{0x90}, t);
  EXPECT_EQ(map.op_counts().resets, 4u);
}

TEST(TrimTest, CampaignTrimsRedundantSeeds) {
  Program p = prefix_only_program();
  std::vector<Input> seeds = {Input(512, 0x10)};  // 511 redundant bytes

  CampaignConfig c;
  c.scheme = MapScheme::kTwoLevel;
  c.map.map_size = 1u << 12;
  c.map.huge_pages = false;
  c.max_execs = 2000;
  c.seed = 1;
  c.trim_enabled = true;
  c.keep_corpus = true;
  auto r = run_campaign(p, seeds, c);

  EXPECT_GT(r.trim_execs, 0u);
  EXPECT_GT(r.trimmed_bytes, 300u);
  // The seed entry itself must have shrunk.
  ASSERT_FALSE(r.corpus.empty());
  EXPECT_LT(r.corpus[0].size(), 128u);
}

TEST(TrimTest, DisabledMeansNoTrimExecs) {
  Program p = prefix_only_program();
  std::vector<Input> seeds = {Input(512, 0x10)};
  CampaignConfig c;
  c.scheme = MapScheme::kTwoLevel;
  c.map.map_size = 1u << 12;
  c.map.huge_pages = false;
  c.max_execs = 2000;
  c.trim_enabled = false;
  c.keep_corpus = true;
  auto r = run_campaign(p, seeds, c);
  EXPECT_EQ(r.trim_execs, 0u);
  EXPECT_EQ(r.corpus[0].size(), 512u);
}

TEST(TrimTest, PreservesBehaviorOnRealTarget) {
  // Trimming must never lose coverage: replaying the trimmed corpus gives
  // at least the coverage of the campaign (the hash guard guarantees the
  // per-entry path is intact).
  GeneratorParams gp;
  gp.seed = 31;
  gp.live_blocks = 300;
  auto target = generate_target(gp);
  auto seeds = make_seed_corpus(target, 4, 1);

  CampaignConfig c;
  c.scheme = MapScheme::kTwoLevel;
  c.map.map_size = 1u << 16;
  c.map.huge_pages = false;
  c.max_execs = 15000;
  c.seed = 2;
  c.keep_corpus = true;

  c.trim_enabled = true;
  auto trimmed = run_campaign(target.program, seeds, c);
  const u64 edges_trimmed =
      measure_corpus_edges(target.program, trimmed.corpus);
  EXPECT_GT(edges_trimmed, 0u);
  EXPECT_GT(trimmed.covered_positions, 0u);
}

// A flat 2 MB campaign with trimming, pinned to the figures it gave before
// the trim pass and the reset skip: neither may change a CRC, so the exec
// stream, the finds and the trimmed corpus must stay exactly these, under
// both tracing modes.
TEST(TrimTest, PinnedFlatCampaign) {
  GeneratorParams gp;
  gp.seed = 33;
  gp.live_blocks = 700;
  const auto target = generate_target(gp);
  auto seeds = make_seed_corpus(target, 4, 1);
  for (auto& s : seeds) s.resize(s.size() + 128, 0x41);  // trimmable tail

  for (TracingMode mode : {TracingMode::kAlways, TracingMode::kDual}) {
    SCOPED_TRACE(mode == TracingMode::kAlways ? "always" : "dual");
    CampaignConfig c;
    c.scheme = MapScheme::kFlat;
    c.map.map_size = 2u << 20;
    c.map.huge_pages = false;
    c.tracing = mode;
    c.max_execs = 3000;
    c.seed = 7;
    c.trim_enabled = true;
    c.deterministic_timing = true;
    c.keep_corpus = true;
    const auto r = run_campaign(target.program, seeds, c);

    u64 digest = 0xcbf29ce484222325ULL;
    for (const Input& in : r.corpus) {
      digest = hash_combine(digest, fnv1a64(in));
    }
    EXPECT_EQ(r.execs, 3000u);
    EXPECT_EQ(r.interesting, 96u);
    EXPECT_EQ(r.trim_execs, 436u);
    EXPECT_EQ(r.trimmed_bytes, 643u);
    EXPECT_EQ(r.corpus.size(), 96u);
    EXPECT_EQ(r.covered_positions, 874u);
    EXPECT_EQ(measure_corpus_edges(target.program, r.corpus), 873u);
    EXPECT_EQ(digest, 0x21f5650a8d6a3cf2ULL);
  }
}

TEST(SeriesTest, SamplesCoverageGrowth) {
  GeneratorParams gp;
  gp.seed = 8;
  gp.live_blocks = 300;
  auto target = generate_target(gp);
  auto seeds = make_seed_corpus(target, 4, 1);

  CampaignConfig c;
  c.scheme = MapScheme::kTwoLevel;
  c.map.map_size = 1u << 16;
  c.map.huge_pages = false;
  c.max_execs = 10000;
  telemetry::TelemetrySink sink;
  c.telemetry = &sink;
  c.telemetry_interval = 1000;
  auto r = run_campaign(target.program, seeds, c);
  const std::vector<telemetry::StatsSnapshot> series = sink.series();

  ASSERT_GE(series.size(), 5u);
  // Exec counters strictly increase; coverage is non-decreasing.
  for (usize i = 1; i < series.size(); ++i) {
    EXPECT_GT(series[i].execs, series[i - 1].execs);
    EXPECT_GE(series[i].covered_positions, series[i - 1].covered_positions);
  }
  // Final sample matches the final coverage.
  EXPECT_LE(series.back().covered_positions, r.covered_positions);
}

TEST(SeriesTest, DisabledByDefault) {
  GeneratorParams gp;
  gp.seed = 8;
  gp.live_blocks = 300;
  auto target = generate_target(gp);
  CampaignConfig c;
  c.scheme = MapScheme::kTwoLevel;
  c.map.map_size = 1u << 16;
  c.map.huge_pages = false;
  c.max_execs = 2000;
  // No sink by default, so nothing is sampled.
  EXPECT_EQ(c.telemetry, nullptr);
  // A sink with a zero interval gets no periodic stamp: only finalize's.
  telemetry::TelemetrySink sink;
  c.telemetry = &sink;
  c.telemetry_interval = 0;
  auto r = run_campaign(target.program, make_seed_corpus(target, 2, 1), c);
  ASSERT_EQ(sink.series_size(), 1u);
  EXPECT_EQ(sink.latest().execs, r.execs);
}

}  // namespace
}  // namespace bigmap
