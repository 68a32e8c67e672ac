// NoveltyOracle tests: the differential property (an oracle's admit()
// verdict must equal the interesting() verdict of an Executor with the
// same geometry fed the same sequence), determinism across replays, and
// the monotone-coverage / stats invariants.
#include "corpus/novelty.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <utility>
#include <vector>

#include "core/two_level_map.h"
#include "fuzzer/executor.h"
#include "target/generator.h"
#include "util/hash.h"

namespace bigmap::corpus {
namespace {

GeneratedTarget small_target(u64 seed) {
  GeneratorParams gp;
  gp.name = "oracle_t";
  gp.seed = seed;
  gp.live_blocks = 120;
  gp.num_bugs = 2;
  gp.bug_min_depth = 1;
  gp.bug_max_depth = 1;
  return generate_target(gp);
}

OracleConfig oracle_config(u64 seed) {
  OracleConfig oc;
  oc.scheme = MapScheme::kTwoLevel;
  oc.metric = MetricKind::kEdge;
  oc.map.map_size = 1u << 14;
  oc.map.huge_pages = false;
  oc.seed = seed;
  return oc;
}

// The candidate stream a federation gateway would classify: seed corpus
// inputs, repeats, and a couple of crashing inputs.
std::vector<std::vector<u8>> candidate_stream(const GeneratedTarget& t,
                                              u64 seed) {
  std::vector<std::vector<u8>> inputs = make_seed_corpus(t, 24, seed);
  for (usize i = 0; i < 6; ++i) inputs.push_back(inputs[i]);  // repeats
  inputs.push_back(t.crashing_input(0));
  inputs.push_back(t.crashing_input(1));
  inputs.push_back(t.crashing_input(0));  // replayed crash: not novel
  return inputs;
}

// Differential: admit() must agree input-by-input with a reference
// Executor built exactly the way the oracle builds its own (same block-id
// seed derivation, geometry, budgets) — the oracle IS the executor's
// novelty verdict, nothing more.
TEST(NoveltyOracleTest, MatchesExecutorVerdictInputByInput) {
  const u64 seed = 17;
  const GeneratedTarget t = small_target(seed);
  const OracleConfig oc = oracle_config(seed);
  auto oracle = make_novelty_oracle(t.program, oc);
  ASSERT_NE(oracle, nullptr);

  BlockIdTable ids(t.program.blocks.size(), oc.map.map_size,
                   mix64(oc.seed ^ 0xB10C1D5ULL));
  Executor<TwoLevelCoverageMap, EdgeMetric> ref(t.program, oc.map, ids,
                                                oc.step_budget,
                                                oc.work_per_block);
  usize accepted = 0;
  const std::vector<std::vector<u8>> inputs = candidate_stream(t, seed);
  for (usize i = 0; i < inputs.size(); ++i) {
    OpTimeBreakdown timing;
    const auto out = ref.run(inputs[i], timing);
    const bool want = out.new_bits != NewBits::kNone ||
                      out.outcome_new_bits != NewBits::kNone;
    EXPECT_EQ(oracle->admit(inputs[i]), want) << "input " << i;
    if (want) ++accepted;
  }
  EXPECT_EQ(oracle->stats().checked, inputs.size());
  EXPECT_EQ(oracle->stats().accepted, accepted);
  EXPECT_EQ(oracle->stats().rejected, inputs.size() - accepted);
  EXPECT_EQ(oracle->covered(), ref.virgin_queue().count_covered());
}

// Same seed + same admission sequence => same verdicts. Federation drills
// rely on this to keep oracle-filtered exchanges reproducible.
TEST(NoveltyOracleTest, DeterministicAcrossReplays) {
  const GeneratedTarget t = small_target(5);
  const std::vector<std::vector<u8>> inputs = candidate_stream(t, 5);
  std::vector<bool> first;
  for (int round = 0; round < 2; ++round) {
    auto oracle = make_novelty_oracle(t.program, oracle_config(5));
    std::vector<bool> verdicts;
    for (const auto& in : inputs) verdicts.push_back(oracle->admit(in));
    if (round == 0) {
      first = verdicts;
    } else {
      EXPECT_EQ(verdicts, first);
    }
  }
}

// Re-admitting an already-admitted input is never novel: the model's
// virgin maps advanced when it was first accepted.
TEST(NoveltyOracleTest, ReadmissionIsRejected) {
  const GeneratedTarget t = small_target(9);
  auto oracle = make_novelty_oracle(t.program, oracle_config(9));
  const std::vector<std::vector<u8>> inputs = make_seed_corpus(t, 8, 9);
  for (const auto& in : inputs) oracle->admit(in);
  const usize covered = oracle->covered();
  for (const auto& in : inputs) {
    EXPECT_FALSE(oracle->admit(in));
  }
  EXPECT_EQ(oracle->covered(), covered);  // model did not move
}

// A different oracle seed means a different block-id table: the model only
// stands in for a fleet when seeded identically, so verdict streams from
// different seeds may legitimately diverge — but each remains internally
// deterministic and coverage stays monotone.
TEST(NoveltyOracleTest, CoverageMonotone) {
  const GeneratedTarget t = small_target(13);
  auto oracle = make_novelty_oracle(t.program, oracle_config(13));
  usize last = 0;
  for (const auto& in : candidate_stream(t, 13)) {
    oracle->admit(in);
    const usize now = oracle->covered();
    EXPECT_GE(now, last);
    last = now;
  }
  EXPECT_GT(last, 0u);
}

// An out-of-range metric is refused like run_campaign refuses it, never
// silently modelled as an edge metric whose keys match no worker.
TEST(NoveltyOracleTest, UnknownMetricKindThrows) {
  const GeneratedTarget t = small_target(17);
  OracleConfig oc = oracle_config(17);
  oc.metric = static_cast<MetricKind>(200);
  EXPECT_THROW((void)make_novelty_oracle(t.program, oc),
               std::invalid_argument);
}

// ------------------------------------------------------- delta sync --

TEST(OracleDeltaTest, CodecRoundTripsAndRejectsMalformed) {
  OracleDelta d;
  d.epoch = 7;
  d.seq = 3;
  d.map_kind = OracleDelta::kCrash;
  d.cells = {{2, 0xFE}, {9, 0x7F}, {1000, 0x00}};

  OracleDelta back;
  ASSERT_TRUE(decode_oracle_delta(encode_oracle_delta(d), &back));
  EXPECT_EQ(back.epoch, 7u);
  EXPECT_EQ(back.seq, 3u);
  EXPECT_EQ(back.map_kind, OracleDelta::kCrash);
  ASSERT_EQ(back.cells.size(), 3u);
  EXPECT_EQ(back.cells[1].pos, 9u);
  EXPECT_EQ(back.cells[1].value, 0x7F);

  // Truncation and trailing garbage are structural failures.
  std::vector<u8> bytes = encode_oracle_delta(d);
  OracleDelta junk;
  EXPECT_FALSE(decode_oracle_delta(
      std::span<const u8>(bytes.data(), bytes.size() - 1), &junk));
  bytes.push_back(0);
  EXPECT_FALSE(decode_oracle_delta(bytes, &junk));

  // Positions must be strictly ascending (unique).
  OracleDelta dup = d;
  dup.cells = {{5, 1}, {5, 2}};
  EXPECT_FALSE(decode_oracle_delta(encode_oracle_delta(dup), &junk));
  OracleDelta desc = d;
  desc.cells = {{9, 1}, {2, 2}};
  EXPECT_FALSE(decode_oracle_delta(encode_oracle_delta(desc), &junk));
}

// The zero-execution rebuild differential: an oracle rebuilt purely from
// another's final export_full() must issue the same admit() verdicts as
// one built from scratch by executing everything.
TEST(OracleDeltaTest, DeltaRebuiltOracleMatchesFromScratch) {
  const u64 seed = 21;
  const GeneratedTarget t = small_target(seed);
  const OracleConfig oc = oracle_config(seed);

  // Source oracle A executes the first half of the stream, then exports
  // its whole model, as a gateway does for a (re)joining peer.
  auto a = make_novelty_oracle(t.program, oc);
  auto b = make_novelty_oracle(t.program, oc);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  const std::vector<std::vector<u8>> stream = candidate_stream(t, seed);
  const usize half = stream.size() / 2;
  for (usize i = 0; i < half; ++i) (void)a->admit(stream[i]);
  const std::vector<OracleDelta> shipped = a->export_full();

  // Rebuild B by applying the shipped records — never executing.
  for (const OracleDelta& d : shipped) {
    ASSERT_TRUE(b->apply_delta(d));
  }
  EXPECT_EQ(b->stats().checked, 0u);  // the zero-execution guarantee
  EXPECT_GT(b->stats().deltas_applied, 0u);
  EXPECT_EQ(b->covered(), a->covered());

  // From here both must agree verdict-for-verdict on fresh candidates
  // (each admit advances both models identically, so they stay locked).
  for (usize i = half; i < stream.size(); ++i) {
    EXPECT_EQ(b->admit(stream[i]), a->admit(stream[i])) << "input " << i;
  }
}

// apply_delta forces condensed slots for positions nothing has executed,
// far past the two-level model's filled virgin prefix. Its state must end
// up exactly where a flat model's (whose virgin maps are filled whole up
// front) does: positions correspond one to one, so export_full() and every
// later verdict agree.
TEST(OracleDeltaTest, ApplyPastFilledPrefixMatchesEagerModel) {
  const u64 seed = 5;
  const GeneratedTarget t = small_target(seed);
  OracleConfig two = oracle_config(seed);
  two.map.map_size = 1u << 16;
  OracleConfig flat = two;
  flat.scheme = MapScheme::kFlat;
  auto lazy = make_novelty_oracle(t.program, two);
  auto eager = make_novelty_oracle(t.program, flat);
  const std::vector<std::vector<u8>> stream = candidate_stream(t, seed);
  const usize half = stream.size() / 2;
  for (usize i = 0; i < half; ++i) {
    EXPECT_EQ(lazy->admit(stream[i]), eager->admit(stream[i])) << i;
  }

  for (u8 kind = 0; kind <= OracleDelta::kHang; ++kind) {
    OracleDelta d;
    d.map_kind = kind;
    for (u32 i = 0; i < 9000; ++i) {
      const u8 value = i % 5 == 0 ? 0 : static_cast<u8>(~(1u << (i % 8)));
      d.cells.push_back({7 * i + kind, value});
    }
    ASSERT_TRUE(lazy->apply_delta(d));
    ASSERT_TRUE(eager->apply_delta(d));
  }
  EXPECT_EQ(lazy->covered(), eager->covered());

  const std::vector<OracleDelta> a = lazy->export_full();
  const std::vector<OracleDelta> b = eager->export_full();
  ASSERT_EQ(a.size(), b.size());
  for (usize k = 0; k < a.size(); ++k) {
    EXPECT_EQ(a[k].map_kind, b[k].map_kind);
    ASSERT_EQ(a[k].cells.size(), b[k].cells.size()) << "kind " << k;
    for (usize i = 0; i < a[k].cells.size(); ++i) {
      ASSERT_EQ(a[k].cells[i].pos, b[k].cells[i].pos) << k << "/" << i;
      ASSERT_EQ(a[k].cells[i].value, b[k].cells[i].value) << k << "/" << i;
    }
  }
  for (usize i = half; i < stream.size(); ++i) {
    EXPECT_EQ(lazy->admit(stream[i]), eager->admit(stream[i])) << i;
  }
}

// export_full() walks the slot->key log instead of probing every map
// position. On a saturated two-level model (keys past the condensed
// bitmap alias its final slot) it must emit exactly the cells the
// whole-map scan of a reference executor does, in position order.
TEST(OracleDeltaTest, ExportFullMatchesWholeMapScanWhenSaturated) {
  const u64 seed = 9;
  const GeneratedTarget t = small_target(seed);
  OracleConfig oc = oracle_config(seed);
  oc.map.condensed_size = 64;
  auto oracle = make_novelty_oracle(t.program, oc);
  BlockIdTable ids(t.program.blocks.size(), oc.map.map_size,
                   mix64(oc.seed ^ 0xB10C1D5ULL));
  Executor<TwoLevelCoverageMap, EdgeMetric> ref(t.program, oc.map, ids,
                                                oc.step_budget,
                                                oc.work_per_block);
  for (const auto& in : candidate_stream(t, seed)) {
    OpTimeBreakdown timing;
    (void)ref.run(in, timing);
    (void)oracle->admit(in);
  }
  const TwoLevelCoverageMap& m = ref.map();
  ASSERT_GT(m.saturated_updates(), 0u);

  const std::vector<OracleDelta> got = oracle->export_full();
  ASSERT_EQ(got.size(), 3u);
  const VirginMap* virgins[] = {&ref.virgin_queue(), &ref.virgin_crash(),
                                &ref.virgin_hang()};
  for (u8 kind = 0; kind <= OracleDelta::kHang; ++kind) {
    std::vector<std::pair<u32, u8>> want;
    for (u32 pos = 0; pos < oc.map.map_size; ++pos) {
      const u32 slot = m.slot_of(pos);
      const u8 cur = slot == TwoLevelCoverageMap::kUnassigned
                         ? 0xFF
                         : virgins[kind]->data()[slot];
      if (cur != 0xFF) want.emplace_back(pos, cur);
    }
    std::vector<std::pair<u32, u8>> cells;
    for (const VirginDeltaCell& c : got[kind].cells) {
      cells.emplace_back(c.pos, c.value);
    }
    EXPECT_EQ(got[kind].map_kind, kind);
    EXPECT_EQ(cells, want) << "kind " << int{kind};
  }
  EXPECT_FALSE(got[OracleDelta::kQueue].cells.empty());
}

TEST(OracleDeltaTest, ApplyIsIdempotentAndAtomicOnMalformed) {
  const GeneratedTarget t = small_target(3);
  auto a = make_novelty_oracle(t.program, oracle_config(3));
  auto b = make_novelty_oracle(t.program, oracle_config(3));
  for (const auto& in : make_seed_corpus(t, 8, 3)) (void)a->admit(in);
  const std::vector<OracleDelta> full = a->export_full();

  for (const OracleDelta& d : full) ASSERT_TRUE(b->apply_delta(d));
  const usize covered = b->covered();
  // AND-application: replaying the same records moves nothing.
  for (const OracleDelta& d : full) ASSERT_TRUE(b->apply_delta(d));
  EXPECT_EQ(b->covered(), covered);

  // A cell outside this geometry is refused with nothing applied.
  OracleDelta bad;
  bad.map_kind = OracleDelta::kQueue;
  bad.cells = {{0x7FFFFFFFu, 0}};
  EXPECT_FALSE(b->apply_delta(bad));
  EXPECT_EQ(b->covered(), covered);
  OracleDelta unknown;
  unknown.map_kind = 9;
  EXPECT_FALSE(b->apply_delta(unknown));
}

}  // namespace
}  // namespace bigmap::corpus
