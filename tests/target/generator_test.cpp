// Synthetic-benchmark generator: determinism, structural validity, planted
// bug reachability, dead regions, dictionaries, and seed corpora.
#include "target/generator.h"

#include <vector>

#include <gtest/gtest.h>

#include "target/interpreter.h"

namespace bigmap {
namespace {

GeneratorParams small_params(u64 seed = 1) {
  GeneratorParams p;
  p.name = "gen-test";
  p.seed = seed;
  p.live_blocks = 300;
  p.num_bugs = 5;
  p.bug_min_depth = 1;
  p.bug_max_depth = 3;
  return p;
}

bool programs_identical(const Program& a, const Program& b) {
  if (a.blocks.size() != b.blocks.size()) return false;
  for (usize i = 0; i < a.blocks.size(); ++i) {
    const Block& x = a.blocks[i];
    const Block& y = b.blocks[i];
    if (x.kind != y.kind || x.pred != y.pred || x.cmp_width != y.cmp_width ||
        x.input_offset != y.input_offset || x.expected != y.expected ||
        x.loop_max != y.loop_max || x.bug_id != y.bug_id ||
        x.targets != y.targets || x.cases != y.cases || x.str != y.str) {
      return false;
    }
  }
  return a.num_bugs == b.num_bugs &&
         a.nominal_input_size == b.nominal_input_size;
}

TEST(GeneratorTest, SameParamsProduceIdenticalPrograms) {
  const GeneratedTarget a = generate_target(small_params());
  const GeneratedTarget b = generate_target(small_params());
  EXPECT_TRUE(programs_identical(a.program, b.program));
  EXPECT_EQ(a.tokens, b.tokens);
  EXPECT_EQ(a.bug_recipes.size(), b.bug_recipes.size());
}

TEST(GeneratorTest, DifferentSeedsProduceDifferentPrograms) {
  const GeneratedTarget a = generate_target(small_params(1));
  const GeneratedTarget b = generate_target(small_params(2));
  EXPECT_FALSE(programs_identical(a.program, b.program));
}

TEST(GeneratorTest, GeneratedProgramsValidate) {
  for (u64 seed = 1; seed <= 8; ++seed) {
    GeneratedTarget t = generate_target(small_params(seed));
    EXPECT_NO_THROW(t.program.validate()) << "seed " << seed;
    EXPECT_GE(t.program.blocks.size(), 300u);
  }
}

TEST(GeneratorTest, PlantsExactlyTheRequestedBugs) {
  const GeneratedTarget t = generate_target(small_params());
  EXPECT_EQ(t.program.num_bugs, 5u);
  usize bug_blocks = 0;
  for (const Block& b : t.program.blocks) {
    if (b.kind == BlockKind::kBug) ++bug_blocks;
  }
  EXPECT_EQ(bug_blocks, 5u);
  EXPECT_EQ(t.bug_recipes.size(), 5u);
}

TEST(GeneratorTest, CrashingInputsReachTheirBugs) {
  const GeneratedTarget t = generate_target(small_params());
  Interpreter interp(1u << 16);
  for (u32 bug = 0; bug < t.program.num_bugs; ++bug) {
    const std::vector<u8> input = t.crashing_input(bug);
    const ExecResult res = interp.run(t.program, input, [](u32) {});
    EXPECT_TRUE(res.crashed()) << "bug " << bug;
    EXPECT_EQ(res.bug_id, bug);
  }
}

TEST(GeneratorTest, ZeroInputRunsCleanly) {
  const GeneratedTarget t = generate_target(small_params());
  Interpreter interp(1u << 16);
  const std::vector<u8> zero(t.program.nominal_input_size, 0);
  const ExecResult res = interp.run(t.program, zero, [](u32) {});
  EXPECT_EQ(res.outcome, ExecResult::Outcome::kOk);
}

TEST(GeneratorTest, DeadBlocksAddStaticEdges) {
  GeneratorParams live_only = small_params();
  live_only.num_bugs = 0;
  GeneratorParams with_dead = live_only;
  with_dead.dead_blocks = 200;
  const usize live_edges =
      generate_target(live_only).program.static_edge_count();
  const usize dead_edges =
      generate_target(with_dead).program.static_edge_count();
  EXPECT_GT(dead_edges, live_edges);
}

TEST(GeneratorTest, DictionaryHoldsMultiByteTokens) {
  GeneratorParams p = small_params();
  p.frac_wide_cmp = 0.5;
  p.frac_hard_eq = 0.8;
  p.frac_strcmp = 0.2;
  const GeneratedTarget t = generate_target(p);
  ASSERT_FALSE(t.dictionary().empty());
  for (const auto& token : t.dictionary()) {
    EXPECT_GE(token.size(), 2u);
    EXPECT_LE(token.size(), 8u);
  }
}

TEST(GeneratorTest, HintsStayWithinTheInputBuffer) {
  const GeneratedTarget t = generate_target(small_params());
  EXPECT_FALSE(t.hints.empty());
  for (const auto& hint : t.hints) {
    EXPECT_FALSE(hint.bytes.empty());
    EXPECT_LE(hint.offset + hint.bytes.size(), t.program.nominal_input_size);
  }
}

TEST(GeneratorTest, SeedCorpusIsDeterministicAndSized) {
  const GeneratedTarget t = generate_target(small_params());
  const auto a = make_seed_corpus(t, 10, 42);
  const auto b = make_seed_corpus(t, 10, 42);
  const auto c = make_seed_corpus(t, 10, 43);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  ASSERT_EQ(a.size(), 10u);
  for (const auto& seed : a) {
    EXPECT_EQ(seed.size(), t.program.nominal_input_size);
  }
}

TEST(GeneratorTest, SeedsExecuteWithinTheDefaultBudget) {
  const GeneratedTarget t = generate_target(small_params());
  Interpreter interp(1u << 16);
  for (const auto& seed : make_seed_corpus(t, 16, 7)) {
    const ExecResult res = interp.run(t.program, seed, [](u32) {});
    EXPECT_FALSE(res.hung());
    EXPECT_LT(res.steps, interp.step_budget() / 4);
  }
}

TEST(GeneratorTest, LiveBlockBudgetScalesTheProgram) {
  GeneratorParams small = small_params();
  small.num_bugs = 0;
  GeneratorParams big = small;
  big.live_blocks = 3000;
  const usize small_blocks = generate_target(small).program.blocks.size();
  const usize big_blocks = generate_target(big).program.blocks.size();
  EXPECT_GT(big_blocks, small_blocks * 5);
}

}  // namespace
}  // namespace bigmap
