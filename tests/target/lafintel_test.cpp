// laf-intel compare splitting: stats, cascade semantics, partial-progress
// feedback, and outcome preservation (same kOk/kCrash/kHang + bug_id for
// the same input before and after the pass).
#include "target/lafintel.h"

#include <vector>

#include <gtest/gtest.h>

#include "target/generator.h"
#include "target/interpreter.h"
#include "target/program.h"

namespace bigmap {
namespace {

Program wide_eq_program(CmpPred pred = CmpPred::kEq) {
  Program p;
  p.blocks.resize(3);
  p.blocks[0].kind = BlockKind::kBranch;
  p.blocks[0].pred = pred;
  p.blocks[0].cmp_width = 4;
  p.blocks[0].expected = 0xDEADBEEF;
  p.blocks[0].targets = {1, 2};
  p.blocks[1].kind = BlockKind::kExit;
  p.blocks[2].kind = BlockKind::kExit;
  p.validate();
  return p;
}

u32 final_block(const Program& p, const std::vector<u8>& input) {
  Interpreter interp(1u << 12);
  u32 last = 0;
  interp.run(p, input, [&](u32 b) { last = b; });
  return last;
}

TEST(LafIntelTest, SplitsWideEqualityIntoByteCascade) {
  LafIntelStats stats;
  Program out = apply_laf_intel(wide_eq_program(), &stats);
  EXPECT_NO_THROW(out.validate());
  EXPECT_EQ(stats.split_compares, 1u);
  EXPECT_EQ(stats.blocks_before, 3u);
  EXPECT_EQ(stats.blocks_after, 6u);  // 4-byte cascade + two exits
  EXPECT_GT(stats.static_edges_after, stats.static_edges_before);
}

TEST(LafIntelTest, CascadePreservesEqualitySemantics) {
  const Program src = wide_eq_program();
  const Program out = apply_laf_intel(src);
  const std::vector<u8> match = {0xEF, 0xBE, 0xAD, 0xDE};
  const std::vector<u8> wrong_tail = {0xEF, 0xBE, 0xAD, 0x00};
  const std::vector<u8> all_wrong = {1, 2, 3, 4};
  // The original's exit blocks 1/2 map to the transformed tail exits.
  EXPECT_EQ(final_block(src, match), 1u);
  EXPECT_EQ(final_block(src, wrong_tail), 2u);
  const u32 eq_exit = final_block(out, match);
  EXPECT_EQ(final_block(out, wrong_tail), final_block(out, all_wrong));
  EXPECT_NE(eq_exit, final_block(out, all_wrong));
}

TEST(LafIntelTest, CascadePreservesInequalitySemantics) {
  const Program src = wide_eq_program(CmpPred::kNe);
  const Program out = apply_laf_intel(src);
  const std::vector<u8> equal = {0xEF, 0xBE, 0xAD, 0xDE};
  const std::vector<u8> differs = {0xEF, 0xBE, 0xAD, 0x00};
  EXPECT_EQ(final_block(src, equal), 2u);
  EXPECT_EQ(final_block(src, differs), 1u);
  EXPECT_NE(final_block(out, equal), final_block(out, differs));
}

TEST(LafIntelTest, PartialMatchMakesProgress) {
  // The whole point of splitting: matching a prefix of the magic value
  // executes more blocks than matching none.
  const Program out = apply_laf_intel(wide_eq_program());
  Interpreter interp(1u << 12);
  u64 none_len = 0;
  u64 prefix_len = 0;
  interp.run(out, std::vector<u8>{0x00, 0x00, 0x00, 0x00},
             [&](u32) { ++none_len; });
  interp.run(out, std::vector<u8>{0xEF, 0xBE, 0x00, 0x00},
             [&](u32) { ++prefix_len; });
  EXPECT_GT(prefix_len, none_len);
}

TEST(LafIntelTest, LowersSwitchesToEqualityChains) {
  Program p;
  p.blocks.resize(4);
  p.blocks[0].kind = BlockKind::kSwitch;
  p.blocks[0].cmp_width = 2;
  p.blocks[0].cases = {0x1111, 0x2222};
  p.blocks[0].targets = {1, 2, 3};
  for (usize i = 1; i < 4; ++i) p.blocks[i].kind = BlockKind::kExit;
  p.validate();

  LafIntelStats stats;
  Program out = apply_laf_intel(p, &stats);
  EXPECT_NO_THROW(out.validate());
  EXPECT_EQ(stats.split_switches, 1u);
  for (const Block& b : out.blocks) {
    EXPECT_NE(b.kind, BlockKind::kSwitch);
  }
  // Same case routing as the original for each case and the default.
  for (const std::vector<u8>& input :
       {std::vector<u8>{0x11, 0x11}, std::vector<u8>{0x22, 0x22},
        std::vector<u8>{0x33, 0x33}}) {
    const u32 src_exit = final_block(p, input);
    const u32 out_exit = final_block(out, input);
    // Exits are the last three blocks in both programs, in source order.
    EXPECT_EQ(src_exit - 1, out_exit - (out.blocks.size() - 3));
  }
}

TEST(LafIntelTest, ExpandsStrcmpGates) {
  Program p;
  p.blocks.resize(3);
  p.blocks[0].kind = BlockKind::kStrcmp;
  p.blocks[0].str = {'M', 'Z'};
  p.blocks[0].targets = {1, 2};
  p.blocks[1].kind = BlockKind::kExit;
  p.blocks[2].kind = BlockKind::kExit;
  p.validate();

  LafIntelStats stats;
  Program out = apply_laf_intel(p, &stats);
  EXPECT_NO_THROW(out.validate());
  EXPECT_EQ(stats.split_strgates, 1u);
  for (const Block& b : out.blocks) {
    EXPECT_NE(b.kind, BlockKind::kStrcmp);
  }
  EXPECT_NE(final_block(out, {'M', 'Z'}), final_block(out, {'M', 'Q'}));
}

TEST(LafIntelTest, SecondApplicationFindsNothingToSplit) {
  GeneratorParams gp;
  gp.name = "laf-idem";
  gp.live_blocks = 200;
  gp.frac_wide_cmp = 0.5;
  gp.frac_hard_eq = 0.7;
  const GeneratedTarget t = generate_target(gp);
  LafIntelStats first, second;
  const Program once = apply_laf_intel(t.program, &first);
  const Program twice = apply_laf_intel(once, &second);
  EXPECT_GT(first.split_compares + first.split_switches + first.split_strgates,
            0u);
  EXPECT_EQ(second.split_compares, 0u);
  EXPECT_EQ(second.split_switches, 0u);
  EXPECT_EQ(second.split_strgates, 0u);
  EXPECT_EQ(twice.blocks.size(), once.blocks.size());
}

TEST(LafIntelTest, PreservesOutcomesOnGeneratedTargets) {
  GeneratorParams gp;
  gp.name = "laf-preserve";
  gp.seed = 9;
  gp.live_blocks = 400;
  gp.dead_blocks = 100;
  gp.num_bugs = 6;
  gp.bug_min_depth = 1;
  gp.bug_max_depth = 3;
  gp.frac_wide_cmp = 0.4;
  gp.frac_hard_eq = 0.5;
  const GeneratedTarget t = generate_target(gp);
  Program transformed = apply_laf_intel(t.program);
  EXPECT_NO_THROW(transformed.validate());

  // Generous budget: the cascade adds steps, not behaviour.
  Interpreter interp(1u << 18);
  for (u32 bug = 0; bug < t.program.num_bugs; ++bug) {
    const std::vector<u8> input = t.crashing_input(bug);
    const ExecResult before = interp.run(t.program, input, [](u32) {});
    const ExecResult after = interp.run(transformed, input, [](u32) {});
    ASSERT_TRUE(before.crashed()) << "bug " << bug;
    EXPECT_TRUE(after.crashed()) << "bug " << bug;
    EXPECT_EQ(before.bug_id, after.bug_id);
  }
  for (const auto& seed : make_seed_corpus(t, 24, 5)) {
    const ExecResult before = interp.run(t.program, seed, [](u32) {});
    const ExecResult after = interp.run(transformed, seed, [](u32) {});
    EXPECT_EQ(static_cast<int>(before.outcome),
              static_cast<int>(after.outcome));
    if (before.crashed()) {
      EXPECT_EQ(before.bug_id, after.bug_id);
    }
  }
}

}  // namespace
}  // namespace bigmap
