// Differential test of Interpreter::run (the lowered 32-byte block table)
// against ReferenceInterpreter (a direct walk of the Block vector). Every
// Table II profile, every "+comp" profile and the laf-intel'd form of each
// runs the same inputs through both; the block streams and every ExecResult
// field must be identical.
//
// Inputs cover each read path: seeds and havoc mutants (8-byte loads away
// from the input end), the same seeds truncated by 0..8 bytes (wide reads
// and strcmp gates straddling the end take the zero-padded tail), the empty
// input, each bug's crashing_input, and a step budget small enough to hang.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "fuzzer/mutator.h"
#include "reference_interpreter.h"
#include "target/interpreter.h"
#include "target/lafintel.h"
#include "target/suite.h"

namespace bigmap {
namespace {

constexpr u64 kBudget = 1u << 16;
// Small enough that long seed executions hang part-way.
constexpr u64 kHangBudget = 96;
constexpr usize kSeedsPerProgram = 12;
constexpr usize kHavocPerSeed = 4;

struct Run {
  ExecResult result;
  std::vector<u32> blocks;
};

std::vector<const BenchmarkInfo*> all_profiles() {
  std::vector<const BenchmarkInfo*> out;
  for (const BenchmarkInfo& info : full_table2_suite()) out.push_back(&info);
  for (const BenchmarkInfo& info : composition_suite()) out.push_back(&info);
  return out;
}

std::vector<std::vector<u8>> diff_inputs(const GeneratedTarget& target,
                                         const BenchmarkInfo& info) {
  std::vector<std::vector<u8>> seeds = benchmark_seeds(target, info);
  if (seeds.size() > kSeedsPerProgram) seeds.resize(kSeedsPerProgram);

  std::vector<std::vector<u8>> inputs = seeds;
  Mutator::Options opts;
  opts.dictionary = target.tokens;
  Mutator mutator(opts, info.gen.seed ^ 0xd1ffULL);
  for (const auto& seed : seeds) {
    for (usize i = 0; i < kHavocPerSeed; ++i) {
      Input mutant = seed;
      mutator.havoc(mutant);
      inputs.push_back(std::move(mutant));
    }
    for (usize cut = 0; cut <= 8 && cut <= seed.size(); ++cut) {
      inputs.emplace_back(seed.begin(), seed.end() - cut);
    }
  }
  inputs.emplace_back();
  for (u32 bug = 0; bug < target.program.num_bugs; ++bug) {
    inputs.push_back(target.crashing_input(bug));
  }
  return inputs;
}

struct Tally {
  usize runs = 0, crashes = 0, hangs = 0;
};

void expect_same_runs(const Program& prog,
                      const std::vector<std::vector<u8>>& inputs, u64 budget,
                      Tally& tally) {
  Interpreter lowered(budget, /*work_per_block=*/0);
  ReferenceInterpreter reference(budget);
  for (usize i = 0; i < inputs.size(); ++i) {
    Run a, b;
    a.result = lowered.run(prog, inputs[i],
                           [&](u32 blk) { a.blocks.push_back(blk); });
    b.result = reference.run(prog, inputs[i],
                             [&](u32 blk) { b.blocks.push_back(blk); });
    const std::string where = prog.name + " input " + std::to_string(i) +
                              " budget " + std::to_string(budget);
    ASSERT_EQ(a.blocks, b.blocks) << where;
    EXPECT_EQ(a.result.outcome, b.result.outcome) << where;
    EXPECT_EQ(a.result.steps, b.result.steps) << where;
    EXPECT_EQ(a.result.bug_id, b.result.bug_id) << where;
    EXPECT_EQ(a.result.faulting_block, b.result.faulting_block) << where;
    EXPECT_EQ(a.result.stack_hash, b.result.stack_hash) << where;
    ++tally.runs;
    tally.crashes += a.result.crashed();
    tally.hangs += a.result.hung();
  }
}

class LoweredDiffTest : public ::testing::TestWithParam<usize> {};

TEST_P(LoweredDiffTest, MatchesBlockWalker) {
  const BenchmarkInfo& info = *all_profiles()[GetParam()];
  const GeneratedTarget target = build_benchmark(info);
  const std::vector<std::vector<u8>> inputs = diff_inputs(target, info);
  const Program laf = apply_laf_intel(target.program);

  for (const Program* prog : {&target.program, &laf}) {
    Tally tally;
    expect_same_runs(*prog, inputs, kBudget, tally);
    expect_same_runs(*prog, inputs, kHangBudget, tally);
    EXPECT_EQ(tally.runs, 2 * inputs.size()) << prog->name;
    EXPECT_GT(tally.hangs, 0u) << prog->name;
    if (target.program.num_bugs > 0) {
      EXPECT_GT(tally.crashes, 0u) << prog->name;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllPrograms, LoweredDiffTest,
    ::testing::Range<usize>(0, all_profiles().size()),
    [](const ::testing::TestParamInfo<usize>& i) {
      std::string n = all_profiles()[i.param]->name;
      for (char& c : n) {
        if (c == '-' || c == '.' || c == '+') c = '_';
      }
      return n;
    });

}  // namespace
}  // namespace bigmap
