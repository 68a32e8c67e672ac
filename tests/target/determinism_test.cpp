// Interpreter determinism regression: same program + input + budget must
// produce the identical execution every time — step counts, block
// sequences, and crash/hang verdicts. Dual-mode fuzzing leans on this: an
// untraced run (Executor::run_untraced, the interpreter loop with only the
// interest oracle attached) must be the execution its traced re-run then
// performs. tracing_test pins the fired/unfired cases per scheme and metric.
#include "target/interpreter.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/flat_map.h"
#include "core/two_level_map.h"
#include "fuzzer/executor.h"
#include "target/generator.h"

namespace bigmap {
namespace {

GeneratedTarget determinism_target(u64 seed = 7) {
  GeneratorParams p;
  p.name = "determinism-target";
  p.seed = seed;
  p.live_blocks = 150;
  p.num_bugs = 2;
  p.bug_min_depth = 1;
  p.bug_max_depth = 2;
  return generate_target(p);
}

struct Trace {
  ExecResult result;
  std::vector<u32> blocks;
};

Trace run_traced(Interpreter& interp, const Program& prog,
                 const std::vector<u8>& input) {
  Trace t;
  t.result = interp.run(prog, input,
                        [&](u32 block) { t.blocks.push_back(block); });
  return t;
}

void expect_same_result(const ExecResult& a, const ExecResult& b) {
  EXPECT_EQ(a.outcome, b.outcome);
  EXPECT_EQ(a.steps, b.steps);
  EXPECT_EQ(a.bug_id, b.bug_id);
  EXPECT_EQ(a.faulting_block, b.faulting_block);
  EXPECT_EQ(a.stack_hash, b.stack_hash);
}

void expect_identical(const Trace& a, const Trace& b) {
  EXPECT_EQ(a.result.outcome, b.result.outcome);
  EXPECT_EQ(a.result.steps, b.result.steps);
  EXPECT_EQ(a.result.bug_id, b.result.bug_id);
  EXPECT_EQ(a.result.faulting_block, b.result.faulting_block);
  EXPECT_EQ(a.result.stack_hash, b.result.stack_hash);
  EXPECT_EQ(a.blocks, b.blocks);
}

std::vector<std::vector<u8>> probe_inputs(const GeneratedTarget& target) {
  std::vector<std::vector<u8>> inputs = make_seed_corpus(target, 8, 3);
  inputs.push_back({});                        // empty input
  inputs.push_back(std::vector<u8>(64, 0xFF));  // saturated bytes
  for (u32 bug = 0; bug < target.program.num_bugs; ++bug) {
    inputs.push_back(target.crashing_input(bug));
  }
  return inputs;
}

TEST(DeterminismTest, TracedRunsAreRepeatable) {
  GeneratedTarget target = determinism_target();
  Interpreter interp(1u << 14);
  for (const auto& input : probe_inputs(target)) {
    Trace first = run_traced(interp, target.program, input);
    Trace second = run_traced(interp, target.program, input);
    expect_identical(first, second);
    EXPECT_GT(first.result.steps, 0u);
    EXPECT_EQ(first.blocks.size(), first.result.steps);
  }
}

template <class Map, class Metric>
struct UntracedRig {
  GeneratedTarget target = determinism_target();
  BlockIdTable ids{target.program.blocks.size(), 1u << 12, 77};
  Executor<Map, Metric> ex{target.program, map_options(), ids, 1u << 14};
  OpTimeBreakdown timing;

  static MapOptions map_options() {
    MapOptions o;
    o.map_size = 1u << 12;
    o.huge_pages = false;
    return o;
  }
};

// Untraced runs touch no campaign-lifetime state, so running the same
// input untraced twice must repeat the execution and the oracle verdict.
template <class Map, class Metric>
void untraced_runs_repeat() {
  UntracedRig<Map, Metric> rig;
  const auto inputs = probe_inputs(rig.target);
  for (usize i = 0; i < inputs.size(); ++i) {
    SCOPED_TRACE("input " + std::to_string(i));
    const auto first = rig.ex.run_untraced(inputs[i], rig.timing);
    const auto second = rig.ex.run_untraced(inputs[i], rig.timing);
    EXPECT_EQ(first.fired, second.fired);
    expect_same_result(first.exec, second.exec);
    EXPECT_GT(first.exec.steps, 0u);
  }
}

TEST(DeterminismTest, UntracedRunsAreRepeatable) {
  untraced_runs_repeat<TwoLevelCoverageMap, EdgeMetric>();
  untraced_runs_repeat<TwoLevelCoverageMap, ContextMetric>();
  untraced_runs_repeat<FlatCoverageMap, EdgeMetric>();
  untraced_runs_repeat<FlatCoverageMap, ContextMetric>();
}

// The mode-equivalence cornerstone: once traced runs have consumed every
// probe input's queue coverage, the oracle stays quiet on the completing
// inputs and each untraced run IS the traced execution — same step count,
// verdict and crash identity.
template <class Map, class Metric>
void untraced_matches_traced_unfired() {
  UntracedRig<Map, Metric> rig;
  const auto inputs = probe_inputs(rig.target);
  for (const auto& input : inputs) rig.ex.run(input, rig.timing);
  usize quiet = 0;
  for (usize i = 0; i < inputs.size(); ++i) {
    SCOPED_TRACE("input " + std::to_string(i));
    const auto traced = rig.ex.run(inputs[i], rig.timing);
    const auto untraced = rig.ex.run_untraced(inputs[i], rig.timing);
    expect_same_result(untraced.exec, traced.exec);
    if (traced.exec.outcome == ExecResult::Outcome::kOk) {
      EXPECT_FALSE(traced.interesting());
      EXPECT_FALSE(untraced.fired);
      ++quiet;
    }
  }
  EXPECT_GT(quiet, 0u);
}

TEST(DeterminismTest, UntracedMatchesTracedWhenOracleNeverFires) {
  untraced_matches_traced_unfired<TwoLevelCoverageMap, EdgeMetric>();
  untraced_matches_traced_unfired<TwoLevelCoverageMap, ContextMetric>();
  untraced_matches_traced_unfired<FlatCoverageMap, EdgeMetric>();
  untraced_matches_traced_unfired<FlatCoverageMap, ContextMetric>();
}

}  // namespace
}  // namespace bigmap
