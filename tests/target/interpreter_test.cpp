// Interpreter semantics: branch predicates, wide little-endian reads,
// switches, strcmp gates, input-bounded loops, call/return, planted bugs
// (kCrash with stable identity) and the step-budget hang detector.
#include "target/interpreter.h"

#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "target/program.h"

namespace bigmap {
namespace {

using Trace = std::vector<u32>;

ExecResult run_traced(const Program& p, const std::vector<u8>& input,
                      Trace* trace, u64 budget = 1u << 12) {
  Interpreter interp(budget);
  return interp.run(p, input, [&](u32 b) {
    if (trace) trace->push_back(b);
  });
}

// branch(pred) over input[offset] vs `expected`: taken -> exit 1, else ->
// exit 2.
Program branch_program(CmpPred pred, u64 expected, u8 width = 1,
                       u32 offset = 0) {
  Program p;
  p.blocks.resize(3);
  p.blocks[0].kind = BlockKind::kBranch;
  p.blocks[0].pred = pred;
  p.blocks[0].cmp_width = width;
  p.blocks[0].input_offset = offset;
  p.blocks[0].expected = expected;
  p.blocks[0].targets = {1, 2};
  p.blocks[1].kind = BlockKind::kExit;
  p.blocks[2].kind = BlockKind::kExit;
  p.validate();
  return p;
}

bool takes_branch(CmpPred pred, u64 expected, const std::vector<u8>& input,
                  u8 width = 1, u32 offset = 0) {
  Trace trace;
  const ExecResult res = run_traced(
      branch_program(pred, expected, width, offset), input, &trace);
  EXPECT_EQ(res.outcome, ExecResult::Outcome::kOk);
  EXPECT_EQ(trace.size(), 2u);
  return trace[1] == 1;
}

TEST(InterpreterTest, BranchPredicates) {
  EXPECT_TRUE(takes_branch(CmpPred::kEq, 7, {7}));
  EXPECT_FALSE(takes_branch(CmpPred::kEq, 7, {8}));
  EXPECT_TRUE(takes_branch(CmpPred::kNe, 7, {8}));
  EXPECT_FALSE(takes_branch(CmpPred::kNe, 7, {7}));
  EXPECT_TRUE(takes_branch(CmpPred::kLt, 10, {9}));
  EXPECT_FALSE(takes_branch(CmpPred::kLt, 10, {10}));
  EXPECT_TRUE(takes_branch(CmpPred::kLe, 10, {10}));
  EXPECT_TRUE(takes_branch(CmpPred::kGt, 10, {11}));
  EXPECT_FALSE(takes_branch(CmpPred::kGt, 10, {10}));
  EXPECT_TRUE(takes_branch(CmpPred::kGe, 10, {10}));
}

TEST(InterpreterTest, WideCompareReadsLittleEndian) {
  // 0xBEEF little-endian is {0xEF, 0xBE}.
  EXPECT_TRUE(takes_branch(CmpPred::kEq, 0xBEEF, {0xEF, 0xBE}, 2));
  EXPECT_FALSE(takes_branch(CmpPred::kEq, 0xBEEF, {0xBE, 0xEF}, 2));
  EXPECT_TRUE(
      takes_branch(CmpPred::kEq, 0x01020304, {0x04, 0x03, 0x02, 0x01}, 4));

  // Every width at every offset from size-8 to size: reads that fit take
  // the 8-byte load, the rest the zero-padded tail, and both must agree
  // with a byte-by-byte little-endian read.
  std::vector<u8> input(16);
  for (usize i = 0; i < input.size(); ++i) {
    input[i] = static_cast<u8>(0x11 * (i + 1));
  }
  for (u8 width : {2, 4, 8}) {
    for (usize off = input.size() - 8; off <= input.size(); ++off) {
      u64 want = 0;
      for (u32 i = 0; i < width; ++i) {
        if (off + i < input.size()) {
          want |= static_cast<u64>(input[off + i]) << (8 * i);
        }
      }
      const u32 o = static_cast<u32>(off);
      EXPECT_TRUE(takes_branch(CmpPred::kEq, want, input, width, o))
          << "width " << int{width} << " offset " << off;
      EXPECT_FALSE(takes_branch(CmpPred::kEq, want ^ 1, input, width, o))
          << "width " << int{width} << " offset " << off;
      // The bytes above the width never leak into the compare.
      EXPECT_FALSE(takes_branch(CmpPred::kGt, want, input, width, o))
          << "width " << int{width} << " offset " << off;
    }
  }
}

TEST(InterpreterTest, BytesPastInputEndReadAsZero) {
  // Empty input: the read value is 0.
  EXPECT_TRUE(takes_branch(CmpPred::kEq, 0, {}));
  EXPECT_FALSE(takes_branch(CmpPred::kEq, 7, {}));
  // Partial wide read: {0x01} as 4 bytes is 0x00000001.
  EXPECT_TRUE(takes_branch(CmpPred::kEq, 0x01, {0x01}, 4));

  // Offsets at or past the end read zero at every width.
  const std::vector<u8> input(12, 0xAB);
  for (u8 width : {1, 2, 4, 8}) {
    for (u32 off : {12u, 13u, 19u, 20u, 4096u}) {
      EXPECT_TRUE(takes_branch(CmpPred::kEq, 0, input, width, off))
          << "width " << int{width} << " offset " << off;
    }
  }

  // Offsets near UINT32_MAX must not wrap into an in-bounds load: offset +
  // width overflows u32, but the bytes it would wrap to are nonzero.
  for (u8 width : {1, 2, 4, 8}) {
    for (u32 back : {0u, 1u, 3u, 7u}) {
      const u32 off = 0xFFFFFFFFu - back;
      EXPECT_TRUE(takes_branch(CmpPred::kEq, 0, input, width, off))
          << "width " << int{width} << " offset " << off;
    }
  }
  Program p;
  p.blocks.resize(3);
  p.blocks[0].kind = BlockKind::kStrcmp;
  p.blocks[0].input_offset = 0xFFFFFFFEu;
  p.blocks[0].str = {0, 0, 0, 0};
  p.blocks[0].targets = {1, 2};
  p.blocks[1].kind = BlockKind::kExit;
  p.blocks[2].kind = BlockKind::kExit;
  p.validate();
  Trace t;
  run_traced(p, input, &t);
  EXPECT_EQ(t, (Trace{0, 1}));
}

TEST(InterpreterTest, SwitchSelectsMatchingCaseAndDefault) {
  Program p;
  p.blocks.resize(4);
  p.blocks[0].kind = BlockKind::kSwitch;
  p.blocks[0].cases = {5, 9};
  p.blocks[0].targets = {1, 2, 3};
  for (usize i = 1; i < 4; ++i) p.blocks[i].kind = BlockKind::kExit;
  p.validate();

  Trace t1, t2, t3;
  run_traced(p, {5}, &t1);
  run_traced(p, {9}, &t2);
  run_traced(p, {6}, &t3);
  EXPECT_EQ(t1[1], 1u);
  EXPECT_EQ(t2[1], 2u);
  EXPECT_EQ(t3[1], 3u);
}

TEST(InterpreterTest, StrcmpGateComparesBytewise) {
  Program p;
  p.blocks.resize(3);
  p.blocks[0].kind = BlockKind::kStrcmp;
  p.blocks[0].input_offset = 1;
  p.blocks[0].str = {'P', 'N', 'G'};
  p.blocks[0].targets = {1, 2};
  p.blocks[1].kind = BlockKind::kExit;
  p.blocks[2].kind = BlockKind::kExit;
  p.validate();

  Trace hit, miss, shortinput;
  run_traced(p, {0, 'P', 'N', 'G'}, &hit);
  run_traced(p, {0, 'P', 'N', 'X'}, &miss);
  run_traced(p, {0, 'P'}, &shortinput);  // missing bytes read as 0
  EXPECT_EQ(hit[1], 1u);
  EXPECT_EQ(miss[1], 2u);
  EXPECT_EQ(shortinput[1], 2u);
}

Program loop_program(u32 loop_max) {
  Program p;
  p.blocks.resize(3);
  p.blocks[0].kind = BlockKind::kLoop;
  p.blocks[0].loop_max = loop_max;
  p.blocks[0].targets = {1, 2};
  p.blocks[1].kind = BlockKind::kFallthrough;
  p.blocks[1].targets = {0};
  p.blocks[2].kind = BlockKind::kExit;
  p.validate();
  return p;
}

TEST(InterpreterTest, LoopIterationsAreInputBounded) {
  Program p = loop_program(100);
  Trace t;
  const ExecResult res = run_traced(p, {3}, &t);
  EXPECT_EQ(res.outcome, ExecResult::Outcome::kOk);
  // head, (body, head) x3, exit.
  EXPECT_EQ(t.size(), 1 + 2 * 3 + 1u);
}

TEST(InterpreterTest, LoopIterationsAreCappedByLoopMax) {
  Program p = loop_program(5);
  Trace t;
  run_traced(p, {200}, &t);
  EXPECT_EQ(t.size(), 1 + 2 * 5 + 1u);
}

TEST(InterpreterTest, LoopCountersResetBetweenRuns) {
  Program p = loop_program(4);
  Interpreter interp(1u << 12);
  const std::vector<u8> input = {4};
  for (int round = 0; round < 3; ++round) {
    u64 steps = 0;
    interp.run(p, input, [&](u32) { ++steps; });
    EXPECT_EQ(steps, 1 + 2 * 4 + 1u) << "round " << round;
  }
}

TEST(InterpreterTest, StepBudgetExhaustionIsDeterministicHang) {
  Program p = loop_program(100);
  for (int round = 0; round < 3; ++round) {
    Trace t;
    const ExecResult res = run_traced(p, {99}, &t, /*budget=*/8);
    EXPECT_EQ(res.outcome, ExecResult::Outcome::kHang);
    EXPECT_TRUE(res.hung());
    EXPECT_EQ(res.steps, 8u);
    EXPECT_EQ(t.size(), 8u);
  }
}

TEST(InterpreterTest, CallAndReturnFollowTheStack) {
  Program p;
  p.blocks.resize(4);
  p.blocks[0].kind = BlockKind::kCall;
  p.blocks[0].targets = {2, 1};  // callee entry 2, continuation 1
  p.blocks[1].kind = BlockKind::kExit;
  p.blocks[2].kind = BlockKind::kFallthrough;
  p.blocks[2].targets = {3};
  p.blocks[3].kind = BlockKind::kReturn;
  p.validate();

  Trace t;
  const ExecResult res = run_traced(p, {}, &t);
  EXPECT_EQ(res.outcome, ExecResult::Outcome::kOk);
  EXPECT_EQ(t, (Trace{0, 2, 3, 1}));
}

TEST(InterpreterTest, BugBlockCrashesWithStableIdentity) {
  Program p;
  p.blocks.resize(3);
  p.blocks[0].kind = BlockKind::kBranch;
  p.blocks[0].pred = CmpPred::kEq;
  p.blocks[0].expected = 0xAA;
  p.blocks[0].targets = {2, 1};
  p.blocks[1].kind = BlockKind::kExit;
  p.blocks[2].kind = BlockKind::kBug;
  p.blocks[2].bug_id = 17;
  p.num_bugs = 1;
  p.validate();

  const ExecResult ok = run_traced(p, {0}, nullptr);
  EXPECT_EQ(ok.outcome, ExecResult::Outcome::kOk);

  const ExecResult a = run_traced(p, {0xAA}, nullptr);
  const ExecResult b = run_traced(p, {0xAA}, nullptr);
  EXPECT_EQ(a.outcome, ExecResult::Outcome::kCrash);
  EXPECT_TRUE(a.crashed());
  EXPECT_EQ(a.bug_id, 17u);
  EXPECT_EQ(a.faulting_block, 2u);
  EXPECT_EQ(a.stack_hash, b.stack_hash);
  EXPECT_EQ(a.faulting_block, b.faulting_block);
}

TEST(InterpreterTest, StackHashDistinguishesCallPaths) {
  // The same bug block reached through two different call sites must
  // produce different stack hashes (Crashwalk-style dedup identity).
  Program p;
  p.blocks.resize(6);
  p.blocks[0].kind = BlockKind::kBranch;
  p.blocks[0].pred = CmpPred::kEq;
  p.blocks[0].expected = 1;
  p.blocks[0].targets = {1, 2};
  p.blocks[1].kind = BlockKind::kCall;  // call site A
  p.blocks[1].targets = {5, 3};
  p.blocks[2].kind = BlockKind::kCall;  // call site B
  p.blocks[2].targets = {5, 4};
  p.blocks[3].kind = BlockKind::kExit;
  p.blocks[4].kind = BlockKind::kExit;
  p.blocks[5].kind = BlockKind::kBug;
  p.num_bugs = 1;
  p.validate();

  const ExecResult via_a = run_traced(p, {1}, nullptr);
  const ExecResult via_b = run_traced(p, {0}, nullptr);
  ASSERT_TRUE(via_a.crashed());
  ASSERT_TRUE(via_b.crashed());
  EXPECT_EQ(via_a.faulting_block, via_b.faulting_block);
  EXPECT_NE(via_a.stack_hash, via_b.stack_hash);
}

TEST(InterpreterTest, StepsCountExecutedBlocks) {
  Program p;
  p.blocks.resize(3);
  p.blocks[0].kind = BlockKind::kFallthrough;
  p.blocks[0].targets = {1};
  p.blocks[1].kind = BlockKind::kFallthrough;
  p.blocks[1].targets = {2};
  p.blocks[2].kind = BlockKind::kExit;
  p.validate();

  Trace t;
  const ExecResult res = run_traced(p, {}, &t);
  EXPECT_EQ(res.steps, 3u);
  EXPECT_EQ(t, (Trace{0, 1, 2}));
}

TEST(InterpreterTest, RunsOnlyValidatedPrograms) {
  Program p;
  p.blocks.resize(2);
  p.blocks[0].kind = BlockKind::kFallthrough;
  p.blocks[0].targets = {1};
  p.blocks[1].kind = BlockKind::kExit;
  EXPECT_THROW(run_traced(p, {}, nullptr), std::logic_error);

  p.validate();
  Trace t;
  run_traced(p, {}, &t);
  EXPECT_EQ(t, (Trace{0, 1}));

  // Growing the program after validation leaves a table of the wrong size.
  p.blocks[1].kind = BlockKind::kFallthrough;
  p.blocks[1].targets = {2};
  p.blocks.emplace_back();
  EXPECT_THROW(run_traced(p, {}, nullptr), std::logic_error);
  p.validate();
  t.clear();
  run_traced(p, {}, &t);
  EXPECT_EQ(t, (Trace{0, 1, 2}));

  // A failed validate() drops the table instead of keeping the stale one.
  p.blocks[2].targets = {7};
  EXPECT_THROW(p.validate(), std::invalid_argument);
  EXPECT_THROW(run_traced(p, {}, nullptr), std::logic_error);

  // The empty program still runs zero steps.
  EXPECT_EQ(run_traced(Program{}, {}, nullptr).steps, 0u);
}

TEST(InterpreterTest, WorkPerBlockIsConfigurable) {
  Interpreter interp(1u << 10, /*work_per_block=*/0);
  EXPECT_EQ(interp.work_per_block(), 0u);
  interp.set_work_per_block(Interpreter::kDefaultWorkPerBlock);
  EXPECT_EQ(interp.work_per_block(), Interpreter::kDefaultWorkPerBlock);

  // The synthetic work must not change control flow.
  Program p = loop_program(3);
  Trace a, b;
  Interpreter light(1u << 10, 0);
  Interpreter heavy(1u << 10, 64);
  light.run(p, std::vector<u8>{3}, [&](u32 blk) { a.push_back(blk); });
  heavy.run(p, std::vector<u8>{3}, [&](u32 blk) { b.push_back(blk); });
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace bigmap
