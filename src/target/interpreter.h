// Deterministic CFG interpreter — the execution substrate replacing AFL's
// instrumented targets.
//
// run() walks a Program over an input buffer and invokes the OnBlock
// callback once per executed block (the entry block included); the caller
// (Executor) turns that stream into (prev, cur) edge events exactly as
// afl-clang-fast instrumentation would. Three outcomes are possible:
//
//   kOk     a kExit block was reached (or a kReturn popped an empty stack).
//   kCrash  a planted kBug site was hit; ExecResult records the bug's
//           ground-truth id, the faulting block, and a hash of the simulated
//           call stack so crash triage can dedup Crashwalk-style on the
//           (call stack, faulting block) identity.
//   kHang   the step budget was exhausted — the substitute for AFL's
//           wall-clock timeout detector. Hangs are deterministic: the same
//           program, input, and budget always hang at the same step.
//
// Each block additionally burns `work_per_block` iterations of arithmetic
// into a sink member, modelling the target's own computation so that
// throughput experiments see a realistic exec cost alongside the map
// operations under study.
#pragma once

#include <algorithm>
#include <span>
#include <vector>

#include "target/program.h"
#include "util/hash.h"
#include "util/types.h"

namespace bigmap {

struct ExecResult {
  enum class Outcome : u8 { kOk = 0, kCrash, kHang };

  Outcome outcome = Outcome::kOk;
  // Blocks executed (== trace length delivered to the callback).
  u64 steps = 0;
  // kCrash only: ground-truth id of the planted bug and the block it
  // occupies.
  u32 bug_id = 0;
  u32 faulting_block = 0;
  // kCrash only: hash of the simulated call stack at the fault.
  u64 stack_hash = 0;

  bool crashed() const noexcept { return outcome == Outcome::kCrash; }
  bool hung() const noexcept { return outcome == Outcome::kHang; }
};

class Interpreter {
 public:
  // Synthetic per-block work; chosen so a block costs roughly what a few
  // lines of straight-line target code would.
  static constexpr u32 kDefaultWorkPerBlock = 12;

  explicit Interpreter(u64 step_budget,
                       u32 work_per_block = kDefaultWorkPerBlock) noexcept
      : step_budget_(step_budget), work_per_block_(work_per_block) {}

  u64 step_budget() const noexcept { return step_budget_; }
  void set_step_budget(u64 budget) noexcept { step_budget_ = budget; }
  u32 work_per_block() const noexcept { return work_per_block_; }
  void set_work_per_block(u32 work) noexcept { work_per_block_ = work; }

  // Executes `prog` over `input`, calling on_block(u32 block_index) for
  // every block entered. The program must have passed Program::validate();
  // the interpreter still bounds-checks nothing beyond what the validator
  // guarantees. This is the one execution loop: traced runs and the
  // executor's untraced oracle runs differ only in the callback, and the
  // loop carries no per-block stop check — every run completes (or
  // crashes/hangs) exactly as the program dictates. Any value the callback
  // returns is ignored.
  template <typename OnBlock>
  ExecResult run(const Program& prog, std::span<const u8> input,
                 OnBlock&& on_block) {
    ExecResult res;
    if (prog.blocks.empty()) return res;
    begin_run(prog.blocks.size());

    u64 work_acc = 0x9e3779b97f4a7c15ULL;
    u32 cur = 0;
    for (;;) {
      if (res.steps >= step_budget_) {
        res.outcome = ExecResult::Outcome::kHang;
        break;
      }
      ++res.steps;
      on_block(cur);
      for (u32 w = 0; w < work_per_block_; ++w) {
        work_acc = work_acc * 6364136223846793005ULL + cur;
      }

      const Block& b = prog.blocks[cur];
      bool done = false;
      switch (b.kind) {
        case BlockKind::kExit:
          done = true;
          break;
        case BlockKind::kFallthrough:
          cur = b.targets[0];
          break;
        case BlockKind::kBranch: {
          const u64 v = read_value(input, b.input_offset, b.cmp_width);
          cur = b.targets[compare(v, b.expected, b.pred) ? 0 : 1];
          break;
        }
        case BlockKind::kSwitch: {
          const u64 v = read_value(input, b.input_offset, b.cmp_width);
          u32 next = b.targets.back();
          for (usize i = 0; i < b.cases.size(); ++i) {
            if (v == b.cases[i]) {
              next = b.targets[i];
              break;
            }
          }
          cur = next;
          break;
        }
        case BlockKind::kStrcmp: {
          bool equal = true;
          for (usize i = 0; i < b.str.size(); ++i) {
            if (byte_at(input, b.input_offset + i) != b.str[i]) {
              equal = false;
              break;
            }
          }
          cur = b.targets[equal ? 0 : 1];
          break;
        }
        case BlockKind::kLoop: {
          const u32 iters = std::min<u32>(byte_at(input, b.input_offset),
                                          b.loop_max);
          u32& count = loop_counter(cur);
          if (count < iters) {
            ++count;
            cur = b.targets[0];
          } else {
            cur = b.targets[1];
          }
          break;
        }
        case BlockKind::kCall:
          call_stack_.push_back(b.targets[1]);
          cur = b.targets[0];
          break;
        case BlockKind::kReturn:
          if (call_stack_.empty()) {
            done = true;  // graceful: validator rejects this statically
          } else {
            cur = call_stack_.back();
            call_stack_.pop_back();
          }
          break;
        case BlockKind::kBug:
          res.outcome = ExecResult::Outcome::kCrash;
          res.bug_id = b.bug_id;
          res.faulting_block = cur;
          res.stack_hash = hash_call_stack();
          done = true;
          break;
      }
      if (done) break;
    }
    work_sink_ ^= work_acc;
    return res;
  }

 private:
  static u8 byte_at(std::span<const u8> input, usize offset) noexcept {
    return offset < input.size() ? input[offset] : 0;
  }

  // Little-endian read of `width` bytes; bytes past the end of the input
  // read as zero (short inputs simply fail wide compares).
  static u64 read_value(std::span<const u8> input, usize offset,
                        u32 width) noexcept {
    u64 v = 0;
    for (u32 i = 0; i < width; ++i) {
      v |= static_cast<u64>(byte_at(input, offset + i)) << (8 * i);
    }
    return v;
  }

  static bool compare(u64 lhs, u64 rhs, CmpPred pred) noexcept {
    switch (pred) {
      case CmpPred::kEq: return lhs == rhs;
      case CmpPred::kNe: return lhs != rhs;
      case CmpPred::kLt: return lhs < rhs;
      case CmpPred::kLe: return lhs <= rhs;
      case CmpPred::kGt: return lhs > rhs;
      case CmpPred::kGe: return lhs >= rhs;
    }
    return false;
  }

  // Per-run loop-counter reset via the epoch trick: O(1) per run instead of
  // clearing a counter per loop block.
  void begin_run(usize num_blocks);
  u32& loop_counter(u32 block) noexcept {
    if (loop_epoch_[block] != epoch_) {
      loop_epoch_[block] = epoch_;
      loop_count_[block] = 0;
    }
    return loop_count_[block];
  }

  u64 hash_call_stack() const noexcept;

  u64 step_budget_;
  u32 work_per_block_;
  u32 epoch_ = 0;
  std::vector<u32> loop_epoch_;
  std::vector<u32> loop_count_;
  std::vector<u32> call_stack_;
  // Accumulates the synthetic work so the optimizer cannot elide it.
  u64 work_sink_ = 0;
};

}  // namespace bigmap
