// Test-only reference interpreter: walks a Program's Block vector directly,
// the way Interpreter::run did before it ran on the lowered table.
// lowered_diff_test holds the production loop to this one block for block.
// Kept deliberately naive (per-run counter vector, per-byte reads) so it is
// obviously the CFG semantics documented in target/program.h.
#pragma once

#include <algorithm>
#include <span>
#include <vector>

#include "target/interpreter.h"
#include "target/program.h"
#include "util/hash.h"
#include "util/types.h"

namespace bigmap {

class ReferenceInterpreter {
 public:
  explicit ReferenceInterpreter(u64 step_budget) : step_budget_(step_budget) {}

  template <typename OnBlock>
  ExecResult run(const Program& prog, std::span<const u8> input,
                 OnBlock&& on_block) {
    ExecResult res;
    if (prog.blocks.empty()) return res;
    loop_count_.assign(prog.blocks.size(), 0);
    call_stack_.clear();

    u32 cur = 0;
    for (;;) {
      if (res.steps >= step_budget_) {
        res.outcome = ExecResult::Outcome::kHang;
        break;
      }
      ++res.steps;
      on_block(cur);

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
          u32& count = loop_count_[cur];
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
            done = true;
          } else {
            cur = call_stack_.back();
            call_stack_.pop_back();
          }
          break;
        case BlockKind::kBug: {
          res.outcome = ExecResult::Outcome::kCrash;
          res.bug_id = b.bug_id;
          res.faulting_block = cur;
          u64 h = 0xcbf29ce484222325ULL;
          for (u32 frame : call_stack_) h = hash_combine(h, frame);
          res.stack_hash = h;
          done = true;
          break;
        }
      }
      if (done) break;
    }
    return res;
  }

 private:
  static u8 byte_at(std::span<const u8> input, usize offset) {
    return offset < input.size() ? input[offset] : 0;
  }

  static u64 read_value(std::span<const u8> input, usize offset, u32 width) {
    u64 v = 0;
    for (u32 i = 0; i < width; ++i) {
      v |= static_cast<u64>(byte_at(input, offset + i)) << (8 * i);
    }
    return v;
  }

  static bool compare(u64 lhs, u64 rhs, CmpPred pred) {
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

  u64 step_budget_;
  std::vector<u32> loop_count_;
  std::vector<u32> call_stack_;
};

}  // namespace bigmap
