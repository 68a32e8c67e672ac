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
// The loop walks the Program's lowered table (LoweredBlock, built by
// Program::validate()), not its Block vector: one 32-byte record per block
// with both successors inline, so each step is one load from a table that
// fits in L2 rather than a 96-byte Block plus a pointer chase into its
// `targets` vector (DESIGN.md §14).
//
// Each block additionally burns `work_per_block` iterations of arithmetic
// into a sink member, modelling the target's own computation so that
// throughput experiments see a realistic exec cost alongside the map
// operations under study.
#pragma once

#include <algorithm>
#include <bit>
#include <cstring>
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
  // every block entered. The program must have passed Program::validate(),
  // which builds the lowered table this loop walks; a non-empty program
  // without one (or with one of another size, i.e. blocks edited after
  // validation) throws std::logic_error. This is the one execution loop:
  // traced runs and the executor's untraced oracle runs differ only in the
  // callback, and the loop carries no per-block stop check — every run
  // completes (or crashes/hangs) exactly as the program dictates. Any
  // value the callback returns is ignored.
  template <typename OnBlock>
  ExecResult run(const Program& prog, std::span<const u8> input,
                 OnBlock&& on_block) {
    ExecResult res;
    if (prog.blocks.empty()) return res;
    const LoweredProgram& code = table_of(prog);
    const LoweredBlock* blocks = code.blocks.data();
    begin_run(code.blocks.size());

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

      const LoweredBlock& b = blocks[cur];
      bool done = false;
      switch (b.kind) {
        case BlockKind::kExit:
          done = true;
          break;
        case BlockKind::kFallthrough:
          cur = b.targets[0];
          break;
        case BlockKind::kBranch: {
          const u64 v = read_value(input, b.input_offset, b.width,
                                   b.value_mask);
          const u32 outcome = static_cast<u32>(v < b.imm) |
                              static_cast<u32>(v == b.imm) << 1 |
                              static_cast<u32>(v > b.imm) << 2;
          cur = b.targets[(outcome & b.accept) != 0 ? 0 : 1];
          break;
        }
        case BlockKind::kSwitch: {
          const u64 v = read_value(input, b.input_offset, b.width,
                                   b.value_mask);
          const u64* pairs = code.cases.data() + b.pool_index();
          const u32 count = b.pool_count();
          u32 next = b.targets[1];
          for (u32 i = 0; i < count; ++i) {
            if (v == pairs[2 * i]) {
              next = static_cast<u32>(pairs[2 * i + 1]);
              break;
            }
          }
          cur = next;
          break;
        }
        case BlockKind::kStrcmp: {
          const bool equal =
              bytes_equal(input, b.input_offset,
                          code.bytes.data() + b.pool_index(), b.pool_count());
          cur = b.targets[equal ? 0 : 1];
          break;
        }
        case BlockKind::kLoop: {
          const u32 iters = std::min<u32>(byte_at(input, b.input_offset),
                                          static_cast<u32>(b.imm));
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
          res.bug_id = static_cast<u32>(b.imm);
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
  // The program's lowered table; throws std::logic_error if it is missing
  // or was built for a different block count.
  static const LoweredProgram& table_of(const Program& prog);

  static u8 byte_at(std::span<const u8> input, usize offset) noexcept {
    return offset < input.size() ? input[offset] : 0;
  }

  // Little-endian read of `width` bytes (`mask` has the low `width` bytes
  // set); bytes past the end of the input read as zero (short inputs
  // simply fail wide compares). Away from the input's end this is one
  // unaligned 8-byte load.
  static u64 read_value(std::span<const u8> input, u32 offset, u32 width,
                        u64 mask) noexcept {
    if constexpr (std::endian::native == std::endian::little) {
      if (static_cast<usize>(offset) + 8 <= input.size()) {
        u64 v;
        std::memcpy(&v, input.data() + offset, sizeof(v));
        return v & mask;
      }
    }
    u64 v = 0;
    for (u32 i = 0; i < width; ++i) {
      v |= static_cast<u64>(byte_at(input, static_cast<usize>(offset) + i))
           << (8 * i);
    }
    return v;
  }

  // input[offset, offset + len) == str, bytes past the end reading as zero.
  static bool bytes_equal(std::span<const u8> input, u32 offset,
                          const u8* str, u32 len) noexcept {
    const usize off = offset;
    if (off + len <= input.size()) {
      return std::memcmp(input.data() + off, str, len) == 0;
    }
    for (u32 i = 0; i < len; ++i) {
      if (byte_at(input, off + i) != str[i]) return false;
    }
    return true;
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
