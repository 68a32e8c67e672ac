// Synthetic-target program model.
//
// DESIGN.md §2: the paper fuzzes instrumented real binaries; we replace them
// with control-flow graphs whose blocks compare input bytes against
// constants. AFL's instrumentation reduces a target to a stream of
// (prev_block, cur_block) events hitting the bitmap, and the interpreter in
// interpreter.h produces exactly that stream from these Programs.
//
// A Program is a flat vector of Blocks; block 0 is the entry. Each block's
// kind decides how its successor is chosen from `targets`:
//
//   kExit         no targets; execution ends with Outcome::kOk.
//   kFallthrough  targets = {next}.
//   kBranch       targets = {taken, not_taken}; reads `cmp_width` little-
//                 endian bytes at `input_offset` and compares against
//                 `expected` with `pred`.
//   kSwitch       targets = {case_0, ..., case_{n-1}, default}; matches the
//                 read value against `cases` (cases.size() + 1 == targets).
//   kStrcmp       targets = {equal, not_equal}; byte-wise compares
//                 input[input_offset ...] against `str`.
//   kLoop         targets = {body, exit}; iterates the body
//                 min(input[input_offset], loop_max) times per execution.
//   kCall         targets = {callee_entry, continuation}; pushes the
//                 continuation on the simulated call stack.
//   kReturn       no targets; pops the call stack (empty stack exits kOk).
//   kBug          no targets; planted fault site, terminates with
//                 Outcome::kCrash recording `bug_id` and the call stack.
//
// Programs constructed by hand or by the generator must pass validate()
// before being handed to the interpreter: the validator rejects malformed
// CFGs (out-of-range targets, unreachable blocks, call/return imbalance)
// with std::invalid_argument instead of letting the interpreter walk off
// the graph. validate() also lowers the blocks into the compact table the
// interpreter actually walks (LoweredBlock below); generate_target,
// apply_laf_intel and build_benchmark hand out validated programs, and code
// that edits `blocks` afterwards must call validate() again.
#pragma once

#include <string>
#include <vector>

#include "util/types.h"

namespace bigmap {

enum class BlockKind : u8 {
  kExit = 0,
  kFallthrough,
  kBranch,
  kSwitch,
  kStrcmp,
  kLoop,
  kCall,
  kReturn,
  kBug,
};

enum class CmpPred : u8 { kEq = 0, kNe, kLt, kLe, kGt, kGe };

struct Block {
  BlockKind kind = BlockKind::kExit;
  CmpPred pred = CmpPred::kEq;
  // Width in bytes of the compared value (1, 2, 4 or 8), little-endian.
  // Widths > 1 are the "rare multi-byte gates" that laf-intel splits.
  u8 cmp_width = 1;
  u32 input_offset = 0;
  u64 expected = 0;
  // kLoop: hard cap on iterations regardless of the input byte.
  u32 loop_max = 0;
  // kBug: stable ground-truth identity of the planted fault.
  u32 bug_id = 0;
  std::vector<u32> targets;
  // kSwitch only: case values; targets.size() == cases.size() + 1.
  std::vector<u64> cases;
  // kStrcmp only: the expected byte string.
  std::vector<u8> str;
};

class Interpreter;

// One block of a validated Program as the interpreter runs it: 32 bytes,
// so a 27.6k-block program is an 864 KB table that fits in L2 (the Block
// vector, with three heap vectors per block, is 2.6 MB plus the
// per-block `targets` allocations). Variable-length operands live in the
// owning table's side pools.
struct alignas(32) LoweredBlock {
  BlockKind kind = BlockKind::kExit;
  // kBranch: the predicate as a mask over (lt, eq << 1, gt << 2).
  u8 accept = 0;
  // kBranch / kSwitch: compared width in bytes.
  u8 width = 0;
  u32 input_offset = 0;
  // kFallthrough/kBranch/kStrcmp/kLoop/kCall: Block::targets; kSwitch:
  // targets[1] is the default.
  u32 targets[2] = {0, 0};
  // kBranch: expected; kLoop: loop_max; kBug: bug_id; kSwitch: index of the
  // first (case, target) pair in `cases` | pair count << 32; kStrcmp: index
  // into `bytes` | length << 32.
  u64 imm = 0;
  // kBranch / kSwitch: low `width` bytes set.
  u64 value_mask = 0;

  u32 pool_index() const noexcept { return static_cast<u32>(imm); }
  u32 pool_count() const noexcept { return static_cast<u32>(imm >> 32); }
};
static_assert(sizeof(LoweredBlock) == 32);

struct LoweredProgram {
  std::vector<LoweredBlock> blocks;
  std::vector<u64> cases;  // kSwitch (case, target) pairs
  std::vector<u8> bytes;   // kStrcmp strings
};

struct Program {
  std::string name = "unnamed";
  std::vector<Block> blocks;
  // Number of planted kBug sites (ground truth for crash triage).
  u32 num_bugs = 0;
  // Input size the target was generated for; the campaign's dummy-seed
  // fallback and the seed corpus use this.
  usize nominal_input_size = 64;

  // Number of distinct (block, successor) pairs — the static edge count a
  // compiler pass (CollAFL, Table II "static edges") would see.
  usize static_edge_count() const noexcept;

  // Structural CFG checks; throws std::invalid_argument describing the
  // first problem found. Checks per-kind target arity, target ranges,
  // switch/strcmp/loop field consistency, reachability of every block from
  // the entry, and call/return balance (no kReturn reachable with an empty
  // simulated call stack). On success, rebuilds the lowered table the
  // interpreter runs; on failure the table is left empty, so running the
  // program throws instead of executing stale code.
  void validate();

 private:
  friend class Interpreter;
  LoweredProgram lowered_;
};

}  // namespace bigmap
