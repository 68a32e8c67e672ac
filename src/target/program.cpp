#include "target/program.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

namespace bigmap {

namespace {

// Expected number of successor targets for each block kind, or -1 when the
// arity is variable (kSwitch).
int expected_targets(BlockKind kind) {
  switch (kind) {
    case BlockKind::kExit:
    case BlockKind::kReturn:
    case BlockKind::kBug:
      return 0;
    case BlockKind::kFallthrough:
      return 1;
    case BlockKind::kBranch:
    case BlockKind::kStrcmp:
    case BlockKind::kLoop:
    case BlockKind::kCall:
      return 2;
    case BlockKind::kSwitch:
      return -1;
  }
  return -1;
}

[[noreturn]] void fail(usize block, const std::string& what) {
  throw std::invalid_argument("Program::validate: block " +
                              std::to_string(block) + ": " + what);
}

// CmpPred as the set of (lt, eq, gt) outcomes it accepts.
u8 accept_mask(CmpPred pred) {
  constexpr u8 kLt = 1, kEq = 2, kGt = 4;
  switch (pred) {
    case CmpPred::kEq: return kEq;
    case CmpPred::kNe: return kLt | kGt;
    case CmpPred::kLt: return kLt;
    case CmpPred::kLe: return kLt | kEq;
    case CmpPred::kGt: return kGt;
    case CmpPred::kGe: return kGt | kEq;
  }
  return 0;
}

u64 width_mask(u32 width) {
  return width >= 8 ? ~0ULL : (1ULL << (8 * width)) - 1;
}

u64 pool_ref(usize index, usize count) {
  return static_cast<u64>(index) | (static_cast<u64>(count) << 32);
}

LoweredProgram lower(const std::vector<Block>& blocks) {
  LoweredProgram out;
  out.blocks.resize(blocks.size());
  for (usize i = 0; i < blocks.size(); ++i) {
    const Block& b = blocks[i];
    LoweredBlock& lb = out.blocks[i];
    lb.kind = b.kind;
    lb.input_offset = b.input_offset;
    for (usize t = 0; t < b.targets.size() && t < 2; ++t) {
      lb.targets[t] = b.targets[t];
    }
    switch (b.kind) {
      case BlockKind::kBranch:
        lb.accept = accept_mask(b.pred);
        lb.width = b.cmp_width;
        lb.imm = b.expected;
        lb.value_mask = width_mask(b.cmp_width);
        break;
      case BlockKind::kSwitch:
        lb.width = b.cmp_width;
        lb.value_mask = width_mask(b.cmp_width);
        lb.targets[1] = b.targets.back();
        lb.imm = pool_ref(out.cases.size(), b.cases.size());
        for (usize c = 0; c < b.cases.size(); ++c) {
          out.cases.push_back(b.cases[c]);
          out.cases.push_back(b.targets[c]);
        }
        break;
      case BlockKind::kStrcmp:
        lb.imm = pool_ref(out.bytes.size(), b.str.size());
        out.bytes.insert(out.bytes.end(), b.str.begin(), b.str.end());
        break;
      case BlockKind::kLoop:
        lb.imm = b.loop_max;
        break;
      case BlockKind::kBug:
        lb.imm = b.bug_id;
        break;
      default:
        break;
    }
  }
  return out;
}

}  // namespace

usize Program::static_edge_count() const noexcept {
  std::vector<u64> edges;
  edges.reserve(blocks.size() * 2);
  for (usize b = 0; b < blocks.size(); ++b) {
    for (u32 t : blocks[b].targets) {
      edges.push_back((static_cast<u64>(b) << 32) | t);
    }
  }
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  return edges.size();
}

void Program::validate() {
  lowered_ = {};
  if (blocks.empty()) {
    throw std::invalid_argument("Program::validate: program has no blocks");
  }
  const usize n = blocks.size();
  for (usize b = 0; b < n; ++b) {
    const Block& blk = blocks[b];
    const int want = expected_targets(blk.kind);
    if (want >= 0 && blk.targets.size() != static_cast<usize>(want)) {
      fail(b, "expected " + std::to_string(want) + " targets, has " +
                  std::to_string(blk.targets.size()));
    }
    for (u32 t : blk.targets) {
      if (t >= n) fail(b, "target " + std::to_string(t) + " out of range");
    }
    switch (blk.kind) {
      case BlockKind::kBranch:
        if (blk.cmp_width != 1 && blk.cmp_width != 2 && blk.cmp_width != 4 &&
            blk.cmp_width != 8) {
          fail(b, "cmp_width must be 1, 2, 4 or 8");
        }
        break;
      case BlockKind::kSwitch:
        if (blk.cmp_width != 1 && blk.cmp_width != 2 && blk.cmp_width != 4 &&
            blk.cmp_width != 8) {
          fail(b, "cmp_width must be 1, 2, 4 or 8");
        }
        if (blk.cases.empty()) fail(b, "switch has no cases");
        if (blk.targets.size() != blk.cases.size() + 1) {
          fail(b, "switch needs cases.size() + 1 targets (last is default)");
        }
        break;
      case BlockKind::kStrcmp:
        if (blk.str.empty()) fail(b, "strcmp gate has empty string");
        break;
      case BlockKind::kLoop:
        if (blk.loop_max == 0) fail(b, "loop_max must be > 0");
        break;
      default:
        break;
    }
  }

  // Reachability and call/return balance in one pass. States are
  // (block, call_depth) with the depth capped so recursive call chains
  // terminate; a kReturn reachable at depth 0 means some path underflows
  // the simulated call stack.
  constexpr u32 kMaxTrackedDepth = 8;
  std::vector<u8> seen(n * (kMaxTrackedDepth + 1), 0);
  std::vector<u8> reachable(n, 0);
  std::vector<std::pair<u32, u32>> stack;
  auto visit = [&](u32 block, u32 depth) {
    u8& mark = seen[static_cast<usize>(block) * (kMaxTrackedDepth + 1) + depth];
    if (!mark) {
      mark = 1;
      stack.emplace_back(block, depth);
    }
  };
  visit(0, 0);
  while (!stack.empty()) {
    auto [b, depth] = stack.back();
    stack.pop_back();
    reachable[b] = 1;
    const Block& blk = blocks[b];
    switch (blk.kind) {
      case BlockKind::kReturn:
        if (depth == 0) {
          fail(b, "return reachable with empty call stack "
                  "(call/return imbalance)");
        }
        // The continuation was already queued as the call site's successor.
        break;
      case BlockKind::kCall:
        visit(blk.targets[0], std::min(depth + 1, kMaxTrackedDepth));
        visit(blk.targets[1], depth);
        break;
      default:
        for (u32 t : blk.targets) visit(t, depth);
        break;
    }
  }
  for (usize b = 0; b < n; ++b) {
    if (!reachable[b]) fail(b, "unreachable from entry");
  }
  lowered_ = lower(blocks);
}

}  // namespace bigmap
