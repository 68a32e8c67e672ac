// laf-intel-style compare splitting (DESIGN.md §2, Table III).
//
// Real laf-intel is an LLVM pass that rewrites multi-byte comparisons into
// single-byte cascades so a coverage-guided fuzzer gets partial-progress
// feedback on magic-value gates. This pass performs the same rewrite on our
// synthetic CFGs:
//
//   - kBranch kEq/kNe with cmp_width > 1  →  per-byte equality cascade
//   - kSwitch                             →  chain of (split) equality gates
//   - kStrcmp                             →  per-byte equality cascade
//
// The transformation is semantics-preserving: for any input, the
// transformed program follows the same macro control flow and produces the
// same outcome (kOk / kCrash with the same bug_id / kHang, step budget
// permitting) — it only multiplies the number of blocks and therefore the
// static and discoverable edges, which is precisely its effect on the map.
#pragma once

#include "target/program.h"
#include "util/types.h"

namespace bigmap {

struct LafIntelStats {
  usize blocks_before = 0;
  usize blocks_after = 0;
  usize static_edges_before = 0;
  usize static_edges_after = 0;
  usize split_compares = 0;  // wide kEq/kNe branches split into cascades
  usize split_switches = 0;  // switches lowered to equality chains
  usize split_strgates = 0;  // strcmp gates expanded byte-wise
};

// The returned program is validated (and so runnable).
Program apply_laf_intel(const Program& src, LafIntelStats* stats = nullptr);

}  // namespace bigmap
