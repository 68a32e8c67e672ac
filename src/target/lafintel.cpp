#include "target/lafintel.h"

#include <utility>
#include <vector>

namespace bigmap {

namespace {

bool splittable_branch(const Block& b) {
  return b.kind == BlockKind::kBranch && b.cmp_width > 1 &&
         (b.pred == CmpPred::kEq || b.pred == CmpPred::kNe);
}

usize expansion_size(const Block& b) {
  if (splittable_branch(b)) return b.cmp_width;
  if (b.kind == BlockKind::kSwitch) {
    const usize per_case = b.cmp_width > 1 ? b.cmp_width : 1;
    return b.cases.size() * per_case;
  }
  if (b.kind == BlockKind::kStrcmp) return b.str.size();
  return 1;
}

u8 byte_of(u64 v, u32 j) { return static_cast<u8>(v >> (8 * j)); }

// A compared constant with bits above the read width can never match the
// (zero-extended) read value; the cascade must not "match" on the low bytes
// alone.
bool value_fits(u64 v, u32 width) {
  return width >= 8 || (v >> (8 * width)) == 0;
}

Block eq_byte_gate(u32 input_offset, u8 expected, u32 on_match,
                   u32 on_mismatch) {
  Block nb;
  nb.kind = BlockKind::kBranch;
  nb.pred = CmpPred::kEq;
  nb.cmp_width = 1;
  nb.input_offset = input_offset;
  nb.expected = expected;
  nb.targets = {on_match, on_mismatch};
  return nb;
}

}  // namespace

Program apply_laf_intel(const Program& src, LafIntelStats* stats) {
  // Pass 1: each source block's expansion start in the output program.
  std::vector<u32> base(src.blocks.size());
  u32 acc = 0;
  for (usize i = 0; i < src.blocks.size(); ++i) {
    base[i] = acc;
    acc += static_cast<u32>(expansion_size(src.blocks[i]));
  }

  LafIntelStats st;
  st.blocks_before = src.blocks.size();
  st.static_edges_before = src.static_edge_count();

  Program out;
  out.name = src.name + "+laf";
  out.num_bugs = src.num_bugs;
  out.nominal_input_size = src.nominal_input_size;
  out.blocks.reserve(acc);

  auto map = [&](u32 old) { return base[old]; };

  // Pass 2: emit replacements; cross-block edges are remapped through
  // `base`, cascade-internal edges are computed positionally.
  for (usize i = 0; i < src.blocks.size(); ++i) {
    const Block& b = src.blocks[i];
    if (splittable_branch(b)) {
      ++st.split_compares;
      const u32 taken = map(b.targets[0]);
      const u32 fall = map(b.targets[1]);
      const u32 on_mismatch = b.pred == CmpPred::kEq ? fall : taken;
      u32 on_all_eq = b.pred == CmpPred::kEq ? taken : fall;
      if (!value_fits(b.expected, b.cmp_width)) on_all_eq = on_mismatch;
      for (u32 j = 0; j < b.cmp_width; ++j) {
        const u32 next =
            (j + 1 < b.cmp_width) ? base[i] + j + 1 : on_all_eq;
        out.blocks.push_back(
            eq_byte_gate(b.input_offset + j, byte_of(b.expected, j), next,
                         on_mismatch));
      }
    } else if (b.kind == BlockKind::kSwitch) {
      ++st.split_switches;
      const u32 def = map(b.targets.back());
      const u32 w = b.cmp_width > 1 ? b.cmp_width : 1;
      u32 pos = base[i];
      for (usize ci = 0; ci < b.cases.size(); ++ci) {
        const bool last_case = ci + 1 == b.cases.size();
        const u32 after = last_case ? def : pos + w;
        u32 case_target = map(b.targets[ci]);
        if (!value_fits(b.cases[ci], w)) case_target = after;
        for (u32 j = 0; j < w; ++j) {
          const u32 on_match = (j + 1 < w) ? pos + j + 1 : case_target;
          out.blocks.push_back(eq_byte_gate(
              b.input_offset + j, byte_of(b.cases[ci], j), on_match, after));
        }
        pos += w;
      }
    } else if (b.kind == BlockKind::kStrcmp) {
      ++st.split_strgates;
      const u32 equal = map(b.targets[0]);
      const u32 not_equal = map(b.targets[1]);
      for (usize j = 0; j < b.str.size(); ++j) {
        const u32 on_match =
            (j + 1 < b.str.size()) ? base[i] + static_cast<u32>(j) + 1 : equal;
        out.blocks.push_back(
            eq_byte_gate(b.input_offset + static_cast<u32>(j), b.str[j],
                         on_match, not_equal));
      }
    } else {
      Block nb = b;
      for (u32& t : nb.targets) t = map(t);
      out.blocks.push_back(std::move(nb));
    }
  }

  st.blocks_after = out.blocks.size();
  st.static_edges_after = out.static_edge_count();
  if (stats) *stats = st;
  out.validate();
  return out;
}

}  // namespace bigmap
