#include "target/generator.h"

#include <algorithm>
#include <utility>

#include "util/rng.h"

namespace bigmap {

namespace {

constexpr u32 kPlaceholder = 0xffffffffu;

// Builds one Program from GeneratorParams. The CFG is a linear spine of
// decision gates; each gate's "continue" edge is deferred and patched to
// the next gate's entry (finally to the exit block), so every gate lies on
// every execution path and regions always rejoin the spine.
class Builder {
 public:
  explicit Builder(const GeneratorParams& params)
      : p_(params), rng_(derive_seed(params)) {}

  GeneratedTarget build() {
    out_.program.name = p_.name;
    input_size_ = p_.input_size ? p_.input_size : derive_input_size();
    out_.program.nominal_input_size = input_size_;

    const u32 live_budget = std::max(p_.live_blocks, 8u);
    const u32 est_gates = std::max(1u, live_budget / 4);
    const u32 bug_spacing =
        p_.num_bugs ? std::max(1u, est_gates / (p_.num_bugs + 1)) : 0;

    dead_remaining_ = p_.dead_blocks;
    while (live_block_count() < live_budget) {
      if (p_.num_bugs && bugs_planted_ < p_.num_bugs &&
          gates_done_ >= (bugs_planted_ + 1) * bug_spacing) {
        emit_bug_chain();
      }
      emit_gate();
      maybe_emit_dead_region();
      ++gates_done_;
    }
    while (bugs_planted_ < p_.num_bugs) emit_bug_chain();

    const u32 exit = add_block(BlockKind::kExit);
    patch_pending(exit);
    build_functions_and_patch_calls();

    out_.program.num_bugs = bugs_planted_;
    return std::move(out_);
  }

 private:
  static u64 derive_seed(const GeneratorParams& params) {
    u64 h = 0xcbf29ce484222325ULL;
    for (char c : params.name) {
      h = (h ^ static_cast<u8>(c)) * 0x100000001b3ULL;
    }
    SplitMix64 sm(h ^ params.seed);
    return sm.next();
  }

  u32 derive_input_size() const {
    const u32 raw = (std::max(p_.live_blocks, 8u) / 6 + 15) & ~15u;
    return std::clamp(raw, 32u, 1024u);
  }

  std::vector<Block>& blocks() { return out_.program.blocks; }

  u32 live_block_count() const {
    return static_cast<u32>(out_.program.blocks.size()) - dead_emitted_;
  }

  u32 add_block(BlockKind kind) {
    blocks().emplace_back();
    blocks().back().kind = kind;
    return static_cast<u32>(blocks().size() - 1);
  }

  // Rotating input-offset cursor: gates read mostly disjoint byte ranges
  // until the cursor wraps, which keeps seed hints composable.
  u32 next_offset(u32 width) {
    if (cursor_ + width > input_size_) cursor_ = 0;
    const u32 off = cursor_;
    cursor_ += width;
    return off;
  }

  void defer(u32 block, u32 slot) { pending_.emplace_back(block, slot); }

  void patch_pending(u32 to) {
    for (auto [b, s] : pending_) blocks()[b].targets[s] = to;
    pending_.clear();
  }

  // Every gate emitter calls this first: all dangling "continue down the
  // spine" edges from the previous gate are wired to the block about to be
  // created, which keeps the spine linear.
  void start_gate() { patch_pending(static_cast<u32>(blocks().size())); }

  u8 nonzero_byte() { return static_cast<u8>(rng_.between(1, 255)); }

  u64 nonzero_value(u32 width) {
    u64 v = 0;
    for (u32 i = 0; i < width; ++i) {
      v |= static_cast<u64>(nonzero_byte()) << (8 * i);
    }
    return v;
  }

  static std::vector<u8> value_bytes(u64 v, u32 width) {
    std::vector<u8> bytes(width);
    for (u32 i = 0; i < width; ++i) bytes[i] = static_cast<u8>(v >> (8 * i));
    return bytes;
  }

  void set_easy_branch(u32 idx) {
    Block& b = blocks()[idx];
    b.kind = BlockKind::kBranch;
    b.cmp_width = 1;
    b.input_offset = next_offset(1);
    b.pred = rng_.chance(1, 2) ? CmpPred::kLt : CmpPred::kGe;
    b.expected = rng_.between(32, 224);
  }

  // Chain of `n` fallthrough blocks; the tail's successor is deferred to
  // the next spine gate. Returns the chain entry.
  u32 make_chain(u32 n) {
    u32 entry = kPlaceholder;
    u32 prev = kPlaceholder;
    for (u32 i = 0; i < std::max(n, 1u); ++i) {
      const u32 blk = add_block(BlockKind::kFallthrough);
      blocks()[blk].targets = {kPlaceholder};
      if (prev == kPlaceholder) {
        entry = blk;
      } else {
        blocks()[prev].targets[0] = blk;
      }
      prev = blk;
    }
    defer(prev, 0);
    return entry;
  }

  // Taken region behind a gate: a filler chain, sometimes split by an easy
  // branch for edge diversity. All tails rejoin the spine.
  u32 make_region(u32 n) {
    n = std::max(n, 1u);
    if (n >= 4 && rng_.chance(1, 2)) {
      const u32 br = add_block(BlockKind::kBranch);
      set_easy_branch(br);
      const u32 left = make_chain((n - 1) / 2);
      const u32 right = make_chain(n - 1 - (n - 1) / 2);
      blocks()[br].targets = {left, right};
      return br;
    }
    return make_chain(n);
  }

  void emit_gate() {
    double r = rng_.unit();
    if ((r -= p_.frac_loop) < 0) return emit_loop_gate();
    if ((r -= p_.frac_switch) < 0) return emit_switch_gate();
    if ((r -= p_.frac_strcmp) < 0) return emit_strcmp_gate();
    if ((r -= p_.frac_call) < 0 && p_.num_functions > 0) {
      return emit_call_gate();
    }
    emit_branch_gate();
  }

  void emit_branch_gate() {
    start_gate();
    const bool wide = rng_.unit() < p_.frac_wide_cmp;
    static constexpr u32 kWidths[3] = {2, 4, 8};
    const u32 width = wide ? kWidths[rng_.below(3)] : 1;
    const bool hard = rng_.unit() < p_.frac_hard_eq;
    const u32 off = next_offset(width);

    const u32 g = add_block(BlockKind::kBranch);
    {
      Block& b = blocks()[g];
      b.cmp_width = static_cast<u8>(width);
      b.input_offset = off;
      if (hard) {
        b.pred = CmpPred::kEq;
        b.expected = nonzero_value(width);
      } else {
        static constexpr CmpPred kEasy[4] = {CmpPred::kLt, CmpPred::kLe,
                                             CmpPred::kGt, CmpPred::kGe};
        b.pred = kEasy[rng_.below(4)];
        b.expected = width == 1 ? rng_.between(32, 224) : nonzero_value(width);
      }
    }
    const u64 expected = blocks()[g].expected;
    if (hard) {
      out_.hints.push_back({off, value_bytes(expected, width)});
      if (width > 1) out_.tokens.push_back(value_bytes(expected, width));
    }
    const u32 region = make_region(rng_.between(1, std::max(p_.region_blocks, 1u)));
    blocks()[g].targets = {region, kPlaceholder};
    defer(g, 1);
  }

  void emit_switch_gate() {
    start_gate();
    const u32 width = rng_.chance(1, 3) ? 2 : 1;
    const u32 off = next_offset(width);
    const u32 ncases = rng_.between(2, 4);
    std::vector<u64> values;
    while (values.size() < ncases) {
      const u64 v = nonzero_value(width);
      if (std::find(values.begin(), values.end(), v) == values.end()) {
        values.push_back(v);
      }
    }

    const u32 g = add_block(BlockKind::kSwitch);
    {
      Block& b = blocks()[g];
      b.cmp_width = static_cast<u8>(width);
      b.input_offset = off;
      b.cases = values;
    }
    std::vector<u32> targets;
    for (u32 i = 0; i < ncases; ++i) {
      targets.push_back(make_chain(rng_.between(1, 2)));
    }
    targets.push_back(kPlaceholder);  // default
    blocks()[g].targets = targets;
    defer(g, ncases);

    out_.hints.push_back({off, value_bytes(values[0], width)});
    if (width > 1) {
      for (u64 v : values) out_.tokens.push_back(value_bytes(v, width));
    }
  }

  void emit_strcmp_gate() {
    start_gate();
    const u32 len = rng_.between(3, 8);
    const u32 off = next_offset(len);
    std::vector<u8> str(len);
    for (auto& c : str) c = nonzero_byte();

    const u32 g = add_block(BlockKind::kStrcmp);
    {
      Block& b = blocks()[g];
      b.input_offset = off;
      b.str = str;
    }
    const u32 region = make_region(rng_.between(1, std::max(p_.region_blocks, 1u)));
    blocks()[g].targets = {region, kPlaceholder};
    defer(g, 1);

    out_.tokens.push_back(str);
    out_.hints.push_back({off, std::move(str)});
  }

  void emit_loop_gate() {
    start_gate();
    const u32 off = next_offset(1);
    const u32 g = add_block(BlockKind::kLoop);
    {
      Block& b = blocks()[g];
      b.input_offset = off;
      b.loop_max = std::max(p_.loop_max, 1u);
    }
    // Loop body: short chain whose tail jumps back to the loop head.
    const u32 body_len = rng_.between(1, 2);
    u32 entry = kPlaceholder;
    u32 prev = kPlaceholder;
    for (u32 i = 0; i < body_len; ++i) {
      const u32 blk = add_block(BlockKind::kFallthrough);
      blocks()[blk].targets = {g};
      if (prev != kPlaceholder) blocks()[prev].targets[0] = blk;
      if (entry == kPlaceholder) entry = blk;
      prev = blk;
    }
    blocks()[g].targets = {entry, kPlaceholder};
    defer(g, 1);
  }

  void emit_call_gate() {
    start_gate();
    const u32 f = call_count_ < p_.num_functions
                      ? call_count_
                      : rng_.below(p_.num_functions);
    ++call_count_;
    const u32 g = add_block(BlockKind::kCall);
    blocks()[g].targets = {kPlaceholder, kPlaceholder};
    call_sites_.emplace_back(g, f);
    defer(g, 1);
  }

  // Regions behind 8-byte magic equality gates. The constants are kept out
  // of both the dictionary and the seed hints: without compare splitting
  // these edges are effectively undiscoverable, which is exactly the
  // laf-intel experiment's setup.
  void maybe_emit_dead_region() {
    if (dead_remaining_ == 0 || !rng_.chance(1, 3)) return;
    start_gate();
    const u32 before = static_cast<u32>(blocks().size());
    const u32 off = next_offset(8);
    const u32 g = add_block(BlockKind::kBranch);
    {
      Block& b = blocks()[g];
      b.cmp_width = 8;
      b.input_offset = off;
      b.pred = CmpPred::kEq;
      b.expected = nonzero_value(8);
    }
    const u32 want = std::min(dead_remaining_, rng_.between(2, p_.region_blocks + 2));
    const u32 region = make_region(want);
    blocks()[g].targets = {region, kPlaceholder};
    defer(g, 1);
    const u32 emitted = static_cast<u32>(blocks().size()) - before;
    dead_emitted_ += emitted;
    dead_remaining_ -= std::min(dead_remaining_, emitted);
  }

  // A planted fault: a chain of single-byte equality gates ending in kBug.
  // Falling off any chain gate continues down the spine, so the bug region
  // never blocks ordinary execution.
  void emit_bug_chain() {
    start_gate();
    const u32 depth = rng_.between(std::max(p_.bug_min_depth, 1u),
                                   std::max(p_.bug_max_depth, p_.bug_min_depth));
    std::vector<GeneratedTarget::SeedHint> recipe;
    u32 prev = kPlaceholder;
    for (u32 j = 0; j < depth; ++j) {
      const u32 off = next_offset(1);
      const u8 magic = nonzero_byte();
      const u32 g = add_block(BlockKind::kBranch);
      {
        Block& b = blocks()[g];
        b.pred = CmpPred::kEq;
        b.cmp_width = 1;
        b.input_offset = off;
        b.expected = magic;
        b.targets = {kPlaceholder, kPlaceholder};
      }
      defer(g, 1);  // chain miss: continue down the spine
      if (prev != kPlaceholder) blocks()[prev].targets[0] = g;
      recipe.push_back({off, {magic}});
      prev = g;
    }
    const u32 bug = add_block(BlockKind::kBug);
    blocks()[bug].bug_id = bugs_planted_;
    blocks()[prev].targets[0] = bug;
    out_.bug_recipes.push_back(std::move(recipe));
    ++bugs_planted_;
  }

  // Functions are emitted once the spine is closed, then every call site is
  // patched to its callee's entry. Only functions actually called are built
  // (an uncalled function would be unreachable and fail validate()).
  void build_functions_and_patch_calls() {
    if (call_sites_.empty()) return;
    u32 max_f = 0;
    for (auto [site, f] : call_sites_) max_f = std::max(max_f, f);
    std::vector<u32> entries(max_f + 1, kPlaceholder);
    for (auto [site, f] : call_sites_) {
      if (entries[f] == kPlaceholder) entries[f] = build_function();
      blocks()[site].targets[0] = entries[f];
    }
  }

  u32 build_function() {
    const u32 entry = add_block(BlockKind::kFallthrough);
    const u32 br = add_block(BlockKind::kBranch);
    set_easy_branch(br);
    const u32 a = add_block(BlockKind::kFallthrough);
    const u32 b = add_block(BlockKind::kFallthrough);
    const u32 ret = add_block(BlockKind::kReturn);
    blocks()[entry].targets = {br};
    blocks()[br].targets = {a, b};
    blocks()[a].targets = {ret};
    blocks()[b].targets = {ret};
    return entry;
  }

  const GeneratorParams& p_;
  Xoshiro256 rng_;
  GeneratedTarget out_;
  u32 input_size_ = 0;
  u32 cursor_ = 0;
  u32 gates_done_ = 0;
  u32 bugs_planted_ = 0;
  u32 dead_remaining_ = 0;
  u32 dead_emitted_ = 0;
  u32 call_count_ = 0;
  std::vector<std::pair<u32, u32>> pending_;     // (block, target slot)
  std::vector<std::pair<u32, u32>> call_sites_;  // (block, function index)
};

}  // namespace

std::vector<u8> GeneratedTarget::crashing_input(u32 bug_id) const {
  std::vector<u8> input(program.nominal_input_size, 0);
  if (bug_id < bug_recipes.size()) {
    for (const SeedHint& hint : bug_recipes[bug_id]) {
      for (usize j = 0; j < hint.bytes.size(); ++j) {
        if (hint.offset + j < input.size()) {
          input[hint.offset + j] = hint.bytes[j];
        }
      }
    }
  }
  return input;
}

GeneratedTarget generate_target(const GeneratorParams& params) {
  GeneratedTarget target = Builder(params).build();
  target.program.validate();
  return target;
}

std::vector<std::vector<u8>> make_seed_corpus(const GeneratedTarget& target,
                                              usize count, u64 seed) {
  SplitMix64 sm(seed ^ 0x5eedc0deULL);
  Xoshiro256 rng(sm.next());
  std::vector<std::vector<u8>> corpus;
  corpus.reserve(count);
  const usize n = target.program.nominal_input_size;
  for (usize i = 0; i < count; ++i) {
    std::vector<u8> input(n);
    for (auto& b : input) b = static_cast<u8>(rng.next());
    // The first seed is pure noise; later seeds plant a random quarter of
    // the gate hints so the corpus starts with some coverage diversity.
    if (i > 0) {
      for (const auto& hint : target.hints) {
        if (!rng.chance(1, 4)) continue;
        for (usize j = 0; j < hint.bytes.size(); ++j) {
          if (hint.offset + j < input.size()) {
            input[hint.offset + j] = hint.bytes[j];
          }
        }
      }
    }
    corpus.push_back(std::move(input));
  }
  return corpus;
}

}  // namespace bigmap
