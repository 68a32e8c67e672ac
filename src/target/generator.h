// Seeded synthetic-benchmark generator.
//
// Builds Programs that exercise a fuzzer the way real instrumented targets
// do: a linear "spine" of decision gates (branches, switches, strcmp-style
// string gates, input-bounded loops, calls into shared subroutines), taken
// regions of filler blocks behind each gate, rare multi-byte equality gates
// (FairFuzz-style rare branches; laf-intel's raw material), optional dead
// regions locked behind 8-byte magic compares, and planted kBug fault sites
// reached through short chains of single-byte magic gates.
//
// Everything is derived from GeneratorParams::seed through the repo's
// deterministic RNG: the same params always produce the identical Program,
// token dictionary, and seed corpus.
#pragma once

#include <string>
#include <vector>

#include "target/program.h"
#include "util/types.h"

namespace bigmap {

struct GeneratorParams {
  std::string name = "synthetic";
  u64 seed = 1;
  // Approximate number of blocks reachable with ordinary inputs.
  u32 live_blocks = 256;
  // Block budget for regions behind undiscoverable-without-splitting 8-byte
  // magic gates (what laf-intel unlocks).
  u32 dead_blocks = 0;
  u32 num_bugs = 0;
  // Each bug sits behind a chain of [bug_min_depth, bug_max_depth]
  // single-byte equality gates.
  u32 bug_min_depth = 1;
  u32 bug_max_depth = 2;
  // 0 derives a size from live_blocks.
  u32 input_size = 0;

  // Shape knobs: fractions of decision gates of each flavour.
  double frac_wide_cmp = 0.15;  // 2/4/8-byte compares among branch gates
  double frac_hard_eq = 0.35;   // equality-vs-magic among branch gates
  double frac_switch = 0.08;
  double frac_strcmp = 0.06;
  double frac_loop = 0.10;
  double frac_call = 0.12;
  u32 num_functions = 4;
  // Max filler blocks in a gate's taken region.
  u32 region_blocks = 5;
  // Iteration cap for generated kLoop gates.
  u32 loop_max = 8;
};

struct GeneratedTarget {
  Program program;

  // AFL-dictionary-style tokens: the multi-byte magic constants and strings
  // the program compares against.
  std::vector<std::vector<u8>> tokens;

  // A correct (offset, bytes) assignment for one gate; seeds plant a random
  // subset of these. Bug-chain bytes are deliberately excluded so seed
  // corpora do not crash out of the box.
  struct SeedHint {
    u32 offset = 0;
    std::vector<u8> bytes;
  };
  std::vector<SeedHint> hints;

  // Per-bug (offset, byte) recipes; see crashing_input().
  std::vector<std::vector<SeedHint>> bug_recipes;

  const std::vector<std::vector<u8>>& dictionary() const noexcept {
    return tokens;
  }

  // A zero-filled input with bug `bug_id`'s chain bytes planted — reaches
  // and fires that planted fault deterministically. Ground truth for crash
  // tests and triage experiments.
  std::vector<u8> crashing_input(u32 bug_id) const;
};

// The returned program is validated (and so runnable).
GeneratedTarget generate_target(const GeneratorParams& params);

// Deterministic seed corpus: `count` inputs of the program's nominal size,
// random bytes plus a sprinkling of correct gate hints.
std::vector<std::vector<u8>> make_seed_corpus(const GeneratedTarget& target,
                                              usize count, u64 seed);

}  // namespace bigmap
