// Tests for the executor: the per-test-case map-operation pipeline, the
// lazily filled two-level virgin maps against eager ones, the resident
// footprint of the per-position buffers, and a seeded mix of every run kind
// on the flat scheme checked against a fresh map per input.
#include "fuzzer/executor.h"

#include <sys/mman.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <span>
#include <string>
#include <vector>

#include "core/flat_map.h"
#include "core/two_level_map.h"
#include "fuzzer/queue.h"
#include "target/generator.h"
#include "util/hash.h"
#include "util/rng.h"

namespace bigmap {
namespace {

// 0 branch(input[0]==7) -> 1 : 2 ; 1 bug ; 2 exit.
Program tiny_program() {
  Program p;
  p.name = "tiny";
  p.blocks.resize(3);
  p.blocks[0].kind = BlockKind::kBranch;
  p.blocks[0].pred = CmpPred::kEq;
  p.blocks[0].expected = 7;
  p.blocks[0].targets = {1, 2};
  p.blocks[1].kind = BlockKind::kBug;
  p.blocks[1].bug_id = 0;
  p.blocks[2].kind = BlockKind::kExit;
  p.num_bugs = 1;
  p.validate();
  return p;
}

MapOptions opts(usize size = 1u << 12) {
  MapOptions o;
  o.map_size = size;
  o.huge_pages = false;
  return o;
}

template <class Map>
struct ExecutorFixtureT {
  Program prog = tiny_program();
  BlockIdTable ids{3, 1u << 12, 77};
  Executor<Map, EdgeMetric> ex{prog, opts(), ids, 1u << 12};
  OpTimeBreakdown timing;
};

TEST(ExecutorTest, FirstRunIsInterestingSecondIsNot) {
  ExecutorFixtureT<FlatCoverageMap> f;
  auto out1 = f.ex.run(Input{0}, f.timing);
  EXPECT_EQ(out1.exec.outcome, ExecResult::Outcome::kOk);
  EXPECT_EQ(out1.new_bits, NewBits::kNewTuple);
  EXPECT_TRUE(out1.interesting());

  auto out2 = f.ex.run(Input{0}, f.timing);
  EXPECT_EQ(out2.new_bits, NewBits::kNone);
  EXPECT_FALSE(out2.interesting());
}

TEST(ExecutorTest, TwoLevelSameDecisions) {
  ExecutorFixtureT<TwoLevelCoverageMap> f;
  auto out1 = f.ex.run(Input{0}, f.timing);
  EXPECT_EQ(out1.new_bits, NewBits::kNewTuple);
  auto out2 = f.ex.run(Input{0}, f.timing);
  EXPECT_EQ(out2.new_bits, NewBits::kNone);
}

TEST(ExecutorTest, CrashGoesToCrashVirgin) {
  ExecutorFixtureT<TwoLevelCoverageMap> f;
  auto out = f.ex.run(Input{7}, f.timing);
  EXPECT_TRUE(out.exec.crashed());
  EXPECT_EQ(out.new_bits, NewBits::kNone);  // queue virgin untouched
  EXPECT_NE(out.outcome_new_bits, NewBits::kNone);  // crash virgin hit
  EXPECT_EQ(f.ex.virgin_queue().count_covered(), 0u);
  EXPECT_GT(f.ex.virgin_crash().count_covered(), 0u);

  // Same crash again: no longer new in the crash map.
  auto out2 = f.ex.run(Input{7}, f.timing);
  EXPECT_EQ(out2.outcome_new_bits, NewBits::kNone);
}

TEST(ExecutorTest, HangGoesToHangVirgin) {
  // Loop program with budget too small.
  Program p;
  p.blocks.resize(3);
  p.blocks[0].kind = BlockKind::kLoop;
  p.blocks[0].loop_max = 100;
  p.blocks[0].targets = {1, 2};
  p.blocks[1].kind = BlockKind::kFallthrough;
  p.blocks[1].targets = {0};
  p.blocks[2].kind = BlockKind::kExit;
  p.validate();

  BlockIdTable ids(3, 1u << 12, 5);
  Executor<FlatCoverageMap, EdgeMetric> ex(p, opts(), ids, /*budget=*/8);
  OpTimeBreakdown t;
  auto out = ex.run(Input{99}, t);
  EXPECT_TRUE(out.exec.hung());
  EXPECT_NE(out.outcome_new_bits, NewBits::kNone);
  EXPECT_GT(ex.virgin_hang().count_covered(), 0u);
}

TEST(ExecutorTest, HashComputedOnlyWhenInteresting) {
  ExecutorFixtureT<FlatCoverageMap> f;
  auto out1 = f.ex.run(Input{0}, f.timing);
  EXPECT_NE(out1.hash, 0u);  // crc32 of a non-empty trace is nonzero here
  auto out2 = f.ex.run(Input{0}, f.timing);
  EXPECT_EQ(out2.hash, 0u);  // not interesting: hash skipped
}

TEST(ExecutorTest, TimingCategoriesPopulated) {
  ExecutorFixtureT<FlatCoverageMap> f;
  for (int i = 0; i < 50; ++i) f.ex.run(Input{static_cast<u8>(i)}, f.timing);
  EXPECT_GT(f.timing.ns(MapOp::kExecution), 0u);
  EXPECT_GT(f.timing.ns(MapOp::kReset), 0u);
  // Merged classify+compare splits between the two categories.
  EXPECT_GT(f.timing.ns(MapOp::kClassify) + f.timing.ns(MapOp::kCompare),
            0u);
}

TEST(ExecutorTest, LastTraceSpanMatchesScheme) {
  ExecutorFixtureT<FlatCoverageMap> flat;
  flat.ex.run(Input{0}, flat.timing);
  EXPECT_EQ(flat.ex.last_trace().size(), flat.ex.map().map_size());

  ExecutorFixtureT<TwoLevelCoverageMap> two;
  two.ex.run(Input{0}, two.timing);
  EXPECT_EQ(two.ex.last_trace().size(), two.ex.map().used_key());
  EXPECT_LT(two.ex.last_trace().size(), two.ex.map().map_size());
}

TEST(ExecutorTest, UsedKeyGrowsOnlyOnNewEdges) {
  ExecutorFixtureT<TwoLevelCoverageMap> f;
  f.ex.run(Input{0}, f.timing);
  const u32 used1 = f.ex.map().used_key();
  f.ex.run(Input{0}, f.timing);
  EXPECT_EQ(f.ex.map().used_key(), used1);  // same path: no growth
  f.ex.run(Input{7}, f.timing);             // crash path: new edge
  EXPECT_GT(f.ex.map().used_key(), used1);
}

TEST(ExecutorTest, ContextMetricHooksEngage) {
  // Program with a call: 0 call(2 cont 1); 1 exit; 2 return.
  Program p;
  p.blocks.resize(3);
  p.blocks[0].kind = BlockKind::kCall;
  p.blocks[0].targets = {2, 1};
  p.blocks[1].kind = BlockKind::kExit;
  p.blocks[2].kind = BlockKind::kReturn;
  p.validate();

  BlockIdTable ids(3, 1u << 12, 5);
  Executor<TwoLevelCoverageMap, ContextMetric> ex(p, opts(), ids, 1u << 12);
  OpTimeBreakdown t;
  auto out = ex.run(Input{}, t);
  EXPECT_EQ(out.exec.outcome, ExecResult::Outcome::kOk);
  EXPECT_GT(ex.map().used_key(), 0u);
}

// A chain of `n` fallthrough blocks, then branch(input[0]==7) -> bug :
// exit. One run allocates about n condensed slots: several pages of every
// per-position buffer.
Program chain_program(u32 n) {
  Program p;
  p.name = "chain";
  p.blocks.resize(n + 3);
  for (u32 i = 0; i < n; ++i) {
    p.blocks[i].kind = BlockKind::kFallthrough;
    p.blocks[i].targets = {i + 1};
  }
  p.blocks[n].kind = BlockKind::kBranch;
  p.blocks[n].pred = CmpPred::kEq;
  p.blocks[n].expected = 7;
  p.blocks[n].targets = {n + 1, n + 2};
  p.blocks[n + 1].kind = BlockKind::kBug;
  p.blocks[n + 2].kind = BlockKind::kExit;
  p.num_bugs = 1;
  p.validate();
  return p;
}

constexpr u32 kChain = 12000;

// One step of a scripted run: traced or untraced, and what it observed,
// including the covered positions of all three virgin maps afterwards.
struct Observation {
  int outcome = 0;
  int new_bits = 0;
  int outcome_new_bits = 0;
  bool fired = false;
  usize covered[3] = {0, 0, 0};
  bool operator==(const Observation&) const = default;
};

// Runs `script` ('T' = traced run, 'U' = untraced run, each on the paired
// input) on an executor over the chain program.
template <class Map>
std::vector<Observation> run_script(const std::string& script,
                                    const std::vector<Input>& inputs,
                                    u64 budget) {
  const Program prog = chain_program(kChain);
  BlockIdTable ids(prog.blocks.size(), 1u << 16, 31);
  Executor<Map, EdgeMetric> ex(prog, opts(1u << 16), ids, budget);
  OpTimeBreakdown t;
  std::vector<Observation> out;
  for (usize i = 0; i < script.size(); ++i) {
    Observation o;
    if (script[i] == 'T') {
      const auto r = ex.run(inputs[i], t);
      o.outcome = static_cast<int>(r.exec.outcome);
      o.new_bits = static_cast<int>(r.new_bits);
      o.outcome_new_bits = static_cast<int>(r.outcome_new_bits);
    } else {
      const auto r = ex.run_untraced(inputs[i], t);
      o.outcome = static_cast<int>(r.exec.outcome);
      o.fired = r.fired;
    }
    o.covered[0] = ex.virgin_queue().count_covered();
    o.covered[1] = ex.virgin_crash().count_covered();
    o.covered[2] = ex.virgin_hang().count_covered();
    out.push_back(o);
  }
  if constexpr (Map::kScheme == MapScheme::kTwoLevel) {
    EXPECT_GT(ex.map().used_key(), 2 * 4096u);  // the prefix spans pages
  }
  return out;
}

// Two-level virgin maps are filled lazily as used_key grows; the flat
// scheme's are filled whole up front. Positions correspond one to one
// (both key a position by key & mask), so every verdict and every covered
// count must agree. A crash-only first exec grows used_key while comparing
// against the crash map alone; the untraced oracle then reads the queue
// map over those slots, and must find them virgin.
TEST(ExecutorTest, LazyVirginMatchesEagerAfterCrashOnlyGrowth) {
  const Input crash{7}, ok{0};
  const std::string script = "TUUTUUT";
  const std::vector<Input> inputs = {crash, crash, ok, ok, ok, crash, crash};
  const auto eager = run_script<FlatCoverageMap>(script, inputs, 1u << 16);
  const auto lazy = run_script<TwoLevelCoverageMap>(script, inputs, 1u << 16);
  ASSERT_EQ(lazy.size(), eager.size());
  for (usize i = 0; i < eager.size(); ++i) {
    EXPECT_EQ(lazy[i], eager[i]) << "step " << i;
  }
  EXPECT_TRUE(eager[1].fired);  // the crash path is new to the queue map
  EXPECT_FALSE(eager[4].fired);
}

// The same with hang-only growth: a budget that ends the run mid-chain.
TEST(ExecutorTest, LazyVirginMatchesEagerAfterHangOnlyGrowth) {
  const Input ok{0};
  const std::string script = "TUTU";
  const std::vector<Input> inputs(script.size(), ok);
  const u64 budget = kChain * 3 / 4;
  const auto eager = run_script<FlatCoverageMap>(script, inputs, budget);
  const auto lazy = run_script<TwoLevelCoverageMap>(script, inputs, budget);
  ASSERT_EQ(lazy.size(), eager.size());
  for (usize i = 0; i < eager.size(); ++i) {
    EXPECT_EQ(lazy[i], eager[i]) << "step " << i;
  }
  EXPECT_EQ(eager[0].outcome, static_cast<int>(ExecResult::Outcome::kHang));
  EXPECT_TRUE(eager[1].fired);
}

// --- residency --------------------------------------------------------------

// On a two-level map every per-position buffer except the index keeps
// resident pages only over the [0, used_key) prefix a campaign touches.
// Counted with mincore(2) on the process's own buffers.

constexpr usize kPage = 4096;

usize resident_pages(std::span<const u8> buf) {
  const auto start = reinterpret_cast<uintptr_t>(buf.data());
  EXPECT_EQ(start % kPage, 0u);
  const usize pages = (buf.size() + kPage - 1) / kPage;
  std::vector<unsigned char> vec(pages);
  EXPECT_EQ(::mincore(reinterpret_cast<void*>(start), pages * kPage,
                      vec.data()),
            0);
  usize n = 0;
  for (unsigned char v : vec) n += v & 1;
  return n;
}

// With transparent huge pages on for every mapping, the kernel may back
// the first touch of any buffer with a 2 MB page.
bool thp_always() {
  std::ifstream f("/sys/kernel/mm/transparent_hugepage/enabled");
  std::string line;
  return std::getline(f, line) && line.find("[always]") != std::string::npos;
}

TEST(ResidencyTest, TwoLevelBuffersFollowUsedKey) {
  if (thp_always()) GTEST_SKIP() << "THP is 'always' on this host";
  const Program prog = chain_program(9000);
  MapOptions o;
  o.map_size = 8u << 20;
  o.huge_pages = false;
  BlockIdTable ids(prog.blocks.size(), o.map_size, 13);
  Executor<TwoLevelCoverageMap, EdgeMetric> ex(prog, o, ids, 1u << 16);
  SeedQueue queue(ex.virgin_positions());
  OpTimeBreakdown t;
  for (const Input& in : {Input{0}, Input{7}, Input{0}, Input{3}}) {
    const auto out = ex.run(in, t);
    if (out.interesting()) {
      const usize idx = queue.add(in, out.exec_ns, out.hash, 0);
      queue.update_scores(idx, ex.last_trace());
    }
    ex.run_untraced(in, t);
  }
  queue.cull();

  const usize used = ex.map().used_key();
  ASSERT_GT(used, 2 * kPage);
  ASSERT_GT(queue.top_rated_positions(), 0u);
  const auto bound = [used](usize width) {
    return (used * width + kPage - 1) / kPage + 1;
  };
  const auto virgin = [](const VirginMap& v) {
    return std::span<const u8>(v.data(), v.size());
  };
  EXPECT_LE(resident_pages(ex.map().full_coverage()), bound(1));
  EXPECT_LE(resident_pages(virgin(ex.virgin_queue())), bound(1));
  EXPECT_LE(resident_pages(virgin(ex.virgin_crash())), bound(1));
  EXPECT_LE(resident_pages(virgin(ex.virgin_hang())), bound(1));
  EXPECT_LE(resident_pages(queue.top_entry_pages()), bound(sizeof(u32)));
  // The buffers are real: their used prefix is resident.
  EXPECT_GE(resident_pages(virgin(ex.virgin_queue())), used / kPage);
  EXPECT_GE(resident_pages(queue.top_entry_pages()),
            used * sizeof(u32) / kPage);
}

// The index is a hashed table sized by the keys it holds, not a 4-byte
// entry per map position: on a 32 MB map a few thousand keys keep 16-32 B
// per key resident (its load stays between 1/4 and 1/2), where a direct
// array would hold 128 MB.
TEST(ResidencyTest, TwoLevelIndexFollowsKeys) {
  if (thp_always()) GTEST_SKIP() << "THP is 'always' on this host";
  MapOptions o;
  o.map_size = 32u << 20;
  o.huge_pages = false;
  TwoLevelCoverageMap m(o);
  Xoshiro256 rng(31);
  while (m.used_key() < 3000) m.update(static_cast<u32>(rng.next()));
  const usize keys = m.used_key();
  const usize resident = resident_pages(m.index_reservation());
  EXPECT_LE(resident, (keys * 32 + kPage - 1) / kPage + 1);
  EXPECT_GE(resident, keys * 16 / kPage);
}

TEST(ExecutorTest, IdenticalPathsIdenticalHashesAcrossUsedKeyGrowth) {
  // End-to-end validation of the §IV-D hash rule through the executor.
  GeneratorParams gp;
  gp.seed = 2;
  gp.live_blocks = 200;
  auto target = generate_target(gp);
  BlockIdTable ids(target.program.blocks.size(), 1u << 16, 9);
  Executor<TwoLevelCoverageMap, EdgeMetric> ex(target.program, opts(1u << 16),
                                               ids, 1u << 14);
  OpTimeBreakdown t;

  const Input a(64, 0x11);
  const Input b(64, 0x77);  // different path: grows used_key
  auto out_a1 = ex.run(a, t);
  ex.run(b, t);
  auto out_a2 = ex.run(a, t);
  // a2 is not interesting, so its hash field is 0; recompute directly.
  EXPECT_FALSE(out_a2.interesting());
  ex.run(a, t);
  EXPECT_EQ(ex.map().hash(), out_a1.hash);
}

// 0 branch(input[0]==7) -> 1 : 2 ; 1 bug ; 2 loop(input[1]) -> 3 : 4 ;
// 3 fallthrough -> 2 ; 4 branch(input[2] < 0x80) -> 5 : 6 ; 5, 6 exit.
// input[1] sets the loop edges' hit counts, up to 255 (every AFL bucket);
// past about 150 iterations the run exhausts kSequenceBudget and hangs.
Program loop_program() {
  Program p;
  p.name = "loop";
  p.blocks.resize(7);
  p.blocks[0].kind = BlockKind::kBranch;
  p.blocks[0].pred = CmpPred::kEq;
  p.blocks[0].expected = 7;
  p.blocks[0].targets = {1, 2};
  p.blocks[1].kind = BlockKind::kBug;
  p.blocks[2].kind = BlockKind::kLoop;
  p.blocks[2].input_offset = 1;
  p.blocks[2].loop_max = 255;
  p.blocks[2].targets = {3, 4};
  p.blocks[3].kind = BlockKind::kFallthrough;
  p.blocks[3].targets = {2};
  p.blocks[4].kind = BlockKind::kBranch;
  p.blocks[4].pred = CmpPred::kLt;
  p.blocks[4].input_offset = 2;
  p.blocks[4].expected = 0x80;
  p.blocks[4].targets = {5, 6};
  p.blocks[5].kind = BlockKind::kExit;
  p.blocks[6].kind = BlockKind::kExit;
  p.num_bugs = 1;
  p.validate();
  return p;
}

constexpr usize kSequenceMap = 1u << 16;
constexpr u64 kSequenceBudget = 300;

// What a fresh map records for one input: the outcome, the classified
// trace and its CRC-32.
struct FreshRun {
  ExecResult::Outcome outcome;
  std::vector<u8> trace;
  u32 hash;
};

FreshRun fresh_run(const Program& prog, const BlockIdTable& ids,
                   const Input& in) {
  FlatCoverageMap m(opts(kSequenceMap));
  EdgeMetric metric(ids);
  Interpreter interp(kSequenceBudget);
  metric.begin_execution();
  const ExecResult r =
      interp.run(prog, in, [&](u32 b) { m.update(metric.visit(b)); });
  m.classify();
  return {r.outcome, {m.trace().begin(), m.trace().end()}, crc32(m.trace())};
}

// A seeded mix of run, run_for_hash, run_untraced (ok, crashing and
// hanging inputs) and outside map().update() writes on one flat executor.
// Every hash and every last_trace() must be what a fresh map gives: a
// reset the executor skips after a trim pass must never leave a stale
// byte behind.
TEST(ExecutorSequenceTest, FlatHashesAndTracesMatchAFreshMap) {
  const Program prog = loop_program();
  BlockIdTable ids(prog.blocks.size(), kSequenceMap, 13);
  Executor<FlatCoverageMap, EdgeMetric> ex(prog, opts(kSequenceMap), ids,
                                           kSequenceBudget);
  OpTimeBreakdown t;
  // What last_trace() must read: the last run()'s classified trace, zero
  // after a run_for_hash, plus the outside writes since.
  std::vector<u8> expect(kSequenceMap, 0);
  for (const u64 seed : {1u, 2u, 3u}) {
    Xoshiro256 rng(seed);
    for (int step = 0; step < 300; ++step) {
      const Input in{static_cast<u8>(rng.chance(1, 6) ? 7 : rng.below(7)),
                     static_cast<u8>(rng.chance(1, 4) ? rng.between(160, 255)
                                                      : rng.below(140)),
                     static_cast<u8>(rng.next())};
      const FreshRun want = fresh_run(prog, ids, in);
      const u32 kind = rng.below(4);
      SCOPED_TRACE("seed " + std::to_string(seed) + " step " +
                   std::to_string(step) + " kind " + std::to_string(kind));
      switch (kind) {
        case 0: {
          const auto out = ex.run(in, t);
          ASSERT_EQ(out.exec.outcome, want.outcome);
          if (out.interesting()) {
            ASSERT_EQ(out.hash, want.hash);
          }
          expect = want.trace;
          break;
        }
        case 1: {
          const auto out = ex.run_for_hash(in, t);
          ASSERT_EQ(out.exec.outcome, want.outcome);
          ASSERT_EQ(out.hash, want.hash);
          expect.assign(kSequenceMap, 0);
          break;
        }
        case 2: {
          const auto out = ex.run_untraced(in, t);
          ASSERT_EQ(out.exec.outcome, want.outcome);
          break;
        }
        default: {
          const u32 key = static_cast<u32>(rng.next());
          ex.map().update(key);
          ++expect[key & (kSequenceMap - 1)];
          break;
        }
      }
      const std::span<const u8> got = ex.last_trace();
      ASSERT_TRUE(std::equal(got.begin(), got.end(), expect.begin(),
                             expect.end()));
    }
  }
}

}  // namespace
}  // namespace bigmap
