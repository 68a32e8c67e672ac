// Coverage-guided tracing oracle tests: breakpoint derivation, retention
// across aborted re-executions, exact-conservativeness against the traced
// pipeline, untraced runs reporting the traced run's exact ExecResult, the
// scheme policy (two-level kDual == kAlways), and campaign-level fault
// interaction (kExecAbort / kTransientHang landing on the traced re-exec
// path).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <string>
#include <vector>

#include "core/flat_map.h"
#include "core/two_level_map.h"
#include "fuzzer/campaign.h"
#include "fuzzer/executor.h"
#include "target/generator.h"
#include "util/fault.h"
#include "util/rng.h"

namespace bigmap {
namespace {

MapOptions opts(usize size = 1u << 12) {
  MapOptions o;
  o.map_size = size;
  o.huge_pages = false;
  return o;
}

// A branchy target whose inputs steer real coverage differences.
GeneratedTarget branchy_target(u64 seed = 11) {
  GeneratorParams p;
  p.name = "tracing-target";
  p.seed = seed;
  p.live_blocks = 200;
  p.num_bugs = 2;
  p.bug_min_depth = 1;
  p.bug_max_depth = 2;
  return generate_target(p);
}

template <class Map>
struct Fixture {
  GeneratedTarget target = branchy_target();
  BlockIdTable ids{target.program.blocks.size(), 1u << 12, 77};
  Executor<Map, EdgeMetric> ex{target.program, opts(), ids, 1u << 12};
  OpTimeBreakdown timing;
};

using TwoLevelFixture = Fixture<TwoLevelCoverageMap>;
using FlatFixture = Fixture<FlatCoverageMap>;

// The oracle must fire on an input whose coverage is entirely new, and go
// quiet once a traced run has consumed that novelty.
TEST(TracingOracleTest, FiresOnNoveltyThenQuiesces) {
  TwoLevelFixture f;
  const Input input{1, 2, 3, 4};

  auto fast1 = f.ex.run_untraced(input, f.timing);
  EXPECT_TRUE(fast1.fired);  // fresh virgin state: everything is new

  auto traced = f.ex.run(input, f.timing);
  ASSERT_TRUE(traced.interesting());

  auto fast2 = f.ex.run_untraced(input, f.timing);
  EXPECT_FALSE(fast2.fired);  // novelty consumed; same input is now boring
}

TEST(TracingOracleTest, FlatSchemeFiresOnNoveltyThenQuiesces) {
  FlatFixture f;
  const Input input{1, 2, 3, 4};
  EXPECT_TRUE(f.ex.run_untraced(input, f.timing).fired);
  ASSERT_TRUE(f.ex.run(input, f.timing).interesting());
  EXPECT_FALSE(f.ex.run_untraced(input, f.timing).fired);
}

// Breakpoint retention (the fault-interaction guarantee): an untraced run
// mutates NO campaign-lifetime state, so when the traced re-exec is lost —
// to an injected abort, a crash of the worker, anything — the same input
// simply fires again on the next attempt. Also pins that the virgin maps
// and the two-level index are untouched by untraced runs.
TEST(TracingOracleTest, AbortedReexecKeepsBreakpointArmed) {
  TwoLevelFixture f;
  const Input input{5, 6, 7, 8};

  const u32 used_before = f.ex.map().used_key();
  std::vector<u8> virgin_before(f.ex.virgin_queue().data(),
                                f.ex.virgin_queue().data() +
                                    f.ex.virgin_queue().size());

  // Fire three times in a row — each one simulates a re-exec that never
  // happened. Nothing may change between attempts.
  for (int attempt = 0; attempt < 3; ++attempt) {
    auto fast = f.ex.run_untraced(input, f.timing);
    EXPECT_TRUE(fast.fired) << "attempt " << attempt;
    EXPECT_EQ(f.ex.map().used_key(), used_before) << "attempt " << attempt;
    std::vector<u8> virgin_now(f.ex.virgin_queue().data(),
                               f.ex.virgin_queue().data() +
                                   f.ex.virgin_queue().size());
    EXPECT_EQ(virgin_now, virgin_before) << "attempt " << attempt;
  }

  // The re-exec finally lands: the input is still interesting.
  EXPECT_TRUE(f.ex.run(input, f.timing).interesting());
  EXPECT_FALSE(f.ex.run_untraced(input, f.timing).fired);
}

// Exactness property: over a stream of random inputs, the untraced oracle
// must fire on EVERY input the traced pipeline would have found
// interesting (an under-fire is a lost find and must never happen), and —
// for normally-completing executions — ONLY on those (an over-fire wastes
// a traced re-exec; the early breakpoints may legitimately fire on runs
// that then turn out to crash or hang). Two executors with identical
// seeds run in lockstep: A decides untraced-first, B is the always-traced
// control.
template <class Map, class Metric = EdgeMetric>
void run_conservativeness_stream(u64 target_seed) {
  GeneratedTarget target = branchy_target(target_seed);
  BlockIdTable ids{target.program.blocks.size(), 1u << 12, 77};
  Executor<Map, Metric> a{target.program, opts(), ids, 1u << 12};
  Executor<Map, Metric> b{target.program, opts(), ids, 1u << 12};
  OpTimeBreakdown timing;

  Xoshiro256 rng(42);
  u64 fires = 0;
  u64 interesting = 0;
  for (int i = 0; i < 400; ++i) {
    Input input(12);
    for (u8& byte : input) byte = static_cast<u8>(rng.next());

    auto fast = a.run_untraced(input, timing);
    const bool reexec =
        fast.fired || fast.exec.crashed() || fast.exec.hung();
    typename Executor<Map, Metric>::Outcome a_out;
    if (reexec) a_out = a.run(input, timing);

    auto b_out = b.run(input, timing);
    if (b_out.interesting()) {
      ++interesting;
      ASSERT_TRUE(fast.fired) << "oracle under-fired on input " << i;
    }
    if (reexec) {
      EXPECT_EQ(a_out.interesting(), b_out.interesting()) << i;
      EXPECT_EQ(a_out.exec.outcome, b_out.exec.outcome) << i;
      if (fast.fired && b_out.exec.outcome == ExecResult::Outcome::kOk) {
        EXPECT_TRUE(b_out.interesting()) << "oracle over-fired on " << i;
      }
    } else {
      EXPECT_FALSE(b_out.interesting()) << i;
      EXPECT_EQ(b_out.exec.outcome, ExecResult::Outcome::kOk) << i;
    }
    if (fast.fired) ++fires;
  }
  // The stream must exercise both regimes for the assertions to mean
  // anything.
  EXPECT_GT(interesting, 0u);
  EXPECT_LT(fires, 400u);
}

TEST(TracingOracleTest, NeverUnderFiresTwoLevel) {
  for (u64 seed : {3u, 11u, 29u}) {
    run_conservativeness_stream<TwoLevelCoverageMap>(seed);
    run_conservativeness_stream<TwoLevelCoverageMap, ContextMetric>(seed);
  }
}

TEST(TracingOracleTest, NeverUnderFiresFlat) {
  for (u64 seed : {3u, 11u, 29u}) {
    run_conservativeness_stream<FlatCoverageMap>(seed);
    run_conservativeness_stream<FlatCoverageMap, ContextMetric>(seed);
  }
}

// --- untraced runs report the traced run's ExecResult -----------------------

void expect_same_exec(const ExecResult& untraced, const ExecResult& traced) {
  EXPECT_EQ(untraced.outcome, traced.outcome);
  EXPECT_EQ(untraced.steps, traced.steps);
  EXPECT_EQ(untraced.bug_id, traced.bug_id);
  EXPECT_EQ(untraced.faulting_block, traced.faulting_block);
  EXPECT_EQ(untraced.stack_hash, traced.stack_hash);
}

struct ExecTally {
  u64 fired = 0;
  u64 unfired = 0;
  u64 crashed = 0;
  u64 hung = 0;
};

// Runs every input untraced, traced, then untraced again on one executor.
// Both untraced runs must report exactly the traced ExecResult: the first
// sees the input's coverage as new and fires, the second runs after the
// traced run consumed that coverage. Fired or not, an untraced run always
// completes, so its verdict is the traced verdict.
template <class Map, class Metric>
ExecTally untraced_matches_traced(const GeneratedTarget& target,
                                  const std::vector<Input>& inputs,
                                  u64 step_budget) {
  BlockIdTable ids{target.program.blocks.size(), 1u << 12, 77};
  Executor<Map, Metric> ex{target.program, opts(), ids, step_budget};
  OpTimeBreakdown timing;
  ExecTally tally;
  for (usize i = 0; i < inputs.size(); ++i) {
    SCOPED_TRACE("input " + std::to_string(i));
    const auto before = ex.run_untraced(inputs[i], timing);
    const auto traced = ex.run(inputs[i], timing);
    const auto after = ex.run_untraced(inputs[i], timing);
    expect_same_exec(before.exec, traced.exec);
    expect_same_exec(after.exec, traced.exec);
    for (bool fired : {before.fired, after.fired}) {
      ++(fired ? tally.fired : tally.unfired);
    }
    tally.crashed += traced.exec.crashed();
    tally.hung += traced.exec.hung();
  }
  return tally;
}

// Both schemes x an edge metric and the context-aware metric (whose
// call/return bookkeeping shares the untraced lambda).
std::array<ExecTally, 4> each_executor(const GeneratedTarget& target,
                                       const std::vector<Input>& inputs,
                                       u64 step_budget) {
  std::array<ExecTally, 4> t;
  {
    SCOPED_TRACE("two-level/edge");
    t[0] = untraced_matches_traced<TwoLevelCoverageMap, EdgeMetric>(
        target, inputs, step_budget);
  }
  {
    SCOPED_TRACE("two-level/context");
    t[1] = untraced_matches_traced<TwoLevelCoverageMap, ContextMetric>(
        target, inputs, step_budget);
  }
  {
    SCOPED_TRACE("flat/edge");
    t[2] = untraced_matches_traced<FlatCoverageMap, EdgeMetric>(
        target, inputs, step_budget);
  }
  {
    SCOPED_TRACE("flat/context");
    t[3] = untraced_matches_traced<FlatCoverageMap, ContextMetric>(
        target, inputs, step_budget);
  }
  return t;
}

TEST(TracingExecTest, UntracedMatchesTracedExec) {
  GeneratedTarget target = branchy_target();
  std::vector<Input> inputs = make_seed_corpus(target, 8, 3);
  inputs.push_back({});
  inputs.push_back(Input(64, 0xFF));
  for (const ExecTally& t : each_executor(target, inputs, 1u << 12)) {
    EXPECT_GT(t.fired, 0u);
    EXPECT_GT(t.unfired, 0u);
  }
}

TEST(TracingExecTest, CrashVerdictIdenticalInBothModes) {
  GeneratedTarget target = branchy_target();
  ASSERT_GT(target.program.num_bugs, 0u);
  std::vector<Input> inputs;
  for (u32 bug = 0; bug < target.program.num_bugs; ++bug) {
    inputs.push_back(target.crashing_input(bug));
  }
  for (const ExecTally& t : each_executor(target, inputs, 1u << 12)) {
    EXPECT_EQ(t.crashed, inputs.size());
    EXPECT_GT(t.fired, 0u);
  }
}

TEST(TracingExecTest, HangVerdictIdenticalInBothModes) {
  GeneratedTarget target = branchy_target();
  const std::vector<Input> inputs = make_seed_corpus(target, 4, 9);
  // Starve the budget below the shortest input's natural length, so every
  // run hangs at exactly the budget boundary.
  Interpreter probe(1u << 12);
  u64 shortest = ~u64{0};
  for (const Input& in : inputs) {
    const ExecResult r = probe.run(target.program, in, [](u32) {});
    ASSERT_EQ(r.outcome, ExecResult::Outcome::kOk);
    shortest = std::min(shortest, r.steps);
  }
  ASSERT_GT(shortest, 2u);
  for (const ExecTally& t : each_executor(target, inputs, shortest - 1)) {
    EXPECT_EQ(t.hung, inputs.size());
  }
}

// --- scheme policy ------------------------------------------------------------

// On the two-level scheme kDual is exactly kAlways: every exec runs
// traced, the oracle never runs, and the whole result — slot numbering
// (used_key) included — is the always-trace campaign's.
TEST(TracingPolicyTest, TwoLevelDualRunsEveryExecTraced) {
  GeneratedTarget target = branchy_target();
  std::vector<Input> seeds = make_seed_corpus(target, 4, 1);
  // Coverage over time: (execs, covered_positions) of every stamp.
  using Series = std::vector<std::pair<u64, u64>>;
  auto run = [&](TracingMode tracing, Series* series) {
    CampaignConfig c;
    c.scheme = MapScheme::kTwoLevel;
    c.tracing = tracing;
    c.map.map_size = 1u << 16;
    c.map.huge_pages = false;
    c.max_execs = 3000;
    c.seed = 77;
    c.deterministic_timing = true;
    c.keep_corpus = true;
    telemetry::TelemetrySink sink;
    c.telemetry = &sink;
    c.telemetry_interval = 500;
    CampaignResult r = run_campaign(target.program, seeds, c);
    for (const telemetry::StatsSnapshot& s : sink.series()) {
      series->emplace_back(s.execs, s.covered_positions);
    }
    return r;
  };
  Series dual_series, always_series;
  const CampaignResult dual = run(TracingMode::kDual, &dual_series);
  const CampaignResult always = run(TracingMode::kAlways, &always_series);

  EXPECT_EQ(dual.tracing_untraced_execs, 0u);
  EXPECT_EQ(dual.tracing_oracle_fires, 0u);
  EXPECT_EQ(dual.tracing_reexec_ns, 0u);
  EXPECT_EQ(dual.tracing_traced_execs, dual.execs);
  EXPECT_EQ(dual.tracing_traced_execs, always.tracing_traced_execs);

  EXPECT_EQ(dual.execs, always.execs);
  EXPECT_EQ(dual.seed_execs, always.seed_execs);
  EXPECT_EQ(dual.interesting, always.interesting);
  EXPECT_EQ(dual.hangs, always.hangs);
  EXPECT_EQ(dual.covered_positions, always.covered_positions);
  EXPECT_EQ(dual.used_key, always.used_key);
  EXPECT_EQ(dual.saturated_updates, always.saturated_updates);
  EXPECT_EQ(dual.crashes_total, always.crashes_total);
  EXPECT_EQ(dual.crashes_afl_unique, always.crashes_afl_unique);
  EXPECT_EQ(dual.crashes_crashwalk_unique, always.crashes_crashwalk_unique);
  EXPECT_EQ(dual.crashes_ground_truth, always.crashes_ground_truth);
  EXPECT_EQ(dual.found_bug_ids, always.found_bug_ids);
  EXPECT_EQ(dual.found_stack_hashes, always.found_stack_hashes);
  EXPECT_EQ(dual.trim_execs, always.trim_execs);
  EXPECT_EQ(dual.trimmed_bytes, always.trimmed_bytes);
  EXPECT_EQ(dual.corpus_size, always.corpus_size);
  EXPECT_EQ(dual.corpus, always.corpus);
  EXPECT_EQ(dual_series, always_series);
  EXPECT_GT(dual.interesting, 0u);
}

// --- campaign-level fault interaction ---------------------------------------

// The flat scheme, where kDual takes the untraced-first path, so the
// re-exec fault gates below exist.
CampaignConfig tracing_config(TracingMode tracing, u64 execs) {
  CampaignConfig c;
  c.scheme = MapScheme::kFlat;
  c.tracing = tracing;
  c.map.map_size = 1u << 16;
  c.map.huge_pages = false;
  c.max_execs = execs;
  c.seed = 77;
  c.deterministic_timing = true;
  return c;
}

// kExecAbort aimed at the traced re-exec: with trim and the deterministic
// stage off, every seed consumes exactly one pre-exec gate check, so check
// index num_seeds is the first non-seed exec's pre-exec gate and check
// num_seeds+1 is its re-exec gate (the first non-seed exec always fires on
// a fresh-ish virgin map). The abort must count the exec in NEITHER
// tracing counter (no double-counting against the budget), and the
// breakpoint must stay armed — pinned by exact determinism: a second run
// under the same fault plan reproduces the identical result.
TEST(TracingFaultTest, AbortedReexecCountsNothingAndStaysDeterministic) {
  GeneratedTarget target = branchy_target();
  std::vector<Input> seeds = make_seed_corpus(target, 4, 1);

  auto run_with_abort = [&]() {
    FaultPlan plan;
    plan.triggers.push_back(
        {FaultSite::kExecAbort, 0, seeds.size() + 1});
    FaultInjector injector(1, plan);
    CampaignConfig c = tracing_config(TracingMode::kDual, 3000);
    c.trim_enabled = false;
    c.fault = &injector;
    return run_campaign(target.program, seeds, c);
  };

  CampaignResult r1 = run_with_abort();
  EXPECT_EQ(r1.faulted_execs, 1u);
  EXPECT_EQ(r1.execs, 3000u);  // the aborted exec did not consume budget
  EXPECT_EQ(r1.tracing_untraced_execs + r1.tracing_traced_execs, r1.execs);

  CampaignResult r2 = run_with_abort();
  EXPECT_EQ(r1.execs, r2.execs);
  EXPECT_EQ(r1.interesting, r2.interesting);
  EXPECT_EQ(r1.tracing_untraced_execs, r2.tracing_untraced_execs);
  EXPECT_EQ(r1.tracing_traced_execs, r2.tracing_traced_execs);
  EXPECT_EQ(r1.tracing_oracle_fires, r2.tracing_oracle_fires);
  EXPECT_EQ(r1.covered_positions, r2.covered_positions);
  EXPECT_EQ(r1.found_bug_ids, r2.found_bug_ids);
}

// Sustained kExecAbort pressure (rate-based, so aborts land on pre-exec
// and re-exec gates alike): the accounting invariant must hold throughout,
// and oracle fires must keep converting into traced re-executions — a
// lost-breakpoint bug would strand fires with no matching traced exec.
TEST(TracingFaultTest, AbortStormKeepsAccountingExact) {
  GeneratedTarget target = branchy_target();
  std::vector<Input> seeds = make_seed_corpus(target, 4, 1);

  FaultPlan plan;
  plan.rates.push_back({FaultSite::kExecAbort, 50000,
                        FaultRate::kAllInstances});  // 5% of gate checks
  FaultInjector injector(1, plan);
  CampaignConfig c = tracing_config(TracingMode::kDual, 6000);
  c.fault = &injector;
  CampaignResult res = run_campaign(target.program, seeds, c);

  EXPECT_EQ(res.execs, 6000u);
  EXPECT_GT(res.faulted_execs, 0u);
  EXPECT_EQ(res.tracing_untraced_execs + res.tracing_traced_execs,
            res.execs);
  EXPECT_GT(res.tracing_untraced_execs, 0u);
  // Seeds and trim run traced, and every surviving fire re-executes
  // traced; the traced count can therefore never undercut the number of
  // queued entries.
  EXPECT_GE(res.tracing_traced_execs, res.interesting);
  EXPECT_GT(res.interesting, 0u);
}

// kTransientHang on the re-exec gate: the stall is served (injected_hangs
// counted) and the re-exec still runs — a hang is a delay, not a loss, so
// the result equals the fault-free dual campaign's exactly.
TEST(TracingFaultTest, TransientHangOnReexecDelaysButLosesNothing) {
  GeneratedTarget target = branchy_target();
  std::vector<Input> seeds = make_seed_corpus(target, 4, 1);

  FaultPlan plan;
  plan.hang_ms = 1;
  plan.triggers.push_back(
      {FaultSite::kTransientHang, 0, seeds.size() + 1});
  FaultInjector injector(1, plan);
  CampaignConfig hang_cfg = tracing_config(TracingMode::kDual, 3000);
  hang_cfg.trim_enabled = false;
  hang_cfg.fault = &injector;
  CampaignResult hung = run_campaign(target.program, seeds, hang_cfg);
  EXPECT_EQ(hung.injected_hangs, 1u);

  CampaignConfig clean_cfg = tracing_config(TracingMode::kDual, 3000);
  clean_cfg.trim_enabled = false;
  CampaignResult clean = run_campaign(target.program, seeds, clean_cfg);

  EXPECT_EQ(hung.execs, clean.execs);
  EXPECT_EQ(hung.interesting, clean.interesting);
  EXPECT_EQ(hung.tracing_untraced_execs, clean.tracing_untraced_execs);
  EXPECT_EQ(hung.tracing_traced_execs, clean.tracing_traced_execs);
  EXPECT_EQ(hung.tracing_oracle_fires, clean.tracing_oracle_fires);
  EXPECT_EQ(hung.covered_positions, clean.covered_positions);
  EXPECT_EQ(hung.found_bug_ids, clean.found_bug_ids);
  EXPECT_EQ(hung.found_stack_hashes, clean.found_stack_hashes);
}

}  // namespace
}  // namespace bigmap
