// Mode-equivalence differential harness (PR 4 kernel_diff_test style) for
// the coverage-guided tracing fast path.
//
// Claim under test: a TracingMode::kDual campaign — untraced execution by
// default, traced re-execution only when the interest oracle fires — finds
// EXACTLY what a TracingMode::kAlways campaign finds, at equal exec
// budgets, over the Table II profiles, including across mid-campaign
// checkpoint/resume and under injected instance kills (supervisor-restart
// semantics).
//
// What "exactly" means here (with deterministic_timing, same seed):
//   - execs / seed_execs / interesting / hangs counters equal
//   - found_bug_ids and found_stack_hashes (crash-dedup identities) equal
//   - every crash counter equal (total, AFL-unique, Crashwalk, ground truth)
//   - the queue CONTENTS equal: same entries, same bytes, same order
//   - covered virgin positions equal, coverage-over-time series equal
//     (execs, covered_positions of each telemetry stamp)
//   - trim decisions equal (trim_execs / trimmed_bytes)
//   - used_key and saturated_updates equal
//
// kDual takes the untraced path on the flat scheme only; on the two-level
// scheme it runs every exec traced, so there the harness also pins that
// the oracle never ran (zero untraced execs, zero fires).
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "fuzzer/campaign.h"
#include "persist/checkpoint.h"
#include "target/generator.h"
#include "target/suite.h"
#include "telemetry/sink.h"
#include "util/fault.h"

namespace bigmap {
namespace {

namespace fs = std::filesystem;

struct TempDir {
  explicit TempDir(const char* tag) {
    path = (fs::temp_directory_path() /
            (std::string("bigmap_modediff_") + tag + "_" +
             std::to_string(static_cast<unsigned>(::getpid()))))
               .string();
    fs::remove_all(path);
  }
  ~TempDir() { fs::remove_all(path); }
  std::string path;
};

CampaignConfig diff_config(MapScheme scheme, TracingMode tracing,
                           u64 execs) {
  CampaignConfig c;
  c.scheme = scheme;
  c.tracing = tracing;
  c.map.map_size = 1u << 16;
  c.map.huge_pages = false;
  c.max_execs = execs;
  c.seed = 77;
  c.deterministic_timing = true;  // sched_ns = steps*100: mode-independent
  c.keep_corpus = true;
  c.telemetry_interval = 1000;
  return c;
}

// A campaign result plus its coverage-over-time series: (execs,
// covered_positions) of every telemetry stamp.
struct DiffRun : CampaignResult {
  std::vector<std::pair<u64, u64>> series;
};

DiffRun run_diff(const Program& program, const std::vector<Input>& seeds,
                 CampaignConfig c) {
  telemetry::TelemetrySink sink;
  c.telemetry = &sink;
  DiffRun d{run_campaign(program, seeds, c), {}};
  for (const telemetry::StatsSnapshot& s : sink.series()) {
    d.series.emplace_back(s.execs, s.covered_positions);
  }
  return d;
}

std::vector<u32> sorted(std::vector<u32> v) {
  std::sort(v.begin(), v.end());
  return v;
}
std::vector<u64> sorted(std::vector<u64> v) {
  std::sort(v.begin(), v.end());
  return v;
}

// The full equality contract between a dual-mode and an always-trace result.
void expect_equivalent(const DiffRun& dual, const DiffRun& always) {
  EXPECT_EQ(dual.execs, always.execs);
  EXPECT_EQ(dual.seed_execs, always.seed_execs);
  EXPECT_EQ(dual.interesting, always.interesting);
  EXPECT_EQ(dual.hangs, always.hangs);
  EXPECT_EQ(dual.trim_execs, always.trim_execs);
  EXPECT_EQ(dual.trimmed_bytes, always.trimmed_bytes);

  EXPECT_EQ(dual.crashes_total, always.crashes_total);
  EXPECT_EQ(dual.crashes_afl_unique, always.crashes_afl_unique);
  EXPECT_EQ(dual.crashes_crashwalk_unique, always.crashes_crashwalk_unique);
  EXPECT_EQ(dual.crashes_ground_truth, always.crashes_ground_truth);
  EXPECT_EQ(sorted(dual.found_bug_ids), sorted(always.found_bug_ids));
  EXPECT_EQ(sorted(dual.found_stack_hashes),
            sorted(always.found_stack_hashes));

  EXPECT_EQ(dual.covered_positions, always.covered_positions);
  EXPECT_EQ(dual.series, always.series);

  // Queue contents: byte-identical, in order.
  EXPECT_EQ(dual.corpus_size, always.corpus_size);
  ASSERT_EQ(dual.corpus.size(), always.corpus.size());
  for (usize i = 0; i < dual.corpus.size(); ++i) {
    EXPECT_EQ(dual.corpus[i], always.corpus[i]) << "queue entry " << i;
  }

  EXPECT_EQ(dual.used_key, always.used_key);
  EXPECT_EQ(dual.saturated_updates, always.saturated_updates);

  // Accounting invariants on both arms.
  EXPECT_EQ(dual.tracing_untraced_execs + dual.tracing_traced_execs,
            dual.execs);
  EXPECT_EQ(always.tracing_untraced_execs, 0u);
  EXPECT_EQ(always.tracing_traced_execs, always.execs);
}

// On the two-level scheme kDual never takes the untraced path: every exec
// is traced and the oracle never runs.
void expect_all_traced(const CampaignResult& dual) {
  EXPECT_EQ(dual.tracing_untraced_execs, 0u);
  EXPECT_EQ(dual.tracing_oracle_fires, 0u);
  EXPECT_EQ(dual.tracing_traced_execs, dual.execs);
}

// --- Table II sweep ---------------------------------------------------------

class ModeDiffTable2Test : public ::testing::TestWithParam<usize> {};

TEST_P(ModeDiffTable2Test, DualEqualsAlwaysTrace) {
  const BenchmarkInfo& info = full_table2_suite()[GetParam()];
  GeneratedTarget target = build_benchmark(info);
  std::vector<Input> seeds = benchmark_seeds(target, info);
  if (seeds.size() > 6) seeds.resize(6);  // runtime budget, not coverage

  for (MapScheme scheme : {MapScheme::kTwoLevel, MapScheme::kFlat}) {
    DiffRun dual = run_diff(target.program, seeds,
                            diff_config(scheme, TracingMode::kDual, 4000));
    DiffRun always = run_diff(target.program, seeds,
                              diff_config(scheme, TracingMode::kAlways, 4000));
    SCOPED_TRACE(info.name + (scheme == MapScheme::kFlat ? "/flat" : "/2l"));
    expect_equivalent(dual, always);
    if (scheme == MapScheme::kTwoLevel) {
      expect_all_traced(dual);
      continue;
    }
    // The fast path must actually engage, and every traced re-execution
    // must be PAID FOR: an eligible exec (non-seed, non-trim) runs traced
    // only when the oracle fired (=> it was interesting or crashed/hung)
    // or it crashed/hung unfired. So the untraced count is bounded below
    // by eligible - interesting - 2*(crashes + hangs) — any oracle
    // over-fire regression breaks this immediately, at every budget. The
    // tracing bench demonstrates the >80% steady-state ratio at scale.
    const u64 eligible = dual.execs - dual.seed_execs - dual.trim_execs;
    const u64 justified =
        dual.interesting + 2 * (dual.crashes_total + dual.hangs);
    EXPECT_GT(dual.tracing_untraced_execs, 0u);
    EXPECT_GE(dual.tracing_untraced_execs,
              eligible - std::min(eligible, justified));
    EXPECT_LE(dual.tracing_oracle_fires,
              dual.interesting + dual.crashes_total + dual.hangs);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllProfiles, ModeDiffTable2Test,
    ::testing::Range<usize>(0, 19),
    [](const ::testing::TestParamInfo<usize>& i) {
      std::string n = full_table2_suite()[i.param].name;
      for (char& c : n) {
        if (c == '-' || c == '.' || c == '+') c = '_';
      }
      return n;
    });

// --- checkpoint / resume crossing -------------------------------------------

// Runs one interrupt-at-`part`-execs + resume-to-`full` sequence and
// returns the resumed result. The clean interrupt writes a completion
// checkpoint at exactly `part` execs, so both tracing modes restore from
// the identical exec point.
DiffRun interrupted_resumed(const GeneratedTarget& target,
                                   const std::vector<Input>& seeds,
                                   MapScheme scheme, TracingMode tracing,
                                   const std::string& dir, u64 part,
                                   u64 full) {
  persist::CheckpointStore store1(dir, persist::FaultCtx{}, /*fresh=*/true);
  CampaignConfig pc = diff_config(scheme, tracing, part);
  pc.checkpoint = &store1;
  pc.checkpoint_interval = 1024;
  CampaignResult first = run_campaign(target.program, seeds, pc);
  EXPECT_GT(first.checkpoints_written, 0u);

  persist::CheckpointStore store2(dir, persist::FaultCtx{}, /*fresh=*/false);
  CampaignConfig rc = diff_config(scheme, tracing, full);
  rc.checkpoint = &store2;
  rc.checkpoint_interval = 1024;
  rc.resume_from_checkpoint = true;
  DiffRun resumed = run_diff(target.program, seeds, rc);
  EXPECT_TRUE(resumed.resumed);
  EXPECT_EQ(resumed.resumed_from_execs, part);
  return resumed;
}

// Mode equivalence must survive a mid-campaign checkpoint/resume: when BOTH
// modes are interrupted at the same exec count and resumed from their
// snapshots, the resumed dual campaign still lands exactly on the resumed
// always-trace campaign's final state — resume re-derives the oracle's
// breakpoint set entirely from the snapshotted virgin + index state.
//
// (Deliberately NOT asserted: resumed == uninterrupted. The snapshot
// restarts the queue cycle at an entry boundary, so an interrupt landing
// mid-entry legally reshuffles the remaining havoc rounds — identically in
// both modes, which is exactly what this test pins.)
TEST(ModeDiffCheckpointTest, ResumeCrossesModesExactly) {
  GeneratorParams gp;
  gp.name = "modediff-ckpt";
  gp.seed = 9;
  gp.live_blocks = 250;
  gp.num_bugs = 4;
  gp.bug_min_depth = 1;
  gp.bug_max_depth = 2;
  GeneratedTarget target = generate_target(gp);
  std::vector<Input> seeds = make_seed_corpus(target, 4, 1);

  const u64 kPart = 4000, kFull = 9000;
  for (MapScheme scheme : {MapScheme::kTwoLevel, MapScheme::kFlat}) {
    SCOPED_TRACE(scheme == MapScheme::kFlat ? "flat" : "two-level");
    const bool flat = scheme == MapScheme::kFlat;

    TempDir dual_dir(flat ? "flat_d" : "twolevel_d");
    DiffRun resumed_dual =
        interrupted_resumed(target, seeds, scheme, TracingMode::kDual,
                            dual_dir.path, kPart, kFull);
    TempDir always_dir(flat ? "flat_a" : "twolevel_a");
    DiffRun resumed_always =
        interrupted_resumed(target, seeds, scheme, TracingMode::kAlways,
                            always_dir.path, kPart, kFull);

    expect_equivalent(resumed_dual, resumed_always);

    // The kTracingState record carried the lifetime split across the
    // restart: the resumed dual run keeps accumulating untraced execs on
    // top of the restored counters, and the invariant stays exact.
    if (flat) {
      EXPECT_GT(resumed_dual.tracing_untraced_execs, 0u);
      EXPECT_GT(resumed_dual.tracing_oracle_fires, 0u);
    } else {
      expect_all_traced(resumed_dual);
    }

    // Uninterrupted arms agree with each other too (same contract at a
    // budget the Table II sweep doesn't cover).
    DiffRun straight = run_diff(
        target.program, seeds, diff_config(scheme, TracingMode::kDual, kFull));
    DiffRun always = run_diff(
        target.program, seeds,
        diff_config(scheme, TracingMode::kAlways, kFull));
    expect_equivalent(straight, always);
  }
}

// Kills a campaign mid-run with an injected kInstanceKill (a crashing
// worker cannot checkpoint at death), then relaunches it from the last
// periodic checkpoint and returns the recovered result.
DiffRun killed_restarted(const GeneratedTarget& target,
                                const std::vector<Input>& seeds,
                                TracingMode tracing, const std::string& dir,
                                u64 kill_nth, u64 full) {
  persist::CheckpointStore store1(dir, persist::FaultCtx{}, /*fresh=*/true);
  FaultPlan plan;
  plan.triggers.push_back({FaultSite::kInstanceKill, 0, kill_nth});
  FaultInjector injector(1, plan);
  CampaignConfig doomed = diff_config(MapScheme::kFlat, tracing, full);
  doomed.checkpoint = &store1;
  doomed.checkpoint_interval = 512;
  doomed.fault = &injector;
  CampaignResult died = run_campaign(target.program, seeds, doomed);
  EXPECT_TRUE(died.fault_aborted);
  EXPECT_GT(died.checkpoints_written, 0u);

  persist::CheckpointStore store2(dir, persist::FaultCtx{}, /*fresh=*/false);
  CampaignConfig relaunch = diff_config(MapScheme::kFlat, tracing, full);
  relaunch.checkpoint = &store2;
  relaunch.checkpoint_interval = 512;
  relaunch.resume_from_checkpoint = true;
  DiffRun resumed = run_diff(target.program, seeds, relaunch);
  EXPECT_TRUE(resumed.resumed);
  return resumed;
}

// Supervisor-restart semantics: both modes die to the same injected
// kInstanceKill schedule mid-run and recover from their last periodic
// checkpoint, replaying the lost tail. The recovered dual campaign must
// land exactly on the recovered always-trace campaign's final state. It
// runs on the flat scheme, where kDual engages the oracle, so the kill
// crosses live untraced execution.
//
// The kill trigger counts fault-gate checks, and dual mode consumes one
// extra check per oracle fire — so the two arms die a few dozen execs
// apart. The restore points still align as long as both deaths fall in
// the same 512-exec checkpoint window, which the resumed_from assertion
// verifies before any stream comparison.
TEST(ModeDiffCheckpointTest, InstanceKillRestartStillMatchesAlwaysTrace) {
  GeneratorParams gp;
  gp.name = "modediff-kill";
  gp.seed = 21;
  gp.live_blocks = 250;
  gp.num_bugs = 4;
  gp.bug_min_depth = 1;
  gp.bug_max_depth = 2;
  GeneratedTarget target = generate_target(gp);
  std::vector<Input> seeds = make_seed_corpus(target, 4, 1);

  const u64 kFull = 8000, kKillNth = 3000;
  TempDir dual_dir("kill_d");
  DiffRun resumed_dual = killed_restarted(
      target, seeds, TracingMode::kDual, dual_dir.path, kKillNth, kFull);
  TempDir always_dir("kill_a");
  DiffRun resumed_always = killed_restarted(
      target, seeds, TracingMode::kAlways, always_dir.path, kKillNth, kFull);

  ASSERT_EQ(resumed_dual.resumed_from_execs,
            resumed_always.resumed_from_execs);
  expect_equivalent(resumed_dual, resumed_always);
  EXPECT_GT(resumed_dual.tracing_untraced_execs, 0u);
}

}  // namespace
}  // namespace bigmap
