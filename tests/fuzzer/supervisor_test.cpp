// Tests for the fault-tolerant multi-threaded campaign supervisor.
//
// The key property (ISSUE acceptance): under a deterministic fault
// schedule that kills/stalls instances mid-run, the supervisor restarts
// them and the unioned found_bug_ids / found_stack_hashes equal the
// fault-free run's on the same seed. The target is sized so every instance
// saturates the (small) planted-bug set well within its budget, which
// makes the union comparison robust to sync-import interleaving.
#include "fuzzer/supervisor.h"

#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>

#include "target/generator.h"

namespace bigmap {
namespace {

GeneratedTarget make_target() {
  GeneratorParams gp;
  gp.seed = 33;
  gp.live_blocks = 200;
  gp.num_bugs = 3;
  gp.bug_min_depth = 1;
  gp.bug_max_depth = 1;
  return generate_target(gp);
}

SupervisorConfig make_config() {
  SupervisorConfig sc;
  sc.num_instances = 4;
  sc.base.scheme = MapScheme::kTwoLevel;
  sc.base.map.map_size = 1u << 16;
  sc.base.map.huge_pages = false;
  sc.base.max_execs = 10000;
  sc.base.seed = 501;
  sc.base.sync_interval = 1024;
  sc.base.deterministic_timing = true;
  sc.poll_ms = 2;
  sc.stall_deadline_ms = 400;
  sc.max_restarts = 3;
  sc.backoff_initial_ms = 5;
  sc.backoff_cap_ms = 50;
  return sc;
}

TEST(SupervisorTest, FaultFreeRunCompletesAllInstances) {
  auto target = make_target();
  auto seeds = make_seed_corpus(target, 4, 1);
  SupervisorConfig sc = make_config();

  auto r = run_supervised_campaign(target.program, seeds, sc);
  ASSERT_EQ(r.instances.size(), 4u);
  EXPECT_TRUE(r.all_completed());
  EXPECT_EQ(r.total_restarts, 0u);
  EXPECT_EQ(r.total_execs, 4u * sc.base.max_execs);
  EXPECT_GT(r.aggregate_throughput, 0.0);
  for (const InstanceHealth& h : r.instances) {
    EXPECT_EQ(h.attempts, 1u) << h.id;
    EXPECT_EQ(h.state, InstanceState::kCompleted) << h.id;
    EXPECT_EQ(h.execs, sc.base.max_execs) << h.id;
  }
  // Budget is sized to saturate the planted-bug set (3 bugs).
  EXPECT_EQ(r.found_bug_ids.size(), 3u);
  EXPECT_GE(r.found_stack_hashes.size(), 3u);
  EXPECT_GT(r.sync.total_published, 0u);
}

// ISSUE acceptance: kill one instance and stall another mid-run; the
// supervisor must restart both and the crash union must match the
// fault-free run on the same seeds.
TEST(SupervisorTest, KilledAndStalledInstancesRecoverWithoutLosingFinds) {
  auto target = make_target();
  auto seeds = make_seed_corpus(target, 4, 1);

  SupervisorConfig baseline_cfg = make_config();
  auto baseline = run_supervised_campaign(target.program, seeds,
                                          baseline_cfg);
  ASSERT_TRUE(baseline.all_completed());
  ASSERT_EQ(baseline.found_bug_ids.size(), 3u);

  FaultPlan plan;
  // Instance 1 dies outright at its 2000th execution attempt; instance 2
  // wedges for far longer than the watchdog deadline at its 2500th.
  plan.triggers.push_back({FaultSite::kInstanceKill, 1, 2000});
  plan.triggers.push_back({FaultSite::kTransientHang, 2, 2500});
  plan.hang_ms = 5000;
  FaultInjector inj(77, plan);

  SupervisorConfig sc = make_config();
  sc.stall_deadline_ms = 150;
  sc.fault = &inj;
  auto r = run_supervised_campaign(target.program, seeds, sc);

  EXPECT_TRUE(r.all_completed());
  EXPECT_GE(r.instances[1].kills, 1u);
  EXPECT_GE(r.instances[1].restarts, 1u);
  EXPECT_GE(r.instances[2].stalls, 1u);
  EXPECT_GE(r.instances[2].restarts, 1u);
  EXPECT_GE(r.total_restarts, 2u);
  // A cold restart opens a new budget segment charged with everything the
  // dead attempt consumed, so a flapping instance cannot exceed the
  // fleet's configured total: the faulted run's exec count is exactly the
  // fault-free one's.
  EXPECT_EQ(r.total_execs, baseline.total_execs);

  EXPECT_EQ(r.found_bug_ids, baseline.found_bug_ids);
  EXPECT_EQ(r.found_stack_hashes, baseline.found_stack_hashes);

  EXPECT_GE(r.faults_injected, 2u);
  EXPECT_EQ(r.faults_survived, r.faults_injected);
}

// RAII temp directory for persistence tests.
struct TempDir {
  explicit TempDir(const char* tag) {
    path = (std::filesystem::temp_directory_path() /
            (std::string("bigmap_sup_") + tag + "_" +
             std::to_string(static_cast<unsigned>(::getpid()))))
               .string();
    std::filesystem::remove_all(path);
  }
  ~TempDir() { std::filesystem::remove_all(path); }
  std::string path;
};

// Satellite: warm restarts. Same kill/stall schedule as above, but with a
// persist directory the replacement attempts resume from checkpoints. The
// find union and the exec total must still match the fault-free run.
TEST(SupervisorTest, WarmRestartsRecoverFindsAtEqualBudget) {
  auto target = make_target();
  auto seeds = make_seed_corpus(target, 4, 1);

  SupervisorConfig baseline_cfg = make_config();
  auto baseline = run_supervised_campaign(target.program, seeds,
                                          baseline_cfg);
  ASSERT_TRUE(baseline.all_completed());
  ASSERT_EQ(baseline.found_bug_ids.size(), 3u);

  FaultPlan plan;
  plan.triggers.push_back({FaultSite::kInstanceKill, 1, 2000});
  plan.triggers.push_back({FaultSite::kTransientHang, 2, 2500});
  plan.hang_ms = 5000;
  FaultInjector inj(77, plan);

  TempDir dir("warm");
  SupervisorConfig sc = make_config();
  // Long enough that sanitizer-slowed execs and checkpoint writes don't
  // read as stalls, short enough to catch the injected 5 s hang quickly.
  sc.stall_deadline_ms = 1000;
  sc.fault = &inj;
  sc.persist_dir = dir.path;
  sc.checkpoint_interval = 512;  // checkpoints exist before the faults fire
  auto r = run_supervised_campaign(target.program, seeds, sc);

  EXPECT_TRUE(r.all_completed());
  EXPECT_FALSE(r.resumed);
  EXPECT_GE(r.total_restarts, 2u);
  u32 warm = 0;
  for (const InstanceHealth& h : r.instances) warm += h.warm_restarts;
  EXPECT_GE(warm, 2u);
  // Warm restarts keep the segment budget, so totals stay exact.
  EXPECT_EQ(r.total_execs, baseline.total_execs);
  // Warm finds must cover the cold run's finds at equal budget.
  EXPECT_EQ(r.found_bug_ids, baseline.found_bug_ids);
  EXPECT_EQ(r.found_stack_hashes, baseline.found_stack_hashes);

  EXPECT_GT(r.persist.checkpoints_written, 0u);
  EXPECT_GE(r.persist.checkpoints_loaded, 1u);
  EXPECT_GT(r.persist.checkpoint_bytes, 0u);
}

// ISSUE acceptance: whole-process resume. A first supervised run loses two
// instances mid-campaign with no retries left (stand-in for a SIGKILL'd
// process: the journal holds their partial accounting, the stores their
// checkpoints). A second run over the same directory with resume = true
// must finish only the interrupted instances and end with the same find
// union and exec total as an uninterrupted run.
TEST(SupervisorTest, WholeProcessResumeMatchesUninterruptedRun) {
  auto target = make_target();
  auto seeds = make_seed_corpus(target, 4, 1);

  SupervisorConfig baseline_cfg = make_config();
  auto baseline = run_supervised_campaign(target.program, seeds,
                                          baseline_cfg);
  ASSERT_TRUE(baseline.all_completed());
  ASSERT_EQ(baseline.found_bug_ids.size(), 3u);

  FaultPlan plan;
  plan.triggers.push_back({FaultSite::kInstanceKill, 1, 2000});
  plan.triggers.push_back({FaultSite::kInstanceKill, 2, 2500});
  FaultInjector inj(77, plan);

  TempDir dir("resume");
  SupervisorConfig sc = make_config();
  sc.fault = &inj;
  sc.max_restarts = 0;  // die in place, like a dead process
  // With no retries a spurious stall is fatal, so keep the watchdog
  // deadline above sanitizer-slowed exec + checkpoint-write pauses.
  sc.stall_deadline_ms = 2000;
  sc.persist_dir = dir.path;
  sc.checkpoint_interval = 512;
  auto interrupted = run_supervised_campaign(target.program, seeds, sc);
  EXPECT_FALSE(interrupted.all_completed());
  EXPECT_EQ(interrupted.instances[1].state, InstanceState::kFailed);
  EXPECT_EQ(interrupted.instances[2].state, InstanceState::kFailed);

  SupervisorConfig rc = make_config();
  rc.stall_deadline_ms = 2000;
  rc.persist_dir = dir.path;
  rc.resume = true;
  auto resumed = run_supervised_campaign(target.program, seeds, rc);

  EXPECT_TRUE(resumed.resumed);
  EXPECT_TRUE(resumed.all_completed());
  // Only the interrupted instances ran again; completed ones were replayed
  // from the journal without a new attempt.
  EXPECT_EQ(resumed.instances[0].attempts, 1u);
  EXPECT_EQ(resumed.instances[3].attempts, 1u);
  EXPECT_GE(resumed.instances[1].attempts, 2u);
  EXPECT_GE(resumed.instances[2].attempts, 2u);
  // Find-union semantics identical to an uninterrupted run, at the same
  // total budget.
  EXPECT_EQ(resumed.total_execs, baseline.total_execs);
  EXPECT_EQ(resumed.found_bug_ids, baseline.found_bug_ids);
  EXPECT_EQ(resumed.found_stack_hashes, baseline.found_stack_hashes);
  EXPECT_GE(resumed.persist.checkpoints_loaded, 1u);
  EXPECT_GE(resumed.persist.journal_events, 1u);
}

// Runs `body` in a forked child with stderr in `log` and returns its wait
// status: a kSelfKill kills the whole process, so it cannot run in the
// test process itself.
template <typename Body>
int run_in_child(const std::string& log, Body body) {
  std::fflush(nullptr);
  const pid_t pid = ::fork();
  if (pid == 0) {
    const int fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd >= 0) ::dup2(fd, STDERR_FILENO);
    ::_exit(body());
  }
  int status = 0;
  ::waitpid(pid, &status, 0);
  return status;
}

// The progress-keyed kill: {kSelfKill, instance 1, nth 2} SIGKILLs the
// whole process right after instance 1's third snapshot commit, and a
// resume of that wreckage without the trigger reproduces an uninterrupted
// run exactly.
TEST(SupervisorTest, SelfKillAfterNthCommitResumesToTheBaseline) {
  auto target = make_target();
  auto seeds = make_seed_corpus(target, 4, 1);
  auto baseline = run_supervised_campaign(target.program, seeds,
                                          make_config());
  ASSERT_TRUE(baseline.all_completed());

  FaultPlan plan;
  plan.triggers.push_back({FaultSite::kSelfKill, 1, 2});
  TempDir dir("selfkill");
  SupervisorConfig sc = make_config();
  sc.stall_deadline_ms = 2000;
  sc.persist_dir = dir.path;
  sc.checkpoint_interval = 512;
  const std::string log = dir.path + ".log";

  const int killed = run_in_child(log, [&] {
    FaultInjector inj(77, plan);
    sc.fault = &inj;
    (void)run_supervised_campaign(target.program, seeds, sc);
    return 0;
  });
  ASSERT_TRUE(WIFSIGNALED(killed) && WTERMSIG(killed) == SIGKILL)
      << "wait status " << killed;
  std::ifstream in(log);
  const std::string marker((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
  EXPECT_NE(marker.find("self-kill: instance=1 checkpoints=3 unfinished="),
            std::string::npos)
      << marker;
  // Killed after the rename committed snapshot 3, before anything newer.
  u64 newest = 0;
  for (const auto& f :
       std::filesystem::directory_iterator(dir.path + "/instance-1")) {
    const std::string name = f.path().filename().string();
    if (name.rfind("snap-", 0) == 0 && f.path().extension() == ".bms") {
      newest = std::max<u64>(newest, std::stoull(name.substr(5)));
    }
  }
  EXPECT_EQ(newest, 3u);

  // The resume keeps the plan minus the trigger; a re-fire would SIGKILL
  // this child too.
  const int resumed = run_in_child(log, [&] {
    FaultInjector inj(77, plan.without(FaultSite::kSelfKill));
    sc.fault = &inj;
    sc.resume = true;
    const SupervisorResult r =
        run_supervised_campaign(target.program, seeds, sc);
    if (!r.resumed || !r.all_completed()) return 1;
    if (r.found_bug_ids != baseline.found_bug_ids) return 2;
    if (r.found_stack_hashes != baseline.found_stack_hashes) return 3;
    return r.total_execs == baseline.total_execs ? 0 : 4;
  });
  std::filesystem::remove(log);
  ASSERT_FALSE(WIFSIGNALED(resumed)) << "the resume re-fired the self-kill";
  // 1: not resumed/completed, 2: bug_ids, 3: stack_hashes, 4: total_execs
  EXPECT_EQ(WEXITSTATUS(resumed), 0);
}

// Resuming against a directory written by a differently configured fleet
// must be refused, not silently merged.
TEST(SupervisorTest, ResumeWithMismatchedFingerprintThrows) {
  auto target = make_target();
  auto seeds = make_seed_corpus(target, 4, 1);

  TempDir dir("fingerprint");
  SupervisorConfig sc = make_config();
  sc.persist_dir = dir.path;
  (void)run_supervised_campaign(target.program, seeds, sc);

  SupervisorConfig other = make_config();
  other.persist_dir = dir.path;
  other.resume = true;
  other.base.seed = sc.base.seed + 1;  // different fleet identity
  EXPECT_THROW(run_supervised_campaign(target.program, seeds, other),
               std::runtime_error);
}

TEST(SupervisorTest, AllocationFailureIsRetried) {
  auto target = make_target();
  auto seeds = make_seed_corpus(target, 4, 1);

  FaultPlan plan;
  // First PageBuffer allocation of instance 0's first attempt fails.
  plan.triggers.push_back({FaultSite::kAllocFail, 0, 0});
  FaultInjector inj(11, plan);

  SupervisorConfig sc = make_config();
  sc.fault = &inj;
  auto r = run_supervised_campaign(target.program, seeds, sc);

  EXPECT_TRUE(r.all_completed());
  EXPECT_EQ(r.instances[0].alloc_failures, 1u);
  EXPECT_EQ(r.instances[0].attempts, 2u);
  EXPECT_EQ(r.instances[0].last_error, "std::bad_alloc");
  EXPECT_EQ(r.instances[0].execs, sc.base.max_execs);
}

TEST(SupervisorTest, RetryBudgetExhaustionMarksInstanceFailed) {
  auto target = make_target();
  auto seeds = make_seed_corpus(target, 4, 1);

  FaultPlan plan;
  // Kill instance 0 on every attempt: the occurrence counter is cumulative
  // across restarts, so spaced triggers land one per attempt.
  plan.triggers.push_back({FaultSite::kInstanceKill, 0, 100});
  plan.triggers.push_back({FaultSite::kInstanceKill, 0, 3000});
  plan.triggers.push_back({FaultSite::kInstanceKill, 0, 6000});
  FaultInjector inj(13, plan);

  SupervisorConfig sc = make_config();
  sc.num_instances = 2;
  sc.max_restarts = 1;
  sc.fault = &inj;
  auto r = run_supervised_campaign(target.program, seeds, sc);

  EXPECT_FALSE(r.all_completed());
  EXPECT_EQ(r.instances[0].state, InstanceState::kFailed);
  EXPECT_EQ(r.instances[0].attempts, 2u);
  EXPECT_EQ(r.instances[0].kills, 2u);
  EXPECT_EQ(r.instances[0].last_error, "retry budget exhausted");
  EXPECT_EQ(r.instances[1].state, InstanceState::kCompleted);
  // Partial finds from the doomed instance's attempts are still unioned.
  EXPECT_GT(r.total_execs, 0u);
  EXPECT_EQ(r.found_bug_ids.size(), 3u);
}

TEST(SupervisorTest, ExecAbortFaultsAreSurvivedInPlace) {
  auto target = make_target();
  auto seeds = make_seed_corpus(target, 4, 1);

  FaultPlan plan;
  plan.rates.push_back(
      {FaultSite::kExecAbort, /*per_million=*/20000});  // 2% of execs
  FaultInjector inj(29, plan);

  SupervisorConfig sc = make_config();
  sc.num_instances = 2;
  sc.fault = &inj;
  auto r = run_supervised_campaign(target.program, seeds, sc);

  EXPECT_TRUE(r.all_completed());
  EXPECT_EQ(r.total_restarts, 0u);
  u64 aborted = 0;
  for (const InstanceHealth& h : r.instances) aborted += h.faulted_execs;
  EXPECT_GT(aborted, 0u);
  EXPECT_EQ(r.faults_survived, r.faults_injected);
}

TEST(SupervisorTest, PublishDropsAreAccounted) {
  auto target = make_target();
  auto seeds = make_seed_corpus(target, 4, 1);

  FaultPlan plan;
  plan.rates.push_back(
      {FaultSite::kPublishDrop, /*per_million=*/500000});  // 50%
  FaultInjector inj(31, plan);

  SupervisorConfig sc = make_config();
  sc.num_instances = 2;
  sc.fault = &inj;
  auto r = run_supervised_campaign(target.program, seeds, sc);

  EXPECT_TRUE(r.all_completed());
  EXPECT_GT(r.sync.dropped_faults, 0u);
  // Dropped publishes never cost the publisher its own triage record, so
  // the bug union is still intact.
  EXPECT_EQ(r.found_bug_ids.size(), 3u);
}

// The injector counts each fire() once, in FaultStats; the registry holds
// the copy published at every fleet stamp, which must equal the struct at
// the end of the run.
TEST(SupervisorTest, FaultStatsArePublishedAsRegistryGauges) {
  auto target = make_target();
  auto seeds = make_seed_corpus(target, 4, 1);

  FaultPlan plan;
  plan.rates.push_back({FaultSite::kExecAbort, /*per_million=*/20000});
  plan.rates.push_back({FaultSite::kPublishDrop, /*per_million=*/500000});
  FaultInjector inj(37, plan);
  telemetry::FleetTelemetry fleet(2);

  SupervisorConfig sc = make_config();
  sc.num_instances = 2;
  sc.fault = &inj;
  sc.telemetry = &fleet;
  auto r = run_supervised_campaign(target.program, seeds, sc);
  ASSERT_TRUE(r.all_completed());

  const FaultStats fs = inj.stats();
  EXPECT_GT(fs.injected_total(), 0u);
  for (usize si = 0; si < kNumFaultSites; ++si) {
    const std::string site =
        std::string("fault.") + fault_site_name(static_cast<FaultSite>(si));
    EXPECT_EQ(fleet.registry().gauge(site + ".checked").get(),
              fs.checked[si])
        << site;
    EXPECT_EQ(fleet.registry().gauge(site + ".injected").get(),
              fs.injected[si])
        << site;
  }
}

TEST(SupervisorTest, WallClockSafetyStopTerminatesRun) {
  auto target = make_target();
  auto seeds = make_seed_corpus(target, 4, 1);

  SupervisorConfig sc = make_config();
  sc.num_instances = 2;
  sc.base.max_execs = 0;           // unbounded instances...
  sc.base.max_seconds = 60.0;      // ...that would run for a minute
  sc.max_wall_seconds = 0.3;       // ...cut off by the supervisor
  auto r = run_supervised_campaign(target.program, seeds, sc);

  EXPECT_LT(r.wall_seconds, 10.0);
  ASSERT_EQ(r.instances.size(), 2u);
  for (const InstanceHealth& h : r.instances) {
    EXPECT_EQ(h.state, InstanceState::kFailed) << h.id;
    EXPECT_EQ(h.last_error, "supervisor wall-clock limit") << h.id;
  }
  EXPECT_GT(r.total_execs, 0u);
}

}  // namespace
}  // namespace bigmap
