// Tests for the multi-process fleet runtime (fuzzer/procfleet).
//
// Key properties, mirroring the thread supervisor's acceptance but with
// real process deaths:
//  - a seeded chaos storm (SIGKILL-self, SIGSTOP-stall, exit-mid-publish,
//    mmap-fail, in-campaign kill) converges to exactly the fault-free
//    run's crash union and exec budget;
//  - a worker that keeps dying is quarantined, its undone budget is
//    redistributed, and the fleet still delivers the exact configured
//    budget (degraded but exact);
//  - every abnormal exit is triaged into its own counter class.
//
// The planted-bug target is shallow (every instance finds every bug well
// within its budget) so union comparisons are robust to interleaving.
#include "fuzzer/procfleet/coordinator.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <stdexcept>
#include <string>

#include "fuzzer/procfleet/shm.h"
#include "target/generator.h"
#include "telemetry/emit.h"

namespace bigmap {
namespace {

using procfleet::ProcFleetConfig;
using procfleet::ProcFleetResult;
using procfleet::WorkerState;
using procfleet::run_process_fleet;

GeneratedTarget make_target() {
  GeneratorParams gp;
  gp.seed = 33;
  gp.live_blocks = 200;
  gp.num_bugs = 3;
  gp.bug_min_depth = 1;
  gp.bug_max_depth = 1;
  return generate_target(gp);
}

std::string fresh_dir(const char* name) {
  const std::string dir = std::filesystem::temp_directory_path() /
                          (std::string("bigmap_procfleet_") + name + "_" +
                           std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  return dir;
}

ProcFleetConfig make_config(const std::string& dir) {
  ProcFleetConfig fc;
  fc.num_workers = 4;
  fc.base.scheme = MapScheme::kTwoLevel;
  fc.base.map.map_size = 1u << 16;
  fc.base.map.huge_pages = false;
  fc.base.max_execs = 10000;
  fc.base.seed = 501;
  fc.base.sync_interval = 1024;
  fc.base.deterministic_timing = true;
  fc.poll_ms = 2;
  fc.stall_deadline_ms = 600;
  fc.max_restarts = 10;
  fc.backoff_initial_ms = 5;
  fc.backoff_cap_ms = 50;
  fc.checkpoint_interval = 512;
  fc.persist_dir = dir;
  return fc;
}

TEST(ProcFleetTest, FaultFreeFleetCompletesExactly) {
  auto target = make_target();
  auto seeds = make_seed_corpus(target, 4, 1);
  const std::string dir = fresh_dir("clean");
  ProcFleetConfig fc = make_config(dir);

  ProcFleetResult r = run_process_fleet(target.program, seeds, fc);
  ASSERT_EQ(r.workers.size(), 4u);
  EXPECT_TRUE(r.all_completed());
  EXPECT_EQ(r.total_restarts, 0u);
  EXPECT_EQ(r.total_execs, 4u * fc.base.max_execs);
  EXPECT_FALSE(r.resumed);
  EXPECT_FALSE(r.found_bug_ids.empty());
  std::filesystem::remove_all(dir);
}

TEST(ProcFleetTest, ChaosStormMatchesFaultFreeRun) {
  auto target = make_target();
  auto seeds = make_seed_corpus(target, 4, 1);

  const std::string clean_dir = fresh_dir("storm_ref");
  ProcFleetConfig clean = make_config(clean_dir);
  ProcFleetResult ref = run_process_fleet(target.program, seeds, clean);
  ASSERT_TRUE(ref.all_completed());

  const std::string storm_dir = fresh_dir("storm");
  ProcFleetConfig fc = make_config(storm_dir);
  fc.fault_enabled = true;
  fc.fault_seed = 77;
  fc.chaos_check_interval = 64;
  fc.fault_plan.triggers.push_back({FaultSite::kInstanceKill, 0, 800});
  fc.fault_plan.triggers.push_back({FaultSite::kProcKill, 1, 2});
  fc.fault_plan.triggers.push_back({FaultSite::kProcStall, 2, 5});
  fc.fault_plan.triggers.push_back({FaultSite::kProcExitMidPublish, 3, 3});
  fc.fault_plan.hang_ms = 20;

  ProcFleetResult r = run_process_fleet(target.program, seeds, fc);
  EXPECT_TRUE(r.all_completed());
  EXPECT_GE(r.total_restarts, 3u);
  // Exact convergence: same crash union, same exec budget.
  EXPECT_EQ(r.found_bug_ids, ref.found_bug_ids);
  EXPECT_EQ(r.found_stack_hashes, ref.found_stack_hashes);
  EXPECT_EQ(r.total_execs, ref.total_execs);
  std::filesystem::remove_all(clean_dir);
  std::filesystem::remove_all(storm_dir);
}

TEST(ProcFleetTest, HangKillTriageCatchesStalledWorker) {
  auto target = make_target();
  auto seeds = make_seed_corpus(target, 4, 1);
  const std::string dir = fresh_dir("stall");
  ProcFleetConfig fc = make_config(dir);
  fc.num_workers = 2;
  fc.fault_enabled = true;
  fc.fault_seed = 7;
  fc.fault_plan.triggers.push_back({FaultSite::kProcStall, 1, 1});

  ProcFleetResult r = run_process_fleet(target.program, seeds, fc);
  EXPECT_TRUE(r.all_completed());
  EXPECT_EQ(r.workers[1].hang_kills, 1u);
  EXPECT_EQ(r.workers[0].hang_kills, 0u);
  EXPECT_EQ(r.total_execs, 2u * fc.base.max_execs);
  std::filesystem::remove_all(dir);
}

TEST(ProcFleetTest, OomExitIsTriagedAndRetried) {
  auto target = make_target();
  auto seeds = make_seed_corpus(target, 4, 1);
  const std::string dir = fresh_dir("oom");
  ProcFleetConfig fc = make_config(dir);
  fc.num_workers = 2;
  fc.fault_enabled = true;
  fc.fault_seed = 7;
  // First PageBuffer allocation of worker 1 throws bad_alloc -> exit 42.
  fc.fault_plan.triggers.push_back({FaultSite::kAllocFail, 1, 0});

  ProcFleetResult r = run_process_fleet(target.program, seeds, fc);
  EXPECT_TRUE(r.all_completed());
  EXPECT_EQ(r.workers[1].oom_kills, 1u);
  EXPECT_EQ(r.total_execs, 2u * fc.base.max_execs);
  std::filesystem::remove_all(dir);
}

TEST(ProcFleetTest, ShmAttachFailureIsTriagedAndRetried) {
  auto target = make_target();
  auto seeds = make_seed_corpus(target, 4, 1);
  const std::string dir = fresh_dir("shmfail");
  ProcFleetConfig fc = make_config(dir);
  fc.num_workers = 2;
  fc.fault_enabled = true;
  fc.fault_seed = 7;
  fc.fault_plan.triggers.push_back({FaultSite::kMmapFail, 0, 0});

  ProcFleetResult r = run_process_fleet(target.program, seeds, fc);
  EXPECT_TRUE(r.all_completed());
  EXPECT_EQ(r.workers[0].shm_failures, 1u);
  EXPECT_EQ(r.total_execs, 2u * fc.base.max_execs);
  std::filesystem::remove_all(dir);
}

TEST(ProcFleetTest, QuarantineParksRepeatOffenderWithExactBudget) {
  auto target = make_target();
  auto seeds = make_seed_corpus(target, 4, 1);
  const std::string dir = fresh_dir("quarantine");
  ProcFleetConfig fc = make_config(dir);
  fc.fault_enabled = true;
  fc.fault_seed = 7;
  fc.quarantine_deaths = 3;
  fc.quarantine_window_ms = 60000;
  // Worker 1 SIGKILLs itself on three consecutive chaos checks across
  // three process generations (occurrences are cumulative via the shm
  // mirror, so each relaunch consumes the next trigger).
  fc.fault_plan.triggers.push_back({FaultSite::kProcKill, 1, 1});
  fc.fault_plan.triggers.push_back({FaultSite::kProcKill, 1, 2});
  fc.fault_plan.triggers.push_back({FaultSite::kProcKill, 1, 3});

  ProcFleetResult r = run_process_fleet(target.program, seeds, fc);
  ASSERT_EQ(r.workers.size(), 4u);
  EXPECT_EQ(r.quarantined, 1u);
  EXPECT_EQ(r.workers[1].state, WorkerState::kQuarantined);
  EXPECT_FALSE(r.all_completed());
  for (u32 id : {0u, 2u, 3u}) {
    EXPECT_EQ(r.workers[id].state, WorkerState::kCompleted) << id;
    // Survivors absorbed the parked worker's undone budget.
    EXPECT_GT(r.workers[id].goal, fc.base.max_execs) << id;
    EXPECT_GE(r.workers[id].execs, r.workers[id].goal) << id;
  }
  // Degraded but exact: parked durable execs + grown survivor goals sum
  // to precisely the configured fleet budget.
  EXPECT_EQ(r.total_execs, 4u * fc.base.max_execs);
  EXPECT_EQ(r.unassigned_budget, 0u);
  std::filesystem::remove_all(dir);
}

TEST(ProcFleetTest, PersistDirIsRequired) {
  auto target = make_target();
  auto seeds = make_seed_corpus(target, 4, 1);
  ProcFleetConfig fc = make_config("");
  EXPECT_THROW(run_process_fleet(target.program, seeds, fc),
               std::invalid_argument);
}

TEST(ProcFleetTest, UndersizedTelemetryIsRejected) {
  auto target = make_target();
  auto seeds = make_seed_corpus(target, 4, 1);
  const std::string dir = fresh_dir("smalltel");
  ProcFleetConfig fc = make_config(dir);
  telemetry::FleetTelemetry fleet(2);  // 4 workers need >= 4 sinks
  fc.telemetry = &fleet;
  EXPECT_THROW(run_process_fleet(target.program, seeds, fc),
               std::invalid_argument);
  std::filesystem::remove_all(dir);
}

TEST(ProcFleetTest, ProcfleetCountersReachRegistryAndStatsFile) {
  auto target = make_target();
  auto seeds = make_seed_corpus(target, 4, 1);
  const std::string dir = fresh_dir("telemetry");
  ProcFleetConfig fc = make_config(dir);
  fc.num_workers = 2;
  fc.fault_enabled = true;
  fc.fault_seed = 7;
  fc.fault_plan.triggers.push_back({FaultSite::kProcKill, 1, 1});
  telemetry::FleetTelemetry fleet(2);
  fc.telemetry = &fleet;

  ProcFleetResult r = run_process_fleet(target.program, seeds, fc);
  EXPECT_TRUE(r.all_completed());
  EXPECT_EQ(fleet.registry().counter("procfleet.restarts").get(), 1u);
  EXPECT_EQ(fleet.registry().counter("procfleet.crash_signals").get(), 1u);
  // Per-worker heartbeats fed the sinks: fleet execs total matches.
  EXPECT_EQ(fleet.fleet_total().execs, r.total_execs);

  const std::string rendered =
      telemetry::render_registry_stats(fleet.registry());
  EXPECT_NE(rendered.find("procfleet.restarts"), std::string::npos);
  EXPECT_NE(rendered.find("procfleet.crash_signals"), std::string::npos);
  std::filesystem::remove_all(dir);
}

TEST(ProcFleetShmTest, ValidateRejectsGeometryMismatch) {
  procfleet::ShmGeometry geom;
  geom.num_workers = 4;
  geom.max_records = 64;
  geom.max_input_size = 256;
  procfleet::ShmSegment seg(geom);

  std::string err;
  EXPECT_TRUE(seg.validate(4, nullptr, 0, &err)) << err;
  // A worker forked by a differently shaped coordinator must refuse.
  EXPECT_FALSE(seg.validate(8, nullptr, 0, &err));
  EXPECT_FALSE(err.empty());
}

TEST(ProcFleetShmTest, ValidateRejectsCorruptFingerprint) {
  procfleet::ShmGeometry geom;
  geom.num_workers = 2;
  geom.max_records = 64;
  geom.max_input_size = 256;
  procfleet::ShmSegment seg(geom);
  seg.header()->layout_fingerprint ^= 0xDEADBEEFULL;
  std::string err;
  EXPECT_FALSE(seg.validate(2, nullptr, 0, &err));
  EXPECT_FALSE(err.empty());
}

}  // namespace
}  // namespace bigmap
