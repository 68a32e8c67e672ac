// Tests for the restart-policy core shared by the thread supervisor and the
// process coordinator. Every decision takes `now` as an argument, so these
// run on a fake clock: no threads, and run() is driven with poll_ms = 0.
#include "fuzzer/lifecycle.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <string>
#include <utility>
#include <vector>

namespace bigmap {
namespace {

constexpr u64 kMs = 1000000;

using Phase = Lifecycle::Phase;
using Beat = Lifecycle::Beat;

RestartPolicy test_policy() {
  RestartPolicy p;
  p.stall_deadline_ms = 100;
  p.max_restarts = 2;
  p.backoff_initial_ms = 5;
  p.backoff_cap_ms = 50;
  return p;
}

// Ticks at `now`; returns the ids the wall stop asked to stop.
std::vector<u32> tick_at(Lifecycle& lc, u64 now) {
  std::vector<u32> stopped;
  lc.tick(now, [&](u32 id, u64) { stopped.push_back(id); });
  return stopped;
}

TEST(LifecycleTest, BackoffDoublesUpToTheCap) {
  const RestartPolicy p = test_policy();
  std::vector<u64> waits;
  for (u32 k = 1; k <= 6; ++k) waits.push_back(backoff_ns(p, k) / kMs);
  EXPECT_EQ(waits, (std::vector<u64>{5, 10, 20, 40, 50, 50}));

  // The same sequence, as retry() schedules it.
  RestartPolicy wide = p;
  wide.max_restarts = 5;
  Lifecycle lc(wide, 1, 0, {});
  std::vector<u64> scheduled;
  u64 now = 1000 * kMs;
  for (u32 k = 0; k < 5; ++k) {
    lc.start(0, now);
    ASSERT_TRUE(lc.retry(0, now));
    scheduled.push_back((lc[0].next_start_ns - now) / kMs);
    now = lc[0].next_start_ns;
  }
  EXPECT_EQ(scheduled, (std::vector<u64>{5, 10, 20, 40, 50}));
}

TEST(LifecycleTest, RetryBudgetExhaustionFails) {
  telemetry::FleetTelemetry fleet(1);
  Lifecycle::Env env;
  env.telemetry = &fleet;
  Lifecycle lc(test_policy(), 1, 0, std::move(env));

  u64 now = 0;
  for (u32 k = 1; k <= 2; ++k) {
    ASSERT_TRUE(lc.due(0, now));
    lc.start(0, now);
    ASSERT_TRUE(lc.retry(0, now));
    EXPECT_EQ(lc[0].restarts, k);
    EXPECT_EQ(lc[0].phase, Phase::kPending);
    EXPECT_FALSE(lc.due(0, lc[0].next_start_ns - 1));
    now = lc[0].next_start_ns;
  }
  lc.start(0, now);
  EXPECT_FALSE(lc.retry(0, now));
  EXPECT_EQ(lc[0].phase, Phase::kFinished);
  EXPECT_EQ(lc[0].state, InstanceState::kFailed);
  EXPECT_EQ(lc[0].last_error, "retry budget exhausted");
  EXPECT_EQ(lc[0].attempts, 3u);
  EXPECT_EQ(lc[0].restarts, 2u);
  EXPECT_EQ(lc.unfinished(), 0u);
  EXPECT_EQ(fleet.restarts().get(), 2u);
  EXPECT_EQ(fleet.instance(0).restarts.get(), 2u);
  EXPECT_EQ(fleet.backoff_ms_total().get(), 5u + 10u);
}

TEST(LifecycleTest, StallIsReportedOnceAfterTheDeadline) {
  Lifecycle lc(test_policy(), 1, 0, {});
  lc.start(0, 0);
  EXPECT_EQ(lc.beat(0, 0, 50 * kMs), Beat::kQuiet);
  EXPECT_EQ(lc.beat(0, 7, 60 * kMs), Beat::kMoved);
  // The deadline counts from the last move and must be exceeded.
  EXPECT_EQ(lc.beat(0, 7, 160 * kMs), Beat::kQuiet);
  EXPECT_EQ(lc.beat(0, 7, 160 * kMs + 1), Beat::kStalled);
  EXPECT_TRUE(lc[0].stalled);
  EXPECT_EQ(lc.beat(0, 7, 900 * kMs), Beat::kQuiet);
  EXPECT_EQ(lc.beat(0, 7, 5000 * kMs), Beat::kQuiet);

  // A new attempt re-arms the check.
  lc.start(0, 6000 * kMs);
  EXPECT_FALSE(lc[0].stalled);
  EXPECT_EQ(lc.beat(0, 0, 6101 * kMs), Beat::kStalled);
}

TEST(LifecycleTest, WallStopFailsPendingAndStopsRunning) {
  RestartPolicy p = test_policy();
  p.max_wall_seconds = 1.0;
  Lifecycle::Env env;
  env.wall_error = "test wall limit";
  Lifecycle lc(p, 3, 0, std::move(env));
  lc.start(0, 0);  // running
  lc.start(1, 0);
  ASSERT_TRUE(lc.retry(1, 0));  // pending, backing off
  lc.start(2, 0);
  lc.finish(2, InstanceState::kCompleted);  // already done

  EXPECT_TRUE(tick_at(lc, 1000 * kMs).empty());
  EXPECT_EQ(tick_at(lc, 1000 * kMs + 1), (std::vector<u32>{0}));
  EXPECT_EQ(lc[1].phase, Phase::kFinished);
  EXPECT_EQ(lc[1].state, InstanceState::kFailed);
  EXPECT_EQ(lc[1].last_error, "test wall limit");
  EXPECT_EQ(lc[2].state, InstanceState::kCompleted);
  EXPECT_EQ(lc[0].phase, Phase::kRunning);
  // Issued once.
  EXPECT_TRUE(tick_at(lc, 2000 * kMs).empty());

  // The stopped attempt settles with no replacement: completed if it ran
  // to its own bound, failed with the wall error otherwise.
  EXPECT_TRUE(lc.finish_if_wall_stopped(0, false));
  EXPECT_EQ(lc[0].state, InstanceState::kFailed);
  EXPECT_EQ(lc[0].last_error, "test wall limit");
  EXPECT_EQ(lc.unfinished(), 0u);

  Lifecycle calm(p, 1, 0, {});
  calm.start(0, 0);
  EXPECT_FALSE(calm.finish_if_wall_stopped(0, true));
}

TEST(LifecycleTest, FailedLaunchIsAnAttemptChargedToTheBudget) {
  Lifecycle lc(test_policy(), 1, 0, {});
  u64 now = 0;
  for (u32 k = 1; k <= 2; ++k) {
    lc.start(0, now);
    ASSERT_TRUE(lc.launch_failed(0, now, "fork failed"));
    EXPECT_EQ(lc[0].attempts, k);
    EXPECT_EQ(lc[0].restarts, k);
    EXPECT_EQ(lc[0].next_start_ns, now + backoff_ns(test_policy(), k));
    now = lc[0].next_start_ns;
  }
  lc.start(0, now);
  EXPECT_FALSE(lc.launch_failed(0, now, "fork failed"));
  EXPECT_EQ(lc[0].state, InstanceState::kFailed);
  EXPECT_EQ(lc[0].last_error, "fork failed");
  EXPECT_EQ(lc[0].attempts, 3u);
  EXPECT_EQ(lc.unfinished(), 0u);
}

TEST(LifecycleTest, ReplayRestoresRunningCompletedAndFailedInstances) {
  Lifecycle lc(test_policy(), 5, 0, {});
  persist::InstanceEvent ev;
  ev.attempts = 3;
  ev.restarts = 2;
  ev.execs = 400;
  ev.interesting = 12;
  ev.crashes_total = 4;

  ev.final_state = persist::kEventRunning;
  EXPECT_TRUE(lc.replay(0, ev, 1000));
  EXPECT_EQ(lc[0].phase, Phase::kPending);
  EXPECT_EQ(lc[0].attempts, 3u);
  EXPECT_EQ(lc[0].restarts, 2u);
  EXPECT_EQ(lc[0].execs, 400u);
  EXPECT_EQ(lc[0].interesting, 12u);
  EXPECT_EQ(lc[0].crashes_total, 4u);

  ev.final_state = persist::kEventCompleted;
  EXPECT_FALSE(lc.replay(1, ev, 1000));
  EXPECT_EQ(lc[1].phase, Phase::kFinished);
  EXPECT_EQ(lc[1].state, InstanceState::kCompleted);

  // Failed with budget still owed resumes; failed with none stays failed.
  ev.final_state = persist::kEventFailed;
  EXPECT_TRUE(lc.replay(2, ev, 1000));
  EXPECT_EQ(lc[2].phase, Phase::kPending);
  EXPECT_FALSE(lc.replay(3, ev, 400));
  EXPECT_EQ(lc[3].state, InstanceState::kFailed);

  ev.final_state = persist::kEventQuarantined;
  EXPECT_FALSE(lc.replay(4, ev, 1000));
  EXPECT_EQ(lc[4].state, InstanceState::kQuarantined);
  EXPECT_EQ(lc.unfinished(), 2u);
}

TEST(LifecycleTest, JournalWritesLifecycleFieldsThatReplayReads) {
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("bigmap_lifecycle_" + std::to_string(::getpid())))
          .string();
  persist::FleetFingerprint fp;
  fp.num_instances = 1;
  {
    persist::FleetStore store(dir, fp, {}, /*resume=*/false);
    ASSERT_TRUE(store.ok()) << store.error();
    Lifecycle::Env env;
    env.store = &store;
    env.fill_event = [](u32, persist::InstanceEvent& ev) { ev.kills = 9; };
    Lifecycle lc(test_policy(), 1, 0, std::move(env));
    lc.start(0, 0);
    lc[0].execs = 250;
    ASSERT_TRUE(lc.retry(0, 0));  // journals kEventRunning
  }
  persist::FleetStore store(dir, fp, {}, /*resume=*/true);
  ASSERT_TRUE(store.resumed());
  const std::optional<persist::InstanceEvent> ev = store.last_event(0);
  ASSERT_TRUE(ev.has_value());
  EXPECT_EQ(ev->final_state, persist::kEventRunning);
  EXPECT_EQ(ev->attempts, 1u);
  EXPECT_EQ(ev->restarts, 1u);
  EXPECT_EQ(ev->warm_restarts, 1u);
  EXPECT_EQ(ev->execs, 250u);
  EXPECT_EQ(ev->kills, 9u);

  Lifecycle resumed(test_policy(), 1, 0, {});
  EXPECT_TRUE(resumed.replay(0, *ev, 1000));
  EXPECT_EQ(resumed[0].restarts, 1u);
  EXPECT_EQ(resumed[0].execs, 250u);
  std::filesystem::remove_all(dir);
}

TEST(LifecycleTest, RunLaunchesEveryInstanceOnTheFirstTick) {
  RestartPolicy p = test_policy();
  p.poll_ms = 0;
  Lifecycle lc(p, 3, 0, {});
  std::vector<std::string> events;
  Lifecycle::Mechanism m;
  m.launch = [&](u32 id, u64) {
    events.push_back("launch " + std::to_string(id));
  };
  m.poll = [&](u32 id, u64) {
    events.push_back("poll " + std::to_string(id));
    lc.finish(id, InstanceState::kCompleted);
  };
  m.stop = [](u32, u64) {};
  m.pump = [&](u64) { events.push_back("pump"); };
  lc.run(m);
  EXPECT_EQ(events, (std::vector<std::string>{"launch 0", "launch 1",
                                              "launch 2", "pump", "poll 0",
                                              "poll 1", "poll 2", "pump"}));
  for (u32 id = 0; id < 3; ++id) EXPECT_EQ(lc[id].attempts, 1u);
}

}  // namespace
}  // namespace bigmap
