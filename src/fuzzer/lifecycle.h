// One restart-policy core for the thread supervisor and the process
// coordinator.
//
// run_supervised_campaign (fuzzer/supervisor.h: instances on std::threads)
// and run_process_fleet (procfleet/coordinator.h: instances in forked
// processes) keep N campaign instances alive under one policy; only the
// mechanism differs. Lifecycle owns the policy:
//
//  - the phase machine (pending -> running -> finished) and each
//    instance's attempts, restarts, final state and last error;
//  - the heartbeat stall check, reported once per attempt;
//  - the retry budget with doubling backoff; a launch that fails (fork,
//    thread creation) is an attempt charged like any other;
//  - the wall-clock stop: pending instances fail, running ones are stopped;
//  - the fleet journal: the lifecycle fields of every
//    persist::InstanceEvent, written on each transition and replayed on
//    resume, plus the kSelfKill bookkeeping (unfinished count, optional
//    commit point after each append);
//  - the find union, the totals and the fleet telemetry stamps; each
//    stamp publishes the run's stats structs into the registry first.
//
// Every decision takes `now` (monotonic ns) as an argument, so the policy
// runs under a fake clock in tests. Only run() reads the real clock and
// sleeps.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "fuzzer/sync.h"
#include "persist/fleet.h"
#include "telemetry/sink.h"
#include "util/fault.h"
#include "util/types.h"

namespace bigmap {

// Supervision knobs shared by SupervisorConfig and ProcFleetConfig (both
// inherit it; each keeps its own defaults).
struct RestartPolicy {
  // Poll every poll_ms; an attempt whose heartbeat has not moved within
  // stall_deadline_ms is stopped (thread) or SIGKILLed (process).
  u32 poll_ms = 5;
  u32 stall_deadline_ms = 500;
  // Restarts per instance before it is given up as failed. Restart k waits
  // backoff_initial_ms * 2^(k-1), capped at backoff_cap_ms.
  u32 max_restarts = 3;
  u32 backoff_initial_ms = 10;
  u32 backoff_cap_ms = 1000;
  // Fleet telemetry snapshot cadence (with a FleetTelemetry attached).
  u32 fleet_stamp_ms = 100;
  // Safety net: when > 0 and the run exceeds this, pending instances fail
  // and running ones get a stop request.
  double max_wall_seconds = 0.0;
};

// Wait before restart number `restarts_done` (>= 1).
u64 backoff_ns(const RestartPolicy& policy, u32 restarts_done);

enum class InstanceState : u8 {
  kCompleted,    // delivered its exec budget
  kFailed,       // retry budget exhausted, or the wall-clock stop
  kQuarantined,  // parked after repeated abnormal deaths (process fleet)
};

// Per-instance fields both drivers report; their health structs extend it.
struct InstanceStatus {
  u32 id = 0;
  InstanceState state = InstanceState::kCompleted;
  u32 attempts = 0;  // attempts started, failed launches included (>= 1)
  u32 restarts = 0;
  u64 execs = 0;  // lifetime execs charged to the instance's budget
  u64 interesting = 0;
  u64 crashes_total = 0;
  std::string last_error;
};

// Fleet-wide fields both drivers report; their result structs extend it.
struct FleetResult {
  // Sorted union across every attempt of every instance (the Figure 9/10
  // cross-instance crash metric).
  std::vector<u32> found_bug_ids;
  std::vector<u64> found_stack_hashes;

  u64 total_execs = 0;
  u64 total_interesting = 0;
  u64 total_crashes = 0;
  u64 total_restarts = 0;  // journaled restarts of earlier runs included
  double wall_seconds = 0.0;
  double aggregate_throughput = 0.0;  // total_execs / wall_seconds

  SyncHubStats sync;
  // Checkpoints and journal accounting (zero without a fleet store).
  persist::PersistStats persist;
  // True when this run resumed a previous process's fleet journal.
  bool resumed = false;
  // Final fleet-level telemetry snapshot (zero without FleetTelemetry).
  telemetry::StatsSnapshot fleet_total;
};

class Lifecycle {
 public:
  enum class Phase : u8 { kPending, kRunning, kFinished };
  // What one heartbeat sample means for the running attempt.
  enum class Beat : u8 { kQuiet, kMoved, kStalled };

  struct Instance : InstanceStatus {
    Phase phase = Phase::kPending;
    u64 next_start_ns = 0;
    bool stalled = false;  // stall reported for the current attempt
    bool wall_stopped = false;
    u64 last_progress = 0;
    u64 last_progress_ns = 0;
  };

  // The surroundings; every member is optional.
  struct Env {
    SyncEndpoint* hub = nullptr;  // cursor rewound on restart, stats tallied
    persist::FleetStore* store = nullptr;  // journal, resume, snapshots
    // Adds the driver's own counters to a journal event.
    std::function<void(u32 id, persist::InstanceEvent& ev)> fill_event;
    telemetry::FleetTelemetry* telemetry = nullptr;
    // Writes the driver's own stats structs into the registry at each
    // fleet stamp.
    std::function<void(telemetry::MetricRegistry& reg)> publish;
    // Kept told the unfinished count for the kSelfKill marker line.
    FaultInjector* fault = nullptr;
    // kSelfKill commit point on this fault key after every journal append.
    std::optional<u32> journal_kill_key;
    std::string wall_error = "wall-clock limit";
  };

  // The mechanism a driver plugs into run().
  struct Mechanism {
    // Starts the attempt start() just counted; on failure it reports
    // launch_failed().
    std::function<void(u32 id, u64 now)> launch;
    // A running attempt: reap it and settle its outcome, or feed beat().
    std::function<void(u32 id, u64 now)> poll;
    // Cooperative stop of a running attempt at the wall limit.
    std::function<void(u32 id, u64 now)> stop;
    std::function<void(u64 now)> pump;  // optional, once per tick
  };

  Lifecycle(const RestartPolicy& policy, u32 num_instances, u64 start_ns,
            Env env);

  Instance& operator[](u32 id) { return instances_[id]; }
  const Instance& operator[](u32 id) const { return instances_[id]; }
  u32 unfinished() const;

  // Restores a journaled instance. `goal` is its total exec budget (0 =
  // unbounded). Returns true when it still owes work and stays pending;
  // false when it finished in the previous process.
  bool replay(u32 id, const persist::InstanceEvent& ev, u64 goal);

  // Until every instance has finished: each tick stamps telemetry and
  // checks the wall limit, launches due instances, polls running ones,
  // pumps, then sleeps poll_ms. The first tick launches before any sleep.
  void run(const Mechanism& m);

  // Stamps fleet telemetry when due (see stamp()). Once past
  // max_wall_seconds, fails every pending instance and calls stop() for
  // every running one.
  void tick(u64 now, const std::function<void(u32 id, u64 now)>& stop);
  bool due(u32 id, u64 now) const;
  // Counts a new attempt and arms its stall clock.
  void start(u32 id, u64 now);
  // Heartbeat sample: kStalled once per attempt, when it has not moved for
  // longer than stall_deadline_ms.
  Beat beat(u32 id, u64 progress, u64 now);
  // The attempt must be replaced. With budget left: count the restart,
  // journal it, rewind the hub cursor, schedule the start after the
  // backoff, return true. Spent: fail ("retry budget exhausted" unless an
  // error is already recorded) and return false.
  bool retry(u32 id, u64 now);
  // A launch that never started: recorded as `why`, then retry().
  bool launch_failed(u32 id, u64 now, std::string why);
  // Settles a wall-stopped instance (completed or failed with the wall
  // error) and returns true; false when the instance was not wall-stopped.
  bool finish_if_wall_stopped(u32 id, bool completed);
  void finish(u32 id, InstanceState state);
  // Pending again from `now`, with no restart charged.
  void requeue(u32 id, u64 now);
  void journal(u32 id, u32 final_state);

  // Loads the instance's newest snapshot, unions its finds, raises
  // interesting/crashes_total to it, returns its execs (0 if none).
  u64 absorb_snapshot(u32 id);
  void add_finds(const std::vector<u32>& bug_ids,
                 const std::vector<u64>& stack_hashes);
  // Final union, totals, wall time, hub/store stats and fleet stamp.
  void tally(FleetResult* out, u64 now);

 private:
  void report_unfinished();
  // Writes the fault injector's FaultStats (fault.<site>.checked/.injected)
  // and, through env_.publish, the driver's structs into the registry as
  // gauges, then appends one fleet snapshot. Requires env_.telemetry.
  telemetry::StatsSnapshot stamp();

  RestartPolicy policy_;
  u64 start_ns_;
  Env env_;
  std::vector<Instance> instances_;
  std::unordered_set<u32> bug_union_;
  std::unordered_set<u64> stack_union_;
  u64 next_stamp_ns_;
  bool wall_stop_issued_ = false;
};

}  // namespace bigmap
