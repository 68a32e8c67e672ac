// Multi-process fleet coordinator: crash-isolated campaign workers.
//
// run_process_fleet() is the process-level sibling of the thread
// supervisor (fuzzer/supervisor.h): N campaign instances run in *forked
// worker processes* over a shared-memory segment (procfleet/shm.h), so a
// worker that SIGKILLs itself, wedges, or corrupts its own heap cannot
// take the fleet down — the blast radius of any failure is one process.
//
// The restart policy (stall deadline, retry budget, backoff, wall stop,
// journal, find union) is the shared Lifecycle core (fuzzer/lifecycle.h);
// this single-threaded driver adds the process mechanism:
//
//  - heartbeat kill: a worker whose ShmWorkerBlock progress word stalls is
//    SIGKILLed — this catches SIGSTOP'd, swapped-out, or livelocked
//    workers that a cooperative stop flag can never reach — and so is one
//    that ignores the wall-clock stop;
//  - exit-status triage: waitpid distinguishes clean completion, the
//    worker exit codes (OOM / shm attach failure / error / injected
//    kill / died-mid-publish), coordinator-initiated hang kills, and
//    genuine crash signals — each triaged into its own counter;
//  - warm restarts: the replacement process resumes from the worker's
//    last checkpoint, continues the same budget segment, and advances its
//    fresh fault injector to the chaos-site occurrence counts mirrored in
//    shared memory, so seeded fault schedules stay cumulative across
//    process generations;
//  - quarantine: a worker that dies abnormally quarantine_deaths times
//    within quarantine_window_ms is parked instead of restarted. Its
//    durable progress (last checkpoint) is kept, and the undone part of
//    its exec budget is redistributed over the remaining live workers so
//    the fleet still delivers the full configured budget, degraded but
//    exact;
//  - persistence: every lifecycle transition is journaled to the
//    FleetStore (kEventRunning / kEventCompleted / kEventFailed /
//    kEventQuarantined), so killing the *coordinator* and relaunching
//    with resume = true continues the fleet with find-union semantics
//    identical to an uninterrupted run;
//  - telemetry: restart/hang-kill/crash-signal/quarantine counters flow
//    into the FleetTelemetry registry as procfleet.* counters, and
//    per-worker exec heartbeats feed the per-instance sinks, so
//    fuzzer_stats / plot_data emitters see process fleets exactly like
//    thread fleets. Each fleet stamp also publishes the coordinator's
//    FaultStats (fault.*) and its gateway's FailoverStats (failover.*,
//    netfleet.*, oracle.*) into the registry as gauges.
#pragma once

#include <string>
#include <vector>

#include "fuzzer/campaign.h"
#include "fuzzer/lifecycle.h"
#include "fuzzer/netfleet/gateway.h"
#include "fuzzer/sync.h"
#include "target/program.h"
#include "telemetry/sink.h"
#include "util/fault.h"
#include "util/types.h"

namespace bigmap::procfleet {

// Fault-injector instance key of the coordinator's own kill point: a
// FaultSite::kSelfKill commit point right after each fleet-journal append
// (its marker's checkpoints= sums the workers' newest snapshot sequence
// numbers). Workers key on their ids and the gateway on num_workers, so a
// trigger on this key fires in the coordinator only.
inline constexpr u32 kCoordinatorFaultInstance = 0xFFFFFFFEu;

// Restart policy defaults: stall 1 s, 8 restarts, backoff 5 ms doubling to
// 500 ms. A stalled worker is SIGKILLed; one that ignores the wall stop is
// SIGKILLed after twice the stall deadline.
struct ProcFleetConfig : RestartPolicy {
  ProcFleetConfig()
      : RestartPolicy{.stall_deadline_ms = 1000,
                      .max_restarts = 8,
                      .backoff_initial_ms = 5,
                      .backoff_cap_ms = 500} {}

  u32 num_workers = 4;

  // Template for every worker; per-worker fields (seed, sync, control,
  // persistence, fault wiring) are filled in by the worker itself.
  CampaignConfig base;
  u64 instance_seed_stride = 1;

  // Quarantine: park a worker that dies abnormally `quarantine_deaths`
  // times within `quarantine_window_ms` (0 deaths disables quarantine).
  // Parked workers keep their durable progress; their remaining exec
  // budget is redistributed over the surviving workers.
  u32 quarantine_deaths = 0;
  u32 quarantine_window_ms = 10000;

  // Shared publish ring sizing and reader bounded-wait (see shm_hub.h).
  u32 sync_max_records = 1u << 10;
  u32 sync_max_input_size = 1u << 12;
  u32 sync_read_timeout_us = 2000;

  // Deterministic chaos schedule. Unlike the thread supervisor's injected
  // FaultInjector*, the plan is passed by value: every worker process
  // rebuilds its own injector from (fault_seed, fault_plan) and continues
  // the chaos-site occurrence sequence from the shm mirror. The
  // coordinator builds one too, for its own journal I/O faults.
  bool fault_enabled = false;
  u64 fault_seed = 0;
  FaultPlan fault_plan;
  // Executions between chaos-site checks inside each worker.
  u64 chaos_check_interval = 64;

  // Fleet persistence — REQUIRED (run_process_fleet throws on empty):
  // process isolation without durable state would lose every find a dead
  // worker had not synced, and warm restarts are the whole point.
  std::string persist_dir;
  u64 checkpoint_interval = 1024;
  u32 keep_checkpoints = 2;
  bool resume = false;

  // Optional fleet telemetry (>= num_workers sinks; validated). Sinks
  // live in the coordinator: per-worker execs are fed from the shm
  // heartbeat (monotone deltas), fleet counters from the triage loop.
  telemetry::FleetTelemetry* telemetry = nullptr;

  // Federation (src/fuzzer/netfleet): with federation.num_nodes > 0 the
  // coordinator reserves one extra hub instance as the federation's
  // gateway identity and pumps a netfleet::Gateway from its event loop —
  // workers never know the difference; remote finds arrive through their
  // ordinary fetch_new. federation.failover off pins initial_leader; on,
  // the gateway elects successors and journals to wal_path, which
  // defaults to <persist_dir>/federation.wal. A gateway link that cannot
  // start makes run_process_fleet throw before any worker forks.
  netfleet::FederationConfig federation;

  // Upgrades every gateway link's novelty gate from content-hash to
  // virgin-map semantics: a per-peer corpus::NoveltyOracle re-executes
  // each candidate against a model of that peer's coverage and ships it
  // only when it would flip virgin bits there. Opt-in so oracle-free
  // federation runs stay bit-identical.
  bool net_virgin_oracle = false;
};

using WorkerState = InstanceState;

struct WorkerHealth : InstanceStatus {
  u32 hang_kills = 0;     // coordinator SIGKILLs after heartbeat deadline
  u32 crash_signals = 0;  // abnormal signal deaths not initiated by us
  u32 oom_kills = 0;      // kExitOom exits
  u32 shm_failures = 0;   // kExitShmFail exits (attach/validate refused)
  u32 error_exits = 0;    // kExitError + kExitMidPublish exits
  u32 kills = 0;          // injected kInstanceKill (kExitFaultKill exits)
  int last_signal = 0;    // most recent crash signal number
  u64 goal = 0;           // final exec budget (base + quarantine grants)
};

// found_bug_ids / found_stack_hashes: the union across every worker's
// durable state (final snapshots), which the chaos drill compares.
struct ProcFleetResult : FleetResult {
  std::vector<WorkerHealth> workers;

  u32 quarantined = 0;
  // Budget that could not be redistributed because no live worker was
  // left to absorb it (every survivor quarantined/failed).
  u64 unassigned_budget = 0;

  // Gateway accounting (zeroed without a federation): link stats summed
  // over every gateway link in failover.net, novelty-oracle stats in
  // failover.oracle (zeroed unless net_virgin_oracle), and the election
  // counters (zeroed unless federation.failover).
  netfleet::FailoverStats failover;

  bool all_completed() const noexcept {
    for (const WorkerHealth& h : workers) {
      if (h.state != WorkerState::kCompleted) return false;
    }
    return !workers.empty();
  }
};

// Runs `config.num_workers` campaign workers of `config.base` over
// `program`/`seeds` in forked processes. Blocks until every worker
// completes, fails, or is quarantined. Throws std::invalid_argument on a
// malformed config (no persist_dir, zero workers with resume, telemetry
// too small, a malformed federation rank table) and std::runtime_error
// when the fleet store refuses the directory.
ProcFleetResult run_process_fleet(const Program& program,
                                  const std::vector<Input>& seeds,
                                  const ProcFleetConfig& config);

}  // namespace bigmap::procfleet
