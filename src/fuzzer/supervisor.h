// Fault-tolerant multi-threaded campaign supervisor.
//
// The paper's parallel results (Figures 9/10) assume every instance
// survives a 24 h run; real campaigns don't — instances stall on
// pathological inputs, die to resource exhaustion, and lose their corpus
// state. run_supervised_campaign() runs N run_campaign instances on real
// std::threads against a shared SyncHub and keeps the campaign alive. The
// restart policy (stall deadline, retry budget, backoff, wall stop,
// journal) is the shared Lifecycle core (fuzzer/lifecycle.h); this driver
// adds the thread mechanism:
//
//  - watchdog: each instance publishes an exec-count heartbeat through
//    CampaignControl; a stalled instance gets a cooperative stop request
//    and is restarted;
//  - budget segments: a cold restart (no persist_dir) opens a new segment
//    that owes only the execs still outstanding, so the fleet total stays
//    exactly N * max_execs; its SyncHub cursor is rewound so it re-imports
//    everything still retained;
//  - no lost finds: the partial result of every attempt — a stalled stop, a
//    kInstanceKill death, a clean finish — has its found_bug_ids /
//    found_stack_hashes unioned into the supervisor result before the
//    instance goes down, so crash/coverage semantics survive restarts;
//  - deterministic failure drills: wire a FaultInjector into
//    SupervisorConfig::fault and every recovery path above becomes
//    reproducibly testable (the injector is also bound thread-locally
//    around each attempt so PageBuffer allocation failures surface as
//    std::bad_alloc retries).
//
// Limits: cancellation is cooperative (checked at execution boundaries);
// a thread wedged inside a single execution cannot be preempted — the
// step-budget hang detector bounds that window.
#pragma once

#include <string>
#include <vector>

#include "fuzzer/campaign.h"
#include "fuzzer/lifecycle.h"
#include "fuzzer/sync.h"
#include "target/program.h"
#include "telemetry/sink.h"
#include "util/fault.h"
#include "util/types.h"

namespace bigmap {

// Restart policy: the RestartPolicy defaults (stall 500 ms, 3 restarts,
// backoff 10 ms doubling to 1 s).
struct SupervisorConfig : RestartPolicy {
  u32 num_instances = 4;

  // Template for every instance; per-instance fields (seed, sync_id,
  // is_master, control, fault, sync) are filled in by the supervisor.
  // Instance i runs with seed = base.seed + i * instance_seed_stride.
  CampaignConfig base;
  u64 instance_seed_stride = 1;

  // Shared hub sizing (see SyncHubOptions).
  usize sync_max_records = 1u << 14;
  usize sync_max_input_size = 1u << 16;

  // Optional deterministic fault schedule, applied to every instance
  // (keyed by instance id) and to the hub's publish path.
  FaultInjector* fault = nullptr;

  // Persistence (off when persist_dir is empty). With a directory set, the
  // supervisor keeps a FleetStore there: every instance checkpoints its
  // full state each checkpoint_interval execs, restarts become *warm* —
  // the replacement attempt resumes from the last good snapshot instead of
  // re-running from scratch — and instance lifecycle events are journaled
  // so a SIGKILL'd process can be relaunched with resume = true and
  // continue the run with find-union semantics identical to an
  // uninterrupted one. resume against a directory written by a differently
  // configured fleet throws.
  std::string persist_dir;
  u64 checkpoint_interval = 2048;
  u32 keep_checkpoints = 2;
  bool resume = false;

  // Optional fleet telemetry (must have >= num_instances sinks; validated).
  // The supervisor hands instance(i) to campaign i — the sink survives
  // restarts, so per-instance counters are lifetime totals — bumps the
  // fleet's restart/stall/kill/alloc/backoff counters from the watchdog
  // loop, and stamps a fleet-level snapshot every fleet_stamp_ms plus once
  // at the end. Each stamp first publishes the fault injector's FaultStats
  // into telemetry->registry() as fault.<site>.checked/.injected gauges.
  telemetry::FleetTelemetry* telemetry = nullptr;
};

struct InstanceHealth : InstanceStatus {
  u32 stalls = 0;          // watchdog-triggered stops
  u32 kills = 0;           // kInstanceKill deaths observed
  u32 alloc_failures = 0;  // attempts lost to std::bad_alloc
  u64 faulted_execs = 0;   // summed across attempts
  u64 injected_hangs = 0;
  u64 faults_injected = 0;  // all faults delivered to this instance
  u32 warm_restarts = 0;    // restarts that resumed from a checkpoint
};

struct SupervisorResult : FleetResult {
  std::vector<InstanceHealth> instances;

  // Fault accounting: faults delivered overall, and the subset delivered
  // to instances that nevertheless completed (i.e. survived faults).
  u64 faults_injected = 0;
  u64 faults_survived = 0;

  bool all_completed() const noexcept {
    for (const InstanceHealth& h : instances) {
      if (h.state != InstanceState::kCompleted) return false;
    }
    return !instances.empty();
  }
};

// Runs `config.num_instances` supervised campaigns of `config.base` over
// `program`/`seeds` on real threads. Blocks until every instance completes
// or exhausts its retry budget.
SupervisorResult run_supervised_campaign(const Program& program,
                                         const std::vector<Input>& seeds,
                                         const SupervisorConfig& config);

}  // namespace bigmap
