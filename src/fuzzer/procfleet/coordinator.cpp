#include "fuzzer/procfleet/coordinator.h"

#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <deque>
#include <memory>
#include <optional>
#include <stdexcept>
#include <utility>

#include "corpus/novelty.h"
#include "fuzzer/netfleet/gateway.h"
#include "fuzzer/procfleet/shm.h"
#include "fuzzer/procfleet/shm_hub.h"
#include "fuzzer/procfleet/worker.h"
#include "persist/federation.h"
#include "persist/fleet.h"
#include "util/syscall.h"
#include "util/timing.h"

namespace bigmap::procfleet {
namespace {

// The process mechanism of one worker, coordinator side; the lifecycle
// lives in the Lifecycle core. All cross-process state lives in the
// worker's ShmWorkerBlock; this is bookkeeping only.
struct Slot {
  pid_t pid = -1;

  // Exec budget of the worker's (single, always-warm) budget segment;
  // grows when quarantine grants are absorbed.
  u64 goal = 0;
  bool resume_next = false;

  bool kill_sent = false;    // we SIGKILLed it (stall or ignored stop)
  bool stop_sent = false;    // cooperative stop requested (wall limit)
  u64 stop_deadline_ns = 0;  // SIGKILL escalation for ignored stops
  // Durable execs when the current attempt launched; a clean-but-short
  // exit that did not move this is a stuck worker, not scheduled work.
  u64 execs_at_launch = 0;

  // Timestamps (monotonic ns) of recent abnormal deaths, pruned to the
  // quarantine window.
  std::deque<u64> death_times;

  WorkerHealth health;  // the coordinator's own counters
};

}  // namespace

ProcFleetResult run_process_fleet(const Program& program,
                                  const std::vector<Input>& seeds,
                                  const ProcFleetConfig& config) {
  ProcFleetResult out;
  if (config.num_workers == 0) return out;
  // A federated peer resetting its socket must surface as EPIPE on the
  // gateway's send path (triaged, retried), never as a SIGPIPE that kills
  // the whole coordinator. Harmless for local-only fleets.
  ignore_sigpipe();
  if (config.persist_dir.empty()) {
    throw std::invalid_argument(
        "run_process_fleet: persist_dir is required (crash isolation "
        "without durable state would lose every unsynced find)");
  }
  const netfleet::FederationConfig& fed = config.federation;
  if (fed.num_nodes > 0 &&
      (fed.num_nodes < 2 || fed.rank >= fed.num_nodes ||
       fed.initial_leader >= fed.num_nodes || fed.initial_epoch == 0 ||
       fed.listen_fds.size() != fed.num_nodes ||
       fed.dial_ports.size() != fed.num_nodes)) {
    throw std::invalid_argument(
        "run_process_fleet: malformed federation config (need >= 2 nodes, "
        "rank/leader in range, epoch >= 1, and num_nodes-sized "
        "listen_fds/dial_ports)");
  }
  telemetry::FleetTelemetry* fleet = config.telemetry;
  if (fleet != nullptr && fleet->num_instances() < config.num_workers) {
    throw std::invalid_argument(
        "run_process_fleet: FleetTelemetry has " +
        std::to_string(fleet->num_instances()) + " sinks for " +
        std::to_string(config.num_workers) + " workers");
  }

  // Coordinator-side injector: its journal/checkpoint I/O shares the
  // workers' fault schedule (separate occurrence counters — this is a
  // different process by construction). Workers rebuild their own.
  std::optional<FaultInjector> coord_fault_storage;
  FaultInjector* coord_fault = nullptr;
  if (config.fault_enabled) {
    coord_fault_storage.emplace(config.fault_seed, config.fault_plan);
    coord_fault = &*coord_fault_storage;
  }

  persist::FleetFingerprint fp;
  fp.num_instances = config.num_workers;
  fp.base_seed = config.base.seed;
  fp.seed_stride = config.instance_seed_stride;
  fp.max_execs = config.base.max_execs;
  fp.scheme = static_cast<u32>(config.base.scheme);
  fp.metric = static_cast<u32>(config.base.metric);
  fp.map_size = static_cast<u64>(config.base.map.map_size);
  persist::FleetStore store(config.persist_dir, fp,
                            persist::FaultCtx{coord_fault, 0}, config.resume);
  if (!store.ok()) {
    throw std::runtime_error("run_process_fleet: " + store.error());
  }
  out.resumed = store.resumed();
  // Materialize every instance store now: on a fresh open this wipes stale
  // snapshot directories in the coordinator, so workers (which always open
  // their store with fresh = false) can never resurrect a previous fleet's
  // state.
  for (u32 id = 0; id < config.num_workers; ++id) {
    (void)store.instance_store(id);
  }

  // Federation: every remote peer appears behind one extra hub instance
  // (the gateway) so imports flow to workers through ordinary fetch_new
  // and exports are exactly what the gateway's own fetch_new returns. The
  // gateway slot is shared by all links — a star hub still reserves one.
  const bool net_enabled = fed.num_nodes > 0;
  const u32 gateway_id = config.num_workers;

  ShmGeometry geom;
  geom.num_workers = config.num_workers + (net_enabled ? 1 : 0);
  geom.max_records = config.sync_max_records;
  geom.max_input_size = config.sync_max_input_size;
  ShmSegment segment(geom);
  ShmHubOptions hub_opts;
  hub_opts.read_timeout_us = config.sync_read_timeout_us;
  // Coordinator-side hub view: cursor rewinds, stats, and (when federated)
  // the gateway's publish/fetch traffic.
  ShmHub hub(&segment, hub_opts, nullptr);

  // One remote model per peer: the oracle re-executes each candidate and
  // ships it only when it flips virgin bits the peer has not covered.
  auto make_oracle = [&]() -> std::unique_ptr<corpus::NoveltyOracle> {
    if (!config.net_virgin_oracle) return nullptr;
    corpus::OracleConfig oc;
    oc.scheme = config.base.scheme;
    oc.metric = config.base.metric;
    oc.map = config.base.map;
    oc.seed = config.base.seed;
    oc.step_budget = config.base.step_budget;
    oc.work_per_block = config.base.work_per_block;
    return corpus::make_novelty_oracle(program, oc);
  };

  std::unique_ptr<netfleet::Gateway> gateway;
  if (net_enabled) {
    netfleet::FederationConfig fc = fed;
    // Link defaults: fingerprint from the fleet identity (both sides of a
    // correctly-configured federation derive the same value) and the
    // entry-size clamp.
    if (fc.link.session_fingerprint == 0) {
      u64 h = 0xb1674a95ull;
      for (u64 v : {static_cast<u64>(fp.num_instances), fp.base_seed,
                    fp.seed_stride, fp.max_execs, static_cast<u64>(fp.scheme),
                    static_cast<u64>(fp.metric), fp.map_size}) {
        h = (h ^ v) * 0x100000001b3ull;
      }
      fc.link.session_fingerprint = h;
    }
    fc.link.max_entry_size =
        std::min<usize>(fc.link.max_entry_size, config.sync_max_input_size);
    if (fc.failover && fc.wal_path.empty()) {
      fc.wal_path = persist::federation_wal_path(config.persist_dir);
    }
    gateway = std::make_unique<netfleet::Gateway>(
        &hub, gateway_id, std::move(fc), make_oracle, coord_fault);
    // Fail fast on wiring that can never work (an inherited listener
    // that is gone), before any worker forks.
    const std::string err = gateway->start(monotonic_ns());
    if (!err.empty()) throw std::runtime_error("run_process_fleet: " + err);
  }

  const u64 stall_ns = static_cast<u64>(config.stall_deadline_ms) * 1000000;
  const u64 window_ns =
      static_cast<u64>(config.quarantine_window_ms) * 1000000;
  const u32 n = config.num_workers;

  std::vector<Slot> slots(n);
  for (Slot& s : slots) s.goal = config.base.max_execs;
  // Exec budget freed by quarantined workers, not yet granted out.
  u64 budget_pool = 0;

  Lifecycle::Env env;
  env.hub = &hub;
  env.store = &store;
  env.fill_event = [&](u32 id, persist::InstanceEvent& ev) {
    const Slot& s = slots[id];
    ev.stalls = s.health.hang_kills;
    ev.kills = s.health.kills;
    ev.alloc_failures = s.health.oom_kills;
    // All budget lives in one always-warm segment: base_* stay zero and
    // segment_max_execs is the worker's (possibly granted-up) goal.
    ev.segment_max_execs = s.goal;
  };
  env.telemetry = fleet;
  if (gateway) {
    env.publish = [&](telemetry::MetricRegistry& reg) {
      netfleet::publish(gateway->failover_stats(), reg);
    };
  }
  env.fault = coord_fault;
  // Progress-keyed kill point for the coordinator itself, on its own
  // fault key so no worker trigger can land here.
  env.journal_kill_key = kCoordinatorFaultInstance;
  env.wall_error = "fleet wall-clock limit";
  Lifecycle lc(config, n, monotonic_ns(), std::move(env));

  auto bump = [&](const char* name, u64 k = 1) {
    if (fleet != nullptr) {
      fleet->registry().counter(std::string("procfleet.") + name).add(k);
    }
  };

  // Publishes the totals this coordinator holds for a worker into its
  // sink. Instance sinks are never stamped here (the worker's map state
  // lives in another process); the sink never lets a published counter go
  // down, so heartbeat samples and end-of-attempt results can both feed it.
  auto publish_totals = [&](u32 id, u64 execs) {
    if (fleet == nullptr) return;
    telemetry::StatsSnapshot t;
    t.execs = execs;
    t.interesting = lc[id].interesting;
    t.crashes = lc[id].crashes_total;
    fleet->instance(id).publish(t);
  };

  // Spreads the freed budget pool over every worker that can still absorb
  // it (running, pending, or already completed — a completed worker is
  // reopened and resumes warm against its grown goal). Workers that are
  // failed or quarantined are not eligible.
  auto redistribute_pool = [&](u64 now) {
    if (budget_pool == 0) return;
    std::vector<u32> eligible;
    for (u32 id = 0; id < n; ++id) {
      const Lifecycle::Instance& w = lc[id];
      if ((w.phase != Lifecycle::Phase::kFinished ||
           w.state == WorkerState::kCompleted) &&
          !w.wall_stopped) {
        eligible.push_back(id);
      }
    }
    if (eligible.empty()) {
      out.unassigned_budget += budget_pool;
      budget_pool = 0;
      return;
    }
    const u64 share = budget_pool / eligible.size();
    u64 remainder = budget_pool % eligible.size();
    budget_pool = 0;
    for (u32 id : eligible) {
      u64 grant = share;
      if (remainder > 0) {
        ++grant;
        --remainder;
      }
      if (grant == 0) continue;
      Slot& s = slots[id];
      s.goal += grant;
      bump("budget_granted", grant);
      if (lc[id].phase == Lifecycle::Phase::kFinished) {
        // Reopen: the worker already delivered its old goal; it resumes
        // from its final checkpoint and works off the grant.
        s.resume_next = true;
        lc.requeue(id, now);
      } else if (lc[id].phase == Lifecycle::Phase::kRunning) {
        // Grow the running worker's budget in place through the shared
        // control block: the campaign picks it up at its next execution
        // boundary and keeps going — no exit, no restore round-trip, no
        // ring re-import. If the worker exits before it sees the store,
        // the clean-but-short path relaunches it for free instead.
        segment.worker(id)->control.budget_override.store(
            s.goal, std::memory_order_relaxed);
      }
      lc.journal(id, persist::kEventRunning);
    }
  };

  // Whole-process resume: replay the journal into the slots. Quarantined
  // workers stay parked.
  if (store.resumed()) {
    for (u32 id = 0; id < n; ++id) {
      Slot& s = slots[id];
      const std::optional<persist::InstanceEvent> ev = store.last_event(id);
      if (!ev.has_value()) {
        // Died mid-first-attempt before any journal event; resume warm
        // from whatever checkpoints exist (cold start inside the worker if
        // none do).
        s.resume_next = true;
        continue;
      }
      s.health.hang_kills = ev->stalls;
      s.health.kills = ev->kills;
      s.health.oom_kills = ev->alloc_failures;
      s.goal = ev->segment_max_execs != 0 ? ev->segment_max_execs
                                          : config.base.max_execs;
      if (lc.replay(id, *ev, s.goal)) {
        s.resume_next = true;
        continue;
      }
      lc[id].execs = std::max(lc[id].execs, lc.absorb_snapshot(id));
      publish_totals(id, lc[id].execs);
    }
    // Re-derive any pool a quarantine freed that the previous coordinator
    // never managed to grant out (it died between journaling the park and
    // journaling the grants).
    if (config.base.max_execs != 0) {
      const u64 total_budget = static_cast<u64>(n) * config.base.max_execs;
      u64 assigned = 0;
      for (u32 id = 0; id < n; ++id) {
        // Quarantined workers contribute only their durable execs (that is
        // what freed the pool); failed workers keep their full goal — a
        // retry-exhausted worker's budget is lost, not redistributed, the
        // same as on the live path.
        assigned += lc[id].state == WorkerState::kQuarantined &&
                            lc[id].phase == Lifecycle::Phase::kFinished
                        ? lc[id].execs
                        : slots[id].goal;
      }
      if (total_budget > assigned) {
        budget_pool = total_budget - assigned;
        redistribute_pool(monotonic_ns());
      }
    }
  }

  // A restart the core granted: always warm, from the last checkpoint.
  auto restarted = [&](u32 id) {
    slots[id].resume_next = true;
    bump("restarts");
  };

  auto launch = [&](u32 id, u64 now) {
    Slot& s = slots[id];
    ShmWorkerBlock* blk = segment.worker(id);
    blk->control.progress.store(0, std::memory_order_relaxed);
    blk->control.stop.store(false, std::memory_order_relaxed);
    // The launch parameters already carry the current goal; a stale grow
    // signal from the previous incarnation must not linger.
    blk->control.budget_override.store(0, std::memory_order_relaxed);
    blk->state.store(kWorkerIdle, std::memory_order_relaxed);
    blk->result_execs.store(0, std::memory_order_relaxed);
    blk->result_interesting.store(0, std::memory_order_relaxed);
    blk->result_crashes.store(0, std::memory_order_relaxed);
    blk->result_fault_aborted.store(0, std::memory_order_relaxed);

    WorkerParams p;
    p.id = id;
    p.expect_workers = geom.num_workers;  // includes the gateway instance
    p.segment = &segment;
    p.program = &program;
    p.seeds = &seeds;
    p.base = config.base;
    p.seed_stride = config.instance_seed_stride;
    p.goal = s.goal;
    p.resume = s.resume_next;
    p.instance_dir = config.persist_dir + "/instance-" + std::to_string(id);
    p.checkpoint_interval = config.checkpoint_interval;
    p.keep_checkpoints = config.keep_checkpoints;
    p.fault_enabled = config.fault_enabled;
    p.fault_seed = config.fault_seed;
    p.fault_plan = config.fault_plan;
    p.chaos_check_interval = config.chaos_check_interval;
    p.hub = hub_opts;

    const pid_t pid = ::fork();
    if (pid < 0) {
      if (lc.launch_failed(id, now, "fork failed")) restarted(id);
      return;
    }
    if (pid == 0) {
      // Child: never return into the coordinator. _exit skips atexit and
      // destructors — everything this process owns dies with it.
      ::_exit(worker_main(p));
    }
    s.pid = pid;
    s.resume_next = false;
    s.kill_sent = false;
    s.stop_sent = false;
    s.execs_at_launch = lc[id].execs;
  };

  // Reaps one dead worker and decides: completed, restart, quarantine, or
  // give up.
  auto settle = [&](u32 id, int status, u64 now) {
    Slot& s = slots[id];
    Lifecycle::Instance& w = lc[id];
    ShmWorkerBlock* blk = segment.worker(id);
    const bool done =
        blk->state.load(std::memory_order_acquire) == kWorkerDone;

    // A worker that reached kWorkerDone published authoritative lifetime
    // counters for its budget segment; absorb them.
    if (done) {
      w.execs = std::max(w.execs,
                         blk->result_execs.load(std::memory_order_relaxed));
      w.interesting = std::max(
          w.interesting,
          blk->result_interesting.load(std::memory_order_relaxed));
      w.crashes_total = std::max(
          w.crashes_total, blk->result_crashes.load(std::memory_order_relaxed));
      publish_totals(id, lc[id].execs);
    }

    // Exit-status triage.
    bool clean = false;     // ran to a stop condition of its own
    bool abnormal = true;   // counts toward the quarantine window
    if (WIFEXITED(status)) {
      const int code = WEXITSTATUS(status);
      switch (code) {
        case kExitOk:
          clean = true;
          abnormal = false;
          break;
        case kExitFaultKill:
          ++s.health.kills;
          bump("injected_kills");
          if (fleet != nullptr) fleet->kills().add();
          break;
        case kExitOom:
          ++s.health.oom_kills;
          w.last_error = "std::bad_alloc";
          bump("oom_kills");
          if (fleet != nullptr) fleet->alloc_failures().add();
          break;
        case kExitShmFail:
          ++s.health.shm_failures;
          w.last_error = "shm attach/validate failed";
          bump("shm_failures");
          break;
        case kExitMidPublish:
          ++s.health.error_exits;
          w.last_error = "died mid-publish";
          bump("mid_publish_exits");
          break;
        default:
          ++s.health.error_exits;
          w.last_error = "worker exit code " + std::to_string(code);
          bump("error_exits");
          break;
      }
    } else if (WIFSIGNALED(status)) {
      const int sig = WTERMSIG(status);
      if (s.kill_sent && sig == SIGKILL) {
        // Our own deadline kill coming back around.
        ++s.health.hang_kills;
        w.last_error = "hang-killed after heartbeat stall";
        bump("hang_kills");
        if (fleet != nullptr) fleet->stalls().add();
      } else {
        ++s.health.crash_signals;
        s.health.last_signal = sig;
        w.last_error = "killed by signal " + std::to_string(sig);
        bump("crash_signals");
        bump(("signal_" + std::to_string(sig)).c_str());
      }
    } else {
      // Stopped/continued are filtered out before we get here; anything
      // else is an error exit.
      ++s.health.error_exits;
      w.last_error = "unrecognized wait status";
      bump("error_exits");
    }

    const bool reached_goal = s.goal != 0 ? w.execs >= s.goal : clean;
    if (lc.finish_if_wall_stopped(id, clean && done && reached_goal)) return;
    if (clean && done && reached_goal) {
      lc.finish(id, WorkerState::kCompleted);
      return;
    }
    if (clean && done) {
      if (w.execs > s.execs_at_launch) {
        // Finished its old goal while a quarantine grant grew it (or was
        // stopped cooperatively without a wall stop). Continue warm
        // against the current goal; this is scheduled work, not a
        // failure, so it does not charge the retry budget or back off.
        s.resume_next = true;
        lc.journal(id, persist::kEventRunning);
        lc.requeue(id, now);
        hub.reset_cursor(id);
        return;
      }
      // Exited cleanly short of its goal without a single new execution:
      // the worker is stuck (e.g. restoring broken durable state in a
      // loop). Take the abnormal path so it burns retry budget, backs off,
      // and eventually fails/quarantines instead of relaunching for free
      // forever.
      abnormal = true;
      w.last_error = "clean exit with no progress";
      ++s.health.error_exits;
      bump("no_progress_exits");
    }

    // Abnormal death. Slide the quarantine window.
    if (abnormal && config.quarantine_deaths > 0) {
      s.death_times.push_back(now);
      while (!s.death_times.empty() &&
             now - s.death_times.front() > window_ns) {
        s.death_times.pop_front();
      }
      if (s.death_times.size() >= config.quarantine_deaths) {
        // Park it. Durable progress is whatever its last checkpoint
        // holds; the undone budget goes back to the pool.
        w.execs = std::max(w.execs, lc.absorb_snapshot(id));
        publish_totals(id, lc[id].execs);
        if (s.goal > w.execs) budget_pool += s.goal - w.execs;
        if (w.last_error.empty()) w.last_error = "quarantined";
        bump("quarantined");
        lc.finish(id, WorkerState::kQuarantined);
        redistribute_pool(now);
        return;
      }
    }
    if (lc.retry(id, now)) restarted(id);
  };

  Lifecycle::Mechanism m;
  m.launch = launch;
  m.poll = [&](u32 id, u64 now) {
    Slot& s = slots[id];
    int status = 0;
    if (xwaitpid(s.pid, &status, WNOHANG) == s.pid) {
      settle(id, status, now);
      return;
    }
    const u64 p =
        segment.worker(id)->control.progress.load(std::memory_order_relaxed);
    const Lifecycle::Beat beat = lc.beat(id, p, now);
    if (beat == Lifecycle::Beat::kMoved) {
      // The heartbeat is the segment-lifetime exec count; publish it so
      // process fleets chart like thread fleets. Clamped to the goal: the
      // campaign also ticks the progress word once per checkpoint (so a
      // slow save is not mistaken for a stall), and those ticks must not
      // inflate the exec totals — the end-of-attempt result counters are
      // the authoritative value.
      publish_totals(id, s.goal != 0 ? std::min(p, s.goal) : p);
    } else if (!s.kill_sent &&
               (beat == Lifecycle::Beat::kStalled ||
                (s.stop_sent && now >= s.stop_deadline_ns))) {
      // Heartbeat deadline, or an ignored wall stop: SIGKILL works on
      // SIGSTOP'd, swapped-out and livelocked workers alike. Triage
      // happens at the reap.
      s.kill_sent = true;
      ::kill(s.pid, SIGKILL);
    }
  };
  m.stop = [&](u32 id, u64 now) {
    slots[id].stop_sent = true;
    slots[id].stop_deadline_ns = now + 2 * stall_ns;
    segment.worker(id)->control.stop.store(true, std::memory_order_relaxed);
  };
  if (gateway) m.pump = [&](u64 now) { gateway->pump(now); };
  lc.run(m);

  if (gateway) {
    // Drain the links before tallying: ship the final sync interval's
    // finds, deliver the backlog, say goodbye.
    gateway->shutdown(monotonic_ns());
    out.failover = gateway->failover_stats();
  }

  out.workers.reserve(n);
  for (u32 id = 0; id < n; ++id) {
    // Durable truth for everyone: the final snapshot carries the triage
    // identities (and, for workers that never handed over a clean result,
    // the exec count that will actually resume).
    const u64 durable = lc.absorb_snapshot(id);
    if (lc[id].state != WorkerState::kCompleted) {
      lc[id].execs = std::max(lc[id].execs, durable);
    }
    WorkerHealth h = slots[id].health;
    static_cast<InstanceStatus&>(h) = lc[id];
    h.goal = slots[id].goal;
    out.quarantined += h.state == WorkerState::kQuarantined;
    out.workers.push_back(std::move(h));
  }
  lc.tally(&out, monotonic_ns());
  return out;
}

}  // namespace bigmap::procfleet
