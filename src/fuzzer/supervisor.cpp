#include "fuzzer/supervisor.h"

#include <memory>
#include <stdexcept>
#include <system_error>
#include <thread>
#include <utility>

#include "fuzzer/exec_pool.h"
#include "persist/fleet.h"
#include "util/timing.h"

namespace bigmap {
namespace {

// The thread mechanism of one instance. The worker thread writes `result`
// / `error` and then sets `done` (release); the supervisor reads them only
// after observing `done` (acquire) and joining, so the handoff is clean.
struct Slot {
  std::unique_ptr<CampaignControl> control;
  std::atomic<bool> done{false};
  bool has_result = false;
  bool bad_alloc = false;
  CampaignResult result;
  std::string error;
  std::thread thread;  // after everything it writes

  // Budget-segment accounting. An attempt's lifetime counters are relative
  // to its *segment*: a cold (re)start opens a new segment (base_* absorbs
  // everything charged so far, the segment budget shrinks to what is still
  // owed), while a warm restart resumes the same segment from a checkpoint
  // (the restored counters already continue the segment, so base_* and the
  // budget stay put). health = base + latest attempt's counters, which
  // makes the fleet total exactly N * max_execs no matter how often
  // instances die.
  u64 base_execs = 0;
  u64 base_interesting = 0;
  u64 base_crashes = 0;
  u64 base_faulted_execs = 0;
  u64 base_injected_hangs = 0;
  u64 segment_max_execs = 0;
  bool resume_next = false;  // next attempt restores from checkpoint

  InstanceHealth health;  // the supervisor's own counters

  Slot() = default;
  Slot(const Slot&) = delete;
  Slot& operator=(const Slot&) = delete;
  // Whatever unwinds the supervisor, no joinable thread is left behind.
  ~Slot() {
    if (!thread.joinable()) return;
    control->stop.store(true, std::memory_order_relaxed);
    thread.join();
  }
};

// Did this attempt run to its configured stop condition (as opposed to
// being cut short by a stop request)? The exec bound is the slot's
// *segment* budget, not the configured total — a cold restart only owes
// what earlier segments have not already consumed.
bool reached_own_bound(const Slot& s, const CampaignConfig& base,
                       const CampaignResult& r) {
  if (s.segment_max_execs != 0 && r.execs >= s.segment_max_execs) {
    return true;
  }
  if (base.max_seconds > 0.0 && r.wall_seconds >= base.max_seconds) {
    return true;
  }
  return false;
}

}  // namespace

SupervisorResult run_supervised_campaign(const Program& program,
                                         const std::vector<Input>& seeds,
                                         const SupervisorConfig& config) {
  SupervisorResult out;
  if (config.num_instances == 0) return out;
  telemetry::FleetTelemetry* fleet = config.telemetry;
  if (fleet != nullptr && fleet->num_instances() < config.num_instances) {
    throw std::invalid_argument(
        "run_supervised_campaign: FleetTelemetry has " +
        std::to_string(fleet->num_instances()) + " sinks for " +
        std::to_string(config.num_instances) + " instances");
  }

  // Fleet persistence: open (or resume) the on-disk store before any
  // thread starts so a fingerprint mismatch fails fast.
  std::unique_ptr<persist::FleetStore> fleet_store;
  if (!config.persist_dir.empty()) {
    persist::FleetFingerprint fp;
    fp.num_instances = config.num_instances;
    fp.base_seed = config.base.seed;
    fp.seed_stride = config.instance_seed_stride;
    fp.max_execs = config.base.max_execs;
    fp.scheme = static_cast<u32>(config.base.scheme);
    fp.metric = static_cast<u32>(config.base.metric);
    fp.map_size = static_cast<u64>(config.base.map.map_size);
    fleet_store = std::make_unique<persist::FleetStore>(
        config.persist_dir, fp, persist::FaultCtx{config.fault, 0},
        config.resume);
    if (!fleet_store->ok()) {
      throw std::runtime_error("run_supervised_campaign: " +
                               fleet_store->error());
    }
  }

  SyncHubOptions hub_opts;
  hub_opts.num_instances = config.num_instances;
  hub_opts.max_records = config.sync_max_records;
  hub_opts.max_input_size = config.sync_max_input_size;
  SyncHub hub(hub_opts);
  hub.set_fault_injector(config.fault);

  std::vector<Slot> slots(config.num_instances);
  for (Slot& s : slots) s.segment_max_execs = config.base.max_execs;

  Lifecycle::Env env;
  env.hub = &hub;
  env.store = fleet_store.get();
  env.fill_event = [&](u32 id, persist::InstanceEvent& ev) {
    const Slot& s = slots[id];
    ev.stalls = s.health.stalls;
    ev.kills = s.health.kills;
    ev.alloc_failures = s.health.alloc_failures;
    ev.faulted_execs = s.health.faulted_execs;
    ev.injected_hangs = s.health.injected_hangs;
    ev.segment_max_execs = s.segment_max_execs;
  };
  env.telemetry = fleet;
  env.fault = config.fault;
  env.wall_error = "supervisor wall-clock limit";
  Lifecycle lc(config, config.num_instances, monotonic_ns(), std::move(env));

  // Whole-process resume: replay the journal into the slots. Instances the
  // previous process finished stay finished (their triage identities are
  // recovered from their final snapshot); instances that were still owed
  // budget resume warm from their last checkpoint. An instance with no
  // journal event at all died mid-first-attempt — its checkpoint store may
  // still hold snapshots, so it also resumes warm (falling back to a cold
  // start if nothing usable is on disk).
  if (fleet_store != nullptr && fleet_store->resumed()) {
    for (u32 id = 0; id < config.num_instances; ++id) {
      Slot& s = slots[id];
      const std::optional<persist::InstanceEvent> ev =
          fleet_store->last_event(id);
      if (!ev.has_value()) {
        s.resume_next = true;
        continue;
      }
      s.health.stalls = ev->stalls;
      s.health.kills = ev->kills;
      s.health.alloc_failures = ev->alloc_failures;
      s.health.faulted_execs = ev->faulted_execs;
      s.health.injected_hangs = ev->injected_hangs;
      s.segment_max_execs = ev->segment_max_execs != 0
                                ? ev->segment_max_execs
                                : config.base.max_execs;
      if (lc.replay(id, *ev, config.base.max_execs)) {
        // The resumed campaign publishes the restored segment's counters
        // into the fresh sink. A journaled run only ever restarts warm, so
        // there are no earlier cold segments to add.
        s.resume_next = true;
        continue;
      }
      // Finished in the previous process: recover the triage identities
      // from the instance's final snapshot, without re-journaling, and
      // publish the recovered totals as the sink's history.
      lc.absorb_snapshot(id);
      if (fleet != nullptr) {
        telemetry::StatsSnapshot recovered;
        recovered.execs = lc[id].execs;
        recovered.interesting = lc[id].interesting;
        recovered.crashes = lc[id].crashes_total;
        recovered.faulted_execs = s.health.faulted_execs;
        recovered.injected_hangs = s.health.injected_hangs;
        fleet->instance(id).begin_attempt(recovered);
      }
    }
  }

  // A restart the core granted: warm from the last checkpoint with a
  // store, otherwise a cold start that opens a new budget segment charged
  // with everything consumed so far. (No result at all — a failed launch
  // or bad_alloc before the loop started — retries the unchanged segment.)
  auto restarted = [&](u32 id) {
    Slot& s = slots[id];
    const Lifecycle::Instance& life = lc[id];
    if (fleet_store != nullptr) {
      s.resume_next = true;
    } else if (s.has_result) {
      s.base_execs = life.execs;
      s.base_interesting = life.interesting;
      s.base_crashes = life.crashes_total;
      s.base_faulted_execs = s.health.faulted_execs;
      s.base_injected_hangs = s.health.injected_hangs;
      if (config.base.max_execs != 0) {
        s.segment_max_execs = config.base.max_execs - life.execs;
      }
    }
  };

  auto launch = [&](u32 id, u64 now) {
    Slot& s = slots[id];
    s.control = std::make_unique<CampaignControl>();
    s.done.store(false, std::memory_order_relaxed);
    s.has_result = false;
    s.bad_alloc = false;
    s.error.clear();

    // Captured by value: the worker must see the slot's persistence
    // decisions as they were at launch, not as the supervisor later
    // mutates them. The one-shot flags are consumed once it runs.
    persist::CheckpointStore* store =
        fleet_store != nullptr ? &fleet_store->instance_store(id) : nullptr;
    try {
      s.thread = std::thread([&hub, &program, &seeds, &config, &s, id, store,
                              resume_this = s.resume_next,
                              seg_max = s.segment_max_execs]() {
        FaultInjector::ScopedThreadBinding bind(config.fault, id);
        try {
          CampaignConfig c = config.base;
          // One instance per core already: no spare core to pipeline on.
          c.exec_pool = &ExecPool::serial();
          c.seed = config.base.seed + id * config.instance_seed_stride;
          c.max_execs = seg_max;
          c.sync = &hub;
          c.sync_id = id;
          c.is_master = (id == 0);
          c.control = s.control.get();
          c.fault = config.fault;
          c.checkpoint = store;
          c.checkpoint_interval = config.checkpoint_interval;
          c.keep_checkpoints = config.keep_checkpoints;
          c.resume_from_checkpoint = resume_this;
          if (config.telemetry != nullptr) {
            c.telemetry = &config.telemetry->instance(id);
          }
          s.result = run_campaign(program, seeds, c);
          s.has_result = true;
        } catch (const std::bad_alloc&) {
          s.bad_alloc = true;
          s.error = "std::bad_alloc";
        } catch (const std::exception& e) {
          s.error = e.what();
        }
        s.done.store(true, std::memory_order_release);
      });
    } catch (const std::system_error&) {
      if (lc.launch_failed(id, now, "thread start failed")) restarted(id);
      return;
    }
    s.resume_next = false;
  };

  // Joins a finished worker and decides: completed, restart, or give up.
  auto settle = [&](u32 id, u64 now) {
    Slot& s = slots[id];
    Lifecycle::Instance& life = lc[id];
    s.thread.join();

    const CampaignResult& r = s.result;
    bool restart_needed = true;
    if (s.has_result) {
      // Assign, don't add: the attempt's counters are lifetime totals for
      // the current budget segment (a warm-resumed attempt continues the
      // counters of the attempt it replaced).
      life.execs = s.base_execs + r.execs;
      life.interesting = s.base_interesting + r.interesting;
      life.crashes_total = s.base_crashes + r.crashes_total;
      s.health.faulted_execs = s.base_faulted_execs + r.faulted_execs;
      s.health.injected_hangs = s.base_injected_hangs + r.injected_hangs;
      lc.add_finds(r.found_bug_ids, r.found_stack_hashes);
      if (r.fault_aborted) {
        ++s.health.kills;
        if (fleet != nullptr) fleet->kills().add();
      } else {
        restart_needed =
            life.stalled && !reached_own_bound(s, config.base, r);
      }
      // Budget exactness: whatever cut this attempt short, an instance
      // that has consumed its configured total owes nothing more.
      if (config.base.max_execs != 0 && life.execs >= config.base.max_execs) {
        restart_needed = false;
      }
    } else {
      if (s.bad_alloc) {
        ++s.health.alloc_failures;
        if (fleet != nullptr) fleet->alloc_failures().add();
      }
      life.last_error = s.error;
    }

    const bool completed = s.has_result && !r.fault_aborted &&
                           reached_own_bound(s, config.base, r);
    if (lc.finish_if_wall_stopped(id, completed)) return;
    if (!restart_needed) {
      lc.finish(id, InstanceState::kCompleted);
    } else if (lc.retry(id, now)) {
      restarted(id);
    }
  };

  Lifecycle::Mechanism m;
  m.launch = launch;
  m.poll = [&](u32 id, u64 now) {
    Slot& s = slots[id];
    if (s.done.load(std::memory_order_acquire)) {
      settle(id, now);
      return;
    }
    const u64 p = s.control->progress.load(std::memory_order_relaxed);
    if (lc.beat(id, p, now) == Lifecycle::Beat::kStalled) {
      // Watchdog: no exec progress within the deadline. Ask the instance
      // to wind down; the restart decision happens when it does.
      ++s.health.stalls;
      if (fleet != nullptr) fleet->stalls().add();
      s.control->stop.store(true, std::memory_order_relaxed);
    }
  };
  m.stop = [&](u32 id, u64) {
    slots[id].control->stop.store(true, std::memory_order_relaxed);
  };
  lc.run(m);

  out.instances.reserve(slots.size());
  for (u32 id = 0; id < config.num_instances; ++id) {
    InstanceHealth h = slots[id].health;
    static_cast<InstanceStatus&>(h) = lc[id];
    h.warm_restarts = fleet_store != nullptr ? h.restarts : 0;
    if (config.fault != nullptr) {
      h.faults_injected = config.fault->injected_for(id);
      out.faults_injected += h.faults_injected;
      if (h.state == InstanceState::kCompleted) {
        out.faults_survived += h.faults_injected;
      }
    }
    out.instances.push_back(std::move(h));
  }
  lc.tally(&out, monotonic_ns());
  return out;
}

}  // namespace bigmap
