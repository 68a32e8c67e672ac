#include "fuzzer/supervisor.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>
#include <thread>
#include <stdexcept>
#include <unordered_set>
#include <utility>

#include "persist/fleet.h"
#include "persist/io.h"
#include "util/timing.h"

namespace bigmap {
namespace {

// Per-instance supervision state. The worker thread writes `result` /
// `error` and then sets `done` (release); the supervisor reads them only
// after observing `done` (acquire) and joining, so the handoff is clean.
struct Slot {
  enum class Phase { kPending, kRunning, kFinished };

  u32 id = 0;
  Phase phase = Phase::kPending;
  std::unique_ptr<CampaignControl> control;
  std::thread thread;

  std::atomic<bool> done{false};
  bool has_result = false;
  bool bad_alloc = false;
  CampaignResult result;
  std::string error;

  bool stall_requested = false;
  bool wall_stopped = false;
  u64 last_progress = 0;
  u64 last_progress_ns = 0;
  u64 next_start_ns = 0;

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
  bool resume_next = false;     // next attempt restores from checkpoint
  bool prime_telemetry = false;  // next attempt re-primes a fresh sink

  InstanceHealth health;
};

u64 backoff_ns(const SupervisorConfig& cfg, u32 restarts_done) {
  double ms = static_cast<double>(cfg.backoff_initial_ms);
  for (u32 i = 1; i < restarts_done; ++i) ms *= cfg.backoff_multiplier;
  ms = std::min(ms, static_cast<double>(cfg.backoff_cap_ms));
  return static_cast<u64>(ms * 1e6);
}

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
  if (fleet != nullptr && config.fault != nullptr) {
    // Fault-injection runs become observable in the same scrape.
    config.fault->set_registry(&fleet->registry());
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
    out.resumed = fleet_store->resumed();
  }

  SyncHubOptions hub_opts;
  hub_opts.num_instances = config.num_instances;
  hub_opts.max_records = config.sync_max_records;
  hub_opts.max_input_size = config.sync_max_input_size;
  SyncHub hub(hub_opts);
  hub.set_fault_injector(config.fault);

  const u64 start_ns = monotonic_ns();
  const u64 stall_ns = static_cast<u64>(config.stall_deadline_ms) * 1000000;

  std::vector<std::unique_ptr<Slot>> slots;
  slots.reserve(config.num_instances);
  for (u32 id = 0; id < config.num_instances; ++id) {
    auto s = std::make_unique<Slot>();
    s->id = id;
    s->health.id = id;
    s->segment_max_execs = config.base.max_execs;
    slots.push_back(std::move(s));
  }

  std::unordered_set<u32> bug_union;
  std::unordered_set<u64> stack_union;

  // Whole-process resume: replay the journal into the slots. Instances the
  // previous process finished stay finished (their triage identities are
  // recovered from their final snapshot); instances that were still owed
  // budget resume warm from their last checkpoint. An instance with no
  // journal event at all died mid-first-attempt — its checkpoint store may
  // still hold snapshots, so it also resumes warm (falling back to a cold
  // start if nothing usable is on disk).
  if (fleet_store != nullptr && fleet_store->resumed()) {
    for (auto& sp : slots) {
      Slot& s = *sp;
      const std::optional<persist::InstanceEvent> ev =
          fleet_store->last_event(s.id);
      if (!ev.has_value()) {
        s.resume_next = true;
        s.prime_telemetry = true;
        continue;
      }
      s.health.attempts = ev->attempts;
      s.health.restarts = ev->restarts;
      s.health.stalls = ev->stalls;
      s.health.kills = ev->kills;
      s.health.alloc_failures = ev->alloc_failures;
      s.health.warm_restarts = ev->warm_restarts;
      s.health.execs = ev->execs;
      s.health.interesting = ev->interesting;
      s.health.crashes_total = ev->crashes_total;
      s.health.faulted_execs = ev->faulted_execs;
      s.health.injected_hangs = ev->injected_hangs;
      s.base_execs = ev->base_execs;
      s.base_interesting = ev->base_interesting;
      s.base_crashes = ev->base_crashes;
      s.base_faulted_execs = ev->base_faulted_execs;
      s.base_injected_hangs = ev->base_injected_hangs;
      s.segment_max_execs = ev->segment_max_execs != 0
                                ? ev->segment_max_execs
                                : config.base.max_execs;

      // Resumable: still marked running, or failed with budget left (the
      // operator relaunched after fixing whatever killed it — a failure
      // with execs still owed continues, it does not stay buried).
      const bool owes_budget = config.base.max_execs == 0 ||
                               ev->execs < config.base.max_execs;
      if (ev->final_state != persist::kEventCompleted && owes_budget) {
        s.resume_next = true;
        s.prime_telemetry = true;
        // The campaign's telemetry_restore primes the sink with the
        // restored segment's counters; the earlier cold segments are
        // primed here so lifetime totals stay continuous.
        if (fleet != nullptr) {
          telemetry::TelemetrySink& sink = fleet->instance(s.id);
          sink.execs.add(s.base_execs);
          sink.interesting.add(s.base_interesting);
          sink.crashes.add(s.base_crashes);
          sink.faulted_execs.add(s.base_faulted_execs);
          sink.injected_hangs.add(s.base_injected_hangs);
        }
        continue;
      }

      // Finished in the previous process: recover the triage identities
      // from the instance's final snapshot and close the slot without
      // re-journaling.
      s.health.state = ev->final_state == persist::kEventCompleted
                           ? InstanceState::kCompleted
                           : InstanceState::kFailed;
      s.phase = Slot::Phase::kFinished;
      persist::CheckpointStore::LoadOutcome lo =
          fleet_store->instance_store(s.id).load_latest();
      if (lo.snapshot.has_value()) {
        for (u32 b : lo.snapshot->bug_ids) bug_union.insert(b);
        for (u64 h : lo.snapshot->stack_hashes) stack_union.insert(h);
      }
      if (fleet != nullptr) {
        telemetry::TelemetrySink& sink = fleet->instance(s.id);
        sink.execs.add(s.health.execs);
        sink.interesting.add(s.health.interesting);
        sink.crashes.add(s.health.crashes_total);
        sink.faulted_execs.add(s.health.faulted_execs);
        sink.injected_hangs.add(s.health.injected_hangs);
      }
    }
  }

  // Instances still owed work, for the kSelfKill marker line.
  auto report_unfinished = [&] {
    if (config.fault == nullptr) return;
    u32 n = 0;
    for (const auto& sp : slots) n += sp->phase != Slot::Phase::kFinished;
    config.fault->set_unfinished(n);
  };
  report_unfinished();

  // Appends this slot's current accounting to the fleet journal. Failures
  // (real or injected) are non-fatal: the run continues, a future resume
  // just sees a slightly staler event.
  auto journal_event = [&](const Slot& s, u32 final_state) {
    if (fleet_store == nullptr) return;
    persist::InstanceEvent ev;
    ev.instance = s.id;
    ev.final_state = final_state;
    ev.attempts = s.health.attempts;
    ev.restarts = s.health.restarts;
    ev.stalls = s.health.stalls;
    ev.kills = s.health.kills;
    ev.alloc_failures = s.health.alloc_failures;
    ev.warm_restarts = s.health.warm_restarts;
    ev.execs = s.health.execs;
    ev.interesting = s.health.interesting;
    ev.crashes_total = s.health.crashes_total;
    ev.faulted_execs = s.health.faulted_execs;
    ev.injected_hangs = s.health.injected_hangs;
    ev.base_execs = s.base_execs;
    ev.base_interesting = s.base_interesting;
    ev.base_crashes = s.base_crashes;
    ev.base_faulted_execs = s.base_faulted_execs;
    ev.base_injected_hangs = s.base_injected_hangs;
    ev.segment_max_execs = s.segment_max_execs;
    // Newest snapshot actually committed so far, so statecheck can detect
    // journal events referencing state that never made it to disk.
    ev.checkpoint_seq =
        fleet_store->instance_store(s.id).newest_seq_on_disk();
    std::string err;
    (void)fleet_store->append_event(ev, &err);
  };

  auto launch = [&](Slot& s) {
    s.control = std::make_unique<CampaignControl>();
    s.done.store(false, std::memory_order_relaxed);
    s.has_result = false;
    s.bad_alloc = false;
    s.error.clear();
    s.stall_requested = false;
    s.last_progress = 0;
    s.last_progress_ns = monotonic_ns();
    ++s.health.attempts;
    s.phase = Slot::Phase::kRunning;

    // Captured by value: the worker must see the slot's persistence
    // decisions as they were at launch, not as the supervisor later
    // mutates them. The one-shot flags are consumed here.
    persist::CheckpointStore* store =
        fleet_store != nullptr ? &fleet_store->instance_store(s.id)
                               : nullptr;
    const bool resume_this = s.resume_next;
    const bool prime = s.prime_telemetry;
    const u64 seg_max = s.segment_max_execs;
    s.resume_next = false;
    s.prime_telemetry = false;

    s.thread = std::thread([&hub, &program, &seeds, &config, &s, store,
                            resume_this, prime, seg_max]() {
      FaultInjector::ScopedThreadBinding bind(config.fault, s.id);
      try {
        CampaignConfig c = config.base;
        c.seed = config.base.seed + s.id * config.instance_seed_stride;
        c.max_execs = seg_max;
        c.sync = &hub;
        c.sync_id = s.id;
        c.is_master = (s.id == 0);
        c.control = s.control.get();
        c.fault = config.fault;
        c.checkpoint = store;
        c.checkpoint_interval = config.checkpoint_interval;
        c.keep_checkpoints = config.keep_checkpoints;
        c.resume_from_checkpoint = resume_this;
        c.telemetry_restore = prime;
        if (config.telemetry != nullptr) {
          c.telemetry = &config.telemetry->instance(s.id);
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
  };

  auto absorb_result = [&](Slot& s) {
    // Assign, don't add: the attempt's counters are lifetime totals for
    // the current budget segment (a warm-resumed attempt continues the
    // counters of the attempt it replaced).
    const CampaignResult& r = s.result;
    s.health.execs = s.base_execs + r.execs;
    s.health.interesting = s.base_interesting + r.interesting;
    s.health.crashes_total = s.base_crashes + r.crashes_total;
    s.health.faulted_execs = s.base_faulted_execs + r.faulted_execs;
    s.health.injected_hangs = s.base_injected_hangs + r.injected_hangs;
    for (u32 b : r.found_bug_ids) bug_union.insert(b);
    for (u64 h : r.found_stack_hashes) stack_union.insert(h);
  };

  auto finish = [&](Slot& s, InstanceState state) {
    s.phase = Slot::Phase::kFinished;
    s.health.state = state;
    report_unfinished();
    journal_event(s, state == InstanceState::kCompleted
                         ? persist::kEventCompleted
                         : persist::kEventFailed);
  };

  // Joins a finished worker and decides: completed, restart, or give up.
  auto handle_outcome = [&](Slot& s) {
    s.thread.join();

    bool restart_needed;
    if (s.has_result) {
      absorb_result(s);
      if (s.result.fault_aborted) {
        ++s.health.kills;
        if (fleet != nullptr) fleet->kills().add();
        restart_needed = true;
      } else if (s.stall_requested &&
                 !reached_own_bound(s, config.base, s.result)) {
        restart_needed = true;
      } else {
        restart_needed = false;
      }
      // Budget exactness: whatever cut this attempt short, an instance
      // that has consumed its configured total owes nothing more.
      if (restart_needed && config.base.max_execs != 0 &&
          s.health.execs >= config.base.max_execs) {
        restart_needed = false;
      }
    } else {
      if (s.bad_alloc) {
        ++s.health.alloc_failures;
        if (fleet != nullptr) fleet->alloc_failures().add();
      }
      s.health.last_error = s.error;
      restart_needed = true;
    }

    if (s.wall_stopped) {
      // Safety stop: no replacements; an attempt cut short of its own
      // stop condition is reported as failed, not quietly completed.
      const bool completed = s.has_result && !s.result.fault_aborted &&
                             reached_own_bound(s, config.base, s.result);
      finish(s, completed ? InstanceState::kCompleted
                          : InstanceState::kFailed);
      if (s.health.state == InstanceState::kFailed &&
          s.health.last_error.empty()) {
        s.health.last_error = "supervisor wall-clock limit";
      }
      return;
    }

    if (!restart_needed) {
      finish(s, InstanceState::kCompleted);
      return;
    }
    if (s.health.restarts >= config.max_restarts_per_instance) {
      if (s.health.last_error.empty()) {
        s.health.last_error = "retry budget exhausted";
      }
      finish(s, InstanceState::kFailed);
      return;
    }
    ++s.health.restarts;
    if (fleet_store != nullptr) {
      // Warm restart: the replacement attempt restores the last good
      // checkpoint and keeps working against the same segment budget.
      // (If nothing usable is on disk it cold-starts inside the same
      // segment, which re-runs some execs but keeps the total exact.)
      s.resume_next = true;
      ++s.health.warm_restarts;
    } else if (s.has_result) {
      // Cold restart with a partial result: open a new segment. Charge
      // everything consumed so far to base_* and shrink the replacement's
      // budget to the execs still owed.
      s.base_execs = s.health.execs;
      s.base_interesting = s.health.interesting;
      s.base_crashes = s.health.crashes_total;
      s.base_faulted_execs = s.health.faulted_execs;
      s.base_injected_hangs = s.health.injected_hangs;
      if (config.base.max_execs != 0) {
        s.segment_max_execs = config.base.max_execs - s.health.execs;
      }
    }
    // (No result at all — bad_alloc before the loop started — retries the
    // unchanged segment: nothing was consumed, nothing to rebase.)
    journal_event(s, persist::kEventRunning);
    const u64 backoff = backoff_ns(config, s.health.restarts);
    if (fleet != nullptr) {
      fleet->restarts().add();
      fleet->instance(s.id).restarts.add();
      fleet->backoff_ms_total().add(backoff / 1000000);
    }
    s.next_start_ns = monotonic_ns() + backoff;
    // The restarted instance rebuilds its queue from the seeds; rewinding
    // its cursor lets it re-import everything the hub still retains.
    hub.reset_cursor(s.id);
    s.phase = Slot::Phase::kPending;
  };

  bool wall_stop_issued = false;
  u64 next_fleet_stamp_ns = start_ns;
  for (;;) {
    usize unfinished = 0;
    const u64 now = monotonic_ns();

    if (fleet != nullptr && config.fleet_stamp_ms > 0 &&
        now >= next_fleet_stamp_ns) {
      next_fleet_stamp_ns =
          now + static_cast<u64>(config.fleet_stamp_ms) * 1000000;
      fleet->stamp_fleet();
    }

    if (config.max_wall_seconds > 0.0 && !wall_stop_issued &&
        static_cast<double>(now - start_ns) * 1e-9 >
            config.max_wall_seconds) {
      wall_stop_issued = true;
      for (auto& sp : slots) {
        sp->wall_stopped = true;
        if (sp->phase == Slot::Phase::kRunning && sp->control != nullptr) {
          sp->control->stop.store(true, std::memory_order_relaxed);
        } else if (sp->phase == Slot::Phase::kPending) {
          // Never started (or waiting out a backoff): give up on it.
          if (sp->health.last_error.empty()) {
            sp->health.last_error = "supervisor wall-clock limit";
          }
          finish(*sp, InstanceState::kFailed);
        }
      }
    }

    for (auto& sp : slots) {
      Slot& s = *sp;
      switch (s.phase) {
        case Slot::Phase::kPending:
          if (now >= s.next_start_ns) launch(s);
          ++unfinished;
          break;
        case Slot::Phase::kRunning:
          if (s.done.load(std::memory_order_acquire)) {
            handle_outcome(s);
            if (s.phase != Slot::Phase::kFinished) ++unfinished;
            break;
          }
          ++unfinished;
          {
            const u64 p =
                s.control->progress.load(std::memory_order_relaxed);
            if (p != s.last_progress) {
              s.last_progress = p;
              s.last_progress_ns = now;
            } else if (!s.stall_requested &&
                       now - s.last_progress_ns > stall_ns) {
              // Watchdog: no exec progress within the deadline. Ask the
              // instance to wind down; the restart decision happens when
              // it does.
              s.stall_requested = true;
              ++s.health.stalls;
              if (fleet != nullptr) fleet->stalls().add();
              s.control->stop.store(true, std::memory_order_relaxed);
            }
          }
          break;
        case Slot::Phase::kFinished:
          break;
      }
    }

    if (unfinished == 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(config.poll_ms));
  }

  out.wall_seconds = static_cast<double>(monotonic_ns() - start_ns) * 1e-9;
  out.instances.reserve(slots.size());
  for (auto& sp : slots) {
    Slot& s = *sp;
    if (config.fault != nullptr) {
      s.health.faults_injected = config.fault->injected_for(s.id);
      out.faults_injected += s.health.faults_injected;
      if (s.health.state == InstanceState::kCompleted) {
        out.faults_survived += s.health.faults_injected;
      }
    }
    out.total_execs += s.health.execs;
    out.total_interesting += s.health.interesting;
    out.total_crashes += s.health.crashes_total;
    out.total_restarts += s.health.restarts;
    out.instances.push_back(s.health);
  }
  out.found_bug_ids.assign(bug_union.begin(), bug_union.end());
  std::sort(out.found_bug_ids.begin(), out.found_bug_ids.end());
  out.found_stack_hashes.assign(stack_union.begin(), stack_union.end());
  std::sort(out.found_stack_hashes.begin(), out.found_stack_hashes.end());
  out.aggregate_throughput =
      out.wall_seconds > 0
          ? static_cast<double>(out.total_execs) / out.wall_seconds
          : 0.0;
  out.sync = hub.stats();
  if (fleet_store != nullptr) {
    out.persist = fleet_store->stats();
  }
  if (fleet != nullptr) {
    out.fleet_total = fleet->stamp_fleet();
  }
  return out;
}

}  // namespace bigmap
