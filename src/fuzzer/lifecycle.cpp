#include "fuzzer/lifecycle.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "util/timing.h"

namespace bigmap {
namespace {

constexpr u64 kMsNs = 1000000;

}  // namespace

u64 backoff_ns(const RestartPolicy& policy, u32 restarts_done) {
  u64 ms = policy.backoff_initial_ms;
  for (u32 i = 1; i < restarts_done && ms < policy.backoff_cap_ms; ++i) {
    ms *= 2;
  }
  return std::min<u64>(ms, policy.backoff_cap_ms) * kMsNs;
}

Lifecycle::Lifecycle(const RestartPolicy& policy, u32 num_instances,
                     u64 start_ns, Env env)
    : policy_(policy),
      start_ns_(start_ns),
      env_(std::move(env)),
      instances_(num_instances),
      next_stamp_ns_(start_ns) {
  for (u32 id = 0; id < num_instances; ++id) instances_[id].id = id;
}

u32 Lifecycle::unfinished() const {
  u32 n = 0;
  for (const Instance& in : instances_) n += in.phase != Phase::kFinished;
  return n;
}

void Lifecycle::report_unfinished() {
  if (env_.fault != nullptr) env_.fault->set_unfinished(unfinished());
}

bool Lifecycle::replay(u32 id, const persist::InstanceEvent& ev, u64 goal) {
  Instance& in = instances_[id];
  in.attempts = ev.attempts;
  in.restarts = ev.restarts;
  in.execs = ev.execs;
  in.interesting = ev.interesting;
  in.crashes_total = ev.crashes_total;
  // Resumable: still marked running, or failed with budget left (the
  // operator relaunched after fixing whatever killed it). Quarantined
  // instances stay parked.
  const bool owes_budget = goal == 0 || ev.execs < goal;
  if (ev.final_state != persist::kEventCompleted &&
      ev.final_state != persist::kEventQuarantined && owes_budget) {
    return true;
  }
  in.phase = Phase::kFinished;
  in.state = ev.final_state == persist::kEventCompleted
                 ? InstanceState::kCompleted
             : ev.final_state == persist::kEventQuarantined
                 ? InstanceState::kQuarantined
                 : InstanceState::kFailed;
  return false;
}

void Lifecycle::run(const Mechanism& m) {
  report_unfinished();
  for (;;) {
    const u64 now = monotonic_ns();
    tick(now, m.stop);
    for (Instance& in : instances_) {
      if (due(in.id, now)) {
        start(in.id, now);
        m.launch(in.id, now);
      } else if (in.phase == Phase::kRunning) {
        m.poll(in.id, now);
      }
    }
    if (m.pump) m.pump(now);
    if (unfinished() == 0) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(policy_.poll_ms));
  }
}

void Lifecycle::tick(u64 now,
                     const std::function<void(u32 id, u64 now)>& stop) {
  if (env_.telemetry != nullptr && policy_.fleet_stamp_ms > 0 &&
      now >= next_stamp_ns_) {
    next_stamp_ns_ = now + policy_.fleet_stamp_ms * kMsNs;
    stamp();
  }
  if (policy_.max_wall_seconds <= 0.0 || wall_stop_issued_ ||
      static_cast<double>(now - start_ns_) * 1e-9 <=
          policy_.max_wall_seconds) {
    return;
  }
  wall_stop_issued_ = true;
  for (Instance& in : instances_) {
    in.wall_stopped = true;
    if (in.phase == Phase::kRunning) {
      stop(in.id, now);
    } else if (in.phase == Phase::kPending) {
      // Never started, or waiting out a backoff: give up on it.
      finish_if_wall_stopped(in.id, false);
    }
  }
}

bool Lifecycle::due(u32 id, u64 now) const {
  const Instance& in = instances_[id];
  return in.phase == Phase::kPending && now >= in.next_start_ns;
}

void Lifecycle::start(u32 id, u64 now) {
  Instance& in = instances_[id];
  ++in.attempts;
  in.phase = Phase::kRunning;
  in.stalled = false;
  in.last_progress = 0;
  in.last_progress_ns = now;
}

Lifecycle::Beat Lifecycle::beat(u32 id, u64 progress, u64 now) {
  Instance& in = instances_[id];
  if (progress != in.last_progress) {
    in.last_progress = progress;
    in.last_progress_ns = now;
    return Beat::kMoved;
  }
  if (!in.stalled &&
      now - in.last_progress_ns > policy_.stall_deadline_ms * kMsNs) {
    in.stalled = true;
    return Beat::kStalled;
  }
  return Beat::kQuiet;
}

bool Lifecycle::retry(u32 id, u64 now) {
  Instance& in = instances_[id];
  if (in.restarts >= policy_.max_restarts) {
    if (in.last_error.empty()) in.last_error = "retry budget exhausted";
    finish(id, InstanceState::kFailed);
    return false;
  }
  ++in.restarts;
  journal(id, persist::kEventRunning);
  const u64 backoff = backoff_ns(policy_, in.restarts);
  if (env_.telemetry != nullptr) {
    env_.telemetry->restarts().add();
    env_.telemetry->instance(id).restarts.add();
    env_.telemetry->backoff_ms_total().add(backoff / kMsNs);
  }
  in.next_start_ns = now + backoff;
  in.phase = Phase::kPending;
  // The replacement's queue may predate records the dead attempt already
  // fetched; rewinding lets it re-import everything the hub retains.
  if (env_.hub != nullptr) env_.hub->reset_cursor(id);
  return true;
}

bool Lifecycle::launch_failed(u32 id, u64 now, std::string why) {
  instances_[id].last_error = std::move(why);
  return retry(id, now);
}

bool Lifecycle::finish_if_wall_stopped(u32 id, bool completed) {
  Instance& in = instances_[id];
  if (!in.wall_stopped) return false;
  // No replacements after the safety stop; an attempt cut short of its
  // own stop condition is failed, not quietly completed.
  if (!completed && in.last_error.empty()) in.last_error = env_.wall_error;
  finish(id, completed ? InstanceState::kCompleted : InstanceState::kFailed);
  return true;
}

void Lifecycle::finish(u32 id, InstanceState state) {
  Instance& in = instances_[id];
  in.phase = Phase::kFinished;
  in.state = state;
  report_unfinished();
  journal(id, state == InstanceState::kCompleted ? persist::kEventCompleted
              : state == InstanceState::kQuarantined
                  ? persist::kEventQuarantined
                  : persist::kEventFailed);
}

void Lifecycle::requeue(u32 id, u64 now) {
  instances_[id].phase = Phase::kPending;
  instances_[id].next_start_ns = now;
  report_unfinished();
}

void Lifecycle::journal(u32 id, u32 final_state) {
  persist::FleetStore* store = env_.store;
  if (store == nullptr) return;
  const Instance& in = instances_[id];
  persist::InstanceEvent ev;
  ev.instance = id;
  ev.final_state = final_state;
  ev.attempts = in.attempts;
  ev.restarts = in.restarts;
  ev.warm_restarts = in.restarts;  // with a store every restart is warm
  ev.execs = in.execs;
  ev.interesting = in.interesting;
  ev.crashes_total = in.crashes_total;
  if (env_.fill_event) env_.fill_event(id, ev);
  // Newest snapshot actually committed so far, so statecheck can detect
  // journal events referencing state that never made it to disk.
  ev.checkpoint_seq = store->instance_store(id).newest_seq_on_disk();
  // Failures (real or injected) are non-fatal: a future resume just sees
  // a slightly staler event.
  std::string err;
  if (!store->append_event(ev, &err) || env_.fault == nullptr ||
      !env_.journal_kill_key.has_value()) {
    return;
  }
  u64 checkpoints = 0;
  for (const Instance& other : instances_) {
    checkpoints += store->instance_store(other.id).newest_seq_on_disk();
  }
  env_.fault->commit_point(*env_.journal_kill_key, checkpoints);
}

u64 Lifecycle::absorb_snapshot(u32 id) {
  if (env_.store == nullptr) return 0;
  persist::CheckpointStore::LoadOutcome lo =
      env_.store->instance_store(id).load_latest();
  if (!lo.snapshot.has_value()) return 0;
  add_finds(lo.snapshot->bug_ids, lo.snapshot->stack_hashes);
  Instance& in = instances_[id];
  in.interesting = std::max(in.interesting, lo.snapshot->interesting);
  in.crashes_total = std::max(in.crashes_total, lo.snapshot->crashes_total);
  return lo.snapshot->execs;
}

void Lifecycle::add_finds(const std::vector<u32>& bug_ids,
                          const std::vector<u64>& stack_hashes) {
  bug_union_.insert(bug_ids.begin(), bug_ids.end());
  stack_union_.insert(stack_hashes.begin(), stack_hashes.end());
}

void Lifecycle::tally(FleetResult* out, u64 now) {
  out->found_bug_ids.assign(bug_union_.begin(), bug_union_.end());
  std::sort(out->found_bug_ids.begin(), out->found_bug_ids.end());
  out->found_stack_hashes.assign(stack_union_.begin(), stack_union_.end());
  std::sort(out->found_stack_hashes.begin(), out->found_stack_hashes.end());
  for (const Instance& in : instances_) {
    out->total_execs += in.execs;
    out->total_interesting += in.interesting;
    out->total_crashes += in.crashes_total;
    out->total_restarts += in.restarts;
  }
  out->wall_seconds = static_cast<double>(now - start_ns_) * 1e-9;
  out->aggregate_throughput =
      out->wall_seconds > 0
          ? static_cast<double>(out->total_execs) / out->wall_seconds
          : 0.0;
  if (env_.hub != nullptr) out->sync = env_.hub->stats();
  if (env_.store != nullptr) {
    out->persist = env_.store->stats();
    out->resumed = env_.store->resumed();
  }
  if (env_.telemetry != nullptr) out->fleet_total = stamp();
}

telemetry::StatsSnapshot Lifecycle::stamp() {
  telemetry::MetricRegistry& reg = env_.telemetry->registry();
  if (env_.fault != nullptr) {
    const FaultStats fs = env_.fault->stats();
    for (usize si = 0; si < kNumFaultSites; ++si) {
      const std::string site =
          std::string("fault.") + fault_site_name(static_cast<FaultSite>(si));
      reg.gauge(site + ".checked").set(fs.checked[si]);
      reg.gauge(site + ".injected").set(fs.injected[si]);
    }
  }
  if (env_.publish) env_.publish(reg);
  return env_.telemetry->stamp_fleet();
}

}  // namespace bigmap
