#include "fuzzer/procfleet/worker.h"

#include <signal.h>

#include <exception>
#include <new>
#include <optional>

#include "fuzzer/exec_pool.h"
#include "persist/checkpoint.h"

namespace bigmap::procfleet {

namespace {

// Publishes the injector's occurrence counts for every site into the shm
// mirror (monotone max — the pump's proc-site pre-bumps may be ahead).
void mirror_occurrences(const FaultInjector& fault, ShmWorkerBlock* blk,
                        u32 id) {
  for (usize i = 0; i < kNumFaultSites; ++i) {
    const u64 n = fault.occurrences(static_cast<FaultSite>(i), id);
    u64 cur = blk->site_occurrences[i].load(std::memory_order_relaxed);
    while (n > cur && !blk->site_occurrences[i].compare_exchange_weak(
                          cur, n, std::memory_order_relaxed)) {
    }
  }
}

// ExecHook that drives the process-level chaos sites. Runs on the worker's
// campaign thread; every `interval` executions it consults the injector at
// each site. The shm occurrence mirror is bumped BEFORE fire() so a check
// that kills the process still consumed its occurrence index — otherwise a
// "kill on the nth occurrence" trigger would re-fire on every restart and
// the worker would crash-loop forever instead of making progress.
class ChaosPump final : public ExecHook {
 public:
  ChaosPump(FaultInjector* fault, ShmHub* hub, ShmWorkerBlock* blk, u32 id,
            u64 interval)
      : fault_(fault),
        hub_(hub),
        blk_(blk),
        id_(id),
        interval_(interval == 0 ? 1 : interval),
        next_(interval == 0 ? 1 : interval) {}

  void on_exec(u64 execs) override {
    if (execs < next_) return;
    next_ = execs + interval_;
    // Refresh the whole mirror before the lethal checks below. This is
    // what makes campaign-internal sites (exec / sync / persist)
    // cumulative across process restarts too — with at most one check
    // interval of lag when the process dies dirty.
    mirror_occurrences(*fault_, blk_, id_);
    if (check(FaultSite::kProcKill)) {
      ::raise(SIGKILL);  // never returns
    }
    if (check(FaultSite::kProcStall)) {
      // Wedge until the coordinator's heartbeat deadline hang-kills us.
      ::raise(SIGSTOP);
    }
    if (check(FaultSite::kProcExitMidPublish)) {
      // Reserve and mark a ring slot, never commit it, die. Readers must
      // bounded-wait past the torn record (sync satellite).
      const Input torn(64, 0xEE);
      hub_->publish_partial(id_, torn);
      ::_exit(kExitMidPublish);
    }
  }

 private:
  bool check(FaultSite site) {
    blk_->site_occurrences[static_cast<usize>(site)].fetch_add(
        1, std::memory_order_relaxed);
    return fault_->fire(site, id_);
  }

  FaultInjector* fault_;
  ShmHub* hub_;
  ShmWorkerBlock* blk_;
  const u32 id_;
  const u64 interval_;
  u64 next_;
};

}  // namespace

int worker_main(const WorkerParams& p) {
  ShmWorkerBlock* blk = p.segment->worker(p.id);
  blk->state.store(kWorkerStarting, std::memory_order_release);

  // Rebuild the deterministic fault schedule in this process, continuing
  // every site's occurrence sequence from the shm mirror — faults this
  // worker's previous incarnations consumed stay consumed.
  std::optional<FaultInjector> fault_storage;
  FaultInjector* fault = nullptr;
  if (p.fault_enabled) {
    fault_storage.emplace(p.fault_seed, p.fault_plan);
    fault = &*fault_storage;
    for (usize i = 0; i < kNumFaultSites; ++i) {
      fault->advance(static_cast<FaultSite>(i), p.id,
                     blk->site_occurrences[i].load(
                         std::memory_order_relaxed));
    }
  }

  // Validate the inherited segment before touching any other offset. The
  // kMmapFail chaos site models the attach itself failing.
  if (fault != nullptr) {
    blk->site_occurrences[static_cast<usize>(FaultSite::kMmapFail)]
        .fetch_add(1, std::memory_order_relaxed);
  }
  std::string err;
  if (!p.segment->validate(p.expect_workers, fault, p.id, &err)) {
    return kExitShmFail;
  }

  int code = kExitError;
  try {
    ShmHub hub(p.segment, p.hub, fault);
    persist::CheckpointStore store(p.instance_dir,
                                   persist::FaultCtx{fault, p.id},
                                   /*fresh=*/false);
    ChaosPump pump(fault, &hub, blk, p.id, p.chaos_check_interval);
    FaultInjector::ScopedThreadBinding bind(fault, p.id);

    CampaignConfig c = p.base;
    // One worker process per core already: no spare core to pipeline on.
    c.exec_pool = &ExecPool::serial();
    c.seed = p.base.seed + static_cast<u64>(p.id) * p.seed_stride;
    c.max_execs = p.goal;
    c.sync = &hub;
    c.sync_id = p.id;
    c.is_master = (p.id == 0);
    c.control = &blk->control;
    c.fault = fault;
    c.exec_hook = fault != nullptr ? &pump : nullptr;
    c.checkpoint = &store;
    c.checkpoint_interval = p.checkpoint_interval;
    c.keep_checkpoints = p.keep_checkpoints;
    c.resume_from_checkpoint = p.resume;
    // Telemetry sinks live in the coordinator's address space; after fork
    // any write here would land in a private COW page. The coordinator
    // derives per-worker telemetry from the shm heartbeat instead.
    c.telemetry = nullptr;

    blk->state.store(kWorkerRunning, std::memory_order_release);
    const CampaignResult r = run_campaign(*p.program, *p.seeds, c);

    blk->result_execs.store(r.execs, std::memory_order_relaxed);
    blk->result_interesting.store(r.interesting, std::memory_order_relaxed);
    blk->result_crashes.store(r.crashes_total, std::memory_order_relaxed);
    blk->result_fault_aborted.store(r.fault_aborted ? 1 : 0,
                                    std::memory_order_relaxed);
    blk->state.store(kWorkerDone, std::memory_order_release);
    code = r.fault_aborted ? kExitFaultKill : kExitOk;
  } catch (const std::bad_alloc&) {
    code = kExitOom;
  } catch (const std::exception&) {
    code = kExitError;
  }
  // Final mirror sync: an orderly exit (clean, injected kill, even an
  // exception) leaves the consumed fault schedule fully visible to the
  // replacement process. Only a SIGKILL mid-attempt can lose up to one
  // check interval of non-lethal occurrences.
  if (fault != nullptr) mirror_occurrences(*fault, blk, p.id);
  return code;
}

}  // namespace bigmap::procfleet
