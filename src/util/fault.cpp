#include "util/fault.h"

#include <signal.h>
#include <unistd.h>

#include <cstdio>

#include "util/hash.h"

namespace bigmap {
namespace {

thread_local FaultInjector* tl_injector = nullptr;
thread_local u32 tl_instance = 0;

}  // namespace

const char* fault_site_name(FaultSite site) noexcept {
  switch (site) {
    case FaultSite::kExecAbort: return "exec-abort";
    case FaultSite::kPublishDrop: return "publish-drop";
    case FaultSite::kTransientHang: return "transient-hang";
    case FaultSite::kAllocFail: return "alloc-fail";
    case FaultSite::kInstanceKill: return "instance-kill";
    case FaultSite::kShortWrite: return "short-write";
    case FaultSite::kCorruptRead: return "corrupt-read";
    case FaultSite::kRenameFail: return "rename-fail";
    case FaultSite::kNoSpace: return "no-space";
    case FaultSite::kProcKill: return "proc-kill";
    case FaultSite::kProcStall: return "proc-stall";
    case FaultSite::kProcExitMidPublish: return "proc-exit-mid-publish";
    case FaultSite::kMmapFail: return "mmap-fail";
    case FaultSite::kNetDrop: return "net-drop";
    case FaultSite::kNetDelay: return "net-delay";
    case FaultSite::kNetShortWrite: return "net-short-write";
    case FaultSite::kNetConnReset: return "net-conn-reset";
    case FaultSite::kNetPartition: return "net-partition";
    case FaultSite::kSelfKill: return "self-kill";
    case FaultSite::kCount: break;
  }
  return "unknown";
}

FaultPlan FaultPlan::without(FaultSite site) const {
  FaultPlan out = *this;
  std::erase_if(out.triggers,
                [site](const FaultTrigger& t) { return t.site == site; });
  std::erase_if(out.rates,
                [site](const FaultRate& r) { return r.site == site; });
  return out;
}

u64 FaultStats::checked_total() const noexcept {
  u64 sum = 0;
  for (u64 v : checked) sum += v;
  return sum;
}

u64 FaultStats::injected_total() const noexcept {
  u64 sum = 0;
  for (u64 v : injected) sum += v;
  return sum;
}

FaultInjector::FaultInjector(u64 seed, FaultPlan plan)
    : seed_(seed), plan_(std::move(plan)) {}

bool FaultInjector::fire(FaultSite site, u32 instance) {
  const usize si = static_cast<usize>(site);
  const u64 k = key(site, instance);

  u64 n;
  {
    std::lock_guard<std::mutex> lock(mu_);
    n = counters_[k]++;
    ++stats_.checked[si];
  }

  bool hit = false;
  for (const FaultTrigger& t : plan_.triggers) {
    if (t.site == site && t.instance == instance && t.nth == n) {
      hit = true;
      break;
    }
  }
  if (!hit) {
    for (const FaultRate& r : plan_.rates) {
      if (r.site != site || r.per_million == 0) continue;
      if (r.instance != FaultRate::kAllInstances && r.instance != instance) {
        continue;
      }
      // Deterministic per-occurrence coin flip: the decision depends only
      // on (seed, site, instance, occurrence index).
      const u64 h = mix64(seed_ ^ mix64(k) ^ mix64(n ^ 0xFA017ULL));
      if (h % 1000000u < r.per_million) {
        hit = true;
        break;
      }
    }
  }

  if (hit) {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.injected[si];
    ++injected_by_key_[k];
  }
  return hit;
}

void FaultInjector::commit_point(u32 instance, u64 checkpoints) {
  if (!fire(FaultSite::kSelfKill, instance)) return;
  char line[128];
  const int n = std::snprintf(
      line, sizeof(line),
      "self-kill: instance=%u checkpoints=%llu unfinished=%u\n", instance,
      static_cast<unsigned long long>(checkpoints),
      unfinished_.load(std::memory_order_relaxed));
  // One write(2), so the marker is never interleaved or left in a buffer
  // the kill throws away.
  std::fflush(stdout);
  (void)!::write(STDERR_FILENO, line, static_cast<usize>(n));
  ::kill(::getpid(), SIGKILL);
}

FaultStats FaultInjector::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

u64 FaultInjector::occurrences(FaultSite site, u32 instance) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = counters_.find(key(site, instance));
  return it != counters_.end() ? it->second : 0;
}

void FaultInjector::advance(FaultSite site, u32 instance, u64 n) {
  std::lock_guard<std::mutex> lock(mu_);
  u64& counter = counters_[key(site, instance)];
  if (counter < n) counter = n;
}

u64 FaultInjector::injected_for(u32 instance) const {
  std::lock_guard<std::mutex> lock(mu_);
  u64 sum = 0;
  for (usize si = 0; si < kNumFaultSites; ++si) {
    auto it =
        injected_by_key_.find(key(static_cast<FaultSite>(si), instance));
    if (it != injected_by_key_.end()) sum += it->second;
  }
  return sum;
}

FaultInjector::ScopedThreadBinding::ScopedThreadBinding(
    FaultInjector* injector, u32 instance) noexcept
    : prev_injector_(tl_injector), prev_instance_(tl_instance) {
  tl_injector = injector;
  tl_instance = instance;
}

FaultInjector::ScopedThreadBinding::~ScopedThreadBinding() {
  tl_injector = prev_injector_;
  tl_instance = prev_instance_;
}

bool FaultInjector::fire_alloc() noexcept {
  if (tl_injector == nullptr) return false;
  return tl_injector->fire(FaultSite::kAllocFail, tl_instance);
}

}  // namespace bigmap
