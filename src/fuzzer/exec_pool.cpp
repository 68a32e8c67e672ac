#include "fuzzer/exec_pool.h"

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <limits>
#include <system_error>

#include "util/timing.h"

namespace bigmap {
namespace {

// How long an idle worker spins before it parks. A worker of a running
// window gets a job every few of the campaign's execs; spinning across
// that gap keeps its CPU from going idle, whose wake-up on a busy host
// can take longer than the campaign takes to reach the job.
constexpr u64 kWorkerSpinNs = 1'000'000;
// The stall bound never drops below this, so timer noise on short runs
// does not count as a stall.
constexpr u64 kMinStallNs = 10'000;

inline void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

// Spins until pred() holds or `ns` elapse; returns pred()'s last value.
template <class Pred>
bool spin_until(u64 ns, Pred&& pred) {
  const u64 until = monotonic_ns() + ns;
  for (u32 i = 0;; ++i) {
    if (pred()) return true;
    if ((i & 63) == 63 && monotonic_ns() >= until) return false;
    cpu_relax();
  }
}

u32 spare_cpus() noexcept {
  cpu_set_t set;
  CPU_ZERO(&set);
  int cpus = 0;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    cpus = CPU_COUNT(&set);
  } else {
    cpus = static_cast<int>(std::thread::hardware_concurrency());
  }
  return cpus > 1 ? static_cast<u32>(cpus - 1) : 0;
}

// The CPUs of the calling thread's affinity mask but the one it runs on.
std::vector<int> other_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return {};
  const int self = sched_getcpu();
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set) && c != self) cpus.push_back(c);
  }
  return cpus;
}

}  // namespace

ExecPool& ExecPool::process() {
  static ExecPool pool(spare_cpus());
  return pool;
}

ExecPool& ExecPool::serial() {
  static ExecPool pool(0);
  return pool;
}

bool ExecPool::try_acquire() noexcept {
  bool expected = false;
  return workers_ > 0 &&
         busy_.compare_exchange_strong(expected, true,
                                       std::memory_order_acquire);
}

void ExecPool::release() noexcept {
  busy_.store(false, std::memory_order_release);
}

ExecWindow::ExecWindow(
    ExecPool& pool, TraceRecorder& inline_recorder,
    const std::function<std::unique_ptr<TraceRecorder>()>& make_recorder,
    usize trace_capacity)
    : inline_recorder_(&inline_recorder) {
  if (!pool.try_acquire()) return;
  pool_ = &pool;
  const u32 workers = pool.workers();
  num_slots_ = 2 * static_cast<usize>(workers);
  slots_ = std::make_unique<Slot[]>(num_slots_);
  for (usize i = 0; i < num_slots_; ++i) slots_[i].trace.reserve(trace_capacity);
  order_.resize(num_slots_);
  recorders_.reserve(workers);
  threads_.reserve(workers);
  // Each worker is bound to its own CPU, none to the campaign thread's.
  // Left to the scheduler, new threads can stay stacked on the opening
  // thread's CPU for seconds (seen on a 4-vCPU KVM guest whose idle vCPUs
  // had halted), and the window then runs at serial speed or below.
  const std::vector<int> cpus = other_cpus();
  for (u32 w = 0; w < workers; ++w) {
    recorders_.push_back(make_recorder());
    try {
      threads_.emplace_back(&ExecWindow::worker_main, this,
                            recorders_.back().get());
    } catch (const std::system_error&) {
      break;  // run with the workers that started
    }
    if (!cpus.empty()) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpus[w % cpus.size()], &one);
      // A refusal leaves the worker unbound, which is only slower.
      pthread_setaffinity_np(threads_.back().native_handle(), sizeof(one),
                             &one);
    }
  }
  if (threads_.empty()) {
    // Not one worker: serial, like a pool without any.
    num_slots_ = 0;
    pool_->release();
    pool_ = nullptr;
    return;
  }
  stalled_.reserve(trace_capacity);
}

ExecWindow::~ExecWindow() {
  if (pool_ == nullptr) return;
  cancel_from(0);
  release_held();
  stop_.store(true, std::memory_order_release);
  posted_.fetch_add(1, std::memory_order_seq_cst);
  posted_.notify_all();
  for (std::thread& t : threads_) t.join();
  pool_->release();
}

std::span<const u8> ExecWindow::input(usize i) const noexcept {
  return slots_[order_[(head_ + i) % num_slots_]].input;
}

bool ExecWindow::submit(std::span<const u8> input) {
  if (size_ >= num_slots_) return false;
  for (usize i = 0; i < num_slots_; ++i) {
    Slot& s = slots_[i];
    if (s.state.load(std::memory_order_acquire) != kFree) continue;
    s.input.assign(input.begin(), input.end());
    s.seq.store(next_seq_++, std::memory_order_relaxed);
    s.claimed_ns.store(0, std::memory_order_relaxed);
    s.state.store(kQueued, std::memory_order_release);
    order_[(head_ + size_) % num_slots_] = static_cast<u32>(i);
    ++size_;
    posted_.fetch_add(1, std::memory_order_seq_cst);
    if (sleepers_.load(std::memory_order_seq_cst) != 0) posted_.notify_one();
    return true;
  }
  return false;
}

void ExecWindow::abandon(Slot& s) {
  for (;;) {
    u32 st = s.state.load(std::memory_order_acquire);
    if (st == kQueued || st == kRunning) {
      const u32 to = st == kQueued ? kFree : kAbandoned;
      if (s.state.compare_exchange_weak(st, to, std::memory_order_acq_rel)) {
        return;
      }
      continue;  // a worker claimed or finished it meanwhile
    }
    if (st == kDone) s.state.store(kFree, std::memory_order_release);
    return;
  }
}

void ExecWindow::cancel_from(usize i) {
  for (usize j = i; j < size_; ++j) {
    abandon(slots_[order_[(head_ + j) % num_slots_]]);
  }
  size_ = std::min(size_, i);
}

void ExecWindow::release_held() {
  if (held_ < 0) return;
  slots_[static_cast<usize>(held_)].state.store(kFree,
                                                std::memory_order_release);
  held_ = -1;
}

ExecWindow::Slot* ExecWindow::pop_matching(std::span<const u8> input) {
  release_held();
  if (size_ == 0) return nullptr;
  const u32 idx = order_[head_];
  Slot& s = slots_[idx];
  if (!std::ranges::equal(s.input, input)) {
    cancel_from(0);
    return nullptr;
  }
  head_ = (head_ + 1) % num_slots_;
  --size_;
  return &s;
}

bool ExecWindow::drop(std::span<const u8> input) {
  Slot* s = pop_matching(input);
  if (s != nullptr) abandon(*s);
  return s != nullptr;
}

const KeyTrace* ExecWindow::take(std::span<const u8> input, u64* wait_ns) {
  const u64 start = monotonic_ns();
  Slot* s = pop_matching(input);
  if (s == nullptr) return nullptr;
  const KeyTrace* trace = &s->trace;
  u32 expected = kQueued;
  if (s->state.compare_exchange_strong(expected, kRunning,
                                       std::memory_order_acquire)) {
    // No worker got to it: run it here rather than wait.
    inline_recorder_->record(s->input, s->trace);
    s->state.store(kDone, std::memory_order_relaxed);
    held_ = s - slots_.get();
  } else if (wait_done(*s, start)) {
    held_ = s - slots_.get();
  } else {
    // Its worker is stalled: run it here too, and let the worker free the
    // slot when it gets back.
    inline_recorder_->record(s->input, stalled_);
    abandon(*s);
    ++stalls_;
    trace = &stalled_;
  }
  note_run(trace->run_ns);
  *wait_ns = monotonic_ns() - start;
  return trace;
}

void ExecWindow::note_run(u64 run_ns) noexcept {
  if (mean_run_ns_ == 0) {
    mean_run_ns_ = run_ns;
  } else {
    mean_run_ns_ = mean_run_ns_ - mean_run_ns_ / 8 + run_ns / 8;
  }
}

bool ExecWindow::wait_done(Slot& s, u64 start_ns) const {
  const u64 bound = std::max(kMinStallNs, kStallRuns * mean_run_ns_);
  for (u32 i = 0;; ++i) {
    if (s.state.load(std::memory_order_acquire) == kDone) return true;
    if ((i & 63) == 63) {
      // Counted from the claim, or from the start of the wait while the
      // worker has not stamped it yet.
      const u64 claimed = s.claimed_ns.load(std::memory_order_relaxed);
      if (monotonic_ns() - (claimed != 0 ? claimed : start_ns) > bound) {
        return s.state.load(std::memory_order_acquire) == kDone;
      }
    }
    cpu_relax();
  }
}

ExecWindow::Slot* ExecWindow::claim_oldest() {
  for (;;) {
    Slot* best = nullptr;
    u64 best_seq = std::numeric_limits<u64>::max();
    for (usize i = 0; i < num_slots_; ++i) {
      Slot& s = slots_[i];
      if (s.state.load(std::memory_order_relaxed) != kQueued) continue;
      const u64 seq = s.seq.load(std::memory_order_relaxed);
      if (seq < best_seq) {
        best_seq = seq;
        best = &s;
      }
    }
    if (best == nullptr) return nullptr;
    u32 expected = kQueued;
    if (best->state.compare_exchange_strong(expected, kRunning,
                                            std::memory_order_acquire)) {
      best->claimed_ns.store(monotonic_ns(), std::memory_order_relaxed);
      return best;
    }
  }
}

void ExecWindow::finish(Slot& s) {
  u32 expected = kRunning;
  if (!s.state.compare_exchange_strong(expected, kDone,
                                       std::memory_order_release)) {
    // Dropped while it ran: nobody wants the trace.
    s.state.store(kFree, std::memory_order_release);
  }
}

void ExecWindow::worker_main(TraceRecorder* recorder) {
  for (;;) {
    const u32 seen = posted_.load(std::memory_order_acquire);
    if (stop_.load(std::memory_order_acquire)) return;
    if (Slot* s = claim_oldest()) {
      recorder->record(s->input, s->trace);
      finish(*s);
      continue;
    }
    const auto posted = [&] {
      return posted_.load(std::memory_order_acquire) != seen;
    };
    if (spin_until(kWorkerSpinNs, posted)) continue;
    sleepers_.fetch_add(1, std::memory_order_seq_cst);
    if (posted_.load(std::memory_order_seq_cst) == seen) {
      posted_.wait(seen, std::memory_order_acquire);
    }
    sleepers_.fetch_sub(1, std::memory_order_relaxed);
  }
}

}  // namespace bigmap
