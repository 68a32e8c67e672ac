// Pipelined execution: target runs on spare cores, map work on the campaign
// thread.
//
// An exec splits in two. Running the target turns (program, input, step
// budget) into the ordered metric keys the run emitted and its ExecResult;
// that is a pure function of its arguments, so any thread can do it. The
// map work (reset, one update per key, classify, compare, hash) and
// everything after it stay on the campaign thread, in exec order.
//
//  - KeyTrace      one run's keys and result.
//  - TraceRecorder turns an input into a KeyTrace (an interpreter plus a
//                  metric; one per thread that runs targets).
//  - ExecPool      how many worker threads a campaign may use. One per
//                  process (ExecPool::process()); fleets, which already put
//                  one instance on each core, pass ExecPool::serial().
//  - ExecWindow    one campaign's FIFO of submitted inputs over a pool. Its
//                  worker threads exist only while the window does, so a
//                  process forks clean between campaigns.
//
// The window only ever runs what the campaign submitted; which inputs to
// submit (predictions of the campaign's next inputs) and whether a
// recorded trace belongs to the input the campaign actually reached (its
// bytes must be equal) are the campaign's business. A wrong prediction
// therefore costs time, never correctness.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "target/interpreter.h"
#include "util/types.h"

namespace bigmap {

// The metric keys one execution emitted, in order, and how it ended: all
// an executor needs to apply the exec to its map without running the
// target again. Holds exec.steps keys (one per executed block).
class KeyTrace {
 public:
  KeyTrace() = default;
  // Reserves room for `capacity` keys. The buffer is not written, so its
  // pages become resident only as runs fill them.
  explicit KeyTrace(usize capacity) { reserve(capacity); }

  // Grows the buffer to at least `capacity` keys, dropping its contents.
  void reserve(usize capacity) {
    if (capacity <= capacity_) return;
    keys_ = std::make_unique_for_overwrite<u32[]>(capacity);
    capacity_ = capacity;
  }
  usize capacity() const noexcept { return capacity_; }

  // Where a recorder writes the keys of its next run.
  u32* data() noexcept { return keys_.get(); }
  std::span<const u32> keys() const noexcept {
    return {keys_.get(), static_cast<usize>(exec.steps)};
  }

  ExecResult exec;
  u64 run_ns = 0;  // wall time of the target run that recorded it

 private:
  std::unique_ptr<u32[]> keys_;
  usize capacity_ = 0;
};

// Records one input's KeyTrace. A recorder is used by one thread at a time.
class TraceRecorder {
 public:
  virtual ~TraceRecorder() = default;
  virtual void record(std::span<const u8> input, KeyTrace& out) = 0;
};

class ExecPool {
 public:
  explicit ExecPool(u32 workers) noexcept : workers_(workers) {}
  ExecPool(const ExecPool&) = delete;
  ExecPool& operator=(const ExecPool&) = delete;

  // The process's pool: one worker per CPU in the calling thread's
  // affinity mask, but one (the campaign thread keeps its own core).
  // Zero workers on a one-CPU host, where campaigns run serially.
  static ExecPool& process();
  // No workers: every exec runs on the campaign thread.
  static ExecPool& serial();

  u32 workers() const noexcept { return workers_; }

 private:
  friend class ExecWindow;
  // One window at a time holds the workers; a second concurrent campaign
  // on the same pool runs serially.
  bool try_acquire() noexcept;
  void release() noexcept;

  u32 workers_;
  std::atomic<bool> busy_{false};
};

class ExecWindow {
 public:
  // Opens a window onto `pool`. When the pool has workers and no other
  // window holds it, starts them, each with its own recorder from
  // `make_recorder` (called here, on the opening thread) and bound to one
  // CPU of the opening thread's affinity mask other than the one it runs
  // on, and reserves 2 x workers slots of `trace_capacity` keys each.
  // Otherwise the window has no capacity and no thread. `inline_recorder`
  // runs, on the opening thread, a job that no worker has claimed when
  // that thread needs it, and one whose worker is stalled.
  ExecWindow(ExecPool& pool, TraceRecorder& inline_recorder,
             const std::function<std::unique_ptr<TraceRecorder>()>&
                 make_recorder,
             usize trace_capacity);
  // Drops every job and joins the workers.
  ~ExecWindow();
  ExecWindow(const ExecWindow&) = delete;
  ExecWindow& operator=(const ExecWindow&) = delete;

  u32 workers() const noexcept { return static_cast<u32>(threads_.size()); }
  // Most jobs the window holds at once; 0 when it runs serially.
  usize capacity() const noexcept { return num_slots_; }
  // Jobs submitted and not yet taken or dropped, oldest first.
  usize size() const noexcept { return size_; }
  std::span<const u8> input(usize i) const noexcept;

  // Queues `input` behind the newest job. Returns false, queuing nothing,
  // when no slot is free: the window is full, or slots of dropped jobs
  // are still running. Never allocates unless `input` outgrows its slot.
  bool submit(std::span<const u8> input);

  // Drops jobs [i, size()). Queued ones are never run; running ones
  // finish into the void and free their slot then.
  void cancel_from(usize i);

  // The oldest job's trace, when that job's bytes equal `input`, and sets
  // `*wait_ns` to the time getting it took. A job no worker has claimed
  // yet is recorded here. A claimed one is waited for, spinning, until it
  // has run for kStallRuns times the mean recorded run; past that its
  // worker is taken to be stalled (descheduled, or on a long run) and the
  // job is recorded here too, so one slow worker delays the campaign by
  // a bounded amount rather than by a scheduler time slice. The trace
  // stays valid until the next take() or drop(). Any other input drops
  // every job and gets nullptr: a trace is only ever handed out for the
  // bytes it was recorded from.
  const KeyTrace* take(std::span<const u8> input, u64* wait_ns);
  // Drops the oldest job if its bytes equal `input` and returns true;
  // otherwise drops every job and returns false.
  bool drop(std::span<const u8> input);

  // Claimed jobs take() recorded here because their worker was too slow.
  u64 stalls() const noexcept { return stalls_; }

  // How many mean runs a claimed job may take before take() records it
  // itself.
  static constexpr u64 kStallRuns = 2;

 private:
  enum : u32 { kFree = 0, kQueued, kRunning, kDone, kAbandoned };

  struct Slot {
    std::atomic<u32> state{kFree};
    std::atomic<u64> seq{0};  // submission order, read by claiming workers
    // When its worker claimed the job; 0 from submission until then.
    std::atomic<u64> claimed_ns{0};
    std::vector<u8> input;
    KeyTrace trace;
  };

  void worker_main(TraceRecorder* recorder);
  Slot* claim_oldest();
  void finish(Slot& s);
  // Drops a taken or submitted job: frees a queued or done slot at once,
  // marks a running one abandoned for its worker to free.
  static void abandon(Slot& s);
  // Spins until the job is done (true) or has run past the stall bound
  // (false).
  bool wait_done(Slot& s, u64 start_ns) const;
  // Folds one recorded run into the mean the stall bound scales with.
  void note_run(u64 run_ns) noexcept;
  // Pops the oldest job's slot if its bytes equal `input`; otherwise drops
  // every job. Either way frees the slot the last take() handed out.
  Slot* pop_matching(std::span<const u8> input);
  void release_held();

  ExecPool* pool_ = nullptr;
  TraceRecorder* inline_recorder_;
  std::vector<std::unique_ptr<TraceRecorder>> recorders_;
  std::unique_ptr<Slot[]> slots_;
  usize num_slots_ = 0;
  // Slot indices of the live jobs, oldest first: a ring over order_.
  std::vector<u32> order_;
  usize head_ = 0;
  usize size_ = 0;
  // The slot take() handed out, kept until the next call; -1 if none.
  i64 held_ = -1;
  u64 next_seq_ = 0;
  // What take() records a stalled worker's job into.
  KeyTrace stalled_;
  u64 stalls_ = 0;
  // Mean recorded run time (exponential, 1/8 weight per run); 0 until the
  // first run.
  u64 mean_run_ns_ = 0;

  std::vector<std::thread> threads_;
  std::atomic<bool> stop_{false};
  // Bumped on every submit; idle workers park on it.
  std::atomic<u32> posted_{0};
  std::atomic<u32> sleepers_{0};
};

}  // namespace bigmap
