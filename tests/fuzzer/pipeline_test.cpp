// Pipelined execution (fuzzer/exec_pool.h).
//
// ExecPoolTest pins the window: a trace comes back only for the bytes it
// was recorded from, in submission order, equal to an inline recording;
// a window on a serial or busy pool has no capacity; binding its workers
// to CPUs leaves the opening thread's mask alone; a stalled worker's job
// is recorded by the campaign thread instead of waited for.
//
// PipelineTest pins the campaign: pools of 0, 1 and 3 workers give
// byte-identical campaigns (every counter, the find sets, the final queue
// bytes, the coverage series and the last checkpoint's encoded bytes) on
// both schemes, with trimming, under kExecAbort and kInstanceKill faults,
// with a budget that ends mid-window, with inputs that hang at the step
// budget, and on the N-gram and context metrics.
#include <gtest/gtest.h>

#include <sched.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "fuzzer/campaign.h"
#include "fuzzer/exec_pool.h"
#include "fuzzer/executor.h"
#include "persist/checkpoint.h"
#include "persist/snapshot.h"
#include "target/generator.h"
#include "telemetry/sink.h"
#include "util/fault.h"

namespace bigmap {
namespace {

namespace fs = std::filesystem;

GeneratedTarget pipeline_target() {
  GeneratorParams gp;
  gp.name = "pipeline";
  gp.seed = 21;
  gp.live_blocks = 300;
  gp.num_bugs = 4;
  gp.bug_min_depth = 1;
  gp.bug_max_depth = 2;
  return generate_target(gp);
}

std::vector<Input> some_inputs(const GeneratedTarget& t, usize n) {
  std::vector<Input> out = make_seed_corpus(t, n, 5);
  for (usize i = 0; i < out.size(); ++i) {
    if (!out[i].empty()) out[i][i % out[i].size()] ^= 0x5A;
  }
  return out;
}

// --- the window ---------------------------------------------------------------

struct WindowFixture {
  GeneratedTarget target = pipeline_target();
  BlockIdTable ids{target.program.blocks.size(), 1u << 16, 3};
  static constexpr u64 kBudget = 1u << 14;
  KeyRecorder<EdgeMetric> inline_rec{target.program, ids, kBudget};

  std::unique_ptr<ExecWindow> open(ExecPool& pool) {
    return std::make_unique<ExecWindow>(
        pool, inline_rec,
        [this]() -> std::unique_ptr<TraceRecorder> {
          return std::make_unique<KeyRecorder<EdgeMetric>>(target.program,
                                                           ids, kBudget);
        },
        kBudget);
  }

  std::vector<u32> inline_keys(const Input& in) {
    KeyTrace t(kBudget);
    inline_rec.record(in, t);
    return {t.keys().begin(), t.keys().end()};
  }
};

TEST(ExecPoolTest, SerialPoolHasNoCapacity) {
  WindowFixture f;
  auto w = f.open(ExecPool::serial());
  EXPECT_EQ(w->capacity(), 0u);
  EXPECT_EQ(w->workers(), 0u);
  const Input in = some_inputs(f.target, 1)[0];
  EXPECT_FALSE(w->submit(in));
  u64 wait = 0;
  EXPECT_EQ(w->take(in, &wait), nullptr);
}

TEST(ExecPoolTest, TracesArriveInOrderAndMatchInlineRecording) {
  WindowFixture f;
  ExecPool pool(3);
  auto w = f.open(pool);
  ASSERT_EQ(w->workers(), 3u);
  ASSERT_EQ(w->capacity(), 6u);
  const std::vector<Input> inputs = some_inputs(f.target, 40);
  usize next_submit = 0;
  for (usize i = 0; i < inputs.size(); ++i) {
    while (next_submit < inputs.size() && w->submit(inputs[next_submit])) {
      ++next_submit;
    }
    ASSERT_GT(w->size(), 0u);
    ASSERT_TRUE(std::ranges::equal(w->input(0), inputs[i]));
    u64 wait = 0;
    const KeyTrace* t = w->take(inputs[i], &wait);
    ASSERT_NE(t, nullptr) << "input " << i;
    const std::vector<u32> expect = f.inline_keys(inputs[i]);
    EXPECT_EQ(std::vector<u32>(t->keys().begin(), t->keys().end()), expect)
        << "input " << i;
    EXPECT_EQ(t->exec.steps, expect.size());
  }
  EXPECT_EQ(w->size(), 0u);
}

// The byte compare is the pipeline's whole correctness argument: a trace
// recorded for other bytes is never handed out, and the stale window goes.
TEST(ExecPoolTest, TakeRefusesOtherBytesAndDropsTheWindow) {
  WindowFixture f;
  ExecPool pool(2);
  auto w = f.open(pool);
  const std::vector<Input> in = some_inputs(f.target, 3);
  ASSERT_NE(in[0], in[1]);
  ASSERT_TRUE(w->submit(in[0]));
  ASSERT_TRUE(w->submit(in[1]));
  u64 wait = 0;
  EXPECT_EQ(w->take(in[1], &wait), nullptr);  // in[1] is not the oldest
  EXPECT_EQ(w->size(), 0u);

  ASSERT_TRUE(w->submit(in[2]));
  EXPECT_FALSE(w->drop(in[0]));
  EXPECT_EQ(w->size(), 0u);

  // One changed byte is a different input.
  Input near = in[2];
  near.back() ^= 1;
  ASSERT_TRUE(w->submit(in[2]));
  EXPECT_EQ(w->take(near, &wait), nullptr);
  ASSERT_TRUE(w->submit(in[2]));
  EXPECT_TRUE(w->drop(in[2]));
  EXPECT_EQ(w->size(), 0u);
}

TEST(ExecPoolTest, CancelledSlotsComeBack) {
  WindowFixture f;
  ExecPool pool(2);
  auto w = f.open(pool);
  const std::vector<Input> in = some_inputs(f.target, 4);
  for (int round = 0; round < 50; ++round) {
    usize queued = 0;
    // Slots of jobs that were running when cancelled free themselves
    // when their worker finishes.
    for (int spin = 0; queued < w->capacity() && spin < 1000000; ++spin) {
      if (w->submit(in[queued % in.size()])) ++queued;
    }
    ASSERT_EQ(queued, w->capacity());
    EXPECT_FALSE(w->submit(in[0]));  // full
    if (round % 2 == 1) {
      w->cancel_from(1);
      EXPECT_EQ(w->size(), 1u);
    }
    w->cancel_from(0);
    EXPECT_EQ(w->size(), 0u);
  }
}

TEST(ExecPoolTest, OneWindowAtATimeHoldsThePool) {
  WindowFixture f;
  ExecPool pool(2);
  {
    auto first = f.open(pool);
    EXPECT_EQ(first->capacity(), 4u);
    auto second = f.open(pool);
    EXPECT_EQ(second->capacity(), 0u);  // runs serially
  }
  auto again = f.open(pool);
  EXPECT_EQ(again->capacity(), 4u);
}

// Workers are bound to CPUs other than the opening thread's; the opening
// thread's own mask is left as it was, and a thread with only one CPU
// still gets every trace (its workers then share that CPU).
TEST(ExecPoolTest, BindingWorkersLeavesTheOpenersMaskAlone) {
  WindowFixture f;
  const std::vector<Input> in = some_inputs(f.target, 8);
  const auto run_window = [&] {
    ExecPool pool(3);
    auto w = f.open(pool);
    ASSERT_EQ(w->workers(), 3u);
    for (const Input& x : in) {
      ASSERT_TRUE(w->submit(x));
      u64 wait = 0;
      const KeyTrace* t = w->take(x, &wait);
      ASSERT_NE(t, nullptr);
      EXPECT_EQ(std::vector<u32>(t->keys().begin(), t->keys().end()),
                f.inline_keys(x));
    }
  };
  cpu_set_t before, after;
  ASSERT_EQ(sched_getaffinity(0, sizeof(before), &before), 0);
  run_window();
  ASSERT_EQ(sched_getaffinity(0, sizeof(after), &after), 0);
  EXPECT_TRUE(CPU_EQUAL(&before, &after));

  std::thread one_cpu([&] {
    cpu_set_t only;
    CPU_ZERO(&only);
    CPU_SET(sched_getcpu(), &only);
    ASSERT_EQ(sched_setaffinity(0, sizeof(only), &only), 0);
    run_window();
  });
  one_cpu.join();
}

// Records like any KeyRecorder, but first holds its thread inside record()
// until released, as a descheduled worker would.
class HeldRecorder final : public TraceRecorder {
 public:
  HeldRecorder(WindowFixture& f, std::atomic<bool>& entered,
               std::atomic<bool>& release)
      : inner_(f.target.program, f.ids, WindowFixture::kBudget),
        entered_(&entered),
        release_(&release) {}
  void record(std::span<const u8> input, KeyTrace& out) override {
    entered_->store(true);
    while (!release_->load()) std::this_thread::yield();
    inner_.record(input, out);
  }

 private:
  KeyRecorder<EdgeMetric> inner_;
  std::atomic<bool>* entered_;
  std::atomic<bool>* release_;
};

// A worker stalled on a claimed job does not hold the campaign thread: past
// the stall bound, take() records the job itself, and the slot comes back
// once the worker returns.
TEST(ExecPoolTest, TakeRecordsAStalledWorkersJobItself) {
  WindowFixture f;
  std::atomic<bool> entered{false};
  std::atomic<bool> release{false};
  ExecPool pool(1);
  ExecWindow w(
      pool, f.inline_rec,
      [&]() -> std::unique_ptr<TraceRecorder> {
        return std::make_unique<HeldRecorder>(f, entered, release);
      },
      WindowFixture::kBudget);
  ASSERT_EQ(w.capacity(), 2u);
  const std::vector<Input> in = some_inputs(f.target, 2);
  ASSERT_TRUE(w.submit(in[0]));
  while (!entered.load()) std::this_thread::yield();  // the worker holds it
  u64 wait = 0;
  const KeyTrace* t = w.take(in[0], &wait);
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(std::vector<u32>(t->keys().begin(), t->keys().end()),
            f.inline_keys(in[0]));
  EXPECT_EQ(w.stalls(), 1u);
  EXPECT_FALSE(release.load());  // it did not wait for the worker

  release.store(true);
  // Both slots are free again once the worker is back, and a worker's
  // trace is handed out as before.
  for (const Input& x : {in[1], in[0]}) {
    bool queued = false;
    for (int spin = 0; !queued && spin < 10000000; ++spin) {
      queued = w.submit(x);
      if (!queued) std::this_thread::yield();
    }
    ASSERT_TRUE(queued);
  }
  for (const Input& x : {in[1], in[0]}) {
    const KeyTrace* got = w.take(x, &wait);
    ASSERT_NE(got, nullptr);
    EXPECT_EQ(std::vector<u32>(got->keys().begin(), got->keys().end()),
              f.inline_keys(x));
  }
}

// --- campaigns ----------------------------------------------------------------

struct TempDir {
  explicit TempDir(const std::string& tag) {
    path = (fs::temp_directory_path() /
            ("bigmap_pipeline_" + tag + "_" +
             std::to_string(static_cast<unsigned>(::getpid()))))
               .string();
    fs::remove_all(path);
  }
  ~TempDir() { fs::remove_all(path); }
  std::string path;
};

struct Case {
  const char* name = "";
  MapScheme scheme = MapScheme::kTwoLevel;
  MetricKind metric = MetricKind::kEdge;
  TracingMode tracing = TracingMode::kDual;
  u64 budget = 3001;  // odd: the budget ends with jobs still in the window
  u64 step_budget = 1u << 16;
  u32 abort_per_million = 0;
  u64 kill_at = 0;  // kInstanceKill on this occurrence (0: none)
};

// gtest prints a parameter in the test's description; the name says it.
void PrintTo(const Case& c, std::ostream* os) { *os << c.name; }

struct CaseRun {
  CampaignResult r;
  std::vector<std::pair<u64, u64>> series;  // (execs, covered) per stamp
  std::vector<u8> snapshot;                 // the last checkpoint, encoded
};

CaseRun run_case(const Case& k, u32 workers) {
  static const GeneratedTarget target = pipeline_target();
  const std::vector<Input> seeds = make_seed_corpus(target, 6, 1);
  TempDir dir(std::string(k.name) + "_" + std::to_string(workers));

  ExecPool pool(workers);
  persist::CheckpointStore store(dir.path, persist::FaultCtx{},
                                 /*fresh=*/true);
  telemetry::TelemetrySink sink;
  FaultPlan plan;
  if (k.abort_per_million != 0) {
    plan.rates.push_back({FaultSite::kExecAbort, k.abort_per_million});
  }
  if (k.kill_at != 0) {
    plan.triggers.push_back({FaultSite::kInstanceKill, 0, k.kill_at});
  }
  FaultInjector fault(99, plan);

  CampaignConfig c;
  c.scheme = k.scheme;
  c.metric = k.metric;
  c.tracing = k.tracing;
  c.map.map_size = 1u << 16;
  c.map.huge_pages = false;
  c.max_execs = k.budget;
  c.step_budget = k.step_budget;
  c.seed = 31;
  c.deterministic_timing = true;
  c.keep_corpus = true;
  c.trim_enabled = true;
  c.dictionary = target.dictionary();
  c.telemetry = &sink;
  c.telemetry_interval = 500;
  c.checkpoint = &store;
  c.checkpoint_interval = 700;
  c.fault = (k.abort_per_million != 0 || k.kill_at != 0) ? &fault : nullptr;
  c.exec_pool = &pool;

  CaseRun run{run_campaign(target.program, seeds, c), {}, {}};
  for (const telemetry::StatsSnapshot& s : sink.series()) {
    run.series.emplace_back(s.execs, s.covered_positions);
  }
  persist::CheckpointStore reader(dir.path, persist::FaultCtx{},
                                  /*fresh=*/false);
  auto loaded = reader.load_latest();
  if (loaded.snapshot.has_value()) {
    run.snapshot = persist::encode_snapshot(*loaded.snapshot);
  }
  return run;
}

template <class T>
std::vector<T> sorted(std::vector<T> v) {
  std::sort(v.begin(), v.end());
  return v;
}

void expect_identical(const CaseRun& a, const CaseRun& b) {
  const CampaignResult& x = a.r;
  const CampaignResult& y = b.r;
  EXPECT_EQ(x.execs, y.execs);
  EXPECT_EQ(x.seed_execs, y.seed_execs);
  EXPECT_EQ(x.interesting, y.interesting);
  EXPECT_EQ(x.hangs, y.hangs);
  EXPECT_EQ(x.trim_execs, y.trim_execs);
  EXPECT_EQ(x.trimmed_bytes, y.trimmed_bytes);
  EXPECT_EQ(x.faulted_execs, y.faulted_execs);
  EXPECT_EQ(x.fault_aborted, y.fault_aborted);
  EXPECT_EQ(x.tracing_untraced_execs, y.tracing_untraced_execs);
  EXPECT_EQ(x.tracing_traced_execs, y.tracing_traced_execs);
  EXPECT_EQ(x.tracing_oracle_fires, y.tracing_oracle_fires);
  EXPECT_EQ(x.crashes_total, y.crashes_total);
  EXPECT_EQ(x.crashes_afl_unique, y.crashes_afl_unique);
  EXPECT_EQ(x.crashes_crashwalk_unique, y.crashes_crashwalk_unique);
  EXPECT_EQ(x.crashes_ground_truth, y.crashes_ground_truth);
  EXPECT_EQ(sorted(x.found_bug_ids), sorted(y.found_bug_ids));
  EXPECT_EQ(sorted(x.found_stack_hashes), sorted(y.found_stack_hashes));
  EXPECT_EQ(x.covered_positions, y.covered_positions);
  EXPECT_EQ(x.used_key, y.used_key);
  EXPECT_EQ(x.saturated_updates, y.saturated_updates);
  EXPECT_EQ(x.checkpoints_written, y.checkpoints_written);
  EXPECT_EQ(x.corpus_size, y.corpus_size);
  ASSERT_EQ(x.corpus.size(), y.corpus.size());
  for (usize i = 0; i < x.corpus.size(); ++i) {
    EXPECT_EQ(x.corpus[i], y.corpus[i]) << "queue entry " << i;
  }
  EXPECT_EQ(a.series, b.series);
  EXPECT_FALSE(a.snapshot.empty());
  EXPECT_EQ(a.snapshot, b.snapshot);
}

class PipelineTest : public ::testing::TestWithParam<Case> {};

TEST_P(PipelineTest, PoolSizesGiveIdenticalCampaigns) {
  const Case& k = GetParam();
  const CaseRun serial = run_case(k, 0);
  EXPECT_EQ(serial.r.prefetch_hits, 0u);
  EXPECT_EQ(serial.r.prefetch_misses, 0u);
  if (k.kill_at != 0) {
    EXPECT_TRUE(serial.r.fault_aborted);
  } else {
    EXPECT_EQ(serial.r.execs, k.budget);
  }
  if (k.abort_per_million != 0) {
    EXPECT_GT(serial.r.faulted_execs, 0u);
  }
  if (k.step_budget < (1u << 16)) {
    EXPECT_GT(serial.r.hangs, 0u);
  }
  EXPECT_GT(serial.r.trim_execs, 0u);

  for (u32 workers : {1u, 3u}) {
    SCOPED_TRACE(std::to_string(workers) + " workers");
    const CaseRun piped = run_case(k, workers);
    expect_identical(serial, piped);
    // The pipeline engaged: most execs ran on a trace a worker recorded.
    EXPECT_GT(piped.r.prefetch_hits, piped.r.execs / 2);
    EXPECT_LE(piped.r.prefetch_hits + piped.r.prefetch_misses,
              piped.r.execs + piped.r.faulted_execs);
  }
}

std::vector<Case> cases() {
  std::vector<Case> v;
  const auto add = [&](const char* name) -> Case& {
    v.push_back(Case{});
    v.back().name = name;
    return v.back();
  };
  add("two_level");
  add("flat_dual").scheme = MapScheme::kFlat;
  Case& always = add("flat_always");
  always.scheme = MapScheme::kFlat;
  always.tracing = TracingMode::kAlways;
  add("ngram").metric = MetricKind::kNGram;
  add("context").metric = MetricKind::kContext;
  add("hangs").step_budget = 200;  // ~6% of execs hang
  add("exec_abort").abort_per_million = 30000;
  Case& flat_abort = add("flat_exec_abort");
  flat_abort.scheme = MapScheme::kFlat;
  flat_abort.abort_per_million = 30000;
  Case& kill = add("instance_kill");
  kill.budget = 6000;
  kill.kill_at = 2500;
  return v;
}

INSTANTIATE_TEST_SUITE_P(Pipeline, PipelineTest, ::testing::ValuesIn(cases()),
                         [](const ::testing::TestParamInfo<Case>& i) {
                           return std::string(i.param.name);
                         });

// The workers exist only while a campaign runs, so a process forks clean
// after one and the child can pipeline its own.
TEST(PipelineForkTest, ChildRunsAPipelinedCampaignAfterFork) {
  const GeneratedTarget target = pipeline_target();
  const std::vector<Input> seeds = make_seed_corpus(target, 4, 1);
  ExecPool pool(2);
  CampaignConfig c;
  c.map.map_size = 1u << 16;
  c.map.huge_pages = false;
  c.max_execs = 1500;
  c.deterministic_timing = true;
  c.exec_pool = &pool;
  const CampaignResult before = run_campaign(target.program, seeds, c);
  ASSERT_GT(before.prefetch_hits, 0u);

  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    ::alarm(60);  // a wedged child fails the test instead of hanging it
    const CampaignResult r = run_campaign(target.program, seeds, c);
    const bool same = r.execs == before.execs &&
                      r.interesting == before.interesting &&
                      r.covered_positions == before.covered_positions &&
                      r.prefetch_hits > 0;
    ::_exit(same ? 0 : 1);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status)) << "child died: status " << status;
  EXPECT_EQ(WEXITSTATUS(status), 0);
}

}  // namespace
}  // namespace bigmap
