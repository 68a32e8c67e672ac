// bench_workloads: one repetition of one end-to-end benchmark workload.
//
//   bench_workloads --workload W --seed S --work-dir DIR [--trace-dir DIR]
//
// Each invocation is one process and one repetition, so peak RSS is the
// repetition's own. perfbench/run.py launches repetitions, picks their
// seeds, takes medians and compares repetitions that must agree. The
// process prints one JSON object on stdout and exits 0 when every output
// check passed, 1 when one failed, 2 on a usage error.
//
// A repetition does three things:
//
//  1. set-up, kSetupProbes times: build the Table II target, generate its
//     seeds and run a campaign through the end of its seed phase. Each
//     probe is one setup_s sample.
//  2. the measured campaign: a fixed exec budget under deterministic
//     timing, so the exec stream and the finds are a pure function of the
//     seed. execs_per_s is the steady-state rate after the seed phase.
//  3. output checks (see check()).
//
// With --trace-dir the same campaign runs with an exec-boundary span
// recorder attached, and a replay then calls each layer's public functions
// on the campaign's final corpus and state to give per-layer costs. Spans
// are recorded only here, around calls into the library; the library
// itself is not instrumented.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/flat_map.h"
#include "core/kernels/kernels.h"
#include "core/two_level_map.h"
#include "corpus/store.h"
#include "fuzzer/campaign.h"
#include "fuzzer/executor.h"
#include "fuzzer/mutator.h"
#include "fuzzer/netfleet/wire.h"
#include "fuzzer/queue.h"
#include "fuzzer/supervisor.h"
#include "fuzzer/sync.h"
#include "instrumentation/metrics.h"
#include "persist/checkpoint.h"
#include "persist/snapshot.h"
#include "target/interpreter.h"
#include "target/suite.h"
#include "telemetry/json.h"
#include "telemetry/sink.h"
#include "util/hash.h"
#include "util/timing.h"

#ifndef BIGMAP_BUILD_TYPE
#define BIGMAP_BUILD_TYPE "unknown"
#endif

using namespace bigmap;
namespace fs = std::filesystem;

namespace {

// --- workloads ---------------------------------------------------------------

// Each workload puts most of its time in one layer and little in another,
// so a change to one layer has a workload that exercises it and one that
// bypasses it. perfbench/README.md gives the measured shares.
struct Workload {
  const char* name;
  const char* target;  // Table II profile
  MapScheme scheme;
  usize map_size;
  TracingMode tracing;
  bool trim;
  u64 budget;      // execs per repetition (per instance for a fleet)
  u32 instances;   // 0: one run_campaign; N: run_supervised_campaign
  bool durable;    // checkpoints + CorpusStore + TelemetrySink attached
};

constexpr Workload kWorkloads[] = {
    // LLVM-scale target on BigMap's two-level map under dual tracing: the
    // interpreter dominates; the whole-map kernels barely run.
    {"bigmap-llvm-2m", "gvn", MapScheme::kTwoLevel, 2u << 20,
     TracingMode::kDual, false, 2500, 0, false},
    // AFL's flat 2 MB map, every exec traced, trim on: reset / classify /
    // compare / hash over the full map dominate.
    {"afl-flat-2m", "proj4", MapScheme::kFlat, 2u << 20, TracingMode::kAlways,
     true, 1500, 0, false},
    // Cheap execs with checkpoints and a WAL-backed corpus store, so the
    // durable writes are a visible share of the time.
    {"persist-zlib-64k", "zlib", MapScheme::kTwoLevel, 64u << 10,
     TracingMode::kDual, true, 80000, 0, true},
    // Three supervised instance threads sharing one SyncHub.
    {"fleet3-proj4-64k", "proj4", MapScheme::kTwoLevel, 64u << 10,
     TracingMode::kDual, true, 30000, 3, false},
};

constexpr u32 kSetupProbes = 3;
constexpr u64 kCheckpointInterval = 1024;
constexpr u32 kKeepCheckpoints = 2;
constexpr u64 kCompactInterval = 65536;
constexpr u32 kSyncInterval = 1024;

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

double ns_to_s(u64 ns) { return static_cast<double>(ns) * 1e-9; }

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// Failed output checks, reported in the JSON and by the exit code.
std::vector<std::string> g_errors;

void check(bool ok, const std::string& what) {
  if (!ok) g_errors.push_back(what);
}

// --- spans -------------------------------------------------------------------

struct Span {
  const char* name;  // "<layer>.<call>", a string literal
  u64 id;
  u64 parent;  // 0 for the root
  u64 start_ns;
  u64 end_ns;
  u32 lane;  // 0: the bench's main thread; 1..: campaign threads
};

// In-memory span store for one repetition. Only the main thread adds
// spans; campaign threads record exec boundaries into ExecProbe lanes,
// which are converted to spans after the campaign joins.
class Tracer {
 public:
  u64 add(const char* name, u64 parent, u64 start_ns, u64 end_ns,
          u32 lane = 0) {
    spans_.push_back({name, ++last_id_, parent, start_ns, end_ns, lane});
    return last_id_;
  }
  // Opens a span now; close() sets its end.
  u64 open(const char* name, u64 parent) {
    return add(name, parent, monotonic_ns(), 0);
  }
  void close(u64 id) {
    for (auto it = spans_.rbegin(); it != spans_.rend(); ++it) {
      if (it->id == id) {
        it->end_ns = monotonic_ns();
        return;
      }
    }
  }
  const std::vector<Span>& spans() const noexcept { return spans_; }

 private:
  std::vector<Span> spans_;
  u64 last_id_ = 0;
};

// RAII span around one call into a layer; a no-op without a tracer.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* t, const char* name, u64 parent)
      : t_(t), id_(t != nullptr ? t->open(name, parent) : 0) {}
  ~ScopedSpan() {
    if (t_ != nullptr) t_->close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  u64 id() const noexcept { return id_; }

 private:
  Tracer* t_;
  u64 id_;
};

// --- exec-boundary probe -----------------------------------------------------

// ExecHook shared by every instance thread of one campaign. Each thread
// writes only its own lane, so the hot path takes no lock: its exec count,
// when it ran its last seed, its last exec and, when recording, every exec
// boundary. Lanes are read only after the campaign's threads have joined.
class ExecProbe final : public ExecHook {
 public:
  ExecProbe(u64 seed_execs, bool record)
      : seed_execs_(seed_execs),
        record_(record),
        serial_(next_serial_.fetch_add(1)),
        start_ns_(monotonic_ns()) {}

  void on_exec(u64 execs) override {
    Lane& l = lane();
    const u64 now = monotonic_ns();
    l.last_ns = now;
    l.execs = execs;
    if (record_) l.stamps.push_back(now);
    if (execs == seed_execs_) l.seed_end_ns = now;
  }

  struct Lane {
    u64 seed_end_ns = 0;  // 0 until the lane ran its last seed
    u64 last_ns = 0;
    u64 execs = 0;
    std::vector<u64> stamps;  // exec boundaries, when recording
  };

  u64 start_ns() const noexcept { return start_ns_; }
  const std::deque<Lane>& lanes() const noexcept { return lanes_; }

  // The instant the last instance ran its last seed; 0 if one never did.
  u64 seed_end_ns() const {
    u64 end = 0;
    for (const Lane& l : lanes_) {
      if (l.seed_end_ns == 0) return 0;
      end = std::max(end, l.seed_end_ns);
    }
    return end;
  }

  // Steady-state execs per second: each instance's execs after its seeds
  // over its own time from its last seed to its last exec, summed. With a
  // fixed budget per instance, instances finish at different times; the
  // sum keeps the tail in which finished instances idle out of the rate.
  double steady_execs_per_s() const {
    double rate = 0.0;
    for (const Lane& l : lanes_) {
      if (l.seed_end_ns == 0 || l.last_ns <= l.seed_end_ns) continue;
      rate += static_cast<double>(l.execs - seed_execs_) /
              ns_to_s(l.last_ns - l.seed_end_ns);
    }
    return rate;
  }

 private:
  Lane& lane() {
    // Keyed by a serial, not by address: probes are stack objects and a
    // later one can reuse an earlier one's address on the same thread.
    thread_local u64 tl_serial = 0;
    thread_local Lane* tl_lane = nullptr;
    if (tl_serial != serial_) {
      std::lock_guard<std::mutex> lock(mu_);
      tl_lane = &lanes_.emplace_back();
      tl_serial = serial_;
    }
    return *tl_lane;
  }

  static inline std::atomic<u64> next_serial_{1};

  const u64 seed_execs_;
  const bool record_;
  const u64 serial_;
  const u64 start_ns_;
  std::mutex mu_;  // guards lanes_ growth
  std::deque<Lane> lanes_;
};

// --- per-repetition state ----------------------------------------------------

struct Target {
  const BenchmarkInfo* info = nullptr;
  GeneratedTarget gen;
  std::vector<Input> seeds;
};

CampaignConfig campaign_config(const Workload& w, u64 seed) {
  CampaignConfig c;
  c.scheme = w.scheme;
  c.map.map_size = w.map_size;
  c.tracing = w.tracing;
  c.trim_enabled = w.trim;
  c.max_execs = w.budget;
  c.seed = seed;
  c.deterministic_timing = true;
  c.keep_corpus = w.instances == 0;
  c.sync_interval = kSyncInterval;
  return c;
}

SupervisorConfig fleet_config(const Workload& w, const CampaignConfig& base,
                              telemetry::FleetTelemetry* fleet) {
  SupervisorConfig sc;
  sc.num_instances = w.instances;
  sc.base = base;
  sc.telemetry = fleet;
  // A host-noise pause must not look like a hung instance: a restart would
  // change the workload (and fails the restart check).
  sc.stall_deadline_ms = 10000;
  return sc;
}

// Checkpoint + corpus stores of one durable campaign, in a fresh directory.
struct DurableStores {
  explicit DurableStores(const std::string& dir)
      : ckpt(dir + "/ckpt", persist::FaultCtx{}, /*fresh=*/true),
        corpus(dir + "/corpus") {
    const corpus::OpenReport rep = corpus.open(/*fresh=*/true);
    check(rep.ok, "corpus store open: " + rep.error);
  }
  void attach(CampaignConfig& c, telemetry::TelemetrySink* sink) {
    c.checkpoint = &ckpt;
    c.checkpoint_interval = kCheckpointInterval;
    c.keep_checkpoints = kKeepCheckpoints;
    c.corpus = &corpus;
    c.corpus_compact_interval = kCompactInterval;
    c.telemetry = sink;
  }
  persist::CheckpointStore ckpt;
  corpus::CorpusStore corpus;
};

// One set-up: target build, seed generation, and a campaign through the end
// of its seed phase. Returns seconds from the start of the build to the
// last seed exec of the last instance.
double setup_once(const Workload& w, u64 seed, const std::string& dir,
                  Target* out) {
  const u64 t0 = monotonic_ns();
  out->gen = build_benchmark(*out->info);
  out->seeds = benchmark_seeds(out->gen, *out->info);
  CampaignConfig c = campaign_config(w, seed);
  c.max_execs = out->seeds.size();
  c.keep_corpus = false;
  ExecProbe probe(out->seeds.size(), false);
  c.exec_hook = &probe;
  if (w.instances > 0) {
    telemetry::FleetTelemetry fleet(w.instances);
    run_supervised_campaign(out->gen.program, out->seeds,
                            fleet_config(w, c, &fleet));
  } else if (w.durable) {
    telemetry::TelemetrySink sink(0);
    DurableStores stores(dir);
    stores.attach(c, &sink);
    run_campaign(out->gen.program, out->seeds, c);
  } else {
    run_campaign(out->gen.program, out->seeds, c);
  }
  check(probe.lanes().size() == std::max<u32>(1, w.instances) &&
            probe.seed_end_ns() != 0,
        "set-up probe: an instance never finished its seed phase");
  return ns_to_s(probe.seed_end_ns() - t0);
}

// --- per-layer replay --------------------------------------------------------

struct Stat {
  u64 ns = 0;
  u64 calls = 0;
  double mean_ns() const { return ratio(static_cast<double>(ns), calls); }
};

// Repeats `pass` (which returns the calls it timed and adds its own ns)
// until at least min_ns of measured time has accumulated.
Stat repeat_until(u64 min_ns, const std::function<u64(u64&)>& pass) {
  Stat s;
  do {
    s.calls += pass(s.ns);
  } while (s.ns < min_ns && s.calls > 0);
  return s;
}

double percentile(std::vector<u64> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const usize idx = std::min(
      v.size() - 1, static_cast<usize>(p * static_cast<double>(v.size())));
  return static_cast<double>(v[idx]);
}

using Metrics = std::map<std::string, double>;

constexpr u64 kMinReplayNs = 50'000'000;  // per measured call site
constexpr usize kReplaySample = 128;      // corpus entries the replay times

// Times the active whole-map kernel on a real trace and checks it against
// the scalar reference on the same bytes.
void replay_kernels(std::span<const u8> raw, std::span<const u8> virgin,
                    Metrics& m) {
  const kernels::KernelOps& k = kernels::active_kernel();
  const kernels::KernelOps& ref = kernels::scalar_kernel();
  const usize len = raw.size();
  if (len == 0) {
    check(false, "kernel replay: empty trace");
    return;
  }
  std::vector<u8> a(raw.begin(), raw.end()), b = a;
  k.classify(a.data(), len);
  ref.classify(b.data(), len);
  check(a == b, "kernel classify differs from scalar");
  std::vector<u8> va(virgin.begin(), virgin.end()), vb = va;
  const NewBits na = k.compare_update(a.data(), va.data(), len);
  const NewBits nb = ref.compare_update(b.data(), vb.data(), len);
  check(na == nb && va == vb, "kernel compare_update differs from scalar");
  check(k.hash(a.data(), len) == ref.hash(b.data(), len),
        "kernel hash differs from scalar");
  std::vector<u8> z = a;
  k.reset(z.data(), len);
  check(std::all_of(z.begin(), z.end(), [](u8 v) { return v == 0; }),
        "kernel reset left non-zero bytes");

  // The ops are called through the runtime-selected function pointers, so
  // the compiler cannot drop a call whose result goes unused.
  auto gbps = [&](const std::function<void()>& op) {
    const Stat s = repeat_until(kMinReplayNs / 5, [&](u64& ns) {
      const u64 t = monotonic_ns();
      op();
      ns += monotonic_ns() - t;
      return u64{1};
    });
    return ratio(static_cast<double>(len) * s.calls, s.ns);
  };
  std::vector<u8> work(raw.begin(), raw.end());
  m["core.kernel_reset_gbps"] = gbps([&] { k.reset(z.data(), len); });
  m["core.kernel_classify_gbps"] =
      gbps([&] { k.classify(work.data(), len); });
  m["core.kernel_compare_gbps"] =
      gbps([&] { k.compare_update(a.data(), va.data(), len); });
  m["core.kernel_hash_gbps"] = gbps([&] { k.hash(a.data(), len); });
}

// Replays the mutator, queue, executor, interpreter, kernels, persist,
// corpus, sync and wire layers on `corpus` (the campaign's final corpus, or
// the seeds for a fleet, which returns no corpus).
template <class Map>
void replay_layers(const CampaignConfig& cfg, const Program& prog,
                   const std::vector<Input>& corpus,
                   const persist::CampaignSnapshot* last_snapshot,
                   u64 observed_publishes, const std::string& dir, Tracer& tr,
                   u64 parent, Metrics& m) {
  if (corpus.empty()) {
    check(false, "replay: empty corpus");
    return;
  }
  BlockIdTable ids(prog.blocks.size(), cfg.map.map_size, cfg.seed);
  Executor<Map, EdgeMetric> ex(prog, cfg.map, ids, cfg.step_budget,
                               cfg.work_per_block);
  OpTimeBreakdown timing;

  // The timed replays use an evenly spaced sample, so an LLVM-scale corpus
  // does not stretch the traced run.
  std::vector<Input> sample;
  const usize stride = (corpus.size() + kReplaySample - 1) / kReplaySample;
  for (usize i = 0; i < corpus.size(); i += stride) {
    sample.push_back(corpus[i]);
  }

  // Warm-up: every corpus entry through the traced pipeline builds the map
  // index and virgin state the later replays run against. Each sampled
  // entry is also added to a queue against its live trace, as the campaign
  // does for an interesting input.
  std::vector<std::vector<u32>> positions;
  SeedQueue queue(ex.virgin_positions());
  {
    ScopedSpan s(&tr, "executor.warm_pass", parent);
    Stat add;
    for (usize i = 0; i < corpus.size(); ++i) {
      const auto out = ex.run(corpus[i], timing);
      if (i % stride != 0) continue;
      const std::span<const u8> trace = ex.last_trace();
      positions.emplace_back();
      for (usize p = 0; p < trace.size(); ++p) {
        if (trace[p] != 0) positions.back().push_back(static_cast<u32>(p));
      }
      ScopedSpan q(&tr, "queue.add_update_scores", s.id());
      const u64 t = monotonic_ns();
      const usize idx =
          queue.add(corpus[i], out.exec.steps * 100, out.hash, 0);
      queue.update_scores(idx, trace);
      add.ns += monotonic_ns() - t;
      ++add.calls;
    }
    m["queue.add_score_ns"] = add.mean_ns();
  }
  {
    ScopedSpan s(&tr, "queue.cull", parent);
    const u64 t = monotonic_ns();
    queue.cull();
    m["queue.cull_us"] = static_cast<double>(monotonic_ns() - t) * 1e-3;
  }

  // Mean ns of one call of `op` over the sample, repeated to kMinReplayNs.
  const auto per_input = [&](const std::function<u64(const Input&)>& op) {
    return repeat_until(kMinReplayNs, [&](u64& ns) {
      for (const Input& in : sample) ns += op(in);
      return static_cast<u64>(sample.size());
    });
  };
  {
    ScopedSpan s(&tr, "target.interpreter_run", parent);
    Interpreter interp(cfg.step_budget, cfg.work_per_block);
    u64 steps = 0;
    const Stat st = per_input([&](const Input& in) {
      const u64 t = monotonic_ns();
      steps += interp.run(prog, in, [](u32) {}).steps;
      return monotonic_ns() - t;
    });
    m["target.run_ns"] = st.mean_ns();
    m["target.ns_per_block"] = ratio(static_cast<double>(st.ns), steps);
  }
  {
    ScopedSpan s(&tr, "executor.run", parent);
    m["executor.traced_ns"] = per_input([&](const Input& in) {
                                const u64 t = monotonic_ns();
                                ex.run(in, timing);
                                return monotonic_ns() - t;
                              }).mean_ns();
  }
  {
    ScopedSpan s(&tr, "executor.run_untraced", parent);
    m["executor.untraced_ns"] = per_input([&](const Input& in) {
                                  const u64 t = monotonic_ns();
                                  ex.run_untraced(in, timing);
                                  return monotonic_ns() - t;
                                }).mean_ns();
  }
  {
    // A raw (unclassified) trace of the last corpus entry over the span a
    // whole-map scan covers: the full map when flat, the used region of
    // the index the corpus built when two-level.
    ScopedSpan s(&tr, "core.kernels", parent);
    ex.map().reset();
    ex.metric().begin_execution();
    ex.interpreter().run(prog, corpus.back(), [&](u32 block) {
      ex.map().update(ex.metric().visit(block));
    });
    const std::span<const u8> raw = ex.last_trace();
    const std::span<const u8> virgin(ex.virgin_queue().data(), raw.size());
    replay_kernels(raw, virgin, m);
  }

  {
    ScopedSpan s(&tr, "mutator.havoc_splice", parent);
    Mutator mut({cfg.max_input_size, cfg.havoc_stack_pow, cfg.dictionary},
                cfg.seed);
    m["mutator.havoc_ns"] =
        repeat_until(kMinReplayNs / 5, [&](u64& ns) {
          std::vector<Input> work = sample;
          const u64 t = monotonic_ns();
          for (Input& in : work) mut.havoc(in);
          ns += monotonic_ns() - t;
          return static_cast<u64>(work.size());
        }).mean_ns();
    usize produced = 0;
    m["mutator.splice_ns"] =
        repeat_until(kMinReplayNs / 5, [&](u64& ns) {
          const u64 t = monotonic_ns();
          for (usize i = 0; i < sample.size(); ++i) {
            produced += mut.splice(sample[i], sample[(i + 1) % sample.size()])
                            .has_value();
          }
          ns += monotonic_ns() - t;
          return static_cast<u64>(sample.size());
        }).mean_ns();
    check(produced > 0 || sample.size() < 2, "mutator: no splice produced");
  }

  {
    // Persist: the run's last committed snapshot when the workload
    // checkpoints, else one built from the replay's final state.
    ScopedSpan s(&tr, "persist.save_load", parent);
    persist::CampaignSnapshot snap;
    if (last_snapshot != nullptr) {
      snap = *last_snapshot;
    } else {
      snap.scheme = static_cast<u32>(cfg.scheme);
      snap.metric = static_cast<u32>(cfg.metric);
      snap.seed = cfg.seed;
      snap.map_size = cfg.map.map_size;
      snap.virgin_size = ex.virgin_positions();
      for (const Input& in : corpus) {
        persist::QueueEntrySnap e;
        e.data = in;
        snap.entries.push_back(std::move(e));
      }
      const auto bytes = [](const VirginMap& v) {
        return std::vector<u8>(v.data(), v.data() + v.size());
      };
      snap.virgin_queue = bytes(ex.virgin_queue());
      snap.virgin_crash = bytes(ex.virgin_crash());
      snap.virgin_hang = bytes(ex.virgin_hang());
      snap.has_two_level = Map::kScheme == MapScheme::kTwoLevel;
      ex.map().export_state(&snap.index_bitmap, &snap.used_key,
                            &snap.saturated_updates);
    }
    m["persist.snapshot_bytes"] =
        static_cast<double>(persist::encode_snapshot(snap).size());
    persist::CheckpointStore store(dir + "/replay-ckpt", persist::FaultCtx{},
                                   /*fresh=*/true);
    std::string err;
    m["persist.save_ms"] =
        repeat_until(kMinReplayNs, [&](u64& ns) {
          const u64 t = monotonic_ns();
          check(store.save(snap, kKeepCheckpoints, &err),
                "persist replay save: " + err);
          ns += monotonic_ns() - t;
          return u64{1};
        }).mean_ns() * 1e-6;
    usize loaded_entries = 0;
    m["persist.load_ms"] =
        repeat_until(kMinReplayNs, [&](u64& ns) {
          const u64 t = monotonic_ns();
          const auto lo = store.load_latest();
          ns += monotonic_ns() - t;
          loaded_entries = lo.snapshot ? lo.snapshot->entries.size() : 0;
          return u64{1};
        }).mean_ns() * 1e-6;
    check(loaded_entries == snap.entries.size(),
          "persist replay: reloaded snapshot lost entries");
  }

  {
    ScopedSpan s(&tr, "corpus.add_compact", parent);
    corpus::CorpusStore store(dir + "/replay-corpus");
    check(store.open(/*fresh=*/true).ok, "corpus replay open");
    Stat add;
    for (usize i = 0; i < sample.size(); ++i) {
      const u64 t = monotonic_ns();
      store.add_entry(sample[i], 0, 0, 0, positions[i]);
      add.ns += monotonic_ns() - t;
      ++add.calls;
    }
    m["corpus.add_entry_us"] = add.mean_ns() * 1e-3;
    std::string err;
    const u64 t = monotonic_ns();
    check(store.compact(&err), "corpus replay compact: " + err);
    m["corpus.compact_ms"] = static_cast<double>(monotonic_ns() - t) * 1e-6;
  }

  {
    // Sync: three threads publish the observed number of inputs (the
    // corpus size where the workload has no hub), each fetching after
    // every few publishes.
    ScopedSpan s(&tr, "sync.publish_fetch", parent);
    constexpr u32 kThreads = 3;
    constexpr u64 kFetchEvery = 4;
    const u64 total = std::max<u64>(observed_publishes, sample.size());
    SyncHub hub(kThreads);
    std::vector<std::vector<u64>> pub(kThreads), fetch(kThreads);
    std::vector<std::thread> threads;
    for (u32 id = 0; id < kThreads; ++id) {
      threads.emplace_back([&, id] {
        for (u64 i = id; i < total; i += kThreads) {
          Input in = sample[i % sample.size()];
          u64 t = monotonic_ns();
          hub.publish(id, std::move(in));
          pub[id].push_back(monotonic_ns() - t);
          if (i / kThreads % kFetchEvery == 0) {
            t = monotonic_ns();
            hub.fetch_new(id);
            fetch[id].push_back(monotonic_ns() - t);
          }
        }
      });
    }
    for (std::thread& t : threads) t.join();
    std::vector<u64> all_pub, all_fetch;
    for (u32 id = 0; id < kThreads; ++id) {
      all_pub.insert(all_pub.end(), pub[id].begin(), pub[id].end());
      all_fetch.insert(all_fetch.end(), fetch[id].begin(), fetch[id].end());
    }
    check(hub.total_published() == total, "sync replay lost publishes");
    m["sync.publish_ns_p50"] = percentile(all_pub, 0.50);
    m["sync.publish_ns_p99"] = percentile(all_pub, 0.99);
    m["sync.fetch_ns_p50"] = percentile(all_fetch, 0.50);
    m["sync.fetch_ns_p99"] = percentile(all_fetch, 0.99);
  }

  {
    ScopedSpan s(&tr, "netfleet.encode_decode", parent);
    std::vector<u8> wire;
    m["netfleet.encode_ns"] =
        repeat_until(kMinReplayNs / 5, [&](u64& ns) {
          wire.clear();
          netfleet::append_preamble(wire);
          const u64 t = monotonic_ns();
          for (usize i = 0; i < sample.size(); ++i) {
            netfleet::append_entry(wire, i, sample[i]);
          }
          ns += monotonic_ns() - t;
          return static_cast<u64>(sample.size());
        }).mean_ns();
    std::vector<Input> decoded;
    bool round_trip = true;
    m["netfleet.decode_ns"] =
        repeat_until(kMinReplayNs / 5, [&](u64& ns) {
          netfleet::FrameDecoder dec;
          decoded.assign(sample.size(), {});
          u64 frames = 0;
          const u64 t = monotonic_ns();
          dec.feed(wire);
          while (auto f = dec.next()) {
            u64 seq = 0;
            round_trip &= f->type == netfleet::NetMsg::kEntry &&
                          frames < decoded.size() &&
                          netfleet::parse_entry(f->payload, &seq,
                                                &decoded[frames]) &&
                          seq == frames;
            ++frames;
          }
          ns += monotonic_ns() - t;
          round_trip &= frames == sample.size() && !dec.broken();
          return frames;
        }).mean_ns();
    round_trip &= decoded == sample;
    check(round_trip, "netfleet: decoded entries differ from the encoded");
  }
}

// Self time per layer: each span's duration minus the union of its
// children's intervals, summed by the name's layer prefix.
std::map<std::string, double> layer_self_ms(const std::vector<Span>& spans) {
  std::map<u64, std::vector<std::pair<u64, u64>>> children;
  for (const Span& s : spans) {
    children[s.parent].emplace_back(s.start_ns, s.end_ns);
  }
  std::map<std::string, double> out;
  for (const Span& s : spans) {
    u64 covered = 0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      auto iv = it->second;
      std::sort(iv.begin(), iv.end());
      u64 cur_s = 0, cur_e = 0;
      for (auto [a, b] : iv) {
        a = std::clamp(a, s.start_ns, s.end_ns);
        b = std::clamp(b, s.start_ns, s.end_ns);
        if (a > cur_e) {
          covered += cur_e - cur_s;
          cur_s = a;
          cur_e = b;
        } else {
          cur_e = std::max(cur_e, b);
        }
      }
      covered += cur_e - cur_s;
    }
    const std::string name = s.name;
    out[name.substr(0, name.find('.'))] +=
        static_cast<double>(s.end_ns - s.start_ns - covered) * 1e-6;
  }
  return out;
}

// Writes spans as JSON lines. Exec-boundary spans are sampled with a
// stride so a file stays small; layer_self_ms() above uses all of them.
void write_spans(const std::string& path, const std::vector<Span>& spans,
                 u64 trace_id, u64 t0) {
  constexpr usize kMaxExecSpans = 20000;
  usize exec_spans = 0;
  for (const Span& s : spans) {
    exec_spans += std::strcmp(s.name, "campaign.exec") == 0;
  }
  const usize stride = std::max<usize>(1, exec_spans / kMaxExecSpans + 1);
  std::ofstream f(path, std::ios::trunc);
  char trace_hex[17];
  std::snprintf(trace_hex, sizeof(trace_hex), "%016llx",
                static_cast<unsigned long long>(trace_id));
  usize nth_exec = 0;
  for (const Span& s : spans) {
    if (std::strcmp(s.name, "campaign.exec") == 0 &&
        nth_exec++ % stride != 0) {
      continue;
    }
    telemetry::JsonWriter j;
    j.begin_object()
        .field("trace", trace_hex)
        .field("id", s.id)
        .field("parent", s.parent)
        .field("name", s.name)
        .field("start_ns", s.start_ns - t0)
        .field("end_ns", s.end_ns - t0)
        .field("lane", s.lane);
    if (std::strcmp(s.name, "campaign.exec") == 0) {
      j.field("sample_stride", static_cast<u64>(stride));
    }
    j.end_object();
    f << j.str() << '\n';
  }
  check(f.good(), "cannot write " + path);
}

// One "campaign.exec" span per exec boundary: from the previous boundary
// on the same campaign thread (lane) to this one.
void add_exec_spans(const ExecProbe& probe, u64 parent, Tracer* tr) {
  if (tr == nullptr) return;
  u32 lane = 0;
  for (const ExecProbe::Lane& l : probe.lanes()) {
    ++lane;
    u64 prev = probe.start_ns();
    for (u64 stamp : l.stamps) {
      tr->add("campaign.exec", parent, prev, stamp, lane);
      prev = stamp;
    }
  }
}

// --- the repetition ----------------------------------------------------------

struct Args {
  const Workload* workload = nullptr;
  u64 seed = 1;
  std::string work_dir;
  std::string trace_dir;  // empty: timed repetition
};

bool parse_args(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") {
      a->workload = find_workload(v);
      if (a->workload == nullptr) return false;
    } else if (k == "--seed") {
      char* end = nullptr;
      a->seed = std::strtoull(v, &end, 10);
      if (end == v || *end != '\0') return false;
    } else if (k == "--work-dir") {
      a->work_dir = v;
    } else if (k == "--trace-dir") {
      a->trace_dir = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && a->workload != nullptr && !a->work_dir.empty();
}

int run(const Args& args) {
  const Workload& w = *args.workload;
  const bool traced = !args.trace_dir.empty();
  const std::string dir =
      args.work_dir + "/" + w.name + "-" + std::to_string(getpid());
  fs::remove_all(dir);
  fs::create_directories(dir);

  Tracer tracer;
  Tracer* tr = traced ? &tracer : nullptr;
  const u64 t0 = monotonic_ns();
  const u64 root = tr != nullptr ? tr->open("bench.repetition", 0) : 0;

  Target target;
  target.info = find_benchmark(w.target);
  check(target.info != nullptr, std::string("unknown target ") + w.target);
  if (target.info == nullptr) return 1;

  std::vector<double> setup_s;
  {
    ScopedSpan s(tr, "target.setup_probes", root);
    for (u32 i = 0; i < kSetupProbes; ++i) {
      setup_s.push_back(setup_once(w, args.seed,
                                   dir + "/probe" + std::to_string(i),
                                   &target));
    }
  }

  CampaignConfig cfg = campaign_config(w, args.seed);
  ExecProbe probe(target.seeds.size(), traced);
  cfg.exec_hook = &probe;

  telemetry::JsonWriter j;
  j.begin_object();
  j.field("workload", w.name).field("seed", args.seed);
  j.field("traced", traced);
  j.field("kernel", kernels::active_kernel().name);
  j.field("compiler", __VERSION__).field("build_type", BIGMAP_BUILD_TYPE);
  j.key("setup_s").begin_array();
  for (double s : setup_s) j.value(s);
  j.end_array();

  Metrics layers;
  u64 execs = 0, attempted = 0, failed = 0, edges = 0, bugs = 0;
  u64 interesting = 0, corpus_size = 0;
  std::string digest = "-";

  if (w.instances == 0) {
    telemetry::TelemetrySink sink(0);
    std::unique_ptr<DurableStores> stores;
    if (w.durable) {
      stores = std::make_unique<DurableStores>(dir + "/run");
      stores->attach(cfg, &sink);
    } else if (traced) {
      cfg.telemetry = &sink;  // whole-map op counts for the scan estimate
    }
    CampaignResult r;
    {
      ScopedSpan s(tr, "campaign.run_campaign", root);
      r = run_campaign(target.gen.program, target.seeds, cfg);
      add_exec_spans(probe, s.id(), tr);
    }
    {
      ScopedSpan s(tr, "campaign.measure_corpus_edges", root);
      edges = measure_corpus_edges(target.gen.program, r.corpus,
                                   cfg.step_budget);
    }
    execs = r.execs;
    bugs = r.crashes_ground_truth;
    interesting = r.interesting;
    corpus_size = r.corpus_size;
    u64 h = 0;
    for (const Input& in : r.corpus) h = hash_combine(h, fnv1a64(in));
    digest = std::to_string(h);

    check(r.tracing_untraced_execs + r.tracing_traced_execs == r.execs,
          "untraced + traced execs != execs");
    check(r.execs == w.budget, "campaign stopped short of its budget");
    attempted += r.execs;

    std::optional<persist::CampaignSnapshot> last_snapshot;
    if (stores != nullptr) {
      attempted += r.checkpoints_written + r.checkpoint_failures +
                   r.corpus_appends + r.corpus_dedup_hits;
      const corpus::CorpusStats cs = stores->corpus.stats();
      failed += r.checkpoint_failures + cs.wal_append_failures;
      // The store's own digest: equal across repetitions of one seed.
      digest += "/" + std::to_string(stores->corpus.corpus_digest());
      corpus::CorpusStore fsck_probe(stores->corpus.dir());
      const corpus::FsckReport fr = fsck_probe.fsck();
      check(fr.ok && fr.errors.empty() && fr.torn_tail_bytes == 0,
            "CorpusStore::fsck is not clean");
      persist::CheckpointStore reader(stores->ckpt.dir(), persist::FaultCtx{},
                                      /*fresh=*/false);
      const auto lo = reader.load_latest();
      check(lo.snapshot.has_value() && lo.snapshot->execs == r.execs,
            "load_latest did not decode the final checkpoint");
      last_snapshot = lo.snapshot;
      layers["persist.checkpoints_per_kexec"] =
          ratio(1000.0 * r.checkpoints_written, r.execs);
      layers["corpus.dedup_share"] =
          ratio(r.corpus_dedup_hits, r.corpus_appends + r.corpus_dedup_hits);
    }

    if (tr != nullptr) {
      const double wall_ns = r.wall_seconds * 1e9;
      const double per_exec = static_cast<double>(r.execs);
      const auto op = [&](MapOp o) {
        return static_cast<double>(r.timing.ns(o));
      };
      const double kernels_ns = op(MapOp::kReset) + op(MapOp::kClassify) +
                                op(MapOp::kCompare) + op(MapOp::kHash);
      const double unattributed =
          std::max(0.0, wall_ns - static_cast<double>(r.timing.total_ns()));
      layers["target.exec_ns_per_exec"] = op(MapOp::kExecution) / per_exec;
      layers["core.reset_ns_per_exec"] = op(MapOp::kReset) / per_exec;
      layers["core.classify_ns_per_exec"] = op(MapOp::kClassify) / per_exec;
      layers["core.compare_ns_per_exec"] = op(MapOp::kCompare) / per_exec;
      layers["core.hash_ns_per_exec"] = op(MapOp::kHash) / per_exec;
      layers["campaign.other_ns_per_exec"] = op(MapOp::kOther) / per_exec;
      layers["campaign.unattributed_ns_per_exec"] = unattributed / per_exec;
      layers["campaign.trim_share"] = ratio(r.trim_execs, r.execs);
      layers["share.target_pct"] =
          100.0 * ratio(op(MapOp::kExecution), wall_ns);
      layers["share.kernels_pct"] = 100.0 * ratio(kernels_ns, wall_ns);
      layers["share.other_pct"] = 100.0 * ratio(op(MapOp::kOther), wall_ns);
      layers["share.unattributed_pct"] = 100.0 * ratio(unattributed, wall_ns);
      layers["executor.untraced_share"] =
          ratio(r.tracing_untraced_execs, r.execs);
      layers["executor.fire_precision"] =
          ratio(r.interesting, r.tracing_oracle_fires);
      // Computed, not measured: whole-map op calls times the bytes each
      // scans at the end of the run.
      const telemetry::StatsSnapshot snap = sink.latest();
      const double scan = w.scheme == MapScheme::kFlat
                              ? static_cast<double>(w.map_size)
                              : static_cast<double>(r.used_key);
      layers["core.scan_bytes_per_exec"] =
          static_cast<double>(snap.map_resets + snap.map_classifies +
                              snap.map_compares + snap.map_hashes) *
          scan / per_exec;

      ScopedSpan s(tr, "bench.replay", root);
      if (w.scheme == MapScheme::kFlat) {
        replay_layers<FlatCoverageMap>(
            cfg, target.gen.program, r.corpus,
            last_snapshot ? &*last_snapshot : nullptr, 0, dir, *tr, s.id(),
            layers);
      } else {
        replay_layers<TwoLevelCoverageMap>(
            cfg, target.gen.program, r.corpus,
            last_snapshot ? &*last_snapshot : nullptr, 0, dir, *tr, s.id(),
            layers);
      }
      // Durable-layer share, estimated from the replayed per-op costs and
      // the run's op counts (MapOp::kOther does not split them out).
      const corpus::CorpusStats cs =
          stores ? stores->corpus.stats() : corpus::CorpusStats{};
      const double durable_ns =
          1e6 * layers["persist.save_ms"] *
              static_cast<double>(r.checkpoints_written) +
          1e3 * layers["corpus.add_entry_us"] *
              static_cast<double>(r.corpus_appends) +
          1e6 * layers["corpus.compact_ms"] *
              static_cast<double>(cs.compactions);
      layers["share.persist_corpus_pct"] =
          stores ? 100.0 * ratio(durable_ns, wall_ns) : 0.0;
      layers["campaign.interesting_per_kexec"] =
          ratio(1000.0 * r.interesting, r.execs);
    }
  } else {
    telemetry::FleetTelemetry fleet(w.instances);
    SupervisorResult r;
    {
      ScopedSpan s(tr, "supervisor.run_supervised_campaign", root);
      r = run_supervised_campaign(target.gen.program, target.seeds,
                                  fleet_config(w, cfg, &fleet));
      add_exec_spans(probe, s.id(), tr);
    }
    execs = r.total_execs;
    bugs = r.found_bug_ids.size();
    interesting = r.total_interesting;
    // SupervisorResult carries no corpus: the fleet's edges are the mean
    // of its instances' covered map positions (two-level, so one position
    // per distinct edge key).
    u64 covered = 0;
    for (u32 i = 0; i < w.instances; ++i) {
      const telemetry::StatsSnapshot s = fleet.instance(i).latest();
      covered += s.covered_positions;
      corpus_size += s.queue_depth;
      check(s.tracing_untraced_execs + s.tracing_traced_execs == s.execs,
            "instance " + std::to_string(i) +
                ": untraced + traced execs != execs");
    }
    edges = covered / w.instances;
    check(r.total_execs == w.instances * w.budget,
          "fleet total_execs != instances x budget");
    check(r.all_completed(), "not every fleet instance completed");
    check(r.total_restarts == 0, "fleet restarted an instance");
    attempted += r.total_execs + r.sync.total_published +
                 r.sync.rejected_oversize + r.sync.dropped_faults;
    failed += r.sync.rejected_oversize + r.sync.dropped_faults +
              r.total_restarts;
    u64 missed = 0;
    for (u64 v : r.sync.missed) missed += v;
    if (tr != nullptr) {
      layers["sync.published"] = static_cast<double>(r.sync.total_published);
      layers["sync.missed"] = static_cast<double>(missed);
      layers["supervisor.restarts"] = static_cast<double>(r.total_restarts);
      layers["campaign.interesting_per_kexec"] =
          ratio(1000.0 * r.total_interesting, r.total_execs);
      u64 untraced = 0, fires = 0, trims = 0, scans = 0;
      for (u32 i = 0; i < w.instances; ++i) {
        const telemetry::StatsSnapshot s = fleet.instance(i).latest();
        untraced += s.tracing_untraced_execs;
        fires += s.tracing_oracle_fires;
        trims += s.trim_execs;
        scans += (s.map_resets + s.map_classifies + s.map_compares +
                  s.map_hashes) *
                 s.used_key;
      }
      layers["executor.untraced_share"] = ratio(untraced, r.total_execs);
      layers["executor.fire_precision"] = ratio(r.total_interesting, fires);
      layers["campaign.trim_share"] = ratio(trims, r.total_execs);
      layers["core.scan_bytes_per_exec"] = ratio(scans, r.total_execs);

      ScopedSpan s(tr, "bench.replay", root);
      replay_layers<TwoLevelCoverageMap>(cfg, target.gen.program,
                                         target.seeds, nullptr,
                                         r.sync.total_published, dir, *tr,
                                         s.id(), layers);
    }
  }

  // One lane per instance: a restarted instance would add a lane.
  check(probe.lanes().size() == std::max<u32>(1, w.instances) &&
            probe.seed_end_ns() != 0,
        "campaign: an instance never finished its seed phase");
  j.field("execs", execs);
  j.field("execs_per_s", probe.steady_execs_per_s());
  j.field("edges", edges).field("bugs", bugs);
  j.field("interesting", interesting).field("corpus_size", corpus_size);
  // Everything that must repeat exactly for a seed on a deterministic
  // workload: counters, finds, and the final corpus digest.
  j.field("determinism", std::to_string(execs) + "/" +
                             std::to_string(interesting) + "/" +
                             std::to_string(corpus_size) + "/" +
                             std::to_string(edges) + "/" +
                             std::to_string(bugs) + "/" + digest);
  j.field("deterministic", w.instances == 0);
  j.field("attempted", attempted).field("failed", failed);

  if (tr != nullptr) {
    tr->close(root);
    std::vector<u64> gaps;
    for (const ExecProbe::Lane& l : probe.lanes()) {
      for (usize i = 1; i < l.stamps.size(); ++i) {
        gaps.push_back(l.stamps[i] - l.stamps[i - 1]);
      }
    }
    layers["campaign.exec_gap_p50_us"] = percentile(gaps, 0.50) * 1e-3;
    layers["campaign.exec_gap_p99_us"] = percentile(gaps, 0.99) * 1e-3;
    layers["campaign.exec_gap_samples"] = static_cast<double>(gaps.size());
    layers["campaign.bugs"] = static_cast<double>(bugs);
    // Metrics a workload cannot measure are reported as 0 so every
    // workload prints the same names (see perfbench/README.md).
    for (const char* name :
         {"target.exec_ns_per_exec", "core.reset_ns_per_exec",
          "core.classify_ns_per_exec", "core.compare_ns_per_exec",
          "core.hash_ns_per_exec", "campaign.other_ns_per_exec",
          "campaign.unattributed_ns_per_exec", "share.target_pct",
          "share.kernels_pct", "share.other_pct", "share.unattributed_pct",
          "share.persist_corpus_pct", "persist.checkpoints_per_kexec",
          "corpus.dedup_share", "sync.published", "sync.missed",
          "supervisor.restarts"}) {
      layers.try_emplace(name, 0.0);
    }
    fs::create_directories(args.trace_dir);
    const u64 trace_id = mix64(args.seed ^ (static_cast<u64>(getpid()) << 32) ^
                               monotonic_ns());
    write_spans(args.trace_dir + "/" + w.name + ".jsonl", tracer.spans(),
                trace_id, t0);
    j.key("layers").begin_object();
    for (const auto& [name, v] : layers) j.field(name, v);
    j.end_object();
    j.key("layer_self_ms").begin_object();
    for (const auto& [name, v] : layer_self_ms(tracer.spans())) {
      j.field(name, v);
    }
    j.end_object();
  }

  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  j.field("peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0);

  std::error_code ec;
  fs::remove_all(dir, ec);
  j.key("errors").begin_array();
  for (const std::string& e : g_errors) j.value(e);
  j.end_array();
  j.end_object();
  std::printf("%s\n", j.str().c_str());
  return g_errors.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload NAME --seed N --work-dir DIR "
                 "[--trace-dir DIR]\nworkloads:",
                 argv[0]);
    for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
    std::fprintf(stderr, "\n");
    return 2;
  }
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_workloads: %s\n", e.what());
    return 1;
  }
}
