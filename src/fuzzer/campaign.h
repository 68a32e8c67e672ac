// Campaign driver: the full coverage-guided fuzzing loop (paper Figure 1).
//
// Seeds the queue, then cycles: select entry -> havoc/splice mutations ->
// execute -> fitness function (virgin-map new bits) -> queue/crash/discard.
// The loop, scheduling, and mutation machinery are identical for both map
// schemes; only the map data structure differs — which is the paper's
// experimental control.
#pragma once

#include <atomic>
#include <functional>
#include <string>
#include <vector>

#include "core/map_options.h"
#include "fuzzer/crash.h"
#include "fuzzer/queue.h"
#include "fuzzer/sync.h"
#include "instrumentation/metrics.h"
#include "persist/snapshot.h"
#include "target/program.h"
#include "telemetry/sink.h"
#include "util/fault.h"
#include "util/timing.h"
#include "util/types.h"

namespace bigmap {

namespace persist {
class CheckpointStore;
}

namespace corpus {
class CorpusStore;
}

// Shared-memory control block between a running campaign and its
// supervisor: the campaign publishes an execution heartbeat the watchdog
// samples for stall detection, and honours a cooperative stop request at
// the next execution boundary (finalizing a normal, partial result).
struct CampaignControl {
  std::atomic<u64> progress{0};  // executions performed (heartbeat)
  std::atomic<bool> stop{false};  // request cooperative early exit
  // When nonzero, replaces CampaignConfig::max_execs at the next execution
  // boundary. A supervisor uses this to GROW a running campaign's budget in
  // place (quarantine redistribution) instead of waiting for the worker to
  // finish its stale budget and relaunching it through a checkpoint
  // restore. Only ever raised by the writer.
  std::atomic<u64> budget_override{0};
};

// Optional per-execution callback, invoked at the same boundary as the
// heartbeat update. Procfleet workers install their chaos pump here (the
// seeded SIGKILL/SIGSTOP/exit-mid-publish sites must be able to fire at any
// execution boundary, not just at sync points). Zero overhead when null.
struct ExecHook {
  virtual ~ExecHook() = default;
  virtual void on_exec(u64 execs) = 0;
};

// Execution tracing policy (coverage-guided tracing, Nagy & Hicks).
//
//   kAlways  every exec runs fully traced through the whole-map pipeline
//            (classic AFL behaviour; the control arm for diff testing).
//   kDual    on the FLAT scheme, non-seed execs first run UNTRACED with
//            only the inline interest oracle; the exec is re-executed
//            traced iff the oracle fires or the run crashes/hangs. Seeds
//            always run traced (the queue needs their trace for scoring),
//            as do trim executions. On the TWO-LEVEL scheme kDual is
//            exactly kAlways. The two modes provably produce identical
//            find/crash/queue streams — mode_diff_test pins this.
//
// Why the scheme decides: untraced execution pays by skipping the
// whole-map reset/classify/compare/hash, which on a flat map scan every
// byte of it. BigMap's condensed map already confines those scans to the
// used prefix [0, used_key), so they are ~1% of an exec and there is
// almost nothing left to skip. The oracle, meanwhile, costs as much per
// block as the traced update (the same index lookup plus a counter bump),
// and every fire runs the input twice — on LLVM-sized targets ~40% of
// execs fire. Tracing every exec is the faster policy on every two-level
// workload, with no measurement and no knob needed to know it.
enum class TracingMode : u8 {
  kAlways = 0,
  kDual = 1,
};

struct CampaignConfig {
  MapScheme scheme = MapScheme::kTwoLevel;
  MetricKind metric = MetricKind::kEdge;
  MapOptions map;

  // Coverage-guided tracing fast path: untraced-by-default execution with
  // traced re-execution on oracle fire, taken on the flat scheme only (see
  // TracingMode). Dual is the default because the modes are
  // find-equivalent; benches compare against kAlways explicitly.
  TracingMode tracing = TracingMode::kDual;

  u64 seed = 1;

  // Stop conditions: whichever hits first (0 disables that bound).
  u64 max_execs = 50000;
  double max_seconds = 0.0;

  // Mutation settings.
  u32 havoc_stack_pow = 4;
  usize max_input_size = 1u << 12;
  std::vector<std::vector<u8>> dictionary;

  // Deterministic stage (bitflips/arith/interesting) on first selection of
  // each entry. The paper's runs skip it (persistent-mode 24h protocol).
  bool run_deterministic = false;

  // AFL-style corpus trimming: when an entry is first fuzzed, try removing
  // chunks while the (classified) trace hash stays unchanged. Exercises
  // the map-hash operation heavily — one of the ops that make large flat
  // maps expensive.
  bool trim_enabled = true;

  // Interpreter step budget per execution (hang threshold).
  u64 step_budget = 1u << 16;

  // Synthetic application work per executed block (see
  // Interpreter::set_work_per_block). Keeps execution cost realistic
  // relative to map operations.
  u32 work_per_block = 12;

  // Use executed-step counts instead of wall-clock nanoseconds for queue
  // scheduling (fav_factor / perf_score). Makes campaigns bit-for-bit
  // reproducible given a seed; throughput benches keep this off to match
  // AFL's real time-driven scheduling.
  bool deterministic_timing = false;

  // Keep final corpus in the result (for post-hoc bias-free coverage
  // measurement, §V-A3).
  bool keep_corpus = false;

  // Parallel fuzzing: non-null hub makes this instance publish interesting
  // inputs and import other instances' finds every sync_interval execs.
  // Either the in-process SyncHub (thread fleets) or the shared-memory
  // ShmHub (process fleets) — the campaign is agnostic.
  SyncEndpoint* sync = nullptr;
  u32 sync_id = 0;
  u32 sync_interval = 4096;
  bool is_master = false;

  // Supervision hooks (all optional; zero overhead when null). `control`
  // carries the heartbeat/stop channel; `fault` injects deterministic
  // faults into the exec / sync / allocation paths, keyed by sync_id;
  // `exec_hook` fires after every execution (procfleet chaos pump).
  CampaignControl* control = nullptr;
  FaultInjector* fault = nullptr;
  ExecHook* exec_hook = nullptr;

  // Persistence (optional). A non-null store makes the campaign commit a
  // crash-consistent snapshot of its full resumable state every
  // checkpoint_interval execs (0 = only at clean completion) and restore
  // the latest good snapshot at startup when resume_from_checkpoint is
  // set — continuing the lifetime exec budget rather than restarting it.
  persist::CheckpointStore* checkpoint = nullptr;
  u64 checkpoint_interval = 0;
  u32 keep_checkpoints = 2;
  bool resume_from_checkpoint = false;

  // Corpus database (optional, shareable across a fleet's instances). A
  // non-null store receives every queued entry (content-hash dedup + WAL
  // append with the entry's sparse coverage positions) and every crash
  // occurrence (keyed by Crashwalk stack hash, with this instance's exec
  // sequence number so checkpoint-resume replay is idempotent). Checkpoint
  // snapshots then encode durable queue entries as store refs instead of
  // inline bytes, and the restore path resolves them back through the
  // store. When corpus_compact_interval > 0 the campaign also compacts
  // the store every that many execs.
  corpus::CorpusStore* corpus = nullptr;
  u64 corpus_compact_interval = 0;

  // Telemetry (optional). When non-null, the campaign publishes its own
  // result counters and the map-state gauges to the sink as one
  // StatsSnapshot every telemetry_interval execs and once at finalize;
  // nothing is recorded per exec. The sink is owned by the caller (the
  // supervisor keeps one per instance slot) and carries what earlier
  // attempts published, so its series stays cumulative per instance
  // whether this attempt starts cold, warm on the same sink, or resumed
  // into a fresh one (TelemetrySink::begin_attempt). Its stamped series is
  // the campaign's one periodic sampler: coverage over time is (execs,
  // covered_positions) of each stamp.
  telemetry::TelemetrySink* telemetry = nullptr;
  u64 telemetry_interval = 16384;
};

// A campaign's outcome. The lifetime counters (execs, seed phase, finds,
// trim, fault and tracing accounting) are the inherited CampaignCounters,
// the same struct a checkpoint snapshot carries.
struct CampaignResult : persist::CampaignCounters {
  std::string benchmark;
  MapScheme scheme{};
  usize map_size = 0;

  double wall_seconds = 0.0;
  double throughput() const noexcept {
    return wall_seconds > 0 ? static_cast<double>(execs) / wall_seconds : 0;
  }

  // Seed-phase accounting: processing the initial corpus front-loads the
  // expensive interesting-case path (hash, rank update). Long campaigns —
  // the paper's 24 h runs — are dominated by the steady state after it, so
  // throughput comparisons should use steady_throughput().
  double steady_throughput() const noexcept {
    const double t = wall_seconds - seed_seconds;
    return (t > 0 && execs > seed_execs)
               ? static_cast<double>(execs - seed_execs) / t
               : throughput();
  }

  OpTimeBreakdown timing;

  // Coverage measured on the map (covered virgin positions). Map-biased;
  // cross-scheme comparisons should prefer ground-truth edges below.
  usize covered_positions = 0;

  // BigMap only: distinct keys seen (== used_key); 0 for the flat scheme.
  u32 used_key = 0;

  // BigMap only: map updates that aliased into the overflow slot because
  // the condensed bitmap was full (graceful-degradation counter; 0 unless
  // condensed_size was deliberately undersized).
  u64 saturated_updates = 0;

  // Died to an injected kInstanceKill; the result is partial.
  bool fault_aborted = false;

  // Persistence accounting (all zero without a CheckpointStore). When
  // `resumed` is set, every lifetime counter (the inherited ones and the
  // crash totals below) continues from the restored
  // snapshot rather than from zero — the supervisor accounts for this by
  // treating resumed results as lifetime totals for the instance's current
  // budget segment.
  bool resumed = false;            // state restored from a checkpoint
  u64 resumed_from_execs = 0;      // snapshot's exec counter at restore
  // This attempt's own counts (a snapshot does not persist them).
  u64 checkpoints_written = 0;
  u64 checkpoint_failures = 0;     // saves lost to (injected) I/O faults
  u64 checkpoint_bytes = 0;        // bytes of the snapshots written
  u64 checkpoints_loaded = 0;      // 1 when this attempt restored one
  // Snapshots the restore skipped, by cause (see persist/checkpoint.h).
  u64 recovery_torn_tail = 0;
  u64 recovery_bad_crc = 0;
  u64 recovery_version_mismatch = 0;

  u64 crashes_total = 0;
  u64 crashes_afl_unique = 0;        // AFL's map-biased dedup
  u64 crashes_crashwalk_unique = 0;  // stack-hash dedup (paper's metric)
  u64 crashes_ground_truth = 0;      // distinct planted bug ids

  usize corpus_size = 0;
  std::vector<Input> corpus;  // populated iff keep_corpus

  // Identities behind the crash counts, for unioning across parallel
  // instances (Figures 9/10): planted bug ids and Crashwalk stack hashes.
  std::vector<u32> found_bug_ids;
  std::vector<u64> found_stack_hashes;

  // Sync accounting (zero without a sync endpoint), this attempt's own:
  // finds this instance published, other instances' inputs it imported.
  u64 sync_published = 0;
  u64 sync_imported = 0;

  // Corpus-store accounting (zero without a CorpusStore).
  u64 corpus_appends = 0;     // entries this instance added to the store
  u64 corpus_dedup_hits = 0;  // adds dropped as already-known content
};

// Runs a campaign of `config` over `program` starting from `seeds`.
// Dispatches on scheme x metric to the fully-inlined implementation.
CampaignResult run_campaign(const Program& program,
                            const std::vector<Input>& seeds,
                            const CampaignConfig& config);

// Ground-truth edge coverage of a corpus: executes every input on an
// uninstrumented interpreter and counts distinct (prev_block, cur_block)
// pairs. This is the paper's "bias-free independent coverage build".
u64 measure_corpus_edges(const Program& program,
                         const std::vector<Input>& corpus,
                         u64 step_budget = 1u << 16);

}  // namespace bigmap
