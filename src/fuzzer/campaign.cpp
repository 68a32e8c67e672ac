#include "fuzzer/campaign.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_set>
#include <utility>

#include "core/flat_map.h"
#include "core/two_level_map.h"
#include "corpus/store.h"
#include "fuzzer/executor.h"
#include "fuzzer/mutator.h"
#include "persist/checkpoint.h"
#include "target/interpreter.h"
#include "util/hash.h"
#include "util/rng.h"

namespace bigmap {
namespace {

// Base havoc rounds per selected entry, scaled by perf_score/100.
constexpr u32 kHavocRounds = 256;

// How an execution ran, for Campaign::count_exec.
enum class ExecKind : u8 {
  kUntraced,  // kDual's oracle-only run that stayed boring
  kTraced,    // a full map-pipeline run, oracle-fire re-executions included
  kTrim,      // trim_entry's hash run: traced
};

// The lifetime counters a checkpoint persists, as the sink names them.
telemetry::StatsSnapshot persisted_counts(const persist::CampaignCounters& c,
                                          u64 crashes) {
  telemetry::StatsSnapshot s;
  s.execs = c.execs;
  s.interesting = c.interesting;
  s.crashes = crashes;
  s.hangs = c.hangs;
  s.trim_execs = c.trim_execs;
  s.faulted_execs = c.faulted_execs;
  s.injected_hangs = c.injected_hangs;
  s.tracing_untraced_execs = c.tracing_untraced_execs;
  s.tracing_traced_execs = c.tracing_traced_execs;
  s.tracing_oracle_fires = c.tracing_oracle_fires;
  s.tracing_reexec_ns = c.tracing_reexec_ns;
  return s;
}

template <class Map, class Metric>
class Campaign {
 public:
  Campaign(const Program& prog, const std::vector<Input>& seeds,
           const CampaignConfig& cfg)
      : prog_(prog),
        seeds_(seeds),
        cfg_(cfg),
        ids_(prog.blocks.size(), cfg.map.map_size,
             mix64(cfg.seed ^ 0xB10C1D5ULL)),
        ex_(prog, cfg.map, ids_, cfg.step_budget, cfg.work_per_block),
        queue_(ex_.virgin_positions()),
        mut_({cfg.max_input_size, cfg.havoc_stack_pow, cfg.dictionary},
             mix64(cfg.seed ^ 0x3A7A70Full)),
        rng_(mix64(cfg.seed ^ 0x5C4ED11ULL)) {}

  CampaignResult run() {
    start_ns_ = monotonic_ns();
    res_.benchmark = prog_.name;
    res_.scheme = Map::kScheme;
    res_.map_size = cfg_.map.map_size;

    // A kInstanceKill fault unwinds to here; everything the instance found
    // before dying is still in the triage/queue state, so finalize() turns
    // it into a normal — but partial and flagged — result. The supervisor
    // unions those finds before restarting, so a dying instance never
    // loses them.
    try {
      // Arm the checkpoint cadence before the first execution: with the
      // default (0) a seed exec would checkpoint immediately — *before*
      // that seed reaches the queue — leaving an empty-queue snapshot
      // that restores into a campaign with nothing to fuzz.
      if (cfg_.checkpoint != nullptr && cfg_.checkpoint_interval != 0) {
        next_checkpoint_ = cfg_.checkpoint_interval;
      }
      const bool restored = try_restore();
      if (cfg_.telemetry != nullptr) {
        cfg_.telemetry->begin_attempt(persisted_counts(res_, triage_.total()));
      }
      if (!restored) {
        seed_queue();
        res_.seed_execs = res_.execs;
        res_.seed_seconds =
            static_cast<double>(monotonic_ns() - start_ns_) * 1e-9;
      }
      if (cfg_.checkpoint != nullptr && cfg_.checkpoint_interval != 0) {
        // Absolute cadence: thresholds are multiples of the interval in
        // this instance's exec numbering, so an interrupted-and-resumed
        // run re-arms the SAME thresholds the uninterrupted run used.
        // Checkpoint content is then a pure function of the exec stream —
        // which is what lets the corpus chaos drill demand byte equality.
        next_checkpoint_ = (res_.execs / cfg_.checkpoint_interval + 1) *
                           cfg_.checkpoint_interval;
      }
      if (cfg_.corpus != nullptr && cfg_.corpus_compact_interval != 0) {
        next_compact_ = res_.execs + cfg_.corpus_compact_interval;
      }
      main_loop();
    } catch (const InjectedInstanceKill&) {
      res_.fault_aborted = true;
    }
    finalize();
    return std::move(res_);
  }

 private:
  bool exhausted() const noexcept {
    if (cfg_.control != nullptr &&
        cfg_.control->stop.load(std::memory_order_relaxed)) {
      return true;
    }
    u64 budget = cfg_.max_execs;
    if (cfg_.control != nullptr) {
      const u64 grown =
          cfg_.control->budget_override.load(std::memory_order_relaxed);
      if (grown != 0) budget = grown;
    }
    if (budget != 0 && res_.execs >= budget) return true;
    if (cfg_.max_seconds > 0.0) {
      const double elapsed =
          static_cast<double>(monotonic_ns() - start_ns_) * 1e-9;
      if (elapsed >= cfg_.max_seconds) return true;
    }
    return false;
  }

  // The one place an execution is charged. Bumps the lifetime counters —
  // every exec lands in exactly one of the untraced/traced counters, so
  // their sum is execs by construction — then the heartbeat and the exec
  // hook, then the per-exec cadences (telemetry stamp, checkpoint
  // request, corpus compaction). `reexec_ns` is the wall time of a traced
  // re-execution, 0 otherwise.
  void count_exec(ExecKind kind, u64 reexec_ns = 0) {
    ++res_.execs;
    if (kind == ExecKind::kUntraced) {
      ++res_.tracing_untraced_execs;
    } else {
      ++res_.tracing_traced_execs;
      res_.tracing_reexec_ns += reexec_ns;
      if (kind == ExecKind::kTrim) ++res_.trim_execs;
    }
    if (cfg_.control != nullptr) {
      cfg_.control->progress.fetch_add(1, std::memory_order_relaxed);
    }
    if (cfg_.exec_hook != nullptr) cfg_.exec_hook->on_exec(res_.execs);
    maybe_stamp_telemetry();
    maybe_checkpoint();
    maybe_compact_corpus();
  }

  // Hands the sink one StatsSnapshot of the result counters and the
  // map-state gauges: the campaign's one periodic sampler. Counting the
  // covered positions scans the virgin map, so this runs only on the stamp
  // cadence (and at finalize), charged to kOther.
  void stamp_telemetry() {
    ScopedOpTimer timer(res_.timing, MapOp::kOther);
    telemetry::StatsSnapshot s = persisted_counts(res_, triage_.total());
    s.sync_published = res_.sync_published;
    s.sync_imported = res_.sync_imported;
    s.checkpoints_written = res_.checkpoints_written;
    s.checkpoints_loaded = res_.checkpoints_loaded;
    s.checkpoint_bytes = res_.checkpoint_bytes;
    s.recovery_torn_tail = res_.recovery_torn_tail;
    s.recovery_bad_crc = res_.recovery_bad_crc;
    s.recovery_version_mismatch = res_.recovery_version_mismatch;
    // Read-only: a mutable map() would make the next run reset a map the
    // last trim pass left zero.
    const Map& map = std::as_const(ex_).map();
    s.kernel = map.kernel_name();
    s.queue_depth = queue_.size();
    s.covered_positions = ex_.virgin_queue().count_covered();
    s.map_positions = ex_.virgin_positions();
    if constexpr (Map::kScheme == MapScheme::kTwoLevel) {
      s.used_key = map.used_key();
      s.saturated_updates = map.saturated_updates();
    }
    const MapOpCounts& ops = map.op_counts();
    s.map_resets = ops.resets;
    s.map_classifies = ops.classifies;
    s.map_compares = ops.compares;
    s.map_hashes = ops.hashes;
    cfg_.telemetry->stamp(s);
  }

  void maybe_stamp_telemetry() {
    if (cfg_.telemetry == nullptr || cfg_.telemetry_interval == 0 ||
        res_.execs < next_stamp_) {
      return;
    }
    next_stamp_ = res_.execs + cfg_.telemetry_interval;
    stamp_telemetry();
  }

  // --- corpus store ---------------------------------------------------------

  // Offers one input to the corpus store, counting the append or the
  // dedup hit. Returns its content hash.
  u64 offer_to_store(std::span<const u8> data, u64 sched_ns, u32 bitmap_hash,
                     u32 depth, std::span<const u32> positions) {
    u64 hash = 0;
    if (cfg_.corpus->add_entry(data, sched_ns, bitmap_hash, depth, positions,
                               &hash)) {
      ++res_.corpus_appends;
    } else {
      ++res_.corpus_dedup_hits;
    }
    return hash;
  }

  // Appends queue entry `idx` to the corpus store and remembers its
  // content hash so checkpoints can encode the entry as a store ref.
  void record_corpus_entry(usize idx, u64 sched_ns, u32 bitmap_hash,
                           u32 depth, std::span<const u32> positions) {
    if (entry_hash_.size() <= idx) {
      entry_hash_.resize(idx + 1, 0);
    }
    entry_hash_[idx] = offer_to_store(queue_.entry(idx).data, sched_ns,
                                      bitmap_hash, depth, positions);
  }

  void maybe_compact_corpus() {
    if (cfg_.corpus == nullptr || cfg_.corpus_compact_interval == 0 ||
        res_.execs < next_compact_) {
      return;
    }
    next_compact_ = res_.execs + cfg_.corpus_compact_interval;
    ScopedOpTimer t(res_.timing, MapOp::kOther);
    // Failure is non-fatal: the WAL keeps accumulating and the next cycle
    // (or offline maintenance) retries.
    std::string err;
    cfg_.corpus->flush_pending(&err);
    cfg_.corpus->compact(&err);
  }

  // --- persistence ----------------------------------------------------------

  // Serializes the full resumable state: identity, lifetime counters, RNG
  // streams, seed queue + top_rated metadata, virgin maps, two-level index
  // state, and crash-triage identities. Copies only what the encoding
  // holds: per-position arrays over their live prefix — [0, used_key) on
  // two-level maps, which never touch a position past it — and no bytes
  // for entries that go out as store refs.
  persist::CampaignSnapshot build_snapshot() const {
    persist::CampaignSnapshot s;
    s.scheme = static_cast<u32>(Map::kScheme);
    s.metric = static_cast<u32>(cfg_.metric);
    s.seed = cfg_.seed;
    s.instance_id = cfg_.sync_id;
    s.map_size = cfg_.map.map_size;
    s.virgin_size = ex_.virgin_positions();

    static_cast<persist::CampaignCounters&>(s) = res_;
    if (cfg_.deterministic_timing) {
      // The two wall-clock counters would make two runs of one seed write
      // different bytes; under deterministic timing a snapshot is a pure
      // function of the exec stream. The live result keeps them.
      s.seed_seconds = 0.0;
      s.tracing_reexec_ns = 0;
    }
    s.crashes_total = triage_.total();
    s.crashes_afl_unique = triage_.afl_unique();

    s.rng_state = rng_.state();
    s.mutator_rng_state = mut_.rng().state();

    usize live = ex_.virgin_positions();
    if constexpr (Map::kScheme == MapScheme::kTwoLevel) {
      const TwoLevelCoverageMap& m = ex_.map();
      s.has_two_level = true;
      s.used_key = m.used_key();
      s.saturated_updates = m.saturated_updates();
      s.map_keys.assign(m.slot_keys().begin(), m.slot_keys().end());
      live = m.used_key();
    }

    SeedQueue::ExportedState q = queue_.export_state(live);
    s.entries.resize(q.entries.size());
    for (usize i = 0; i < q.entries.size(); ++i) {
      const QueueEntry& e = *q.entries[i];
      persist::QueueEntrySnap& snap = s.entries[i];
      snap.exec_ns = e.exec_ns;
      snap.bitmap_hash = e.bitmap_hash;
      snap.depth = e.depth;
      snap.favored = e.favored;
      snap.was_fuzzed = e.was_fuzzed;
      snap.times_selected = e.times_selected;
      // Durable store entries shrink to refs; anything the store has not
      // safely journaled stays inline so the checkpoint remains
      // self-sufficient under injected WAL faults.
      if (cfg_.corpus != nullptr && i < entry_hash_.size() &&
          entry_hash_[i] != 0 && cfg_.corpus->durable(entry_hash_[i])) {
        snap.content_hash = entry_hash_[i];
        snap.stored_len = e.data.size();
        snap.in_store = true;
      } else {
        snap.data = e.data;
      }
    }
    s.top_entry = std::move(q.top_entry);
    s.top_factor = std::move(q.top_factor);
    s.top_covered = q.top_covered;

    s.in_cycle = in_cycle_;
    s.cycle_qi = cycle_qi_;
    s.cycle_len = cycle_len_;
    s.cycle_avg_ns = cycle_avg_ns_;

    const auto prefix_of = [live](const VirginMap& v) {
      return std::vector<u8>(v.data(), v.data() + live);
    };
    s.virgin_queue = prefix_of(ex_.virgin_queue());
    s.virgin_crash = prefix_of(ex_.virgin_crash());
    s.virgin_hang = prefix_of(ex_.virgin_hang());

    s.bug_ids.assign(triage_.bug_ids().begin(), triage_.bug_ids().end());
    s.stack_hashes.assign(triage_.stack_hashes().begin(),
                          triage_.stack_hashes().end());
    return s;
  }

  void write_checkpoint() {
    persist::CheckpointStore& store = *cfg_.checkpoint;
    const persist::PersistStats before = store.stats();
    std::string err;
    if (cfg_.corpus != nullptr) {
      // WAL-append-before-checkpoint ordering: retry failed appends now so
      // as many queue entries as possible become durable refs, and any ref
      // the snapshot writes is guaranteed to resolve on restore.
      cfg_.corpus->flush_pending(&err);
    }
    if (store.save(build_snapshot(), cfg_.keep_checkpoints, &err)) {
      ++res_.checkpoints_written;
      res_.checkpoint_bytes +=
          store.stats().checkpoint_bytes - before.checkpoint_bytes;
    } else {
      ++res_.checkpoint_failures;
    }
    // A multi-megabyte save on a slow disk freezes the exec heartbeat; tick
    // it so the watchdog doesn't mistake the pause for a stall.
    if (cfg_.control != nullptr) {
      cfg_.control->progress.fetch_add(1, std::memory_order_relaxed);
    }
  }

  // Checkpoints are REQUESTED on the absolute exec cadence but COMMITTED
  // only at queue-entry boundaries (flush_due_checkpoint): a snapshot never
  // captures a half-processed trim/deterministic/havoc stage, so restoring
  // one re-enters the mutation stream exactly where it left off. The write
  // slides to the next boundary; the cadence itself does not drift because
  // the next threshold stays a multiple of the interval.
  void maybe_checkpoint() {
    if (cfg_.checkpoint == nullptr || cfg_.checkpoint_interval == 0 ||
        res_.execs < next_checkpoint_) {
      return;
    }
    next_checkpoint_ = (res_.execs / cfg_.checkpoint_interval + 1) *
                       cfg_.checkpoint_interval;
    checkpoint_due_ = true;
  }

  void flush_due_checkpoint() {
    if (!checkpoint_due_) return;
    checkpoint_due_ = false;
    ScopedOpTimer t(res_.timing, MapOp::kOther);
    write_checkpoint();
  }

  // Attempts to restore the latest good snapshot. Returns false — leaving
  // the campaign in its cold-start state — when resume is not requested,
  // no usable snapshot exists, or the snapshot belongs to a different
  // configuration. On success every lifetime counter continues from the
  // snapshot, so the max_execs budget spans the whole resumed lineage.
  bool try_restore() {
    if (cfg_.checkpoint == nullptr || !cfg_.resume_from_checkpoint) {
      return false;
    }
    persist::CheckpointStore& store = *cfg_.checkpoint;
    const persist::PersistStats before = store.stats();
    persist::CheckpointStore::LoadOutcome loaded = store.load_latest();
    const persist::PersistStats after = store.stats();
    res_.recovery_torn_tail =
        after.recovered_torn_tail - before.recovered_torn_tail;
    res_.recovery_bad_crc = after.recovered_bad_crc - before.recovered_bad_crc;
    res_.recovery_version_mismatch =
        after.recovered_version_mismatch - before.recovered_version_mismatch;
    if (!loaded.snapshot.has_value()) return false;
    persist::CampaignSnapshot& s = *loaded.snapshot;

    // Identity gate: a snapshot only restores into the exact configuration
    // that wrote it.
    if (s.scheme != static_cast<u32>(Map::kScheme) ||
        s.metric != static_cast<u32>(cfg_.metric) || s.seed != cfg_.seed ||
        s.map_size != cfg_.map.map_size ||
        s.virgin_size != ex_.virgin_positions()) {
      return false;
    }
    // A snapshot with no queue entries cannot make progress after restore
    // (the main loop needs something to fuzz); treat it as unusable and
    // cold-start instead. So is one whose cycle cursor is out of range:
    // cycle_qi == cycle_len is legal (snapshot from finalize after the
    // budget ran out mid-cycle). Both are checked before any live state
    // changes.
    if (s.entries.empty() ||
        s.has_two_level != (Map::kScheme == MapScheme::kTwoLevel) ||
        (s.in_cycle &&
         (s.cycle_qi > s.cycle_len || s.cycle_len > s.entries.size()))) {
      return false;
    }

    // Resolve store refs to bytes BEFORE touching live state, so a
    // missing/mismatched corpus entry rejects the snapshot cleanly (the
    // checkpoint store then falls back to an older snapshot or a cold
    // start).
    for (persist::QueueEntrySnap& e : s.entries) {
      if (!e.in_store) continue;
      if (cfg_.corpus == nullptr) return false;
      corpus::CorpusEntry ce;
      if (!cfg_.corpus->fetch(e.content_hash, &ce) ||
          ce.data.size() != e.stored_len) {
        return false;
      }
      e.data = std::move(ce.data);
    }

    std::vector<QueueEntry> entries;
    entries.reserve(s.entries.size());
    for (persist::QueueEntrySnap& e : s.entries) {
      QueueEntry q;
      q.data = std::move(e.data);
      q.exec_ns = e.exec_ns;
      q.bitmap_hash = e.bitmap_hash;
      q.depth = e.depth;
      q.favored = e.favored;
      q.was_fuzzed = e.was_fuzzed;
      q.times_selected = e.times_selected;
      entries.push_back(std::move(q));
    }
    if (!queue_.import_state(std::move(entries), s.top_entry, s.top_factor,
                             s.top_covered)) {
      return false;
    }
    if constexpr (Map::kScheme == MapScheme::kTwoLevel) {
      if (!ex_.map().import_slot_keys(s.map_keys)) {
        // The queue was already replaced; rebuild it empty so the
        // cold-start path seeds from scratch instead of fuzzing
        // half-restored state. A failed import leaves the map fresh.
        queue_ = SeedQueue(ex_.virgin_positions());
        return false;
      }
    }

    // The live prefixes; the fresh maps already hold 0xFF past them once
    // the slot-key import's used_key growth is synced into them.
    ex_.sync_virgin();
    ex_.mutable_virgin_queue().restore_prefix(s.virgin_queue);
    ex_.mutable_virgin_crash().restore_prefix(s.virgin_crash);
    ex_.mutable_virgin_hang().restore_prefix(s.virgin_hang);

    triage_.restore(s.bug_ids, s.stack_hashes, s.crashes_total,
                    s.crashes_afl_unique);
    rng_.set_state(s.rng_state);
    mut_.rng().set_state(s.mutator_rng_state);

    // Cycle cursor: re-enter the main loop exactly where the snapshot was
    // taken. A pre-cursor snapshot leaves in_cycle false — cycle-restart
    // semantics.
    in_cycle_ = s.in_cycle;
    cycle_qi_ = static_cast<usize>(s.cycle_qi);
    cycle_len_ = static_cast<usize>(s.cycle_len);
    cycle_avg_ns_ = s.cycle_avg_ns;

    if (cfg_.corpus != nullptr) {
      // Rebuild the queue-index -> content-hash table. Entries that were
      // inline (their WAL append failed before the crash) are re-offered
      // to the store; dedup makes this a no-op when the bytes survived.
      entry_hash_.assign(s.entries.size(), 0);
      for (usize i = 0; i < s.entries.size(); ++i) {
        const persist::QueueEntrySnap& e = s.entries[i];
        if (e.in_store) {
          entry_hash_[i] = e.content_hash;
        } else {
          entry_hash_[i] = offer_to_store(queue_.entry(i).data, e.exec_ns,
                                          e.bitmap_hash, e.depth, {});
        }
      }
    }

    static_cast<persist::CampaignCounters&>(res_) = s;
    res_.resumed = true;
    res_.resumed_from_execs = s.execs;
    res_.checkpoints_loaded = 1;
    if (cfg_.control != nullptr) {
      // Heartbeat continuity: the watchdog's stall detector keys off
      // progress deltas, so jump-start it with the restored exec count.
      cfg_.control->progress.fetch_add(s.execs, std::memory_order_relaxed);
    }
    return true;
  }

  // Consults the fault injector before an execution. Returns false when
  // this execution is aborted (kExecAbort); throws InjectedInstanceKill for
  // kInstanceKill; serves kTransientHang in place, polling the stop flag so
  // a watchdog can always cut the stall short.
  bool fault_gate() {
    if (cfg_.fault == nullptr) return true;
    if (cfg_.fault->fire(FaultSite::kInstanceKill, cfg_.sync_id)) {
      throw InjectedInstanceKill{};
    }
    if (cfg_.fault->fire(FaultSite::kTransientHang, cfg_.sync_id)) {
      ++res_.injected_hangs;
      const u64 deadline_ns =
          monotonic_ns() + static_cast<u64>(cfg_.fault->hang_ms()) * 1000000;
      while (monotonic_ns() < deadline_ns) {
        if (cfg_.control != nullptr &&
            cfg_.control->stop.load(std::memory_order_relaxed)) {
          break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
    if (cfg_.fault->fire(FaultSite::kExecAbort, cfg_.sync_id)) {
      ++res_.faulted_execs;
      return false;
    }
    return true;
  }

  // Runs one input; adds it to the queue when interesting (or when it is a
  // non-crashing seed — AFL keeps all seeds). Returns true if queued.
  //
  // Under TracingMode::kDual on the flat scheme a non-seed input first runs
  // UNTRACED: only the inline interest oracle observes the execution, and
  // a boring run (no oracle fire, no crash, no hang) costs neither trace
  // emission nor any whole-map operation. Firing runs — and every
  // crash/hang, which needs the exact virgin_crash/virgin_hang compare —
  // replay through the full traced pipeline. The oracle is exact against
  // the queue virgin map (see Executor::run_untraced), so the traced
  // pipeline observes precisely the interesting/crash/hang executions it
  // would have observed under kAlways; everything downstream (queue,
  // triage, sync, corpus, checkpoints) is therefore stream-identical
  // between the modes, and beyond crash/hang replays a re-execution is
  // only ever paid for an actually-interesting input. On the two-level
  // scheme every exec runs traced (see TracingMode).
  bool process(Input input, u32 depth, bool is_seed) {
    if (!fault_gate()) return false;
    typename Executor<Map, Metric>::Outcome out;
    u64 reexec_ns = 0;
    bool untraced_first = false;
    if constexpr (Map::kScheme == MapScheme::kFlat) {
      untraced_first = cfg_.tracing == TracingMode::kDual && !is_seed;
    }
    if (untraced_first) {
      const auto fast = ex_.run_untraced(input, res_.timing);
      if (fast.fired) ++res_.tracing_oracle_fires;
      const bool reexec =
          fast.fired || fast.exec.crashed() || fast.exec.hung();
      if (!reexec) {
        // Boring exec: count it and keep going — no map pipeline at all.
        count_exec(ExecKind::kUntraced);
        return false;
      }
      // Traced re-execution. It passes the fault gate again: an aborted
      // re-exec counts in NEITHER tracing counter and not against the
      // budget — and since the untraced run mutated no campaign state,
      // the breakpoint stays armed for the next time this coverage shows
      // up.
      if (!fault_gate()) return false;
      const u64 reexec_start = monotonic_ns();
      out = ex_.run(input, res_.timing);
      reexec_ns = monotonic_ns() - reexec_start;
    } else {
      out = ex_.run(input, res_.timing);
    }
    count_exec(ExecKind::kTraced, reexec_ns);

    if (out.exec.crashed()) {
      triage_.record(out.exec, out.outcome_new_bits != NewBits::kNone);
      if (cfg_.corpus != nullptr) {
        // Same identity as CrashTriage; res_.execs is this instance's
        // deterministic exec sequence number, which makes re-reports from
        // checkpoint-resume replay no-ops in the store.
        cfg_.corpus->record_crash(
            hash_combine(out.exec.stack_hash, out.exec.faulting_block),
            out.exec.bug_id, cfg_.sync_id, res_.execs, input);
      }
      return false;
    }
    if (out.exec.hung()) {
      ++res_.hangs;
      return false;
    }

    const bool fresh = out.interesting();
    if (fresh) ++res_.interesting;
    if (!fresh && !is_seed) return false;

    ScopedOpTimer t(res_.timing, MapOp::kOther);
    if (cfg_.sync != nullptr && fresh &&
        cfg_.sync->publish(cfg_.sync_id, input)) {
      ++res_.sync_published;
    }
    const u64 sched_ns = cfg_.deterministic_timing
                             ? out.exec.steps * 100  // pseudo-time
                             : out.exec_ns;
    const usize idx =
        queue_.add(std::move(input), sched_ns, out.hash, depth);
    // The positions the score update collected are the rarity signal the
    // store's trim pass works from.
    const std::span<const u32> positions =
        queue_.update_scores(idx, ex_.last_trace());
    if (cfg_.corpus != nullptr) {
      record_corpus_entry(idx, sched_ns, out.hash, depth, positions);
    }
    return true;
  }

  void seed_queue() {
    for (const Input& s : seeds_) {
      if (exhausted()) break;
      process(s, 0, /*is_seed=*/true);
    }
    // All seeds crashed/hung (or none were given): fall back to dummy
    // inputs so the campaign can start, as afl-fuzz does. Crash-on-zero
    // targets are retried with seeded random bytes.
    Xoshiro256 fallback_rng(mix64(cfg_.seed ^ 0xFA11BACCULL));
    for (int attempt = 0; attempt < 16 && queue_.empty() && !exhausted();
         ++attempt) {
      Input dummy(prog_.nominal_input_size, 0);
      if (attempt > 0) {
        for (auto& b : dummy) b = static_cast<u8>(fallback_rng.next());
      }
      process(std::move(dummy), 0, /*is_seed=*/true);
    }
  }

  // AFL's trim_case: repeatedly remove chunks of the entry as long as the
  // classified-trace hash is preserved. Consumes executions from the
  // budget (AFL counts them too) and exercises the map-hash operation.
  void trim_entry(usize qi) {
    QueueEntry& e = queue_.entry(qi);
    if (e.data.size() < 8 || e.bitmap_hash == 0) return;
    const u32 target_hash = e.bitmap_hash;

    Input data = e.data;
    const usize orig_len = data.size();
    usize remove = std::max<usize>(data.size() / 16, 4);
    const usize min_remove = std::max<usize>(data.size() / 1024, 4);
    bool changed = false;

    while (remove >= min_remove && data.size() > 8 && !exhausted()) {
      usize pos = 0;
      while (pos + remove <= data.size() && !exhausted()) {
        Input candidate;
        candidate.reserve(data.size() - remove);
        candidate.insert(candidate.end(), data.begin(),
                         data.begin() + static_cast<long>(pos));
        candidate.insert(candidate.end(),
                         data.begin() + static_cast<long>(pos + remove),
                         data.end());

        if (!fault_gate()) {
          pos += remove;
          continue;
        }
        auto sr = ex_.run_for_hash(candidate, res_.timing);
        count_exec(ExecKind::kTrim);

        if (sr.exec.outcome == ExecResult::Outcome::kOk &&
            sr.hash == target_hash) {
          data = std::move(candidate);
          changed = true;
        } else {
          pos += remove;
        }
      }
      remove /= 2;
    }

    if (changed) {
      res_.trimmed_bytes += orig_len - data.size();
      e.data = std::move(data);
      if (cfg_.corpus != nullptr && qi < entry_hash_.size() &&
          entry_hash_[qi] != 0) {
        // The entry's bytes changed, so its content hash did too: add the
        // trimmed form under its new hash (keeping the original's coverage
        // positions — trimming preserves the classified trace) so store
        // refs keep matching the live queue. The untrimmed original stays
        // until a rarity trim pass subsumes it.
        corpus::CorpusEntry old;
        std::vector<u32> positions;
        if (cfg_.corpus->fetch(entry_hash_[qi], &old)) {
          positions = std::move(old.positions);
        }
        entry_hash_[qi] = offer_to_store(e.data, e.exec_ns, e.bitmap_hash,
                                         e.depth, positions);
      }
    }
  }

  void deterministic_stage(usize qi) {
    // AFL's deterministic pass: walking bitflips (1/2/4 bits), byte flips
    // (1/2/4 bytes), arithmetic (8/16/32-bit, both endiannesses),
    // interesting values (8/16/32-bit), and dictionary overwrite. Each
    // stage is budget-checked; the order matches afl-fuzz.
    const Input base = queue_.entry(qi).data;  // copy: queue may grow
    const u32 depth = queue_.entry(qi).depth + 1;
    auto sink = [&](const Input& variant) {
      if (exhausted()) return;
      process(variant, depth, false);
    };
    for (u32 bits : {1u, 2u, 4u}) {
      mut_.det_bitflips(base, bits, sink);
      if (exhausted()) return;
    }
    for (u32 bytes : {1u, 2u, 4u}) {
      mut_.det_byteflips(base, bytes, sink);
      if (exhausted()) return;
    }
    mut_.det_arith8(base, sink);
    if (exhausted()) return;
    mut_.det_arith16(base, sink);
    if (exhausted()) return;
    mut_.det_arith32(base, sink);
    if (exhausted()) return;
    mut_.det_interesting8(base, sink);
    if (exhausted()) return;
    mut_.det_interesting16(base, sink);
    if (exhausted()) return;
    mut_.det_interesting32(base, sink);
    if (exhausted()) return;
    mut_.det_dictionary(base, sink);
  }

  void havoc_stage(usize qi, u64 rounds) {
    const u32 depth = queue_.entry(qi).depth + 1;
    for (u64 r = 0; r < rounds && !exhausted(); ++r) {
      Input work;
      const usize qsize = queue_.size();
      if (qsize > 1 && rng_.chance(1, 4)) {
        const auto& other =
            queue_.entry(rng_.below(static_cast<u32>(qsize))).data;
        auto spliced = mut_.splice(queue_.entry(qi).data, other);
        work = spliced ? std::move(*spliced) : queue_.entry(qi).data;
      } else {
        work = queue_.entry(qi).data;
      }
      mut_.havoc(work);
      process(std::move(work), depth, false);
      maybe_sync();
    }
  }

  void maybe_sync() {
    if (cfg_.sync == nullptr || res_.execs < next_sync_) return;
    next_sync_ = res_.execs + cfg_.sync_interval;
    for (Input& imported : cfg_.sync->fetch_new(cfg_.sync_id)) {
      if (exhausted()) break;
      ++res_.sync_imported;
      process(std::move(imported), 0, false);
    }
  }

  void main_loop() {
    next_sync_ = cfg_.sync_interval;
    while (!exhausted() && !queue_.empty()) {
      if (!in_cycle_) {
        queue_.cull();
        cycle_avg_ns_ = queue_.average_exec_ns();
        cycle_len_ = queue_.size();
        cycle_qi_ = 0;
        in_cycle_ = true;
      }
      // else: restored mid-cycle from a checkpoint — the cursor, cycle
      // length, and cycle average were snapshotted at an entry boundary,
      // so re-entering here (without re-culling) continues the exact
      // stream the interrupted run was producing.

      for (; cycle_qi_ < cycle_len_ && !exhausted(); ++cycle_qi_) {
        // Entry boundary: the only place a due checkpoint is committed.
        flush_due_checkpoint();
        QueueEntry& e = queue_.entry(cycle_qi_);

        // AFL's skip logic: favored entries always run; others mostly
        // skipped (more aggressively once already fuzzed).
        if (!e.favored) {
          const u32 skip_pct = e.was_fuzzed ? 95 : 75;
          if (rng_.chance(skip_pct, 100)) continue;
        }
        ++e.times_selected;

        if (cfg_.trim_enabled && !e.was_fuzzed) {
          trim_entry(cycle_qi_);
        }
        if (cfg_.run_deterministic && !e.was_fuzzed &&
            (cfg_.sync == nullptr || cfg_.is_master)) {
          deterministic_stage(cycle_qi_);
        }

        const double score = queue_.perf_score(cycle_qi_, cycle_avg_ns_);
        const u64 rounds = std::max<u64>(
            8, static_cast<u64>(kHavocRounds * score / 100.0));
        havoc_stage(cycle_qi_, rounds);
        queue_.entry(cycle_qi_).was_fuzzed = true;
      }
      if (exhausted()) break;
      in_cycle_ = false;
      flush_due_checkpoint();  // cycle boundary counts as one too
    }
  }

  void finalize() {
    // A clean exit commits one final checkpoint so a later whole-process
    // resume sees the instance's complete final state. A fault-killed
    // instance deliberately does NOT get one — a crashing process cannot
    // write; its warm restart must recover from the last periodic
    // checkpoint, which is exactly the path worth drilling.
    if (cfg_.checkpoint != nullptr && !res_.fault_aborted) {
      write_checkpoint();
    }
    // Always leave a final snapshot so the last plot_data row reflects the
    // instance's lifetime totals (fleet sums rely on this).
    if (cfg_.telemetry != nullptr) stamp_telemetry();
    res_.wall_seconds =
        static_cast<double>(monotonic_ns() - start_ns_) * 1e-9;
    res_.covered_positions = ex_.virgin_queue().count_covered();
    if constexpr (Map::kScheme == MapScheme::kTwoLevel) {
      res_.used_key = ex_.map().used_key();
      res_.saturated_updates = ex_.map().saturated_updates();
    }
    res_.crashes_total = triage_.total();
    res_.crashes_afl_unique = triage_.afl_unique();
    res_.crashes_crashwalk_unique = triage_.crashwalk_unique();
    res_.crashes_ground_truth = triage_.ground_truth_unique();
    res_.found_bug_ids.assign(triage_.bug_ids().begin(),
                              triage_.bug_ids().end());
    res_.found_stack_hashes.assign(triage_.stack_hashes().begin(),
                                   triage_.stack_hashes().end());
    res_.corpus_size = queue_.size();
    if (cfg_.keep_corpus) {
      res_.corpus.reserve(queue_.size());
      for (usize i = 0; i < queue_.size(); ++i) {
        res_.corpus.push_back(queue_.entry(i).data);
      }
    }
  }

  const Program& prog_;
  const std::vector<Input>& seeds_;
  const CampaignConfig& cfg_;

  BlockIdTable ids_;
  Executor<Map, Metric> ex_;
  SeedQueue queue_;
  Mutator mut_;
  Xoshiro256 rng_;
  CrashTriage triage_;

  CampaignResult res_;
  u64 start_ns_ = 0;
  u64 next_sync_ = 0;
  u64 next_stamp_ = 0;
  u64 next_checkpoint_ = 0;
  u64 next_compact_ = 0;

  // Main-loop cycle cursor (checkpointed; see main_loop). checkpoint_due_
  // carries a cadence hit from wherever it fired to the next entry
  // boundary, where the snapshot is actually committed.
  bool in_cycle_ = false;
  usize cycle_qi_ = 0;
  usize cycle_len_ = 0;
  u64 cycle_avg_ns_ = 0;
  bool checkpoint_due_ = false;

  // Queue index -> corpus content hash (0 = not recorded). Parallel to the
  // queue, which only ever appends.
  std::vector<u64> entry_hash_;
};

}  // namespace

CampaignResult run_campaign(const Program& program,
                            const std::vector<Input>& seeds,
                            const CampaignConfig& config) {
  // A sync_id past the hub's instance count would index other instances'
  // cursors out of bounds deep in the sync path; reject it up front.
  if (config.sync != nullptr &&
      config.sync_id >= config.sync->num_instances()) {
    throw std::invalid_argument(
        "run_campaign: sync_id " + std::to_string(config.sync_id) +
        " out of range for SyncHub with " +
        std::to_string(config.sync->num_instances()) + " instances");
  }
  return dispatch_map_metric(
      config.scheme, config.metric, [&]<class Map, class Metric>() {
        return Campaign<Map, Metric>(program, seeds, config).run();
      });
}

u64 measure_corpus_edges(const Program& program,
                         const std::vector<Input>& corpus, u64 step_budget) {
  Interpreter interp(step_budget);
  std::unordered_set<u64> edges;
  for (const Input& input : corpus) {
    u32 prev = 0xFFFFFFFFu;
    interp.run(program, input, [&](u32 block) {
      if (prev != 0xFFFFFFFFu) {
        edges.insert((static_cast<u64>(prev) << 32) | block);
      }
      prev = block;
    });
  }
  return edges.size();
}

}  // namespace bigmap
