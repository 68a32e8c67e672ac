// Executor: runs one test case end-to-end and applies the per-test-case
// map-operation sequence (§II-A2).
//
// Templated on the coverage map (FlatCoverageMap / TwoLevelCoverageMap) and
// the coverage metric (EdgeMetric / NGramMetric / ContextMetric). An exec
// is two passes: a KeyRecorder runs the target and writes the metric key
// of every executed block into a KeyTrace, then the executor applies the
// trace to the map, one inlined update per key. run(), run_untraced() and
// run_for_hash() take either an input, which they record on the calling
// thread first, or a trace recorded elsewhere (fuzzer/exec_pool.h).
// Every stage is attributed to the Figure 3 timing category it belongs
// to:
//
//   reset      ->  MapOp::kReset
//   execute    ->  MapOp::kExecution   (target run + applying its keys)
//   classify   ->  MapOp::kClassify
//   compare    ->  MapOp::kCompare
//   hash       ->  MapOp::kHash        (interesting test cases and trims)
//
// A fused pass cannot be split by measurement, so its time is charged half
// to each of its two categories: merged classify+compare (§IV-E) to
// kClassify and kCompare, the flat scheme's trim pass (classify + hash +
// clear) to kClassify and kHash.
#pragma once

#include <concepts>
#include <span>
#include <vector>

#include "core/classify.h"
#include "core/flat_map.h"
#include "core/map_options.h"
#include "core/two_level_map.h"
#include "core/virgin.h"
#include "fuzzer/exec_pool.h"
#include "instrumentation/metrics.h"
#include "target/interpreter.h"
#include "target/program.h"
#include "util/alloc.h"
#include "util/timing.h"
#include "util/types.h"

namespace bigmap {

// Calls f.template operator()<Map, Metric>() with the coverage map class
// `scheme` names and the metric class `metric` names: the one scheme x
// metric switch in front of every Executor instantiation (run_campaign,
// make_novelty_oracle). Throws std::invalid_argument for a metric value
// outside MetricKind.
template <class F>
decltype(auto) dispatch_map_metric(MapScheme scheme, MetricKind metric,
                                   F&& f) {
  return dispatch_metric(metric, [&]<class Metric>() -> decltype(auto) {
    if (scheme == MapScheme::kFlat) {
      return f.template operator()<FlatCoverageMap, Metric>();
    }
    return f.template operator()<TwoLevelCoverageMap, Metric>();
  });
}

// Metric concept detection: ContextMetric wants call/return notifications.
template <class M>
concept ContextAwareMetric = requires(M m, u32 block) {
  m.on_call(block);
  m.on_return();
};

// Runs the target and records its metric keys: an interpreter and a
// metric over one program. Campaigns give one to every thread that runs
// targets; the metric's state is per-run, so any recorder of one program,
// id table and step budget records the same trace for the same input.
template <class Metric>
class KeyRecorder final : public TraceRecorder {
 public:
  KeyRecorder(const Program& prog, const BlockIdTable& ids, u64 step_budget,
              u32 work_per_block = Interpreter::kDefaultWorkPerBlock)
      : prog_(&prog), metric_(ids), interp_(step_budget, work_per_block) {}

  void record(std::span<const u8> input, KeyTrace& out) override {
    out.reserve(interp_.step_budget());
    u32* keys = out.data();
    const u64 start = monotonic_ns();
    metric_.begin_execution();
    out.exec = interp_.run(*prog_, input, [&](u32 block_index) {
      track_calls(block_index);
      *keys++ = metric_.visit(block_index);
    });
    out.run_ns = monotonic_ns() - start;
  }

  Interpreter& interpreter() noexcept { return interp_; }
  Metric& metric() noexcept { return metric_; }

 private:
  // Call/return notifications for context-aware metrics; compiles to
  // nothing for the others.
  void track_calls(u32 block_index) {
    if constexpr (ContextAwareMetric<Metric>) {
      const Block& b = prog_->blocks[block_index];
      if (b.kind == BlockKind::kCall) {
        metric_.on_call(b.targets[0]);
      } else if (b.kind == BlockKind::kReturn) {
        metric_.on_return();
      }
    }
  }

  const Program* prog_;
  Metric metric_;
  Interpreter interp_;
};

template <class Map, class Metric>
class Executor {
 public:
  Executor(const Program& prog, const MapOptions& opts,
           const BlockIdTable& ids, u64 step_budget,
           u32 work_per_block = Interpreter::kDefaultWorkPerBlock)
      : map_(opts),
        virgin_queue_(make_virgin(map_, opts)),
        virgin_crash_(make_virgin(map_, opts)),
        virgin_hang_(make_virgin(map_, opts)),
        recorder_(prog, ids, step_budget, work_per_block),
        merged_(opts.merged_classify_compare) {}

  struct Outcome {
    ExecResult exec;
    // vs. the queue virgin map; kNone for crashes/hangs.
    NewBits new_bits = NewBits::kNone;
    // vs. the crash/hang virgin map (AFL's built-in uniqueness signal).
    NewBits outcome_new_bits = NewBits::kNone;
    u32 hash = 0;   // classified-trace hash; computed iff interesting
    u64 exec_ns = 0;
    bool interesting() const noexcept { return new_bits != NewBits::kNone; }
  };

  // Runs one input through the full AFL per-test-case pipeline, charging
  // each stage to `timing`.
  Outcome run(std::span<const u8> input, OpTimeBreakdown& timing) {
    return run(record(input, timing), timing);
  }

  // The same pipeline over a trace already recorded for the input: what
  // run(input) does after running the target. exec_ns is the recorded
  // run's time plus applying its keys.
  Outcome run(const KeyTrace& trace, OpTimeBreakdown& timing) {
    Outcome out;
    out.exec = trace.exec;
    reset_map(timing);
    out.exec_ns = trace.run_ns + apply(trace, timing);
    sync_virgin();

    switch (out.exec.outcome) {
      case ExecResult::Outcome::kOk: {
        out.new_bits = classify_and_compare(virgin_queue_, timing);
        if (out.new_bits != NewBits::kNone) {
          ScopedOpTimer t(timing, MapOp::kHash);
          out.hash = map_.hash();
        }
        break;
      }
      case ExecResult::Outcome::kCrash:
        out.outcome_new_bits = classify_and_compare(virgin_crash_, timing);
        break;
      case ExecResult::Outcome::kHang:
        out.outcome_new_bits = classify_and_compare(virgin_hang_, timing);
        break;
    }

    return out;
  }

  // Outcome of an untraced (coverage-guided tracing) run. The run always
  // completes, so `exec` is the same ExecResult run() reports for the
  // input.
  struct UntracedOutcome {
    ExecResult exec;
    // The interest oracle fired: this input may produce new coverage and
    // must be re-executed with full tracing.
    bool fired = false;
    u64 exec_ns = 0;
  };

  // Runs one input with NO map trace and NO whole-map operations — only
  // the interest oracle over its keys. The oracle is EXACT against the
  // queue virgin map: it fires if and only if the traced pipeline would
  // report new bits for this input. Two parts compose:
  //
  //  - first-hit check (two-level scheme): the metric key has no
  //    condensed slot yet (slot_of == kUnassigned). A fresh key lands in
  //    a fresh 0xFF virgin byte — guaranteed new bits — and untraced mode
  //    must never mutate the index. The check is BRANCHLESS: the
  //    unassigned sentinel is clamped (one cmov) onto a spare counter slot
  //    just past the virgin positions, the run completes like any other,
  //    and a touched spare slot reads back as fired. The key loop
  //    therefore needs no per-key stop check.
  //  - final-count check: a sparse per-position u8 counter mirrors the
  //    map's counter (same 256-wrap); after the run, fired = any touched
  //    position with classify_count(final_count) & virgin — byte-for-byte
  //    the test classify + compare_update would perform. Intermediate
  //    counts are deliberately NOT checked against virgin mid-run: a
  //    traced run clears only its FINAL bucket's bit, so lower-bucket bits
  //    stay virgin indefinitely and checking them over-fires on nearly
  //    every exec; the hot per-key loop therefore touches no virgin byte
  //    at all, only the two count arrays.
  //
  // Crashes and hangs complete normally (fired stays false); the caller
  // decides to replay them traced for the exact crash/hang virgin compare.
  // Nothing campaign-lifetime is touched: no index allocation, no virgin
  // update — an aborted re-execution therefore leaves the breakpoint
  // armed and the same input fires again.
  //
  // Campaigns take this path on the flat scheme only (see TracingMode);
  // the two-level branch stays for per-layer attribution and its
  // exactness tests.
  UntracedOutcome run_untraced(std::span<const u8> input,
                               OpTimeBreakdown& timing) {
    return run_untraced(record(input, timing), timing);
  }

  // The oracle over a trace already recorded for the input.
  UntracedOutcome run_untraced(const KeyTrace& trace,
                               OpTimeBreakdown& timing) {
    UntracedOutcome out;
    out.exec = trace.exec;
    // One spare slot past the virgin positions absorbs unassigned
    // two-level keys; flat maps never touch it.
    const u32 spare = static_cast<u32>(virgin_positions());
    if (oracle_counts_.empty()) {
      oracle_counts_ = PageBuffer::plain(virgin_positions() + 1);
      oracle_touched_.reserve(1024);
    }
    const u64 start = monotonic_ns();
    for (const u32 key : trace.keys()) {
      u32 pos;
      if constexpr (Map::kScheme == MapScheme::kTwoLevel) {
        pos = map_.slot_of(key);
        // Sentinel clamp compiles to a conditional move — no control-flow
        // branch, no early exit.
        pos = pos == Map::kUnassigned ? spare : pos;
      } else {
        pos = key & static_cast<u32>(map_.map_size() - 1);
        (void)spare;
      }
      const u8 c = ++oracle_counts_[pos];
      if (c == 1) oracle_touched_.push_back(pos);
    }
    // Fused final-count check + sparse counter reset, one pass over the
    // touched positions (LUT classify, like the traced pipeline's classify
    // kernel), so the scratch is always clean for the next run.
    // The spare slot appearing in the touched list means an unassigned key
    // executed — a guaranteed-new first hit, detected by membership rather
    // than by count so a 256-wrap back to zero cannot mask it. The touched
    // list can hold a duplicate after a wrap; the extra zero store is
    // harmless.
    const u8* virgin = virgin_queue_.data();
    const auto& lut = count_class_lookup8();
    for (u32 pos : oracle_touched_) {
      if (pos == spare) {
        out.fired = true;
      } else {
        out.fired |= (virgin[pos] & lut[oracle_counts_[pos]]) != 0;
      }
      oracle_counts_[pos] = 0;
    }
    oracle_touched_.clear();
    const u64 ns = monotonic_ns() - start;
    timing.add(MapOp::kExecution, ns);
    out.exec_ns = trace.run_ns + ns;
    return out;
  }

  // Outcome of a hash-only run (trimming support).
  struct SilentRun {
    ExecResult exec;
    u32 hash = 0;
  };

  // Runs one input through reset / execute / classify / hash WITHOUT
  // touching any virgin map — AFL's trim_case uses exactly this sequence
  // to test whether a shortened input preserves the execution path. On the
  // flat scheme classify + hash is one pass that also clears the map, so
  // the next run skips its reset and last_trace() reads all zero; the
  // two-level scheme keeps its trace (its hash stops at the last non-zero
  // byte, §IV-D).
  SilentRun run_for_hash(std::span<const u8> input,
                         OpTimeBreakdown& timing) {
    return run_for_hash(record(input, timing), timing);
  }

  // The same sequence over a trace already recorded for the input.
  SilentRun run_for_hash(const KeyTrace& trace, OpTimeBreakdown& timing) {
    SilentRun out;
    out.exec = trace.exec;
    reset_map(timing);
    apply(trace, timing);
    sync_virgin();
    if constexpr (Map::kScheme == MapScheme::kFlat) {
      const u64 start = monotonic_ns();
      out.hash = map_.classify_hash_clear();
      const u64 ns = monotonic_ns() - start;
      timing.add(MapOp::kClassify, ns / 2);
      timing.add(MapOp::kHash, ns - ns / 2);
      map_zero_ = true;
    } else {
      {
        ScopedOpTimer t(timing, MapOp::kClassify);
        map_.classify();
      }
      ScopedOpTimer t(timing, MapOp::kHash);
      out.hash = map_.hash();
    }
    return out;
  }

  // The classified trace of the last run(), over the span relevant for the
  // scheme (full map for flat, used region for BigMap) — what AFL's
  // update_bitmap_score walks. All zero after a flat run_for_hash.
  std::span<const u8> last_trace() const noexcept {
    if constexpr (Map::kScheme == MapScheme::kTwoLevel) {
      return map_.used_region();
    } else {
      return map_.trace();
    }
  }

  // Coverage positions the virgin maps track (== last_trace()'s maximum
  // possible length).
  usize virgin_positions() const noexcept { return virgin_queue_.size(); }

  // Mutable access may write the trace, so it forgets that the map is
  // known to be zero: the next run resets it.
  Map& map() noexcept {
    map_zero_ = false;
    return map_;
  }
  const Map& map() const noexcept { return map_; }
  Metric& metric() noexcept { return recorder_.metric(); }

  const VirginMap& virgin_queue() const noexcept { return virgin_queue_; }
  const VirginMap& virgin_crash() const noexcept { return virgin_crash_; }
  const VirginMap& virgin_hang() const noexcept { return virgin_hang_; }

  // Mutable access for checkpoint restore and oracle deltas, which write
  // virgin bytes directly. Call sync_virgin() first whenever used_key may
  // have grown since the last run.
  VirginMap& mutable_virgin_queue() noexcept { return virgin_queue_; }
  VirginMap& mutable_virgin_crash() noexcept { return virgin_crash_; }
  VirginMap& mutable_virgin_hang() noexcept { return virgin_hang_; }

  Interpreter& interpreter() noexcept { return recorder_.interpreter(); }

  // The recorder run(input) and its siblings record with, for a caller
  // that records traces itself.
  KeyRecorder<Metric>& recorder() noexcept { return recorder_; }

  // The virgin invariant: all three virgin maps are valid over
  // [0, used_key) (two-level maps fill them lazily; flat maps are filled
  // whole at construction). run() and run_for_hash() restore it after the
  // execution that may allocate slots; code that grows used_key another
  // way (a slot-key import, a forced map update) calls this before it
  // reads or writes a virgin byte.
  void sync_virgin() noexcept {
    if constexpr (Map::kScheme == MapScheme::kTwoLevel) {
      const usize used = map_.used_key();
      virgin_queue_.fill_to(used);
      virgin_crash_.fill_to(used);
      virgin_hang_.fill_to(used);
    }
  }

 private:
  // Records `input` into the executor's own trace, charging the run to
  // kExecution.
  const KeyTrace& record(std::span<const u8> input, OpTimeBreakdown& timing) {
    recorder_.record(input, trace_);
    timing.add(MapOp::kExecution, trace_.run_ns);
    return trace_;
  }

  // One map update per recorded key, charged to kExecution. Returns the
  // time it took.
  u64 apply(const KeyTrace& trace, OpTimeBreakdown& timing) {
    const u64 start = monotonic_ns();
    for (const u32 key : trace.keys()) map_.update(key);
    const u64 ns = monotonic_ns() - start;
    timing.add(MapOp::kExecution, ns);
    return ns;
  }

  // Two-level virgin maps are only ever touched over [0, used_key): plain
  // pages, filled as it grows. Flat maps scan every byte: filled up front,
  // on huge pages when the options ask.
  static VirginMap make_virgin(const Map& m, const MapOptions& opts) {
    if constexpr (Map::kScheme == MapScheme::kTwoLevel) {
      return VirginMap::lazy(m.condensed_size());
    } else {
      return VirginMap(m.map_size(), opts.backing());
    }
  }

  // The per-exec reset, skipped when the last pass already left the map
  // all zero.
  void reset_map(OpTimeBreakdown& timing) {
    if (map_zero_) {
      map_zero_ = false;
      return;
    }
    ScopedOpTimer t(timing, MapOp::kReset);
    map_.reset();
  }

  NewBits classify_and_compare(VirginMap& virgin, OpTimeBreakdown& timing) {
    if (merged_) {
      const u64 start = monotonic_ns();
      const NewBits nb = map_.classify_and_compare(virgin);
      const u64 ns = monotonic_ns() - start;
      timing.add(MapOp::kClassify, ns / 2);
      timing.add(MapOp::kCompare, ns - ns / 2);
      return nb;
    }
    {
      ScopedOpTimer t(timing, MapOp::kClassify);
      map_.classify();
    }
    ScopedOpTimer t(timing, MapOp::kCompare);
    return map_.compare_update(virgin);
  }

  Map map_;
  VirginMap virgin_queue_;
  VirginMap virgin_crash_;
  VirginMap virgin_hang_;
  KeyRecorder<Metric> recorder_;
  // What run(input) and its siblings record into, reserved on first use.
  KeyTrace trace_;
  bool merged_;
  // The map is all zero: set by the flat run_for_hash, cleared by the next
  // run and by any mutable map() access.
  bool map_zero_ = false;
  // Untraced-mode scratch: per-exec u8 hit counts per virgin position
  // plus the spare slot (mapped on the first run_untraced; only touched
  // pages become resident) and the positions touched this run, for sparse
  // reset.
  PageBuffer oracle_counts_;
  std::vector<u32> oracle_touched_;
};

}  // namespace bigmap
