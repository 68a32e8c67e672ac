// StatsSnapshot: one periodic observation of a running campaign instance
// (or of a whole fleet, when aggregated by FleetTelemetry).
//
// Everything is a plain value: the campaign fills one from its own result
// counters at each stamp and hands it to its TelemetrySink, which copies it
// out, serializes it (fuzzer_stats / plot_data / JSON), and compares it in
// golden-file tests. for_each_field below names every counter and gauge
// once, for the sink's carry arithmetic and the fleet sum.
#pragma once

#include <concepts>
#include <type_traits>

#include "util/types.h"

namespace bigmap::telemetry {

struct StatsSnapshot {
  u32 instance_id = 0;
  // Whole-map kernel the producing campaign's coverage map dispatches to
  // ("scalar"/"swar"/"sse2"/"avx2"/"avx512"; empty when the producer never
  // set it).
  // Always a string literal with static storage duration, so plain copies
  // of the snapshot stay valid.
  const char* kernel = "";
  // Milliseconds since the owning sink was created. Monotone within a
  // sink's series even across campaign restarts (the sink outlives the
  // campaign attempts that publish into it).
  u64 relative_ms = 0;

  // Lifetime counters (cumulative across restarts of the instance).
  // `restarts` is the supervisor's: the sink fills it from its own counter.
  u64 execs = 0;
  u64 interesting = 0;
  u64 crashes = 0;
  u64 hangs = 0;
  u64 trim_execs = 0;
  u64 sync_published = 0;
  u64 sync_imported = 0;

  // Fault/supervision accounting.
  u64 faulted_execs = 0;
  u64 injected_hangs = 0;
  u64 restarts = 0;

  // Coverage-guided tracing accounting (untraced fast path vs. traced
  // pipeline split; tracing_reexec_ns is wall time in traced replays).
  u64 tracing_untraced_execs = 0;
  u64 tracing_traced_execs = 0;
  u64 tracing_oracle_fires = 0;
  u64 tracing_reexec_ns = 0;

  // Persistence accounting (checkpoint/journal layer). Recovery counters
  // split by cause: a torn snapshot tail, a CRC mismatch, a stale or
  // foreign format version.
  u64 checkpoints_written = 0;
  u64 checkpoints_loaded = 0;
  u64 checkpoint_bytes = 0;
  u64 recovery_torn_tail = 0;
  u64 recovery_bad_crc = 0;
  u64 recovery_version_mismatch = 0;

  // Map-state gauges (sampled, not cumulative).
  u64 queue_depth = 0;
  u64 covered_positions = 0;  // covered virgin positions
  u64 map_positions = 0;      // virgin positions tracked (density denominator)
  u64 used_key = 0;           // two-level only; 0 for flat
  u64 saturated_updates = 0;

  // Whole-map operation counts from the coverage map (reset/classify/
  // compare/hash scans — the Figure 3 cost centers; update() is deliberately
  // not counted per-edge to keep the Listing 1/2 hot path untouched).
  u64 map_resets = 0;
  u64 map_classifies = 0;
  u64 map_compares = 0;
  u64 map_hashes = 0;

  // Throughput: lifetime average and instantaneous (since the previous
  // snapshot in the same series; equals the lifetime rate for the first).
  double execs_per_sec = 0.0;
  double execs_per_sec_now = 0.0;

  double map_density() const noexcept {
    return map_positions == 0 ? 0.0
                              : static_cast<double>(covered_positions) /
                                    static_cast<double>(map_positions);
  }
};

// A lifetime counter continues across a producer's attempts (the sink
// carries what earlier attempts published); a gauge is sampled afresh at
// every stamp.
enum class FieldKind : u8 { kCounter, kGauge };

// StatsSnapshot's one field list: calls f(name, kind, s.member...) for
// every producer-published counter and gauge of one or more snapshots
// (const or not) walked in lockstep. Not listed: the identity and clock
// (instance_id, kernel, relative_ms), the sink-derived rates, and the
// supervisor's restarts.
template <class F, class... S>
  requires(std::same_as<std::remove_const_t<S>, StatsSnapshot> && ...)
void for_each_field(F&& f, S&... s) {
  constexpr FieldKind kC = FieldKind::kCounter;
  constexpr FieldKind kG = FieldKind::kGauge;
  f("execs", kC, s.execs...);
  f("interesting", kC, s.interesting...);
  f("crashes", kC, s.crashes...);
  f("hangs", kC, s.hangs...);
  f("trim_execs", kC, s.trim_execs...);
  f("sync_published", kC, s.sync_published...);
  f("sync_imported", kC, s.sync_imported...);
  f("faulted_execs", kC, s.faulted_execs...);
  f("injected_hangs", kC, s.injected_hangs...);
  f("tracing_untraced_execs", kC, s.tracing_untraced_execs...);
  f("tracing_traced_execs", kC, s.tracing_traced_execs...);
  f("tracing_oracle_fires", kC, s.tracing_oracle_fires...);
  f("tracing_reexec_ns", kC, s.tracing_reexec_ns...);
  f("checkpoints_written", kC, s.checkpoints_written...);
  f("checkpoints_loaded", kC, s.checkpoints_loaded...);
  f("checkpoint_bytes", kC, s.checkpoint_bytes...);
  f("recovery_torn_tail", kC, s.recovery_torn_tail...);
  f("recovery_bad_crc", kC, s.recovery_bad_crc...);
  f("recovery_version_mismatch", kC, s.recovery_version_mismatch...);
  f("queue_depth", kG, s.queue_depth...);
  f("covered_positions", kG, s.covered_positions...);
  f("map_positions", kG, s.map_positions...);
  f("used_key", kG, s.used_key...);
  f("saturated_updates", kG, s.saturated_updates...);
  f("map_resets", kG, s.map_resets...);
  f("map_classifies", kG, s.map_classifies...);
  f("map_compares", kG, s.map_compares...);
  f("map_hashes", kG, s.map_hashes...);
}

}  // namespace bigmap::telemetry
