// TelemetrySink: the live metrics surface one campaign instance publishes
// into, plus FleetTelemetry, the supervisor-side aggregate over N sinks.
//
// Split of responsibilities:
//  - hot path (every execution): lock-free Counter bumps and one Histogram
//    record — no mutex, no allocation (see registry.h);
//  - cadence path (every telemetry_interval execs): the campaign refreshes
//    the map-state gauges and calls stamp(), which assembles a
//    StatsSnapshot — rates included — and appends it to a mutex-guarded
//    series (the raw data behind plot_data);
//  - observer path (supervisor / emitter threads): live() reads the
//    counters at any time without stopping the instance; series() copies
//    the stamped history.
//
// A sink outlives the campaign attempts that feed it: the supervisor keeps
// one sink per instance slot across restarts, so counters and the snapshot
// series are cumulative per *instance*, not per attempt — execs in the last
// snapshot of each instance sum to the supervisor's fleet total.
#pragma once

#include <atomic>
#include <deque>
#include <mutex>
#include <vector>

#include "telemetry/registry.h"
#include "telemetry/snapshot.h"

namespace bigmap::telemetry {

class TelemetrySink {
 public:
  explicit TelemetrySink(u32 instance_id = 0);

  u32 instance_id() const noexcept { return instance_id_; }

  // --- hot-path counters (lock-free) ---------------------------------------
  Counter execs;
  Counter interesting;
  Counter crashes;
  Counter hangs;
  Counter trim_execs;
  Counter sync_published;
  Counter sync_imported;
  Counter faulted_execs;
  Counter injected_hangs;
  Counter restarts;  // bumped by the supervisor, not the campaign

  // Coverage-guided tracing counters (see CampaignConfig::tracing):
  // untraced/traced exec split, oracle fires, and wall time spent in traced
  // re-executions.
  Counter tracing_untraced_execs;
  Counter tracing_traced_execs;
  Counter tracing_oracle_fires;
  Counter tracing_reexec_ns;

  // Persistence counters (bumped by the campaign's checkpoint path; see
  // persist/checkpoint.h for the recovery-cause taxonomy).
  Counter checkpoints_written;
  Counter checkpoints_loaded;
  Counter checkpoint_bytes;
  Counter recovery_torn_tail;
  Counter recovery_bad_crc;
  Counter recovery_version_mismatch;

  // Per-execution wall time, log-2 ns buckets.
  Histogram exec_ns;

  // --- sampled gauges (set on the stamp cadence) ---------------------------
  Gauge queue_depth;
  Gauge covered_positions;
  Gauge map_positions;
  Gauge used_key;
  Gauge saturated_updates;
  Gauge map_resets;
  Gauge map_classifies;
  Gauge map_compares;
  Gauge map_hashes;

  // Builds a snapshot of the current counters/gauges at `relative_ms` (most
  // callers use live(), which reads the sink's own clock). Does not append
  // to the series; rates are lifetime-only.
  StatsSnapshot live_at(u64 relative_ms) const;
  StatsSnapshot live() const { return live_at(now_ms()); }

  // Appends live_at(relative_ms) to the series, computing the instantaneous
  // rate against the previous snapshot. relative_ms is clamped to be
  // monotone within the series.
  StatsSnapshot stamp_at(u64 relative_ms);
  StatsSnapshot stamp() { return stamp_at(now_ms()); }

  std::vector<StatsSnapshot> series() const;
  usize series_size() const;
  // Last stamped snapshot; a live() snapshot when none was stamped yet.
  StatsSnapshot latest() const;

  // Milliseconds since this sink was constructed.
  u64 now_ms() const noexcept;

  // Records which whole-map kernel the campaign's coverage map uses; must
  // be a string with static storage duration (kernel names are). Stamped
  // into every subsequent snapshot.
  void set_kernel(const char* name) noexcept {
    kernel_.store(name, std::memory_order_relaxed);
  }
  const char* kernel() const noexcept {
    return kernel_.load(std::memory_order_relaxed);
  }

 private:
  const u32 instance_id_;
  const u64 born_ns_;
  std::atomic<const char*> kernel_{""};

  mutable std::mutex mu_;  // guards series_ only
  std::vector<StatsSnapshot> series_;
};

// Per-instance sinks plus fleet-level aggregation and supervisor event
// counters. The supervisor hands &instance(i) to campaign i and bumps the
// event counters from its watchdog loop; fleet_total() and the fleet series
// are what bench reporters and the stats emitter read.
class FleetTelemetry {
 public:
  explicit FleetTelemetry(u32 num_instances);

  u32 num_instances() const noexcept {
    return static_cast<u32>(sinks_.size());
  }
  TelemetrySink& instance(u32 id) { return sinks_.at(id); }
  const TelemetrySink& instance(u32 id) const { return sinks_.at(id); }

  // Supervisor lifecycle events, also mirrored into registry() under
  // "supervisor.*" names.
  Counter& restarts() { return restarts_; }
  Counter& stalls() { return stalls_; }
  Counter& kills() { return kills_; }
  Counter& alloc_failures() { return alloc_failures_; }
  Counter& backoff_ms_total() { return backoff_ms_total_; }

  // Shared registry for everything else that wants to be observable in the
  // same scrape: the procfleet.* counters, and the gauges the fleet driver
  // publishes from stats structs at each fleet stamp (fault.*, netfleet.*,
  // failover.*, oracle.*).
  MetricRegistry& registry() noexcept { return registry_; }
  const MetricRegistry& registry() const noexcept { return registry_; }

  // Element-wise sum of every instance's latest snapshot (gauges sum too:
  // fleet queue depth is the total queued entries across instances).
  // relative_ms is the max across instances; rates are summed.
  StatsSnapshot fleet_total() const;

  // Appends fleet_total() to the fleet-level series.
  StatsSnapshot stamp_fleet();
  std::vector<StatsSnapshot> fleet_series() const;

 private:
  MetricRegistry registry_;
  Counter& restarts_;
  Counter& stalls_;
  Counter& kills_;
  Counter& alloc_failures_;
  Counter& backoff_ms_total_;

  std::deque<TelemetrySink> sinks_;  // deque: sinks hold atomics, never move

  mutable std::mutex mu_;  // guards fleet_series_ only
  std::vector<StatsSnapshot> fleet_series_;
};

}  // namespace bigmap::telemetry
