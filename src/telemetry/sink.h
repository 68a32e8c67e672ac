// TelemetrySink: the published view of one campaign instance's counters,
// plus FleetTelemetry, the supervisor-side aggregate over N sinks.
//
// The campaign counts each event once, in its CampaignResult. At each
// stamp (every telemetry_interval execs, and at finalize) it fills one
// StatsSnapshot from those counters and the map-state gauges and hands it
// to stamp(), which applies the carry rule below, computes the rates and
// appends the result to a mutex-guarded series (the raw data behind
// plot_data). Nothing runs per exec. Observers (supervisor, emitter,
// bench threads) read latest() and series() at any time.
//
// A sink outlives the producer attempts that feed it: the supervisor keeps
// one sink per instance slot across restarts, so the snapshot series is
// cumulative per *instance*, not per attempt. Each attempt opens with
// begin_attempt(restored), and every lifetime counter it publishes is
//
//   carry + (now - at_start)
//
// where carry is what the sink had published when the attempt began (0 on
// a fresh sink) and at_start is the value the attempt restored from a
// checkpoint (0 on a cold start, 0 for fields a checkpoint does not
// persist, and 0 on a fresh sink, whose history the restored counts then
// are). This one rule covers a cold start, an in-process warm restart on a
// surviving sink, and a whole-process resume onto a fresh sink. Gauges are
// not carried. A published counter never goes down, so execs in the last
// snapshot of each instance sum to the supervisor's fleet total.
#pragma once

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

  // The supervisor's event (Lifecycle::retry bumps it), not the
  // producer's; every published snapshot reads it.
  Counter restarts;

  // --- producer side ------------------------------------------------------

  // Opens a producer attempt that continues from `restored`, the lifetime
  // counters it restored from a checkpoint (all zero on a cold start). On
  // a fresh sink the restored counts are published at once, and the
  // lifetime rate leaves them out: they ran before this sink existed. A
  // supervisor hands a fresh sink the recovered totals of an instance that
  // will not run again the same way.
  void begin_attempt(const StatsSnapshot& restored);

  // Publishes `s` under the carry rule without stamping it; latest()
  // returns it until the first stamp. For producers that never stamp.
  void publish(const StatsSnapshot& s);

  // Publishes `s` and appends it to the series at relative_ms (clamped to
  // be monotone within the series), with the lifetime rate and the
  // instantaneous rate against the previous stamp.
  StatsSnapshot stamp_at(const StatsSnapshot& s, u64 relative_ms);
  StatsSnapshot stamp(const StatsSnapshot& s) {
    return stamp_at(s, now_ms());
  }

  // --- observer side ------------------------------------------------------

  std::vector<StatsSnapshot> series() const;
  usize series_size() const;
  // The last stamp; the last published value when none was stamped yet.
  StatsSnapshot latest() const;

  // Milliseconds since this sink was constructed.
  u64 now_ms() const noexcept;

 private:
  StatsSnapshot publish_locked(const StatsSnapshot& s, u64 relative_ms);

  const u32 instance_id_;
  const u64 born_ns_;

  mutable std::mutex mu_;    // guards everything below
  bool fresh_ = true;        // nothing published yet
  StatsSnapshot published_;  // what latest() falls back to
  StatsSnapshot carry_;      // published_ when the open attempt began
  StatsSnapshot at_start_;   // what the open attempt restored
  u64 handed_execs_ = 0;     // published execs this sink never saw run
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

  // Sum of every instance's latest snapshot over for_each_field (gauges
  // sum too: fleet queue depth is the total queued entries across
  // instances). relative_ms is the max across instances; rates are summed;
  // restarts is the fleet's own counter.
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

  std::deque<TelemetrySink> sinks_;  // deque: sinks hold a mutex, never move

  mutable std::mutex mu_;  // guards fleet_series_ only
  std::vector<StatsSnapshot> fleet_series_;
};

}  // namespace bigmap::telemetry
