#include "telemetry/sink.h"

#include <algorithm>

#include "util/timing.h"

namespace bigmap::telemetry {

TelemetrySink::TelemetrySink(u32 instance_id)
    : instance_id_(instance_id), born_ns_(monotonic_ns()) {
  published_.instance_id = instance_id;
}

u64 TelemetrySink::now_ms() const noexcept {
  return (monotonic_ns() - born_ns_) / 1000000;
}

void TelemetrySink::begin_attempt(const StatsSnapshot& restored) {
  std::lock_guard<std::mutex> lock(mu_);
  if (fresh_) {
    // The restored counts are this sink's whole history: published as
    // they stand (carry and at_start stay 0), but run by someone else.
    for_each_field(
        [](const char*, FieldKind kind, u64& out, u64 in) {
          if (kind == FieldKind::kCounter) out = in;
        },
        published_, restored);
    handed_execs_ = restored.execs;
    fresh_ = false;
  } else {
    carry_ = published_;
    at_start_ = restored;
  }
}

StatsSnapshot TelemetrySink::publish_locked(const StatsSnapshot& s,
                                            u64 relative_ms) {
  fresh_ = false;
  for_each_field(
      [](const char*, FieldKind kind, u64& out, u64 now, u64 carry,
         u64 at_start) {
        if (kind == FieldKind::kGauge) {
          out = now;
        } else if (now > at_start) {
          out = std::max(out, carry + (now - at_start));
        }
      },
      published_, s, carry_, at_start_);
  published_.kernel = s.kernel;
  published_.relative_ms = relative_ms;
  published_.restarts = restarts.get();
  published_.execs_per_sec =
      relative_ms > 0 ? static_cast<double>(published_.execs - handed_execs_) *
                            1000.0 / static_cast<double>(relative_ms)
                      : 0.0;
  published_.execs_per_sec_now = published_.execs_per_sec;
  return published_;
}

void TelemetrySink::publish(const StatsSnapshot& s) {
  std::lock_guard<std::mutex> lock(mu_);
  publish_locked(s, now_ms());
}

StatsSnapshot TelemetrySink::stamp_at(const StatsSnapshot& in,
                                      u64 relative_ms) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!series_.empty()) {
    relative_ms = std::max(relative_ms, series_.back().relative_ms);
  }
  StatsSnapshot s = publish_locked(in, relative_ms);
  if (!series_.empty()) {
    const StatsSnapshot& prev = series_.back();
    const u64 dt_ms = s.relative_ms - prev.relative_ms;
    s.execs_per_sec_now =
        dt_ms > 0 ? static_cast<double>(s.execs - prev.execs) * 1000.0 /
                        static_cast<double>(dt_ms)
                  : s.execs_per_sec;
  }
  series_.push_back(s);
  return s;
}

std::vector<StatsSnapshot> TelemetrySink::series() const {
  std::lock_guard<std::mutex> lock(mu_);
  return series_;
}

usize TelemetrySink::series_size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return series_.size();
}

StatsSnapshot TelemetrySink::latest() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (!series_.empty()) return series_.back();
  StatsSnapshot s = published_;
  s.restarts = restarts.get();
  return s;
}

FleetTelemetry::FleetTelemetry(u32 num_instances)
    : restarts_(registry_.counter("supervisor.restarts")),
      stalls_(registry_.counter("supervisor.stalls")),
      kills_(registry_.counter("supervisor.kills")),
      alloc_failures_(registry_.counter("supervisor.alloc_failures")),
      backoff_ms_total_(registry_.counter("supervisor.backoff_ms_total")) {
  for (u32 id = 0; id < num_instances; ++id) sinks_.emplace_back(id);
}

StatsSnapshot FleetTelemetry::fleet_total() const {
  StatsSnapshot total;
  total.instance_id = 0xFFFFFFFFu;  // fleet marker
  for (const TelemetrySink& sink : sinks_) {
    const StatsSnapshot s = sink.latest();
    // The kernel is a process-wide selection; surface the first instance
    // that reported one.
    if (total.kernel[0] == '\0') total.kernel = s.kernel;
    total.relative_ms = std::max(total.relative_ms, s.relative_ms);
    for_each_field([](const char*, FieldKind, u64& a, u64 b) { a += b; },
                   total, s);
    total.execs_per_sec += s.execs_per_sec;
    total.execs_per_sec_now += s.execs_per_sec_now;
  }
  total.restarts = restarts_.get();
  return total;
}

StatsSnapshot FleetTelemetry::stamp_fleet() {
  StatsSnapshot s = fleet_total();
  std::lock_guard<std::mutex> lock(mu_);
  if (!fleet_series_.empty()) {
    s.relative_ms =
        std::max(s.relative_ms, fleet_series_.back().relative_ms);
  }
  fleet_series_.push_back(s);
  return s;
}

std::vector<StatsSnapshot> FleetTelemetry::fleet_series() const {
  std::lock_guard<std::mutex> lock(mu_);
  return fleet_series_;
}

}  // namespace bigmap::telemetry
